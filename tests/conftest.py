"""Shared brute-force oracles, kept independent of the library internals.

Everything here recomputes from scratch with the dumbest correct method:
faces by powerset enumeration, ranks by Gaussian elimination over Fraction,
F2 ranks by xor-ing bit rows.  Tests compare the library against these.
Six exceptions are kept as differential oracles for the code that
replaced them: ``build_parser``, the argparse parser of the CLI, for the
table-driven parser in ``torictop.cli``; the dense field kernel (``rref``, ``reduce_against``,
``kernel_basis`` and the field objects) for the sparse eliminator in
``linalg``; ``face_ring_cohomology``, the library's previous cohomology
engine, for ``cohomology_ring``; the integer adjugate ``unimodular_inverse``
for ``quasitoric.linear_forms``; ``per_subset_wedge_splitting``, the
previous wedge splitting that builds and reduces every full subcomplex, for
``wedge_splitting``; and the symbolic mod-2 presentations
(``cube_presentation``, ``product_presentation``, ``cube_parameters``) for
``cohomology_ring`` over F2 and ``cube_census``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from torictop import __version__, cli, linalg
from torictop.cli import (
    _cmd_bott,
    _cmd_cube_census,
    _cmd_fixtures,
    _cmd_hvec,
    _cmd_nontrivial,
    _cmd_projection,
    _cmd_qtm,
    _cmd_split,
    _cmd_zk,
)
from torictop.complexes import (
    PolytopeDual,
    SimplicialComplex,
    _vertices_of,
    full_subcomplex,
    h_vector_of,
)
from torictop.errors import CapExceededError, ConsistencyError, InputError
from torictop.homology import GradedHomology, merge_torsion, reduced_homology
from torictop.momentangle import WedgeSplitting, WedgeSummand, _cap_for
from torictop.quasitoric import (
    CharacteristicMatrix,
    CohomologyPresentation,
    require_admissible,
    validate_characteristic,
)


def powerset_faces(maximal_faces) -> set[tuple[int, ...]]:
    """All faces (as sorted tuples, including the empty tuple)."""
    faces = set()
    for mf in maximal_faces:
        mf = tuple(sorted(mf))
        for r in range(len(mf) + 1):
            faces.update(itertools.combinations(mf, r))
    faces.add(())
    return faces


def face_counts_by_card(maximal_faces) -> dict[int, int]:
    counts: dict[int, int] = {}
    for f in powerset_faces(maximal_faces):
        counts[len(f)] = counts.get(len(f), 0) + 1
    return counts


def h_from_f_polynomial(f_entries, n) -> tuple[int, ...]:
    """h-vector via the generating polynomial sum_i f_{i-1} (t-1)^(n-i).

    Independent of the alternating-sum formula: expand the polynomial and
    read h_k off the coefficient of t^(n-k).
    """
    # poly[d] = coefficient of t^d
    poly = [0] * (n + 1)
    for i in range(n + 1):  # f_entries[i] = f_{i-1}
        # (t-1)^(n-i)
        e = n - i
        for d in range(e + 1):
            poly[d] += f_entries[i] * math.comb(e, d) * (-1) ** (e - d)
    return tuple(poly[n - k] for k in range(n + 1))


def fraction_rank(rows) -> int:
    """Gaussian elimination over Fraction; the reference rank."""
    A = [[Fraction(x) for x in row] for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = Fraction(1) / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def f2_rank(rows) -> int:
    """Rank over F2, each row packed into one int."""
    packed = []
    for row in rows:
        v = 0
        for j, x in enumerate(row):
            if x % 2:
                v |= 1 << j
        packed.append(v)
    rank = 0
    for c in range(max((len(r) for r in rows), default=0)):
        bit = 1 << c
        piv = next((i for i, v in enumerate(packed) if v & bit), None)
        if piv is None:
            continue
        pv = packed.pop(piv)
        packed = [v ^ pv if v & bit else v for v in packed]
        rank += 1
    return rank


def mod_p_rank(rows, p) -> int:
    """Rank over F_p by Gaussian elimination on Python ints (no overflow)."""
    A = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(max((len(r) for r in A), default=0)):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for i in range(rank + 1, len(A)):
            f = A[i][c]
            A[i] = [(x - f * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# The dense field kernel the library used before its sparse eliminator:
# field objects, RREF, normal forms and kernels.  It is the oracle of
# ``linalg.echelon``, ``normal_form`` and ``kernel_vectors``, and the field
# arithmetic of the oracles below, which so share no code with the engine.


class PrimeField:
    """Arithmetic in F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0


class RationalField:
    """Arithmetic in Q via Fraction."""

    zero, one, from_int = Fraction(0), Fraction(1), Fraction

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def inv(self, a):
        return self.one / a

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


def field_for_tag(coeff: str):
    """Map a coefficient tag ('Q', 'F2', 'F3', ...) to a field object."""
    if coeff == "Q":
        return RationalField()
    if coeff.startswith("F") and coeff[1:].isdecimal():
        return PrimeField(int(coeff[1:]))
    raise InputError(f"unknown coefficient tag {coeff!r}; use 'Q' or 'F<p>'")


def rref(rows: list[list], ncols: int, field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form: (reduced nonzero rows, pivot columns).

    Every pivot row is zero in the other pivot columns, so the result depends
    only on the row space, not on the order of the input rows.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    m = len(work)
    for c in range(ncols):
        piv = next((i for i in range(r, m) if not field.is_zero(work[i][c])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        prow = work[r] = [field.mul(inv, x) for x in work[r]]
        support = [j for j, x in enumerate(prow) if not field.is_zero(x)]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and not field.is_zero(f):
                for j in support:
                    row[j] = field.sub(row[j], field.mul(f, prow[j]))
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work[:r], pivots


def reduce_against(vec: list, rref_rows: list[list], pivots: list[int], field) -> list:
    """Normal form of vec modulo the row space given in RREF."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if not field.is_zero(c):
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


def kernel_basis(rows: list[list], ncols: int, field) -> list[list]:
    """Basis of the right kernel of the matrix, one vector per free column."""
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = field.neg(row[f])
        basis.append(v)
    return basis


def brute_boundaries(maximal_faces):
    """Augmented boundary matrices from scratch (tuples, not bitmasks).

    Returns (mats, dims) where mats[k] maps the span of (k+1)-vertex faces
    to the span of k-vertex faces, and dims[k] counts k-vertex faces.
    """
    faces = powerset_faces(maximal_faces)
    top = max(len(f) for f in faces)
    by_card = [sorted(f for f in faces if len(f) == c) for c in range(top + 1)]
    index = [{f: i for i, f in enumerate(lst)} for lst in by_card]
    dims = [len(lst) for lst in by_card]
    mats = []
    for c in range(1, top + 1):
        rows = [[0] * dims[c] for _ in range(dims[c - 1])]
        for col, f in enumerate(by_card[c]):
            for t in range(len(f)):
                sub = f[:t] + f[t + 1 :]
                rows[index[c - 1][sub]][col] = (-1) ** t
        mats.append(rows)
    return mats, dims


def brute_reduced_betti(maximal_faces, rank_fn=fraction_rank) -> dict[int, int]:
    """Reduced Betti numbers over Q (or F2 with rank_fn=f2_rank)."""
    mats, dims = brute_boundaries(maximal_faces)
    ranks = [rank_fn(m) if m and m[0] else 0 for m in mats]
    betti = {}
    for k, dim in enumerate(dims):
        out_rank = ranks[k - 1] if k >= 1 else 0
        in_rank = ranks[k] if k < len(mats) else 0
        b = dim - out_rank - in_rank
        if b:
            betti[k - 1] = b
    return betti


def graded_tensor_unreduced(u1: dict[int, int], u2: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for d1, r1 in u1.items():
        for d2, r2 in u2.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + r1 * r2
    return {d: r for d, r in out.items() if r}


def unreduce(reduced: dict[int, int]) -> dict[int, int]:
    """Reduced ranks of a connected space -> unreduced ranks."""
    out = dict(reduced)
    out[0] = out.get(0, 0) + 1
    return out


def reduce_ranks(unreduced: dict[int, int]) -> dict[int, int]:
    out = dict(unreduced)
    out[0] = out.get(0, 0) - 1
    return {d: r for d, r in out.items() if r}


def random_complex_faces(rng: random.Random, m: int, n_faces: int, max_card: int):
    """Random maximal-face candidates (may be redundant; that is fine)."""
    faces = []
    for _ in range(n_faces):
        card = rng.randint(1, max_card)
        faces.append(sorted(rng.sample(range(1, m + 1), min(card, m))))
    return faces


def pascal_parity_table(limit: int):
    """Rows 0..limit of Pascal's triangle mod 2."""
    rows = [[1]]
    for r in range(1, limit + 1):
        prev = rows[-1]
        row = [1] + [(prev[i - 1] + prev[i]) % 2 for i in range(1, r)] + [1]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the face-ring cohomology engine, kept as the oracle for cohomology_ring
#
# It presents H*(M; k) as the face ring k[K] divided by the linear forms of
# the characteristic matrix and runs one dense RREF per degree over every
# face-supported monomial.  cohomology_ring must agree with it byte for byte.


def _compositions(total: int, parts: int):
    """Positive integer compositions of ``total`` into ``parts`` slots."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _support_mask(exp: tuple[int, ...]) -> int:
    mask = 0
    for i, e in enumerate(exp):
        if e:
            mask |= 1 << i
    return mask


class _DegreeSystem:
    """Monomial columns and relation reducer for one polynomial degree."""

    def __init__(self, cols, col_index, rref_rows, pivots, basis_cols, field):
        self.cols = cols
        self.col_index = col_index
        self.rref_rows = rref_rows
        self.pivots = pivots
        self.basis_cols = basis_cols  # column indices of surviving monomials
        self.field = field

    @property
    def basis(self):
        return tuple(self.cols[c] for c in self.basis_cols)

    def normal_form(self, vec):
        red = reduce_against(vec, self.rref_rows, self.pivots, self.field)
        return tuple(red[c] for c in self.basis_cols)


def face_ring_cohomology(
    P: PolytopeDual, lam: CharacteristicMatrix, coeff: str = "Q"
) -> CohomologyPresentation:
    """Compute the field cohomology presentation of the quasitoric manifold.

    Raises ConsistencyError when a computed dimension disagrees with the
    h-vector; that equality is a theorem, so a failure means corrupt input
    or a bug, never a property of valid data.
    """
    report = validate_characteristic(P, lam)
    if not report.valid:
        raise InputError(
            f"characteristic matrix fails on face {report.failing_face} "
            f"(determinant {report.failing_det})"
        )
    field = field_for_tag(coeff)
    K = P.complex
    n, m = P.n, P.m
    h = h_vector_of(P).entries

    sigma0 = min(K.maximal_faces)
    in_sigma0 = set(sigma0)
    priority = list(sigma0) + [v for v in range(1, m + 1) if v not in in_sigma0]

    def key(exp):
        return tuple(exp[v - 1] for v in priority)

    faces = sorted(
        {mask for lst in K.faces_by_card().values() for mask in lst if mask},
        key=lambda f: f.bit_count(),
    )
    face_verts = {}
    for f in faces:
        vs = []
        x = f
        v = 1
        while x:
            if x & 1:
                vs.append(v)
            x >>= 1
            v += 1
        face_verts[f] = vs
    face_set = set(faces)

    def monomials(k):
        if k == 0:
            return [(0,) * m]
        out = []
        for f in faces:
            vs = face_verts[f]
            if len(vs) > k:
                continue
            for comp in _compositions(k, len(vs)):
                exp = [0] * m
                for v, e in zip(vs, comp):
                    exp[v - 1] = e
                out.append(tuple(exp))
        out.sort(key=key, reverse=True)
        return out

    lam_field = [[field.from_int(x) for x in row] for row in lam.rows]

    systems: dict[int, _DegreeSystem] = {}
    prev_monomials: list[tuple[int, ...]] = []
    for k in range(0, n + 2):
        cols = monomials(k)
        col_index = {c: i for i, c in enumerate(cols)}
        rows = []
        if k >= 1:
            for i in range(n):
                lam_row = lam_field[i]
                for mu in prev_monomials:
                    vec = [field.zero] * len(cols)
                    hit = False
                    for j in range(m):
                        c = lam_row[j]
                        if field.is_zero(c):
                            continue
                        exp = list(mu)
                        exp[j] += 1
                        texp = tuple(exp)
                        idx = col_index.get(texp)
                        if idx is None:
                            continue  # non-face monomial: zero in the face ring
                        vec[idx] = field.add(vec[idx], c)
                        hit = True
                    if hit:
                        rows.append(vec)
        rref_rows, pivots = rref(rows, len(cols), field)
        basis_cols = [c for c in range(len(cols)) if c not in set(pivots)]
        basis_cols.reverse()  # ascending priority order: smallest monomials first
        systems[k] = _DegreeSystem(cols, col_index, rref_rows, pivots, basis_cols, field)
        if k == 1 and sorted(pivots) != list(range(n)):
            raise ConsistencyError(
                "linear forms failed to pivot on the first maximal face; "
                "the unimodular minor should have made this impossible"
            )
        want = h[k] if k <= n else 0
        if len(basis_cols) != want:
            raise ConsistencyError(
                f"degree {2 * k} has dimension {len(basis_cols)}, "
                f"h-vector predicts {want}"
            )
        prev_monomials = cols

    basis = {k: systems[k].basis for k in range(n + 1)}

    mult_h2 = {}
    for k in range(1, n):
        table = []
        target = systems[k + 1]
        for b2 in basis[1]:
            row = []
            for bt in basis[k]:
                prod = tuple(a + b for a, b in zip(b2, bt))
                if _support_mask(prod) in face_set:
                    vec = [field.zero] * len(target.cols)
                    vec[target.col_index[prod]] = field.one
                    row.append(target.normal_form(vec))
                else:
                    row.append(tuple([field.zero] * len(target.basis_cols)))
            table.append(tuple(row))
        mult_h2[k] = tuple(table)

    squaring_cols = None
    if coeff == "F2":
        target = systems[2]
        cols_out = []
        for b2 in basis[1]:
            sq = tuple(2 * e for e in b2)
            vec = [field.zero] * len(target.cols)
            vec[target.col_index[sq]] = field.one
            cols_out.append(tuple(target.normal_form(vec)))
        squaring_cols = tuple(cols_out)

    return CohomologyPresentation(
        coeff=coeff,
        n=n,
        m=m,
        h=h,
        pivot_face=sigma0,
        basis=basis,
        mult_h2=mult_h2,
        squaring_cols=squaring_cols,
    )


# ---------------------------------------------------------------------------
# the per-subset wedge splitting, kept as the oracle for wedge_splitting
#
# It builds and reduces every full subcomplex K_I, cones and join summands
# included.  wedge_splitting must agree with it byte for byte.


def per_subset_wedge_splitting(
    K: SimplicialComplex,
    coeff: str = "Z",
    size_filter: set[int] | None = None,
    cap: int | None = None,
    keep_trivial: bool = False,
) -> WedgeSplitting:
    """Enumerate the wedge summands of the suspended moment-angle complex.

    ``size_filter`` restricts to subsets I with |I| in the given set.  The
    enumeration refuses to run past the cap (default 16 vertices with exact
    coefficients, 24 over a finite field) unless ``cap`` overrides it.
    Summands with vanishing homology are only counted unless
    ``keep_trivial`` asks for them to be materialized.
    """
    limit = _cap_for(coeff, cap)
    if K.m > limit:
        raise CapExceededError(
            f"m={K.m} exceeds the enumeration cap {limit}; pass a larger cap to override"
        )
    if size_filter is not None:
        size_filter = set(size_filter)
        if any(s < 1 or s > K.m for s in size_filter):
            raise InputError("size filter values must lie in 1..m")

    summands: list[WedgeSummand] = []
    trivial = 0
    total_rank: dict[int, int] = {}
    total_tors: dict[int, list[int]] = {}
    for mask in range(1, 1 << K.m):
        size = mask.bit_count()
        if size_filter is not None and size not in size_filter:
            continue
        sub = full_subcomplex(K, _vertices_of(mask))
        hom = reduced_homology(sub, coeff)
        if hom.is_trivial():
            trivial += 1
            if not keep_trivial:
                continue
        summands.append(
            WedgeSummand(
                subset=_vertices_of(mask),
                homology=hom,
                contractible=sub.is_cone(),
            )
        )
        for deg, (rank, tors) in hom.groups:
            d = deg + size + 1
            total_rank[d] = total_rank.get(d, 0) + rank
            if tors:
                total_tors.setdefault(d, []).extend(tors)
    assembled = {
        d: (total_rank.get(d, 0), merge_torsion(total_tors.get(d, [])))
        for d in set(total_rank) | set(total_tors)
    }
    summands.sort(key=lambda s: (len(s.subset), s.subset))
    return WedgeSplitting(
        m=K.m,
        coeff=coeff,
        summands=tuple(summands),
        trivial_count=trivial,
        total=GradedHomology.from_dict(coeff, assembled),
    )


# ---------------------------------------------------------------------------
# small quadratic presentations over F2, kept as oracles for cohomology_ring
# and cube_census
#
# The symbolic mod-2 presentations the library used for the 3-cube and for
# products of two simplices, before every presentation came from
# cohomology_ring.  Copied unchanged from the library, except that the
# record is a frozen dataclass.


@dataclass(frozen=True)
class QuadraticPresentationF2:
    """Symbolic mod-2 presentation for the two low-dimensional families.

    kind 'cube': F2[x,y,z] / (x^2+x(ay+bz), y^2+y(cx+dz), z^2+z(ex+fy));
    kind 'two-simplices': F2[x,y] / (x^(k'-l+1)(x+y)^l, y^(n-k'+1)).
    """

    kind: str
    params: tuple[int, ...]
    valid: bool | None
    h2_dim: int
    h4_dim: int
    squaring: tuple[tuple[int, ...], ...]  # rows over the degree-4 basis
    h2_names: tuple[str, ...]

    def squaring_matrix(self) -> list[list[int]]:
        return [list(r) for r in self.squaring]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "valid": self.valid,
            "h2_dim": self.h2_dim,
            "h4_dim": self.h4_dim,
            "squaring": [list(r) for r in self.squaring],
        }


def cube_determinant_f2(a: int, b: int, c: int, d: int, e: int, f: int) -> int:
    """F2 determinant of [[1,c,e],[a,1,f],[b,d,1]]."""
    return (1 + f * d + c * a + c * f * b + e * a * d + e * b) % 2


def cube_presentation(a: int, b: int, c: int, d: int, e: int, f: int) -> QuadraticPresentationF2:
    """Quadratic presentation attached to a quasitoric manifold over the 3-cube.

    Validity demands every pairwise product ac, df, be to vanish and the
    determinant to be 1: these are exactly the mod-2 shadows of the
    unimodular principal minors of a characteristic matrix in refined form.
    (The pair condition be = 0 is forced by the 2x2 principal minor on the
    first and third stages, symmetrically to ac and df.)
    """
    a, b, c, d, e, f = (int(x) % 2 for x in (a, b, c, d, e, f))
    valid = (
        a * c == 0 and d * f == 0 and b * e == 0 and cube_determinant_f2(a, b, c, d, e, f) == 1
    )
    squaring = (
        (a, c, 0),
        (b, 0, e),
        (0, d, f),
    )
    return QuadraticPresentationF2(
        kind="cube",
        params=(a, b, c, d, e, f),
        valid=valid,
        h2_dim=3,
        h4_dim=3,
        squaring=squaring,
        h2_names=("x", "y", "z"),
    )


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in p1.items():
        for (i2, j2), c2 in p2.items():
            k = (i1 + i2, j1 + j2)
            out[k] = (out.get(k, 0) + c1 * c2) % 2
    return {k: v for k, v in out.items() if v}


def product_presentation(n: int, kprime: int, ell: int) -> QuadraticPresentationF2:
    """Mod-2 presentation for quasitoric manifolds over a product of two simplices."""
    if not (0 <= ell <= kprime <= n):
        raise InputError("need 0 <= l <= k' <= n")
    x_plus_y = {(1, 0): 1, (0, 1): 1}
    r1 = {(kprime - ell + 1, 0): 1}
    for _ in range(ell):
        r1 = _poly_mul(r1, x_plus_y)
    r2 = {(0, n - kprime + 1): 1}
    relations = [r1, r2]
    field = PrimeField(2)

    def degree_system(d):
        cols = [(d - j, j) for j in range(d + 1)]
        col_index = {c: i for i, c in enumerate(cols)}
        rows = []
        for r in relations:
            deg_r = max(i + j for (i, j) in r)
            if deg_r > d:
                continue
            extra = d - deg_r
            for t in range(extra + 1):
                vec = [0] * len(cols)
                for (i, j), c in r.items():
                    vec[col_index[(i + extra - t, j + t)]] ^= c
                rows.append(vec)
        rref_rows, pivots = rref(rows, len(cols), field)
        basis_cols = [c for c in range(len(cols)) if c not in set(pivots)]
        return cols, rref_rows, pivots, basis_cols

    cols1, rr1, pv1, b1 = degree_system(1)
    cols2, rr2, pv2, b2 = degree_system(2)
    sq_cols = []
    for c in b1:
        i, j = cols1[c]
        vec = [0] * len(cols2)
        vec[cols2.index((2 * i, 2 * j))] = 1
        red = reduce_against(vec, rr2, pv2, field)
        sq_cols.append(tuple(red[cc] for cc in b2))
    squaring = tuple(
        tuple(col[r] for col in sq_cols) for r in range(len(b2))
    )
    names = tuple("xy"[cols1[c].index(1)] if 1 in cols1[c] else "?" for c in b1)
    return QuadraticPresentationF2(
        kind="two-simplices",
        params=(n, kprime, ell),
        valid=None,
        h2_dim=len(b1),
        h4_dim=len(b2),
        squaring=squaring,
        h2_names=names,
    )


def unimodular_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Integer inverse of a square matrix with determinant +-1 (adjugate)."""
    n = len(rows)
    d = linalg.det_int(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a unit")
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            inv[j][i] = (-1) ** (i + j) * linalg.det_int(minor) * d
    return inv


def cube_parameters(P: PolytopeDual, lam: CharacteristicMatrix) -> QuadraticPresentationF2:
    """Extract the mod-2 quadratic presentation from quasitoric data over the 3-cube.

    Works for any admissible matrix, not only refined ones: the column
    submatrix on the first maximal face is inverted over the integers and
    used to rewrite the remaining columns.
    """
    if P.n != 3 or P.m != 6:
        raise InputError("cube parameters need a 3-polytope with 6 facets")
    K = P.complex
    # antipodal pairing: each vertex has exactly one non-neighbor
    partner = {}
    for v in range(1, 7):
        non = [w for w in range(1, 7) if w != v and not K.has_face([v, w])]
        if len(non) != 1:
            raise InputError("dual complex is not the boundary of the 3-dimensional cross-polytope")
        partner[v] = non[0]
    require_admissible(P, lam)
    sigma0 = min(K.maximal_faces)
    free = [partner[v] for v in sigma0]
    S = unimodular_inverse(lam.column_submatrix(sigma0))
    B = linalg.matmul_int(S, lam.column_submatrix(free), 3)
    Bbar = [[x % 2 for x in row] for row in B]
    for k in range(3):
        if Bbar[k][k] != 1:
            raise ConsistencyError("diagonal of the reduced matrix must be odd for admissible data")
    a, b = Bbar[0][1], Bbar[0][2]
    c, d = Bbar[1][0], Bbar[1][2]
    e, f = Bbar[2][0], Bbar[2][1]
    return cube_presentation(a, b, c, d, e, f)


# ---------------------------------------------------------------------------
# the argparse parser the CLI had before its table-driven parser, unchanged
# but for the module docstring it reads


def _add_io(sub, input_required=True):
    if input_required:
        sub.add_argument("--input", help="path to a JSON input file")
        sub.add_argument("--fixture", help="name of a bundled fixture")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--text", action="store_true", help="human-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torictop", description=cli.__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=f"torictop {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("hvec", help="f-vector and h-vector of a polytope")
    _add_io(s)
    s.set_defaults(func=_cmd_hvec)

    s = subs.add_parser("zk", help="moment-angle wedge splitting and homology")
    _add_io(s)
    s.add_argument("--coeff", default="Z", help="Z, Q or F<p> (default Z)")
    s.add_argument("--sizes", help="comma-separated |I| filter, e.g. 2,3")
    s.add_argument("--cap", type=int, help="override the enumeration cap")
    s.set_defaults(func=_cmd_zk)

    s = subs.add_parser("qtm", help="cohomology presentation of a quasitoric manifold")
    _add_io(s)
    s.add_argument("--coeff", default="Q", help="Q or F<p> (default Q)")
    s.set_defaults(func=_cmd_qtm)

    s = subs.add_parser("split", help="p-local pieces of the suspended manifold")
    _add_io(s)
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--u", type=int, help="override the primitive root (validated, no effect)")
    s.set_defaults(func=_cmd_split)

    s = subs.add_parser("projection", help="certificates for the suspended quotient map")
    _add_io(s)
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--cap", type=int, help="override the enumeration cap")
    s.set_defaults(func=_cmd_projection)

    s = subs.add_parser("nontrivial", help="one-sided non-triviality verdicts")
    _add_io(s, input_required=True)
    s.add_argument(
        "--two-simplices", nargs=2, type=int, metavar=("N", "K"),
        help="run the arithmetic test for a product of simplices instead of a file",
    )
    s.set_defaults(func=_cmd_nontrivial)

    s = subs.add_parser("cube-census", help="all quadratic presentations over the 3-cube")
    _add_io(s, input_required=False)
    s.set_defaults(func=_cmd_cube_census)

    s = subs.add_parser("bott", help="characteristic data for a projective-bundle tower")
    _add_io(s)
    s.set_defaults(func=_cmd_bott)

    s = subs.add_parser("fixtures", help="list or dump bundled fixtures")
    s.add_argument("--name", help="dump this fixture instead of listing")
    s.add_argument("--output", help="write the report here instead of stdout")
    s.add_argument("--text", action="store_true", help="human-readable output")
    s.set_defaults(func=_cmd_fixtures)

    return ap
