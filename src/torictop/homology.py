"""Exact simplicial homology via the Smith normal form.

Boundary maps are reduced from the top degree down, each built as sparse
signed columns off the face listing once the map above it is reduced.  The
Smith form of each serves every coefficient: over Z its rank and torsion,
and by universal coefficients (Hatcher, *Algebraic Topology*, Thm 3A.3) a
rank over F_p counts the invariant factors p does not divide, over Q all
of them.  It eliminates on +-1 pivots first (Dumas, Saunders and Villard,
J. Symb. Comput. 32 (2001)) and runs its dense loop only on what is left,
which is nothing on a sphere's boundaries.  Clearing (Chen and Kerber,
EuroCG 2011) leaves out the columns of d_k on the unit pivot rows P of
d_{k+1}: those pivots are +-1-triangular on P, so modulo im d_{k+1}, which
d_k kills, each e_p is an integer sum of the e_q off P, and d_k(e_p) lies
in the span of the other columns.  The image lattice of d_k, and with it
every invariant factor (unique, whatever the pivot order), is unchanged,
and the chain groups keep the face counts as dimensions: d∘d = 0 decides
the invariant factors, not only the rank bookkeeping.  ``merge_torsion``
fixes the divisibility of the diagonal and regroups the torsion of
``GradedHomology.direct_sum`` by gcds and lcms, factoring nothing.
``linalg.coeff_prime`` parses the tags 'Z', 'Q' and 'F<p>'.

Boundaries from outside are checked: ``IntegerMatrix.from_rows`` takes int
entries only, and ``chain_homology`` checks that the maps chain and that
d∘d = 0.  Those of ``boundary_columns`` are not; the tests check them.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter

from . import linalg
from ._record import _frozen
from .complexes import SimplicialComplex
from .errors import InputError, require_int


@_frozen
class IntegerMatrix:
    """Dense integer matrix; entries are arbitrary-precision ints."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntegerMatrix":
        """Checked constructor for matrices from outside: ints only, no bools."""
        r = len(rows)
        c = len(rows[0]) if r else (cols if cols is not None else 0)
        for i, row in enumerate(rows):
            if len(row) != c:
                raise InputError("ragged matrix")
            for j, x in enumerate(row):
                require_int(x, f"matrix entry at row {i}, column {j}")
        if cols is not None and cols != c:
            raise InputError("column count mismatch")
        return cls(rows=r, cols=c, entries=tuple(map(tuple, rows)))


@_frozen
class SNFResult:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(A: IntegerMatrix | list[dict[int, int]]) -> SNFResult:
    """Invariant factors of a matrix of sparse columns {row: entry} (or an
    ``IntegerMatrix``).  Each column is reduced against the unit pivots so
    far and becomes one at a +-1 entry it keeps; the leftover columns are
    reduced again, to vanish in every pivot row.  The leftover block, empty
    on a sphere's boundaries, is then diagonalised: pivot on the first entry
    of least absolute value, reduce its whole row modulo it, then its whole
    column (one entry per row), and re-pivot on the least remainder; whole
    passes keep dense entries small.  Then ``merge_torsion`` fixes
    divisibility once.
    """
    return _smith(_columns(A) if isinstance(A, IntegerMatrix) else A)[0]


def _smith(cols: list[dict[int, int]]) -> tuple[SNFResult, dict[int, int]]:
    """``smith_normal_form`` of sparse columns, and its unit pivots' rows as a dict's keys."""
    place: dict[int, int] = {}  # pivot row -> its pivot's place in ``pivots``
    pivots: list[tuple[int, int, dict[int, int]]] = []  # (row, +-1 there, column)

    def reduce(v: dict[int, int]) -> dict[int, int]:
        # pivot k is zero in the rows of earlier pivots: clear them in order
        todo = [place[r] for r in v if r in place]
        if not todo:
            return v
        todo.sort()
        v = v.copy()
        while todo:
            r, s, p = pivots[todo.pop(0)]
            if f := v.get(r, 0) * s:  # 0 when a place was inserted twice
                for i, y in p.items():
                    if x := v.get(i, 0) - f * y:
                        if i not in v and i in place:
                            insort(todo, place[i])
                        v[i] = x
                    else:
                        del v[i]
        return v

    left = []
    for col in cols:
        v = reduce(col)
        for r, x in v.items():
            if x == 1 or x == -1:
                place[r] = len(pivots)
                pivots.append((r, x, v))
                break
        else:
            if v:
                left.append(v)
    if not left:
        return SNFResult((1,) * len(pivots)), place
    left = [v for v in map(reduce, left) if v]
    M = [[v.get(i, 0) for v in left] for i in sorted({i for v in left for i in v})]
    diag: list[int] = []
    while pivot := min(((abs(v), i, j) for i, row in enumerate(M) for j, v in enumerate(row) if v),
                       default=None):
        _, pi, pj = pivot
        while True:
            prow, piv = M[pi], M[pi][pj]
            support = [row for row in M if row[pj]]  # the rows a column operation changes
            for j, v in enumerate(prow):
                if v and j != pj:
                    q = v // piv
                    for row in support:
                        row[j] -= q * row[pj]
            nonzero = [j for j, v in enumerate(prow) if v and j != pj]
            if nonzero:
                pj = min(nonzero, key=lambda j: abs(prow[j]))
                continue
            nonzero = [i for i, row in enumerate(M) if row[pj] % piv]
            if not nonzero:
                break
            for row in support:
                row[pj] %= piv
            prow[pj] = piv  # which the loop above reduced to 0
            pi = min(nonzero, key=lambda i: abs(M[i][pj]))
        diag.append(abs(piv))
        del M[pi]
        for row in M:
            del row[pj]
    rest = merge_torsion(diag)
    return SNFResult((1,) * (len(pivots) + len(diag) - len(rest)) + rest), place


def _columns(A: IntegerMatrix) -> list[dict[int, int]]:
    return [{i: row[j] for i, row in enumerate(A.entries) if row[j]} for j in range(A.cols)]


def merge_torsion(parts: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/d, units and 0 dropped.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so the least order takes its gcd
    with one copy of each other order, which takes the lcm, and then divides
    them all.  Equal orders are counted, not listed, so the cost is orders
    times distinct orders, and nothing is factored.
    """
    count = Counter(abs(d) for d in parts if abs(d) > 1)
    out: list[int] = []
    while count:
        a = min(count)
        count[a] -= 1
        for b, n in list(count.items()):
            if n and b % a:
                g = math.gcd(a, b)
                count[b] -= 1
                count[a // g * b] += 1
                a = g
        out.append(a)
        count = +count  # which drops the orders used up
    return tuple(d for d in out if d > 1)


@_frozen
class GradedHomology:
    """Map degree -> (free rank, torsion coefficients), plus a coefficient tag.

    Torsion lists are in divisibility order; over a field they are empty.
    Degrees absent from the map are zero groups.
    """

    coeff: str
    groups: tuple[tuple[int, tuple[int, tuple[int, ...]]], ...]

    @classmethod
    def from_dict(cls, coeff: str, d: dict[int, tuple[int, tuple[int, ...]]]) -> "GradedHomology":
        items = tuple(
            (deg, (rank, tuple(tors)))
            for deg, (rank, tors) in sorted(d.items())
            if rank or tors
        )
        return cls(coeff, items)

    @classmethod
    def direct_sum(cls, coeff: str, terms) -> "GradedHomology":
        """The direct sum of (degree, rank, cyclic orders) terms: the ranks of
        a degree add, and its cyclic groups are regrouped by ``merge_torsion``."""
        ranks: dict[int, int] = {}
        tors: dict[int, list[int]] = {}
        for deg, rank, orders in terms:
            ranks[deg] = ranks.get(deg, 0) + rank
            tors.setdefault(deg, []).extend(orders)
        return cls.from_dict(coeff, {d: (r, merge_torsion(tors[d])) for d, r in ranks.items()})

    def as_dict(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {deg: val for deg, val in self.groups}

    def rank(self, degree: int) -> int:
        return self.as_dict().get(degree, (0, ()))[0]

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self.as_dict().get(degree, (0, ()))[1]

    def degrees(self) -> tuple[int, ...]:
        return tuple(deg for deg, _ in self.groups)

    def is_trivial(self) -> bool:
        return not self.groups

    def to_json_obj(self) -> list[dict]:
        return [
            {"degree": deg, "rank": rank, "torsion": list(tors)}
            for deg, (rank, tors) in self.groups
        ]


def _homology_from_boundaries(columns, dims: list[int], base_degree: int,
                              coeff: str) -> GradedHomology:
    """Homology of a chain complex with C_k of dimension dims[k] and
    ``columns(k, cleared)`` the boundary C_{k+1} -> C_k as sparse columns,
    less those at the places in ``cleared``; degrees are shifted by
    base_degree.  Reduces top-down with clearing, so it trusts the maps to
    chain and to compose to zero (see chain_homology)."""
    p = linalg.coeff_prime(coeff, allow_z=True)
    snfs, cleared = [], {}
    for k in reversed(range(len(dims) - 1)):
        snf, cleared = _smith(columns(k, cleared))
        snfs.insert(0, snf)
    if p is None:
        ranks, torsion = [snf.rank for snf in snfs], [snf.torsion for snf in snfs]
    else:  # a field has no torsion; over F_p the factors p divides vanish, over Q (p = 0) none
        ranks = [sum(1 for d in snf.diagonal if d % p) if p else snf.rank for snf in snfs]
        torsion = [()] * len(snfs)
    ranks.append(0)  # out of the top degree
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    for k, dim in enumerate(dims):
        free = dim - (ranks[k - 1] if k else 0) - ranks[k]
        if free < 0:
            raise InputError("rank bookkeeping failed; input is not a chain complex")
        groups[base_degree + k] = (free, torsion[k] if k < len(snfs) else ())
    return GradedHomology.from_dict(coeff, groups)  # which drops the zero groups


def chain_homology(boundaries: list[IntegerMatrix], coeff: str = "Z") -> GradedHomology:
    """Homology of a chain complex given by boundary maps.

    ``boundaries[k]`` is the map C_{k+1} -> C_k, so the list [d_1, ..., d_N]
    describes a complex concentrated in degrees 0..N with dim C_0 the row
    count of d_1.  As the entry point for boundaries from outside, it checks
    that consecutive maps chain and compose to zero, which clearing needs.
    """
    if not boundaries:
        raise InputError("need at least one boundary matrix")
    pairs = list(zip(boundaries, boundaries[1:]))
    if any(a.cols != b.rows for a, b in pairs):
        raise InputError("boundary matrix dimensions do not chain")
    for k, (a, b) in enumerate(pairs):
        prod = linalg.matmul_int(a.entries, b.entries, a.cols)
        if any(any(row) for row in prod):
            raise InputError(
                f"malformed chain complex: boundary maps at degree {k + 1} "
                "do not compose to zero"
            )
    dims = [boundaries[0].rows] + [mat.cols for mat in boundaries]
    maps = [_columns(mat) for mat in boundaries]
    return _homology_from_boundaries(
        lambda k, cleared: [col for j, col in enumerate(maps[k]) if j not in cleared],
        dims, 0, coeff)


def boundary_columns(K: SimplicialComplex, k: int, cleared) -> list[dict[int, int]]:
    """The boundary map of K's empty-face-augmented chain complex from the
    faces with k + 1 vertices to those with k, as {row: +-1} columns read off
    K's face listing, less the faces at the places in ``cleared``.  Rows and
    columns are places in the listing, so d_0 is the augmentation.
    """
    index, cols = K._face_index, []
    for j, mask in enumerate(K.faces_by_card()[k + 1]):
        if j in cleared:
            continue
        col, sign, rem = {}, 1, mask
        while rem:
            low = rem & -rem
            col[index[mask ^ low]] = sign
            sign = -sign
            rem ^= low
        cols.append(col)
    return cols


def reduced_homology(K: SimplicialComplex, coeff: str = "Z") -> GradedHomology:
    """Reduced simplicial homology of |K|.

    The augmented complex makes the conventions uniform: a complex with two
    isolated vertices has rank 1 in degree 0, and the empty complex (only
    the empty face) has rank 1 in degree -1.  A cleared face's column is never built.
    """
    dims = list(K.face_counts().values())
    return _homology_from_boundaries(lambda k, skip: boundary_columns(K, k, skip), dims, -1, coeff)


def homology(K: SimplicialComplex, coeff: str = "Z") -> GradedHomology:
    """Unreduced homology, as a wrapper that restores the augmentation rank."""
    red = reduced_homology(K, coeff)
    groups = red.as_dict()
    if -1 in groups:  # |K| is empty
        groups.pop(-1)
        return GradedHomology.from_dict(coeff, groups)
    rank0, tors0 = groups.get(0, (0, ()))
    groups[0] = (rank0 + 1, tors0)
    return GradedHomology.from_dict(coeff, groups)
