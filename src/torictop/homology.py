"""Exact simplicial homology via Smith normal form and rank computations.

Integral homology goes through an integer Smith normal form with a fixed
pivot rule (smallest nonzero absolute value, then lowest row, then lowest
column), so results are bit-stable across platforms.  Over Z one SNF per
boundary map gives both its rank and its torsion.  Field coefficients skip
torsion and use rank computations only: F_p ranks come from the sparse
field eliminator ``linalg.echelon`` on Python ints reduced mod p, exact for
every prime, and rational ranks from fraction-free integer elimination.
One parser, ``linalg.coeff_prime``, reads the tags 'Z', 'Q' and 'F<p>'.

Only boundaries from outside are checked: ``IntegerMatrix.from_rows`` takes
int entries only, and ``chain_homology`` checks that the maps chain and that
d∘d = 0.  Those of ``boundary_matrices`` go to the kernels unchecked; the
test suite checks that they compose to zero.
"""

from __future__ import annotations

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

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows=rows, cols=cols, entries=tuple((0,) * cols for _ in range(rows)))

    def row_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


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


def smith_normal_form(A: IntegerMatrix) -> SNFResult:
    """Invariant factors by row/column reduction.

    Pivot rule: among nonzero entries of the working submatrix take the one
    of smallest absolute value, ties broken by lowest row then lowest column.
    """
    M = A.row_lists()
    rows, cols = A.rows, A.cols
    diag: list[int] = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = M[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        M[t], M[pi] = M[pi], M[t]
        if pj != t:
            for row in M:
                row[t], row[pj] = row[pj], row[t]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, rows):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    if M[i][t]:
                        # remainder became a smaller pivot
                        M[t], M[i] = M[i], M[t]
                        if M[t][t] < 0:
                            M[t] = [-x for x in M[t]]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    for row in M:
                        row[j] -= q * row[t]
                    if M[t][j]:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        if M[t][t] < 0:
                            M[t] = [-x for x in M[t]]
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if M[i][j] % M[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            M[t] = [a + b for a, b in zip(M[t], M[culprit])]
        diag.append(M[t][t])
        t += 1
        if t == rows or t == cols:
            break
    return SNFResult(tuple(diag))


def merge_torsion(parts: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/d.

    Splits each d into prime powers, then regroups the largest powers of
    every prime into one factor, the next largest into the next, and so on,
    which restores the divisibility chain.
    """
    by_prime: dict[int, list[int]] = {}
    for d in parts:
        d = abs(d)
        if d <= 1:
            continue
        p = 2
        while p * p <= d:
            if d % p == 0:
                e = 0
                while d % p == 0:
                    d //= p
                    e += 1
                by_prime.setdefault(p, []).append(e)
            p += 1
        if d > 1:
            by_prime.setdefault(d, []).append(1)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for level in range(depth):
        f = 1
        for p, exps in by_prime.items():
            if level < len(exps):
                f *= p ** exps[level]
        factors.append(f)
    return tuple(sorted(factors))


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


def _homology_from_boundaries(
    boundaries: list[IntegerMatrix], dims: list[int], base_degree: int, coeff: str
) -> GradedHomology:
    """Homology of a chain complex with C_k of dimension dims[k] and
    boundaries[k]: C_{k+1} -> C_k; degrees are shifted by base_degree.
    Trusts the maps to chain and to compose to zero (see chain_homology)."""
    p = linalg.coeff_prime(coeff, allow_z=True)
    torsion = [()] * len(boundaries)
    if p is None:
        snfs = [smith_normal_form(mat) for mat in boundaries]
        ranks = [snf.rank for snf in snfs]
        torsion = [snf.torsion for snf in snfs]
    elif p:
        ranks = [linalg.rank_mod_p(mat.entries, p) for mat in boundaries]
    else:
        ranks = [linalg.rank_int(mat.entries) for mat in boundaries]
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    for k, dim in enumerate(dims):
        out_rank = ranks[k - 1] if k >= 1 else 0
        in_rank = ranks[k] if k < len(boundaries) else 0
        free = dim - out_rank - in_rank
        tors = torsion[k] if k < len(boundaries) else ()
        if free < 0:
            raise InputError("rank bookkeeping failed; input is not a chain complex")
        if free or tors:
            groups[base_degree + k] = (free, tors)
    return GradedHomology.from_dict(coeff, groups)


def chain_homology(boundaries: list[IntegerMatrix], coeff: str = "Z") -> GradedHomology:
    """Homology of a chain complex given by boundary maps.

    ``boundaries[k]`` is the map C_{k+1} -> C_k, so the list [d_1, ..., d_N]
    describes a complex concentrated in degrees 0..N with dim C_0 the row
    count of d_1.  As the entry point for boundaries from outside, it checks
    that consecutive maps chain and compose to zero.
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
    return _homology_from_boundaries(boundaries, dims, 0, coeff)


def boundary_matrices(K: SimplicialComplex) -> tuple[list[IntegerMatrix], list[int]]:
    """Boundary maps of the empty-face-augmented chain complex of K.

    Position k holds the faces with k vertices, so position 0 is the empty
    face and the first boundary map is the augmentation.  Returns the maps
    (position k+1 -> position k) and the chain group dimensions.
    """
    by_card = K.faces_by_card()
    top = max(by_card)
    basis = [by_card.get(c, []) for c in range(top + 1)]
    index = [{mask: i for i, mask in enumerate(lst)} for lst in basis]
    dims = [len(lst) for lst in basis]
    mats = []
    for c in range(1, top + 1):
        rows = [[0] * dims[c] for _ in range(dims[c - 1])]
        for col, mask in enumerate(basis[c]):
            sign = 1
            rem = mask
            while rem:
                low = rem & -rem
                rows[index[c - 1][mask & ~low]][col] = sign
                sign = -sign
                rem &= rem - 1
        mats.append(IntegerMatrix(dims[c - 1], dims[c], tuple(map(tuple, rows))))
    return mats, dims


def reduced_homology(K: SimplicialComplex, coeff: str = "Z") -> GradedHomology:
    """Reduced simplicial homology of |K|.

    The augmented complex makes the conventions uniform: a complex with two
    isolated vertices has rank 1 in degree 0, and the empty complex (only
    the empty face) has rank 1 in degree -1.
    """
    mats, dims = boundary_matrices(K)
    if not mats:  # only the empty face
        return GradedHomology.from_dict(coeff, {-1: (1, ())})
    return _homology_from_boundaries(mats, dims, -1, coeff)


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
