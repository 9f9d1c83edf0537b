"""Exact simplicial homology via Smith normal form and rank computations.

Integral homology comes from an SNF per boundary map, which gives its rank
and its torsion; invariant factors are unique, so the result does not
depend on the pivot order.  The SNF clears a pivot's whole row before its
column, which keeps dense entries small with no modulus.  Every field takes
its ranks from one sparse eliminator, ``linalg.echelon``: over F_p on
Python ints reduced mod p, exact for every prime, and over Q on ints for as
long as its pivots are units.  One routine, ``merge_torsion``, owns
invariant factors: it fixes the divisibility of the Smith form's diagonal
and regroups the torsion of the direct sums that
``GradedHomology.direct_sum`` builds, by gcds and lcms, so no integer is
factored.  One parser, ``linalg.coeff_prime``, reads the tags 'Z', 'Q' and
'F<p>' and remembers the last few, so each function takes the tag alone.

Only boundaries from outside are checked: ``IntegerMatrix.from_rows`` takes
int entries only, and ``chain_homology`` checks that the maps chain and that
d∘d = 0.  Those of ``boundary_matrices`` go to the kernels unchecked; the
test suite checks that they compose to zero.
"""

from __future__ import annotations

import math

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


def smith_normal_form(A: IntegerMatrix) -> SNFResult:
    """Invariant factors, in two steps.

    Diagonalise: take an entry of least absolute value as the pivot (the
    first unit found will do), reduce its whole row modulo it, then its
    whole column, which changes one entry per row; the least remainder
    becomes the new pivot.  Whole passes keep dense entries small.  A
    cleared pivot's row and column are deleted.  Then ``merge_torsion``
    fixes divisibility once.
    """
    M = [list(r) for r in A.entries]
    diag: list[int] = []
    while True:
        best = 0
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
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
    return SNFResult((1,) * (len(diag) - len(rest)) + rest)


def merge_torsion(parts: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/d, units dropped.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so each pair (i, j > i) of
    orders is replaced by its gcd and lcm, after which the i-th divides every
    later one.  Nothing is factored: the cost is quadratic in the number of
    orders, whatever their size.  Orders 0 and +-1 are dropped.
    """
    rest = sorted(abs(d) for d in parts if abs(d) > 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            if rest[j] % rest[i]:
                g = math.gcd(rest[i], rest[j])
                rest[i], rest[j] = g, rest[i] // g * rest[j]
    return tuple(d for d in rest if d > 1)


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


def _homology_from_boundaries(boundaries: list[IntegerMatrix], dims: list[int],
                              base_degree: int, coeff: str) -> GradedHomology:
    """Homology of a chain complex with C_k of dimension dims[k] and
    boundaries[k]: C_{k+1} -> C_k; degrees are shifted by base_degree.  Z
    reads the Smith form, a field ``echelon``.  Trusts the maps to chain and
    to compose to zero (see chain_homology)."""
    p = linalg.coeff_prime(coeff, allow_z=True)
    if p is None:
        snfs = [smith_normal_form(mat) for mat in boundaries]
        ranks, torsion = [snf.rank for snf in snfs], [snf.torsion for snf in snfs]
    else:  # a field, F_p or Q (p = 0), has no torsion
        ranks = [len(linalg.echelon(mat.entries, p)) for mat in boundaries]
        torsion = [()] * len(boundaries)
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    for k, dim in enumerate(dims):
        out_rank = ranks[k - 1] if k >= 1 else 0
        in_rank = ranks[k] if k < len(boundaries) else 0
        free = dim - out_rank - in_rank
        tors = torsion[k] if k < len(boundaries) else ()
        if free < 0:
            raise InputError("rank bookkeeping failed; input is not a chain complex")
        groups[base_degree + k] = (free, tors)
    return GradedHomology.from_dict(coeff, groups)  # which drops the zero groups


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
    basis = list(K.faces_by_card().values())  # faces by vertex count 0, 1, ..., dim + 1
    index = K._face_index
    dims = [len(lst) for lst in basis]
    mats = []
    for c in range(1, len(basis)):
        rows = [[0] * dims[c] for _ in range(dims[c - 1])]
        for col, mask in enumerate(basis[c]):
            sign = 1
            rem = mask
            while rem:
                low = rem & -rem
                rows[index[mask & ~low]][col] = sign
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
