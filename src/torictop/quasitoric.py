"""Quasitoric manifolds as (dual complex, characteristic matrix) pairs.

A quasitoric manifold over a simple n-polytope P with m facets is encoded by
an n x m integer matrix whose column j is attached to vertex j of the dual
complex.  The matrix is admissible when every maximal face yields a column
submatrix of determinant +-1; this is checked with exact integer arithmetic.

The cohomology ring over a field is k[v_1..v_m] / (I_K + J), where I_K is
generated by the monomials of the minimal non-faces of the dual complex and J
by the n linear forms in the rows of the characteristic matrix
(Davis-Januszkiewicz).  The first maximal face sigma0 has a unimodular minor,
so J solves each v_i, i in sigma0, as a linear form in the r = m - n
remaining variables w: a kernel basis of the characteristic matrix.
Substituting the forms into the minimal non-face monomials leaves an ideal of
k[w], reduced degree by degree with one echelon form over the face-supported
w-monomials in descending lexicographic order.  Both steps use the field
eliminator ``linalg.echelon``.  The basis of each degree is the set of
non-pivot monomials, smallest first: the lexicographic standard monomials of
I_K + J for the order that puts sigma0 first, so output is deterministic.
Products and squares are normal forms against the pivots.
"""

from __future__ import annotations

import math

from . import linalg
from ._record import _frozen
from .complexes import (
    MAX_VERTICES, PolytopeDual, h_vector_of, join, require_face_work, simplex_boundary,
)
from .errors import CapExceededError, ConsistencyError, InputError, require_ints

MAX_SYSTEM_CELLS = 1 << 30  # rows x columns that cohomology_ring's echelon forms may span


@_frozen
class CharacteristicMatrix:
    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "CharacteristicMatrix":
        if not isinstance(rows, (list, tuple)):
            raise InputError("characteristic matrix must be a list of rows")
        rows = tuple(require_ints(r, f"characteristic matrix row {i}") for i, r in enumerate(rows))
        if not rows:
            raise InputError("characteristic matrix needs at least one row")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise InputError("characteristic matrix is ragged")
        return cls(n=len(rows), m=m, rows=rows)

    def column_submatrix(self, vertices) -> list[list[int]]:
        return [[r[v - 1] for v in vertices] for r in self.rows]

    def to_json_obj(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@_frozen
class ValidityReport:
    valid: bool
    failing_face: tuple[int, ...] | None = None
    failing_det: int | None = None


def validate_characteristic(P: PolytopeDual, lam: CharacteristicMatrix) -> ValidityReport:
    """Check the unimodular-minor condition on every maximal face."""
    if lam.n != P.n or lam.m != P.m:
        raise InputError(
            f"characteristic matrix is {lam.n}x{lam.m}, polytope needs {P.n}x{P.m}"
        )
    for face in sorted(P.complex.maximal_faces):
        d = linalg.det_int(lam.column_submatrix(face))
        if d not in (1, -1):
            return ValidityReport(valid=False, failing_face=face, failing_det=d)
    return ValidityReport(valid=True)


def require_admissible(P: PolytopeDual, lam: CharacteristicMatrix) -> None:
    """Raise InputError naming the first maximal face with a non-unit minor."""
    report = validate_characteristic(P, lam)
    if not report.valid:
        raise InputError(
            f"characteristic matrix fails on face {report.failing_face} "
            f"(determinant {report.failing_det})"
        )


# ---------------------------------------------------------------------------
# cohomology of the quotient


@_frozen
class CohomologyPresentation:
    """Field cohomology of a quasitoric manifold, degree by degree.

    ``basis[k]`` lists exponent vectors (length m) of the monomials that
    represent a basis of degree 2k; ``mult_h2[k][s][t]`` expands the product
    of degree-2 basis element s with degree-2k basis element t over the
    degree-2(k+1) basis, with entries in [0, p) over F_p and rationals (ints
    or Fractions) over Q.  ``squaring_cols`` (F2 only) has one column per
    degree-2 basis element, giving its square over the degree-4 basis: the
    diagonal of ``mult_h2[1]``, and empty columns when n = 1.
    """

    coeff: str
    n: int
    m: int
    h: tuple[int, ...]
    pivot_face: tuple[int, ...]
    basis: dict[int, tuple[tuple[int, ...], ...]]
    mult_h2: dict[int, tuple[tuple[tuple, ...], ...]]

    @property
    def squaring_cols(self) -> tuple[tuple[int, ...], ...] | None:
        if self.coeff != "F2":
            return None
        if 1 not in self.mult_h2:  # n = 1: nothing lives in degree 4
            return ((),) * len(self.basis[1])
        return tuple(row[s] for s, row in enumerate(self.mult_h2[1]))

    def dim(self, degree: int) -> int:
        if degree % 2 or degree < 0 or degree > 2 * self.n:
            return 0
        return len(self.basis[degree // 2])

    def dims_even(self) -> tuple[int, ...]:
        return tuple(len(self.basis[k]) for k in range(self.n + 1))

    def squaring_matrix(self) -> list[list[int]]:
        """The additive squaring map on degree 2, rows over the degree-4 basis."""
        if self.squaring_cols is None:
            raise InputError("squaring map only exists over F2")
        h4 = self.dim(4)
        return [[col[r] for col in self.squaring_cols] for r in range(h4)]

    def h2_labels(self) -> list[str]:
        out = []
        for exp in self.basis[1]:
            v = next(i + 1 for i, e in enumerate(exp) if e)
            out.append(f"v{v}")
        return out

    def to_json_obj(self) -> dict:
        ser = str if self.coeff == "Q" else int  # Q entries are written as strings

        obj = {
            "coeff": self.coeff,
            "n": self.n,
            "m": self.m,
            "h": list(self.h),
            "pivot_face": list(self.pivot_face),
            "dims": {str(2 * k): len(b) for k, b in self.basis.items()},
            "basis": {str(2 * k): [list(e) for e in b] for k, b in self.basis.items()},
            "products_with_degree2": {
                str(2 * k): [[[ser(c) for c in cell] for cell in row] for row in table]
                for k, table in self.mult_h2.items()
            },
        }
        if self.squaring_cols is not None:
            obj["squaring"] = {"columns": [list(c) for c in self.squaring_cols]}
        return obj


def _face_monomials(k: int, bits: list[int], faces: dict, mask: int = 0) -> list[tuple]:
    """Exponent vectors of degree k over the vertex bits, lexicographically
    descending, whose support joined with ``mask`` is a face.

    Faces are closed under subsets, so a branch stops at its first non-face.
    """
    if not bits:
        return [()] if k == 0 else []
    out = []
    for a in range(k, -1, -1):
        support = mask | bits[0] if a else mask
        if support in faces:
            out.extend((a,) + rest for rest in _face_monomials(k - a, bits[1:], faces, support))
    return out


def linear_forms(lam: CharacteristicMatrix, sigma0, p: int) -> dict[int, list]:
    """Each v_i as a linear form in the w's, the variables off the face sigma0,
    over F_p or Q (p = 0).  J reads A v_sigma0 + B w = 0 with A unimodular: with
    sigma0's columns first, A's are the pivots, and kernel vector t (1 at w_t,
    0 at the other w's) holds column t of -A^-1 B."""
    free = [v for v in range(1, lam.m + 1) if v not in sigma0]
    order = [*sigma0, *free]
    pivots = linalg.echelon(lam.column_submatrix(order), p)
    if sorted(pivots) != list(range(len(sigma0))):
        raise ConsistencyError(f"linear forms are singular on the face {sigma0}")
    kernel = linalg.kernel_vectors(pivots, lam.m, p)
    return {v: [vec[i] for vec in kernel] for i, v in enumerate(order)}


def cohomology_ring(
    P: PolytopeDual, lam: CharacteristicMatrix, coeff: str = "Q"
) -> CohomologyPresentation:
    """Compute the field cohomology presentation of the quasitoric manifold.

    Raises ConsistencyError when a computed dimension disagrees with the
    h-vector; that equality is a theorem, so a failure means corrupt input
    or a bug, never a property of valid data.
    """
    require_admissible(P, lam)
    p = linalg.coeff_prime(coeff)
    K = P.complex
    n, m = P.n, P.m
    h = h_vector_of(P).entries

    # H* = k[w] / (images of the minimal non-faces), w the variables off sigma0
    sigma0 = min(K.maximal_faces)
    free = [v for v in range(1, m + 1) if v not in sigma0]
    sigma0_mask = sum(1 << (v - 1) for v in sigma0)
    # (degree, mask) of each minimal non-face meeting sigma0; the others are
    # monomials in w alone
    non_faces = [(s.bit_count(), s) for s in K.minimal_non_faces() if s & sigma0_mask]

    # A w-monomial whose support is a non-face lies in the ideal, and so does
    # every multiple of it: only face-supported w-monomials need a column.
    # Per degree, one echelon form over them, largest first: the pivots are
    # the lex leading terms of the ideal, the rest its standard monomials;
    # the eliminator reduces each row mod p on entry.
    faces = K._face_index
    bits = [1 << (v - 1) for v in free]
    # degree k has a row per image of degree d <= k and monomial of degree
    # k - d, so the size of every system is known before any row is built:
    # a face off sigma0 with j >= 1 vertices supports C(k - 1, j - 1) of the
    # monomials of degree k, and the empty face the one of degree 0
    off = {j: sum(not s & sigma0_mask for s in lst) for j, lst in K.faces_by_card().items()}
    size = [1] + [sum(f * math.comb(k - 1, j - 1) for j, f in off.items() if j)
                  for k in range(1, n + 2)]
    cells = sum(size[k] * sum(size[k - d] for d, _ in non_faces if d <= k) for k in range(n + 2))
    if cells > MAX_SYSTEM_CELLS:
        raise CapExceededError(f"the cohomology ring's degree systems would hold {cells} cells "
                               f"(rows x columns), above the cap of {MAX_SYSTEM_CELLS}")
    monomials = [_face_monomials(k, bits, faces) for k in range(n + 2)]

    def supported(alpha):
        return sum(1 << (v - 1) for v, a in zip(free, alpha) if a) in faces

    form = linear_forms(lam, sigma0, p)
    images = []  # (degree, {w-exponent: coefficient}) per minimal non-face
    for d, s in non_faces:
        poly = {(0,) * len(free): 1}
        for v in range(1, m + 1):
            if s >> (v - 1) & 1:
                prod: dict = {}
                for exp, c in poly.items():
                    for t, a in enumerate(form[v]):
                        e = exp[:t] + (exp[t] + 1,) + exp[t + 1 :]
                        if a and supported(e):
                            prod[e] = prod.get(e, 0) + c * a
                poly = prod
        images.append((d, poly))

    systems, w_basis = [], []
    for k, cols in enumerate(monomials):
        col_index = {c: i for i, c in enumerate(cols)}
        def rows():  # one at a time, so that only the pivot rows are ever kept
            for d, poly in images:
                for alpha in monomials[k - d] if k >= d else ():
                    row = [0] * len(cols)
                    for exp, c in poly.items():
                        idx = col_index.get(tuple(a + b for a, b in zip(alpha, exp)))
                        if idx is not None:
                            row[idx] = c
                    yield row
        pivots = linalg.echelon(rows(), p)
        basis_cols = [c for c in reversed(range(len(cols))) if c not in pivots]
        want = h[k] if k <= n else 0
        if len(basis_cols) != want:
            raise ConsistencyError(
                f"degree {2 * k} has dimension {len(basis_cols)}, "
                f"h-vector predicts {want}"
            )
        systems.append((col_index, pivots, basis_cols))
        w_basis.append([cols[c] for c in basis_cols])

    def normal_form(alpha):
        col_index, pivots, basis_cols = systems[sum(alpha)]
        if alpha not in col_index:
            return (0,) * len(basis_cols)
        vec = [0] * len(col_index)
        vec[col_index[alpha]] = 1
        red = linalg.normal_form(vec, pivots, p)
        return tuple(red[c] for c in basis_cols)

    def embed(alpha):
        exp = [0] * m
        for v, a in zip(free, alpha):
            exp[v - 1] = a
        return tuple(exp)

    mult_h2 = {
        k: tuple(
            tuple(normal_form(tuple(a + b for a, b in zip(x, y))) for y in w_basis[k])
            for x in w_basis[1]
        )
        for k in range(1, n)
    }

    return CohomologyPresentation(
        coeff=coeff,
        n=n,
        m=m,
        h=h,
        pivot_face=sigma0,
        basis={k: tuple(embed(alpha) for alpha in w_basis[k]) for k in range(n + 1)},
        mult_h2=mult_h2,
    )


def power_map_scalars(pres: CohomologyPresentation, u: int) -> dict[int, int]:
    """Action of the degree-u self-map on cohomology: u^k on degree 2k."""
    return {2 * k: u**k for k in range(pres.n + 1)}


# ---------------------------------------------------------------------------
# constructors for the standard families


def generalized_bott(dims, params=None) -> tuple[PolytopeDual, CharacteristicMatrix]:
    """Characteristic data for an iterated projective-bundle tower.

    ``dims[i]`` is the fiber dimension of stage i; ``params[j]`` (for stage
    j >= 1) lists one integer vector per earlier stage i < j, of length
    ``dims[j]``, giving the twist of stage j over stage i.  The polytope is
    the product of simplices; admissibility holds for every parameter value
    because the matrix is block triangular with unit diagonal blocks.
    """
    dims = require_ints(dims, "stage dimensions")
    if not dims or any(d < 1 for d in dims):
        raise InputError("stage dimensions must be positive integers")
    ell = len(dims)
    n = sum(dims)
    m = sum(d + 1 for d in dims)
    if m > MAX_VERTICES:
        raise InputError(f"tower has {m} facets, above the limit of {MAX_VERTICES}")
    require_face_work(math.prod(d + 1 for d in dims), n)
    if params is None:
        params = [[[0] * dims[j] for _ in range(j)] for j in range(ell)]
    if not isinstance(params, (list, tuple)) or len(params) != ell:
        raise InputError(f"need parameter entries for all {ell} stages")
    for j, plist in enumerate(params):
        if not isinstance(plist, (list, tuple)) or len(plist) != j:
            raise InputError(f"stage {j + 1} must reference exactly the {j} earlier stages")
        for i, vec in enumerate(plist):
            if len(require_ints(vec, f"stage {j + 1} parameters over stage {i + 1}")) != dims[j]:
                raise InputError(f"stage {j + 1} parameter vectors must have length {dims[j]}")
    row_off = [sum(dims[:j]) for j in range(ell)]
    col_off = [sum(d + 1 for d in dims[:j]) for j in range(ell)]
    rows = [[0] * m for _ in range(n)]
    for i in range(ell):
        for t in range(dims[i]):
            rows[row_off[i] + t][col_off[i] + t] = 1
        extra = col_off[i] + dims[i]
        for t in range(dims[i]):
            rows[row_off[i] + t][extra] = -1
        for j in range(i + 1, ell):
            vec = params[j][i]
            for s in range(dims[j]):
                rows[row_off[j] + s][extra] = vec[s]
    K = simplex_boundary(dims[0])
    for d in dims[1:]:
        K = join(K, simplex_boundary(d))
    P = PolytopeDual(n=n, complex=K)
    lam = CharacteristicMatrix.from_rows(rows)
    report = validate_characteristic(P, lam)
    if not report.valid:  # block triangular structure makes this impossible
        raise ConsistencyError(f"tower matrix failed validation: {report}")
    return P, lam
