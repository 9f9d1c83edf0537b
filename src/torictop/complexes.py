"""Abstract simplicial complexes and simple-polytope combinatorics.

A simple n-polytope P enters only through the boundary complex of its dual
simplicial polytope: vertices of the complex are the facets of P, and a set
of facets spans a face exactly when the facets meet in P.  All face data is
stored as bitmasks over the 1-based vertex set {1..m}, which caps m at 63.

The empty face is always a member of a complex, so a complex whose only face
is the empty one is legal: it has m "ghost" vertices lying in no face.  Ghost
vertices matter for full subcomplexes and are preserved by them.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._record import _Field, _frozen
from .errors import CapExceededError, InputError

MAX_VERTICES = 63
MAX_FACE_WORK = 1 << 22  # subsets of maximal faces one face listing may visit


def _mask_of(vertices, m: int) -> int:
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= m:
            raise InputError(f"vertex {v} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def _vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _submasks(mask: int):
    """All subsets of a bitmask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@_frozen
class SimplicialComplex:
    """Finite abstract simplicial complex on vertices 1..m.

    Stored by maximal faces.  ``masks == (0,)`` encodes the complex whose
    only face is the empty face.  ``labels`` records original vertex names
    after a full-subcomplex restriction and never takes part in equality.
    """

    m: int
    masks: tuple[int, ...]
    labels: tuple[int, ...] | None = _Field(default=None, compare=False)

    @property
    def maximal_faces(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_vertices_of(f) for f in self.masks if f)

    @property
    def dim(self) -> int:
        """Dimension; the empty complex has dimension -1."""
        return max(f.bit_count() for f in self.masks) - 1

    def has_face(self, vertices) -> bool:
        mask = _mask_of(vertices, self.m)
        return any(mask & ~f == 0 for f in self.masks)

    def faces_by_card(self) -> dict[int, list[int]]:
        """All faces grouped by vertex count, as sorted mask lists, keyed in
        increasing count from 0 (the empty face, always present with count 1).
        The listing is made once and shared: callers must not change it.
        """
        return self._faces

    @cached_property
    def _faces(self) -> dict[int, list[int]]:  # the one face listing, on the instance
        out: dict[int, list[int]] = {}
        for f in sorted({sub for top in self.masks for sub in _submasks(top)}):
            out.setdefault(f.bit_count(), []).append(f)
        return out

    @cached_property
    def _face_index(self) -> dict[int, int]:  # face -> place in its card's list; the face set
        return {f: i for lst in self._faces.values() for i, f in enumerate(lst)}

    def minimal_non_faces(self) -> list[int]:
        """Masks of the vertex sets that are not faces although every set one
        vertex smaller is, in increasing order.  A ghost vertex is one.

        Each one is a face plus a vertex above all of the face's vertices, so
        only those candidates are tested, never all 2^m subsets.
        """
        faces = self._face_index
        out = []
        for f in faces:
            for v in range(f.bit_length(), self.m):
                s = f | 1 << v
                if s not in faces and all(s & ~(1 << u) in faces for u in range(v) if f >> u & 1):
                    out.append(s)
        return sorted(out)

    def face_counts(self) -> dict[int, int]:
        return {c: len(lst) for c, lst in self.faces_by_card().items()}

    def reduced_euler_characteristic(self) -> int:
        """Sum of (-1)^dim over all faces, the empty face counting as -1."""
        return sum((-1) ** (c - 1) * k for c, k in self.face_counts().items())

    def is_cone(self) -> bool:
        """True when some vertex lies in every maximal face.

        A cone has contractible realization.  The empty complex is not a
        cone, and ghost vertices play no role (they carry no geometry).
        """
        common = ~0
        for f in self.masks:
            common &= f
        return common != 0

    def to_json_obj(self) -> dict:
        return {"m": self.m, "facets": sorted(list(f) for f in self.maximal_faces)}


def require_face_work(facets: int, n: int) -> None:
    """Refuse, before it starts, a face listing that visits more than MAX_FACE_WORK subsets."""
    if facets << n > MAX_FACE_WORK:
        raise CapExceededError(
            f"listing the faces of {facets} maximal faces of {n} vertices would visit "
            f"{facets << n} subsets, above the face-enumeration cap of {MAX_FACE_WORK}"
        )


def _maximal(faces) -> list[int]:
    """The inclusion-maximal masks among ``faces``, in increasing order.

    Faces are taken largest first.  Bit k of ``holders[v]`` is set when the
    k-th kept face holds vertex v, so the AND of a face's holders, masked to
    the kept faces of larger size, is nonzero exactly when the face lies in
    one of them.  Two distinct faces of one size never contain each other,
    and no face follows those of the smallest size, so these are never
    entered in the holders and a pure list never ANDs.  The empty face is
    kept only when it is the only face.
    """
    holders = [0] * MAX_VERTICES
    kept: list[int] = []
    larger = size = 0
    ordered = sorted(set(faces), key=int.bit_count, reverse=True)
    smallest = ordered[-1].bit_count() if ordered else 0
    for f in ordered:
        if f.bit_count() != size:
            size, larger = f.bit_count(), (1 << len(kept)) - 1
        common, rem = larger, f
        while rem and common:
            common &= holders[(rem & -rem).bit_length() - 1]
            rem &= rem - 1
        if common:
            continue
        if size != smallest:
            bit, rem = 1 << len(kept), f
            while rem:
                holders[(rem & -rem).bit_length() - 1] |= bit
                rem &= rem - 1
        kept.append(f)
    return sorted(kept)


def validate_complex(raw, m: int) -> SimplicialComplex:
    """Normalize a raw face list into a SimplicialComplex.

    Redundant faces are absorbed into maximal ones by ``_maximal``, which
    tests a face against the larger kept faces by ANDing one bitset per
    vertex: linear in the face count on a pure facet list; on a list of
    mixed sizes each face costs a few ANDs and ORs of one bit per kept
    face.  An empty face list is allowed for m >= 1 and produces the empty
    complex on m ghost vertices.

    >>> validate_complex([[1, 2], [2], [1]], 2).maximal_faces
    ((1, 2),)
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise InputError("vertex count m must be a nonnegative integer")
    if m > MAX_VERTICES:
        raise InputError(f"m={m} exceeds the bitmask limit of {MAX_VERTICES} vertices")
    if not isinstance(raw, (list, tuple)) or not all(isinstance(f, (list, tuple)) for f in raw):
        raise InputError("facets must be a list of vertex lists")
    faces = [_mask_of(f, m) for f in raw]
    if not faces and m == 0:
        raise InputError("empty face list with m=0 does not define a complex")
    return SimplicialComplex(m=m, masks=tuple(_maximal(faces) or [0]))


def full_subcomplex(K: SimplicialComplex, I) -> SimplicialComplex:
    """Restriction of K to the faces contained in the vertex set I.

    The result is relabeled onto 1..|I| (sorted order of I); the original
    labels are kept in ``labels``.  Ghost vertices of I are preserved.
    """
    I = tuple(sorted(set(I)))
    if not I:
        raise InputError("full subcomplex needs a nonempty vertex set")
    imask = _mask_of(I, K.m)
    masks = _maximal(f & imask for f in K.masks)
    # compress bit positions of I down to 1..|I|
    positions = {v: i for i, v in enumerate(I)}
    def compress(f: int) -> int:
        out = 0
        for v in _vertices_of(f):
            out |= 1 << positions[v]
        return out
    return SimplicialComplex(len(I), tuple(sorted(compress(f) for f in masks)), I)


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; K2's vertices are shifted past K1's.

    Maximal faces are unions of maximal faces, so the join of dual boundary
    complexes models the product of the underlying polytopes.

    >>> square = join(validate_complex([[1], [2]], 2), validate_complex([[1], [2]], 2))
    >>> sorted(square.maximal_faces)
    [(1, 3), (1, 4), (2, 3), (2, 4)]
    """
    m = K1.m + K2.m
    if m > MAX_VERTICES:
        raise InputError(f"join would have {m} > {MAX_VERTICES} vertices")
    masks = sorted({f1 | (f2 << K1.m) for f1 in K1.masks for f2 in K2.masks})
    return SimplicialComplex(m=m, masks=tuple(masks))


@_frozen
class PolytopeDual:
    """A simple n-polytope presented by its dual boundary complex.

    Validation checks purity, the pseudomanifold condition and the Euler
    characteristic of a sphere.  Polytopality beyond that is not decidable
    in practice and is a documented trust boundary.
    """

    n: int
    complex: SimplicialComplex

    def __post_init__(self):
        n, K = self.n, self.complex
        if n < 1:
            raise InputError("polytope dimension must be at least 1")
        if K.masks == (0,):
            raise InputError("dual complex has no faces")
        if any(f.bit_count() != n for f in K.masks):
            raise InputError(f"dual complex is not pure of dimension {n - 1}")
        require_face_work(len(K.masks), n)
        covered = 0
        for f in K.masks:
            covered |= f
        if covered != (1 << K.m) - 1:
            raise InputError("dual complex has a ghost vertex; every facet must appear")
        # pseudomanifold: each (n-2)-face lies in exactly two maximal faces
        ridge_count: dict[int, int] = {}
        for f in K.masks:
            for v in _vertices_of(f):
                ridge = f & ~(1 << (v - 1))
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        bad = [r for r, c in ridge_count.items() if c != 2]
        if bad:
            raise InputError(
                f"not a pseudomanifold: face {_vertices_of(bad[0])} lies in "
                f"{ridge_count[bad[0]]} maximal faces"
            )
        want = (-1) ** (n - 1)
        got = K.reduced_euler_characteristic()
        if got != want:
            raise InputError(
                f"reduced Euler characteristic {got} differs from that of S^{n - 1} ({want})"
            )

    @property
    def m(self) -> int:
        return self.complex.m

    def to_json_obj(self) -> dict:
        return {"n": self.n, "complex": self.complex.to_json_obj()}


@_frozen
class FVector:
    """Face numbers f_{-1}..f_{n-1} of a simple polytope.

    f_i counts the faces of the dual complex with i+1 vertices, equivalently
    the (n-i-1)-dimensional faces of the polytope; f_{-1} = 1 for the
    polytope itself.
    """

    n: int
    entries: tuple[int, ...]

    def f(self, i: int) -> int:
        return self.entries[i + 1]


@_frozen
class HVector:
    entries: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def h(self, k: int) -> int:
        return self.entries[k]


def f_vector(P: PolytopeDual) -> FVector:
    counts = P.complex.face_counts()
    entries = tuple(counts.get(c, 0) for c in range(P.n + 1))
    return FVector(n=P.n, entries=entries)


def h_vector(f: FVector, n: int) -> HVector:
    """Alternating-sum transform of the f-vector, evaluated exactly.

    h_k = sum_{i=0}^{k} (-1)^(k-i) C(n-i, n-k) f_{i-1}.
    """
    if f.n != n or len(f.entries) != n + 1:
        raise InputError("f-vector does not match the stated dimension")
    entries = []
    for k in range(n + 1):
        hk = 0
        for i in range(k + 1):
            hk += (-1) ** (k - i) * math.comb(n - i, n - k) * f.f(i - 1)
        entries.append(hk)
    return HVector(entries=tuple(entries))


def h_vector_of(P: PolytopeDual) -> HVector:
    return h_vector(f_vector(P), P.n)


@_frozen
class DehnSommervilleReport:
    symmetric: bool
    asymmetric_indices: tuple[int, ...]
    h1_ge_h2: bool | None


def dehn_sommerville_report(h: HVector) -> DehnSommervilleReport:
    """Check h_i = h_{n-i} symmetry, with the g-theorem flag h_1 >= h_2.

    An asymmetric h-vector cannot come from a simple polytope.
    """
    n = h.n
    bad = tuple(i for i in range(n + 1) if h.h(i) != h.h(n - i))
    flag = h.h(1) >= h.h(2) if n >= 2 else None
    return DehnSommervilleReport(symmetric=not bad, asymmetric_indices=bad, h1_ge_h2=flag)


# handy constructors for the standard families


def simplex_boundary(n: int) -> SimplicialComplex:
    """The complex dual to the n-simplex: all n-subsets of n+1 vertices."""
    if n < 1:
        raise InputError("need n >= 1")
    verts = range(1, n + 2)
    faces = [[v for v in verts if v != skip] for skip in verts]
    return validate_complex(faces, n + 1)


def polygon_boundary(k: int) -> SimplicialComplex:
    """The k-cycle, dual to a k-gon."""
    if k < 3:
        raise InputError("a polygon needs at least 3 edges")
    faces = [[i, i % k + 1] for i in range(1, k + 1)]
    return validate_complex(faces, k)


def simplex_polytope(n: int) -> PolytopeDual:
    return PolytopeDual(n=n, complex=simplex_boundary(n))


def polygon_polytope(k: int) -> PolytopeDual:
    return PolytopeDual(n=2, complex=polygon_boundary(k))
