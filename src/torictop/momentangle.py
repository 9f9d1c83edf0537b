"""Homology of moment-angle complexes through the stable wedge splitting.

After one suspension, the moment-angle complex of K decomposes stably into a
wedge of suspensions of full subcomplexes, one summand per nonempty vertex
subset I, suspended |I|+2 times.  At the level of homology this turns the
computation into independent small jobs:

    reduced H_d(Z_K)  =  direct sum over I of  reduced H_{d-|I|-1}(K_I).

The minimal non-faces of K decide which summands need algebra.  K_I is a
cone, with zero homology, unless every vertex of I lies in a minimal
non-face inside I; such summands are counted without building K_I.  And K
is the join of its full subcomplexes on the connected components of the
minimal non-face hypergraph, so K_I is the join of its pieces on those
components: each piece is reduced once, and the summands of a join are
assembled from the pieces by the join Kuenneth formula.

Summands are enumerated once, as bitmasks in increasing order, and folded
into the total as they stream by; only summands with nonzero homology are
kept.  No cell structure on Z_K itself is ever built.
"""

from __future__ import annotations

import math

from ._record import _frozen
from .complexes import SimplicialComplex, _vertices_of, full_subcomplex
from .errors import CapExceededError, InputError
from .homology import GradedHomology, merge_torsion, reduced_homology
from .linalg import coeff_prime

DEFAULT_CAP_FIELD = 24
DEFAULT_CAP_EXACT = 16


@_frozen
class WedgeSummand:
    """One wedge piece: the full subcomplex on I, suspended |I|+2 times.

    ``homology`` is the reduced homology of |K_I| itself (unshifted); the
    piece contributes that homology to Z_K with degrees raised by |I|+1.
    ``contractible`` certifies that K_I is a cone (some vertex lies in every
    maximal face; a full simplex on I is the extreme case), which forces the
    homology to vanish.
    """

    subset: tuple[int, ...]
    homology: GradedHomology
    contractible: bool

    @property
    def suspension_shift(self) -> int:
        return len(self.subset) + 2

    def to_json_obj(self) -> dict:
        return {
            "I": list(self.subset),
            "shift": self.suspension_shift,
            "homology": self.homology.to_json_obj(),
            "contractible": self.contractible,
        }


@_frozen
class WedgeSplitting:
    """All nonzero summands plus the assembled homology of Z_K."""

    m: int
    coeff: str
    summands: tuple[WedgeSummand, ...]
    trivial_count: int
    total: GradedHomology

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "coeff": self.coeff,
            "summands": [s.to_json_obj() for s in self.summands],
            "trivial_count": self.trivial_count,
            "total": self.total.to_json_obj(),
        }


def _cap_for(coeff: str, cap: int | None) -> int:
    if cap is not None:
        return cap
    return DEFAULT_CAP_FIELD if coeff not in ("Z", "Q") else DEFAULT_CAP_EXACT


def _summand_structure(K: SimplicialComplex):
    """A cone test on vertex masks, and the join factors of K as vertex masks.

    A vertex is a cone apex of K_I exactly when it lies in no minimal
    non-face inside I.  The test looks at each vertex of I once: through its
    mask of missing-edge partners, then its few larger minimal non-faces.
    The factors are the connected components of the minimal non-face
    hypergraph; vertices in no minimal non-face are apices of every K_I
    containing them and belong to no factor.
    """
    ghosts = 0
    partners = [0] * K.m
    larger: list[list[int]] = [[] for _ in range(K.m)]
    factors: list[int] = []
    for N in K.minimal_non_faces():
        vertices = [v - 1 for v in _vertices_of(N)]
        if len(vertices) == 1:
            ghosts |= N
        elif len(vertices) == 2:
            a, b = vertices
            partners[a] |= 1 << b
            partners[b] |= 1 << a
        else:
            for v in vertices:
                larger[v].append(N)
        merged = N
        for V in [V for V in factors if V & N]:
            factors.remove(V)
            merged |= V
        factors.append(merged)

    def is_cone(I: int) -> bool:
        rest = I & ~ghosts
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if not partners[v] & I:
                for N in larger[v]:
                    if N & ~I == 0:
                        break
                else:
                    return True
        return False

    return is_cone, sorted(factors)


def _join_homology(A: GradedHomology, B: GradedHomology) -> GradedHomology:
    """Reduced homology of A * B from that of the two sides, with
    H_{-1}(empty complex) = Z:

        H_{k+1}(A*B) = sum_{i+j=k} H_i(A) (x) H_j(B) + sum_{i+j=k-1} Tor(H_i(A), H_j(B)).
    """
    rank: dict[int, int] = {}
    tors: dict[int, list[int]] = {}
    for i, (ra, ta) in A.groups:
        for j, (rb, tb) in B.groups:
            d = i + j + 1
            rank[d] = rank.get(d, 0) + ra * rb
            cross = [math.gcd(a, b) for a in ta for b in tb]  # Z/a (x) Z/b = Tor = Z/gcd
            tors.setdefault(d, []).extend(list(ta) * rb + list(tb) * ra + cross)
            tors.setdefault(d + 1, []).extend(cross)
    return GradedHomology.from_dict(
        A.coeff,
        {d: (rank.get(d, 0), merge_torsion(tors.get(d, []))) for d in set(rank) | set(tors)},
    )


def wedge_splitting(
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

    A subset I on which K_I is a cone (I is not the union of the minimal
    non-faces inside it) is counted as trivial without building K_I, and
    materialized as contractible with empty homology.  When K is a join of
    several factors, each factor's pieces of I are reduced once and a
    summand's homology is the join Kuenneth product of its pieces; a K with
    one factor reduces every remaining K_I directly.
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
    coeff_prime(coeff, allow_z=True)  # refused here too, since cones never reach the kernels

    is_cone, factors = _summand_structure(K)
    unit = GradedHomology(coeff, ((-1, (1, ())),))  # the empty complex, unit of the join
    pieces: dict[int, GradedHomology] = {}

    def piece(mask: int) -> GradedHomology:
        if mask not in pieces:
            pieces[mask] = reduced_homology(full_subcomplex(K, _vertices_of(mask)), coeff)
        return pieces[mask]

    summands: list[WedgeSummand] = []
    trivial = 0
    total_rank: dict[int, int] = {}
    total_tors: dict[int, list[int]] = {}
    for mask in range(1, 1 << K.m):
        size = mask.bit_count()
        if size_filter is not None and size not in size_filter:
            continue
        cone = is_cone(mask)
        if cone:
            hom = GradedHomology(coeff, ())
        elif len(factors) == 1:
            hom = reduced_homology(full_subcomplex(K, _vertices_of(mask)), coeff)
        else:
            hom = unit
            for V in factors:
                if mask & V:
                    hom = _join_homology(hom, piece(mask & V))
        if hom.is_trivial():
            trivial += 1
            if not keep_trivial:
                continue
        summands.append(WedgeSummand(_vertices_of(mask), hom, cone))
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


def moment_angle_homology(
    K: SimplicialComplex, coeff: str = "Z", cap: int | None = None
) -> GradedHomology:
    """Reduced homology of the moment-angle complex of K."""
    return wedge_splitting(K, coeff=coeff, cap=cap).total
