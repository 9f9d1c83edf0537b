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

One walk, ``_subsets``, visits the subsets in (size, subset) order and hands
out each summand's homology on demand; the splitting keeps and sums the
summands with nonzero homology, and the projection certificates read the
same walk, computing only the homology a certificate looks at.
No cell structure on Z_K itself is ever built.
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce
from itertools import combinations

from ._record import _frozen
from .complexes import SimplicialComplex, _vertices_of, full_subcomplex
from .errors import CapExceededError, InputError
from .homology import GradedHomology, reduced_homology
from .linalg import coeff_prime

DEFAULT_CAP_FIELD = 24
DEFAULT_CAP_EXACT = 16


@_frozen
class WedgeSummand:
    """One wedge piece with nonzero homology: the full subcomplex on I,
    suspended |I|+2 times.

    ``homology`` is the reduced homology of |K_I| itself (unshifted); the
    piece contributes that homology to Z_K with degrees raised by |I|+1.
    A piece with homology is never a cone, so a report's ``"contractible"``
    is always false; the key stays for readers of earlier reports.
    """

    subset: tuple[int, ...]
    homology: GradedHomology

    @property
    def suspension_shift(self) -> int:
        return len(self.subset) + 2

    def to_json_obj(self) -> dict:
        return {
            "I": list(self.subset),
            "shift": self.suspension_shift,
            "homology": self.homology.to_json_obj(),
            "contractible": False,
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
    """The enumeration cap for ``coeff``; a bad tag is refused first."""
    kind = coeff_prime(coeff, allow_z=True)  # None for Z, 0 for Q, p for F_p
    if cap is not None:
        return cap
    return DEFAULT_CAP_FIELD if kind else DEFAULT_CAP_EXACT


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
    terms = []
    for i, (ra, ta) in A.groups:
        for j, (rb, tb) in B.groups:
            cross = [math.gcd(a, b) for a in ta for b in tb]  # Z/a (x) Z/b = Tor = Z/gcd
            terms.append((i + j + 1, ra * rb, list(ta) * rb + list(tb) * ra + cross))
            terms.append((i + j + 2, 0, cross))
    return GradedHomology.direct_sum(A.coeff, terms)


def _subsets(K: SimplicialComplex, coeff: str, sizes=None, cap: int | None = None):
    """Walk the nonempty subsets I with |I| in ``sizes`` (every size when
    None) in (size, subset) order, yielding I, its mask and a function that
    computes the reduced homology of K_I, so that a reader pays only for the
    homology it reads.

    The walk refuses to run past the cap (default 16 vertices with exact
    coefficients, 24 over a finite field) unless ``cap`` overrides it.  A
    cone K_I gets one shared empty homology without being built, and a join
    reduces each factor's piece of I once (see the module docstring).
    """
    limit = _cap_for(coeff, cap)  # a bad tag is refused before the cap, and once
    if K.m > limit:
        raise CapExceededError(f"m={K.m} exceeds the enumeration cap {limit}: it would enumerate "
                               f"{(1 << K.m) - 1} subsets; pass a larger cap to override")
    vertices = range(1, K.m + 1)
    sizes = vertices if sizes is None else sorted(set(sizes))
    if any(s < 1 or s > K.m for s in sizes):
        raise InputError("size filter values must lie in 1..m")

    is_cone, factors = _summand_structure(K)
    empty = GradedHomology(coeff, ())
    unit = GradedHomology(coeff, ((-1, (1, ())),))  # the empty complex, unit of the join

    @cache
    def piece(mask: int) -> GradedHomology:
        return reduced_homology(full_subcomplex(K, _vertices_of(mask)), coeff)

    def homology_of(subset: tuple[int, ...], mask: int) -> GradedHomology:
        if is_cone(mask):
            return empty
        if len(factors) == 1:
            return reduced_homology(full_subcomplex(K, subset), coeff)
        return reduce(_join_homology, (piece(mask & V) for V in factors if mask & V), unit)

    bits = [1 << (v - 1) for v in vertices]
    for size in sizes:
        for subset, subset_bits in zip(combinations(vertices, size), combinations(bits, size)):
            mask = sum(subset_bits)
            yield subset, mask, partial(homology_of, subset, mask)


def wedge_splitting(K: SimplicialComplex, coeff: str = "Z", size_filter: set[int] | None = None,
                    cap: int | None = None) -> WedgeSplitting:
    """The wedge summands of the suspended moment-angle complex, folded from
    one ``_subsets`` walk over the sizes in ``size_filter`` (every size when
    None).  Only the summands with nonzero homology are returned, in (size,
    subset) order; the others, cones included, are counted in ``trivial_count``.
    """
    summands: list[WedgeSummand] = []
    walked = 0
    for walked, (subset, _, homology_of) in enumerate(_subsets(K, coeff, size_filter, cap), 1):
        hom = homology_of()
        if not hom.is_trivial():
            summands.append(WedgeSummand(subset, hom))
    total = GradedHomology.direct_sum(coeff, ((deg + len(s.subset) + 1, rank, tors)
                                              for s in summands
                                              for deg, (rank, tors) in s.homology.groups))
    return WedgeSplitting(K.m, coeff, tuple(summands), walked - len(summands), total)


def moment_angle_homology(
    K: SimplicialComplex, coeff: str = "Z", cap: int | None = None
) -> GradedHomology:
    """Reduced homology of the moment-angle complex of K."""
    return wedge_splitting(K, coeff=coeff, cap=cap).total
