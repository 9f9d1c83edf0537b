"""Homology of moment-angle complexes through the stable wedge splitting.

After one suspension, the moment-angle complex of K decomposes stably into a
wedge of suspensions of full subcomplexes, one summand per nonempty vertex
subset I, suspended |I|+2 times.  At the level of homology this turns the
computation into independent small jobs:

    reduced H_d(Z_K)  =  direct sum over I of  reduced H_{d-|I|-1}(K_I).

Summands are enumerated once, as bitmasks in increasing order, and folded
into the total as they stream by; only summands with nonzero homology are
kept.  No cell structure on Z_K itself is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, _vertices_of, full_subcomplex
from .errors import CapExceededError, InputError
from .homology import GradedHomology, merge_torsion, reduced_homology

DEFAULT_CAP_FIELD = 24
DEFAULT_CAP_EXACT = 16


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def moment_angle_homology(
    K: SimplicialComplex, coeff: str = "Z", cap: int | None = None
) -> GradedHomology:
    """Reduced homology of the moment-angle complex of K."""
    return wedge_splitting(K, coeff=coeff, cap=cap).total
