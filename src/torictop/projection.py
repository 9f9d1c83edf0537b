"""Certificates for the quotient map from a moment-angle complex.

The quotient map onto a quasitoric manifold suspends, p-locally, to a wedge
of maps: wedge piece I of the moment-angle side (the full subcomplex on I,
suspended |I|+2 times) is carried into the target piece X_i with
i = |I| mod p-1.  Triviality of the whole suspension is certified
summand by summand:

  * "simplex": I spans a face, so the summand is contractible;
  * "dimension": |I| = i and the subcomplex is not a simplex, so the summand
    is a complex of dimension at most 2|I| < 2i+1, below the target spheres;
  * "vanishing-range": the summand's p-locally visible homology sits in
    degrees where the homotopy of the target sphere vanishes p-locally;
  * "uncertified": none of the above applies.  One-sided by design: the
    library never claims a map is essential from a failed certificate.

Non-triviality goes the other way and is also one-sided: a verdict of
"not-null" always carries a witness that re-validates (a square-zero degree
2 class mod 2, or a Steenrod operation hitting a top power), and everything
else reports "inconclusive".
"""

from __future__ import annotations

from . import linalg
from ._record import _Field, _frozen
from .complexes import PolytopeDual, h_vector_of
from .errors import InputError
from .momentangle import wedge_splitting
from .quasitoric import CharacteristicMatrix, CohomologyPresentation, require_admissible
from .splitting import (
    EvenBettiData,
    SplitSummand,
    split,
    vanishing_range_check,
    _require_odd_prime,
    _require_split_prime,
)

CERT_SIMPLEX = "simplex"
CERT_DIMENSION = "dimension"
CERT_VANISHING = "vanishing-range"
CERT_NONE = "uncertified"


@_frozen
class SummandCertificate:
    subset: tuple[int, ...]
    group: int
    kind: str
    details: dict = _Field(compare=False, default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.kind != CERT_NONE

    def to_json_obj(self) -> dict:
        return {
            "I": list(self.subset),
            "group": self.group,
            "kind": self.kind,
            "details": self.details,
        }


@_frozen
class ProjectionReport:
    p: int
    m: int
    targets: tuple[SplitSummand, ...]
    groups: dict[int, tuple[SummandCertificate, ...]]

    def all_certificates(self) -> list[SummandCertificate]:
        return [c for i in sorted(self.groups) for c in self.groups[i]]

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "groups": {
                str(i): {
                    "target": self.targets[i - 1].to_json_obj(),
                    "summands": [c.to_json_obj() for c in self.groups[i]],
                }
                for i in sorted(self.groups)
            },
        }


@_frozen
class TrivialityCertificate:
    p: int
    n: int
    # p > n: an overall verdict is offered, not a promise of triviality; CP^2
    # at p=3 is applicable and correctly refused
    applicable: bool
    certified: bool | None  # None when not applicable
    summands: tuple[SummandCertificate, ...]

    def uncertified_subsets(self) -> list[tuple[int, ...]]:
        return [c.subset for c in self.summands if not c.certified]

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "applicable": self.applicable,
            "certified": self.certified,
            "summands": [c.to_json_obj() for c in self.summands],
        }


def _group_of(size: int, p: int) -> int:
    return (size - 1) % (p - 1) + 1


def _plocal_degrees(summand_homology, shift: int, p: int) -> list[int]:
    """Degrees of the suspended summand visible to p-local homology."""
    out = []
    for deg, (rank, tors) in summand_homology.groups:
        if rank > 0 or any(t % p == 0 for t in tors):
            out.append(deg + shift)
    return out


def _certify_summand(subset, sub_homology, is_face, sub_dim, p) -> SummandCertificate:
    size = len(subset)
    i = _group_of(size, p)
    target_dim = 2 * i + 1
    if is_face:
        return SummandCertificate(subset, i, CERT_SIMPLEX, {"face": True})
    if size == i:
        # not a simplex, so dim K_I <= |I| - 2 and the summand has dimension
        # at most 2|I| = 2i < 2i+1
        top_cell = size + 2 + sub_dim
        details = {"dim_K_I": sub_dim, "top_cell": top_cell, "bound": 2 * size,
                   "target_sphere": target_dim}
        if sub_dim > size - 2 or top_cell > 2 * size:
            return SummandCertificate(subset, i, CERT_NONE, details)
        return SummandCertificate(subset, i, CERT_DIMENSION, details)
    degrees = _plocal_degrees(sub_homology, size + 2, p)
    details = {"source_degrees": degrees, "target_sphere": target_dim}
    ok = vanishing_range_check(degrees, target_dim, p)
    # odd source degrees above the sphere are safe strictly below the first
    # p-torsion line 2(i+p-1); the even case is vanishing_range_check's job
    for d in degrees:
        if d % 2 and d > target_dim and d >= 2 * (i + p - 1):
            ok = False
    return SummandCertificate(subset, i, CERT_VANISHING if ok else CERT_NONE, details)


def _certificates(P: PolytopeDual, p: int, cap: int | None) -> list[SummandCertificate]:
    splitting = wedge_splitting(P.complex, coeff="Z", cap=cap, keep_trivial=True)
    certs = []
    for s in splitting.summands:
        mask = sum(1 << (v - 1) for v in s.subset)
        # K_I's largest face has `top` vertices: dim K_I = top - 1, and I
        # spans a face exactly when top = |I|
        top = max((f & mask).bit_count() for f in P.complex.masks)
        certs.append(_certify_summand(s.subset, s.homology, top == len(s.subset), top - 1, p))
    certs.sort(key=lambda c: (len(c.subset), c.subset))
    return certs


def _triviality(P: PolytopeDual, p: int, certs: list[SummandCertificate]) -> TrivialityCertificate:
    applicable = p > P.n
    certified = all(c.certified for c in certs) if applicable else None
    return TrivialityCertificate(
        p=p, n=P.n, applicable=applicable, certified=certified, summands=tuple(certs)
    )


def projection_reports(
    P: PolytopeDual, lam: CharacteristicMatrix, p: int, cap: int | None = None
) -> tuple[ProjectionReport, TrivialityCertificate]:
    """``projection_decomposition`` and ``suspension_triviality_check`` at
    the cost of one, since both are read off the same wedge splitting."""
    _require_split_prime(p)
    require_admissible(P, lam)
    certs = _certificates(P, p, cap)
    targets = split(EvenBettiData.from_h_vector(h_vector_of(P)), p)
    groups: dict[int, list[SummandCertificate]] = {i: [] for i in range(1, p)}
    for c in certs:
        groups[c.group].append(c)
    rep = ProjectionReport(
        p=p,
        m=P.m,
        targets=tuple(targets),
        groups={i: tuple(v) for i, v in groups.items()},
    )
    return rep, _triviality(P, p, certs)


def projection_decomposition(
    P: PolytopeDual, lam: CharacteristicMatrix, p: int, cap: int | None = None
) -> ProjectionReport:
    """Group the wedge summands by residue class and attach certificates.

    Every nonempty subset of the vertex set appears in exactly one group;
    group i receives the subsets with |I| = i mod p-1 and maps to the target
    piece X_i computed from the h-vector Betti numbers.
    """
    return projection_reports(P, lam, p, cap)[0]


def suspension_triviality_check(
    P: PolytopeDual, p: int, cap: int | None = None
) -> TrivialityCertificate:
    """Certify null-homotopy of the suspended, p-localized quotient map.

    For p > n the target pieces are wedges of spheres and an overall verdict
    is offered: certified exactly when every summand certificate succeeded.
    For p <= n only the per-summand information is reported.

    ``applicable`` (p > n) says only that a verdict is offered, not that the
    map is trivial.  CP^2 at p=3 is applicable and correctly refused: the
    full-subset summand S^6 -> S^3 is essential, since the cofibre of
    S^5 -> CP^2 is CP^3 and P^1 x = x^3 != 0 in H^6(CP^3; F_3).
    """
    _require_odd_prime(p)
    return _triviality(P, p, _certificates(P, p, cap))


# ---------------------------------------------------------------------------
# non-triviality criteria


@_frozen
class NontrivialityVerdict:
    criterion: str
    applicable: bool
    conclusion: str  # "not-null" or "inconclusive"
    witness: dict | None = None
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "criterion": self.criterion,
            "applicable": self.applicable,
            "conclusion": self.conclusion,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def squaring_kernel(pres: CohomologyPresentation) -> NontrivialityVerdict:
    """Look for a nonzero degree-2 class with vanishing square mod 2.

    Such a class forces the stabilized quotient map to be essential.  The
    squaring map is additive in characteristic 2, so this is a kernel
    computation; the returned witness re-validates by construction.
    """
    if pres.coeff != "F2":
        raise InputError("squaring kernel needs an F2 presentation")
    return _square_zero_class(pres.squaring_matrix(), pres.h2_labels())


def _square_zero_class(matrix, names) -> NontrivialityVerdict:
    """The squaring-kernel verdict for a squaring map given by its rows over
    the degree-4 basis, one column per degree-2 generator in ``names``."""
    h2 = len(names)
    kernel = linalg.kernel_vectors(linalg.echelon(matrix, 2), h2, 2)
    if not kernel:
        return NontrivialityVerdict(
            criterion="square-zero-class",
            applicable=True,
            conclusion="inconclusive",
            notes=("no nonzero degree-2 class squares to zero mod 2",),
        )
    vec = kernel[0]
    assert any(vec), "kernel vector must be nonzero"
    image = [sum(matrix[r][c] * vec[c] for c in range(h2)) % 2 for r in range(len(matrix))]
    assert not any(image), "witness must square to zero"
    witness = {
        "coefficients": list(vec),
        "generators": list(names),
        "kernel_dimension": len(kernel),
    }
    return NontrivialityVerdict(
        criterion="square-zero-class",
        applicable=True,
        conclusion="not-null",
        witness=witness,
    )


def steenrod_hit_search(s: int) -> tuple[int, int] | None:
    """Smallest j with Sq^(2j) carrying t^(s-j) to t^s on a degree-2 class.

    Sq^(2j)(t^r) = C(r, j) t^(r+j), and C(r, j) is odd exactly when the
    base-2 digits of j are dominated by those of r.  Returns (r, j) with
    r = s - j for the first j in 1..floor(s/2) whose binomial is odd, or
    None; the None cases are exactly s = 2^e - 1.
    """
    if s < 1:
        raise InputError("need s >= 1")
    for j in range(1, s // 2 + 1):
        r = s - j
        if j & ~r == 0:  # C(r, j) odd
            return (r, j)
    return None


def _is_power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def two_simplices_check(n: int, k: int) -> NontrivialityVerdict:
    """Stable non-triviality test over a product of two simplices.

    The extreme cases k = 0 and k = n are the projective spaces, where the
    quotient map is the sphere-to-projective-space quotient and its cofiber
    has an attached top cell, so stabilization never kills it.  Otherwise
    the published condition is that neither n+2 nor n-k+2 is a power of 2;
    raw hit-search data for both candidate exponents n-k+1 and k+1 is
    attached, since the two formulations do not align symbol for symbol.
    """
    if not 0 <= k <= n or n < 1:
        raise InputError("need 0 <= k <= n with n >= 1")
    if k in (0, n):
        return NontrivialityVerdict(
            criterion="projective-space-cofiber",
            applicable=True,
            conclusion="not-null",
            witness={"n": n, "k": k, "case": "single simplex factor"},
        )
    cond = not _is_power_of_two(n + 2) and not _is_power_of_two(n - k + 2)
    hits = {}
    for s in sorted({n - k + 1, k + 1}):
        hit = steenrod_hit_search(s)
        hits[str(s)] = {
            "hit": None if hit is None else list(hit),
            "s_plus_1_power_of_two": _is_power_of_two(s + 1),
        }
    notes = (
        "power-of-two conditions and hit-search exponents are reported "
        "side by side; they do not match symbol for symbol",
    )
    if cond:
        return NontrivialityVerdict(
            criterion="two-simplices-power-of-two",
            applicable=True,
            conclusion="not-null",
            witness={"n": n, "k": k, "hits": hits},
            notes=notes,
        )
    return NontrivialityVerdict(
        criterion="two-simplices-power-of-two",
        applicable=False,
        conclusion="inconclusive",
        witness={"n": n, "k": k, "hits": hits},
        notes=notes,
    )


@_frozen
class CubeCensusEntry:
    params: tuple[int, int, int, int, int, int]
    valid: bool
    witness: dict | None

    def to_json_obj(self) -> dict:
        return {"params": list(self.params), "valid": self.valid, "witness": self.witness}


@_frozen
class CubeCensus:
    total: int
    valid_count: int
    uncertified: tuple[tuple[int, ...], ...]
    entries: tuple[CubeCensusEntry, ...]

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "valid_count": self.valid_count,
            "uncertified": [list(t) for t in self.uncertified],
            "entries": [e.to_json_obj() for e in self.entries if e.valid],
        }


def cube_census() -> CubeCensus:
    """Exhaust all 64 mod-2 parameter tuples (a, b, c, d, e, f) over the 3-cube.

    A tuple stands for F2[x,y,z] / (x^2+x(ay+bz), y^2+y(cx+dz), z^2+z(ex+fy)).
    It is valid when ac = df = be = 0 and [[1,c,e],[a,1,f],[b,d,1]] has
    determinant 1 over F2: the mod-2 shadows of the unimodular principal
    minors of a characteristic matrix in refined form.  For every valid tuple
    the squaring kernel must produce a witness; a valid tuple without one
    would contradict the theorem, so the census raising is a bug detector,
    not a data condition.
    """
    entries = []
    uncertified = []
    valid_count = 0
    for code in range(64):
        a, b, c, d, e, f = bits = tuple((code >> t) & 1 for t in range(6))
        det = (1 + f * d + c * a + c * f * b + e * a * d + e * b) % 2
        valid = a * c == 0 and d * f == 0 and b * e == 0 and det == 1
        witness = None
        if valid:
            valid_count += 1
            # the squares of x, y, z over the degree-4 basis xy, xz, yz
            verdict = _square_zero_class([[a, c, 0], [b, 0, e], [0, d, f]], ("x", "y", "z"))
            if verdict.conclusion == "not-null":
                witness = verdict.witness
            else:
                uncertified.append(bits)
        entries.append(CubeCensusEntry(params=bits, valid=valid, witness=witness))
    return CubeCensus(
        total=64,
        valid_count=valid_count,
        uncertified=tuple(uncertified),
        entries=tuple(entries),
    )


def p_local_note(P: PolytopeDual, lam: CharacteristicMatrix) -> dict:
    """Fixed report: localization alone never trivializes the quotient map.

    The statement is homotopy-theoretic (torsion in the homotopy of p-local
    finite complexes) and is reported, not certified, by this library.
    """
    require_admissible(P, lam)
    note = {
        "statement": (
            "for every admissible pair and every prime p, the p-localized "
            "quotient map from the moment-angle complex is not null homotopic"
        ),
        "computed": False,
        "reason": (
            "follows from torsion in the homotopy groups of noncontractible "
            "p-local finite complexes; outside the scope of homological "
            "certificates"
        ),
    }
    if P.n == 1:
        note["special_case"] = (
            "over the segment the quotient map is the Hopf map from the "
            "3-sphere to the 2-sphere"
        )
    return note
