"""The p-local wedge decomposition of a suspended even-cell space.

A connected space with free homology concentrated in even degrees and a
power map (acting by u^k on H_2k, u a primitive root mod p) has a suspension
that splits p-locally into p-1 wedge pieces.  Piece i carries exactly the
homology in degrees 2k+1 with k congruent to i mod p-1: the composite of the
shifted power maps skipping the i-th factor acts on H_{2k+1} by the scalar

    prod over j != i of (u^k - u^j)   (mod p),

which vanishes exactly when k is not congruent to i.  Everything here is
modular arithmetic on Betti numbers; no space is ever constructed.

For p larger than half the dimension each piece collapses to a single
congruence class k = i, so it is a wedge of (2i+1)-spheres and the whole
decomposition depends only on the even Betti numbers.  That is the rigidity
statement: two manifolds over the same polytope get identical reports.
"""

from __future__ import annotations

import math

from ._record import _frozen
from .complexes import HVector
from .errors import InputError
from .homology import GradedHomology
from .linalg import PRIME_BOUND, is_prime


def is_odd_prime(p: int) -> bool:
    """Exact for p < PRIME_BOUND; raises ValueError at or above it."""
    return p != 2 and is_prime(p)


def _require_odd_prime(p: int):
    if p >= PRIME_BOUND:
        raise InputError(f"p={p} is not below {PRIME_BOUND}, the bound of the exact primality test")
    if not is_odd_prime(p):
        if p == 2:
            raise InputError(
                "p=2 is excluded: the eigenvalue construction needs p-1 >= 2 "
                "distinct nonzero residues u^1..u^(p-1) mod p"
            )
        raise InputError(f"{p} is not an odd prime")


# split, sphere_wedge_decomposition and projection emit p - 1 pieces, so they
# refuse p above this bound; at the bound a split report is about 6 MB
SPLIT_PRIME_BOUND = 1 << 16


def _require_split_prime(p: int):
    _require_odd_prime(p)
    if p > SPLIT_PRIME_BOUND:
        raise InputError(
            f"p={p} is above {SPLIT_PRIME_BOUND}, the bound on p for a splitting: "
            f"it would emit {p - 1} pieces"
        )


def multiplicative_order(u: int, p: int) -> int:
    u %= p
    if math.gcd(u, p) != 1:  # no power of u is 1 mod p
        raise InputError("u must be coprime to p")
    k = 1
    x = u
    while x != 1:
        x = (x * u) % p
        k += 1
    return k


def is_primitive_root(u: int, p: int) -> bool:
    return math.gcd(u, p) == 1 and multiplicative_order(u, p) == p - 1


def primitive_root(p: int) -> int:
    """Smallest positive primitive root mod p.

    >>> [primitive_root(p) for p in (3, 5, 7, 11)]
    [2, 2, 3, 2]
    """
    _require_odd_prime(p)
    for u in range(1, p):
        if multiplicative_order(u, p) == p - 1:
            return u
    raise AssertionError("unreachable: every odd prime has a primitive root")


def eigen_scalar(p: int, u: int, i: int, k: int) -> int:
    """The scalar by which the i-th selector composite acts on H_{2k+1}, mod p.

    >>> eigen_scalar(3, 2, 1, 1), eigen_scalar(3, 2, 1, 2)
    (1, 0)
    >>> eigen_scalar(5, 2, 2, 2)
    1
    """
    _require_odd_prime(p)
    if not 1 <= i <= p - 1:
        raise InputError(f"index i={i} must lie in 1..{p - 1}")
    if k < 0:
        raise InputError("k must be nonnegative")
    if u % p == 0:
        raise InputError("u must be coprime to p")
    uk = pow(u, k, p)
    out = 1
    for j in range(1, p):
        if j != i:
            out = (out * (uk - pow(u, j, p))) % p
    return out


@_frozen
class EvenBettiData:
    """Betti numbers b_0..b_{n_top} of the even-degree homology."""

    n_top: int
    b: tuple[int, ...]

    def __post_init__(self):
        if self.n_top < 0 or len(self.b) != self.n_top + 1:
            raise InputError("need n_top >= 0 and exactly n_top + 1 Betti numbers")
        if any(x < 0 for x in self.b):
            raise InputError("Betti numbers must be nonnegative")

    @classmethod
    def from_h_vector(cls, h: HVector) -> "EvenBettiData":
        return cls(n_top=h.n, b=tuple(h.entries))


@_frozen
class SplitSummand:
    """Homology data of the i-th wedge piece of the suspended space.

    Degrees are concentrated in 2k+1 with k = i mod p-1.  When the piece is
    certified to be a wedge of p-local spheres, ``sphere_wedge`` lists
    (dimension, multiplicity) pairs reproducing the homology exactly.
    """

    i: int
    p: int
    homology: GradedHomology
    sphere_wedge: tuple[tuple[int, int], ...] | None = None

    def to_json_obj(self) -> dict:
        return {
            "i": self.i,
            "homology": self.homology.to_json_obj(),
            "sphere_wedge": None
            if self.sphere_wedge is None
            else [list(x) for x in self.sphere_wedge],
        }


def split(b: EvenBettiData, p: int, coeff: str = "Z", u: int | None = None) -> list[SplitSummand]:
    """Distribute the reduced suspension homology over the p-1 wedge pieces.

    Degree 2k+1 of the suspension carries b_k, and lands in piece i = k mod
    p-1 (with residue 0 written as i = p-1).  b_0 belongs to the unreduced
    degree 0 and is assigned to no piece.  The optional u must be a
    primitive root; it is validated and has no effect on the output, which
    depends only on residues.
    """
    _require_split_prime(p)
    if coeff not in ("Z", f"F{p}"):
        raise InputError(f"coefficient view must be 'Z' or 'F{p}'")
    if u is not None and not is_primitive_root(u, p):
        raise InputError(f"{u} is not a primitive root mod {p}")
    out = []
    for i in range(1, p):
        groups = {}
        for k in range(1, b.n_top + 1):
            if (k - i) % (p - 1) == 0 and b.b[k]:
                groups[2 * k + 1] = (b.b[k], ())
        out.append(
            SplitSummand(i=i, p=p, homology=GradedHomology.from_dict(coeff, groups))
        )
    return out


def sphere_wedge_decomposition(
    b: EvenBettiData, p: int, coeff: str = "Z", u: int | None = None
) -> list[SplitSummand]:
    """The split for p > n_top, with every piece certified a sphere wedge.

    In that range each congruence class k = i mod p-1 meets 1..n_top at most
    once, so piece i is a wedge of b_i spheres of dimension 2i+1.  Output is
    a function of (b, p) alone.
    """
    _require_split_prime(p)
    if p <= b.n_top:
        raise InputError(
            f"sphere wedge form needs p > {b.n_top}; use split() for the general shape"
        )
    pieces = split(b, p, coeff=coeff, u=u)
    out = []
    for piece in pieces:
        i = piece.i
        wedge = ()
        if i <= b.n_top and b.b[i]:
            wedge = ((2 * i + 1, b.b[i]),)
        expected = {2 * i + 1: (b.b[i], ())} if wedge else {}
        if GradedHomology.from_dict(piece.homology.coeff, expected) != piece.homology:
            raise AssertionError("sphere wedge must reproduce the summand homology")
        out.append(SplitSummand(i=i, p=p, homology=piece.homology, sphere_wedge=wedge))
    return out


def vanishing_range_check(source_dims, target_sphere_dim: int, p: int) -> bool:
    """Certify that even-degree obstructions land in the vanishing range.

    For a p-local target sphere S^(2l+1), the even homotopy group in degree
    2j vanishes whenever j < l + p - 1.  The check passes when every even
    source degree 2j above the sphere dimension satisfies that inequality.
    """
    _require_odd_prime(p)
    if target_sphere_dim % 2 == 0 or target_sphere_dim < 1:
        raise InputError("target sphere dimension must be odd and positive")
    ell = (target_sphere_dim - 1) // 2
    for d in source_dims:
        if d % 2 == 0 and d > target_sphere_dim:
            if d // 2 >= ell + p - 1:
                return False
    return True
