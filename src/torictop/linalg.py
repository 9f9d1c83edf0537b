"""Exact linear algebra kernels.

Everything here is deterministic and exact, with no floating point and no
dependency outside the standard library.  Integer routines use Python's
arbitrary-precision ints (Bareiss fraction-free elimination).  Outside
homology, which reads the Smith form, every field goes through one sparse
eliminator, ``echelon``, whose pivot rows give ranks, normal forms and
kernels.  It works on ints: reduced mod p over F_p, exact for every prime,
and over Q until a pivot is not a unit.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InputError


# ---------------------------------------------------------------------------
# exact integer routines


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(Rank over Q, determinant if square) of an integer matrix, by
    fraction-free (Bareiss) elimination."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    r, sign, prev = 0, 1, 1  # r counts the pivot rows: the rank at the end
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        pivval = A[r][c]
        for i in range(r + 1, m):
            aic = A[i][c]
            if aic or pivval != prev:  # else the update leaves row i as it is
                for j in range(c + 1, n):
                    num = A[i][j] * pivval - aic * A[r][j]
                    q, rem = divmod(num, prev)
                    assert rem == 0, "Bareiss division must be exact"
                    A[i][j] = q
            A[i][c] = 0
        prev = pivval
        r += 1
        if r == m:
            break
    return r, sign * prev if r == n else 0


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over Q, by fraction-free elimination.  Not
    on the homology path: homology over every coefficient reads
    ``homology.smith_normal_form``; the tests take it as an independent oracle."""
    return _bareiss(rows)[0]


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    return _bareiss(rows)[1]


def matmul_int(A: list[list[int]], B: list[list[int]], inner: int) -> list[list[int]]:
    """Exact product of integer matrices given as row lists."""
    rows = len(A)
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cols):
                    row[j] += a * Bk[j]
    return out


# ---------------------------------------------------------------------------
# coefficient tags

# Miller-Rabin with the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86 (2017)).  Stopping at 37 would not do: the composite
# 318665857834031151167461 passes the first 12 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided exactly only below {PRIME_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=16)
def coeff_prime(coeff: str, allow_z: bool = False) -> int | None:
    """Parse a coefficient tag: p for 'F<p>' and 0 for 'Q', the ``p`` of
    ``echelon``, and None for 'Z' where ``allow_z`` admits it.  'F<p>' is
    refused unless it reads f"F{p}" for a prime p < PRIME_BOUND, so that a
    field has one tag.  The last 16 tags read are kept."""
    if coeff == "Q":
        return 0
    if coeff == "Z" and allow_z:
        return None
    digits = coeff[1:]
    if not (coeff.startswith("F") and digits.isdecimal()):
        tags = "'Z', 'Q' or 'F<p>'" if allow_z else "'Q' or 'F<p>'"
        raise InputError(f"unknown coefficient tag {coeff!r}; use {tags}")
    if not digits.isascii() or len(digits) > 1 and digits[0] == "0":  # 'F02', 'F٣': before int()
        raise InputError(f"coefficient tag {coeff!r} is not canonical; write p in ASCII "
                         "digits with no leading zero")
    try:
        p = int(digits)
    except ValueError:  # more digits than int() will parse
        p = PRIME_BOUND
    if p >= PRIME_BOUND:
        raise InputError(
            f"coefficient tag {coeff!r}: F<p> needs p < {PRIME_BOUND}, "
            "below which primality is decided exactly"
        )
    if not is_prime(p):
        raise InputError(f"coefficient tag {coeff!r} does not name a prime")
    return p


# ---------------------------------------------------------------------------
# the field eliminator: F_p for a prime p, Q for p = 0


def echelon(rows, p: int) -> dict[int, list[tuple[int, object]]]:
    """Echelon form of the row space of integer rows over F_p, or Q if p is 0
    (where rational entries are taken as well).

    Returns {pivot column: pivot row}, each pivot row as its nonzero
    (column, entry) pairs: entry 1 at the pivot column and nothing left of
    it.  Each row is reduced mod p on entry, then against the pivots it
    meets from left to right, until it becomes a new pivot row or vanishes.
    The pivot columns are the leading columns of the row space, so they do
    not depend on the order of the rows.  Over Q a pivot of +-1 is its own
    inverse, so rows stay int; ``fractions`` is imported at the first other.
    """
    pivots: dict[int, list[tuple[int, object]]] = {}
    for row in rows:
        v = [x % p for x in row] if p else list(row)
        for c, x in enumerate(v):
            if not x:
                continue
            prow = pivots.get(c)
            if prow is None:
                if p or x in (1, -1):
                    inv = pow(x, -1, p) if p else x
                else:
                    from fractions import Fraction
                    inv = 1 / Fraction(x)
                pivots[c] = [(j, y * inv % p if p else y * inv) for j, y in enumerate(v) if y]
                break
            if p:  # clears v[c]; v is zero left of c already
                for j, y in prow:
                    v[j] = (v[j] - x * y) % p
            else:
                for j, y in prow:
                    v[j] -= x * y
    return pivots


def normal_form(vec, pivots: dict, p: int) -> list:
    """The integer vector ``vec`` reduced against ``echelon`` pivots, in one
    pass from left to right: the unique representative of its class modulo
    the row space that is zero in every pivot column."""
    v = [x % p for x in vec] if p else list(vec)
    for c, x in enumerate(v):
        prow = pivots.get(c) if x else None
        if prow is None:
            continue
        if p:
            for j, y in prow:
                v[j] = (v[j] - x * y) % p
        else:
            for j, y in prow:
                v[j] -= x * y
    return v


def kernel_vectors(pivots: dict, ncols: int, p: int) -> list[list]:
    """Basis of the right kernel of a matrix with ``echelon`` pivots, one
    vector per free column f, with entry 1 at f and 0 at the other free
    columns; each pivot entry follows by back-substitution from the right."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for c in sorted(pivots, reverse=True):
            s = -sum(y * v[j] for j, y in pivots[c][1:])
            v[c] = s % p if p else s
        basis.append(v)
    return basis


def rank_mod_p(rows, p: int) -> int:
    """Rank of integer rows over F_p, or Q if p is 0; off the homology path."""
    return len(echelon(rows, p))
