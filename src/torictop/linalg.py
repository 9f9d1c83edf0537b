"""Exact linear algebra kernels.

Everything here is deterministic and exact: integer routines use Python's
arbitrary-precision ints (Bareiss fraction-free elimination), field routines
use either Fraction arithmetic or Python ints reduced mod p, so F_p ranks are
exact for every prime.  No floating point, and no dependency outside the
standard library.
"""

from __future__ import annotations

from .errors import InputError


# ---------------------------------------------------------------------------
# exact integer routines


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over Q, by fraction-free elimination."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pivval = A[r][c]
        for i in range(r + 1, m):
            aic = A[i][c]
            if aic or pivval != prev:
                for j in range(c + 1, n):
                    num = A[i][j] * pivval - aic * A[r][j]
                    q, rem = divmod(num, prev)
                    assert rem == 0, "Bareiss division must be exact"
                    A[i][j] = q
            A[i][c] = 0
        prev = pivval
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    m = len(rows)
    if m == 0:
        return 1
    if any(len(r) != m for r in rows):
        raise ValueError("determinant needs a square matrix")
    A = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(m):
        piv = next((i for i in range(c, m) if A[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        pivval = A[c][c]
        for i in range(c + 1, m):
            aic = A[i][c]
            for j in range(c + 1, m):
                q, rem = divmod(A[i][j] * pivval - aic * A[c][j], prev)
                assert rem == 0
                A[i][j] = q
            A[i][c] = 0
        prev = pivval
    return sign * A[m - 1][m - 1]


def unimodular_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Integer inverse of a square matrix with determinant +-1 (adjugate)."""
    n = len(rows)
    d = det_int(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a unit")
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            inv[j][i] = (-1) ** (i + j) * det_int(minor) * d
    return inv


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


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p, by elimination on Python ints.

    Each pivot row is stored normalized (leading entry 1) under its leading
    column, as its nonzero (column, entry) pairs; every input row is reduced
    in place against the pivots it meets and then either becomes a new pivot
    or vanishes.
    """
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        v = [x % p for x in row]
        for c, x in enumerate(v):
            if not x:
                continue
            prow = pivots.get(c)
            if prow is None:
                inv = pow(x, -1, p)
                pivots[c] = [(j, y * inv % p) for j, y in enumerate(v) if y]
                break
            for j, y in prow:  # clears v[c]; v is zero left of c already
                v[j] = (v[j] - x * y) % p
    return len(pivots)


# ---------------------------------------------------------------------------
# coefficient fields

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


class PrimeField:
    """Arithmetic in F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0


class RationalField:
    """Arithmetic in Q via Fraction, imported here since only Q needs it."""

    def __init__(self):
        from fractions import Fraction
        self.zero, self.one, self.from_int = Fraction(0), Fraction(1), Fraction

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def inv(self, a):
        return self.one / a

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


def prime_of_tag(coeff: str) -> int:
    """The prime p of a tag 'F<p>', refused unless p < PRIME_BOUND is prime."""
    try:
        p = int(coeff[1:])
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


def field_for_tag(coeff: str):
    """Map a coefficient tag ('Q', 'F2', 'F3', ...) to a field object."""
    if coeff == "Q":
        return RationalField()
    if coeff.startswith("F") and coeff[1:].isdecimal():
        return PrimeField(prime_of_tag(coeff))
    raise InputError(f"unknown coefficient tag {coeff!r}; use 'Q' or 'F<p>'")


# ---------------------------------------------------------------------------
# field linear algebra (dense rows, deterministic pivoting)


def rref(rows: list[list], ncols: int, field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Every pivot row
    is zero in the other pivot columns, so the result depends only on the
    row space, not on the order of the input rows.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    m = len(work)
    for c in range(ncols):
        piv = next((i for i in range(r, m) if not field.is_zero(work[i][c])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        prow = work[r] = [field.mul(inv, x) for x in work[r]]
        support = [j for j, x in enumerate(prow) if not field.is_zero(x)]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and not field.is_zero(f):
                for j in support:
                    row[j] = field.sub(row[j], field.mul(f, prow[j]))
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work[:r], pivots


def reduce_against(vec: list, rref_rows: list[list], pivots: list[int], field) -> list:
    """Normal form of vec modulo the row space given in RREF."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if not field.is_zero(c):
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


def kernel_basis(rows: list[list], ncols: int, field) -> list[list]:
    """Basis of the right kernel of the matrix, one vector per free column."""
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = field.neg(row[f])
        basis.append(v)
    return basis
