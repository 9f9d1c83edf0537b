import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PrimeField, RationalField, kernel_basis, reduce_against, rref
from torictop.linalg import det_int, echelon, kernel_vectors, normal_form, rank_int

FIELDS = (2, 3, 5, 7, 0)  # the p of echelon; 0 is Q


def random_matrix(rng, rows, cols):
    return [[rng.choice((0, 0, 1, 2, -1)) for _ in range(cols)] for _ in range(rows)]


def dot(row, v, p):
    total = sum(a * b for a, b in zip(row, v))
    return total % p if p else total


def test_echelon_rows_are_normalised_and_independent_of_row_order():
    rng = random.Random(3)
    for p in (2, 3, 0):
        for _ in range(50):
            rows = random_matrix(rng, 4, 6)
            pivots = echelon(rows, p)
            for c, prow in pivots.items():
                assert prow[0] == (c, 1)  # entry 1 at the pivot, nothing left of it
                assert all(j > c and y for j, y in prow[1:])
            shuffled = rows[::-1]
            assert sorted(echelon(shuffled, p)) == sorted(pivots)
            # normal forms are fully reduced and do not depend on the row order
            for vec in random_matrix(rng, 3, 6):
                red = normal_form(vec, pivots, p)
                assert all(red[c] == 0 for c in pivots)
                assert normal_form(vec, echelon(shuffled, p), p) == red


def test_kernel_vectors_lie_in_the_kernel():
    # an echelon row with an entry in a later pivot column
    assert kernel_vectors(echelon([[1, 1, 0], [0, 1, 1]], 2), 3, 2) == [[1, 1, 1]]
    rng = random.Random(4)
    for p in (2, 5, 0):
        for _ in range(50):
            rows = random_matrix(rng, 3, 5)
            pivots = echelon(rows, p)
            kernel = kernel_vectors(pivots, 5, p)
            assert len(kernel) == 5 - len(pivots)
            for v in kernel:
                assert all(dot(row, v, p) == 0 for row in rows)


@st.composite
def matrices(draw):
    """Small integer matrices, with no rows, zero rows, zero columns and
    duplicate rows among them."""
    ncols = draw(st.integers(0, 7))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[c] = 0
    vec = draw(row)
    return ncols, rows, vec


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices(), st.sampled_from(FIELDS))
def test_eliminator_matches_the_dense_oracle(mat, p):
    ncols, rows, vec = mat
    field = PrimeField(p) if p else RationalField()
    dense = [[field.from_int(x) for x in r] for r in rows]
    red, want = rref(dense, ncols, field)
    pivots = echelon(rows, p)
    assert sorted(pivots) == want
    want_nf = reduce_against([field.from_int(x) for x in vec], red, want, field)
    assert normal_form(vec, pivots, p) == want_nf
    assert kernel_vectors(pivots, ncols, p) == kernel_basis(dense, ncols, field)
    if not p:
        assert rank_int(rows) == len(pivots)


def bareiss_cases(rng):
    """Empty, zero, square, singular and non-square integer matrices."""
    cases = [[], [[]], [[], []], [[0]], [[5]], [[0, 0], [0, 0]], [[0, 1], [1, 0]],
             [[2, 3], [4, 6]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 2], [0, 3], [1, 1]]]
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            n = m
        cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        # a product through k < min(m, n) dimensions is singular, or rank deficient
        k = rng.randint(0, min(m, n) - 1)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        cases.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k
                      else [0] * n for row in left])
    return cases


def test_rank_and_determinant_match_sympy():
    from sympy import Matrix

    squares = 0
    for rows in bareiss_cases(random.Random(31)):
        m, n = len(rows), len(rows[0]) if rows else 0
        want = Matrix(m, n, [x for r in rows for x in r])
        assert rank_int(rows) == want.rank(), rows
        if m == n:
            assert det_int(rows) == want.det(), rows
            squares += 1
        else:
            with pytest.raises(ValueError):
                det_int(rows)
    assert squares > 200  # square and singular matrices were really drawn
