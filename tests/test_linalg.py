import random

from torictop.linalg import PrimeField, RationalField, kernel_basis, rref


def random_matrix(rng, rows, cols):
    return [[rng.choice((0, 0, 1, 2, -1)) for _ in range(cols)] for _ in range(rows)]


def test_rref_rows_are_fully_reduced_and_independent_of_row_order():
    rng = random.Random(3)
    for field in (PrimeField(2), PrimeField(3), RationalField()):
        for _ in range(50):
            rows = [[field.from_int(x) for x in r] for r in random_matrix(rng, 4, 6)]
            red, pivots = rref(rows, 6, field)
            for i, (row, p) in enumerate(zip(red, pivots)):
                assert row[p] == field.one
                assert all(field.is_zero(other[p]) for j, other in enumerate(red) if j != i)
            assert rref(rows[::-1], 6, field) == (red, pivots)


def test_kernel_basis_vectors_lie_in_the_kernel():
    f2 = PrimeField(2)
    # an echelon row with an entry in a later pivot column
    assert kernel_basis([[1, 1, 0], [0, 1, 1]], 3, f2) == [[1, 1, 1]]
    rng = random.Random(4)
    for field in (f2, PrimeField(5), RationalField()):
        for _ in range(50):
            rows = [[field.from_int(x) for x in r] for r in random_matrix(rng, 3, 5)]
            kernel = kernel_basis(rows, 5, field)
            _, pivots = rref(rows, 5, field)
            assert len(kernel) == 5 - len(pivots)
            for v in kernel:
                for row in rows:
                    total = field.zero
                    for a, b in zip(row, v):
                        total = field.add(total, field.mul(a, b))
                    assert field.is_zero(total)
