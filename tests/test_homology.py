import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_reduced_betti, f2_rank, fraction_rank, mod_p_rank, random_complex_faces
from torictop import (
    GradedHomology,
    InputError,
    IntegerMatrix,
    chain_homology,
    full_subcomplex,
    polygon_boundary,
    reduced_homology,
    simplex_boundary,
    smith_normal_form,
    validate_complex,
)
from torictop import fixtures, linalg
from torictop.homology import boundary_matrices, homology, merge_torsion

RP2_FACES = [[1, 2, 3], [1, 3, 4], [1, 2, 6], [1, 4, 5], [1, 5, 6],
             [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]]


def cofactor_det(rows):
    # reference determinant, expansion along the first row
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            out += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return out


def test_snf_identity():
    assert smith_normal_form(IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).diagonal == (1, 1, 1)


def test_snf_zero():
    r = smith_normal_form(IntegerMatrix.zero(3, 2))
    assert r.diagonal == () and r.rank == 0


def test_snf_pinned():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]])).diagonal == (2, 4)


def test_snf_divisibility_and_minor_gcds():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(IntegerMatrix.from_rows(rows))
        d = snf.diagonal
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        assert all(x > 0 for x in d)
        # product of first k factors equals the gcd of all k x k minors
        import math

        for k in range(1, len(d) + 1):
            g = 0
            for ri in itertools.combinations(range(m), k):
                for ci in itertools.combinations(range(n), k):
                    sub = [[rows[i][j] for j in ci] for i in ri]
                    g = math.gcd(g, abs(cofactor_det(sub)))
            prod = 1
            for x in d[:k]:
                prod *= x
            assert prod == g


def test_chain_homology_point():
    point = [IntegerMatrix.zero(1, 0)]
    assert chain_homology(point).as_dict() == {0: (1, ())}


def test_chain_homology_triangle_boundary():
    # unreduced complex of the boundary of a triangle: 3 vertices, 3 edges
    d1 = IntegerMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    h = chain_homology([d1])
    assert h.as_dict() == {0: (1, ()), 1: (1, ())}


def test_chain_homology_rejects_non_complex():
    d1 = IntegerMatrix.from_rows([[1, 0], [0, 1]])
    d2 = IntegerMatrix.from_rows([[1], [0]])
    with pytest.raises(InputError, match="compose to zero"):
        chain_homology([d1, d2])
    # d1 has 2 columns, so C_1 has dimension 2, but d2 has 3 rows
    d2 = IntegerMatrix.from_rows([[0], [0], [0]])
    with pytest.raises(InputError, match="do not chain"):
        chain_homology([d1, d2])
    with pytest.raises(InputError, match="ragged"):
        chain_homology([IntegerMatrix.from_rows([[1, 0], [0]])])


@pytest.mark.parametrize("bad", [2.7, "3", True], ids=repr)
def test_from_rows_refuses_entries_that_are_not_ints(bad):
    # int() would truncate 2.7 to 2 and make up a Z/2 in chain_homology
    with pytest.raises(InputError, match=f"row 1, column 2 is {bad!r}, not an integer"):
        IntegerMatrix.from_rows([[1, 0, 0], [0, 1, bad]])
    with pytest.raises(InputError, match="row 0, column 0"):
        chain_homology([IntegerMatrix.from_rows([[bad]])])


def assert_boundaries_compose_to_zero(K):
    mats, dims = boundary_matrices(K)
    assert [(d.rows, d.cols) for d in mats] == list(zip(dims, dims[1:]))
    for a, b in zip(mats, mats[1:]):
        prod = linalg.matmul_int(a.entries, b.entries, a.cols)
        assert not any(any(row) for row in prod), K


def test_library_boundaries_compose_to_zero():
    # homology trusts the boundaries it builds itself; this is their check
    for name in fixtures.names():
        assert_boundaries_compose_to_zero(fixtures.load_polytope(name).complex)
    for name in ("polygon6", "cube3"):
        K = fixtures.load_polytope(name).complex
        for r in range(1, K.m + 1):
            for I in itertools.combinations(range(1, K.m + 1), r):
                assert_boundaries_compose_to_zero(full_subcomplex(K, I))


@st.composite
def complexes(draw):
    m = draw(st.integers(1, 7))
    faces = draw(st.lists(st.lists(st.integers(1, m), min_size=1, max_size=5), max_size=6))
    return validate_complex(faces, m)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(complexes())
def test_library_boundaries_compose_to_zero_on_random_complexes(K):
    assert_boundaries_compose_to_zero(K)


def test_projective_plane_homology():
    rp2 = validate_complex(RP2_FACES, 6)
    assert reduced_homology(rp2, "Z").as_dict() == {1: (0, (2,))}
    assert reduced_homology(rp2, "F2").as_dict() == {1: (1, ()), 2: (1, ())}
    assert reduced_homology(rp2, "Q").as_dict() == {}


def test_reduced_homology_examples():
    two_points = validate_complex([[1], [3]], 3)
    assert reduced_homology(two_points).as_dict() == {0: (1, ())}
    assert reduced_homology(polygon_boundary(4)).as_dict() == {1: (1, ())}
    for n in range(1, 5):
        assert reduced_homology(simplex_boundary(n)).as_dict() == {n - 1: (1, ())}


def test_reduced_homology_of_empty_complex():
    K = validate_complex([], 2)
    assert reduced_homology(K).as_dict() == {-1: (1, ())}


def test_unreduced_wrapper():
    two_points = validate_complex([[1], [2]], 2)
    assert homology(two_points).as_dict() == {0: (2, ())}
    assert homology(validate_complex([], 1)).as_dict() == {}
    rp2 = validate_complex(RP2_FACES, 6)
    assert homology(rp2, "Z").as_dict() == {0: (1, ()), 1: (0, (2,))}


def test_betti_against_fraction_oracle():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(3, 7)
        faces = random_complex_faces(rng, m, rng.randint(1, 6), 4)
        K = validate_complex(faces, m)
        mine = reduced_homology(K, "Q").as_dict()
        oracle = brute_reduced_betti(K.maximal_faces)
        assert {d: r for d, (r, _) in mine.items()} == oracle


def test_universal_coefficients_mod2():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(3, 7)
        faces = random_complex_faces(rng, m, rng.randint(1, 6), 4)
        K = validate_complex(faces, m)
        hz = reduced_homology(K, "Z")
        h2 = reduced_homology(K, "F2")
        degrees = set(hz.degrees()) | set(h2.degrees()) | {-1, 0, 1, 2, 3}
        for d in degrees:
            expect = (
                hz.rank(d)
                + sum(1 for t in hz.torsion(d) if t % 2 == 0)
                + sum(1 for t in hz.torsion(d - 1) if t % 2 == 0)
            )
            assert h2.rank(d) == expect, (K.maximal_faces, d)


def test_euler_characteristic_every_coefficient():
    rng = random.Random(31)
    for _ in range(15):
        m = rng.randint(3, 6)
        faces = random_complex_faces(rng, m, rng.randint(1, 5), 3)
        K = validate_complex(faces, m)
        chi = K.reduced_euler_characteristic()
        for coeff in ("Z", "Q", "F2", "F3"):
            h = reduced_homology(K, coeff)
            assert sum((-1) ** d * h.rank(d) for d in h.degrees()) == chi


def test_merge_torsion_regroups_into_divisibility_chain():
    assert merge_torsion([2, 3]) == (6,)
    assert merge_torsion([2, 2, 4]) == (2, 2, 4)
    assert merge_torsion([4, 6]) == (2, 12)
    assert merge_torsion([]) == ()


def test_graded_homology_serialization_round_trip():
    h = GradedHomology.from_dict("Z", {3: (2, ()), 6: (0, (2, 4))})
    obj = h.to_json_obj()
    assert obj == [
        {"degree": 3, "rank": 2, "torsion": []},
        {"degree": 6, "rank": 0, "torsion": [2, 4]},
    ]


def test_snf_matches_sympy_and_gives_the_rank():
    # over Z the homology takes ranks from the SNF alone, so check its
    # invariant factors against sympy and its rank against rank_int
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(29)
    cases = [[[0] * n for _ in range(m)] for m, n in ((1, 1), (2, 3), (4, 2))]
    for _ in range(150):
        m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
        # a product through k dimensions has rank at most k
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        cases.append(linalg.matmul_int(left, right, k) if k else [[0] * n for _ in range(m)])
    for rows in cases:
        ours = smith_normal_form(IntegerMatrix.from_rows(rows))
        diag = sympy_snf(Matrix(rows), domain=ZZ).diagonal()
        assert ours.diagonal == tuple(abs(int(d)) for d in diag if d), rows
        assert ours.rank == linalg.rank_int(rows)


def test_field_rank_paths_agree_with_oracles():
    rng = random.Random(13)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 5))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        from torictop.linalg import rank_int, rank_mod_p

        assert rank_int(rows) == fraction_rank(rows)
        assert rank_mod_p(rows, 2) == f2_rank(rows)
        for p in (3, 5, 1009):
            assert rank_mod_p(rows, p) == mod_p_rank(rows, p)


def test_large_primes_give_exact_ranks():
    from sympy import nextprime

    # rank_mod_p eliminates on Python ints, so primes far beyond the int64
    # range, up to the bound of the exact primality test, give exact ranks
    for p in (nextprime(2**40), 2**61 - 1, nextprime(10**24)):
        assert p < linalg.PRIME_BOUND
        assert linalg.coeff_prime(f"F{p}") == p
        rng = random.Random(2)
        for _ in range(100):
            # a sum of two outer products: rank 2 over Q and, generically, mod p
            u, v, x, y = ([rng.randint(-5000, 5000) for _ in range(4)] for _ in range(4))
            rows = [[u[i] * v[j] + x[i] * y[j] for j in range(4)] for i in range(4)]
            want = mod_p_rank(rows, p)
            assert want == 2
            assert linalg.rank_mod_p(rows, p) == want
        tag = f"F{p}"
        assert reduced_homology(polygon_boundary(7), tag) == GradedHomology.from_dict(tag, {1: (1, ())})
        rp2 = validate_complex(RP2_FACES, 6)
        assert reduced_homology(rp2, tag) == GradedHomology.from_dict(tag, {})


def test_is_prime_is_exact_below_its_bound():
    from sympy import isprime

    assert all(linalg.is_prime(n) == isprime(n) for n in range(-3, 5000))
    # strong pseudoprimes to ever longer prefixes of the bases, up to the
    # first twelve (2..37); the last one is why the test also uses 41
    pseudoprimes = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                    3474749660383, 341550071728321, 3825123056546413051,
                    318665857834031151167461)
    for n in pseudoprimes:
        assert not isprime(n) and not linalg.is_prime(n)
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(linalg.PRIME_BOUND)
        assert linalg.is_prime(n) == isprime(n)
    assert linalg.is_prime(linalg.PRIME_BOUND - 1) == isprime(linalg.PRIME_BOUND - 1)
    with pytest.raises(ValueError):
        linalg.is_prime(linalg.PRIME_BOUND)
    with pytest.raises(InputError, match=str(linalg.PRIME_BOUND)):
        linalg.coeff_prime(f"F{linalg.PRIME_BOUND}")
    with pytest.raises(InputError, match="does not name a prime"):
        linalg.coeff_prime("F318665857834031151167461")
