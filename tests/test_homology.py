import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIELD_TAGS,
    all_boundary_columns,
    all_columns_chain_homology,
    all_columns_reduced_homology,
    brute_reduced_betti,
    column_first_smith_normal_form,
    dense_boundary_matrices,
    dense_chain_homology,
    dense_reduced_homology,
    dict_direct_sum,
    echelon_chain_homology,
    echelon_reduced_homology,
    f2_rank,
    fraction_rank,
    mod_p_rank,
    prime_power_merge_torsion,
    random_complex_faces,
    reference_smith_normal_form,
    run_python,
    stacked_sphere_facets,
    stellar_sphere,
)
from torictop import (
    GradedHomology,
    InputError,
    IntegerMatrix,
    chain_homology,
    full_subcomplex,
    join,
    polygon_boundary,
    reduced_homology,
    simplex_boundary,
    smith_normal_form,
    validate_complex,
)
from torictop import cli, fixtures, linalg
from torictop.complexes import _vertices_of
from torictop.homology import boundary_columns, homology, merge_torsion

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
    r = smith_normal_form(IntegerMatrix.from_rows([[0, 0]] * 3))
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
    point = [IntegerMatrix.from_rows([[]])]
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
    # each column of d_{k+1} is sent to zero by d_k, column by column, which
    # clearing needs; and the columns are those of the dense oracle
    maps, dims = all_boundary_columns(K)
    assert [len(cols) for cols in maps] == dims[1:]
    for cols, n in zip(maps, dims):
        assert all(0 <= i < n and x in (1, -1) for col in cols for i, x in col.items()), K
    for a, b in zip(maps, maps[1:]):
        for col in b:
            image = {}
            for i, x in col.items():
                for r, y in a[i].items():
                    image[r] = image.get(r, 0) + x * y
            assert not any(image.values()), K
    mats, _ = dense_boundary_matrices(K)
    assert [[{i: row[j] for i, row in enumerate(A.entries) if row[j]} for j in range(A.cols)]
            for A in mats] == maps, K
    for k, cols in enumerate(maps):  # a cleared face's column is left out, and only it
        cleared = set(range(0, len(cols), 2))
        assert boundary_columns(K, k, cleared) == cols[1::2], K


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
        # the homology-level identity above reads the Smith form twice; xor-ed bit rows do not
        assert {d: r for d, (r, _) in h2.as_dict().items()} == brute_reduced_betti(
            K.maximal_faces, f2_rank)


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


# orders up to 10^4: 7-smooth ones, which share primes, among all others, with 0 and +-1
SMOOTH_ORDERS = tuple(sorted(
    d for d in (2**a * 3**b * 5**c * 7**e for a in range(14) for b in range(9) for c in range(6)
                for e in range(5)) if d <= 10**4))
small_orders = st.one_of(st.sampled_from(SMOOTH_ORDERS), st.sampled_from((0, 1, -1)),
                         st.integers(-10**4, 10**4))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(small_orders, min_size=1, max_size=12), st.data())
def test_merge_torsion_matches_the_prime_power_regrouping(parts, data):
    parts = parts + data.draw(st.lists(st.sampled_from(parts), max_size=6))  # duplicates
    parts = data.draw(st.permutations(parts))
    assert merge_torsion(parts) == prime_power_merge_torsion(parts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(small_orders, st.integers(1, 40)), min_size=1, max_size=5), st.data())
def test_merge_torsion_of_repeated_orders_matches_the_prime_power_regrouping(runs, data):
    # runs of equal orders, the case merge_torsion groups
    parts = data.draw(st.permutations([d for d, n in runs for _ in range(n)]))
    assert merge_torsion(parts) == prime_power_merge_torsion(parts)


def test_merge_torsion_of_repeated_orders_matches_sympy():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(25)
    for _ in range(40):
        orders = rng.sample((2, 3, 4, 5, 6, 8, 9, 12, 18, 30), rng.randint(1, 4))
        parts = [d for d in orders for _ in range(rng.randint(1, 5))]
        rng.shuffle(parts)
        diag = [[d if i == j else 0 for j in range(len(parts))] for i, d in enumerate(parts)]
        want = tuple(abs(int(d)) for d in sympy_snf(Matrix(diag), domain=ZZ).diagonal() if abs(d) > 1)
        assert merge_torsion(parts) == want, parts


def test_merge_torsion_of_thousands_of_copies_takes_linear_time():
    # 5 000 copies of Z/2 once took 0.68 s, as every pair of orders was
    # tested; in a child under a timeout, checked against the oracle here
    cases = ([2] * 5000, [2] * 2500 + [4] * 2500, [2] * 2500 + [3] * 2500,
             [6] * 2000 + [4] * 2000 + [9] * 1000 + [10] * 100)
    proc = run_python(f"""
import time
from torictop.homology import merge_torsion
t = time.perf_counter()
got = [merge_torsion(parts) for parts in {cases!r}]
assert time.perf_counter() - t < 0.5, time.perf_counter() - t
print(got)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[prime_power_merge_torsion(parts) for parts in cases]}\n"


def test_merge_torsion_matches_sympy_on_orders_above_two_to_the_sixty():
    # in a child under a timeout, since trial division of such orders would not end
    proc = run_python("""
import math, random
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from torictop.homology import IntegerMatrix, merge_torsion, smith_normal_form
huge = (2**61 - 1, 2**61, 3**40, (2**61 - 1) ** 2, 2**89 - 1, (2**61 - 1) * (2**89 - 1))
rng = random.Random(61)
for _ in range(60):
    parts = [rng.choice(huge) * rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(rng.randint(1, 5))]
    diag = [[d if i == j else 0 for j in range(len(parts))] for i, d in enumerate(parts)]
    want = tuple(abs(int(d)) for d in sympy_snf(Matrix(diag), domain=ZZ).diagonal() if abs(d) > 1)
    assert merge_torsion(parts) == want, parts
    assert smith_normal_form(IntegerMatrix.from_rows(diag)).torsion == want, parts
    assert math.prod(want) == math.prod(parts)
""", timeout=60)
    assert proc.returncode == 0, proc.stderr


# (degree, rank, cyclic orders): repeated degrees, zero ranks, and orders that share primes
graded_terms = st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 3),
                                  st.lists(st.integers(1, 36), max_size=4)), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_terms, st.data())
def test_direct_sum_matches_the_dict_accumulation(terms, data):
    want = dict_direct_sum("Z", terms)
    assert GradedHomology.direct_sum("Z", terms) == want
    assert GradedHomology.direct_sum("Z", data.draw(st.permutations(terms))) == want
    # a degree's invariant factors are those of the diagonal matrix of its orders
    for deg, (_, tors) in want.groups:
        orders = [d for t in terms if t[0] == deg for d in t[2]]
        diag = [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
        assert tors == reference_smith_normal_form(IntegerMatrix.from_rows(diag)).torsion


def test_graded_homology_serialization_round_trip():
    h = GradedHomology.from_dict("Z", {3: (2, ()), 6: (0, (2, 4))})
    obj = h.to_json_obj()
    assert obj == [
        {"degree": 3, "rank": 2, "torsion": []},
        {"degree": 6, "rank": 0, "torsion": [2, 4]},
    ]


def test_snf_matches_sympy_and_gives_the_rank():
    # over Z the homology takes ranks and torsion from the SNF alone, so check
    # its invariant factors against sympy and its rank against rank_int
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


SNF_ENTRIES = (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 10, -10, 12, -12, 30, -30)


def assert_snf_matches_the_oracles(A, with_sympy=True):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ours = smith_normal_form(A).diagonal
    assert ours == reference_smith_normal_form(A).diagonal, A
    assert ours == column_first_smith_normal_form(A).diagonal, A
    if with_sympy:
        diag = sympy_snf(Matrix(A.entries), domain=ZZ).diagonal() if A.rows and A.cols else ()
        assert ours == tuple(abs(int(d)) for d in diag if d), A


@st.composite
def snf_matrices(draw):
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    huge = st.integers(10**20 - 9, 10**20 + 9).flatmap(lambda x: st.sampled_from((x, -x)))

    def entry():  # about one entry in twenty near +-10^20
        x = draw(st.sampled_from(SNF_ENTRIES + (None,)))
        return draw(huge) if x is None else x

    return IntegerMatrix.from_rows([[entry() for _ in range(n)] for _ in range(m)], n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(snf_matrices())
def test_snf_matches_the_previous_snf_and_sympy(A):
    assert_snf_matches_the_oracles(A)


@st.composite
def matrices_with_zero_lines(draw):
    """Up to 8 x 8, entries up to 10^6 in absolute value, about half of them
    zero, with drawn rows and columns set to zero."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(-10**6, 10**6))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, 7), max_size=3)):
        if i < m:
            rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, 7), max_size=3)):
        if j < n:
            for row in rows:
                row[j] = 0
    return IntegerMatrix.from_rows(rows, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices_with_zero_lines())
def test_snf_matches_sympy_on_entries_up_to_a_million(A):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    diag = sympy_snf(Matrix(A.entries), domain=ZZ).diagonal() if A.rows and A.cols else ()
    assert smith_normal_form(A).diagonal == tuple(abs(int(d)) for d in diag if d), A


def fixture_and_golden_complexes():
    from test_golden import COMPLEXES, INPUTS

    out = [fixtures.load_polytope(name).complex for name in fixtures.names()]
    for name in COMPLEXES:
        obj = json.loads(INPUTS[name])
        out.append(validate_complex(obj["facets"], obj["m"]))
    return out


def test_snf_matches_the_previous_snf_and_sympy_on_every_full_subcomplex():
    # the previous SNF on every boundary map, sympy on every distinct one
    distinct = {}
    for K in fixture_and_golden_complexes():
        for mask in range(1, 1 << K.m):
            for A in dense_boundary_matrices(full_subcomplex(K, _vertices_of(mask)))[0]:
                if A.entries in distinct:
                    assert_snf_matches_the_oracles(A, with_sympy=False)
                else:
                    distinct[A.entries] = A
                    assert_snf_matches_the_oracles(A)
    assert len(distinct) > 1000


def test_snf_with_huge_diagonal_entries_factors_nothing():
    # trial division of the second entry, or of the prime 2^61 - 1 in a
    # direct sum, would not end; in a child process under a timeout, so that
    # it fails the test instead of hanging it
    proc = run_python("""
import time
from torictop.homology import IntegerMatrix, merge_torsion, smith_normal_form
a = 10**30 + 57
t = time.perf_counter()
d = smith_normal_form(IntegerMatrix.from_rows([[a, 0], [0, a * (2**61 - 1)]])).diagonal
assert time.perf_counter() - t < 1
assert d == (a, a * (2**61 - 1)), d
t = time.perf_counter()
d = merge_torsion([2**61 - 1, 2, 4])
assert time.perf_counter() - t < 1
assert d == (2, 4 * (2**61 - 1)), d
""")
    assert proc.returncode == 0, proc.stderr


def test_field_homology_never_runs_echelon(monkeypatch, capsys):
    # every coefficient reads the Smith form, so with echelon refused Q and
    # F_p homology still run, and agree with the echelon path run beforehand
    want = [(K, coeff, echelon_reduced_homology(K, coeff))
            for K in fixture_and_golden_complexes() for coeff, _ in FIELD_TAGS]
    assert cli.main(["zk", "--fixture", "polygon6", "--coeff", "Z"]) == 0
    totals = {"Z": json.loads(capsys.readouterr().out)["results"]["total"]}

    def refuse(rows, p):
        raise AssertionError("field homology ran echelon")

    monkeypatch.setattr(linalg, "echelon", refuse)
    for K, coeff, h in want:
        assert reduced_homology(K, coeff) == h, (K.maximal_faces, coeff)
    assert cli.main(["zk", "--fixture", "polygon6", "--coeff", "Q"]) == 0
    totals["Q"] = json.loads(capsys.readouterr().out)["results"]["total"]
    assert [[(g["degree"], g["rank"]) for g in totals[c]] for c in ("Z", "Q")] == [
        [(3, 9), (4, 16), (5, 9), (8, 1)]] * 2
    # Z/2 in degree 0 over Z, nothing over Q, and F2 in degrees 0 and 1 over F2
    assert chain_homology([IntegerMatrix.from_rows([[2]])], "Q").is_trivial()
    assert chain_homology([IntegerMatrix.from_rows([[2]])], "F2").as_dict() == {
        0: (1, ()), 1: (1, ())}
    d1 = IntegerMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    assert chain_homology([d1], "Q").as_dict() == {0: (1, ()), 1: (1, ())}


def test_dense_chain_homology_over_a_field_takes_its_rank_from_the_smith_form():
    # the Smith form of this 50 x 50 matrix once ran for more than a minute;
    # each field's rank is the count of its invariant factors the prime does
    # not divide
    proc = run_python("""
import random
from torictop import linalg
from torictop.homology import IntegerMatrix, chain_homology
rng = random.Random(5)
M = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for n in (40, 40, 50)][2]
assert chain_homology([IntegerMatrix.from_rows(M)], "Q").as_dict() == {}
assert linalg.rank_mod_p(M, 0) == linalg.rank_int(M) == 50
for p in (2, 3):
    h = chain_homology([IntegerMatrix.from_rows(M)], f"F{p}")
    assert h.rank(0) == h.rank(1) == 50 - linalg.rank_mod_p(M, p), (p, h)
""", timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_dense_smith_form_keeps_its_entries_small():
    # clearing the pivot column first spread multiples of the pivot row over
    # the matrix, and the 50 x 50 matrix took about three minutes; in a child
    # under a timeout, so that such growth fails the test instead of hanging it
    proc = run_python("""
import math, random, time
from torictop import linalg
from torictop.homology import IntegerMatrix, chain_homology, smith_normal_form
rng = random.Random(5)
Ms = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for n in (40, 40, 50, 80)]
t = time.perf_counter()
snfs = [smith_normal_form(IntegerMatrix.from_rows(M)) for M in Ms[:3]]
assert time.perf_counter() - t < 2
t = time.perf_counter()
snfs.append(smith_normal_form(IntegerMatrix.from_rows(Ms[3])))
assert time.perf_counter() - t < 10
for M, snf in zip(Ms, snfs):
    det = linalg.det_int(M)
    assert det and snf.rank == len(M)
    assert math.prod(snf.diagonal) == abs(det)
h0 = chain_homology([IntegerMatrix.from_rows(Ms[2])], "Z").as_dict()[0]
assert h0[0] == 0 and math.prod(h0[1]) == abs(linalg.det_int(Ms[2])), h0
""", timeout=60)
    assert proc.returncode == 0, proc.stderr


@st.composite
def stellar_spheres(draw):
    """(L, K): a complex L on k <= 6 vertices, every vertex used and 1..k not
    a face, and the polytopal sphere K whose full subcomplex on 1..k is L
    (``conftest.stellar_sphere``).  L is random, or RP^2 for its 2-torsion."""
    k = draw(st.integers(3, 6))
    faces = draw(st.lists(st.sets(st.integers(1, k), min_size=2, max_size=k - 1), max_size=10))
    l_facets = [sorted(f) for f in faces] + [[v] for v in range(1, k + 1)]
    l_facets, k = draw(st.sampled_from([(l_facets, k), (RP2_FACES, 6)]))
    m, facets = stellar_sphere(l_facets, k)
    return validate_complex(l_facets, k), validate_complex(facets, m)


# Field homology against the echelon path it replaced
# (``conftest.echelon_reduced_homology``): each rank over F_p is the count of
# the invariant factors p does not divide, over Q the count of all of them.
# The draws cover RP^2 (Z/2), and chain maps U D V carrying Z/3 and Z/9,
# which no complex on few vertices has.


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """An n x n integer matrix of determinant +-1: row operations on the identity."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2, -2))
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


@st.composite
def torsion_maps(draw):
    """U D V, with U and V unimodular and D diagonal with entries among 0, 1,
    2, 3, 6 and 9, so that its cokernel carries Z/2, Z/3, Z/6 and Z/9."""
    orders = draw(st.lists(st.sampled_from((0, 1, 2, 3, 6, 9)), min_size=1, max_size=5))
    rows, cols = (len(orders) + draw(st.integers(0, 2)) for _ in range(2))
    D = [[orders[i] if i == j and i < len(orders) else 0 for j in range(cols)] for i in range(rows)]
    rng = draw(st.randoms(use_true_random=False))
    U, V = unimodular(rng, rows), unimodular(rng, cols)
    return IntegerMatrix.from_rows(linalg.matmul_int(linalg.matmul_int(U, D, rows), V, cols))


@st.composite
def homology_cases(draw, chain_complexes):
    """A few chain complexes drawn from ``chain_complexes``, or a complex K
    and a few of its full subcomplexes, with K a stacked sphere, a stellar
    sphere around a random complex or RP^2 (with that complex and its
    complement), a random complex with ghost vertices and facets of mixed
    sizes, or a join."""
    source = draw(st.sampled_from(("stacked", "stellar", "random", "join", "maps")))
    if source == "maps":
        return draw(st.lists(chain_complexes, min_size=1, max_size=3))
    subsets = []
    if source == "stacked":
        n = draw(st.integers(2, 4))
        m = n + 1 + draw(st.integers(0, 5))
        K = validate_complex(stacked_sphere_facets(n, m, draw(st.randoms(use_true_random=False))), m)
    elif source == "stellar":
        L, K = draw(stellar_spheres())
        subsets = [set(range(1, L.m + 1)), set(range(L.m + 1, K.m + 1))]
    elif source == "random":
        K = draw(complexes())
    else:
        pieces = st.one_of(st.just(validate_complex(RP2_FACES, 6)), complexes())
        K = join(draw(pieces), draw(pieces))
    subsets += draw(st.lists(st.sets(st.integers(1, K.m), min_size=1), max_size=2))
    return [K] + [full_subcomplex(K, sorted(I)) for I in subsets if I]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(homology_cases(torsion_maps()), st.sampled_from(("F2", "F3", "F5", "Q")))
@example([validate_complex(RP2_FACES, 6)], "F2")
@example([IntegerMatrix.from_rows([[3, 0], [0, 9]])], "F3")
def test_field_homology_matches_the_echelon_oracle(cases, coeff):
    for case in cases:
        if isinstance(case, IntegerMatrix):
            want = echelon_chain_homology([list(map(list, case.entries))], [case.rows, case.cols],
                                          0, coeff)
            assert chain_homology([case], coeff) == want, case.entries
        else:
            assert reduced_homology(case, coeff) == echelon_reduced_homology(case, coeff), (
                case.maximal_faces)


# The unit-pivot phase of the Smith form against the dense Z path it
# replaced (``conftest.dense_reduced_homology``): free ranks and torsion of
# every degree, on spheres whose boundaries meet only unit pivots, on the
# RP^2 summands whose leftover block carries the torsion, and on complexes
# and chain complexes where pivots and leftover columns interleave.


def assert_z_homology_matches_the_dense_oracle(K):
    assert reduced_homology(K, "Z") == dense_reduced_homology(K), K.maximal_faces


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 4), extra=st.integers(0, 5),
       data=st.data())
def test_z_homology_matches_the_dense_oracle_on_stacked_spheres(rng, n, extra, data):
    m = n + 1 + extra
    K = validate_complex(stacked_sphere_facets(n, m, rng), m)
    assert reduced_homology(K, "Z").as_dict() == {n - 1: (1, ())}
    assert_z_homology_matches_the_dense_oracle(K)
    for I in data.draw(st.lists(st.sets(st.integers(1, m), min_size=1), max_size=4)):
        assert_z_homology_matches_the_dense_oracle(full_subcomplex(K, sorted(I)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stellar_spheres(), st.data())
def test_z_homology_matches_the_dense_oracle_on_stellar_spheres(spheres, data):
    L, K = spheres
    assert full_subcomplex(K, range(1, L.m + 1)) == L
    drawn = data.draw(st.lists(st.sets(st.integers(1, K.m), min_size=1), max_size=3))
    for I in [set(range(1, L.m + 1)), set(range(L.m + 1, K.m + 1)), *drawn]:
        if I:
            assert_z_homology_matches_the_dense_oracle(full_subcomplex(K, sorted(I)))


def test_z_homology_of_the_rp2_summand_needs_its_leftover_block():
    # the one torsion the ladders meet: RP^2 inside the torsion sphere
    L = validate_complex(RP2_FACES, 6)
    m, facets = stellar_sphere(RP2_FACES, 6)
    K = validate_complex(facets, m)
    for I in (range(1, 7), range(7, m + 1)):
        assert reduced_homology(full_subcomplex(K, I), "Z").as_dict() == {1: (0, (2,))}
    assert reduced_homology(L, "Z") == dense_reduced_homology(L)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False), m=st.integers(1, 8))
def test_z_homology_matches_the_dense_oracle_on_random_complexes(rng, m):
    # faces of 1 to 5 vertices, so the maps mix columns of every length
    assert_z_homology_matches_the_dense_oracle(
        validate_complex(random_complex_faces(rng, m, rng.randint(1, 8), 5), m))


def scrambled_chain_complex(rng: random.Random, rows: int, a: int, b: int, cols: int):
    """Dense maps d1: C_1 -> C_0 and d2: C_2 -> C_1 with d1 d2 = 0: d1 = [X | 0]
    and d2 = [0 ; Y] on C_1 = Z^a + Z^b, then changed by random elementary
    operations on C_0, C_1 (on d2's rows, inversely on d1's columns) and C_2."""
    entry = (0, 0, 1, -1, 2, -2, 3, -3, 4, 6)
    d1 = [[rng.choice(entry) if j < a else 0 for j in range(a + b)] for _ in range(rows)]
    d2 = [[rng.choice(entry) if i >= a else 0 for _ in range(cols)] for i in range(a + b)]
    for _ in range(3 * (rows + a + b + cols)):
        c = rng.choice((1, -1, 2, -3))
        where = rng.randrange(3)
        if where == 0 and rows > 1:  # C_0: row i of d1 += c row j
            i, j = rng.sample(range(rows), 2)
            d1[i] = [x + c * y for x, y in zip(d1[i], d1[j])]
        elif where == 1 and a + b > 1:  # C_1: P = I + c e_ij; d2 <- P d2, d1 <- d1 P^-1
            i, j = rng.sample(range(a + b), 2)
            d2[i] = [x + c * y for x, y in zip(d2[i], d2[j])]
            for row in d1:
                row[j] -= c * row[i]
        elif where == 2 and cols > 1:  # C_2: column i of d2 += c column j
            i, j = rng.sample(range(cols), 2)
            for row in d2:
                row[i] += c * row[j]
    return d1, d2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False), rows=st.integers(1, 7), a=st.integers(0, 5),
       b=st.integers(0, 5), cols=st.integers(1, 7))
def test_chain_homology_over_z_matches_the_dense_oracle(rng, rows, a, b, cols):
    if a + b == 0:
        a = 1
    d1, d2 = scrambled_chain_complex(rng, rows, a, b, cols)
    mats = [IntegerMatrix.from_rows(d1, a + b), IntegerMatrix.from_rows(d2, cols)]
    want = dense_chain_homology(mats, [rows, a + b, cols])
    assert chain_homology(mats, "Z") == want, (d1, d2)
    assert chain_homology(mats[:1], "Z") == dense_chain_homology(mats[:1], [rows, a + b]), d1


# Clearing against the all-columns path it replaced
# (``conftest.all_columns_reduced_homology`` and ``all_columns_chain_homology``):
# the maps are reduced from the top down and d_k is built without its columns
# on d_{k+1}'s unit pivot rows, which must leave every invariant factor as it
# was.  A one-map complex has nothing to clear, so the chain complexes drawn
# here have two to four maps, with torsion in several degrees.


@st.composite
def scrambled_chain_maps(draw):
    """Maps d_1, ..., d_N (N = 2..4, d_k: C_k -> C_{k-1}) that compose to
    zero, and the homology over Z, F2, F3 and Q that they must have: a sum of
    one free Z in each degree and pieces Z -n-> Z (n among 0, 1, 2, 3, 6, 9),
    changed by random elementary operations on every C_k, on the rows of
    d_{k+1} and, inversely, on the columns of d_k."""
    rng = draw(st.randoms(use_true_random=False))
    top = draw(st.integers(2, 4))
    dims, pieces = [1] * (top + 1), []
    for _ in range(rng.randint(1, 4 * top + 2)):
        k, n = rng.randint(1, top), rng.choice((0, 1, 1, 2, 3, 6, 9))
        pieces.append((k, dims[k - 1], dims[k], n))
        dims[k - 1] += 1
        dims[k] += 1
    d = [None] + [[[0] * dims[k] for _ in range(dims[k - 1])] for k in range(1, top + 1)]
    for k, i, j, n in pieces:
        d[k][i][j] = n
    for _ in range(sum(dims) // 2):  # more makes every column redundant, hiding a wrong clearing
        k, c = rng.randrange(top + 1), rng.choice((1, -1, 2, -3))
        if dims[k] > 1:
            i, j = rng.sample(range(dims[k]), 2)
            if k < top:  # P = I + c e_ij on C_k: d_{k+1} <- P d_{k+1}, d_k <- d_k P^-1
                d[k + 1][i] = [x + c * y for x, y in zip(d[k + 1][i], d[k + 1][j])]
            if k:
                for row in d[k]:
                    row[j] -= c * row[i]
    want = {}
    for coeff, p in (("Z", None), *FIELD_TAGS):
        terms = [(k, 1, ()) for k in range(top + 1)]
        for k, _, _, n in pieces:
            if n == 0 or n > 1 and p and n % p == 0:  # Z/n is free in two degrees over F_p
                terms += [(k, 1, ()), (k - 1, 1, ())]
            elif n > 1 and p is None:
                terms.append((k - 1, 0, (n,)))
        want[coeff] = GradedHomology.direct_sum(coeff, terms)
    return [IntegerMatrix.from_rows(d[k], dims[k]) for k in range(1, top + 1)], want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(homology_cases(scrambled_chain_maps()), st.sampled_from(("Z", "F2", "F3", "Q")))
@example([validate_complex(RP2_FACES, 6)], "Z")
def test_clearing_matches_the_all_columns_oracle(cases, coeff):
    for case in cases:
        if isinstance(case, tuple):
            mats, want = case
            assert chain_homology(mats, coeff) == all_columns_chain_homology(mats, coeff) == (
                want[coeff]), [A.entries for A in mats]
        else:
            assert reduced_homology(case, coeff) == all_columns_reduced_homology(case, coeff), (
                case.maximal_faces)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False), m=st.integers(1, 7))
def test_rational_ranks_are_the_integral_free_ranks(rng, m):
    K = validate_complex(random_complex_faces(rng, m, rng.randint(1, 6), 4), m)
    hq, hz = reduced_homology(K, "Q").as_dict(), reduced_homology(K, "Z").as_dict()
    assert all(not tors for _, tors in hq.values())
    ranks = {d: r for d, (r, _) in hq.items()}
    assert ranks == {d: r for d, (r, _) in hz.items() if r}
    assert ranks == brute_reduced_betti(K.maximal_faces)


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


def test_reduced_homology_tests_the_prime_of_a_tag_once(monkeypatch):
    linalg.coeff_prime.cache_clear()  # a tag read earlier in this process is remembered
    tested = []
    is_prime = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: tested.append(n) or is_prime(n))
    K = polygon_boundary(5)
    assert reduced_homology(K, "F1099511627791") == reduced_homology(K, "F1099511627791")
    assert tested == [1099511627791]


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
