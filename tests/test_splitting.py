import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python, split_by_double_loop, two_part_vanishing_rule
from torictop import (
    EvenBettiData,
    InputError,
    eigen_scalar,
    h_vector_of,
    is_primitive_root,
    polygon_polytope,
    primitive_root,
    split,
    sphere_wedge_decomposition,
    vanishing_range_check,
)
from torictop.splitting import SPLIT_PRIME_BOUND, multiplicative_order, residue_class


def test_primitive_roots_pinned():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2


def test_rejects_two_and_composites():
    with pytest.raises(InputError, match="p=2"):
        primitive_root(2)
    for bad in (1, 9, 15):
        with pytest.raises(InputError):
            primitive_root(bad)


def test_eigen_scalar_pinned():
    assert eigen_scalar(3, 2, 1, 1) == 1  # (2 - 4) = -2 = 1 mod 3
    assert eigen_scalar(3, 2, 1, 2) == 0  # (4 - 4) = 0
    assert eigen_scalar(5, 2, 2, 2) == 1  # (4-2)(4-8)(4-16) = 96 = 1 mod 5


def test_eigen_scalar_range_checks():
    with pytest.raises(InputError):
        eigen_scalar(5, 2, 0, 1)
    with pytest.raises(InputError):
        eigen_scalar(5, 2, 5, 1)
    with pytest.raises(InputError):
        eigen_scalar(5, 2, 1, -1)
    with pytest.raises(InputError):
        eigen_scalar(5, 5, 1, 1)


def test_eigen_pattern_for_small_primes():
    for p in (3, 5, 7):
        u = primitive_root(p)
        for i in range(1, p):
            for k in range(41):
                vanishes = eigen_scalar(p, u, i, k) == 0
                assert vanishes == ((k - i) % (p - 1) != 0)


def test_eigen_pattern_independent_of_primitive_root():
    for p in (5, 7, 11):
        roots = [u for u in range(2, p) if is_primitive_root(u, p)]
        assert len(roots) >= 2
        for i in range(1, p):
            for k in range(20):
                patterns = {eigen_scalar(p, u, i, k) == 0 for u in roots}
                assert len(patterns) == 1


def test_order_and_root_tests_end_at_once_when_u_shares_a_factor_with_p():
    # no power of u is 1 mod p then, so a search for the order would not end
    for u, p in ((2, 4), (3, 9), (6, 9), (0, 7), (14, 7)):
        assert not is_primitive_root(u, p)
        with pytest.raises(InputError, match="coprime"):
            multiplicative_order(u, p)
    assert multiplicative_order(2, 9) == 6 and multiplicative_order(-1, 7) == 2
    # every residue mod 1 is 0, and there are none mod 0; a child process under a
    # timeout, so that a search for the order that never ends fails the test
    proc = run_python("""
from torictop.errors import InputError
from torictop.splitting import is_primitive_root, multiplicative_order
for u, p in ((1, 1), (0, 1), (1, 0), (2, 0), (0, 0)):
    for f in (multiplicative_order, is_primitive_root):
        try:
            f(u, p)
        except InputError as e:
            assert str(e) == f"the modulus p={p} must be at least 2", e
        else:
            raise AssertionError((f.__name__, u, p))
""")
    assert proc.returncode == 0, proc.stderr


def test_primitive_root_and_eigen_scalar_refuse_p_above_the_splitting_bound():
    # each loops over all p - 1 residues, so a large prime would not return;
    # in a child process under a timeout, so that such a loop fails the test
    proc = run_python("""
from torictop.errors import InputError
from torictop.splitting import eigen_scalar, primitive_root
for p in (1099511627791, 65537):
    for call in (lambda: primitive_root(p), lambda: eigen_scalar(p, 3, 1, 1)):
        try:
            call()
        except InputError as e:
            assert str(e).endswith(f"it would emit {p - 1} pieces"), e
        else:
            raise AssertionError(p)
u = primitive_root(65521)
assert (u, eigen_scalar(65521, u, 1, 1), eigen_scalar(65521, u, 1, 2)) == (17, 23125, 0)
""")
    assert proc.returncode == 0, proc.stderr


def test_order_and_root_tests_refuse_p_above_the_splitting_bound():
    # the order is found by walking up to p - 1 powers of u, so a large modulus
    # would not return; in a child under a timeout, so that such a walk fails
    proc = run_python("""
from torictop.errors import InputError
from torictop.splitting import SPLIT_PRIME_BOUND, is_primitive_root, multiplicative_order
for u, p in ((3, 2**31 - 1), (2, 65537), (2, SPLIT_PRIME_BOUND + 2)):
    for f in (multiplicative_order, is_primitive_root):
        try:
            f(u, p)
        except InputError as e:
            assert str(e).startswith(f"the modulus p={p} is above {SPLIT_PRIME_BOUND}"), e
        else:
            raise AssertionError((f.__name__, u, p))
assert is_primitive_root(17, 65521) and multiplicative_order(2, 9) == 6
""", timeout=5)
    assert proc.returncode == 0, proc.stderr


def test_splittings_refuse_p_above_the_bound():
    b = EvenBettiData(3, (1, 1, 1, 1))
    assert len(split(b, 65521)) == 65520  # the largest prime below the bound
    for p in (65537, 100003):
        assert p > SPLIT_PRIME_BOUND
        for f in (split, sphere_wedge_decomposition):
            with pytest.raises(InputError, match=f"it would emit {p - 1} pieces"):
                f(b, p)


def test_split_cp3_at_five():
    b = EvenBettiData(3, (1, 1, 1, 1))
    pieces = split(b, 5)
    assert [s.homology.as_dict() for s in pieces] == [
        {3: (1, ())},
        {5: (1, ())},
        {7: (1, ())},
        {},
    ]


def test_split_cp5_at_three():
    b = EvenBettiData(5, (1,) * 6)
    pieces = split(b, 3)
    assert pieces[0].homology.degrees() == (3, 7, 11)
    assert pieces[1].homology.degrees() == (5, 9)


def test_split_point_is_trivial():
    b = EvenBettiData(4, (1, 0, 0, 0, 0))
    assert all(s.homology.is_trivial() for s in split(b, 7))


def test_split_completeness():
    b = EvenBettiData(4, (1, 3, 5, 3, 1))
    for p in (3, 5, 7):
        pieces = split(b, p)
        for k in range(1, 5):
            total = sum(s.homology.rank(2 * k + 1) for s in pieces)
            assert total == b.b[k]


def test_split_validates_override_root():
    b = EvenBettiData(2, (1, 1, 1))
    with pytest.raises(InputError):
        split(b, 5, u=4)  # 4 has order 2 mod 5
    assert split(b, 5, u=3) == split(b, 5)  # any primitive root, same output


def test_sphere_wedge_for_polygons():
    for k in range(4, 9):
        b = EvenBettiData.from_h_vector(h_vector_of(polygon_polytope(k)))
        pieces = sphere_wedge_decomposition(b, 5)
        assert pieces[0].sphere_wedge == ((3, k - 2),)
        assert pieces[1].sphere_wedge == ((5, 1),)
        assert pieces[2].sphere_wedge == ()
        assert pieces[3].sphere_wedge == ()


def test_sphere_wedge_simplex3():
    b = EvenBettiData(3, (1, 1, 1, 1))
    pieces = sphere_wedge_decomposition(b, 5)
    assert [s.sphere_wedge for s in pieces] == [((3, 1),), ((5, 1),), ((7, 1),), ()]


def test_sphere_wedge_refuses_small_primes():
    with pytest.raises(InputError, match="p >"):
        sphere_wedge_decomposition(EvenBettiData(3, (1, 1, 1, 1)), 3)


def test_rigidity_output_is_function_of_betti_data():
    b1 = EvenBettiData(2, (1, 2, 1))
    b2 = EvenBettiData(2, (1, 2, 1))
    assert sphere_wedge_decomposition(b1, 5) == sphere_wedge_decomposition(b2, 5)


def test_vanishing_range_pinned():
    assert vanishing_range_check([4], 5, 3)  # nothing above the sphere
    assert vanishing_range_check([8], 5, 7)  # j=4 < 2+7-1
    assert not vanishing_range_check([20], 5, 3)  # j=10 >= 4
    # boundary case: degree 2(l+p-1) is exactly the first even torsion line
    assert not vanishing_range_check([6], 3, 3)
    assert vanishing_range_check([], 3, 3)


def test_vanishing_range_covers_odd_degrees():
    # S^3 at p = 3: the first 3-torsion line is degree 6, so 7 is outside the
    # range although it is odd; the even-only check passed it
    assert vanishing_range_check([7], 3, 3) is False
    assert vanishing_range_check([5], 3, 3) is True


PRIMES = (3, 5, 7, 11, 13, 31)
RULE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@RULE_SETTINGS
@given(st.integers(0, 12), st.sampled_from(PRIMES[:3]), st.lists(st.integers(-8, 3), max_size=6))
def test_vanishing_range_matches_the_two_part_rule(ell, p, offsets):
    # degrees around the line 2(l+p-1), on both sides of the sphere dimension
    target, line = 2 * ell + 1, 2 * (ell + p - 1)
    degrees = [max(0, line + t) for t in offsets]
    assert vanishing_range_check(degrees, target, p) == two_part_vanishing_rule(degrees, target, p)


@RULE_SETTINGS
@given(st.lists(st.integers(0, 5), min_size=1, max_size=14), st.sampled_from(PRIMES))
def test_split_matches_the_double_loop(betti, p):
    b = EvenBettiData(len(betti) - 1, tuple(betti))
    pieces = split(b, p)
    assert [(s.i, s.homology) for s in pieces] == split_by_double_loop(b, p)
    assert all(s.sphere_wedge is None for s in pieces)
    if p > b.n_top:
        wedge = sphere_wedge_decomposition(b, p)
        assert [(s.i, s.homology) for s in wedge] == split_by_double_loop(b, p)


@RULE_SETTINGS
@given(st.integers(0, 10**6), st.sampled_from(PRIMES))
def test_residue_class_is_the_piece_congruent_to_k(k, p):
    assert [i for i in range(1, p) if (k - i) % (p - 1) == 0] == [residue_class(k, p)]


def test_vanishing_range_rejects_even_target():
    with pytest.raises(InputError):
        vanishing_range_check([4], 4, 3)


def test_betti_data_validation():
    with pytest.raises(InputError):
        EvenBettiData(2, (1, -1, 1))
    with pytest.raises(InputError):
        EvenBettiData(2, (1, 1))
