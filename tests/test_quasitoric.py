import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    PrimeField,
    RationalField,
    cube_determinant_f2,
    cube_parameters,
    cube_presentation,
    face_ring_cohomology,
    product_presentation,
    rref,
    unimodular_inverse,
)

from torictop import (
    CapExceededError,
    CharacteristicMatrix,
    InputError,
    PolytopeDual,
    cohomology_ring,
    generalized_bott,
    h_vector_of,
    join,
    polygon_polytope,
    power_map_scalars,
    simplex_boundary,
    simplex_polytope,
    validate_characteristic,
)
from torictop import fixtures, linalg
from torictop.quasitoric import linear_forms

FIELDS = ("Q", "F2", "F3", "F5")


def all_quasitoric_fixtures():
    return [fixtures.load_quasitoric(n) for n in fixtures.quasitoric_names()]


def test_validate_characteristic_pinned():
    assert validate_characteristic(
        simplex_polytope(1), CharacteristicMatrix.from_rows([[1, 1]])
    ).valid

    sq = polygon_polytope(4)
    ok = validate_characteristic(
        sq, CharacteristicMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])
    )
    assert ok.valid  # four 2x2 minors, all +-1

    bad = validate_characteristic(
        sq, CharacteristicMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 2]])
    )
    assert not bad.valid
    assert abs(bad.failing_det) == 2
    assert set(bad.failing_face) in ({1, 4}, {3, 4})  # both faces carry the bad minor


def test_validate_characteristic_dimension_mismatch():
    with pytest.raises(InputError):
        validate_characteristic(simplex_polytope(2), CharacteristicMatrix.from_rows([[1, 1]]))


def test_cp2_ring():
    P = simplex_polytope(2)
    lam = CharacteristicMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    for coeff in FIELDS:
        pres = cohomology_ring(P, lam, coeff)
        assert pres.dims_even() == (1, 1, 1)
        # one degree-2 generator whose square spans the top degree
        (row,) = pres.mult_h2[1]
        ((coefficient,),) = row
        assert coefficient != 0


def test_cp1xcp1_ring_and_squares():
    P = polygon_polytope(4)
    lam = CharacteristicMatrix.from_rows([[1, 0, -1, 0], [0, 1, 0, -1]])
    pres = cohomology_ring(P, lam, "F2")
    assert pres.dims_even() == (1, 2, 1)
    # both degree-2 generators square to zero mod 2
    assert pres.squaring_cols == ((0,), (0,))


def test_cube_tower_with_trivial_twists_has_zero_squares():
    P, lam = generalized_bott([1, 1, 1])
    pres = cohomology_ring(P, lam, "F2")
    assert pres.dims_even() == (1, 3, 3, 1)
    assert all(col == (0, 0, 0) for col in pres.squaring_cols)


def test_dims_match_h_vector_for_all_fixtures_and_fields():
    for P, lam in all_quasitoric_fixtures():
        h = h_vector_of(P).entries
        for coeff in FIELDS:
            pres = cohomology_ring(P, lam, coeff)
            assert pres.dims_even() == h
            assert pres.dim(3) == 0 and pres.dim(2 * P.n + 2) == 0


def test_degree_two_generates():
    for P, lam in all_quasitoric_fixtures():
        for coeff in FIELDS:
            pres = cohomology_ring(P, lam, coeff)
            field = RationalField() if coeff == "Q" else PrimeField(int(coeff[1:]))
            for k in range(1, P.n):
                dim_next = len(pres.basis[k + 1])
                rows = [
                    list(cell)
                    for row in pres.mult_h2[k]
                    for cell in row
                ]
                _, pivots = rref(rows, dim_next, field)
                assert len(pivots) == dim_next, (coeff, k)


def test_poincare_duality_of_dimensions():
    for P, lam in all_quasitoric_fixtures():
        pres = cohomology_ring(P, lam, "Q")
        dims = pres.dims_even()
        assert dims == tuple(reversed(dims))


def test_power_map_scalars():
    P = simplex_polytope(2)
    lam = CharacteristicMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    pres = cohomology_ring(P, lam, "Q")
    assert power_map_scalars(pres, 1) == {0: 1, 2: 1, 4: 1}
    assert power_map_scalars(pres, 2)[4] == 4
    assert power_map_scalars(pres, 0) == {0: 1, 2: 0, 4: 0}


def test_power_map_is_multiplicative():
    P = simplex_polytope(3)
    lam = CharacteristicMatrix.from_rows([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    pres = cohomology_ring(P, lam, "Q")
    for u, v in [(2, 3), (-1, 5), (4, 4)]:
        uv = power_map_scalars(pres, u * v)
        su = power_map_scalars(pres, u)
        sv = power_map_scalars(pres, v)
        assert all(uv[d] == su[d] * sv[d] for d in uv)
    # the degree-2k scalar is the k-th power of the degree-2 scalar
    s = power_map_scalars(pres, 7)
    assert all(s[2 * k] == s[2] ** k for k in range(pres.n + 1))


def test_bott_single_stage_is_projective_space():
    P, lam = generalized_bott([2])
    assert lam.rows == ((1, 0, -1), (0, 1, -1))
    assert h_vector_of(P).entries == (1, 1, 1)


def test_bott_two_stage_valid_for_every_twist():
    for t in range(-4, 5):
        P, lam = generalized_bott([1, 1], [[], [[t]]])
        assert validate_characteristic(P, lam).valid
        assert h_vector_of(P).entries == (1, 2, 1)


def test_bott_parameter_shape_checked():
    with pytest.raises(InputError):
        generalized_bott([1, 1], [[], []])
    with pytest.raises(InputError):
        generalized_bott([1, 2], [[], [[1]]])  # stage 2 vectors need length 2


def test_bott_refuses_a_tower_above_the_face_cap_before_the_join(monkeypatch):
    import torictop.quasitoric as quasitoric

    def joined(*a):
        raise AssertionError("join built before the cap check")

    monkeypatch.setattr(quasitoric, "join", joined)
    with pytest.raises(CapExceededError, match="343 maximal faces of 18 vertices would visit 89915392"):
        generalized_bott([6, 6, 6])
    with pytest.raises(CapExceededError, match=f"would visit {2 ** 31 << 31} subsets"):
        generalized_bott([1] * 31)  # m = 62, inside the vertex limit


def test_bott_three_stage_reduces_to_valid_cube_presentation():
    P, lam = generalized_bott([1, 1, 1], [[], [[1]], [[1], [1]]])
    pres = cube_parameters(P, lam)
    a, b, c, d, e, f = pres.params
    # towers only twist later stages over earlier ones
    assert (a, b, d) == (0, 0, 0)
    assert pres.valid


def test_cube_parameters_match_ring_squares():
    rng = random.Random(9)
    for _ in range(10):
        params = [[], [[rng.randint(-2, 2)]], [[rng.randint(-2, 2)], [rng.randint(-2, 2)]]]
        P, lam = generalized_bott([1, 1, 1], params)
        pres = cube_parameters(P, lam)
        ring = cohomology_ring(P, lam, "F2")
        # same squaring map rank either way
        f2 = PrimeField(2)
        _, piv1 = rref(pres.squaring_matrix(), 3, f2)
        _, piv2 = rref(ring.squaring_matrix(), 3, f2)
        assert len(piv1) == len(piv2)


def test_cube_presentation_pinned():
    assert cube_presentation(0, 0, 0, 0, 0, 0).valid
    assert not cube_presentation(1, 0, 0, 1, 1, 0).valid  # determinant 0
    assert not cube_presentation(0, 1, 0, 1, 1, 0).valid


def test_cube_presentation_needs_all_three_pair_conditions():
    # passes the ac/df pair checks and has determinant 1, but be = 1; the
    # squaring map is invertible so no square-zero class exists, and no
    # admissible characteristic matrix reduces to it
    pres = cube_presentation(1, 1, 0, 1, 1, 0)
    a, b, c, d, e, f = pres.params
    assert a * c == 0 and d * f == 0 and b * e == 1
    assert cube_determinant_f2(*pres.params) == 1
    assert not pres.valid
    f2 = PrimeField(2)
    _, pivots = rref(pres.squaring_matrix(), 3, f2)
    assert len(pivots) == 3  # kernel is zero


def test_every_refined_cube_matrix_yields_valid_tuple():
    # mod-2 patterns of admissible refined matrices land exactly in the
    # valid set: sample integer matrices, keep the admissible ones
    cube = PolytopeDual(
        n=3,
        complex=join(join(simplex_boundary(1), simplex_boundary(1)), simplex_boundary(1)),
    )
    rng = random.Random(41)
    seen = 0
    for _ in range(300):
        A = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        for i in range(3):
            for j in range(3):
                A[i][j] = -1 if i == j else rng.randint(-1, 1)
        rows = [
            [1, 0, 0] + [A[0][0], A[0][1], A[0][2]],
            [0, 1, 0] + [A[1][0], A[1][1], A[1][2]],
            [0, 0, 1] + [A[2][0], A[2][1], A[2][2]],
        ]
        # interleave columns into the block layout (id1, ex1, id2, ex2, id3, ex3)
        perm = [0, 3, 1, 4, 2, 5]
        rows = [[r[perm[c]] for c in range(6)] for r in rows]
        lam = CharacteristicMatrix.from_rows(rows)
        if validate_characteristic(cube, lam).valid:
            seen += 1
            assert cube_parameters(cube, lam).valid
    assert seen > 20  # the sample really exercised the admissible set


def test_ring_invariant_under_torus_basis_change():
    # integer row operations on the matrix change the acting torus basis,
    # not the manifold: dimensions and the squaring kernel must not move
    rng = random.Random(17)
    for name in ("cp1xcp1", "hirzebruch", "qtm_polygon6", "bott3"):
        P, lam = fixtures.load_quasitoric(name)
        rows = [list(r) for r in lam.rows]
        for _ in range(6):
            i, j = rng.sample(range(P.n), 2)
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        lam2 = CharacteristicMatrix.from_rows(rows)
        assert validate_characteristic(P, lam2).valid
        for coeff in ("Q", "F2"):
            p1 = cohomology_ring(P, lam, coeff)
            p2 = cohomology_ring(P, lam2, coeff)
            assert p1.dims_even() == p2.dims_even()
        f2 = PrimeField(2)
        p1, p2 = (cohomology_ring(P, m, "F2") for m in (lam, lam2))
        h2 = len(p1.basis[1])
        k1 = h2 - len(rref(p1.squaring_matrix(), h2, f2)[1])
        k2 = h2 - len(rref(p2.squaring_matrix(), h2, f2)[1])
        assert k1 == k2


def test_product_presentation_dims():
    # over a product of simplices the mod-2 ring has the convolved h-vector
    pres = product_presentation(5, 2, 0)
    assert (pres.h2_dim, pres.h4_dim) == (2, 3)
    with pytest.raises(InputError):
        product_presentation(3, 2, 3)


def test_product_presentation_matches_the_engine():
    # the quasitoric manifolds over a product of two simplices are the towers
    # with a twist vector of l ones and k'-l zeros
    f2 = PrimeField(2)
    cases = 0
    for n in range(2, 8):
        for kprime in range(1, n):
            for ell in range(kprime + 1):
                pres = product_presentation(n, kprime, ell)
                twist = (1,) * ell + (0,) * (kprime - ell)
                ring = cohomology_ring(*generalized_bott([n - kprime, kprime], [[], [twist]]), "F2")
                h2, h4 = ring.dim(2), ring.dim(4)
                assert (pres.h2_dim, pres.h4_dim) == (h2, h4), (n, kprime, ell)
                rank = len(rref(pres.squaring_matrix(), pres.h2_dim, f2)[1])
                assert pres.h2_dim - rank == h2 - len(rref(ring.squaring_matrix(), h2, f2)[1])
                cases += 1
    assert cases == 77


def test_invalid_matrix_rejected_by_ring():
    sq = polygon_polytope(4)
    lam = CharacteristicMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 2]])
    with pytest.raises(InputError):
        cohomology_ring(sq, lam, "F2")


def test_presentation_serializes():
    P, lam = fixtures.load_quasitoric("hirzebruch")
    for coeff in ("Q", "F2"):
        obj = cohomology_ring(P, lam, coeff).to_json_obj()
        import json

        json.dumps(obj)  # all values JSON-safe
        assert obj["dims"] == {"0": 1, "2": 2, "4": 1}


# ---------------------------------------------------------------------------
# differential check against the face-ring engine kept in conftest


def report_bytes(pres):
    return json.dumps(pres.to_json_obj(), sort_keys=True).encode()


def assert_engines_agree(P, lam, coeff):
    want = report_bytes(face_ring_cohomology(P, lam, coeff))
    assert report_bytes(cohomology_ring(P, lam, coeff)) == want


def test_engine_matches_face_ring_oracle_on_fixtures():
    for name in fixtures.quasitoric_names():
        P, lam = fixtures.load_quasitoric(name)
        for coeff in FIELDS:
            assert_engines_agree(P, lam, coeff)


@st.composite
def bott_towers(draw, max_n):
    """(stage dimensions, twists in [-3, 3]) of a tower of total dimension <= max_n."""
    n = draw(st.sampled_from(range(max_n, 0, -1)))  # the largest towers first
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    dims = [b - a for a, b in zip(bounds, bounds[1:])]
    params = [
        [draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)) for _ in range(j)]
        for j, d in enumerate(dims)
    ]
    return dims, params


ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@ORACLE_SETTINGS
@given(bott_towers(max_n=4), st.sampled_from(("F2", "F3", "F5")))
def test_engine_matches_face_ring_oracle_on_towers_mod_p(tower, coeff):
    assert_engines_agree(*generalized_bott(*tower), coeff)


@ORACLE_SETTINGS
@given(bott_towers(max_n=3))
def test_engine_matches_face_ring_oracle_on_towers_over_q(tower):
    assert_engines_agree(*generalized_bott(*tower), "Q")


# ---------------------------------------------------------------------------
# the linear forms against the integer adjugate kept in conftest


def adjugate_forms(lam, face):
    """v -> its linear form in the variables off ``face``: -A^-1 B from the
    adjugate of A, for A and B the columns of lam on and off the face."""
    free = [v for v in range(1, lam.m + 1) if v not in face]
    inv = unimodular_inverse(lam.column_submatrix(face))
    solved = linalg.matmul_int(inv, lam.column_submatrix(free), len(face))
    forms = {v: [-x for x in solved[i]] for i, v in enumerate(face)}
    forms.update({v: [int(u == t) for u in range(len(free))] for t, v in enumerate(free)})
    return forms


def assert_forms_match_the_adjugate(P, lam):
    # every maximal face has a unimodular minor, so each one solves J
    for face in sorted(P.complex.maximal_faces):
        want = adjugate_forms(lam, face)
        for p in (0, 2, 3, 5):  # Q and F_p
            got = linear_forms(lam, face, p)
            assert got == {v: [x % p if p else x for x in f] for v, f in want.items()}, (face, p)


def test_linear_forms_match_the_adjugate_on_fixtures():
    for name in fixtures.quasitoric_names():
        assert_forms_match_the_adjugate(*fixtures.load_quasitoric(name))


@ORACLE_SETTINGS
@given(bott_towers(max_n=7))
def test_linear_forms_match_the_adjugate_on_towers(tower):
    dims, _ = tower
    assume(sum(d + 1 for d in dims) <= 8)
    assert_forms_match_the_adjugate(*generalized_bott(*tower))
