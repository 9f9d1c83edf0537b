import itertools
import json
import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIELD_TAGS,
    brute_reduced_betti,
    cellular_blocks,
    cellular_moment_angle_homology,
    dict_direct_sum,
    dict_join_homology,
    echelon_reduced_homology,
    field_ranks,
    field_ranks_from_z,
    graded_tensor_unreduced,
    per_subset_wedge_splitting,
    random_complex_faces,
    reduce_ranks,
    stellar_sphere,
    unreduce,
)
from torictop import (
    CapExceededError,
    GradedHomology,
    InputError,
    fixtures,
    full_subcomplex,
    join,
    moment_angle_homology,
    polygon_boundary,
    reduced_homology,
    simplex_boundary,
    validate_complex,
    wedge_splitting,
)
from torictop.complexes import PolytopeDual, _vertices_of, f_vector
from torictop.linalg import matmul_int
from torictop.momentangle import _join_homology, _subsets, _summand_structure
from test_golden import COMPLEXES, INPUTS

RP2_FACES = [[1, 2, 3], [1, 3, 4], [1, 2, 6], [1, 4, 5], [1, 5, 6],
             [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]]


def hochster_oracle(K):
    """Assemble the moment-angle Betti numbers subset by subset, from scratch."""
    verts = range(1, K.m + 1)
    max_faces = [set(f) for f in K.maximal_faces]
    total = {}
    for r in range(1, K.m + 1):
        for I in itertools.combinations(verts, r):
            iset = set(I)
            sub_max = {tuple(sorted(f & iset)) for f in max_faces}
            # drop faces contained in others
            sub_max = [f for f in sub_max if not any(set(f) < set(g) for g in sub_max)]
            if sub_max == [()] or not sub_max:
                betti = {-1: 1}
            else:
                betti = brute_reduced_betti([f for f in sub_max if f])
            for d, b in betti.items():
                total[d + r + 1] = total.get(d + r + 1, 0) + b
    return {d: b for d, b in total.items() if b}


def ranks(h):
    return {d: r for d, (r, _) in h.as_dict().items()}


def test_spheres_from_simplex_boundaries():
    for n in range(1, 6):
        h = moment_angle_homology(simplex_boundary(n))
        assert h.as_dict() == {2 * n + 1: (1, ())}


def test_four_cycle_brute_force():
    K = polygon_boundary(4)
    h = moment_angle_homology(K)
    assert ranks(h) == {3: 2, 6: 1}
    assert ranks(h) == hochster_oracle(K)


def test_pentagon_against_oracle():
    K = polygon_boundary(5)
    assert ranks(moment_angle_homology(K, "Q")) == hochster_oracle(K)


def test_segment_times_triangle_is_product_of_spheres():
    K = join(simplex_boundary(1), simplex_boundary(2))
    assert ranks(moment_angle_homology(K)) == {3: 1, 5: 1, 8: 1}


def test_single_point_gives_nothing():
    sp = wedge_splitting(validate_complex([[1]], 1))
    assert sp.total.is_trivial()
    assert sp.summands == () and sp.trivial_count == 1


def test_ghost_vertex_gives_circle():
    K = validate_complex([], 1)
    assert moment_angle_homology(K).as_dict() == {1: (1, ())}


def test_summand_bookkeeping_is_complete():
    K = polygon_boundary(4)
    sp = wedge_splitting(K)
    assert sp.trivial_count + len(sp.summands) == 2**K.m - 1
    assert {s.subset for s in sp.summands} == {(1, 3), (2, 4), (1, 2, 3, 4)}


def assert_the_walk_is_cone_detection(K, coeff="Z"):
    """The ``_subsets`` walk visits every nonempty subset of the requested
    sizes once, in (size, subset) order.  Its mask cone test agrees with
    ``is_cone`` of the full subcomplex on every subset; a cone gets empty
    homology, and every other subset the reduced homology of K_I."""
    is_cone, _ = _summand_structure(K)
    walk = [(I, mask, homology_of()) for I, mask, homology_of in _subsets(K, coeff)]
    every = sorted(map(_vertices_of, range(1, 1 << K.m)), key=lambda I: (len(I), I))
    assert [I for I, _, _ in walk] == every
    for I, mask, hom in walk:
        assert _vertices_of(mask) == I
        K_I = full_subcomplex(K, I)
        assert is_cone(mask) == K_I.is_cone(), I
        want = GradedHomology(coeff, ()) if K_I.is_cone() else reduced_homology(K_I, coeff)
        assert hom == want, I
    for sizes in ({2, K.m}, {1}):
        if max(sizes) <= K.m:
            got = [(I, mask, homology_of()) for I, mask, homology_of in _subsets(K, coeff, sizes)]
            assert got == [w for w in walk if len(w[0]) in sizes]
    for sizes in ({0}, {1, K.m + 1}):
        with pytest.raises(InputError):
            next(_subsets(K, coeff, sizes))


def test_cone_test_is_cone_detection():
    K = simplex_boundary(2)
    is_cone, _ = _summand_structure(K)
    # proper subsets span faces, hence cones; the full set is the circle
    assert is_cone(0b011) and is_cone(0b001)
    assert not is_cone(0b111)
    assert_the_walk_is_cone_detection(K)
    # a ghost vertex is no apex, but an apex beside it still makes a cone
    K = validate_complex([[2, 3]], 3)
    is_cone, _ = _summand_structure(K)
    assert not is_cone(0b001) and is_cone(0b011)
    assert_the_walk_is_cone_detection(K)
    # requested sizes are the only ones walked: 24 + 276 subsets of the 24-gon
    walk = list(_subsets(polygon_boundary(24), "F2", {1, 2}))
    assert len(walk) == 300
    assert sum(not homology_of().is_trivial() for _, _, homology_of in walk) == 276 - 24


def test_size_filter():
    K = polygon_boundary(4)
    sp = wedge_splitting(K, size_filter={2})
    assert sp.trivial_count + len(sp.summands) == 6
    assert {s.subset for s in sp.summands} == {(1, 3), (2, 4)}
    with pytest.raises(InputError):
        wedge_splitting(K, size_filter={0})


def test_cap_enforcement_and_override():
    K = validate_complex([[i] for i in range(1, 18)], 17)
    with pytest.raises(CapExceededError):
        wedge_splitting(K, coeff="Z")
    # explicit override runs (restricted to singletons to stay quick)
    sp = wedge_splitting(K, coeff="Z", cap=17, size_filter={1})
    assert sp.trivial_count == 17


def test_kuenneth_consistency_on_joins():
    pairs = [
        (simplex_boundary(1), simplex_boundary(1)),
        (simplex_boundary(1), simplex_boundary(2)),
        (simplex_boundary(2), simplex_boundary(2)),
        (simplex_boundary(1), polygon_boundary(4)),
        (polygon_boundary(4), simplex_boundary(2)),
    ]
    for coeff in ("Q", "F2"):
        for K1, K2 in pairs:
            left = ranks(moment_angle_homology(join(K1, K2), coeff))
            u1 = unreduce(ranks(moment_angle_homology(K1, coeff)))
            u2 = unreduce(ranks(moment_angle_homology(K2, coeff)))
            assert left == reduce_ranks(graded_tensor_unreduced(u1, u2))


def test_two_connectivity_for_polytope_duals():
    duals = [simplex_boundary(n) for n in range(1, 5)]
    duals += [polygon_boundary(k) for k in range(3, 8)]
    duals.append(join(join(simplex_boundary(1), simplex_boundary(1)), simplex_boundary(1)))
    for K in duals:
        h = moment_angle_homology(K)
        assert all(d >= 3 for d in h.degrees())


def test_degree_bound():
    rng = random.Random(3)
    for _ in range(10):
        m = rng.randint(2, 6)
        faces = random_complex_faces(rng, m, rng.randint(1, 4), 3)
        K = validate_complex(faces, m)
        h = moment_angle_homology(K)
        assert all(d <= K.m + K.dim + 1 for d in h.degrees())


def test_torsion_is_merged_into_divisibility_chains():
    # two disjoint projective-plane style summands force a torsion merge
    K = validate_complex(RP2_FACES, 6)
    h = moment_angle_homology(K)
    for d in h.degrees():
        tors = h.torsion(d)
        assert all(tors[i + 1] % tors[i] == 0 for i in range(len(tors) - 1))
    # the full subset contributes the projective-plane torsion class
    assert h.torsion(K.m + 1 + 1) == (2,)



def assert_matches_per_subset_path(K, coeff, **kwargs):
    """Same report bytes as the per-subset oracle."""
    got = wedge_splitting(K, coeff, **kwargs)
    want = per_subset_wedge_splitting(K, coeff, **kwargs)
    assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())


@pytest.mark.parametrize("name", fixtures.names())
def test_wedge_splitting_matches_the_per_subset_path_on_fixtures(name):
    K = fixtures.load_polytope(name).complex
    for coeff in ("Z", "Q", "F2", "F3", "F5"):
        for sizes in (None, {2, K.m}):
            assert_matches_per_subset_path(K, coeff, size_filter=sizes)
    assert_the_walk_is_cone_detection(K)


@st.composite
def small_complexes(draw, max_m):
    m = draw(st.integers(1, max_m))
    faces = draw(st.lists(st.lists(st.integers(1, m), min_size=1, max_size=4), max_size=6))
    return validate_complex(faces, m)


@st.composite
def random_joins(draw):
    first = draw(small_complexes(5))
    second = draw(small_complexes(9 - first.m))
    K = join(first, second)
    if K.m < 9 and draw(st.booleans()):
        K = join(K, draw(small_complexes(9 - K.m)))
    return K


# No shrink phase: shrinking a failure of these oracles takes minutes, and the
# failing example is small enough to read as generated.
SPLITTING_ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                                     database=None, phases=(Phase.explicit, Phase.generate))


@SPLITTING_ORACLE_SETTINGS
@given(small_complexes(9), st.sampled_from(["Z", "Q", "F2", "F3"]))
def test_wedge_splitting_matches_the_per_subset_path_on_random_complexes(K, coeff):
    assert_matches_per_subset_path(K, coeff)
    assert_the_walk_is_cone_detection(K, coeff)


@SPLITTING_ORACLE_SETTINGS
@given(random_joins(), st.sampled_from(["Z", "Q", "F2", "F3"]))
def test_wedge_splitting_matches_the_per_subset_path_on_random_joins(K, coeff):
    assert_matches_per_subset_path(K, coeff)
    assert_the_walk_is_cone_detection(K, coeff)


@pytest.fixture(scope="module")
def torsion_sphere():
    """The polytopal 4-sphere whose full subcomplex on 1..6 is RP^2, and its
    wedge summands with |I| = 6 over Z."""
    m, facets = stellar_sphere(RP2_FACES, 6)
    K = validate_complex(facets, m)
    return K, wedge_splitting(K, "Z", size_filter={6})


def test_the_torsion_sphere_is_a_polytope_dual_around_rp2(torsion_sphere):
    K, _ = torsion_sphere
    m, facets = stellar_sphere(RP2_FACES, 6)
    assert json.dumps({"m": m, "facets": facets}).encode() == INPUTS["torsion_sphere.json"]
    assert (K.m, len(K.masks)) == (16, 90)
    assert f_vector(PolytopeDual(n=5, complex=K)).entries == (1, 16, 87, 208, 225, 90)
    assert full_subcomplex(K, range(1, 7)) == validate_complex(RP2_FACES, 6)


def test_the_torsion_sphere_has_2_torsion_over_z(torsion_sphere):
    _, sp = torsion_sphere
    torsion = {s.subset: s.homology.groups for s in sp.summands
               if any(tors for _, (_, tors) in s.homology.groups)}
    assert torsion == {(1, 2, 3, 4, 5, 6): ((1, (0, (2,))),)}  # H~_1(RP^2) = Z/2
    assert sp.total.as_dict()[8] == (1815, (2,))
    assert sp.total.as_dict()[9] == (313, ())


@pytest.mark.parametrize("coeff, want", [("F2", {8: 1816, 9: 314}), ("F3", {8: 1815, 9: 313}),
                                         ("Q", {8: 1815, 9: 313})])
def test_the_torsion_sphere_over_a_field_follows_universal_coefficients(torsion_sphere, coeff, want):
    # summand by summand against the echelon path; over Q the Z/2 at I = 1..6
    # vanishes, and so does the one at its complement
    K, over_z = torsion_sphere
    p = dict(FIELD_TAGS)[coeff]
    sp = wedge_splitting(K, coeff, size_filter={6})
    assert sp == per_subset_wedge_splitting(K, coeff, {6}, homology=echelon_reduced_homology)
    assert field_ranks(sp.total) == field_ranks_from_z(over_z.total.as_dict(), p)
    assert {d: sp.total.rank(d) for d in want} == want
    for I in (range(1, 7), range(7, 17)):
        K_I = full_subcomplex(K, I)
        groups = reduced_homology(K_I, "Z").as_dict()
        assert groups == {1: (0, (2,))}
        assert field_ranks(reduced_homology(K_I, coeff)) == field_ranks_from_z(groups, p)
        assert reduced_homology(K_I, coeff) == echelon_reduced_homology(K_I, coeff)


def complex_named(name):
    if name in INPUTS:
        obj = json.loads(INPUTS[name])
        return validate_complex(obj["facets"], obj["m"])
    return fixtures.load_polytope(name).complex


@pytest.mark.parametrize("name", fixtures.names() + list(COMPLEXES))
def test_field_summands_follow_from_the_integral_ones(name):
    # summand by summand: Q keeps the free rank over Z, and F_p adds the
    # invariant factors divisible by p in the degree and the one below; and
    # the splitting is the one the echelon path gives
    K = complex_named(name)
    over_z = {s.subset: s.homology.as_dict() for s in wedge_splitting(K, "Z").summands}
    for coeff, p in FIELD_TAGS:
        want = {I: field_ranks_from_z(groups, p) for I, groups in over_z.items()}
        sp = wedge_splitting(K, coeff)
        assert {s.subset: field_ranks(s.homology) for s in sp.summands} == {
            I: r for I, r in want.items() if r}, coeff
        assert sp == per_subset_wedge_splitting(K, coeff, homology=echelon_reduced_homology), coeff


def test_join_kuenneth_keeps_the_tor_term():
    rp2 = validate_complex(RP2_FACES, 6)
    s0 = validate_complex([[1], [2]], 2)
    for A, B in ((rp2, s0), (s0, rp2), (rp2, rp2)):
        K = join(A, B)
        whole = [s for s in wedge_splitting(K, "Z").summands if len(s.subset) == K.m]
        assert [s.homology for s in whole] == [reduced_homology(K, "Z")]
    # RP2 * RP2: Z/2 (x) Z/2 in degree 3, and Tor(Z/2, Z/2) one degree up
    assert reduced_homology(join(rp2, rp2), "Z").as_dict() == {3: (0, (2,)), 4: (0, (2,))}
    assert_matches_per_subset_path(join(rp2, s0), "Z")


def test_join_homology_formula():
    A = GradedHomology.from_dict("Z", {1: (1, (4,))})
    B = GradedHomology.from_dict("Z", {0: (0, (6,))})
    # Z (x) Z/6 = Z/6 and Z/4 (x) Z/6 = Z/2 in degree 2; Tor(Z/4, Z/6) = Z/2 in degree 3
    assert _join_homology(A, B).as_dict() == {2: (0, (2, 6)), 3: (0, (2,))}
    empty = GradedHomology.from_dict("Z", {-1: (1, ())})
    assert _join_homology(empty, A) == A
    # Z/2 and Z/3 pieces join to an acyclic complex
    two = GradedHomology.from_dict("Z", {1: (0, (2,))})
    three = GradedHomology.from_dict("Z", {1: (0, (3,))})
    assert _join_homology(two, three).is_trivial()


# reduced homology of a complex: degree -1 (the empty complex) and up, with torsion
graded_groups = st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 2),
                                   st.lists(st.integers(2, 12), max_size=2)),
                         max_size=4).map(lambda terms: dict_direct_sum("Z", terms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_groups, graded_groups)
def test_join_homology_matches_the_dict_accumulation(A, B):
    assert _join_homology(A, B) == dict_join_homology(A, B)


def test_product_of_four_simplex_boundaries_over_z():
    """m = 13: Z_K = S^5 x S^5 x S^5 x S^7, whose nonzero summands are the
    unions of whole join factors."""
    K = join(join(join(simplex_boundary(2), simplex_boundary(2)), simplex_boundary(2)),
             simplex_boundary(3))
    sp = wedge_splitting(K, "Z")
    want: dict[int, int] = {}
    for picks in itertools.product((0, 1), repeat=4):
        d = sum(p * s for p, s in zip(picks, (5, 5, 5, 7)))
        if d:
            want[d] = want.get(d, 0) + 1
    assert sp.total.as_dict() == {d: (r, ()) for d, r in want.items()}
    blocks = [set(range(1, 4)), set(range(4, 7)), set(range(7, 10)), set(range(10, 14))]
    unions = {tuple(sorted(set().union(*c))) for r in range(1, 5)
              for c in itertools.combinations(blocks, r)}
    assert {s.subset for s in sp.summands} == unions
    assert sp.trivial_count == 2**13 - 1 - 15


# The wedge splitting against the cellular chain complex of Z_K itself
# (``conftest.cellular_moment_angle_homology``), which reads no full
# subcomplex's homology: so the splitting, its degree shift |I| + 1, the
# join Kuenneth formula and the cone skip are all checked.  The Tor term of
# a join needs torsion on both sides, and the least complex with torsion is
# the 6-vertex RP^2, so RP^2 * RP^2 (m = 12) is an explicit example.


@st.composite
def cellular_oracle_complexes(draw):
    """A complex on m <= 9 vertices with ghost vertices and facets of mixed
    sizes, sometimes holding RP^2 on 1..6 for its 2-torsion."""
    m = draw(st.integers(1, 9))
    faces = draw(st.lists(st.lists(st.integers(1, m), min_size=1, max_size=4), max_size=6))
    if m >= 6 and draw(st.booleans()):
        faces += RP2_FACES
    return validate_complex(faces, m)


def test_the_cellular_boundary_squares_to_zero():
    rp2 = validate_complex(RP2_FACES, 6)
    for K in (rp2, join(rp2, validate_complex([[1], [2]], 2)), polygon_boundary(5),
              validate_complex([[1, 2, 3], [3, 4], [5]], 6)):
        for _, _, maps in cellular_blocks(K):
            for d1, d2 in zip(maps, maps[1:]):
                assert not any(any(row) for row in matmul_int(d1, d2, len(d2))), K.maximal_faces


@SPLITTING_ORACLE_SETTINGS
@given(cellular_oracle_complexes(), st.sampled_from(["Z", "F2", "F3"]))
@example(join(validate_complex(RP2_FACES, 6), validate_complex(RP2_FACES, 6)), "Z")
def test_wedge_splitting_matches_the_cellular_chain_complex(K, coeff):
    total = wedge_splitting(K, coeff).total.as_dict()
    assert 0 not in total  # Z_K is connected
    assert cellular_moment_angle_homology(K, coeff).as_dict() == {0: (1, ()), **total}
