import itertools
import random

import pytest

from conftest import (
    brute_reduced_betti,
    graded_tensor_unreduced,
    random_complex_faces,
    reduce_ranks,
    unreduce,
)
from torictop import (
    CapExceededError,
    InputError,
    join,
    moment_angle_homology,
    polygon_boundary,
    simplex_boundary,
    validate_complex,
    wedge_splitting,
)


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
    sp = wedge_splitting(validate_complex([[1]], 1), keep_trivial=True)
    assert sp.total.is_trivial()
    assert all(s.contractible for s in sp.summands)


def test_ghost_vertex_gives_circle():
    K = validate_complex([], 1)
    assert moment_angle_homology(K).as_dict() == {1: (1, ())}


def test_summand_bookkeeping_is_complete():
    K = polygon_boundary(4)
    sp = wedge_splitting(K)
    assert sp.trivial_count + len(sp.summands) == 2**K.m - 1
    assert {s.subset for s in sp.summands} == {(1, 3), (2, 4), (1, 2, 3, 4)}


def test_contractible_flag_is_cone_detection():
    sp = wedge_splitting(simplex_boundary(2), keep_trivial=True)
    flags = {s.subset: s.contractible for s in sp.summands}
    # proper subsets span faces, hence cones; the full set is the circle
    assert flags[(1, 2)] and flags[(1,)]
    assert not flags[(1, 2, 3)]
    for s in sp.summands:
        if s.contractible:
            assert s.homology.is_trivial()


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
    rp2 = [[1, 2, 3], [1, 3, 4], [1, 2, 6], [1, 4, 5], [1, 5, 6],
           [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]]
    K = validate_complex(rp2, 6)
    h = moment_angle_homology(K)
    for d in h.degrees():
        tors = h.torsion(d)
        assert all(tors[i + 1] % tors[i] == 0 for i in range(len(tors) - 1))
    # the full subset contributes the projective-plane torsion class
    assert h.torsion(K.m + 1 + 1) == (2,)

