import json
from collections import Counter
from functools import partial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    cube_determinant_f2,
    cube_presentation,
    pascal_parity_table,
    run_python,
    steenrod_hit_loop,
    summand_scan_certificates,
)
from torictop import (
    CharacteristicMatrix,
    GradedHomology,
    InputError,
    cohomology_ring,
    cube_census,
    full_subcomplex,
    generalized_bott,
    p_local_note,
    polygon_polytope,
    projection_reports,
    simplex_polytope,
    squaring_kernel,
    steenrod_hit_search,
    suspension_triviality_check,
    two_simplices_check,
    validate_characteristic,
)
from torictop import fixtures, momentangle, projection
from torictop.projection import CERT_DIMENSION, CERT_SIMPLEX, CERT_VANISHING

CP2 = (simplex_polytope(2), CharacteristicMatrix.from_rows([[1, 0, -1], [0, 1, -1]]))
SQUARE = (polygon_polytope(4), CharacteristicMatrix.from_rows([[1, 0, -1, 0], [0, 1, 0, -1]]))


def test_decomposition_groups_partition_everything():
    P, lam = SQUARE
    for p in (3, 5, 7):
        rep = projection_reports(P, lam, p)[0]
        subsets = [c.subset for c in rep.all_certificates()]
        assert len(subsets) == 2**P.m - 1
        assert len(set(subsets)) == len(subsets)
        for i, group in rep.groups.items():
            assert all((len(c.subset) - i) % (p - 1) == 0 for c in group)


def test_decomposition_simplex_p5():
    P, lam = CP2
    rep = projection_reports(P, lam, 5)[0]
    kinds = {c.subset: c.kind for c in rep.all_certificates()}
    for I in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        assert kinds[I] == CERT_SIMPLEX
    assert kinds[(1, 2, 3)] == CERT_DIMENSION
    # the group of the full subset targets a piece with no homology
    assert rep.targets[2].homology.is_trivial()


def test_grouping_sizes_four_cycle_p3():
    P, lam = SQUARE
    rep = projection_reports(P, lam, 3)[0]
    sizes = {i: len(g) for i, g in rep.groups.items()}
    assert sizes == {1: 8, 2: 7}  # |I| in {1,3} and |I| in {2,4}


def test_empty_groups_when_m_small():
    P, lam = CP2
    rep = projection_reports(P, lam, 7)[0]
    assert all(len(rep.groups[i]) == 0 for i in (4, 5, 6))


def test_triviality_certified_cases():
    cube3, _ = generalized_bott([1, 1, 1])
    cases = [
        (CP2[0], 5),
        (SQUARE[0], 3),
        (SQUARE[0], 5),
        (cube3, 5),
        (cube3, 7),
    ]
    for P, p in cases:
        t = suspension_triviality_check(P, p)
        assert t.applicable and t.certified, (P.n, P.m, p)
        assert all(c.kind in (CERT_SIMPLEX, CERT_DIMENSION, CERT_VANISHING) for c in t.summands)


def test_triviality_simplex_p3_boundary_case():
    # the full-subset summand suspends the circle to degree 6, which lands
    # exactly on the first even p-torsion line of the 3-sphere at p=3; no
    # certificate applies there, and in fact the restricted map is essential
    # (its cofiber carries a nonzero degree-doubling operation mod 3), so a
    # sound checker must refuse to certify this pair
    t = suspension_triviality_check(CP2[0], 3)
    assert t.applicable
    assert t.certified is False
    assert t.uncertified_subsets() == [(1, 2, 3)]


def test_four_cycle_p3_certificate_kinds():
    t = suspension_triviality_check(SQUARE[0], 3)
    kinds = Counter(c.kind for c in t.summands)
    assert kinds == {CERT_SIMPLEX: 8, CERT_DIMENSION: 2, CERT_VANISHING: 5}
    by_subset = {c.subset: c for c in t.summands}
    assert by_subset[(1, 3)].kind == CERT_DIMENSION
    assert by_subset[(1, 2, 3, 4)].kind == CERT_VANISHING


def test_four_cycle_p5_dimension_details():
    t = suspension_triviality_check(SQUARE[0], 5)
    c = next(x for x in t.summands if x.subset == (1, 3))
    assert c.kind == CERT_DIMENSION
    assert c.details["dim_K_I"] == 0
    assert c.details["top_cell"] == 4 and c.details["target_sphere"] == 5


def test_rejects_prime_two():
    with pytest.raises(InputError, match="p=2"):
        suspension_triviality_check(CP2[0], 2)


def test_certificate_soundness_recompute():
    # dimension certificates: dim K_I <= |I| - 2 and 2|I| < 2i+1; the face
    # test and dim K_I, read off the masks of K, match the full subcomplex
    for name in fixtures.quasitoric_names():
        P, lam = fixtures.load_quasitoric(name)
        for p in (3, 5, 7):
            rep = projection_reports(P, lam, p)[0]
            for c in rep.all_certificates():
                sub = full_subcomplex(P.complex, c.subset)
                assert (c.kind == CERT_SIMPLEX) == P.complex.has_face(c.subset)
                if "dim_K_I" in c.details:
                    assert c.details["dim_K_I"] == sub.dim
                if c.kind == CERT_DIMENSION:
                    assert sub.dim <= len(c.subset) - 2
                    assert 2 * len(c.subset) < 2 * c.group + 1


ORACLE_PRIMES = (3, 5, 7, 11, 65521)


def triviality_bytes(P, p):
    return json.dumps(suspension_triviality_check(P, p).to_json_obj(), sort_keys=True)


def report_bytes(P, lam, p):
    halves = projection_reports(P, lam, p)
    return [json.dumps(r.to_json_obj(), sort_keys=True) for r in halves] + [triviality_bytes(P, p)]


def with_summand_scan(f, *args):
    """``f(*args)`` with the previous certificates patched in for the subset walk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projection, "_certificates", summand_scan_certificates)
        return f(*args)


def assert_matches_the_summand_scan(P, lam, p):
    assert report_bytes(P, lam, p) == with_summand_scan(report_bytes, P, lam, p), (P.m, p)


@pytest.mark.parametrize("name", fixtures.quasitoric_names())
def test_projection_matches_the_summand_scan_on_fixtures(name):
    P, lam = fixtures.load_quasitoric(name)
    for p in ORACLE_PRIMES:
        assert_matches_the_summand_scan(P, lam, p)


@st.composite
def bott_towers(draw, max_m):
    """A generalized Bott tower with at most ``max_m`` facets and small twists."""
    dims = []
    while not dims or (sum(d + 1 for d in dims) + 2 <= max_m and draw(st.booleans())):
        dims.append(draw(st.integers(1, max_m - 1 - sum(d + 1 for d in dims))))
    params = [[draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)) for _ in range(j)]
              for j, d in enumerate(dims)]
    return generalized_bott(dims, params)


# With m <= 10, p = 11 already puts every subset I in group |I|, as 65521
# does; 65521 only adds empty groups, which the fixtures cover.
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(bott_towers(10), st.sampled_from(ORACLE_PRIMES[:-1]))
def test_projection_matches_the_summand_scan_on_bott_towers(tower, p):
    assert_matches_the_summand_scan(*tower, p)


def test_the_summand_scan_catches_every_subset_read_as_a_face(monkeypatch):
    # the square's face index holding every subset: the walk then certifies
    # every summand "simplex" (its minimal non-faces read the same index, so
    # every K_I is a cone as well, which a face certificate never looks at)
    P = SQUARE[0]
    assert triviality_bytes(P, 3) == with_summand_scan(triviality_bytes, P, 3)
    monkeypatch.setitem(P.complex.__dict__, "_face_index", dict.fromkeys(range(16), 0))
    assert triviality_bytes(P, 3) != with_summand_scan(triviality_bytes, P, 3)


def test_the_summand_scan_catches_a_dropped_summand(monkeypatch):
    # the full subset of the square, (1, 2, 3, 4), is certified by its
    # degrees at p = 3; with its homology dropped from the walk it has none
    walk = momentangle._subsets

    def drop_the_full_subset(K, *args, **kwargs):
        for subset, mask, homology_of in walk(K, *args, **kwargs):
            if len(subset) == K.m:
                assert not homology_of().is_trivial()
                homology_of = partial(GradedHomology, "Z", ())
            yield subset, mask, homology_of

    P, lam = SQUARE
    monkeypatch.setattr(momentangle, "_subsets", drop_the_full_subset)
    assert report_bytes(P, lam, 3) != with_summand_scan(report_bytes, P, lam, 3)


def test_certificates_compute_only_the_homology_they_read(monkeypatch):
    # only the vanishing-range certificate reads the homology of K_I, so only
    # its non-cone subsets are reduced; for p > m every non-face takes the
    # dimension certificate and nothing is reduced
    P, lam = polygon_polytope(8), CharacteristicMatrix.from_rows([[1, 0] * 4, [0, 1] * 4])
    read = []
    reduce = momentangle.reduced_homology
    monkeypatch.setattr(momentangle, "reduced_homology",
                        lambda K, coeff: read.append(K.labels) or reduce(K, coeff))
    for p in (11, 3):
        assert_matches_the_summand_scan(P, lam, p)
        read.clear()
        certs = projection_reports(P, lam, p)[1].summands
        wanted = [c.subset for c in certs if "source_degrees" in c.details
                  and not full_subcomplex(P.complex, c.subset).is_cone()]
        assert read == wanted and bool(read) == (p == 3), p


def test_squaring_kernel_cp2_inconclusive():
    pres = cohomology_ring(*CP2, "F2")
    v = squaring_kernel(pres)
    assert v.conclusion == "inconclusive" and v.witness is None


def test_squaring_kernel_square_witness():
    pres = cohomology_ring(*SQUARE, "F2")
    v = squaring_kernel(pres)
    assert v.conclusion == "not-null"
    assert v.witness["kernel_dimension"] == 2
    assert any(v.witness["coefficients"])


def test_squaring_kernel_polygons():
    for k in range(4, 9):
        P, lam = fixtures.load_quasitoric(f"qtm_polygon{k}") if k >= 5 else SQUARE
        pres = cohomology_ring(P, lam, "F2")
        v = squaring_kernel(pres)
        assert v.conclusion == "not-null"
        assert v.witness["kernel_dimension"] >= k - 3


def test_squaring_kernel_needs_f2():
    pres = cohomology_ring(*CP2, "Q")
    with pytest.raises(InputError):
        squaring_kernel(pres)


def test_squaring_additivity_via_structure_constants():
    # (v+w)^2 = v^2 + w^2: expand the square bilinearly with the product
    # table and compare against the linear squaring map
    import itertools

    for name in ("cp1xcp1", "bott3", "qtm_polygon5"):
        P, lam = fixtures.load_quasitoric(name)
        pres = cohomology_ring(P, lam, "F2")
        h2 = pres.dim(2)
        h4 = pres.dim(4)
        table = pres.mult_h2[1]
        for coeffs in itertools.product((0, 1), repeat=h2):
            via_products = [0] * h4
            for s in range(h2):
                for t in range(h2):
                    if coeffs[s] and coeffs[t]:
                        for r in range(h4):
                            via_products[r] ^= table[s][t][r]
            via_squares = [0] * h4
            for s in range(h2):
                if coeffs[s]:
                    for r in range(h4):
                        via_squares[r] ^= pres.squaring_cols[s][r]
            assert via_products == via_squares


def test_steenrod_hit_pinned():
    assert steenrod_hit_search(2) == (1, 1)
    assert steenrod_hit_search(3) is None
    assert steenrod_hit_search(5) == (3, 2)
    with pytest.raises(InputError):
        steenrod_hit_search(0)


def test_steenrod_hit_against_pascal_parity():
    rows = pascal_parity_table(512)
    for s in range(1, 513):
        expected = None
        for j in range(1, s // 2 + 1):
            if rows[s - j][j] % 2:
                expected = (s - j, j)
                break
        assert steenrod_hit_search(s) == expected
        assert (expected is None) == ((s + 1) & s == 0)  # s = 2^e - 1


def test_steenrod_hit_closed_form_matches_the_loop():
    for s in range(1, 1 << 17):
        assert steenrod_hit_search(s) == steenrod_hit_loop(s), s


def test_two_simplices_check_on_huge_n_returns_at_once():
    # the candidate walk took s / 2 steps for s = n - 1 = 2^e - 1; in a child
    # under a timeout, so that such a walk fails the test instead of hanging it
    proc = run_python("""
import time
from torictop import cli
from torictop.projection import two_simplices_check
t = time.perf_counter()
for n in (2**30, 2**200):
    v = two_simplices_check(n, 2)
    assert v.conclusion == "inconclusive", v
    assert v.witness["hits"] == {
        str(s): {"hit": None, "s_plus_1_power_of_two": True} for s in (3, n - 1)}, v
assert cli.main(["nontrivial", "--two-simplices", str(2**30), "2"]) == 0
assert time.perf_counter() - t < 1
""")
    assert proc.returncode == 0, proc.stderr


def test_two_simplices_pinned():
    v = two_simplices_check(5, 2)
    assert v.conclusion == "not-null"
    assert v.witness["hits"]["4"]["hit"] == [3, 1]
    assert two_simplices_check(2, 1).conclusion == "inconclusive"
    v0 = two_simplices_check(3, 0)
    assert v0.conclusion == "not-null" and v0.criterion == "projective-space-cofiber"
    with pytest.raises(InputError):
        two_simplices_check(2, 3)


def test_cube_census_complete():
    census = cube_census()
    assert census.total == 64
    assert census.valid_count == 25
    assert census.uncertified == ()
    for e in census.entries:
        if e.valid:
            assert e.witness is not None
            # witness re-validates: nonzero and squares to zero
            pres = cube_presentation(*e.params)
            vec = e.witness["coefficients"]
            assert any(vec)
            mat = pres.squaring_matrix()
            img = [sum(mat[r][c] * vec[c] for c in range(3)) % 2 for r in range(3)]
            assert img == [0, 0, 0]


def test_cube_census_agrees_with_the_engine_on_all_64_tuples():
    # lambda = [I | B] on the tower cube, B's columns on vertices 2, 4, 6:
    # the census's validity is the integer admissibility of the 0/1 lift, and
    # on valid tuples its kernel dimension is the engine's.  Witnesses are not
    # compared: the engine's H^2 basis is (v6, v4, v2), and the kernel basis
    # it picks may differ.
    P, _ = generalized_bott([1, 1, 1])
    census = cube_census()
    for entry in census.entries:
        a, b, c, d, e, f = entry.params
        B = [[1, a, b], [c, 1, d], [e, f, 1]]
        lam = CharacteristicMatrix.from_rows(
            [[int(r == i) if k == 0 else B[r][i] for i in range(3) for k in (0, 1)]
             for r in range(3)]
        )
        assert validate_characteristic(P, lam).valid == entry.valid, entry.params
        if entry.valid:
            v = squaring_kernel(cohomology_ring(P, lam, "F2"))
            assert v.witness["kernel_dimension"] == entry.witness["kernel_dimension"]


def test_cube_census_spot_checked_determinants():
    # five tuples checked by hand against the cofactor expansion of
    # [[1,c,e],[a,1,f],[b,d,1]] over F2
    assert cube_determinant_f2(0, 0, 0, 0, 0, 0) == 1  # identity
    assert cube_determinant_f2(1, 0, 0, 1, 1, 0) == 0  # 1 - fd - ca + cfb + ead - eb = 1+1
    assert cube_determinant_f2(0, 1, 0, 1, 1, 0) == 0  # eb term kills it
    assert cube_determinant_f2(1, 1, 0, 1, 1, 0) == 1  # dets fine; pair be fails instead
    assert cube_determinant_f2(0, 0, 1, 0, 0, 1) == 1  # valid with witness x


def test_p_local_note():
    P, lam = fixtures.load_quasitoric("cp2")
    note = p_local_note(P, lam)
    assert note["computed"] is False and "statement" in note
    hopf = p_local_note(*fixtures.load_quasitoric("cp1"))
    assert "Hopf" in hopf["special_case"]
    with pytest.raises(InputError):
        p_local_note(SQUARE[0], CharacteristicMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 2]]))
