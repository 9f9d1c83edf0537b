import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    face_counts_by_card,
    h_from_f_polynomial,
    pairwise_maximal_faces,
    powerset_faces,
    run_python,
)
from torictop import (
    CapExceededError,
    HVector,
    InputError,
    PolytopeDual,
    dehn_sommerville_report,
    fixtures,
    f_vector,
    full_subcomplex,
    h_vector,
    h_vector_of,
    join,
    polygon_boundary,
    polygon_polytope,
    reduced_homology,
    simplex_boundary,
    simplex_polytope,
    validate_complex,
)
from torictop.complexes import SimplicialComplex, _maximal, _vertices_of, require_face_work


def test_validate_four_cycle():
    K = validate_complex([[1, 2], [2, 3], [3, 4], [4, 1]], 4)
    assert K.dim == 1
    assert set(K.maximal_faces) == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_validate_absorbs_redundant_faces():
    K = validate_complex([[1, 2], [2], [1]], 2)
    assert K.maximal_faces == ((1, 2),)
    assert K.dim == 1


def test_validate_rejects_out_of_range_vertex():
    with pytest.raises(InputError):
        validate_complex([[1, 5]], 4)


def test_validate_rejects_empty_with_no_vertices():
    with pytest.raises(InputError):
        validate_complex([], 0)


def test_validate_rejects_oversized_vertex_set():
    with pytest.raises(InputError):
        validate_complex([[1]], 64)


def test_empty_complex_with_ghosts():
    K = validate_complex([], 3)
    assert K.masks == (0,)
    assert K.dim == -1
    assert not K.is_cone()


def test_full_subcomplex_examples():
    cyc = validate_complex([[1, 2], [2, 3], [3, 4], [4, 1]], 4)
    diag = full_subcomplex(cyc, [1, 3])
    assert diag.m == 2 and set(diag.maximal_faces) == {(1,), (2,)}
    assert diag.labels == (1, 3)

    pt = full_subcomplex(cyc, [2])
    assert pt.maximal_faces == ((1,),)

    tri = simplex_boundary(2)
    assert full_subcomplex(tri, [1, 2, 3]) == tri


def test_full_subcomplex_preserves_ghosts():
    K = validate_complex([[1, 2]], 4)
    sub = full_subcomplex(K, [3, 4])
    assert sub.m == 2
    assert sub.masks == (0,)


def test_full_subcomplex_monotone():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(3, 7)
        faces = [
            sorted(rng.sample(range(1, m + 1), rng.randint(1, min(3, m))))
            for _ in range(rng.randint(1, 5))
        ]
        K = validate_complex(faces, m)
        J = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
        I = sorted(rng.sample(J, rng.randint(1, len(J))))
        KJ = full_subcomplex(K, J)
        # indices of I inside the relabeled K_J
        I_in_J = [KJ.labels.index(v) + 1 for v in I]
        assert full_subcomplex(K, I) == full_subcomplex(KJ, I_in_J)


@st.composite
def face_lists(draw):
    """(m, masks): faces on m <= 63 vertices, up to the top bit of a mask, of
    mixed sizes, with faces inside others, duplicates and the empty face, in
    a drawn order."""
    m = draw(st.integers(1, 63))
    full = (1 << m) - 1
    tops = draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
    cuts = draw(st.lists(st.tuples(st.sampled_from(tops), st.integers(0, full)), max_size=20))
    repeats = draw(st.lists(st.sampled_from(tops), max_size=4))
    faces = tops + [t & c for t, c in cuts] + repeats + [0] * draw(st.integers(0, 2))
    return m, draw(st.permutations(faces))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(face_lists(), st.data())
def test_maximal_faces_match_the_pairwise_filter(drawn, data):
    m, faces = drawn
    want = pairwise_maximal_faces(faces)
    assert _maximal(faces) == want
    K = validate_complex([list(_vertices_of(f)) for f in faces], m)
    assert K.masks == tuple(want)
    I = sorted(data.draw(st.sets(st.integers(1, m), min_size=1)))
    imask = sum(1 << (v - 1) for v in I)
    restricted = pairwise_maximal_faces(f & imask for f in K.masks)
    KI = full_subcomplex(K, I)
    assert KI.labels == tuple(I)
    got = [tuple(KI.labels[v - 1] for v in f) for f in KI.maximal_faces]
    assert got == [_vertices_of(f) for f in restricted if f]


def random_faces(rng, count, size, m):
    faces: set[tuple[int, ...]] = set()
    while len(faces) < count:
        faces.add(tuple(sorted(rng.sample(range(1, m + 1), size))))
    return sorted(faces)


def assert_validated_then_refused(path, kept, message):
    """In a child under a 10 s timeout: ``validate_complex`` keeps ``kept``
    maximal faces of the input at ``path``, and ``hvec`` refuses it with exit 2."""
    proc = run_python(f"""
import json, pathlib, subprocess, sys
from torictop import validate_complex
obj = json.loads(pathlib.Path({str(path)!r}).read_text())["complex"]
assert len(validate_complex(obj["facets"], obj["m"]).masks) == {kept}
proc = subprocess.run([sys.executable, "-m", "torictop.cli", "hvec", "--input", {str(path)!r}],
                      capture_output=True, text=True)
assert proc.returncode == 2, proc.stderr
assert {message!r} in proc.stderr, proc.stderr
""", timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_validating_twenty_thousand_facets_takes_linear_time(tmp_path):
    # 20 000 distinct 4-vertex facets on 40 vertices: a pure list, on which a
    # quadratic maximal-face filter spent over 20 s before the input was refused
    facets = random_faces(random.Random(20000), 20000, 4, 40)
    path = tmp_path / "facets.json"
    path.write_text(json.dumps({"n": 4, "complex": {"m": 40, "facets": facets}}))
    assert_validated_then_refused(path, 20000, "not a pseudomanifold")


def test_validating_a_mixed_face_list_scans_no_pairs(tmp_path):
    # 16 000 distinct 4-vertex and 16 000 distinct 3-vertex faces on 60
    # vertices: a mixed list, on which comparing each smaller face with the
    # larger kept ones took 14 s a validation (2-core Xeon, Python 3.11)
    rng = random.Random(60)
    large, small = random_faces(rng, 16000, 4, 60), random_faces(rng, 16000, 3, 60)
    path = tmp_path / "faces.json"
    path.write_text(json.dumps({"n": 4, "complex": {"m": 60, "facets": large + small}}))
    covered = {f[:i] + f[i + 1:] for f in large for i in range(4)}
    assert_validated_then_refused(path, 16000 + sum(f not in covered for f in small), "not pure")


def test_a_pure_face_list_never_reads_a_vertex():
    # faces of one size are never tested against each other, and those of
    # the smallest size never enter the holder bitsets, so a pure list is
    # kept without reading a vertex of any face
    class Unread(int):
        def __and__(self, other):
            raise AssertionError("a face of a pure list was read")

    faces = [Unread(f) for f in (0b0111, 0b1011, 0b1101, 0b1110, 0b0111)]
    assert _maximal(faces) == [0b0111, 0b1011, 0b1101, 0b1110]
    assert _maximal([Unread(0)]) == [0]


def brute_minimal_non_faces(K):
    """Every vertex subset of K that is no face while all its facets are."""
    faces = {frozenset(f) for f in powerset_faces(K.maximal_faces)}
    out = []
    for mask in range(1 << K.m):
        I = frozenset(v + 1 for v in range(K.m) if mask >> v & 1)
        if I not in faces and all(I - {v} in faces for v in I):
            out.append(mask)
    return out


def test_minimal_non_faces_examples():
    assert polygon_boundary(4).minimal_non_faces() == [0b0101, 0b1010]
    assert simplex_boundary(2).minimal_non_faces() == [0b111]
    # a ghost vertex is a minimal non-face on its own; the full simplex has none
    assert validate_complex([[1, 2]], 3).minimal_non_faces() == [0b100]
    assert validate_complex([], 2).minimal_non_faces() == [0b01, 0b10]
    assert validate_complex([[1, 2, 3]], 3).minimal_non_faces() == []


@pytest.mark.parametrize("name", fixtures.names())
def test_minimal_non_faces_match_brute_force_on_fixtures(name):
    K = fixtures.load_polytope(name).complex
    assert K.minimal_non_faces() == brute_minimal_non_faces(K)


@st.composite
def complexes_with_ghosts(draw):
    m = draw(st.integers(1, 8))
    ghosts = draw(st.integers(0, min(2, m)))
    used = m - ghosts
    faces = []
    if used:
        faces = draw(st.lists(st.lists(st.integers(1, used), min_size=1, max_size=5), max_size=6))
    return validate_complex(faces, m)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(complexes_with_ghosts())
def test_minimal_non_faces_match_brute_force_on_random_complexes(K):
    assert K.minimal_non_faces() == brute_minimal_non_faces(K)


def test_join_is_square():
    # enumerate by hand: every pair of endpoints, one from each segment
    s0 = validate_complex([[1], [2]], 2)
    sq = join(s0, s0)
    assert sq.m == 4
    assert set(sq.maximal_faces) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert sq.dim == 1
    assert reduced_homology(sq).as_dict() == {1: (1, ())}


def test_join_with_point_is_cone():
    K = polygon_boundary(4)
    cone = join(K, validate_complex([[1]], 1))
    assert cone.is_cone()
    assert reduced_homology(cone).is_trivial()


def test_join_segment_triangle():
    K = join(simplex_boundary(1), simplex_boundary(2))
    assert K.m == 5 and K.dim == 2
    assert len(K.maximal_faces) == 6  # 2 x 3
    # the join of S^0 and S^1 is S^2
    assert reduced_homology(K).as_dict() == {2: (1, ())}


def test_join_associative_and_dim_additive():
    A = simplex_boundary(1)
    B = polygon_boundary(3)
    C = validate_complex([[1], [2], [3]], 3)
    assert join(join(A, B), C) == join(A, join(B, C))
    assert join(A, B).dim == A.dim + B.dim + 1


def test_f_vector_examples():
    assert f_vector(simplex_polytope(2)).entries == (1, 3, 3)
    assert f_vector(polygon_polytope(4)).entries == (1, 4, 4)
    cube = PolytopeDual(n=3, complex=join(join(simplex_boundary(1), simplex_boundary(1)), simplex_boundary(1)))
    assert f_vector(cube).entries == (1, 6, 12, 8)


def test_f_vector_against_powerset_count():
    for P in [simplex_polytope(3), polygon_polytope(6), polygon_polytope(8)]:
        counts = face_counts_by_card(P.complex.maximal_faces)
        assert f_vector(P).entries == tuple(counts.get(c, 0) for c in range(P.n + 1))


def test_h_vector_examples():
    for k in range(3, 9):
        assert h_vector_of(polygon_polytope(k)).entries == (1, k - 2, 1)
    assert h_vector_of(simplex_polytope(3)).entries == (1, 1, 1, 1)
    cube = PolytopeDual(n=3, complex=join(join(simplex_boundary(1), simplex_boundary(1)), simplex_boundary(1)))
    assert h_vector_of(cube).entries == (1, 3, 3, 1)


def test_h_vector_against_polynomial_oracle():
    polys = [simplex_polytope(n) for n in range(1, 6)]
    polys += [polygon_polytope(k) for k in range(3, 9)]
    polys.append(PolytopeDual(n=3, complex=join(simplex_boundary(1), polygon_boundary(5))))
    for P in polys:
        f = f_vector(P)
        assert h_vector(f, P.n).entries == h_from_f_polynomial(f.entries, P.n)


def test_h_vector_sums_to_vertex_count():
    for P in [simplex_polytope(4), polygon_polytope(7)]:
        h = h_vector_of(P)
        assert sum(h.entries) == f_vector(P).f(P.n - 1)
        assert h.entries[0] == 1 and h.entries[-1] == 1


def test_h_vector_of_product_is_convolution():
    for n1, n2 in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        P = PolytopeDual(n=n1 + n2, complex=join(simplex_boundary(n1), simplex_boundary(n2)))
        h1 = h_vector_of(simplex_polytope(n1)).entries
        h2 = h_vector_of(simplex_polytope(n2)).entries
        conv = [0] * (n1 + n2 + 1)
        for i, a in enumerate(h1):
            for j, b in enumerate(h2):
                conv[i + j] += a * b
        assert h_vector_of(P).entries == tuple(conv)


def test_dehn_sommerville():
    r = dehn_sommerville_report(HVector((1, 3, 3, 1)))
    assert r.symmetric and r.h1_ge_h2
    assert dehn_sommerville_report(HVector((1, 2, 1))).symmetric
    bad = dehn_sommerville_report(HVector((1, 2, 3)))
    assert not bad.symmetric and bad.asymmetric_indices


def test_polytope_rejects_impure_complex():
    K = validate_complex([[1, 2, 3], [3, 4]], 4)
    with pytest.raises(InputError):
        PolytopeDual(n=3, complex=K)


def test_polytope_rejects_pseudomanifold_failure():
    # three triangles sharing an edge
    K = validate_complex([[1, 2, 3], [1, 2, 4], [1, 2, 5]], 5)
    with pytest.raises(InputError, match="pseudomanifold"):
        PolytopeDual(n=3, complex=K)


def test_polytope_rejects_wrong_euler_characteristic():
    # a minimal triangulation of the real projective plane: pure, every edge
    # in two triangles, but the Euler characteristic is not that of a sphere
    rp2 = validate_complex(
        [[1, 2, 3], [1, 3, 4], [1, 2, 6], [1, 4, 5], [1, 5, 6],
         [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]], 6)
    with pytest.raises(InputError, match="Euler"):
        PolytopeDual(n=3, complex=rp2)


def test_face_work_cap_is_inclusive():
    require_face_work(1 << 11, 11)  # 2^22 subsets: at the cap
    with pytest.raises(CapExceededError, match="2049 maximal faces of 11 vertices would visit 4196352 subsets"):
        require_face_work((1 << 11) + 1, 11)


def test_polytope_refuses_a_face_listing_above_the_cap_before_it_starts(monkeypatch):
    K = join(join(simplex_boundary(5), simplex_boundary(5)), simplex_boundary(5))

    def enumerated(self):
        raise AssertionError("faces enumerated before the cap check")

    monkeypatch.setattr(SimplicialComplex.__dict__["_faces"], "func", enumerated)
    with pytest.raises(CapExceededError, match="216 maximal faces of 15 vertices would visit 7077888"):
        PolytopeDual(n=15, complex=K)


def test_polytope_rejects_ghost_vertex():
    K = validate_complex([[1], [2]], 3)
    with pytest.raises(InputError, match="ghost"):
        PolytopeDual(n=1, complex=K)


def test_segment_is_a_valid_one_polytope():
    P = simplex_polytope(1)
    assert P.m == 2
    assert h_vector_of(P).entries == (1, 1)


def test_module_doctests():
    import doctest

    import torictop.complexes
    import torictop.splitting

    for mod in (torictop.complexes, torictop.splitting):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
