"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints a single PASS/FAIL line (run pytest with -s to see the
PASS lines; a FAIL line always reaches the report through the assertion
message).  Expected values are either frozen small-instance answers checked
against independent brute-force oracles computed here, or exhaustive
property sweeps.
"""

import json
import random

from conftest import (
    brute_reduced_betti,
    f2_rank,
    face_counts_by_card,
    fraction_rank,
    graded_tensor_unreduced,
    h_from_f_polynomial,
    pascal_parity_table,
    random_complex_faces,
    reduce_ranks,
    unreduce,
)
from torictop import (
    EvenBettiData,
    IntegerMatrix,
    cohomology_ring,
    cube_census,
    dehn_sommerville_report,
    eigen_scalar,
    f_vector,
    h_vector,
    h_vector_of,
    join,
    moment_angle_homology,
    polygon_polytope,
    primitive_root,
    reduced_homology,
    simplex_boundary,
    simplex_polytope,
    smith_normal_form,
    split,
    squaring_kernel,
    steenrod_hit_search,
    suspension_triviality_check,
    validate_complex,
)
from torictop import fixtures
from torictop.cli import main as cli_main
from torictop.linalg import echelon


def _line(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {n}: {status}" + (f" ({detail})" if detail else "")
    print(msg)
    return msg


def all_polytope_fixtures():
    return [fixtures.load_polytope(n) for n in fixtures.names()]


def test_criterion_1_h_vectors():
    failures = []
    for k in range(3, 9):
        got = h_vector_of(polygon_polytope(k)).entries
        if got != (1, k - 2, 1):
            failures.append(f"{k}-gon: {got}")
    for n in range(1, 6):
        if h_vector_of(simplex_polytope(n)).entries != (1,) * (n + 1):
            failures.append(f"simplex{n}")
    cube = fixtures.load_polytope("cube3")
    if h_vector_of(cube).entries != (1, 3, 3, 1):
        failures.append("cube3")
    # independent oracle: brute-force face counting plus the generating
    # polynomial, for every bundled polytope
    for P in all_polytope_fixtures():
        counts = face_counts_by_card(P.complex.maximal_faces)
        f = f_vector(P)
        if f.entries != tuple(counts.get(c, 0) for c in range(P.n + 1)):
            failures.append(f"f-vector mismatch at n={P.n}, m={P.m}")
        if h_vector(f, P.n).entries != h_from_f_polynomial(f.entries, P.n):
            failures.append(f"h formula mismatch at n={P.n}, m={P.m}")
        ds = dehn_sommerville_report(h_vector(f, P.n))
        if not ds.symmetric:
            failures.append(f"asymmetric h at n={P.n}, m={P.m}")
    assert not failures, _line(1, False, "; ".join(failures))
    _line(1, True, "h-vectors, oracle match, symmetry")


def test_criterion_2_moment_angle():
    failures = []
    for n in range(1, 6):
        got = moment_angle_homology(simplex_boundary(n)).as_dict()
        if got != {2 * n + 1: (1, ())}:
            failures.append(f"simplex boundary {n}: {got}")
    prism = join(simplex_boundary(1), simplex_boundary(2))
    got = moment_angle_homology(prism).as_dict()
    if got != {3: (1, ()), 5: (1, ()), 8: (1, ())}:
        failures.append(f"segment x triangle: {got}")
    # Kuenneth consistency on five join pairs, over a field
    pairs = [
        (simplex_boundary(1), simplex_boundary(1)),
        (simplex_boundary(1), simplex_boundary(2)),
        (simplex_boundary(2), simplex_boundary(2)),
        (simplex_boundary(1), polygon_polytope(4).complex),
        (polygon_polytope(5).complex, simplex_boundary(1)),
    ]
    for K1, K2 in pairs:
        def ranks(K):
            return {d: r for d, (r, _) in moment_angle_homology(K, "Q").as_dict().items()}

        left = ranks(join(K1, K2))
        want = reduce_ranks(
            graded_tensor_unreduced(unreduce(ranks(K1)), unreduce(ranks(K2)))
        )
        if left != want:
            failures.append(f"Kuenneth m={K1.m}+{K2.m}: {left} != {want}")
    # 2-connectivity on all polytope duals
    for P in all_polytope_fixtures():
        h = moment_angle_homology(P.complex, "F2")
        if any(d < 3 for d in h.degrees()):
            failures.append(f"not 2-connected: n={P.n}, m={P.m}")
    assert not failures, _line(2, False, "; ".join(failures))
    _line(2, True, "spheres, products, Kuenneth, 2-connectivity")


def test_criterion_3_quasitoric_cohomology():
    failures = []
    for name in fixtures.quasitoric_names():
        P, lam = fixtures.load_quasitoric(name)
        h = h_vector_of(P).entries
        for coeff in ("Q", "F2", "F3", "F5"):
            pres = cohomology_ring(P, lam, coeff)
            if pres.dims_even() != h:
                failures.append(f"{name}/{coeff}: dims {pres.dims_even()} != h {h}")
            if any(pres.dim(2 * k + 1) != 0 for k in range(P.n + 1)):
                failures.append(f"{name}/{coeff}: odd degree nonzero")
            p = 0 if coeff == "Q" else int(coeff[1:])
            for k in range(1, P.n):
                rows = [list(cell) for row in pres.mult_h2[k] for cell in row]
                if len(echelon(rows, p)) != len(pres.basis[k + 1]):
                    failures.append(f"{name}/{coeff}: degree 2 fails to generate 2^{k + 1}")
        # internal-consistency exit code 3 must never fire on valid fixtures
        rc = cli_main(["qtm", "--fixture", name, "--coeff", "F2", "--output", "/dev/null"])
        if rc != 0:
            failures.append(f"{name}: CLI exit {rc}")
    assert not failures, _line(3, False, "; ".join(failures))
    _line(3, True, "dims = h-vector over Q, F2, F3, F5; degree-2 generation")


def test_criterion_4_splitting():
    failures = []
    for p in (3, 5, 7, 11):
        u = primitive_root(p)
        for i in range(1, p):
            for k in range(41):
                vanishes = eigen_scalar(p, u, i, k) == 0
                if vanishes != ((k - i) % (p - 1) != 0):
                    failures.append(f"eigen pattern p={p} i={i} k={k}")
    pieces = split(EvenBettiData(3, (1, 1, 1, 1)), 5)
    got = [s.homology.as_dict() for s in pieces]
    if got != [{3: (1, ())}, {5: (1, ())}, {7: (1, ())}, {}]:
        failures.append(f"projective 3-space at p=5: {got}")
    # rigidity: two different characteristic matrices over the square give
    # byte-identical split results
    outs = []
    for name in ("cp1xcp1", "hirzebruch"):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(["split", "--fixture", name, "--p", "5"])
        assert rc == 0
        outs.append(json.dumps(json.loads(buf.getvalue())["results"], sort_keys=True))
    if outs[0] != outs[1]:
        failures.append("split reports differ over the square")
    assert not failures, _line(4, False, "; ".join(failures[:4]))
    _line(4, True, "eigen pattern p<=11 k<=40, sphere wedges, rigidity")


def test_criterion_5_projection_triviality():
    failures = []
    certify = [
        ("simplex2", 5),
        ("polygon4", 3),
        ("polygon4", 5),
        ("cube3", 5),
        ("cube3", 7),
    ]
    # the triangle at p=3 must be refused: the quotient S^5 -> CP^2 has
    # cofibre CP^3, where P^1 x = x^3 != 0 in H^6(CP^3; F_3), so the
    # suspended 3-local map stays essential.  The summand that cannot be
    # certified is the full subset, the suspended circle S^6 -> S^3 on the
    # first 3-torsion line 2(i+p-1) = 6.
    refuse = ("simplex2", 3)
    for name, p in certify + [refuse]:
        P = fixtures.load_polytope(name)
        t = suspension_triviality_check(P, p)
        if len(t.summands) != 2**P.m - 1:
            failures.append(f"({name}, p={p}): grouping misses subsets")
        if (name, p) == refuse:
            if t.applicable is not True:
                failures.append(f"{name} at p={p} gave no overall verdict")
            elif t.certified is not False:
                failures.append(f"{name} at p={p} was certified")
            elif t.uncertified_subsets() != [(1, 2, 3)]:
                failures.append(
                    f"{name} at p={p} refused on a different subset: "
                    f"{t.uncertified_subsets()}"
                )
            else:
                c = next(c for c in t.summands if not c.certified)
                got = (c.group, c.details.get("source_degrees"),
                       c.details.get("target_sphere"))
                if got != (1, [6], 3):
                    failures.append(
                        f"{name} at p={p} refused I=(1, 2, 3) for another reason: "
                        f"(group, source_degrees, target_sphere) = {got}"
                    )
            continue
        kinds_ok = all(
            c.kind in ("simplex", "dimension", "vanishing-range") for c in t.summands
        )
        if not (t.applicable and t.certified and kinds_ok):
            failures.append(
                f"({name}, p={p}): certified={t.certified}, "
                f"uncertified={t.uncertified_subsets()}"
            )
    assert not failures, _line(5, False, "; ".join(failures))
    _line(
        5,
        True,
        "five pairs certified with covering certificates; "
        "simplex2 at p=3 refused on I=(1, 2, 3)",
    )


def test_criterion_6_nontriviality():
    failures = []
    census = cube_census()
    if census.valid_count != 25 or census.uncertified:
        failures.append(
            f"census: {census.valid_count} valid, uncertified {census.uncertified}"
        )
    polygon_fixtures = ["cp1xcp1"] + [f"qtm_polygon{k}" for k in range(5, 9)]
    for name in polygon_fixtures:
        P, lam = fixtures.load_quasitoric(name)
        v = squaring_kernel(cohomology_ring(P, lam, "F2"))
        if v.conclusion != "not-null":
            failures.append(f"{name}: {v.conclusion}")
    rows = pascal_parity_table(512)
    for s in range(1, 513):
        brute = None
        for j in range(1, s // 2 + 1):
            if rows[s - j][j] % 2:
                brute = (s - j, j)
                break
        got = steenrod_hit_search(s)
        if got != brute:
            failures.append(f"hit search s={s}: {got} != {brute}")
        if (got is None) != (((s + 1) & s) == 0):
            failures.append(f"hit search none-pattern s={s}")
    assert not failures, _line(6, False, "; ".join(failures[:4]))
    _line(6, True, "cube census 25/25 witnesses, polygons witness, Lucas oracle")


def test_criterion_7_engine_properties():
    failures = []
    rng = random.Random(2024)
    for trial in range(200):
        m = rng.randint(3, 7)
        faces = random_complex_faces(rng, m, rng.randint(1, 6), 4)
        K = validate_complex(faces, m)
        hz = reduced_homology(K, "Z")
        h2 = reduced_homology(K, "F2")
        oracle_q = brute_reduced_betti(K.maximal_faces, fraction_rank)
        oracle_2 = brute_reduced_betti(K.maximal_faces, f2_rank)
        if {d: r for d, (r, _) in hz.as_dict().items() if r} != oracle_q:
            failures.append(f"trial {trial}: integral ranks disagree with Q oracle")
        if {d: r for d, (r, _) in h2.as_dict().items()} != oracle_2:
            failures.append(f"trial {trial}: F2 dims disagree with F2 oracle")
        degrees = set(hz.degrees()) | set(h2.degrees())
        for d in degrees:
            want = (
                hz.rank(d)
                + sum(1 for t in hz.torsion(d) if t % 2 == 0)
                + sum(1 for t in hz.torsion(d - 1) if t % 2 == 0)
            )
            if h2.rank(d) != want:
                failures.append(f"trial {trial}: universal coefficients at degree {d}")
    for trial in range(500):
        rows = [
            [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 5))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        d = smith_normal_form(IntegerMatrix.from_rows(rows)).diagonal
        if any(d[i + 1] % d[i] for i in range(len(d) - 1)) or any(x <= 0 for x in d):
            failures.append(f"matrix trial {trial}: divisibility chain broken: {d}")
        if len(d) != fraction_rank(rows):
            failures.append(f"matrix trial {trial}: rank disagrees with oracle")
    assert not failures, _line(7, False, "; ".join(failures[:4]))
    _line(7, True, "200 complexes vs rank oracles, 500 matrices SNF chain")
