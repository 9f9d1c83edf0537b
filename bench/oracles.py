"""Independent checks of torictop reports.

Every check reads the parsed JSON report and recomputes what it must say
from closed forms or brute force; nothing here imports torictop, and no check
compares report bytes or digests.  ``check(spec, report)`` returns a list of
problems, empty when the report is correct.
"""

from __future__ import annotations

import itertools
import math


def face_counts(facets) -> dict[int, int]:
    """Number of faces of each cardinality, by enumerating subsets of facets."""
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(len(f) + 1):
            faces.update(itertools.combinations(f, r))
    counts: dict[int, int] = {}
    for f in faces:
        counts[len(f)] = counts.get(len(f), 0) + 1
    return counts


def h_vector(facets, n: int) -> list[int]:
    """h-vector from brute-force face counts: sum_i f_{i-1} (t-1)^(n-i)."""
    counts = face_counts(facets)
    poly = [0] * (n + 1)
    for i in range(n + 1):
        e = n - i
        for d in range(e + 1):
            poly[d] += counts.get(i, 0) * math.comb(e, d) * (-1) ** (e - d)
    return [poly[n - k] for k in range(n + 1)]


def tower_h(dims) -> list[int]:
    """Coefficients of the product of (1 + t + ... + t^d) over the stages."""
    poly = [1]
    for d in dims:
        out = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            for j in range(d + 1):
                out[i + j] += c
        poly = out
    return poly


def mcgavran_ranks(m: int) -> dict[int, int]:
    """Reduced Betti numbers of the moment-angle manifold of the m-gon.

    It is a connected sum over 3 <= k <= m-1 of (k-2) C(m-2, k-1) copies of
    S^k x S^(m+2-k) (McGavran), so degree k collects both sphere factors.
    """
    ranks = {m + 2: 1}
    for k in range(3, m):
        r = (k - 2) * math.comb(m - 2, k - 1) + (m - k) * math.comb(m - 2, k - 3)
        if r:
            ranks[k] = r
    return ranks


def odd_sphere_product_ranks(dims) -> dict[int, int]:
    """Reduced Betti numbers of the product of the spheres S^(2d+1) (Kunneth)."""
    ranks: dict[int, int] = {}
    for r in range(1, len(dims) + 1):
        for combo in itertools.combinations(dims, r):
            deg = sum(2 * d + 1 for d in combo)
            ranks[deg] = ranks.get(deg, 0) + 1
    return ranks


def _totals(results) -> tuple[dict[int, int], list[str]]:
    ranks = {}
    problems = []
    for g in results["total"]:
        ranks[g["degree"]] = g["rank"]
        if g["torsion"]:
            problems.append(f"unexpected torsion {g['torsion']} in degree {g['degree']}")
    return ranks, problems


def _check_sphere(spec, results) -> list[str]:
    """Z_K of an (n-1)-sphere on m vertices is a 2-connected (m+n)-manifold."""
    n, m = spec["n"], spec["m"]
    top = m + n
    ranks, problems = _totals(results)
    if results["m"] != m:
        problems.append(f"m is {results['m']}, expected {m}")
    if ranks.get(top) != 1:
        problems.append(f"top class in degree {top} has rank {ranks.get(top)}, expected 1")
    if set(ranks) - set(range(3, top + 1)):
        problems.append(f"homology outside degrees 3..{top}: {sorted(ranks)}")
    for d in range(1, top):
        if ranks.get(d, 0) != ranks.get(top - d, 0):
            problems.append(f"Poincare duality fails: b_{d} != b_{top - d}")
            break
    if 1 + sum((-1) ** d * r for d, r in ranks.items()) != 0:
        problems.append("Euler characteristic is not 0")
    if len(results["summands"]) + results["trivial_count"] != 2**m - 1:
        problems.append("summands plus trivial count do not cover the 2^m - 1 subsets")
    return problems


def _check_exact(expected: dict[int, int], results) -> list[str]:
    ranks, problems = _totals(results)
    if ranks != expected:
        problems.append(f"totals {sorted(ranks.items())} differ from {sorted(expected.items())}")
    return problems


def _check_qtm(spec, results, facets) -> list[str]:
    n = spec["n"]
    want = h_vector(facets, n)
    problems = []
    if results["h"] != want:
        problems.append(f"h is {results['h']}, face counts give {want}")
    dims = [results["dims"].get(str(2 * k)) for k in range(n + 1)]
    if dims != want:
        problems.append(f"dims {dims} differ from the h-vector {want}")
    if "dims" in spec and dims != tower_h(spec["dims"]):
        problems.append(f"dims {dims} differ from the tower polynomial {tower_h(spec['dims'])}")
    return problems


def _group_of(size: int, p: int) -> int:
    return (size - 1) % (p - 1) + 1


def _check_projection(spec, results) -> list[str]:
    """Every nonempty subset appears exactly once, in the group of its size."""
    m, p = spec["m"], spec["p"]
    problems = []
    groups = results["decomposition"]["groups"]
    if sorted(int(i) for i in groups) != list(range(1, p)):
        problems.append(f"groups {sorted(groups)} are not 1..{p - 1}")
    seen = []
    for i, g in groups.items():
        for s in g["summands"]:
            seen.append(tuple(s["I"]))
            if _group_of(len(s["I"]), p) != int(i):
                problems.append(f"subset {s['I']} filed in group {i}")
    everything = sorted(
        c for r in range(1, m + 1) for c in itertools.combinations(range(1, m + 1), r)
    )
    if sorted(seen) != everything:
        problems.append(f"groups hold {len(seen)} subsets, {len(set(seen))} distinct; "
                        f"expected each of the {2**m - 1} exactly once")
    trivial = sorted(tuple(s["I"]) for s in results["triviality"]["summands"])
    if trivial != everything:
        problems.append("triviality summands do not cover every subset exactly once")
    return problems


def _check_split(spec, results) -> list[str]:
    n, p = spec["n"], spec["p"]
    b = tower_h(spec["dims"])
    problems = []
    if results["betti"] != b:
        problems.append(f"betti {results['betti']} differ from {b}")
    if results["form"] != ("sphere-wedge" if p > n else "general"):
        problems.append(f"form {results['form']} is wrong for p={p}, n={n}")
    pieces = results["pieces"]
    if [x["i"] for x in pieces] != list(range(1, p)):
        problems.append("pieces are not numbered 1..p-1")
    for piece in pieces:
        want = {2 * k + 1: b[k] for k in range(1, n + 1)
                if b[k] and (k - piece["i"]) % (p - 1) == 0}
        got = {g["degree"]: g["rank"] for g in piece["homology"]}
        if got != want:
            problems.append(f"piece {piece['i']} has homology {got}, expected {want}")
    return problems


def _f2_det(rows) -> int:
    """Determinant mod 2 by expansion over permutations."""
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        total ^= all(rows[i][perm[i]] for i in range(k))
    return total


def cube_valid_params() -> set[tuple[int, ...]]:
    """Parameters (a..f) whose matrix [[1,c,e],[a,1,f],[b,d,1]] has every
    principal minor odd, the mod-2 shadow of admissibility over the 3-cube."""
    out = set()
    for bits in itertools.product((0, 1), repeat=6):
        a, b, c, d, e, f = bits
        A = [[1, c, e], [a, 1, f], [b, d, 1]]
        minors = [
            [[A[i][j] for j in idx] for i in idx]
            for r in (1, 2, 3) for idx in itertools.combinations(range(3), r)
        ]
        if all(_f2_det(M) for M in minors):
            out.add(bits)
    return out


def _check_cube_census(results) -> list[str]:
    valid = cube_valid_params()
    problems = []
    if results["total"] != 64:
        problems.append(f"total is {results['total']}, expected 64")
    if results["valid_count"] != len(valid):
        problems.append(f"valid_count {results['valid_count']}, enumeration gives {len(valid)}")
    listed = {tuple(e["params"]) for e in results["entries"]}
    if listed != valid:
        problems.append("listed valid entries differ from the enumeration")
    if results["uncertified"]:
        problems.append("an admissible presentation went without a witness")
    return problems


def _check_nontrivial(spec, results) -> list[str]:
    verdict = results["verdict"]
    if verdict["conclusion"] not in ("not-null", "inconclusive"):
        return [f"unknown conclusion {verdict['conclusion']!r}"]
    if verdict["conclusion"] == "not-null" and not any(verdict["witness"]["coefficients"]):
        return ["not-null verdict with a zero witness"]
    if "dims" in spec and verdict["witness"] is not None:
        if len(verdict["witness"]["generators"]) != len(spec["dims"]):
            return ["witness generators do not span H^2 of the tower"]
    return []


def _is_power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def _check_two_simplices(spec, results) -> list[str]:
    n, k = spec["n"], spec["k"]
    if k in (0, n):
        want = "not-null"
    else:
        want = "inconclusive" if _is_power_of_two(n + 2) or _is_power_of_two(n - k + 2) else "not-null"
    got = results["verdict"]["conclusion"]
    return [] if got == want else [f"conclusion {got}, expected {want} for n={n}, k={k}"]


def _check_hvec(spec, results, facets) -> list[str]:
    n = spec["n"]
    counts = face_counts(facets)
    problems = []
    if results["f"] != [counts.get(i, 0) for i in range(n + 1)]:
        problems.append(f"f {results['f']} differs from brute-force face counts")
    h = h_vector(facets, n)
    if results["h"] != h:
        problems.append(f"h {results['h']} differs from {h}")
    if not results["dehn_sommerville"]["symmetric"]:
        problems.append("a sphere's h-vector must be symmetric")
    return problems


def _check_bott(spec, results) -> list[str]:
    problems = []
    if results["lambda"] != spec["lambda"]:
        problems.append("characteristic matrix differs from the tower construction")
    if results["h"] != tower_h(spec["dims"]):
        problems.append(f"h {results['h']} differs from {tower_h(spec['dims'])}")
    return problems


def _facets(job_input) -> list:
    P = job_input["polytope"] if "polytope" in job_input else job_input
    return P["complex"]["facets"]


def check(spec: dict, report: dict, job_input: dict | None) -> list[str]:
    """Problems with ``report`` for a job whose oracle spec is ``spec``."""
    kind = spec["kind"]
    results = report["results"]
    if kind == "zk-sphere":
        return _check_sphere(spec, results)
    if kind == "zk-polygon":
        return _check_sphere(spec, results) + _check_exact(mcgavran_ranks(spec["m"]), results)
    if kind == "zk-join":
        return _check_sphere(spec, results) + _check_exact(
            odd_sphere_product_ranks(spec["dims"]), results)
    if kind == "qtm":
        return _check_qtm(spec, results, _facets(job_input))
    if kind == "projection":
        return _check_projection(spec, results)
    if kind == "split":
        return _check_split(spec, results)
    if kind == "cube-census":
        return _check_cube_census(results)
    if kind == "nontrivial":
        return _check_nontrivial(spec, results)
    if kind == "two-simplices":
        return _check_two_simplices(spec, results)
    if kind == "hvec":
        return _check_hvec(spec, results, _facets(job_input))
    if kind == "bott":
        return _check_bott(spec, results)
    raise ValueError(f"no oracle for {kind!r}")
