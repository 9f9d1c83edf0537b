"""Golden report bytes: SHA-256 digests of stdout and stderr, and the exit
code, of a fixed list of CLI calls, checked against ``golden_reports.json``.

Reports carry the package version, so a version bump changes every digest.
After such a bump, or after a documented format change, regenerate the file
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why the bytes changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_reports.json")

QTM_COEFFS = ("Q", "F2", "F3", "F5")
ZK_COEFFS = ("Z", "Q", "F2", "F3")

# Inputs given by --input, as file name -> bytes; the digest in each report
# is taken over these bytes, so they are fixed here rather than generated.
INPUTS = {
    "tower_12.json": b'{"dims": [1, 2]}',
    "tower_11_twisted.json": b'{"dims": [1, 1], "params": [[], [[2]]]}',
    "tower_221.json": b'{"dims": [2, 2, 1], "params": [[], [[1, -1]], [[2], [1]]]}',
    "tower_23.json": b'{"dims": [2, 3], "params": [[], [[1, 0, 2]]]}',
    # the 6-vertex RP^2, whose H_1 is Z/2: no bundled fixture has torsion
    "rp2.json": b'{"m": 6, "facets": [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6], '
                b'[2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6]]}',
    # RP^2 * S^0, the suspension of RP^2 on the two new vertices 7 and 8
    "rp2_s0.json": b'{"m": 8, "facets": [[1, 2, 3, 7], [1, 2, 3, 8], [1, 2, 6, 7], [1, 2, 6, 8], '
                   b'[1, 3, 4, 7], [1, 3, 4, 8], [1, 4, 5, 7], [1, 4, 5, 8], [1, 5, 6, 7], '
                   b'[1, 5, 6, 8], [2, 3, 5, 7], [2, 3, 5, 8], [2, 4, 5, 7], [2, 4, 5, 8], '
                   b'[2, 4, 6, 7], [2, 4, 6, 8], [3, 4, 6, 7], [3, 4, 6, 8], [3, 5, 6, 7], '
                   b'[3, 5, 6, 8]]}',
    # bench/workloads.py stacked_sphere(4, 10, random.Random(1)): the boundary
    # of a stacked 4-polytope, as the zk-spheres ladder builds it
    "stacked_4_10.json": b'{"m": 10, "facets": [[1, 2, 3, 6], [1, 2, 3, 7], [1, 2, 5, 6], '
                         b'[1, 2, 5, 7], [1, 3, 4, 9], [1, 3, 4, 10], [1, 3, 5, 7], [1, 3, 5, 8], '
                         b'[1, 3, 6, 9], [1, 3, 8, 10], [1, 4, 5, 6], [1, 4, 5, 10], [1, 4, 6, 9], '
                         b'[1, 5, 8, 10], [2, 3, 5, 6], [2, 3, 5, 7], [3, 4, 5, 6], [3, 4, 5, 10], '
                         b'[3, 4, 6, 9], [3, 5, 8, 10]]}',
    # bench/workloads.py simplex_join([1, 2, 2], random.Random(1)): the join
    # of the boundaries of a 1-simplex and two 2-simplices, labels shuffled
    "join_122.json": b'{"m": 8, "facets": [[1, 2, 3, 4, 6], [1, 2, 3, 4, 8], [1, 2, 3, 6, 7], '
                     b'[1, 2, 3, 7, 8], [1, 2, 4, 5, 6], [1, 2, 4, 5, 8], [1, 2, 5, 6, 7], '
                     b'[1, 2, 5, 7, 8], [1, 3, 4, 6, 8], [1, 3, 6, 7, 8], [1, 4, 5, 6, 8], '
                     b'[1, 5, 6, 7, 8], [2, 3, 4, 5, 6], [2, 3, 4, 5, 8], [2, 3, 5, 6, 7], '
                     b'[2, 3, 5, 7, 8], [3, 4, 5, 6, 8], [3, 5, 6, 7, 8]]}',
    # conftest.stellar_sphere on the 6-vertex RP^2: a polytopal 4-sphere on 16
    # vertices whose full subcomplex on 1..6 is RP^2, so that Z_K has 2-torsion
    "torsion_sphere.json": b'{"m": 16, "facets": [[1, 2, 3, 7, 8], [1, 2, 3, 7, 10], '
                           b'[1, 2, 3, 8, 10], [1, 2, 6, 7, 8], [1, 2, 6, 7, 10], '
                           b'[1, 2, 6, 8, 10], [1, 3, 4, 7, 9], [1, 3, 4, 7, 10], '
                           b'[1, 3, 4, 9, 10], [1, 3, 7, 8, 9], [1, 3, 8, 9, 10], [1, 4, 5, 7, 9], '
                           b'[1, 4, 5, 7, 11], [1, 4, 5, 9, 11], [1, 4, 7, 10, 11], '
                           b'[1, 4, 9, 10, 11], [1, 5, 6, 7, 8], [1, 5, 6, 7, 11], '
                           b'[1, 5, 6, 8, 9], [1, 5, 6, 9, 11], [1, 5, 7, 8, 9], '
                           b'[1, 6, 7, 10, 11], [1, 6, 8, 9, 10], [1, 6, 9, 10, 11], '
                           b'[2, 3, 5, 7, 8], [2, 3, 5, 7, 12], [2, 3, 5, 8, 13], '
                           b'[2, 3, 5, 12, 13], [2, 3, 7, 10, 13], [2, 3, 7, 12, 13], '
                           b'[2, 3, 8, 10, 13], [2, 4, 5, 7, 12], [2, 4, 5, 7, 14], '
                           b'[2, 4, 5, 12, 14], [2, 4, 6, 7, 12], [2, 4, 6, 7, 14], '
                           b'[2, 4, 6, 12, 14], [2, 5, 7, 8, 14], [2, 5, 8, 13, 14], '
                           b'[2, 5, 12, 13, 14], [2, 6, 7, 8, 14], [2, 6, 7, 10, 13], '
                           b'[2, 6, 7, 12, 13], [2, 6, 8, 10, 13], [2, 6, 8, 13, 14], '
                           b'[2, 6, 12, 13, 14], [3, 4, 6, 7, 10], [3, 4, 6, 7, 12], '
                           b'[3, 4, 6, 9, 10], [3, 4, 6, 9, 15], [3, 4, 6, 12, 15], '
                           b'[3, 4, 7, 9, 15], [3, 4, 7, 12, 15], [3, 5, 6, 8, 9], '
                           b'[3, 5, 6, 8, 13], [3, 5, 6, 9, 15], [3, 5, 6, 12, 13], '
                           b'[3, 5, 6, 12, 15], [3, 5, 7, 8, 9], [3, 5, 7, 9, 15], '
                           b'[3, 5, 7, 12, 15], [3, 6, 7, 10, 13], [3, 6, 7, 12, 13], '
                           b'[3, 6, 8, 9, 10], [3, 6, 8, 10, 13], [4, 5, 7, 9, 15], '
                           b'[4, 5, 7, 11, 16], [4, 5, 7, 12, 15], [4, 5, 7, 14, 16], '
                           b'[4, 5, 9, 11, 16], [4, 5, 9, 15, 16], [4, 5, 12, 14, 16], '
                           b'[4, 5, 12, 15, 16], [4, 6, 7, 10, 11], [4, 6, 7, 11, 16], '
                           b'[4, 6, 7, 14, 16], [4, 6, 9, 10, 11], [4, 6, 9, 11, 16], '
                           b'[4, 6, 9, 15, 16], [4, 6, 12, 14, 16], [4, 6, 12, 15, 16], '
                           b'[5, 6, 7, 8, 14], [5, 6, 7, 11, 16], [5, 6, 7, 14, 16], '
                           b'[5, 6, 8, 13, 14], [5, 6, 9, 11, 16], [5, 6, 9, 15, 16], '
                           b'[5, 6, 12, 13, 14], [5, 6, 12, 14, 16], [5, 6, 12, 15, 16]]}',
}
TOWERS = ("tower_221.json", "tower_23.json")
COMPLEXES = ("rp2.json", "rp2_s0.json", "stacked_4_10.json", "join_122.json")


def golden_calls() -> list[list[str]]:
    from torictop import fixtures

    names = fixtures.names()
    quasitoric = fixtures.quasitoric_names()
    zk_fixtures = [n for n in names if n.startswith(("polygon", "simplex"))]
    calls = []
    for name in quasitoric:
        calls += [["qtm", "--fixture", name, "--coeff", c] for c in QTM_COEFFS]
    calls.append(["qtm", "--fixture", "cp2", "--coeff", "Q", "--text"])
    calls.append(["qtm", "--fixture", "bott3", "--coeff", "F2", "--text"])
    calls += [["nontrivial", "--fixture", name] for name in quasitoric]
    calls.append(["cube-census"])
    calls += [["nontrivial", "--two-simplices", n, k]
              for n, k in (("5", "2"), ("2", "1"), ("3", "0"), ("6", "3"))]
    for name in zk_fixtures:
        calls += [["zk", "--fixture", name, "--coeff", c] for c in ZK_COEFFS]
    for name in ("cp2", "bott3", "hirzebruch"):
        for p in ("3", "5"):
            calls.append(["split", "--fixture", name, "--p", p])
            calls.append(["projection", "--fixture", name, "--p", p])
    calls += [["hvec", "--fixture", name] for name in names]
    calls += [["bott", "--input", name] for name in INPUTS if name.startswith("tower_")]
    calls += [["zk", "--input", name, "--coeff", c] for name in COMPLEXES for c in ZK_COEFFS]
    # the summands with |I| = 6 and 10 only, which hold RP^2 on {1..6} and its
    # complement on {7..16}, each with Z/2 in degree 1: the full run takes
    # about 11 s over Z
    calls += [["zk", "--input", "torsion_sphere.json", "--coeff", c, "--sizes", "6"]
              for c in ZK_COEFFS]
    calls += [["zk", "--input", "torsion_sphere.json", "--coeff", c, "--sizes", "10"]
              for c in ("Z", "F2")]
    # towers through the cohomology engine: their bott reports are the qtm inputs
    calls += [["qtm", "--input", f"{t}.qtm", "--coeff", c] for t in TOWERS for c in ("Q", "F2", "F3")]
    calls += [["qtm", "--fixture", "cp2", "--coeff", c] for c in ("Z", "F4", "Fx")]
    calls += [["zk", "--fixture", "polygon5", "--coeff", c] for c in ("X", "F1")]
    return calls


def run_call(argv: list[str]) -> tuple[int, bytes, bytes]:
    from torictop.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse errors
            code = e.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def write_inputs(directory: Path) -> None:
    for name, data in INPUTS.items():
        (directory / name).write_bytes(data)
    for name in TOWERS:
        code, out, _ = run_call(["bott", "--input", str(directory / name)])
        assert code == 0
        results = json.loads(out)["results"]
        qtm = {"polytope": results["polytope"], "lambda": results["lambda"]}
        (directory / f"{name}.qtm").write_text(json.dumps(qtm, sort_keys=True))


def record(directory: Path) -> dict[str, dict]:
    """Exit code and digests of every golden call, keyed by the argv."""
    write_inputs(directory)
    out = {}
    for argv in golden_calls():
        key = " ".join(argv)
        argv = [str(directory / a) if a.endswith((".json", ".qtm")) else a for a in argv]
        code, stdout, stderr = run_call(argv)
        out[key] = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(stderr).hexdigest(),
        }
    return out


def test_reports_match_the_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = record(tmp_path)
    assert sorted(got) == sorted(want), "the golden call list changed; regenerate the file"
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} of {len(want)} calls differ, e.g. {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = record(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
