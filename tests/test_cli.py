import contextlib
import copy
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from torictop import __version__, fixtures
from torictop.cli import COMMANDS, _parse, input_digest, main, run
from torictop.complexes import join, simplex_boundary
from torictop.errors import ConsistencyError

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_subprocess(*argv, text=True, timeout=60):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "torictop.cli", *argv],
        capture_output=True, text=text, env=env, timeout=timeout,
    )


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0, out
    return json.loads(out)


def test_hvec_square(capsys):
    rep = run_json(capsys, "hvec", "--fixture", "polygon4")
    assert rep["results"]["h"] == [1, 2, 1]
    assert rep["results"]["f"] == [1, 4, 4]
    assert rep["results"]["dehn_sommerville"]["symmetric"] is True


def test_hvec_from_file(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"n": 2, "complex": {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [4, 1]]}}))
    rep = run_json(capsys, "hvec", "--input", str(path))
    assert rep["results"]["h"] == [1, 2, 1]


def test_zk_simplex(capsys):
    rep = run_json(capsys, "zk", "--fixture", "simplex2", "--coeff", "Z")
    assert rep["results"]["total"] == [{"degree": 5, "rank": 1, "torsion": []}]


def test_zk_refuses_a_bad_tag_when_every_summand_is_a_cone(tmp_path):
    # a single facet is a simplex: every full subcomplex is a cone, so no
    # summand reaches the homology kernels, and the tag is still refused
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"m": 3, "facets": [[1, 2, 3]]}))
    res = run_subprocess("zk", "--input", str(path), "--coeff", "F4")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "'F4'" in res.stderr


def test_zk_accepts_bare_complex(capsys, tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [4, 1]]}))
    rep = run_json(capsys, "zk", "--input", str(path), "--coeff", "F2")
    degrees = {d["degree"]: d["rank"] for d in rep["results"]["total"]}
    assert degrees == {3: 2, 6: 1}


def test_qtm_reports_dims(capsys):
    rep = run_json(capsys, "qtm", "--fixture", "cp2", "--coeff", "F3")
    assert rep["results"]["dims"] == {"0": 1, "2": 1, "4": 1}


def test_split_cp3(capsys):
    rep = run_json(capsys, "split", "--fixture", "cp3", "--p", "5")
    wedges = [p["sphere_wedge"] for p in rep["results"]["pieces"]]
    assert wedges == [[[3, 1]], [[5, 1]], [[7, 1]], []]


def test_split_rigidity_bytes(capsys):
    rep1 = run_json(capsys, "split", "--fixture", "cp1xcp1", "--p", "5")
    rep2 = run_json(capsys, "split", "--fixture", "hirzebruch", "--p", "5")
    assert rep1["input_digest"] != rep2["input_digest"]
    bytes1 = json.dumps(rep1["results"], sort_keys=True)
    bytes2 = json.dumps(rep2["results"], sort_keys=True)
    assert bytes1 == bytes2


def test_split_accepts_raw_betti_numbers(capsys, tmp_path):
    path = tmp_path / "betti.json"
    path.write_text(json.dumps({"b": [1, 2, 1]}))
    rep = run_json(capsys, "split", "--input", str(path), "--p", "5")
    assert rep["results"]["pieces"][0]["sphere_wedge"] == [[3, 2]]


def test_split_rejects_non_primitive_override(capsys):
    rc = main(["split", "--fixture", "cp2", "--p", "5", "--u", "4"])
    assert rc == 2


def test_bott3_fixture_reduces_to_valid_cube_presentation(capsys):
    from conftest import cube_parameters

    P, lam = fixtures.load_quasitoric("bott3")
    pres = cube_parameters(P, lam)
    assert pres.valid


def test_split_warns_below_n(capsys):
    rep = run_json(capsys, "split", "--fixture", "cp3", "--p", "3")
    assert rep["results"]["form"] == "general"
    assert rep["warnings"]


def test_projection_command(capsys):
    rep = run_json(capsys, "projection", "--fixture", "cp1xcp1", "--p", "5")
    assert rep["results"]["triviality"]["certified"] is True
    groups = rep["results"]["decomposition"]["groups"]
    count = sum(len(g["summands"]) for g in groups.values())
    assert count == 15


def test_projection_report_halves_match_the_library(capsys, monkeypatch):
    from torictop import momentangle, projection_decomposition, suspension_triviality_check
    from torictop import projection as projection_module
    from torictop.complexes import full_subcomplex

    calls = {"wedge_splitting": 0}
    built = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["wedge_splitting"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(K, I):
        built.append(tuple(I))
        return full_subcomplex(K, I)

    for name in fixtures.quasitoric_names():
        P, lam = fixtures.load_quasitoric(name)
        for p in (3, 5, 7):
            want = {
                "decomposition": projection_decomposition(P, lam, p).to_json_obj(),
                "triviality": suspension_triviality_check(P, p).to_json_obj(),
            }
            with monkeypatch.context() as patch:
                patch.setattr(projection_module, "wedge_splitting",
                              counted(projection_module.wedge_splitting))
                patch.setattr(momentangle, "full_subcomplex", recorded)
                calls.update(wedge_splitting=0)
                built.clear()
                got = run_json(capsys, "projection", "--fixture", name, "--p", str(p))
            assert got["results"] == json.loads(json.dumps(want)), (name, p)
            # both halves come from one enumeration of the 2^m - 1 summands,
            # which builds each full subcomplex at most once and never a cone
            assert calls == {"wedge_splitting": 1}, (name, p)
            assert len(built) == len(set(built)), (name, p)
            assert not any(full_subcomplex(P.complex, I).is_cone() for I in built), (name, p)


def test_projection_error_precedence(capsys, tmp_path):
    # p is checked first, then lambda, then the enumeration cap
    bad = tmp_path / "cp2_bad.json"
    bad.write_text(json.dumps({"polytope": fixtures.load("cp2")["polytope"],
                               "lambda": [[1, 0, 1], [0, 1, 2]]}))
    not_p2 = ("p=2 is excluded: the eigenvalue construction needs p-1 >= 2 "
              "distinct nonzero residues u^1..u^(p-1) mod p")
    not_admissible = "characteristic matrix fails on face (1, 3) (determinant 2)"
    cases = [
        (("--fixture", "cp2", "--p", "2"), not_p2),
        (("--fixture", "cp2", "--p", "9"), "9 is not an odd prime"),
        (("--input", str(bad), "--p", "2"), not_p2),
        (("--input", str(bad), "--p", "9"), "9 is not an odd prime"),
        (("--input", str(bad), "--p", "3"), not_admissible),
        (("--input", str(bad), "--p", "5", "--cap", "2"), not_admissible),
        (("--fixture", "cp2", "--p", "5", "--cap", "2"),
         "m=3 exceeds the enumeration cap 2: it would enumerate 7 subsets; "
         "pass a larger cap to override"),
    ]
    for argv, message in cases:
        rc = main(["projection", *argv])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"torictop: input error: {message}\n"), argv


def test_projection_below_n_warns_and_gives_no_verdict(capsys):
    rep = run_json(capsys, "projection", "--fixture", "bott3", "--p", "3")
    assert rep["warnings"]
    assert rep["results"]["triviality"]["certified"] is None


def test_split_accepts_polytope_only_fixture(capsys):
    rep = run_json(capsys, "split", "--fixture", "polygon6", "--p", "5")
    assert rep["results"]["betti"] == [1, 4, 1]


@pytest.mark.parametrize("p, u", [("4", "2"), ("9", "3"), ("0", "1")])
def test_split_checks_p_before_the_root_u(p, u):
    # a root test mod a composite p looped for ever once u shared a factor with p
    proc = run_subprocess("split", "--fixture", "cp2", "--p", p, "--u", u, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"torictop: input error: {p} is not an odd prime\n"


@pytest.mark.parametrize("command, fixture", [("split", "cp3"), ("projection", "cp2")])
def test_p_above_the_splitting_bound_exits_2_stating_the_pieces(capsys, monkeypatch, command, fixture):
    # refused before any work that grows with p or with 2^m
    from torictop import projection

    def no_splitting(*args, **kwargs):
        raise AssertionError("the wedge splitting ran")

    monkeypatch.setattr(projection, "wedge_splitting", no_splitting)
    rc = main([command, "--fixture", fixture, "--p", "100003"])
    captured = capsys.readouterr()
    message = "p=100003 is above 65536, the bound on p for a splitting: it would emit 100002 pieces"
    assert (rc, captured.out, captured.err) == (2, "", f"torictop: input error: {message}\n")


@pytest.mark.parametrize("sizes", ["", "x", "0", "2,", "1,x"])
def test_zk_malformed_size_filter_exits_2(capsys, sizes):
    rc = main(["zk", "--fixture", "polygon5", f"--sizes={sizes}"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith("torictop: input error: ")


def test_zk_size_filter_flag(capsys):
    rep = run_json(capsys, "zk", "--fixture", "polygon4", "--sizes", "2", "--coeff", "Q")
    assert rep["results"]["trivial_count"] + len(rep["results"]["summands"]) == 6
    degrees = {d["degree"]: d["rank"] for d in rep["results"]["total"]}
    assert degrees == {3: 2}


def test_nontrivial_command(capsys):
    rep = run_json(capsys, "nontrivial", "--fixture", "qtm_polygon5")
    assert rep["results"]["verdict"]["conclusion"] == "not-null"
    assert rep["results"]["p_local"]["computed"] is False


def test_nontrivial_two_simplices(capsys):
    rep = run_json(capsys, "nontrivial", "--two-simplices", "5", "2")
    assert rep["results"]["verdict"]["conclusion"] == "not-null"


def test_cube_census_command(capsys):
    rep = run_json(capsys, "cube-census")
    assert rep["results"]["valid_count"] == 25
    assert rep["results"]["uncertified"] == []


def test_bott_command(capsys, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"dims": [1, 1], "params": [[], [[2]]]}))
    rep = run_json(capsys, "bott", "--input", str(path))
    assert rep["results"]["valid"] is True
    assert rep["results"]["h"] == [1, 2, 1]
    # emitted data round-trips through the quasitoric input schema
    qtm_obj = {"polytope": rep["results"]["polytope"], "lambda": rep["results"]["lambda"]}
    path2 = tmp_path / "tower_qtm.json"
    path2.write_text(json.dumps(qtm_obj))
    rep2 = run_json(capsys, "qtm", "--input", str(path2), "--coeff", "F2")
    assert rep2["results"]["dims"] == {"0": 1, "2": 2, "4": 1}


def test_fixture_listing_and_dump(capsys):
    rep = run_json(capsys, "fixtures")
    names = [e["name"] for e in rep["results"]["available"]]
    assert names == fixtures.names()
    rep = run_json(capsys, "fixtures", "--name", "cube3")
    assert rep["results"]["kind"] == "polytope"


def test_every_fixture_validates_and_runs(capsys):
    for name in fixtures.names():
        kind = fixtures.load(name)["kind"]
        if kind == "quasitoric":
            rc, _ = run_cli(capsys, "qtm", "--fixture", name, "--coeff", "F2")
        else:
            rc, _ = run_cli(capsys, "hvec", "--fixture", name)
        assert rc == 0, name


def test_determinism_byte_for_byte(capsys):
    _, out1 = run_cli(capsys, "projection", "--fixture", "bott3", "--p", "5")
    _, out2 = run_cli(capsys, "projection", "--fixture", "bott3", "--p", "5")
    assert out1 == out2
    _, out3 = run_cli(capsys, "cube-census")
    _, out4 = run_cli(capsys, "cube-census")
    assert out3 == out4


def test_reports_reparse(capsys):
    for argv in (
        ["hvec", "--fixture", "cube3"],
        ["zk", "--fixture", "polygon5", "--coeff", "F2"],
        ["split", "--fixture", "bott3", "--p", "7"],
    ):
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        rep = json.loads(out)
        assert {"command", "input_digest", "version", "warnings", "results"} <= set(rep)


def test_exit_code_2_on_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["hvec", "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and "input error" in err


def test_exit_code_2_on_invalid_matrix(capsys, tmp_path):
    obj = {
        "polytope": {"n": 2, "complex": {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [4, 1]]}},
        "lambda": [[1, 0, 1, 0], [0, 1, 0, 2]],
    }
    path = tmp_path / "bad_qtm.json"
    path.write_text(json.dumps(obj))
    rc = main(["qtm", "--input", str(path)])
    assert rc == 2


def test_exit_code_2_on_missing_fixture(capsys):
    rc = main(["hvec", "--fixture", "does-not-exist"])
    assert rc == 2


@pytest.mark.parametrize(
    "command, fixture, tag",
    [
        ("qtm", "cp2", "F4"),
        ("qtm", "cp2", "F1"),
        ("qtm", "cp2", "Fx"),
        ("qtm", "cp2", "Z"),
        ("zk", "polygon5", "F4"),
        ("zk", "polygon5", "F1"),
        ("qtm", "cp2", "F" + "7" * 5000),  # more digits than int() parses
        ("zk", "polygon5", "F" + "7" * 5000),
    ],
    ids=lambda x: x if len(x) < 20 else "F<5000 digits>",
)
def test_exit_code_2_on_bad_coefficient_tag(command, fixture, tag):
    proc = run_subprocess(command, "--fixture", fixture, "--coeff", tag)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "input error: " in proc.stderr and repr(tag) in proc.stderr


def test_zk_accepts_prime_beyond_int64(capsys):
    # 2^40 + 15 is prime, and its squares overflow int64; Z_K is torsion-free
    proc = run_subprocess("zk", "--fixture", "polygon5", "--coeff", "F1099511627791")
    assert proc.returncode == 0, proc.stderr
    want = run_json(capsys, "zk", "--fixture", "polygon5", "--coeff", "Q")["results"]["total"]
    assert json.loads(proc.stdout)["results"]["total"] == want


def test_zk_tests_the_prime_of_its_tag_once(capsys, monkeypatch):
    # the splitting parses the tag once and hands p to every summand's kernel
    from torictop import linalg

    tested = []
    is_prime = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert main(["zk", "--fixture", "polygon8", "--coeff", "F1099511627791"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["summands"]
    assert tested == [1099511627791]


@pytest.mark.parametrize(
    "argv",
    [
        ("zk", "--fixture", "polygon5", "--coeff", "F3317044064679887385962123"),
        ("qtm", "--fixture", "cp2", "--coeff", "F3317044064679887385962123"),
        ("split", "--fixture", "cp3", "--p", "3317044064679887385962123"),
    ],
    ids=lambda argv: argv[0],
)
def test_exit_code_2_on_prime_beyond_the_primality_bound(argv):
    # the least prime above 3317044064679887385961981, where Miller-Rabin
    # with the first 13 prime bases stops being exact
    proc = run_subprocess(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "3317044064679887385961981" in proc.stderr


def test_import_leaves_numpy_out():
    code = "import sys, torictop, torictop.cli; print('numpy' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_names_resolve_and_homology_is_the_submodule():
    import torictop
    import torictop.homology as homology_module

    for name in torictop.__all__:
        assert getattr(torictop, name).__name__ == name
    from torictop import homology

    assert homology is homology_module is torictop.homology
    assert {"homology", "linalg", "fixtures"} <= set(dir(torictop))
    with pytest.raises(AttributeError):
        torictop.no_such_name


# Runs one CLI call and writes to stderr, as its last line, the modules the
# call loaded beyond those the interpreter had loaded at start-up.
LOADED_BY_ONE_CALL = """
import sys
before = set(sys.modules)
from torictop.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


def modules_loaded_by(*argv, flags=()):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *flags, "-c", LOADED_BY_ONE_CALL, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


HAS_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


# what the standard library's argument parser loads; the CLI's own parser needs none of it
PARSER_MODULES = {"argparse", "gettext", "locale", "textwrap"}


def test_version_loads_no_compute_module():
    # help, top level and per command, comes from the command table alone too
    for argv in (["--version"], ["--help"], ["zk", "-h"]):
        loaded = modules_loaded_by(*argv)
        assert {m for m in loaded if m.startswith("torictop")} <= {
            "torictop", "torictop.cli", "torictop.errors"}, argv
        assert not loaded & {"dataclasses", "inspect", *PARSER_MODULES}, argv


def test_zk_over_z_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "simplex2.json"
    path.write_bytes(fixtures.raw("simplex2"))
    loaded = modules_loaded_by("zk", "--coeff", "Z", "--input", str(path))
    assert "torictop.momentangle" in loaded
    assert not loaded & {"fractions", "torictop.projection", "torictop.quasitoric",
                         "torictop.splitting", "importlib.resources"}


@pytest.mark.parametrize(
    "argv",
    [
        ["zk", "--fixture", "polygon6", "--coeff", "F2"],
        ["qtm", "--fixture", "cp2", "--coeff", "F3"],
        ["nontrivial", "--fixture", "bott3"],
    ],
    ids=lambda argv: argv[0],
)
def test_calls_over_f_p_load_no_fractions(argv):
    # the field eliminator imports fractions only for Q
    assert "fractions" not in modules_loaded_by(*argv)


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=("site", "no-site"))
def test_fixture_calls_load_no_importlib_resources(flags):
    # bundled fixtures are read from the directory next to the module; without
    # site, a .pth file that imports importlib.resources cannot hide the cost
    loaded = modules_loaded_by("hvec", "--fixture", "polygon6", flags=flags)
    assert not {m for m in loaded if m.startswith("importlib.resources")}
    assert "zipfile" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["hvec", "--fixture", "polygon6"],
        ["zk", "--fixture", "simplex2", "--coeff", "Q"],
        ["qtm", "--fixture", "cp2", "--coeff", "Q"],
        ["split", "--fixture", "cp2", "--p", "3"],
        ["projection", "--fixture", "cp2", "--p", "3"],
        ["nontrivial", "--fixture", "cp2"],
        ["cube-census"],
        ["bott", "--input", "TOWER"],
        ["fixtures"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_loads_dataclasses(argv, tmp_path):
    tower = tmp_path / "tower.json"
    tower.write_text('{"dims": [1, 2]}')
    argv = [str(tower) if a == "TOWER" else a for a in argv]
    loaded = modules_loaded_by(*argv)
    assert not loaded & {"dataclasses", *PARSER_MODULES}
    # the input digest takes the builtin SHA-256, never OpenSSL's, which is slow to load
    if HAS_BUILTIN_SHA256:
        assert "_hashlib" not in loaded


def test_exit_code_3_on_consistency_failure(capsys, monkeypatch):
    # a theorem violation cannot be triggered by honest input, so simulate one;
    # the qtm handler imports cohomology_ring from quasitoric when it runs
    import torictop.quasitoric as quasitoric

    def boom(*a, **k):
        raise ConsistencyError("simulated")

    monkeypatch.setattr(quasitoric, "cohomology_ring", boom)
    rc = main(["qtm", "--fixture", "cp2"])
    err = capsys.readouterr().err
    assert rc == 3 and "consistency" in err


def test_text_mode(capsys):
    rc, out = run_cli(capsys, "hvec", "--fixture", "polygon6", "--text")
    assert rc == 0
    assert out.startswith("# hvec")
    assert "h: [1, 4, 1]" in out


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    rc, out = run_cli(capsys, "hvec", "--fixture", "simplex3", "--output", str(dest))
    assert rc == 0 and out == ""
    rep = json.loads(dest.read_text())
    assert rep["results"]["h"] == [1, 1, 1, 1]


def test_unwritable_output_exits_2(tmp_path, capsys):
    dest = tmp_path / "no_such_dir" / "report.json"
    rc = main(["hvec", "--fixture", "polygon6", "--output", str(dest)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"torictop: input error: cannot write {dest}: ")


# ---------------------------------------------------------------------------
# the exit path: run() freezes the collector before the interpreter exits,
# main() never touches it


def test_version_in_a_fresh_process():
    proc = run_subprocess("--version")
    assert proc.returncode == 0
    assert proc.stdout == f"torictop {__version__}\n"


def test_bad_flag_in_a_fresh_process_exits_2_with_usage():
    proc = run_subprocess("hvec", "--no-such-flag")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: torictop ")
    assert "unrecognized arguments: --no-such-flag" in proc.stderr


def test_input_error_in_a_fresh_process_exits_2():
    proc = run_subprocess("hvec", "--fixture", "no_such_fixture")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("torictop: input error: ")


def test_large_report_through_a_pipe_matches_main():
    argv = ["zk", "--fixture", "polygon8", "--coeff", "Z"]
    proc = run_subprocess(*argv, text=False)
    assert proc.returncode == 0 and proc.stderr == b""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert proc.stdout == out.getvalue().encode()
    assert len(proc.stdout) > 50_000


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["hvec", "--fixture", "polygon6"]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == before


def test_run_freezes_the_collector_on_every_exit(monkeypatch, capsys):
    for argv, code in [(["--version"], 0), (["hvec", "--fixture", "polygon6"], 0),
                       (["hvec", "--fixture", "no_such_fixture"], 2)]:
        monkeypatch.setattr(sys, "argv", ["torictop", *argv])
        gc.unfreeze()
        try:
            with pytest.raises(SystemExit) as exc:
                run()
        finally:
            frozen = gc.get_freeze_count()
            gc.unfreeze()
        assert exc.value.code == code and frozen > 0


def test_console_script_is_run():
    assert 'torictop = "torictop.cli:run"' in (ROOT / "pyproject.toml").read_text()


# ---------------------------------------------------------------------------
# the input digest: the builtin SHA-256 module, or hashlib where there is none

SHA256 = hashlib.sha256


@contextlib.contextmanager
def digest_source(builtin: bool):
    """With ``builtin`` false, hide the builtin SHA-256 modules so the digest
    falls back to hashlib; yields the list of inputs hashlib was given."""
    hashed = []

    def recorded(data=b"", **kwargs):
        hashed.append(data)
        return SHA256(data, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        if not builtin:
            mp.setitem(sys.modules, "_sha2", None)
            mp.setitem(sys.modules, "_sha256", None)
            mp.setattr(hashlib, "sha256", recorded)
        yield hashed


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
def test_input_digest_is_sha256_of_every_fixture(builtin):
    with digest_source(builtin) as via_hashlib:
        for name in fixtures.names():
            data = fixtures.raw(name)
            assert input_digest(data) == SHA256(data).hexdigest()
    assert len(via_hashlib) == (0 if builtin else len(fixtures.names()))


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.binary(max_size=2048))
def test_input_digest_is_sha256_of_any_bytes(builtin, data):
    with digest_source(builtin):
        assert input_digest(data) == SHA256(data).hexdigest()


# ---------------------------------------------------------------------------
# malformed JSON from outside: exit 2 with a message, never a traceback


def run_on_json(tmp_dir, argv, obj):
    """Run ``main`` in process on ``obj`` written as the input file; (rc, stderr)."""
    path = Path(tmp_dir) / "input.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--input", str(path)])
    return rc, err.getvalue()


CP2_JSON = {"polytope": {"n": 2, "complex": {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}},
            "lambda": [[1, 0, -1], [0, 1, -1]]}


@pytest.mark.parametrize(
    "argv, obj, field",
    [
        (["qtm"], {**CP2_JSON, "lambda": [[1.7, 0, -1], [0, 1, -1]]}, "row 0 entry 0 is 1.7"),
        (["qtm"], {**CP2_JSON, "lambda": [["1", 0, -1], [0, 1, -1]]}, "row 0 entry 0 is '1'"),
        (["qtm"], {**CP2_JSON, "lambda": [[True, 0, -1], [0, 1, -1]]}, "row 0 entry 0 is True"),
        (["qtm"], {**CP2_JSON, "lambda": 5}, "characteristic matrix"),
        (["split", "--p", "3"], {"b": [1.5, 1]}, "'b' entry 0 is 1.5"),
        (["split", "--p", "3"], {"b": ["x"]}, "'b' entry 0 is 'x'"),
        (["split", "--p", "3"], {"b": 5}, "'b' must be a list"),
        (["split", "--p", "3"], {"b": []}, "n_top >= 0"),
        (["bott"], {"dims": [1.9]}, "stage dimensions entry 0 is 1.9"),
        (["bott"], {"dims": 3}, "stage dimensions must be a list"),
        (["bott"], {"dims": [1, "a"]}, "stage dimensions entry 1 is 'a'"),
        (["bott"], {"dims": [1, 1], "params": [[], [[1.9]]]}, "over stage 1 entry 0 is 1.9"),
        (["bott"], {"dims": [1, 1], "params": 5}, "parameter entries"),
        (["bott"], {"dims": [1, 1], "params": [[], 5]}, "earlier stages"),
        (["bott"], {"dims": [100]}, "above the limit"),
        (["hvec"], {"n": True, "complex": CP2_JSON["polytope"]["complex"]}, "'n' is True"),
        (["hvec"], {"n": 2.0, "complex": CP2_JSON["polytope"]["complex"]}, "'n' is 2.0"),
        (["hvec"], {"n": "2", "complex": CP2_JSON["polytope"]["complex"]}, "'n' is '2'"),
        (["hvec"], {"n": 2, "complex": {"m": 3, "facets": 5}}, "facets"),
        (["zk"], {"complex": 5}, "complex"),
        (["hvec"], [1, 2], "JSON object"),
    ]
    + [
        ([cmd, *extra], {"polytope": 5, "lambda": [[1]]}, "polytope")
        for cmd, extra in [("hvec", []), ("zk", []), ("qtm", []), ("split", ["--p", "3"]),
                           ("projection", ["--p", "3"])]
    ]
    + [
        # above the face-enumeration cap: refused before any face is listed
        (["bott"], {"dims": [6, 6, 6]}, "would visit 89915392 subsets"),
        (["hvec"], {"n": 15, "complex": join(join(simplex_boundary(5), simplex_boundary(5)),
                                             simplex_boundary(5)).to_json_obj()},
         "would visit 7077888 subsets"),
    ],
)
def test_malformed_input_exits_2_naming_the_field(tmp_path, argv, obj, field):
    rc, err = run_on_json(tmp_path, argv, obj)
    assert rc == 2
    assert field in err


def _json_trees():
    leaves = (st.none() | st.booleans() | st.integers(-2, 8)
              | st.sampled_from([1.5, 2.0, -0.5]) | st.sampled_from(["", "x", "1"]))
    keys = st.sampled_from(["n", "m", "complex", "facets", "polytope", "lambda", "b", "dims",
                            "params", "kind"])
    return st.recursive(
        leaves, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(keys, kids, max_size=4),
        max_leaves=12,
    )


FUZZ_TEMPLATES = [
    CP2_JSON,
    {"n": 2, "complex": {"m": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]}},
    {"m": 4, "facets": [[1, 2], [2, 3, 4]]},
    {"b": [1, 2, 1]},
    {"dims": [1, 2], "params": [[], [[1, 0]]]},
]


@st.composite
def fuzz_inputs(draw):
    """A valid template with one node replaced by a random JSON tree, or a
    random tree alone.  The node is found by a walk from the root that stops
    at each level with probability 1/2, so shallow fields are hit often."""
    template = draw(st.sampled_from([None, *FUZZ_TEMPLATES]))
    tree = draw(_json_trees())
    if template is None:
        return tree
    obj = copy.deepcopy(template)
    node, key = obj, draw(st.sampled_from(sorted(obj)))
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    node[key] = tree
    return obj


FUZZ_COMMANDS = {
    "hvec": [], "zk": ["--coeff", "F2"], "qtm": ["--coeff", "F2"], "split": ["--p", "3"],
    "projection": ["--p", "3"], "bott": [], "nontrivial": [],
}


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(obj=fuzz_inputs())
def test_fuzzed_json_exits_0_or_2(command, obj):
    dims = obj.get("dims") if isinstance(obj, dict) else None
    if isinstance(dims, list) and all(type(d) is int and d > 0 for d in dims):
        assume(sum(d + 1 for d in dims) <= 8)  # keep every tower at m <= 8
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = run_on_json(tmp, [command, *FUZZ_COMMANDS[command]], obj)
    assert rc in (0, 2), err


# ---------------------------------------------------------------------------
# the command-line parser against the argparse parser it replaced


def parse_outcome(parse, argv):
    """(exit code, handler, options) of one parse; the code is 0 and the
    handler None after help or --version, and both are None on success."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            func, options = parse(argv)
        except SystemExit as e:
            return e.code, None, None
    return None, func, options


def oracle_parse(argv):
    from conftest import build_parser

    ns = vars(build_parser().parse_args(argv))
    func = ns.pop("func")
    del ns["command"]
    return func, ns


def table_parse(argv):
    func, args = _parse(argv)
    return func, vars(args)


LONG_OPTIONS = sorted({o for _, _, options in COMMANDS.values() for o in options}
                      | {"--help", "--version"})
OPTION_TOKENS = [*LONG_OPTIONS, "-h", "--", "-x", "--no-such-flag"]
PREFIX_TOKENS = sorted({o[:k] for o in LONG_OPTIONS for k in range(3, len(o))})
EQUALS_TOKENS = sorted({f"{o}={v}" for o in LONG_OPTIONS for v in ("3", "-3", "x", "")}
                       | {f"{o[:3]}={v}" for o in LONG_OPTIONS for v in ("5", "F3")})
INT_VALUES = ["0", "3", "5", "17", "-3", "-1"]
ARG_VALUES = [*INT_VALUES, "Z", "Q", "F2", "x", "polygon6", "2,3", "-1.5", "", "-", "--"]


@st.composite
def argvs(draw):
    """A command name, a bogus one or a top-level option, then a few options.
    Half are the command's own, perhaps abbreviated, with as many values as
    they take, one of them perhaps after "="; the rest are any option token,
    followed by up to two values."""
    argv = [draw(st.sampled_from([*COMMANDS, "bogus", "-h", "--version"]))]
    options = COMMANDS[argv[0]][2] if argv[0] in COMMANDS else {}
    for _ in range(draw(st.integers(0, 3))):
        if options and draw(st.booleans()):
            name = draw(st.sampled_from(sorted(options)))
            kind, metavars = options[name][:2]
            pool = INT_VALUES if kind is int else ARG_VALUES
            values = [draw(st.sampled_from(pool)) for _ in metavars]
            name = name[:draw(st.integers(3, len(name)))]
            if len(values) == 1 and draw(st.booleans()):
                argv.append(f"{name}={values[0]}")
            else:
                argv += [name, *values]
        else:
            argv.append(draw(st.sampled_from(OPTION_TOKENS) | st.sampled_from(PREFIX_TOKENS)
                             | st.sampled_from(EQUALS_TOKENS)))
            argv += [draw(st.sampled_from(ARG_VALUES)) for _ in range(draw(st.integers(0, 2)))]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(argv=argvs())
def test_parser_agrees_with_argparse(argv):
    # same exit code; on success, the same handler and every option it reads.
    # argparse drops an explicit "--" value and passes [] on (see below).
    assume(not any(token.endswith("=--") for token in argv))
    assert parse_outcome(table_parse, argv) == parse_outcome(oracle_parse, argv), argv


def test_an_explicit_double_dash_is_a_value(capsys):
    # argparse made "--coeff=--" an empty list, and the handler a traceback
    assert table_parse(["qtm", "--coeff=--"])[1]["coeff"] == "--"
    assert main(["qtm", "--fixture", "cp2", "--coeff=--"]) == 2
    assert "unknown coefficient tag '--'" in capsys.readouterr().err
