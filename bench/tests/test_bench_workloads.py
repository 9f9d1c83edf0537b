"""The generators: seeded, shape-stable, and valid input for torictop."""

import contextlib
import io
import json

import pytest

import workloads
from torictop import cli


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    workloads.write_inputs(workloads.ladder(workload, 11), tmp_path / "a")
    workloads.write_inputs(workloads.ladder(workload, 11), tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_the_ladder_but_not_the_structure(workload):
    one, two = workloads.ladder(workload, 1), workloads.ladder(workload, 2)
    assert [j.shape for j in one] == [j.shape for j in two]
    assert [j.args[0] for j in one] == [j.args[0] for j in two]
    assert any(a.input != b.input or a.args != b.args for a, b in zip(one, two))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_inputs_pass_validation(workload, seed, tmp_path):
    jobs = workloads.ladder(workload, seed)
    for job, argv in zip(jobs, workloads.write_inputs(jobs, tmp_path)):
        if job.input is None:
            continue
        path = argv[argv.index("--input") + 1]
        command = "bott" if "dims" in job.input else "hvec"
        code, out = run_cli(command, "--input", path)
        assert code == 0, (job.shape, out)
        if command == "bott":
            assert json.loads(out)["results"]["lambda"] == job.check["lambda"]


@pytest.mark.parametrize("dims", [(1,), (2, 1), (1, 2, 2), (3, 1, 2)])
def test_tower_matches_the_program_construction(dims, tmp_path):
    import random

    spec, qtm = workloads.bott_tower(list(dims), random.Random(5), twist=3)
    path = tmp_path / "tower.json"
    path.write_bytes(workloads.encode(spec))
    code, out = run_cli("bott", "--input", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lambda"] == qtm["lambda"]
    assert sorted(results["polytope"]["complex"]["facets"]) == qtm["polytope"]["complex"]["facets"]


def test_stacked_sphere_is_a_polytope_boundary(tmp_path):
    import random

    for n, m in [(3, 9), (4, 10), (2, 7)]:
        obj = workloads.polytope(n, m, workloads.stacked_sphere(n, m, random.Random(m)))
        path = tmp_path / f"s{n}{m}.json"
        path.write_bytes(workloads.encode(obj))
        code, out = run_cli("hvec", "--input", str(path))
        assert code == 0
        assert json.loads(out)["results"]["h"] == [1] + [m - n] * (n - 1) + [1]
