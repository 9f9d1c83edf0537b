"""The oracles agree with brute force and with torictop, and catch bad reports."""

import contextlib
import copy
import io
import itertools
import json
import random

import pytest

import oracles
import workloads
from torictop import cli


def report_for(job, tmp_path):
    argv = workloads.write_inputs([job], tmp_path)[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def cycle_runs(subset, m):
    """Connected components of the m-cycle restricted to a proper subset."""
    return sum(1 for v in subset if (v % m) + 1 not in subset)


@pytest.mark.parametrize("m", range(4, 10))
def test_mcgavran_matches_hochster_sums(m):
    ranks = {m + 2: 1}
    for r in range(1, m):
        for subset in itertools.combinations(range(1, m + 1), r):
            extra = cycle_runs(set(subset), m) - 1
            if extra:
                ranks[r + 1] = ranks.get(r + 1, 0) + extra
    assert oracles.mcgavran_ranks(m) == ranks


def test_closed_forms():
    assert oracles.odd_sphere_product_ranks([1, 1]) == {3: 2, 6: 1}
    assert oracles.odd_sphere_product_ranks([1, 2]) == {3: 1, 5: 1, 8: 1}
    assert oracles.tower_h([1, 1]) == [1, 2, 1]
    assert oracles.tower_h([2, 1]) == [1, 2, 2, 1]
    assert oracles.h_vector(workloads.polygon(5, random.Random(0)), 2) == [1, 3, 1]


def test_cube_enumeration_matches_the_admissibility_rule():
    want = {
        bits for bits in itertools.product((0, 1), repeat=6)
        if bits[0] * bits[2] == 0 and bits[3] * bits[5] == 0 and bits[1] * bits[4] == 0
        and oracles._f2_det([[1, bits[2], bits[4]], [bits[0], 1, bits[5]],
                             [bits[1], bits[3], 1]])
    }
    assert oracles.cube_valid_params() == want


@pytest.mark.parametrize("workload", ["cli-mix", "zk-spheres"])
def test_oracles_accept_torictop_reports(workload, tmp_path):
    jobs = workloads.ladder(workload, 4)
    if workload == "zk-spheres":  # the smallest sphere of each kind keeps this quick
        jobs = [workloads._zk(workloads.polytope(2, 6, workloads.polygon(6, random.Random(1))),
                              2, 6, "F3", {"kind": "zk-polygon", "n": 2, "m": 6})]
    for i, job in enumerate(jobs):
        assert oracles.check(job.check, report_for(job, tmp_path / str(i)), job.input) == []


def test_oracles_reject_corrupted_reports(tmp_path):
    jobs = {j.check["kind"]: j for j in workloads.ladder("cli-mix", 4)}
    reports = {kind: report_for(job, tmp_path / kind) for kind, job in jobs.items()}

    def broken(kind, mutate):
        rep = copy.deepcopy(reports[kind])
        mutate(rep["results"])
        return oracles.check(jobs[kind].check, rep, jobs[kind].input)

    assert broken("zk-sphere", lambda r: r["total"][0].update(rank=r["total"][0]["rank"] + 1))
    assert broken("hvec", lambda r: r["h"].reverse() or r["h"].__setitem__(0, 2))
    assert broken("projection", lambda r: r["decomposition"]["groups"]["1"]["summands"].pop())
    assert broken("split", lambda r: r["betti"].append(1))
    assert broken("cube-census", lambda r: r.update(valid_count=r["valid_count"] - 1))
    assert broken("bott", lambda r: r["lambda"][0].reverse())
    assert broken("two-simplices", lambda r: r["verdict"].update(
        conclusion="inconclusive" if r["verdict"]["conclusion"] == "not-null" else "not-null"))
