"""The tracer: hooks at every import site, self-time accounting, absent hooks."""

import contextlib
import io

import pytest

import run
import tracing
from torictop import cli, linalg, momentangle, projection


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_hooks_reach_every_import_site(tracer):
    sites = tracer.sites["complexes.full_subcomplex"]
    assert "momentangle.full_subcomplex" in sites
    assert "projection.full_subcomplex" in sites
    assert momentangle.full_subcomplex is projection.full_subcomplex
    tracer.job_command = "projection"
    assert quiet_main(["projection", "--fixture", "cp2", "--p", "3"]) == 0
    rows = {r["hook"]: r for r in tracer.coverage()}
    assert rows["complexes.full_subcomplex"]["fired"]
    assert rows["projection.suspension_triviality_check"]["fired"]
    assert tracer.counters["projection.wedge_splittings"] == 2  # one per certificate pass


def test_self_times_account_for_the_wall_time(tracer):
    assert quiet_main(["zk", "--fixture", "polygon6", "--coeff", "Z"]) == 0
    main = tracer.index["cli.main"]
    first_main = next(k for k, h in enumerate(tracer.span_hook) if h == main)
    wall = tracer.span_end[first_main] - tracer.span_start[first_main]
    total_self = sum(tracer.self_s)
    assert total_self == pytest.approx(wall, rel=1e-6)
    assert tracer.calls[tracer.index["homology.reduced_homology"]] == 2**6 - 1
    assert tracer.counters["momentangle.subsets"] == 2**6 - 1


def test_uninstall_restores_the_originals():
    original = linalg.rank_int
    t = tracing.Tracer()
    t.install()
    assert linalg.rank_int is not original
    t.uninstall()
    assert linalg.rank_int is original


def test_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(linalg, "rank_mod_p")
    t = tracing.Tracer()
    t.install()
    try:
        assert quiet_main(["zk", "--fixture", "polygon5", "--coeff", "Q"]) == 0
    finally:
        t.uninstall()
    row = next(r for r in t.coverage() if r["hook"] == "linalg.rank_mod_p")
    assert row["status"] == "absent" and row["calls"] == 0
    metrics = t.hook_metrics(1)
    assert metrics["linalg.rank_mod_p.calls"] == 0


def test_errors_are_counted(tracer):
    assert quiet_main(["zk", "--fixture", "polygon5", "--coeff", "X"]) == 2
    assert sum(tracer.errors) >= 1


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    value, pct, beyond = run.tail([float(i) for i in range(1, 21)])
    assert (value, pct, beyond) == (10.0, 50, 10)
    value, pct, beyond = run.tail([float(i) for i in range(1, 34)])
    assert beyond >= 10 and value == sorted(range(1, 34))[33 - beyond - 1]


def test_every_span_is_kept_and_written(tracer, tmp_path):
    for _ in range(3):
        assert quiet_main(["zk", "--fixture", "polygon6", "--coeff", "Z"]) == 0
    header = tracer.write_spans(tmp_path / "spans.bin")
    assert header["count"] == sum(tracer.calls) > 0
    spans = tracing.read_spans(tmp_path / "spans.bin", header["count"])
    assert list(spans["hook"]) == list(tracer.span_hook)
    assert all(p < k for k, p in enumerate(spans["parent"]))
    assert all(s <= e for s, e in zip(spans["start"], spans["end"]))
