"""Benchmark of the torictop command line, one workload per invocation.

    python3 bench/run.py --workload zk-spheres --seed 1 --seconds 30 --trace 0

Run from the repository root; torictop is imported from ./src.  The seed
fixes the generated inputs (see workloads.py).  One client runs the job ladder
as a closed loop, in order and over again, starting each
``python -m torictop.cli`` child only after the previous one exited, until
``--seconds`` have passed.  Every report is checked by the oracles in
oracles.py.  There is never more than one child, so the numbers do not depend
on how many cores the machine has beyond the first.

--trace 0 prints the end-to-end metrics:
  setup_s       median wall time of ``torictop --version`` (interpreter start,
                ``import torictop`` and the argument parser), sampled every
                SETUP_EVERY_S seconds through the loop
  job_p50_s     median wall time per job
  job_tail_s    wall time at the highest percentile with at least ten jobs beyond it
  jobs_per_s    jobs that exited 0 and passed their checks, per second of job time
  peak_rss_mb   largest max-RSS of any child
  failed_frac   jobs that failed, timed out or failed a check, over jobs attempted
  ref_s         mean wall time of a child interpreter running a fixed
                pure-Python loop, started after every job
  job_p50_ref, job_tail_ref, jobs_per_ref, setup_ref
                the three job timings and setup_s in units of ref_s, which
                cancels drift in the machine's speed; BENCHMARK.json bounds
                these together with setup_s and peak_rss_mb

--trace 1 runs the same jobs through cli.main in this process instead, in whole
passes of the ladder that alternate between untraced and traced with spans
around every public torictop function (tracing.py), for about ``--seconds``.
It prints the per-layer metrics per pass, the hook coverage report and the
tracing overhead, and writes every span to a file under .bench_out/.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Inputs, full
results and spans are written under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_EVERY_S = 2.0  # a --version call after a job once this long has passed; setup_s is their median
SETUP_MIN = 3  # --version calls made after the loop if it made fewer
IMPORT_REPEATS = 5  # fresh-interpreter imports per traced run
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # a run never starts a child that could end past this
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


# A fixed pure-Python loop (about 40 ms) that imports nothing of the repo.
REFERENCE = """
table = {}
acc = 0
row = list(range(64))
for i in range(150_000):
    acc += row[i & 63] * i % 7
    table[i & 255] = acc
    if table.get(i & 127, 0) > acc:
        acc -= 1
"""


def reference_wall(env) -> float:
    """Wall time of a child interpreter that runs REFERENCE, the yardstick of
    machine speed.  On a shared machine the speed can swing by half within
    seconds and drift further over minutes, and it differs between cores; a
    child is started and scheduled like a job, so job times divided by its
    mean time in the same run cancel the drift.  The same loop timed inside
    this process tracked the jobs worse than their raw times did."""
    start = time.perf_counter()
    r = subprocess.run([sys.executable, "-c", REFERENCE], env=env, capture_output=True,
                       timeout=JOB_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - start
    if r.returncode != 0:
        raise RuntimeError(f"reference child exited with {r.returncode}")
    return wall


def child_env() -> dict[str, str]:
    """The parent's environment with torictop on the path, no process pool
    and a fixed hash seed, so set iteration order is the same in every run."""
    env = dict(os.environ)
    env.pop("TORICTOP_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def metadata(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", "src")  # the measured program only
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha or "unknown",
        "dirty": None if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, jobs beyond it) at the highest whole percentile
    that leaves at least TAIL_BEYOND samples strictly above its rank."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))  # nearest-rank: ceil(pct * n / 100)
    return xs[rank - 1], pct, n - rank


def run_child(argv: list[str], env, timeout: float):
    """(wall seconds, exit code or None on timeout, stdout bytes)."""
    start = time.perf_counter()
    try:
        r = subprocess.run([sys.executable, "-m", "torictop.cli", *argv], env=env,
                           capture_output=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, b""
    return time.perf_counter() - start, r.returncode, r.stdout


def verdict(job, code, stdout) -> list[str]:
    """Problems with one job's outcome, empty when it passed."""
    if code is None:
        return ["timed out"]
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        return [f"report is not JSON: {e}"]
    try:
        return oracles.check(job.check, report, job.input)
    except (KeyError, TypeError, IndexError, AttributeError) as e:
        return [f"report lacks an expected field: {e!r}"]


def prepare(workload: str, seed: int):
    jobs = workloads.ladder(workload, seed)
    argvs = workloads.write_inputs(jobs, OUT / "inputs" / f"{workload}-{seed}")
    return jobs, argvs


def no_op_wall(env) -> float:
    """Wall time of one ``torictop --version`` call."""
    wall, code, out = run_child(["--version"], env, JOB_TIMEOUT_S)
    if code != 0 or not out.startswith(b"torictop"):
        raise RuntimeError(f"torictop --version exited with {code}")
    return wall


def end_to_end(workload: str, seed: int, seconds: float):
    jobs, argvs = prepare(workload, seed)
    env = child_env()
    run_start = time.perf_counter()

    _, code, _ = run_child(argvs[0], env, JOB_TIMEOUT_S)  # warm-up: fills the bytecode cache
    if code != 0:
        raise RuntimeError(f"warm-up job {argvs[0]} exited with {code}")
    # The no-op calls are spread through the loop: their time swings within
    # seconds, and samples taken together would all share one state.
    setup = [no_op_wall(env)]
    records = []
    outputs = []
    refs = [reference_wall(env)]
    last_setup = loop_start = time.perf_counter()
    while not records or time.perf_counter() - loop_start < seconds:
        left = RUN_LIMIT_S - (time.perf_counter() - run_start)
        if left < 1:
            break
        k = len(records) % len(jobs)
        wall, code, out = run_child(argvs[k], env, min(JOB_TIMEOUT_S, left))
        records.append({"job": k, "shape": list(jobs[k].shape), "wall_s": wall, "exit": code})
        outputs.append(out)
        refs.append(reference_wall(env))
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(no_op_wall(env))
            last_setup = time.perf_counter()
    loop_wall = time.perf_counter() - loop_start - sum(refs[1:]) - sum(setup[1:])
    while len(setup) < SETUP_MIN:
        setup.append(no_op_wall(env))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    for rec, out in zip(records, outputs):
        rec["problems"] = verdict(jobs[rec["job"]], rec["exit"], out)
    failed = sum(1 for r in records if r["problems"])
    walls = [r["wall_s"] for r in records]
    tail_s, tail_pct, beyond = tail(walls)
    ref = statistics.fmean(refs)
    passed = len(records) - failed
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (passed / loop_wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "failed_frac": (failed / len(records), "ratio"),
        "ref_s": (ref, "s"),
        "job_p50_ref": (statistics.median(walls) / ref, "ref"),
        "job_tail_ref": (tail_s / ref, "ref"),
        "jobs_per_ref": (passed * ref / loop_wall, "1/ref"),
        "setup_ref": (statistics.median(setup) / ref, "ref"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} --version calls",
        "job_p50_s": f"{len(walls)} jobs",
        "job_tail_s": f"p{tail_pct}, {beyond} jobs beyond it, {len(walls)} jobs",
        "jobs_per_s": f"{passed} passed in {loop_wall:.2f} s of jobs",
        "peak_rss_mb": "largest child max-RSS",
        "ref_s": f"mean of {len(refs)} reference children",
        "job_p50_ref": "job_p50_s / ref_s",
        "job_tail_ref": "job_tail_s / ref_s",
        "jobs_per_ref": "jobs_per_s * ref_s",
        "setup_ref": "setup_s / ref_s",
    }
    detail = {"setup_samples_s": setup, "reference_samples_s": refs, "jobs": records,
              "loop_wall_s": loop_wall}
    return records, failed, metrics, notes, detail


def one_pass(cli, jobs, argvs, tracer=None, first_id=0):
    """Run the ladder once through cli.main in this process.

    Returns (wall seconds per job, report bytes, problems per job).
    """
    walls, problems, report_bytes = [], [], 0
    for k, (job, argv) in enumerate(zip(jobs, argvs)):
        if tracer is not None:
            tracer.job, tracer.job_command = first_id + k, job.args[0]
        buf = io.StringIO()
        raised = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code or 0
        except Exception as e:  # one broken job must not end the run
            code, raised = 1, f"raised {e!r}"
        walls.append(time.perf_counter() - t)
        text = buf.getvalue()
        report_bytes += len(text.encode())
        problems.append([raised] if raised else verdict(job, code, text))
    if tracer is not None:
        tracer.job, tracer.job_command = -1, None
    return walls, report_bytes, problems


def fresh_import_s(env) -> list[float]:
    code = ("import time; t = time.perf_counter(); import torictop.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_REPEATS):
        r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=JOB_TIMEOUT_S, cwd=ROOT)
        if r.returncode != 0:
            raise RuntimeError(f"import torictop.cli failed: {r.stderr.strip()}")
        out.append(float(r.stdout))
    return out


def traced(workload: str, seed: int, seconds: float):
    jobs, argvs = prepare(workload, seed)
    import_s = fresh_import_s(child_env())
    os.environ.pop("TORICTOP_WORKERS", None)
    sys.path.insert(0, str(SRC))
    from torictop import cli

    one_pass(cli, jobs[:1], argvs[:1])  # warm-up
    tracer = tracing.Tracer()
    t_walls, u_walls, problems = [], [], []
    passes = report_bytes = 0
    start = time.perf_counter()
    # Traced and untraced passes alternate, so a drift in machine speed falls
    # on both sides of the overhead estimate.
    while passes == 0 or time.perf_counter() - start < seconds:
        tracer.install()
        try:
            walls, nbytes, probs = one_pass(cli, jobs, argvs, tracer, passes * len(jobs))
        finally:
            tracer.uninstall()
        t_walls += walls
        report_bytes += nbytes
        walls, _, u_probs = one_pass(cli, jobs, argvs)
        u_walls += walls
        problems += probs + u_probs
        passes += 1

    c = tracer.counters
    calls = tracer.hook_metrics(passes)
    traced_wall = sum(t_walls) / passes
    untraced_wall = sum(u_walls) / passes
    accounted = sum(v for k, v in calls.items() if k.endswith(".self_s"))
    rh = tracer.index.get("homology.reduced_homology")
    rh_calls = tracer.calls[rh] if rh is not None else 0
    projection_jobs = sum(1 for j in jobs if j.args[0] == "projection") * passes
    per_pass = {k: v / passes for k, v in c.items()}
    metrics = {k: (v, "s" if k.endswith("self_s") else "count") for k, v in calls.items()}
    metrics.update({
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.report_bytes": (report_bytes / passes, "bytes"),
        "homology.boundary_cells": (per_pass.get("homology.boundary_cells", 0), "count"),
        "homology.max_boundary_cells": (c.get("homology.max_boundary_cells", 0), "count"),
        "homology.reduced_homology.nonzero_frac": (
            c.get("homology.reduced_homology.nonzero", 0) / rh_calls if rh_calls else 0.0, "ratio"),
        "momentangle.subsets": (per_pass.get("momentangle.subsets", 0), "count"),
        "projection.wedge_splittings_per_job": (
            c.get("projection.wedge_splittings", 0) / projection_jobs if projection_jobs else 0.0,
            "ratio"),
        "linalg.rref.cells": (per_pass.get("linalg.rref.cells", 0), "count"),
        "quasitoric.basis_frac": (
            c.get("quasitoric.basis_dims", 0) / c["quasitoric.monomial_columns"]
            if c.get("quasitoric.monomial_columns") else 0.0, "ratio"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.unaccounted_s": (traced_wall - accounted, "s"),
        "trace.hooks_absent": (sum(1 for r in tracer.coverage() if r["status"] == "absent"),
                               "count"),
        "trace.hooks_fired": (sum(1 for r in tracer.coverage() if r["fired"]), "count"),
    })
    records = [{"job": i % len(jobs), "problems": p} for i, p in enumerate(problems)]
    failed = sum(1 for p in problems if p)
    notes = {
        "trace.traced_wall_s": f"per pass of {len(jobs)} jobs, {passes} passes",
        "trace.unaccounted_s": "traced wall minus the self times of all hooks",
    }
    OUT.mkdir(parents=True, exist_ok=True)
    spans = tracer.write_spans(OUT / f"{workload}-seed{seed}-spans.bin")
    notes["trace.hooks_fired"] = f"{spans['count']} spans written to {spans['file']}"
    detail = {
        "passes": passes,
        "import_samples_s": import_s,
        "coverage": tracer.coverage(),
        "spans": spans,
        "jobs": records,
    }
    return records, failed, metrics, notes, detail


def reported_names(trace_mode: int) -> list[str]:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace_mode else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torictop" / "cli.py").is_file():
        print(f"bench: no torictop sources under {SRC}", file=sys.stderr)
        return 2

    run = traced if args.trace else end_to_end
    try:
        records, failed, metrics, notes, detail = run(args.workload, args.seed, args.seconds)
    except RuntimeError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    meta = metadata(args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={len(records)} failed={failed}")
    print("# " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:44s} {value:14.6f} {unit:6s} {note}")
    if args.trace:
        for row in detail["coverage"]:
            fired = "fired" if row["fired"] else "idle"
            print(f"hook {row['hook']:40s} {row['status']:6s} {fired:5s} "
                  f"sites={','.join(row['sites']) or '-'}")
    failures = sorted({(r["job"], "; ".join(r["problems"])) for r in records if r["problems"]})
    for job, text in failures:
        print(f"FAILED job {job}: {text}")

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"workload": args.workload, "meta": meta,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "notes": notes, "detail": detail}, fh)
    listed = reported_names(args.trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
