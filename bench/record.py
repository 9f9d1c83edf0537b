"""Repeat the benchmark over several seeds and record its medians and spread.

    python3 bench/record.py --seeds 1-10 --out bench/BENCH_0.json

For every workload in BENCHMARK.json this runs ``bench/run.py`` once per seed
with --trace 0 and once, on the first seed, with --trace 1.  It prints, per
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) /
median next to a third of the metric's bound, and writes everything,
together with the per-layer metrics of the traced run, to --out.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(last-line result, run metadata, wall seconds) of one benchmark run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if r.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    meta = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return json.loads(lines[-1]), meta, wall


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,7")
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    record = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict[str, list[float]] = {name: [] for name in bounds}
        walls, failed, attempted = [], 0, 0
        for seed in seeds:
            result, meta, wall = run(workload, seed, seconds, 0)
            walls.append(wall)
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
        entry = {
            "attempted": attempted,
            "failed": failed,
            "max_run_wall_s": max(walls),
            "end_to_end": {name: summarize(v) for name, v in samples.items()},
        }
        print(f"{workload}: {attempted} jobs, {failed} failed, longest run {max(walls):.1f} s")
        for name, s in entry["end_to_end"].items():
            ok = s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {name:12s} median {s['median']:10.5f}  q1 {s['q1']:10.5f}  "
                  f"q3 {s['q3']:10.5f}  spread {s['spread']:.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f} {'' if ok else ' WIDE'}")
        result, meta, wall = run(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced_failed"] = result["failed"]
        print(f"  traced run: {result['attempted']} jobs, {result['failed']} failed, {wall:.1f} s")
        entry["meta"] = meta
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "some spreads exceed a third of their bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
