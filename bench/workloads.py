"""Seeded job ladders for the benchmark workloads.

Each workload is a fixed ladder of job shapes: the command, the vertex count
m, the dimension n and the coefficients never depend on the seed.  The seed
only chooses structure (which facet a stacked polytope grows on, the order of
join factors, vertex labels, tower twists, the prime p), so a fresh seed costs
about the same as the last one.  Inputs are built here from first principles
and never by calling into torictop: the program only ever sees the JSON files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

@dataclass(frozen=True)
class Job:
    """One CLI call.

    ``args`` follow ``python -m torictop.cli``; the literal ``{input}`` is
    replaced by the path of the job's input file.  ``check`` tells the
    oracles what the report must satisfy; ``shape`` is the seed-independent
    part of the job: (command, m, n, coefficient).
    """

    args: tuple[str, ...]
    shape: tuple
    check: dict
    input: dict | None = None


def encode(obj) -> bytes:
    """Canonical bytes of a generated input, so a seed fixes the file bytes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# complexes


def _relabel(facets, m: int, rng: random.Random):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return sorted(sorted(perm[v - 1] for v in f) for f in facets)


def stacked_sphere(n: int, m: int, rng: random.Random):
    """Facets of the boundary of a stacked n-polytope with m vertices.

    Starts from the boundary of the n-simplex and repeatedly subdivides a
    seed-chosen facet by a new vertex.  Its dual is a simple polytope with
    m facets (a simplex with vertices truncated).
    """
    facets = [frozenset(f) for f in itertools.combinations(range(1, n + 2), n)]
    for v in range(n + 2, m + 1):
        old = facets.pop(rng.randrange(len(facets)))
        facets.extend((old - {u}) | {v} for u in sorted(old))
    return _relabel(facets, m, rng)


def polygon(m: int, rng: random.Random):
    """Facets of the m-cycle, the dual of the m-gon, with shuffled labels."""
    return _relabel([(i, i % m + 1) for i in range(1, m + 1)], m, rng)


def _join_facets(dims) -> list[set[int]]:
    """Facets of the join of simplex boundaries, factor i on dims[i]+1 vertices."""
    offset = 0
    parts = []
    for d in dims:
        verts = range(offset + 1, offset + d + 2)
        parts.append([set(f) for f in itertools.combinations(verts, d)])
        offset += d + 1
    return [set().union(*combo) for combo in itertools.product(*parts)]


def simplex_join(dims, rng: random.Random):
    """Facets of a join of simplex boundaries with shuffled labels."""
    return _relabel(_join_facets(dims), sum(d + 1 for d in dims), rng)


def polytope(n: int, m: int, facets) -> dict:
    return {"n": n, "complex": {"m": m, "facets": facets}}


# ---------------------------------------------------------------------------
# generalized Bott towers


def bott_lambda(dims, params):
    """Characteristic matrix of the tower, columns ordered stage by stage.

    Stage i owns columns e_1..e_{d_i} and a last column whose entries are -1
    in its own rows and the twist vectors params[j][i] in the rows of the
    later stages j; the matrix is block triangular with unimodular blocks.
    """
    n, m = sum(dims), sum(d + 1 for d in dims)
    row_off = [sum(dims[:j]) for j in range(len(dims))]
    col_off = [sum(d + 1 for d in dims[:j]) for j in range(len(dims))]
    rows = [[0] * m for _ in range(n)]
    for i, d in enumerate(dims):
        last = col_off[i] + d
        for t in range(d):
            rows[row_off[i] + t][col_off[i] + t] = 1
            rows[row_off[i] + t][last] = -1
        for j in range(i + 1, len(dims)):
            for s, x in enumerate(params[j][i]):
                rows[row_off[j] + s][last] = x
    return rows


def bott_tower(dims, rng: random.Random, twist: int):
    """(tower spec, quasitoric input) with twists drawn from [-twist, twist]."""
    params = [
        [[rng.randint(-twist, twist) for _ in range(dims[j])] for _ in range(j)]
        for j in range(len(dims))
    ]
    facets = sorted(sorted(f) for f in _join_facets(dims))
    spec = {"dims": list(dims), "params": params}
    polytope_obj = polytope(sum(dims), sum(d + 1 for d in dims), facets)
    qtm = {"polytope": polytope_obj, "lambda": bott_lambda(dims, params)}
    return spec, qtm


# ---------------------------------------------------------------------------
# ladders

# (kind, n, m, coefficients): half over Z, half over a prime field
ZK_SPHERES = (
    ("stacked", 3, 10, "Z"),
    ("polygon", 2, 11, "F2"),
    ("stacked", 4, 10, "F3"),
    ("polygon", 2, 12, "Z"),
    ("stacked", 3, 11, "F5"),
    ("stacked", 4, 10, "Z"),
    ("polygon", 2, 11, "F3"),
    ("stacked", 3, 11, "Z"),
)
# simplex-boundary dimensions of the join factors: 2 to 4 factors, m = 8..9.
# Costs are kept alike (0.1-0.5 s of compute) so that the median and the tail
# fall inside one cluster instead of jumping across a gap between job sizes.
ZK_JOINS = (
    (3, 3), (1, 2, 2), (2, 4), (1, 1, 1, 2), (1, 5), (1, 1, 3), (1, 1, 1, 1),
)
# (command, tower stage dimensions, coefficients); over Q only up to n = 3,
# since at n = 4 rational elimination takes 2-3 s and swings with the twists
QTM_TOWERS = (
    ("qtm", (2, 2), "F3"),
    ("qtm", (1, 1, 1), "Q"),
    ("qtm", (1, 1, 1, 1), "F5"),
    ("nontrivial", (2, 1, 1), "F2"),
    ("qtm", (2, 1), "Q"),
    ("qtm", (2, 1, 1), "F3"),
    ("qtm", (1, 1, 1, 1), "F3"),
    ("qtm", (2, 2), "F2"),
    ("nontrivial", (1, 1, 2), "F2"),
    ("qtm", (1, 2, 1), "F5"),
    ("qtm", (1, 2), "Q"),
    ("qtm", (1, 1, 2), "F5"),
)
# (command, n, m); None where the command takes no polytope
CLI_MIX = (
    ("hvec", 4, 9),
    ("split", 3, 4),
    ("projection", 3, 6),
    ("nontrivial", None, None),
    ("zk", 3, 7),
    ("bott", 3, None),
    ("cube-census", None, None),
    ("nontrivial-2s", 5, None),
    ("hvec", 3, 8),
    ("projection", 2, 4),
    ("split", 4, 5),
    ("zk", 2, 6),
)

FIXTURE_QTM = ("cp2", "cp1xcp1", "hirzebruch", "bott3", "qtm_polygon5", "qtm_polygon6")
PRIMES = (3, 5, 7, 11, 13)


def _zk(obj, n, m, coeff, check):
    return Job(("zk", "--input", "{input}", "--coeff", coeff), ("zk", m, n, coeff), check, obj)


def _zk_spheres(rng):
    jobs = []
    for kind, n, m, coeff in ZK_SPHERES:
        if kind == "stacked":
            facets = stacked_sphere(n, m, rng)
            check = {"kind": "zk-sphere", "n": n, "m": m}
        else:
            facets = polygon(m, rng)
            check = {"kind": "zk-polygon", "n": 2, "m": m}
        jobs.append(_zk(polytope(n, m, facets), n, m, coeff, check))
    return jobs


def _zk_joins(rng):
    jobs = []
    for dims in ZK_JOINS:
        dims = list(dims)
        rng.shuffle(dims)
        n, m = sum(dims), sum(d + 1 for d in dims)
        check = {"kind": "zk-join", "n": n, "m": m, "dims": sorted(dims)}
        jobs.append(_zk(polytope(n, m, simplex_join(dims, rng)), n, m, "Z", check))
    return jobs


def _qtm_towers(rng):
    jobs = []
    for cmd, dims, coeff in QTM_TOWERS:
        _, qtm = bott_tower(dims, rng, twist=2)
        n, m = sum(dims), sum(d + 1 for d in dims)
        check = {"kind": cmd, "n": n, "m": m, "dims": list(dims)}
        args = (cmd, "--input", "{input}") + (("--coeff", coeff) if cmd == "qtm" else ())
        jobs.append(Job(args, (cmd, m, n, coeff), check, qtm))
    return jobs


def _cli_mix(rng):
    jobs = []
    for cmd, n, m in CLI_MIX:
        if cmd == "hvec":
            obj = polytope(n, m, stacked_sphere(n, m, rng))
            jobs.append(Job(("hvec", "--input", "{input}"), (cmd, m, n, None),
                            {"kind": "hvec", "n": n, "m": m}, obj))
        elif cmd == "zk":
            obj = polytope(n, m, stacked_sphere(n, m, rng))
            jobs.append(_zk(obj, n, m, "Z", {"kind": "zk-sphere", "n": n, "m": m}))
        elif cmd in ("split", "projection"):
            dims = [1] * n if cmd == "projection" else [n]
            _, obj = bott_tower(dims, rng, twist=1)
            p = rng.choice(PRIMES)
            jobs.append(Job((cmd, "--input", "{input}", "--p", str(p)), (cmd, m, n, "p"),
                            {"kind": cmd, "n": n, "m": m, "p": p, "dims": dims}, obj))
        elif cmd == "nontrivial":
            name = rng.choice(FIXTURE_QTM)
            jobs.append(Job(("nontrivial", "--fixture", name), (cmd, None, None, "F2"),
                            {"kind": "nontrivial"}))
        elif cmd == "nontrivial-2s":
            k = rng.randint(0, n)
            jobs.append(Job(("nontrivial", "--two-simplices", str(n), str(k)),
                            (cmd, None, n, None), {"kind": "two-simplices", "n": n, "k": k}))
        elif cmd == "bott":
            dims = [rng.randint(1, 2) for _ in range(n)]
            spec, qtm = bott_tower(dims, rng, twist=3)
            jobs.append(Job(("bott", "--input", "{input}"), (cmd, None, n, None),
                            {"kind": "bott", "dims": dims, "lambda": qtm["lambda"]}, spec))
        elif cmd == "cube-census":
            jobs.append(Job(("cube-census",), (cmd, None, None, None), {"kind": "cube-census"}))
        else:
            raise ValueError(cmd)
    return jobs


_BUILDERS = {
    "zk-spheres": _zk_spheres,
    "zk-joins": _zk_joins,
    "qtm-towers": _qtm_towers,
    "cli-mix": _cli_mix,
}
WORKLOADS = tuple(_BUILDERS)


def ladder(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed; same seed, same jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_inputs(jobs: list[Job], directory: Path) -> list[list[str]]:
    """Write each job's input file and return its argument list."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, job in enumerate(jobs):
        path = directory / f"{i:03d}.json"
        if job.input is not None:
            path.write_bytes(encode(job.input))
        argvs.append([str(path) if a == "{input}" else a for a in job.args])
    return argvs
