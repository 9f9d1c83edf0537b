"""Spans around torictop's public functions, installed from outside.

``Tracer.install`` imports every module of the package, wraps each public
function defined there (plus a few hot methods) and patches the wrapper into
every module namespace that imported the original, so calls made through
``from .complexes import full_subcomplex`` are traced as well.  Functions the
benchmark expects but the package no longer has are reported ``absent``.

Each span records its hook, start, end, parent span and job id.  Self time
is the span's duration minus the durations of its direct children; spans of
one thread never overlap, so that is the uncovered part of its interval.
Every span stays in memory, in compact arrays, until ``write_spans`` writes
them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

PACKAGE = "torictop"

# Hot methods worth a span; they are named <module>.<method>.
METHODS = {"complexes": (("SimplicialComplex", "faces_by_card"),)}

# The hooks whose metrics BENCHMARK.json lists.  A hook missing from the
# package (deleted by a later change) is reported absent with zero counts.
EXPECTED = (
    "cli.main",
    "complexes.full_subcomplex",
    "complexes.faces_by_card",
    "homology.boundary_matrices",
    "homology.smith_normal_form",
    "homology.reduced_homology",
    "linalg.rank_int",
    "linalg.matmul_int",
    "linalg.rank_mod_p",
    "linalg.rref",
    "linalg.reduce_against",
    "linalg.det_int",
    "momentangle.wedge_splitting",
    "projection.projection_decomposition",
    "projection.suspension_triviality_check",
    "quasitoric.cohomology_ring",
    "quasitoric.validate_characteristic",
    "splitting.split",
)

# Columns of the span file, in the order write_spans writes them.
SPAN_COLUMNS = (("hook", "i"), ("parent", "i"), ("job", "i"), ("start", "d"), ("end", "d"))


def _boundary_cells(tracer, args, kwargs, result):
    cells = [mat.rows * mat.cols for mat in result[0]]
    tracer.add("homology.boundary_cells", sum(cells))
    tracer.peak("homology.max_boundary_cells", max(cells, default=0))


def _reduced_homology(tracer, args, kwargs, result):
    tracer.add("homology.reduced_homology.nonzero", 1 if result.groups else 0)


def _full_subcomplex(tracer, args, kwargs, result):
    if tracer.is_active("momentangle.wedge_splitting"):
        tracer.add("momentangle.subsets", 1)


def _wedge_splitting(tracer, args, kwargs, result):
    if tracer.job_command == "projection":
        tracer.add("projection.wedge_splittings", 1)


def _rref(tracer, args, kwargs, result):
    rows, ncols = args[0], args[1]
    tracer.add("linalg.rref.cells", len(rows) * ncols)
    if tracer.is_active("quasitoric.cohomology_ring"):
        tracer.add("quasitoric.monomial_columns", ncols)


def _cohomology_ring(tracer, args, kwargs, result):
    tracer.add("quasitoric.basis_dims", sum(result.dims_even()))


# Counters read a hook's arguments and result after the call returns.
COUNTERS = {
    "homology.boundary_matrices": _boundary_cells,
    "homology.reduced_homology": _reduced_homology,
    "complexes.full_subcomplex": _full_subcomplex,
    "momentangle.wedge_splitting": _wedge_splitting,
    "linalg.rref": _rref,
    "quasitoric.cohomology_ring": _cohomology_ring,
}


class Tracer:
    """Spans and per-hook aggregates of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        self.active: list[int] = []
        self.counters: dict[str, float] = {}
        self.counter_failures: dict[str, str] = {}
        self.sites: dict[str, list[str]] = {}
        self.span_hook = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self.job_command = None
        self._stack: list[list] = []
        self._plan: list[tuple[object, str, object, object]] = []

    # -- aggregates --------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def is_active(self, hook: str) -> bool:
        i = self.index.get(hook)
        return i is not None and self.active[i] > 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        i = len(self.names)
        self.names.append(name)
        self.index[name] = i
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.append(0)
        self.active.append(0)
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            self.span_hook.append(i)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            self.active[i] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[i] += 1
                raise
            finally:
                end = clock()
                self.active[i] -= 1
                stack.pop()
                duration = end - start
                self.calls[i] += 1
                self.self_s[i] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.span_start[span] = start
                self.span_end[span] = end
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except Exception as e:  # a changed return type must not stop the run
                    self.counter_failures[name] = repr(e)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every module and patch all import sites.

        The wrappers are made on the first call; later calls patch the same
        wrappers in again after ``uninstall``, so aggregates accumulate.
        """
        if not self._plan:
            self._plan = self._make_plan()
        for holder, attr, _, wrapper in self._plan:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._plan:
            setattr(holder, attr, original)

    def _make_plan(self) -> list[tuple[object, str, object, object]]:
        pkg = importlib.import_module(PACKAGE)
        modules = {"": pkg}
        for info in pkgutil.iter_modules(pkg.__path__):
            modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
        originals: dict[int, tuple[str, object]] = {}
        for short, mod in sorted(modules.items()):
            if not short:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (f"{short}.{attr}", obj)
            for cls_name, meth in METHODS.get(short, ()):
                obj = getattr(getattr(mod, cls_name, None), meth, None)
                if inspect.isfunction(obj):
                    originals[id(obj)] = (f"{short}.{meth}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        plan = []
        for short, mod in sorted(modules.items()):
            holders = [(short or PACKAGE, mod)] + [
                (f"{short}.{cls_name}", getattr(mod, cls_name))
                for cls_name, _ in METHODS.get(short, ()) if hasattr(mod, cls_name)
            ]
            for label, holder in holders:
                for attr, obj in list(vars(holder).items()):
                    key = id(obj)
                    if key in wrappers and originals[key][1] is obj:
                        self.sites.setdefault(originals[key][0], []).append(f"{label}.{attr}")
                        plan.append((holder, attr, obj, wrappers[key]))
        return plan

    # -- reports -----------------------------------------------------------

    def hook_metrics(self, divisor: int) -> dict[str, float]:
        """calls, self_s and errors per hook, each divided by ``divisor``."""
        out = {}
        for name in sorted(set(self.names) | set(EXPECTED)):
            i = self.index.get(name)
            calls, self_s, errors = (0, 0.0, 0) if i is None else (
                self.calls[i], self.self_s[i], self.errors[i])
            out[f"{name}.calls"] = calls / divisor
            out[f"{name}.self_s"] = self_s / divisor
            out[f"{name}.errors"] = errors / divisor
        return out

    def coverage(self) -> list[dict]:
        """Every wrapped or expected hook: found where, and whether it fired."""
        rows = []
        for name in sorted(set(self.names) | set(EXPECTED)):
            i = self.index.get(name)
            rows.append({
                "hook": name,
                "status": "absent" if i is None else "found",
                "sites": self.sites.get(name, []),
                "fired": bool(i is not None and self.calls[i]),
                "calls": 0 if i is None else self.calls[i],
                "counter_failure": self.counter_failures.get(name),
            })
        return rows

    def write_spans(self, path) -> dict:
        """Write every span to ``path`` as SPAN_COLUMNS back to back, each a
        machine-order array of ``count`` items; return the file's description.
        Parents are span indices (-1 for none), hooks index ``hooks`` and
        times are ``time.perf_counter`` seconds."""
        columns = (self.span_hook, self.span_parent, self.span_job,
                   self.span_start, self.span_end)
        with open(path, "wb") as fh:
            for column in columns:
                column.tofile(fh)
        return {"file": str(path), "count": len(self.span_start),
                "columns": [list(c) for c in SPAN_COLUMNS], "hooks": self.names}


def read_spans(path, count: int) -> dict[str, array]:
    """The columns of a span file written by ``Tracer.write_spans``."""
    out = {}
    with open(path, "rb") as fh:
        for name, code in SPAN_COLUMNS:
            column = array(code)
            column.fromfile(fh, count)
            out[name] = column
    return out
