"""Command-line interface: JSON in, JSON report out.

One subcommand per invocation:

  hvec         f-vector, h-vector and symmetry report of a polytope
  zk           wedge splitting and homology of the moment-angle complex
  qtm          cohomology presentation of a quasitoric manifold
  split        p-local wedge pieces of the suspended manifold
  projection   residue grouping of the quotient map with certificates
  nontrivial   one-sided non-triviality verdicts
  cube-census  exhaust the 64 quadratic presentations over the 3-cube
  bott         characteristic data for a tower of projective bundles
  fixtures     list or dump the bundled inputs

Exit codes: 0 success, 2 input error, 3 internal-consistency failure.
Reports are deterministic byte-for-byte for fixed inputs and version.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import __version__
from .errors import ConsistencyError, InputError, require_ints

# Each handler imports the modules it runs when it runs, so that a call pays
# at start-up only for its own subcommand.


def _read_input(args) -> tuple[dict, bytes]:
    if getattr(args, "fixture", None):
        from . import fixtures
        data = fixtures.raw(args.fixture)
    elif getattr(args, "input", None):
        try:
            with open(args.input, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {args.input}: {e}")
    else:
        raise InputError("provide --input FILE or --fixture NAME")
    try:
        obj = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"input is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    return obj, data


def _polytope_of(obj: dict):
    from . import fixtures
    if "polytope" in obj:
        return fixtures.polytope_from_json(obj["polytope"])
    if "n" in obj and "complex" in obj:
        return fixtures.polytope_from_json(obj)
    raise InputError("expected a polytope object with keys 'n' and 'complex'")


def _quasitoric_of(obj: dict):
    if "polytope" not in obj or "lambda" not in obj:
        raise InputError("expected a quasitoric object with keys 'polytope' and 'lambda'")
    from . import fixtures
    return fixtures.quasitoric_from_json(obj)


def _complex_of(obj: dict):
    from .complexes import validate_complex
    if "facets" in obj and "m" in obj:
        return validate_complex(obj["facets"], obj["m"])
    if "complex" in obj:
        inner = obj["complex"]
        if not isinstance(inner, dict) or "facets" not in inner or "m" not in inner:
            raise InputError("nested complex object needs keys 'm' and 'facets'")
        return validate_complex(inner["facets"], inner["m"])
    if "polytope" in obj:
        if not isinstance(obj["polytope"], dict):
            raise InputError("'polytope' must be a JSON object")
        return _complex_of(obj["polytope"])
    raise InputError("expected a complex object with keys 'm' and 'facets'")


def input_digest(data: bytes) -> str:
    """Hex SHA-256 of ``data``.  The builtin module imports about ten times
    faster than ``hashlib``, which loads OpenSSL first."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _report(command: str, params: dict, digest_bytes: bytes, results, warnings=()) -> dict:
    return {
        "command": command,
        "parameters": params,
        "input_digest": input_digest(digest_bytes),
        "version": __version__,
        "warnings": list(warnings),
        "results": results,
    }


def _emit(report: dict, args) -> None:
    if getattr(args, "text", False):
        lines = _render_text(report)
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as e:
            raise InputError(f"cannot write {args.output}: {e}")
    else:
        sys.stdout.write(payload)


def _render_text(report: dict) -> list[str]:
    lines = [f"# {report['command']} (torictop {report['version']})"]
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    lines.extend(_flatten("", report["results"]))
    return lines


def _flatten(prefix: str, obj) -> list[str]:
    if isinstance(obj, dict):
        out = []
        for k in sorted(obj):
            out.extend(_flatten(f"{prefix}{k}.", obj[k]))
        return out
    if isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        out = []
        for i, x in enumerate(obj):
            out.extend(_flatten(f"{prefix}{i}.", x))
        return out
    return [f"{prefix[:-1]}: {json.dumps(obj)}"]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_hvec(args) -> dict:
    from .complexes import dehn_sommerville_report, f_vector, h_vector
    obj, data = _read_input(args)
    P = _polytope_of(obj)
    f = f_vector(P)
    h = h_vector(f, P.n)
    ds = dehn_sommerville_report(h)
    results = {
        "n": P.n,
        "m": P.m,
        "f": list(f.entries),
        "h": list(h.entries),
        "dehn_sommerville": {
            "symmetric": ds.symmetric,
            "asymmetric_indices": list(ds.asymmetric_indices),
            "h1_ge_h2": ds.h1_ge_h2,
        },
    }
    return _report("hvec", {}, data, results)


def _cmd_zk(args) -> dict:
    from .momentangle import _cap_for, wedge_splitting
    obj, data = _read_input(args)
    K = _complex_of(obj)
    sizes = None
    if args.sizes:
        try:
            sizes = {int(s) for s in args.sizes.split(",")}
        except ValueError:
            raise InputError(f"bad --sizes value {args.sizes!r}")
    warnings = []
    default_cap = _cap_for(args.coeff, None)
    if args.cap is not None and K.m > default_cap:
        warnings.append(
            f"m={K.m} is above the default enumeration cap {default_cap}; "
            "explicit --cap override in effect"
        )
    sp = wedge_splitting(K, coeff=args.coeff, size_filter=sizes, cap=args.cap)
    return _report(
        "zk", {"coeff": args.coeff, "sizes": sorted(sizes) if sizes else None},
        data, sp.to_json_obj(), warnings,
    )


def _cmd_qtm(args) -> dict:
    from .quasitoric import cohomology_ring
    obj, data = _read_input(args)
    P, lam = _quasitoric_of(obj)
    pres = cohomology_ring(P, lam, args.coeff)
    return _report("qtm", {"coeff": args.coeff}, data, pres.to_json_obj())


def _cmd_split(args) -> dict:
    from .complexes import h_vector_of
    from .quasitoric import require_admissible
    from .splitting import EvenBettiData, is_primitive_root, sphere_wedge_decomposition, split
    obj, data = _read_input(args)
    warnings = []
    if "b" in obj:
        betti = require_ints(obj["b"], "'b'")
        b = EvenBettiData(n_top=len(betti) - 1, b=betti)
    else:
        if "lambda" in obj:
            P, lam = _quasitoric_of(obj)
            require_admissible(P, lam)
        else:
            P = _polytope_of(obj)
        b = EvenBettiData.from_h_vector(h_vector_of(P))
    p = args.p
    if args.u is not None and not is_primitive_root(args.u, p):
        raise InputError(f"{args.u} is not a primitive root mod {p}")
    if p > b.n_top:
        pieces = sphere_wedge_decomposition(b, p, u=args.u)
        form = "sphere-wedge"
    else:
        pieces = split(b, p, u=args.u)
        form = "general"
        warnings.append(
            f"p={p} is not above n={b.n_top}; pieces are reported degreewise, "
            "no sphere wedge form is claimed"
        )
    results = {
        "p": p,
        "form": form,
        "betti": list(b.b),
        "pieces": [s.to_json_obj() for s in pieces],
    }
    return _report("split", {"p": p, "u": args.u}, data, results, warnings)


def _cmd_projection(args) -> dict:
    from .projection import projection_reports
    obj, data = _read_input(args)
    P, lam = _quasitoric_of(obj)
    rep, triv = projection_reports(P, lam, args.p, cap=args.cap)
    warnings = []
    if not triv.applicable:
        warnings.append(
            f"p={args.p} is not above n={P.n}: per-summand certificates only, "
            "no overall verdict"
        )
    results = {
        "decomposition": rep.to_json_obj(),
        "triviality": triv.to_json_obj(),
    }
    return _report("projection", {"p": args.p}, data, results, warnings)


def _cmd_nontrivial(args) -> dict:
    from .projection import p_local_note, squaring_kernel, two_simplices_check
    from .quasitoric import cohomology_ring
    if args.two_simplices:
        n, k = args.two_simplices
        verdict = two_simplices_check(n, k)
        return _report(
            "nontrivial", {"two_simplices": [n, k]}, b"", {"verdict": verdict.to_json_obj()},
            verdict.notes,
        )
    obj, data = _read_input(args)
    P, lam = _quasitoric_of(obj)
    pres = cohomology_ring(P, lam, "F2")
    verdict = squaring_kernel(pres)
    results = {
        "verdict": verdict.to_json_obj(),
        "p_local": p_local_note(P, lam),
    }
    return _report("nontrivial", {}, data, results, verdict.notes)


def _cmd_cube_census(args) -> dict:
    from .projection import cube_census
    census = cube_census()
    return _report("cube-census", {}, b"", census.to_json_obj())


def _cmd_bott(args) -> dict:
    from .complexes import h_vector_of
    from .quasitoric import generalized_bott
    obj, data = _read_input(args)
    if "dims" not in obj:
        raise InputError("expected a tower object with key 'dims' (and optional 'params')")
    P, lam = generalized_bott(obj["dims"], obj.get("params"))
    results = {
        "polytope": P.to_json_obj(),
        "lambda": lam.to_json_obj(),
        "valid": True,
        "h": list(h_vector_of(P).entries),
    }
    return _report("bott", {}, data, results)


def _cmd_fixtures(args) -> dict:
    from . import fixtures
    if args.name:
        obj = fixtures.load(args.name)
        return _report("fixtures", {"name": args.name}, fixtures.raw(args.name), obj)
    listing = []
    for n in fixtures.names():
        obj = fixtures.load(n)
        listing.append({"name": n, "kind": obj["kind"], "description": obj["description"]})
    return _report("fixtures", {}, b"", {"available": listing})


def _add_io(sub, input_required=True):
    if input_required:
        sub.add_argument("--input", help="path to a JSON input file")
        sub.add_argument("--fixture", help="name of a bundled fixture")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--text", action="store_true", help="human-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torictop", description=__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=f"torictop {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("hvec", help="f-vector and h-vector of a polytope")
    _add_io(s)
    s.set_defaults(func=_cmd_hvec)

    s = subs.add_parser("zk", help="moment-angle wedge splitting and homology")
    _add_io(s)
    s.add_argument("--coeff", default="Z", help="Z, Q or F<p> (default Z)")
    s.add_argument("--sizes", help="comma-separated |I| filter, e.g. 2,3")
    s.add_argument("--cap", type=int, help="override the enumeration cap")
    s.set_defaults(func=_cmd_zk)

    s = subs.add_parser("qtm", help="cohomology presentation of a quasitoric manifold")
    _add_io(s)
    s.add_argument("--coeff", default="Q", help="Q or F<p> (default Q)")
    s.set_defaults(func=_cmd_qtm)

    s = subs.add_parser("split", help="p-local pieces of the suspended manifold")
    _add_io(s)
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--u", type=int, help="override the primitive root (validated, no effect)")
    s.set_defaults(func=_cmd_split)

    s = subs.add_parser("projection", help="certificates for the suspended quotient map")
    _add_io(s)
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--cap", type=int, help="override the enumeration cap")
    s.set_defaults(func=_cmd_projection)

    s = subs.add_parser("nontrivial", help="one-sided non-triviality verdicts")
    _add_io(s, input_required=True)
    s.add_argument(
        "--two-simplices", nargs=2, type=int, metavar=("N", "K"),
        help="run the arithmetic test for a product of simplices instead of a file",
    )
    s.set_defaults(func=_cmd_nontrivial)

    s = subs.add_parser("cube-census", help="all quadratic presentations over the 3-cube")
    _add_io(s, input_required=False)
    s.set_defaults(func=_cmd_cube_census)

    s = subs.add_parser("bott", help="characteristic data for a projective-bundle tower")
    _add_io(s)
    s.set_defaults(func=_cmd_bott)

    s = subs.add_parser("fixtures", help="list or dump bundled fixtures")
    s.add_argument("--name", help="dump this fixture instead of listing")
    s.add_argument("--output", help="write the report here instead of stdout")
    s.add_argument("--text", action="store_true", help="human-readable output")
    s.set_defaults(func=_cmd_fixtures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _emit(args.func(args), args)
    except InputError as e:
        print(f"torictop: input error: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"torictop: internal consistency failure: {e}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """Entry point of ``torictop`` and ``python -m torictop.cli``.  Freezing the collector
    on exit leaves the final collections nothing to walk; flushing and atexit still run."""
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
