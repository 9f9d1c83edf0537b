"""Command-line interface: JSON in, JSON report out.

One subcommand per invocation; COMMANDS below lists them with their options,
and ``torictop -h`` prints that list.

Exit codes: 0 success, 2 input error, 3 internal-consistency failure.
Reports are deterministic byte-for-byte for fixed inputs and version.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .errors import ConsistencyError, InputError, require_ints

# Each handler imports the modules it runs when it runs, so that a call pays
# at start-up only for its own subcommand.


def _read_input(args) -> tuple[dict, bytes]:
    from . import fixtures
    if getattr(args, "fixture", None):
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
        obj = fixtures.loads(data.decode())
    except (ValueError, RecursionError) as e:  # JSONDecodeError and UnicodeDecodeError too
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
        sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
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


def report_json(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` at twice its speed (with an indent
    json runs its pure-Python encoder) for dicts with str keys, lists, tuples, str, int,
    bool and None.  Anything else, a float, a set or a non-str key, raises TypeError."""
    from _json import encode_basestring_ascii as quote  # json's own C quoting

    def encode(obj, nl: str) -> str:
        t = type(obj)
        if t is dict:
            if not obj:
                return "{}"
            sep = nl + "  "  # an f-string copies the body once, where + would copy it thrice
            body = f",{sep}".join([f"{quote(k)}: {encode(obj[k], sep)}" for k in sorted(obj)])
            return f"{{{sep}{body}{nl}}}"
        if t is list or t is tuple:
            if not obj:
                return "[]"
            sep = nl + "  "
            items = (map(int.__repr__, obj) if {*map(type, obj)} == {int}
                     else [encode(x, sep) for x in obj])
            body = f",{sep}".join(items)
            return f"[{sep}{body}{nl}]"
        if t is str:
            return quote(obj)
        if t is int:
            return int.__repr__(obj)
        if t is bool:
            return "true" if obj else "false"
        if obj is None:
            return "null"
        raise TypeError(f"{t.__name__} is not a report type")

    return encode(report, "\n")


def _emit(report: dict, args) -> None:
    if getattr(args, "text", False):
        lines = _render_text(report)
        payload = "\n".join(lines) + "\n"
    else:
        payload = report_json(report) + "\n"
    _write(payload, getattr(args, "output", None))


def _write(text: str, path=None) -> None:
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:  # flushed here, so that a stdout that cannot be written is an input error
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        raise InputError(f"cannot write {path or 'stdout'}: {e}")


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
    import json
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
    if args.sizes is not None:
        try:
            sizes = {int(s) for s in args.sizes.split(",")}
        except ValueError:
            raise InputError(f"bad --sizes value {args.sizes!r}")
    warnings = []
    if args.cap is not None:  # _cap_for reads the tag first, so a bad one is refused here
        default_cap = _cap_for(args.coeff, None)
        if K.m > default_cap:
            warnings.append(f"m={K.m} is above the default enumeration cap {default_cap}; "
                            "explicit --cap override in effect")
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
    from .splitting import EvenBettiData, sphere_wedge_decomposition, split
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
    if args.two_simplices:
        n, k = args.two_simplices
        verdict = two_simplices_check(n, k)
        return _report(
            "nontrivial", {"two_simplices": [n, k]}, b"", {"verdict": verdict.to_json_obj()},
            verdict.notes,
        )
    from .quasitoric import cohomology_ring
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


# ---------------------------------------------------------------------------
# the command table: command -> (handler, one-line help, options) and option ->
# (kind, metavars, default, required, help); an int or str option takes
# len(metavars) values, a bool is a flag.  Parsing, help and usage errors read it.

_OUT = {"--output": (str, ("OUTPUT",), None, False, "write the report here instead of stdout"),
        "--text": (bool, (), False, False, "human-readable output")}
_IO = {"--input": (str, ("INPUT",), None, False, "path to a JSON input file"),
       "--fixture": (str, ("FIXTURE",), None, False, "name of a bundled fixture"), **_OUT}
_P = {"--p": (int, ("P",), None, True, "odd prime")}
_CAP = {"--cap": (int, ("CAP",), None, False, "override the enumeration cap")}
COMMANDS = {
    "hvec": (_cmd_hvec, "f-vector and h-vector of a polytope", _IO),
    "zk": (_cmd_zk, "moment-angle wedge splitting and homology", {
        **_IO, "--coeff": (str, ("COEFF",), "Z", False, "Z, Q or F<p> (default Z)"),
        "--sizes": (str, ("SIZES",), None, False, "comma-separated |I| filter, e.g. 2,3"), **_CAP}),
    "qtm": (_cmd_qtm, "cohomology presentation of a quasitoric manifold", {
        **_IO, "--coeff": (str, ("COEFF",), "Q", False, "Q or F<p> (default Q)")}),
    "split": (_cmd_split, "p-local pieces of the suspended manifold", {**_IO, **_P,
        "--u": (int, ("U",), None, False, "override the primitive root (validated, no effect)")}),
    "projection": (_cmd_projection, "suspended quotient map certificates", {**_IO, **_P, **_CAP}),
    "nontrivial": (_cmd_nontrivial, "one-sided non-triviality verdicts", {**_IO,
        "--two-simplices": (int, ("N", "K"), None, False,
            "run the arithmetic test for a product of simplices instead of a file")}),
    "cube-census": (_cmd_cube_census, "all quadratic presentations over the 3-cube", _OUT),
    "bott": (_cmd_bott, "characteristic data for a projective-bundle tower", _IO),
    "fixtures": (_cmd_fixtures, "list or dump bundled fixtures", {
        "--name": (str, ("NAME",), None, False, "dump this fixture instead of listing"), **_OUT}),
}
_HELP = (bool, (), False, False, "show this help message and exit")
_VERSION = {"--version": (bool, (), False, False, "show the version and exit")}


def _usage(command=None) -> str:
    if not command:
        return "usage: torictop [-h] [--version] {%s} ..." % ",".join(COMMANDS)
    words = ((" ".join((o, *spec[1])), spec[3]) for o, spec in COMMANDS[command][2].items())
    return f"usage: torictop {command} [-h] " + " ".join(w if req else f"[{w}]" for w, req in words)


def _help(command=None) -> str:
    summary, options = COMMANDS[command][1:] if command else (__doc__.split("\n")[0], _VERSION)
    rows = [] if command else [("commands:", None), *((c, s[1]) for c, s in COMMANDS.items())]
    rows += [("options:", None), *((" ".join((o, *s[1])), s[4])
                                   for o, s in {"-h, --help": _HELP, **options}.items())]
    width = max(len(name) for name, text in rows if text)
    return f"{_usage(command)}\n\n{summary}\n" + "".join(
        f"\n{name}\n" if text is None else f"  {name:<{width}}  {text}\n" for name, text in rows)


def _say(text: str) -> None:
    try:
        print(text, file=sys.stderr)
    except OSError:  # stderr cannot be written: the exit code is all that is left to tell
        pass


def _exit(code: int, text: str, command=None):
    if code:
        _say(f"{_usage(command)}\ntorictop: error: {text}")
    else:
        _write(text)  # help or the version
    raise SystemExit(code)


def _classify(token: str, names, command):
    """(option, explicit value) for a token naming one of ``names``, (None, None)
    for an unknown option, None for a value; a long option may be abbreviated."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    exact = token if token in names else head if eq and head in names else None
    hits = [exact] if exact else [o for o in names if token[1] == "-" and o.startswith(head)]
    if len(hits) > 1:
        _exit(2, f"ambiguous option: {token} could match {', '.join(hits)}", command)
    if hits:
        return hits[0], value if eq and hits[0] != token else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (None, None)


def _read(tokens: list[str], options: dict, command):
    """The values of ``options`` in ``tokens`` and the tokens left over.  Help, and
    --version before the command, exit at once; the last of a repeated option wins."""
    names = {"-h": _HELP, "--help": _HELP, **(options if command else _VERSION)}
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(t, names, command) for t in tokens[:cut]]  # all before any is read
    kinds += [(None, None)] + [None] * len(tokens)  # "--" is left over, never a value
    values, extras, i = {o: spec[2] for o, spec in options.items()}, [], 0
    while i < len(tokens):
        (name, explicit), i = kinds[i] or (None, None), i + 1
        if name is None:
            extras.append(tokens[i - 1])
            continue
        kind, n = names[name][0], len(names[name][1])
        got, i = ([explicit], i) if explicit is not None else (tokens[i:i + n], i + n)
        if len(got) != n or explicit is None and any(kinds[i - n:i]):
            _exit(2, f"argument {name}: expects {n or 'no'} value{'s' * (n != 1)}", command)
        if name not in options:
            _exit(0, f"torictop {__version__}\n" if name == "--version" else _help(command))
        try:
            got = [kind(v) for v in got]
        except ValueError:
            _exit(2, f"argument {name}: invalid {kind.__name__} value: {' '.join(got)!r}", command)
        values[name] = got[0] if n == 1 else got or True
    return values, extras


def _parse(argv: list[str]):
    """The handler that ``argv`` selects and the options it reads."""
    top = ("-h", "--help", *_VERSION)
    k = next((i for i, t in enumerate(argv) if t == "--" or not _classify(t, top, None)), len(argv))
    extras = _read(argv[:k], {}, None)[1]
    if k == len(argv) or argv[k] not in COMMANDS:
        _exit(2, f"choose a command from {', '.join(COMMANDS)}")
    command, (func, _, options) = argv[k], COMMANDS[argv[k]]
    values, more = _read(argv[k + 1:], options, command)
    missing = [o for o, spec in options.items() if spec[3] and values[o] is None]
    if missing or extras or more:
        _exit(2, f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(extras + more)}", command)
    return func, SimpleNamespace(**{o[2:].replace("-", "_"): v for o, v in values.items()})


def main(argv=None) -> int:
    try:
        func, args = _parse(sys.argv[1:] if argv is None else list(argv))
        _emit(func(args), args)
    except InputError as e:
        _say(f"torictop: input error: {e}")
        return 2
    except ConsistencyError as e:
        _say(f"torictop: internal consistency failure: {e}")
        return 3
    return 0


def run() -> None:
    """Entry point of ``torictop`` and ``python -m torictop.cli``: atexit handlers, flush, then
    ``os._exit``, which skips module teardown.  An exception or a non-int exit code exits as usual."""
    try:
        code = main()
    except SystemExit as e:  # --help, --version or a usage error
        if not isinstance(e.code, int):
            raise
        code = e.code
    atexit._run_exitfuncs()
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except OSError:  # _write has reported a stdout failure, and _say ignores stderr's
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
