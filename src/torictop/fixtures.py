"""Bundled JSON fixtures: standard polytopes and characteristic matrices."""

from __future__ import annotations

import json

from .complexes import PolytopeDual, validate_complex
from .errors import InputError, require_int


def _package_files():
    from importlib import resources  # only reading a bundled fixture needs it
    return resources.files(__package__) / "fixtures"


def names() -> list[str]:
    out = []
    for entry in _package_files().iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def raw(name: str) -> bytes:
    f = _package_files() / f"{name}.json"
    try:
        return f.read_bytes()
    except FileNotFoundError:
        raise InputError(f"no fixture named {name!r}; available: {', '.join(names())}")


def load(name: str) -> dict:
    return json.loads(raw(name).decode())


def polytope_from_json(obj: dict) -> PolytopeDual:
    if not isinstance(obj, dict) or not isinstance(obj.get("complex", {}), dict):
        raise InputError("a polytope and its 'complex' must be JSON objects")
    try:
        comp = obj["complex"]
        K = validate_complex(comp["facets"], comp["m"])
        return PolytopeDual(n=require_int(obj["n"], "polytope 'n'"), complex=K)
    except KeyError as e:
        raise InputError(f"polytope object is missing key {e}")


def quasitoric_from_json(obj: dict):
    """(PolytopeDual, CharacteristicMatrix) of a quasitoric object."""
    from .quasitoric import CharacteristicMatrix
    try:
        P = polytope_from_json(obj["polytope"])
        lam = CharacteristicMatrix.from_rows(obj["lambda"])
    except KeyError as e:
        raise InputError(f"quasitoric object is missing key {e}")
    return P, lam


def load_polytope(name: str) -> PolytopeDual:
    return polytope_from_json(load(name)["polytope"])


def load_quasitoric(name: str):
    """(PolytopeDual, CharacteristicMatrix) of a quasitoric fixture."""
    obj = load(name)
    if obj.get("kind") != "quasitoric":
        raise InputError(f"fixture {name!r} has no characteristic matrix")
    return quasitoric_from_json(obj)


def quasitoric_names() -> list[str]:
    return [n for n in names() if load(n).get("kind") == "quasitoric"]
