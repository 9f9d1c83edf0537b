"""Exception hierarchy shared by all torictop modules, and the int checks on outside input."""


class InputError(ValueError):
    """Invalid user-supplied data: bad vertex indices, malformed JSON,
    dimension mismatches, failed polytope checks.  CLI exit code 2."""


class CapExceededError(InputError):
    """A subset enumeration would exceed the configured size cap."""


class ConsistencyError(RuntimeError):
    """An identity that is a theorem failed to hold.  This means a bug in
    this library or inconsistent input that slipped through validation,
    never a property of honest data.  CLI exit code 3."""


def require_int(x, what: str) -> int:
    """``x`` when it is an int; a bool, float or string is refused, never read as one."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{what} is {x!r}, not an integer")
    return x


def require_ints(seq, what: str) -> tuple[int, ...]:
    """``seq``, a list of ints, as a tuple; InputError naming ``what`` otherwise."""
    if not isinstance(seq, (list, tuple)):
        raise InputError(f"{what} must be a list of integers, not {type(seq).__name__}")
    return tuple(require_int(x, f"{what} entry {i}") for i, x in enumerate(seq))
