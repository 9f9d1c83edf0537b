"""Immutable records without generated source.

``_frozen`` gives an annotated class what ``dataclass(frozen=True)`` would:
``__init__`` over the fields in declaration order with defaults and a
``__post_init__`` hook, ``__eq__`` (same class only) and ``__hash__`` over
the compared fields, ``__repr__``, and assignment raising AttributeError.
The dataclasses module builds these methods by compiling source text, which
was most of the package's import time.  Fields are not inherited.
"""

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING, compare=True):
        self.default, self.default_factory, self.compare = default, default_factory, compare


def _frozen(cls):
    names = tuple(cls.__annotations__)
    specs = []
    for name in names:
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, _Field):
            delattr(cls, name)
        specs.append(spec if isinstance(spec, _Field) else _Field(spec))
    compared = [name for name, spec in zip(names, specs) if spec.compare]
    get = attrgetter(*compared)
    key = get if len(compared) > 1 else lambda self: (get(self),)
    post_init = cls.__dict__.get("__post_init__")
    n = len(names)

    def bind(args, kw):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} arguments, {len(args)} given")
        values = list(args)
        for name, spec in zip(names[len(args):], specs[len(args):]):
            if name in kw:
                values.append(kw.pop(name))
            elif spec.default is not _MISSING:
                values.append(spec.default)
            elif spec.default_factory is not _MISSING:
                values.append(spec.default_factory())
            else:
                raise TypeError(f"{cls.__name__}() is missing argument {name!r}")
        if kw:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kw)}")
        return values

    def __init__(self, *args, **kw):
        if kw or len(args) != n:  # the fast path takes every field positionally
            args = bind(args, kw)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__name__} is frozen")
