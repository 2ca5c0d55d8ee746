"""Exceptions, constants and the `frozen` value-class decorator shared across the package.

Validation failures (bad arguments, malformed shapes) and resource-cap
overruns are distinct conditions: callers may want to retry the latter
with a larger cap, but never the former.
"""

from operator import attrgetter


class ValidationError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cap."""


DEFAULT_CAP = 10**6

# The verify suites, one per layer, listed where the CLI reads them without the registry.
SUITE_NAMES = ("qanalogue", "inversions", "denumerant", "flagcells")


def check_cap(required: int, cap: int, what: str) -> None:
    """Raise ResourceLimitError if an enumeration of `required` items exceeds `cap`."""
    if required > cap:
        raise ResourceLimitError(
            f"{what} requires enumerating {required} items, above the cap of {cap}"
        )


def frozen(cls):
    """Make `cls` an immutable value class over its annotated fields: equal when
    the fields are, hashed as their tuple, shown as `Name(field=value, ...)`.
    Assigning or deleting raises AttributeError, so constructors set fields with
    `object.__setattr__`; a class without an `__init__` gets one taking the fields.
    """
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        fields = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or fields.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes exactly the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def __eq__(self, other):
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    methods = dict(__init__=__init__, __eq__=__eq__, __hash__=lambda self: hash(key(self)),
                   __repr__=__repr__, __setattr__=__setattr__, __delattr__=__setattr__)
    for name, method in methods.items():
        if name not in vars(cls):  # the class's own methods win
            setattr(cls, name, method)
    return cls
