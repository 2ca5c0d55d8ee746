"""Exceptions, constants and the `frozen` value-class decorator shared across the package.

Validation failures (bad arguments, malformed shapes) and resource-cap
overruns are distinct conditions: callers may want to retry the latter
with a larger cap, but never the former.
"""

from operator import attrgetter
from typing import Callable


class ValidationError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cap."""


DEFAULT_CAP = 10**6

# The verify suites, one per layer, listed where the CLI reads them without the registry.
SUITE_NAMES = ("qanalogue", "inversions", "denumerant", "flagcells")


def check_cap(cap: int, what: str, bits: int, count: Callable[[], int] | None = None) -> None:
    """Raise ResourceLimitError if an enumeration of at least 2^bits items, or of
    exactly `count()` items, exceeds `cap`.  The bound is checked first, so `count`,
    which may be huge to build, is called only when the bound fits.  An exact amount
    past 64 bits is named by its size, "at least 2^N", to keep the message short.

    >>> def refusal(call, *args):
    ...     try:
    ...         call(*args)
    ...     except ResourceLimitError as exc:
    ...         return str(exc)
    >>> refusal(check_cap, 100, "flag enumeration", 7, lambda: 1 // 0)  # count is not called
    'flag enumeration requires enumerating at least 2^7 items, above the cap of 100'
    >>> refusal(check_cap, 100, "flag enumeration", 6, lambda: 2080)
    'flag enumeration requires enumerating 2080 items, above the cap of 100'
    >>> from qcomb import FlagShape, enumerate_words
    >>> refusal(next, enumerate_words(FlagShape.full(25), cap=2**70))
    'multiset word enumeration requires enumerating at least 2^83 items, above the cap of 1180591620717411303424'
    """
    if bits >= cap.bit_length():  # then 2^bits >= 2^cap.bit_length() > cap
        required = f"at least 2^{bits}"
    elif count is None or (required := count()) <= cap:
        return
    elif required.bit_length() > 64:
        required = f"at least 2^{required.bit_length() - 1}"
    raise ResourceLimitError(f"{what} requires enumerating {required} items, above the cap of {cap}")


def frozen(cls):
    """Make `cls` an immutable value class over its annotated fields: equal when
    the fields are, hashed as their tuple, shown as `Name(field=value, ...)`.
    Assigning or deleting raises AttributeError, so each class's own `__init__`
    sets its fields with `object.__setattr__` (the loops that build words and
    partitions in bulk store them straight into the instance `__dict__`).
    """
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    methods = dict(__eq__=__eq__, __hash__=lambda self: hash(key(self)),
                   __repr__=__repr__, __setattr__=__setattr__, __delattr__=__setattr__)
    for name, method in methods.items():
        if name not in vars(cls):  # the class's own methods win
            setattr(cls, name, method)
    return cls
