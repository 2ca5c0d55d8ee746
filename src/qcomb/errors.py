"""Exceptions, constants, the integer rule and the `frozen` value-class decorator
shared across the package.

Validation failures (bad arguments, malformed shapes) and resource-cap
overruns are distinct conditions: callers may want to retry the latter
with a larger cap, but never the former.

The integer rule: where the library takes integer data (a size, an index, a
weight, a coefficient, an entry), a whole number is stored as `int` and
anything else (1.5, "2", None, NaN, +-inf, a non-iterable where a sequence
is due) raises ValidationError.  `require_int`, `require_ints` and
`require_sequence` state it for every public entry point, the first two with
the minimum (0 or 1) of a size, a count or a weight; trusted builds of checked
data skip it.  The type rule, `require_instance`, refuses an object argument (a
shape, a partition, a matrix) that is not of its class.  `check_cap` is the one
place the cap rule lives: a cap is a positive integer.  The prime rule,
`require_prime`, is stricter: the modulus must be an `int` itself, so 2.0 is
refused, and a prime below 2^64.
"""

from operator import attrgetter, index
from typing import Callable

__all__ = [
    "DEFAULT_CAP",
    "ResourceLimitError",
    "ValidationError",
]


class ValidationError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cap."""


DEFAULT_CAP = 10**6

# How `require_int` and `require_ints` name each minimum they are given.
_KINDS = {None: ("an integer", "integers"), 0: ("a nonnegative integer", "nonnegative integers"),
          1: ("a positive integer", "positive integers")}
_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))  # require_prime's divisors and bases

# The verify suites, one per layer, listed where the CLI reads them without the registry.
SUITE_NAMES = ("qanalogue", "inversions", "denumerant", "flagcells")


def require_int(value, what: str, minimum: int | None = None) -> int:
    """`value` as an int if it is a whole number, and at least `minimum` (None, 0
    or 1) when one is given; else ValidationError naming `what`.

    >>> require_int(2.0, "n", 1), require_int(-3, "index")
    (2, -3)
    >>> for value, minimum in [(1.5, None), ("2", None), (None, 0), (float("nan"), 1), (0, 1)]:
    ...     try:
    ...         require_int(value, "n", minimum)
    ...     except ValidationError as exc:
    ...         print(exc)
    n must be an integer, got 1.5
    n must be an integer, got '2'
    n must be a nonnegative integer, got None
    n must be a positive integer, got nan
    n must be a positive integer, got 0
    """
    try:
        number = int(value)
        if number == value and (minimum is None or number >= minimum):
            return number
    except (TypeError, ValueError, OverflowError):  # no int() at all: None, "x", NaN, an infinity
        pass
    raise ValidationError(f"{what} must be {_KINDS[minimum][0]}, got {value!r}")


def require_ints(values, what: str, minimum: int | None = None) -> tuple[int, ...]:
    """The entries of the iterable `values` as a tuple of ints if every one is a
    whole number, and at least `minimum` (None, 0 or 1) when one is given; else
    ValidationError naming `what`.  No Python-level step is taken per entry:
    `operator.index` converts a row of ints in C, and a row it refuses, say one
    holding 2.0, is converted by `int` and must equal the row given.

    >>> require_ints([2.0, 3, -1], "weights"), require_ints((), "weights", 1)
    ((2, 3, -1), ())
    >>> for values, minimum in [((1.5, 2), None), (["2"], 0), (iter([None]), None),
    ...                         ((float("inf"),), 1), (5, None), ((2.0, 0), 1)]:
    ...     try:
    ...         require_ints(values, "weights", minimum)
    ...     except ValidationError as exc:
    ...         print(exc)
    weights must be integers, got (1.5, 2)
    weights must be nonnegative integers, got ('2',)
    weights must be integers, got (None,)
    weights must be positive integers, got (inf,)
    weights must be integers, got 5
    weights must be positive integers, got (2.0, 0)
    """
    raw = values
    try:  # operator.index takes ints and int-likes only, at about twice the speed of int()
        raw = tuple(values)
        data = tuple(map(index, raw))
    except TypeError:  # a float or anything else that is no int; or `values` is not iterable
        try:
            data = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError):  # as in require_int
            data = None
        if data != raw:
            data = None
    if data is not None and (minimum is None or min(data, default=minimum) >= minimum):
        return data
    raise ValidationError(f"{what} must be {_KINDS[minimum][1]}, got {raw!r}")


def require_sequence(values, what: str) -> tuple:
    """The iterable `values` as a tuple; else ValidationError naming `what`."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {values!r}") from None


def require_instance(value, cls: type, what: str):
    """`value` itself if it is an instance of `cls`; else ValidationError naming `what`."""
    if isinstance(value, cls):
        return value
    raise ValidationError(f"{what} must be of type {cls.__name__}, got {value!r}")


def require_prime(p: int) -> None:
    """Reject p unless it is an `int` and a prime below 2^64.

    Trial division by the primes up to 37 decides every p < 37^2; above
    that, a strong-probable-prime test to those twelve bases (deterministic
    Miller-Rabin) is exact for every p < 2^64.
    """
    if not isinstance(p, int):  # 2.0 == 2 would pass the membership test
        raise ValidationError(f"modulus must be an integer, got {p!r}")
    if p in _SMALL_PRIMES:
        return
    if p >= 1 << 64:
        raise ValidationError(f"modulus must be below 2^64, got {p}")
    composite = p < 2 or any(p % q == 0 for q in _SMALL_PRIMES)
    if composite or (p >= 37 * 37 and not _strong_probable_prime(p)):
        raise ValidationError(f"modulus must be prime, got {p}")


def _strong_probable_prime(p: int) -> bool:
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_cap(cap: int, what: str, bits: int, count: Callable[[], int] | None = None) -> None:
    """Raise ResourceLimitError if an enumeration of at least 2^bits items, or of
    exactly `count()` items, exceeds `cap`.  The bound is checked first, so `count`,
    which may be huge to build, is called only when the bound fits.  An exact amount
    past 64 bits is named by its size, "at least 2^N", to keep the message short.
    A `cap` that is not a positive integer is a ValidationError.

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
    cap = require_int(cap, "cap", 1)
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
    sets its fields with `object.__setattr__`.  A trusted build, which skips
    those checks (the `_wrap`s, `cell_form` and the word, partition and
    theta-word builders), stores them straight into a new instance's `__dict__`.
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
