"""Exception types and the value-record base shared across the package."""

_set = object.__setattr__  # how a Record's __init__ sets its fields


class Record:
    """An immutable value record: its fields are its `__match_args__`, the
    `__slots__` of its class and of the records it derives from, in order.

    A subclass names its own fields in `__slots__` and sets each in an
    explicit `__init__` through `_set` (`object.__setattr__`), since its
    own assignment and deletion raise AttributeError.  Two records are
    equal when they are of the same class with equal fields, and hash as
    their field tuple; `repr` and pickling follow the fields.
    """

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__match_args__ + cls.__slots__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


class PresentationError(ValueError):
    """Malformed or inconsistent Artin-Tits presentation data."""


class BudgetExhausted(RuntimeError):
    """A bounded computation ran out of budget before settling.

    This is an *undetermined* outcome, deliberately distinct from a negative
    answer: rewriting over a general Artin-Tits presentation is not known to
    terminate, so every potentially unbounded loop carries a budget and must
    surface exhaustion instead of guessing.
    """

    def __init__(self, message: str, **stats):
        super().__init__(message)
        self.stats = stats


class StructuralError(RuntimeError):
    """An internal invariant that the ambient theory guarantees was violated.

    Raised, for example, if two distinct maximal common divisors show up
    (impossible in a gcd-monoid) or a fraction entry that must have a unique
    representative word does not.  Seeing this means a bug, not bad input.
    """
