"""Elements of an Artin-Tits monoid as congruence classes of positive words.

Because every defining relation is homogeneous (equal lengths on both
sides), the class of a word is finite and can be materialised by a
breadth-first closure; that closure is the package's hot kernel.  An
element is pinned to the lexicographically least member of its class under
the declared generator order, which gives deterministic ordering and trace
output.

Each Monoid keeps one word-indexed map: every word of every class built
so far maps to the class's single interned element, which carries the
class itself.  `element` is the only place a class is built or an element
constructed; `class_of` and `canonical` read it.  So two elements are equal
exactly when they are the same object, and the divisor and lcm caches are
keyed by the elements themselves.

Divisibility, gcd and divisor enumeration share one cached table per
(side, element): it maps each left- (right-) divisor to one cofactor word,
read off the prefixes (suffixes) of the class members.  The cofactor is
unique up to the congruence by cancellativity.  `lcm_data` returns the two
complements of an lcm, computed by subword reversing with budgets (see
`reversing`); a budget hit surfaces as BudgetExhausted, never as "no lcm".
That the complements close a common multiple is checked by a second
reversing run, so the lcm's class is built only when `lcm` asks for the
element.  The lcm cache is keyed by every argument of `lcm_data` (side,
both elements, step budget and length cap), so no answer depends on what
the Monoid settled before.

Elements are immutable and operations are pure.  Building a class holds a
per-monoid lock, so threads sharing a Monoid still get one element per
class; the other caches are only ever extended with values that are
functions of their key, so concurrent readers racing an insert at worst
recompute.
"""

from __future__ import annotations

import threading

from .errors import BudgetExhausted, StructuralError
from .presentation import ArtinPresentation
from .reversing import DEFAULT_STEP_BUDGET, reverse_full, split_terminal
from .words import SignedWord, signed_of_positive

__all__ = ["Monoid", "MonoidElement"]


def congruence_class(word: bytes, rules: tuple[tuple[bytes, bytes], ...]) -> frozenset:
    """All words obtainable from `word` by applying rules at any position.

    `rules` holds both orientations of every defining relation.  This is the
    innermost loop of the package: element equality, divisibility, gcds and
    divisor enumeration all reduce to word classes.
    """
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for lhs, rhs in rules:
            start = w.find(lhs)
            while start >= 0:
                u = w[:start] + rhs + w[start + len(lhs):]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
                start = w.find(lhs, start + 1)
    return frozenset(seen)


class MonoidElement:
    """One class of positive words, pinned to its canonical representative.

    Only `Monoid.element` constructs elements, one per class, so equality
    is identity and hashing is by identity; `<` orders by (length, key).
    """

    __slots__ = ("monoid", "key", "cls")

    def __init__(self, monoid: "Monoid", key: bytes, cls: frozenset[bytes]):
        self.monoid = monoid
        self.key = key  # canonical (lex-least) word, as generator indices
        self.cls = cls  # every word of the class, as generator indices

    @property
    def word(self) -> tuple[str, ...]:
        return self.monoid.presentation.decode(self.key)

    def divides(self, other: "MonoidElement", side: str = "left") -> bool:
        return self.monoid.divide(side, self, other) is not None

    def is_identity(self) -> bool:
        return not self.key

    def __len__(self) -> int:
        return len(self.key)

    def __mul__(self, other: "MonoidElement") -> "MonoidElement":
        return self.monoid.multiply(self, other)

    def __lt__(self, other: "MonoidElement") -> bool:
        return (len(self.key), self.key) < (len(other.key), other.key)

    def __str__(self) -> str:
        return self.monoid.presentation.word_str(self.key)

    def __repr__(self) -> str:
        return f"<{self}>"


class Monoid:
    """The Artin-Tits monoid of a presentation, with memoised word classes."""

    def __init__(self, presentation: ArtinPresentation):
        self.presentation = presentation
        rules = []
        for rel in presentation.relations():
            lhs = presentation.encode(rel.lhs)
            rhs = presentation.encode(rel.rhs)
            rules.append((lhs, rhs))
            rules.append((rhs, lhs))
        self._rules = tuple(rules)
        self._elements: dict[bytes, MonoidElement] = {}
        self._build_lock = threading.Lock()
        # (side, x) -> (sorted divisors of x, {divisor: cofactor word})
        self._divisors: dict[tuple[str, MonoidElement], tuple[tuple, dict]] = {}
        # (side, x, y, budget, max_len) -> lcm_data's answer, or a budget trip's message
        self._lcm_cache: dict[tuple, tuple | None | str] = {}
        self.identity = self.element(b"")

    # -- classes and elements -------------------------------------------

    def element(self, word) -> MonoidElement:
        """The class of a positive word (string, token iterable, or bytes)."""
        if isinstance(word, MonoidElement):
            if word.monoid is not self:
                raise ValueError("element belongs to a different monoid")
            return word
        key = self.presentation.encode(word)
        el = self._elements.get(key)
        if el is None:
            with self._build_lock:
                el = self._elements.get(key)
                if el is None:
                    cls = congruence_class(key, self._rules)
                    el = MonoidElement(self, min(cls), cls)
                    for w in cls:
                        self._elements[w] = el
        return el

    def class_of(self, word) -> frozenset[bytes]:
        return self.element(word).cls

    def canonical(self, word) -> bytes:
        return self.element(word).key

    def _check(self, *xs: MonoidElement):
        for x in xs:
            if x.monoid is not self:
                raise ValueError("element belongs to a different monoid")

    def atoms(self) -> tuple[MonoidElement, ...]:
        return tuple(self.element(bytes([i])) for i in range(len(self.presentation.generators)))

    # -- multiplication and divisibility ---------------------------------

    def multiply(self, x: MonoidElement, y: MonoidElement) -> MonoidElement:
        self._check(x, y)
        return self.element(x.key + y.key)

    def _divisor_table(self, side: str, x: MonoidElement):
        """(divisors of x in canonical order, {divisor: cofactor word}), cached.

        side="left" reads d*c = x off the prefixes of x's class members,
        side="right" reads c*d = x off their suffixes.
        """
        table = self._divisors.get((side, x))
        if table is None:  # a cached key was validated when it was stored
            if side not in ("left", "right"):
                raise ValueError(f"side must be 'left' or 'right', got {side!r}")
            self._check(x)
            cofactors: dict[MonoidElement, bytes] = {}
            for w in x.cls:
                n = len(w)
                for k in range(n + 1):
                    d, c = (w[:k], w[k:]) if side == "left" else (w[n - k:], w[:n - k])
                    el = self._elements.get(d)
                    if el is None:
                        el = self.element(d)
                    cofactors.setdefault(el, c)
            table = self._divisors[(side, x)] = (tuple(sorted(cofactors)), cofactors)
        return table

    def divide(self, side: str, x: MonoidElement, y: MonoidElement) -> MonoidElement | None:
        """The witness z with y = x*z (side="left") or y = z*x (side="right").

        None when x does not divide y; the witness is unique by
        cancellativity.
        """
        self._check(x)
        cofactor = self._divisor_table(side, y)[1].get(x)
        return None if cofactor is None else self.element(cofactor)

    def divisors(self, side: str, x: MonoidElement) -> tuple[MonoidElement, ...]:
        """All left- (right-) divisors of x, including 1 and x, in canonical order."""
        return self._divisor_table(side, x)[0]

    def gcd(self, side: str, x: MonoidElement, y: MonoidElement) -> MonoidElement:
        """Greatest common left- (right-) divisor.

        The divisors of the shorter element are tested against the divisor
        table of the longer one; in a gcd-monoid the maximal-length common
        divisor is unique, so finding two distinct ones is a structural
        failure.
        """
        self._check(x, y)
        small, big = (x, y) if len(x.key) <= len(y.key) else (y, x)
        big_divs = self._divisor_table(side, big)[1]
        common = [d for d in self.divisors(side, small) if d in big_divs]
        best = [d for d in common if len(d.key) == len(common[-1].key)]
        if len(best) != 1:
            raise StructuralError(
                f"{side}-gcd of {x} and {y} is not unique: {best}"
            )
        return best[0]

    # -- lcms and complements via reversing -------------------------------

    def lcm(self, side: str, x: MonoidElement, y: MonoidElement) -> MonoidElement | None:
        """Right-lcm x v y (side="right") or left-lcm (side="left").

        None means "no common multiple" (reversing blocked on a free pair),
        which is definitive.  BudgetExhausted means undetermined.
        """
        out = self.lcm_data(side, x, y)
        if out is None:
            return None
        c_x = out[0].key
        return self.element(x.key + c_x if side == "right" else c_x + x.key)

    def lcm_data(
        self,
        side: str,
        x: MonoidElement,
        y: MonoidElement,
        budget: int = DEFAULT_STEP_BUDGET,
        max_len: int | None = None,
    ):
        """(complement-of-x, complement-of-y) or None, cached.

        side="right": x*c_x = y*c_y = x v y  (c_x = x\\y, c_y = y\\x);
        side="left":  c_x*x = c_y*y = the left-lcm  (c_x = y/x, c_y = x/y).

        The common multiple is checked by reversing, not by building its
        class: right reversing of (x c_x)^-1 (y c_y), or left reversing of
        (c_x x)(c_y y)^-1, must end at the empty word, else StructuralError.
        Each reversing step follows a defining relation (the tables are
        checked against them when built), and reversing two equal positive
        words ends at the empty word in an Artin-Tits monoid (Dehornoy,
        "Complete positive group presentations", J. Algebra 2003).  The
        check runs at DEFAULT_STEP_BUDGET whatever `budget` is; a trip there
        is BudgetExhausted, cached like any other.

        Cached by every argument, budget and length cap included, so the
        answer depends on the arguments alone.  A budget trip is cached as
        its message, formatted once because searches re-raise it often.
        """
        key = (side, x, y, budget, max_len)
        try:
            hit = self._lcm_cache[key]
        except KeyError:  # a cached key was validated when it was stored
            self._check(x, y)
            if side not in ("right", "left"):
                raise ValueError(f"side must be 'right' or 'left', got {side!r}") from None
        else:
            if isinstance(hit, str):
                raise BudgetExhausted(hit, steps=budget)
            return hit
        # right reverses x^-1 y to c_x c_y^-1, left reverses x y^-1 to c_x^-1 c_y
        sign = -1 if side == "right" else 1
        word: SignedWord = signed_of_positive(x.key, sign) + signed_of_positive(y.key, -sign)
        try:
            terminal = reverse_full(self.presentation, side, word, budget, max_len).word
            split = split_terminal(side, terminal)
            if split is not None:
                # the two products are equal iff reversing the quotient of
                # one by the other ends at the empty word (see the docstring)
                c_x, c_y = split
                u, v = (x.key + c_x, y.key + c_y) if side == "right" else (c_x + x.key, c_y + y.key)
                check = signed_of_positive(u, sign) + signed_of_positive(v, -sign)
                if reverse_full(self.presentation, side, check, DEFAULT_STEP_BUDGET).word:
                    raise StructuralError("reversing terminal is not a common multiple")
        except BudgetExhausted:
            self._lcm_cache[key] = f"{side}-lcm of {x} and {y} undetermined within budget"
            raise
        data = self._lcm_cache[key] = None if split is None else (self.element(c_x), self.element(c_y))
        return data
