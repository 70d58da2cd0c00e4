"""Elements of an Artin-Tits monoid, computed from atom quotients.

Every kernel here rests on one exact operation, the atom quotient s\\w: the
word left when the generator s is cancelled from the left of w, or None
when s does not left-divide w.  With t the first letter of w = t.w':

* s = t gives w';
* a free pair (m(s,t) infinite) gives None: s and t have no common multiple;
* otherwise s v t = t.(s t s ...) = s.(t s t ...), both alternating words of
  length m-1, so by cancellativity s left-divides w exactly when
  (s t s ...) left-divides w', and then
  s\\w = (t s t ...).((s t s ...)\\w').

Each sub-quotient is taken of a shorter word, so the recursion ends on
every presentation; it runs on an explicit stack and is memoised per
Monoid by (s, word).  Reversing both sides of a defining relation gives the
same relation, so right quotients are the mirror: w/s = rev(s\\rev(w)).

An element is pinned to the lexicographically least word of its class
under the declared generator order, its key.  All words of a class have
the same length (the relations are homogeneous), so the key is the least
atom s that left-divides x followed by the key of s\\x; no class is ever
enumerated.  `Monoid.element` keeps one memo from every word met to its key
and one map from each key to its single interned element, so two elements
are equal exactly when they are the same object, and the divisor and lcm
caches are keyed by the elements themselves.

Divisibility, gcd and divisor enumeration share one cached table per
(side, element): it maps each left- (right-) divisor d to one cofactor
word c with d.c = x (c.d = x), found by a search from (1, x) that extends d
by every atom dividing c.  The cofactor is unique up to the congruence by
cancellativity.

`lcm_data` returns the two complements of an lcm, computed by subword
reversing with budgets (see `reversing`); a budget hit surfaces as
BudgetExhausted, never as "no lcm".  Its kernel is the atom complement:
right reversing of s^-1 w, for an atom s and a positive word w, to
w' s'^-1 with s.w' = w.s'.  With t the first letter of w = t.w':

* s = t takes one step to (w', 1);
* a free pair blocks, as s and t have no common multiple;
* otherwise s^-1 t reverses to v u^-1, with s.v = t.u the relation of s
  and t (v = (t s t ...), u = (s t s ...), both of length m-1), and u's
  letters are folded over w' in turn, giving (v.w'', u'').

An lcm folds x's letters over y the same way (the left side on mirrored
words).  Some runs never end (with all three labels 3, ab and c have no
common multiple), so every run carries an allowance of steps, set so that
neither the budget nor the length cap of the leftmost `reverse_full` run
can trip within it; a run that passes it, or meets a free pair, hands the
lcm to `reverse_full`.  Complements are memoised per Monoid by (s, w), an
aborted run as a lower bound on its steps.  That the complements close a
common multiple is checked by comparing the keys of the two products, and
`lcm` interns the product through that key.  The lcm cache is keyed by
every argument of `lcm_data` (side, both elements, step budget and length
cap), so no answer depends on what the Monoid settled before.

`congruence_class` enumerates a class by rewriting.  The package never
calls it; it stays as the tests' oracle for the kernels above.

Elements are immutable and operations are pure.  Creating an element
holds a per-monoid lock, so threads sharing a Monoid still get one element
per class; the memos and caches only ever gain values that are functions
of their key, or (for an aborted complement) a larger lower bound, so
concurrent readers racing an insert at worst recompute.
"""

from __future__ import annotations

import threading

from .errors import BudgetExhausted, StructuralError
from .presentation import ArtinPresentation
from .reversing import DEFAULT_STEP_BUDGET, reverse_full, split_terminal
from .words import SignedWord, signed_of_positive

__all__ = ["Monoid", "MonoidElement"]

_ATOMS = tuple(bytes([i]) for i in range(256))
_MISS = object()
_NEVER = float("inf")  # a complement that meets a free pair needs more than any number of steps


def congruence_class(word: bytes, rules: tuple[tuple[bytes, bytes], ...]) -> frozenset:
    """All words obtainable from `word` by applying rules at any position.

    `rules` holds both orientations of every defining relation.  A test
    oracle: the package computes keys, quotients and divisors without it.
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

    __slots__ = ("monoid", "key")

    def __init__(self, monoid: "Monoid", key: bytes):
        self.monoid = monoid
        self.key = key  # canonical (lex-least) word, as generator indices

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
    """The Artin-Tits monoid of a presentation, with memoised quotients and keys."""

    def __init__(self, presentation: ArtinPresentation):
        self.presentation = presentation
        n = len(presentation.generators)
        # _heads[s][t] = (t s t ...) of length m(s,t)-1, None for a free pair;
        # _joins[t][s] = the length of s v t (1 when s = t), 0 for a free pair
        self._heads: list[list[bytes | None]] = [[None] * n for _ in range(n)]
        self._joins: list[list[int]] = [[int(i == j) for i in range(n)] for j in range(n)]
        for s, t, m in presentation.labelled_pairs():
            i, j = presentation.index(s), presentation.index(t)
            self._heads[i][j] = bytes((j, i) * m)[:m - 1]
            self._heads[j][i] = bytes((i, j) * m)[:m - 1]
            self._joins[i][j] = self._joins[j][i] = m
        # _quotients[s] = {word w: s\w, or None when s does not left-divide w}
        self._quotients: list[dict[bytes, bytes | None]] = [{} for _ in range(n)]
        self._keys: dict[bytes, bytes] = {b"": b""}  # every word met -> its key
        self._elements: dict[bytes, MonoidElement] = {}  # key -> its one element
        self._build_lock = threading.Lock()
        # (side, x) -> (sorted divisors of x, {divisor: cofactor word})
        self._divisors: dict[tuple[str, MonoidElement], tuple[tuple, dict]] = {}
        # _complements[s] = {word w: (w', s', steps) reversing s^-1 w to w' s'^-1, or the
        # number k of steps the run is known to need more than (_NEVER: it meets a free pair)}
        self._complements: list[dict[bytes, tuple | int | float]] = [{} for _ in range(n)]
        # letters one reversing step adds at most: 2m - 4 for the largest label m
        self._growth = max((2 * m - 4 for _, _, m in presentation.labelled_pairs()), default=0)
        # (side, x, y, budget, max_len) -> lcm_data's answer, or a budget trip's message
        self._lcm_cache: dict[tuple, tuple | None | str] = {}
        self.identity = self.element(b"")

    # -- quotients, keys and elements --------------------------------------

    def _quotient(self, s: int, w: bytes) -> bytes | None:
        """s\\w, or None when the atom s does not left-divide w (see the module docstring)."""
        memo = self._quotients
        q = memo[s].get(w, _MISS)
        if q is not _MISS:
            return q
        heads = self._heads
        frames: list[list] = []  # [atom, word, head, sub-quotients taken], waiting on a sub-call
        a, word = s, w
        while True:
            q = memo[a].get(word, _MISS)
            if q is _MISS:
                if not word:
                    q = None
                elif word[0] == a:
                    q = word[1:]
                else:
                    head = heads[a][word[0]]
                    if head is None or len(word) <= len(head):
                        q = None  # a free pair, or too short to hold a v word[0]
                    else:
                        frames.append([a, word, head, 1])
                        word = word[1:]
                        continue
                memo[a][word] = q
            # hand q to the waiting frames: the next letter of (a t a ...), or done
            while frames:
                frame = frames[-1]
                fa, fword, head, taken = frame
                if q is not None and taken < len(head):
                    frame[3] = taken + 1
                    a, word = (fa if taken % 2 == 0 else fword[0]), q
                    break
                frames.pop()
                if q is not None:
                    q = head + q
                memo[fa][fword] = q
            else:
                return q

    def _key(self, w: bytes) -> bytes:
        """The lex-least word of w's class: the least atom s dividing w, then the key of s\\w."""
        keys, joins, quotient = self._keys, self._joins, self._quotient
        chain = []
        key = keys.get(w)
        while key is None:
            first, size = w[0], len(w)
            for s in range(first):
                join = joins[first][s]
                if join and join <= size:  # else s v first is not a prefix of w
                    q = quotient(s, w)
                    if q is not None:
                        break
            else:
                s, q = first, w[1:]
            chain.append((w, s))
            w = q
            key = keys.get(w)
        for w, s in reversed(chain):
            key = keys[w] = _ATOMS[s] + key
        return key

    def element(self, word) -> MonoidElement:
        """The class of a positive word (string, token iterable, or bytes)."""
        if word.__class__ is not bytes:
            if isinstance(word, MonoidElement):
                if word.monoid is not self:
                    raise ValueError("element belongs to a different monoid")
                return word
            word = self.presentation.encode(word)
        key = self._keys.get(word)
        if key is None:
            key = self._key(word)
        el = self._elements.get(key)
        if el is None:
            el = self._intern(key)
        return el

    def _intern(self, key: bytes) -> MonoidElement:
        """The element of a key not interned yet: the one place an element is built."""
        with self._build_lock:
            el = self._elements.get(key)
            if el is None:
                el = self._elements[key] = MonoidElement(self, key)
                self._keys[key] = key
        return el

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

        A search from (1, x): a divisor d with cofactor c has the child d.s
        with cofactor s\\c for every atom s dividing c.  side="right" runs
        the same search on mirrored cofactors, so c/s = rev(s\\rev(c)).
        """
        table = self._divisors.get((side, x))
        if table is None:  # a cached key was validated when it was stored
            if side not in ("left", "right"):
                raise ValueError(f"side must be 'left' or 'right', got {side!r}")
            self._check(x)
            left = side == "left"
            joins, quotient = self._joins, self._quotient
            keys, key_of, elements = self._keys, self._key, self._elements
            cofactors: dict[MonoidElement, bytes] = {self.identity: x.key}
            # (divisor, cofactor, whether divisor.cofactor spells x's key)
            todo = [(self.identity, x.key if left else x.key[::-1], True)]
            while todo:
                d, c, spells_key = todo.pop()
                if not c:
                    continue
                first, size = c[0], len(c)
                for s, join in enumerate(joins[first]):
                    if not join or join > size:
                        continue  # s v first does not exist, or is longer than c
                    q = c[1:] if s == first else quotient(s, c)
                    if q is None:
                        continue
                    w = d.key + _ATOMS[s] if left else _ATOMS[s] + d.key
                    on_key = spells_key and s == first
                    if on_key:
                        key = w  # a prefix (suffix) of a lex-least word is lex-least
                    else:
                        key = keys.get(w)  # element(w), inlined
                        if key is None:
                            key = key_of(w)
                    e = elements.get(key)
                    if e is None:
                        e = self._intern(key)
                    if e not in cofactors:
                        cofactors[e] = q if left else q[::-1]
                        todo.append((e, q, on_key))
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

    def _complement(self, s: int, w: bytes, allowance: int):
        """Right reversing of s^-1 w: (w', s', steps) with s.w' = w.s', or None.

        None when the run needs more than `allowance` steps or meets a free
        pair.  With t the first letter of w = t.w': s = t takes one step to
        (w', 1); otherwise s^-1 t reverses to v u^-1, where s.v = t.u is the
        relation of s and t, and u's letters are folded over w' (see
        `_fold`), so the result is (v.w'', u'', 1 + the fold's steps).
        Memoised per Monoid by (s, w): a finished run by its result, an
        aborted one by the number of steps it is known to need more than, so
        later calls with no larger allowance abort at once.  Runs on an
        explicit stack; on a presentation where a run never ends, only the
        allowance stops it.
        """
        memo, heads = self._complements, self._heads
        # [atom, word, allowance, v, u, letters of u folded, c, u'', steps], waiting on a sub-call
        frames: list[list] = []
        a, word, left = s, w, allowance
        while True:
            hit = memo[a].get(word)
            if hit.__class__ is tuple:
                res = hit
                if hit[2] > left:
                    res, bound = None, hit[2] - 1
            elif hit is not None and left <= hit:
                res, bound = None, hit
            elif not word:
                res = (b"", _ATOMS[a], 0)
            elif word[0] != a and heads[a][word[0]] is None:
                res, bound = None, _NEVER
                memo[a][word] = _NEVER
            elif left < 1:
                res, bound = None, 0
            elif word[0] == a:
                res = (word[1:], b"", 1)
            else:
                t = word[0]
                u = heads[t][a]
                frames.append([a, word, left, heads[a][t], u, 1, word[1:], b"", 1])
                a, word, left = u[0], word[1:], left - 1
                continue
            # hand res to the waiting frames: the next letter of u, or done
            while frames:
                frame = frames[-1]
                fa, fword, fleft, v, u, taken, c, acc, steps = frame
                if res is None:
                    bound += steps  # the steps taken so far, then more than `bound`
                    memo[fa][fword] = bound
                    frames.pop()
                    continue
                c, acc, steps = res[0], acc + res[1], steps + res[2]
                if taken < len(u):
                    frame[5:] = taken + 1, c, acc, steps
                    a, word, left = u[taken], c, fleft - steps
                    break
                res = memo[fa][fword] = (v + c, acc, steps)
                frames.pop()
            else:
                return res

    def _fold(self, x: bytes, y: bytes, allowance: int) -> tuple[bytes, bytes] | None:
        """Right reversing of x^-1 y: (c_x, c_y) with x.c_x = y.c_y, or None.

        Folds x's letters over y: c <- y, and for each letter s of x,
        (c, s', k) <- _complement(s, c) with c_y += s'.  None when the
        steps pass `allowance` or a free pair is met.
        """
        complement = self._complement
        c, acc, left = y, b"", allowance
        for s in x:
            res = complement(s, c, left)
            if res is None:
                return None
            c, acc, left = res[0], acc + res[1], left - res[2]
        return c, acc

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

        The answer is that of the leftmost `reverse_full` run of x^-1 y
        (right) or x y^-1 (left) with this budget and length cap: its
        terminal split by `split_terminal`, or its BudgetExhausted.  It is
        computed by `_fold`, the left side on mirrored words.  The reversing
        diagram of a complemented presentation is unique, so the fold takes
        exactly the run's steps; each step adds at most 2m - 4 letters for
        the largest label m, so within the allowance
        min(budget, (max_len - |x| - |y|) // (2m - 4)) neither of the run's
        limits can trip (with no cap, or no label above 2 and x, y within
        the cap, the allowance is the budget).  When the fold passes that
        allowance or meets a free pair, `reverse_full` itself decides.

        The common multiple is then checked by keys, computed from atom
        quotients, which share no code with reversing: unless
        key(x.c_x) = key(y.c_y), StructuralError.  `lcm` reuses that key.

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
        allowance = budget
        if max_len is not None:
            room = max_len - len(x.key) - len(y.key)
            if self._growth:
                allowance = min(budget, room // self._growth)
            elif room < 0:
                allowance = -1  # a step that keeps the word over the cap trips it
        right = side == "right"
        if right:
            folded = self._fold(x.key, y.key, allowance)
        else:
            folded = self._fold(x.key[::-1], y.key[::-1], allowance)
        if folded is not None:
            split = folded if right else (folded[0][::-1], folded[1][::-1])
        else:
            # right reverses x^-1 y to c_x c_y^-1, left reverses x y^-1 to c_x^-1 c_y
            sign = -1 if right else 1
            word: SignedWord = signed_of_positive(x.key, sign) + signed_of_positive(y.key, -sign)
            try:
                terminal = reverse_full(self.presentation, side, word, budget, max_len).word
            except BudgetExhausted:
                self._lcm_cache[key] = f"{side}-lcm of {x} and {y} undetermined within budget"
                raise
            split = split_terminal(side, terminal)
        data = None
        if split is not None:
            c_x, c_y = split
            u, v = (x.key + c_x, y.key + c_y) if right else (c_x + x.key, c_y + y.key)
            if self._key(u) != self._key(v):
                raise StructuralError(f"{side}-lcm complements of {x} and {y} close no common multiple")
            data = self.element(c_x), self.element(c_y)
        self._lcm_cache[key] = data
        return data
