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

`lcm_data` returns the two complements of an lcm exactly as the leftmost
`reverse_full` run of x^-1 y (right) or x y^-1 (left) decides them: its
split terminal, None when it blocks on a free pair, or BudgetExhausted
when it passes the step budget or the length cap, never "no lcm".  The
kernel `_complement` takes that run's steps in its order on bytes:

* The leftmost run of x^-1 y reverses x^-1 y1 completely, then the x-side
  of that result against y2, and so on: it folds y's letters through x,
  one sub-run c^-1 t per letter t.  With c = c1.c':
  - t = c1 is one deletion, leaving c'^-1;
  - a free pair blocks: c^-1 t stays in place for good, and the letters
    after it pass through;
  - otherwise c1^-1 t reverses to u v^-1, with c1.u = t.v the relation of
    c1 and t (u = (t c1 t ...), v = (c1 t c1 ...), both of length m-1),
    and u's letters are folded through c' in turn, giving s'.(v.c'')^-1.
  Sub-runs keep that order inside, so every cell comes when the leftmost
  run takes it.  The left run of x y^-1 is the mirror of the right run of
  rev(x)^-1 rev(y), step for step.
* The cap trips on the longest word after any step.  A sub-run's frame
  knows the letters that stay put around it (its finished pieces s', its
  letters still to fold, and v), so the sub-run gets the room the cap
  leaves it and aborts when it passes its room or its share of the budget.
* A blocked sub-run still ends in a negative run, which the fold goes on
  with as the leftmost run does; its result is flagged, and the flag makes
  the lcm None.

Some runs never end (with all three labels 3, ab and c have no common
multiple); the budget stops them.  Sub-runs are memoised per Monoid by
(t, c): a finished one by its result, an aborted one by (k, p), the fact
that it trips under budget k and cap p, which each frame lifts by its own
steps and offset.  That the complements close a common multiple is checked
by comparing the keys of the two products, and `lcm` interns the product
through that key.  The lcm cache is keyed by every argument of `lcm_data`
(side, both elements, step budget and length cap), so no answer depends on
what the Monoid settled before.

`congruence_class` enumerates a class by rewriting.  The package never
calls it; it stays as the tests' oracle for the kernels above.

Elements are immutable and operations are pure.  Creating an element
holds a per-monoid lock, so threads sharing a Monoid still get one element
per class; every value the memos and caches hold is a function of its key,
or (for an aborted complement) a true fact about its run that a later one
may replace, so concurrent readers racing an insert at worst recompute.
"""

from __future__ import annotations

import threading
from math import inf

from .errors import BudgetExhausted, StructuralError
from .presentation import ArtinPresentation
from .reversing import DEFAULT_STEP_BUDGET
# not called here: kept as monoid.reverse_full, the name perfbench/tracer.py wraps
from .reversing import reverse_full  # noqa: F401

__all__ = ["Monoid", "MonoidElement"]

_ATOMS = tuple(bytes([i]) for i in range(256))
_MISS = object()


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
        # _complements[t] = {word c: the leftmost right reversing run of c^-1 t, as
        # `_complement` returns it: (c', t', steps, longest, blocked), or (k, p) when the run
        # trips under budget k and length cap p}
        self._complements: list[dict[bytes, tuple]] = [{} for _ in range(n)]
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

    def _complement(self, w: bytes, y: bytes, left: int, room: float) -> tuple:
        """The leftmost right reversing run of w^-1 y, for positive words w and y.

        Returns (w', s', steps, longest, blocked): the run ends in s' w'^-1
        after `steps` steps, and `longest` is the longest word after any
        step (0 with no step).  Unless blocked, w.s' = y.w'.  A blocked run
        met a free pair and ends in P w'^-1 with P not positive; s' is P
        with its signs dropped.  Returns (k, p) instead when the run needs
        more than `left` steps or a word longer than `room`: the fact that
        it trips under budget k and cap p, with k >= left and p >= room.

        Folds y's letters through w in the leftmost run's cell order (see
        the module docstring).  A frame stands for one sub-run c^-1 t whose
        first cell gave u v^-1; it folds u's letters through c[1:].  Each
        sub-run gets what its frame has left of `left`, and `room` less the
        frame's offset: its finished pieces s', its letters still to fold
        and v.  Memoised per Monoid by (t, c): a finished sub-run by its
        result, an aborted one by its (k, p), which each frame lifts by its
        steps and offset before it stores its own.  Runs on an explicit
        stack; on a presentation where a run never ends, `left` stops it.
        """
        if not y:
            return w, b"", 0, 0, False
        memo, heads = self._complements, self._heads
        # the frame being folded: its memo key (atom, word; none for the top frame), its
        # letters to fold and their number, how many are folded, v, c, s', steps, longest,
        # blocked, left, room, and the offset: the letters that stay put around its sub-run
        fa = fw = None
        letters, n, taken, v, c, acc, steps, longest, blocked = y, len(y), 0, b"", w, b"", 0, 0, False
        fleft, froom, off = left, room, len(y) - 1
        frames = []  # the frames waiting on a sub-run, as tuples of the fields above
        r = None  # what the last sub-run gave, not yet handed to the frame
        while True:
            if r is None:  # the sub-run c^-1 t for the frame's next letter t
                a = letters[taken]
                r = memo[a].get(c)
                if r is None or len(r) == 2 and (fleft - steps > r[0] or froom - off > r[1]):
                    t = c[0] if c else a
                    u = heads[t][a]
                    # a sub-run with no step has no length to record: its longest is -inf
                    if not c:
                        r = (b"", letters[taken:], 0, -inf, False)  # the letters left pass through
                        taken = n - 1
                    elif t == a:
                        r = (c[1:], b"", 1, len(c) - 1, False)  # a deletion
                    elif u is None:
                        r = (b"", c[::-1] + _ATOMS[a], 0, -inf, True)  # a free pair: blocked in place
                    elif steps >= fleft:
                        r = (0, inf)
                    elif len(c) - 1 + 2 * len(u) > froom - off:
                        r = (inf, len(c) - 2 + 2 * len(u))
                    else:  # c[0]^-1 t -> u v^-1: fold u's letters through c[1:]
                        frames.append((fa, fw, letters, n, taken, v, c, acc, steps, longest, blocked,
                                       fleft, froom, off))
                        fa, fw, letters, n, taken, v, c, acc, steps, longest, blocked, fleft, froom, off = (
                            a, c, u, len(u), 0, heads[a][t], c[1:], b"", 1, len(c) - 1 + 2 * len(u),
                            False, fleft - steps, froom - off, 2 * len(u) - 1)
                        r = None
                        continue
            if len(r) == 5:
                c, s, k, top, b = r
                if k and (k > fleft - steps or top > froom - off):  # past the frame's limits
                    r = (k - 1, inf) if k > fleft - steps else (inf, top - 1)
            if len(r) == 5:
                acc += s
                steps += k
                taken += 1
                blocked = blocked or b
                if off + top > longest:
                    longest = off + top
                if taken < n:
                    off += len(s) - 1
                    r = None
                    continue
                r = (v + c, acc, steps, longest, blocked)
            else:
                r = (steps + r[0], off + r[1])  # the sub-run trips, so the frame trips too
            if not frames:
                return r
            memo[fa][fw] = r
            fa, fw, letters, n, taken, v, c, acc, steps, longest, blocked, fleft, froom, off = frames.pop()

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
        terminal split by `split_terminal`, None when it blocks on a free
        pair, or a BudgetExhausted "{side}-lcm of {x} and {y} undetermined
        within budget" with steps=budget when it passes either limit.
        `_complement` takes that run's steps on bytes, the left side on
        mirrored words; no run on signed words is started.

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
        right = side == "right"
        # the left run of x y^-1 is the mirror of the right run of rev(x)^-1 rev(y), step for step
        run = self._complement(x.key if right else x.key[::-1], y.key if right else y.key[::-1],
                               budget, inf if max_len is None else max_len)
        if len(run) == 2:
            message = self._lcm_cache[key] = f"{side}-lcm of {x} and {y} undetermined within budget"
            raise BudgetExhausted(message, steps=budget)
        c_y, c_x, _, _, blocked = run
        data = None
        if not blocked:
            if not right:
                c_x, c_y = c_x[::-1], c_y[::-1]
            u, v = (x.key + c_x, y.key + c_y) if right else (c_x + x.key, c_y + y.key)
            if self._key(u) != self._key(v):
                raise StructuralError(f"{side}-lcm complements of {x} and {y} close no common multiple")
            data = self.element(c_x), self.element(c_y)
        self._lcm_cache[key] = data
        return data
