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
enumerated.  `Monoid.element` keeps one map from every word met to the
single interned element of its class, so a word met before costs one
lookup, two elements are equal exactly when they are the same object, and
the divisor and lcm caches are keyed by the elements themselves.  A word
met for the first time walks the chain x, s\\x, ... to a word met before,
and every word on the chain gets the element of its class.

`divide` cancels x from y by |x| atom quotients and builds no table, and
gcd cancels each divisor of the shorter element from the longer one the
same way.  Divisor enumeration keeps one cached table per (side, element):
it maps each left- (right-) divisor d to one cofactor word c with d.c = x
(c.d = x), found by a search from (1, x) that extends d by every atom
dividing c.  The cofactor is unique up to the congruence by
cancellativity.

`lcm_data` returns the two complements of an lcm exactly as the leftmost
`reverse_full` run of x^-1 y (right) or x y^-1 (left) decides them: its
split terminal, None when it blocks on a free pair, or BudgetExhausted
when it passes the step budget, never "no lcm".  The kernel `_complement`
takes that run's steps in its order on bytes:

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
* The budget is the run's one limit.  Each sub-run gets what its frame
  has left of it and aborts when it needs more.  A step replaces two
  letters by at most 2(m-1), so a run of B steps on x^-1 y never holds
  more than |x| + |y| + (2m-4)B letters, m the largest finite label.
* A blocked sub-run still ends in a negative run, which the fold goes on
  with as the leftmost run does; its result is flagged, and the flag makes
  the lcm None.

Some runs never end (with all three labels 3, ab and c have no common
multiple); the budget stops them.  Sub-runs are memoised per Monoid by
(t, c): a finished one by its result, an aborted one by the int k, the
fact that it trips under budget k, which each frame lifts by its own
steps.  That the complements close a common multiple is checked by
comparing the elements of the two products, which `lcm` then finds again.
The lcm cache is keyed by every argument of `lcm_data` (side, both
elements and step budget), so no answer depends on what the Monoid
settled before.

`congruence_class` enumerates a class by rewriting.  The package never
calls it; it stays as the tests' oracle for the kernels above.

Each element gets a dense id when it is interned, in order of interning,
the identity 0, and keeps it for the life of its Monoid, so every search
on a Monoid encodes states the same way (multifraction._CompactStates).
The lcm cache and the window memos of the reduction and split kernels
(one per kernel, parity and lcm budget, see `_window_memos`), the
reduction kernel's pair rows among them, are `_Memo`s: two generations of
at most MEMO_CAP entries each.  New entries go into the young one; a full
young generation becomes the old one, and an old entry that is read again
is copied back into the young one (`_Memo.miss`).  Every value they hold
is a function of its key, so dropping an old generation costs at most a
recomputation.  The quotient, divisor and complement memos and the map
from words to elements are kept for the life of the Monoid, which is what
keeps one element, and one id, per class.

Elements are immutable and operations are pure.  Creating an element
holds a per-monoid lock, so threads sharing a Monoid still get one element
and one id per class, and a `_Memo` takes its own lock to insert or to
rotate; every value the memos and caches hold is a function of its key,
or (for an aborted complement) a true fact about its run that a later one
may replace, so concurrent readers racing an insert at worst recompute.
"""

from __future__ import annotations

import threading
from operator import attrgetter

from .errors import BudgetExhausted, PresentationError, StructuralError
from .presentation import ArtinPresentation
from .reversing import DEFAULT_STEP_BUDGET, relation_heads
# not called here: kept as monoid.reverse_full, the name perfbench/tracer.py wraps
from .reversing import reverse_full  # noqa: F401

__all__ = ["Monoid", "MonoidElement"]

_ATOMS = tuple(bytes([i]) for i in range(256))
_MISS = object()
_KEY = attrgetter("key")
# the most entries one generation of a `_Memo` holds
MEMO_CAP = 4096


class _Memo:
    """A memo bounded by two generations of at most MEMO_CAP entries each.

    Read `young` inline, and hand a miss to `miss`, which promotes what
    `old` holds or computes the value.  The generations are plain dicts, so
    a hit is one `dict.get`.  Values must be functions of their keys: a
    rotation drops the old generation, which costs only a recomputation.
    """

    __slots__ = ("young", "old", "_lock")

    def __init__(self):
        self.young: dict = {}
        self.old: dict = {}
        self._lock = threading.Lock()

    def put(self, key, value):
        """Store value under key in the young generation, which first
        becomes the old one if it is full; returns value."""
        with self._lock:
            if len(self.young) >= MEMO_CAP:
                self.old, self.young = self.young, {}
            self.young[key] = value
        return value

    def miss(self, key, compute, *args):
        """The value of a key missing from `young`: what `old` holds,
        promoted, or compute(*args), put.  A raise puts nothing."""
        value = self.old.get(key, _MISS)
        return self.put(key, compute(*args) if value is _MISS else value)


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
    `id` is the element's dense id in its Monoid, the identity's 0.
    """

    __slots__ = ("monoid", "key", "id")

    def __init__(self, monoid: "Monoid", key: bytes, id: int):
        self.monoid = monoid
        self.key = key  # canonical (lex-least) word, as generator indices
        self.id = id

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
    """The Artin-Tits monoid of a presentation, with memoised quotients and elements."""

    def __init__(self, presentation: ArtinPresentation):
        self.presentation = presentation
        n = len(presentation.generators)
        # _heads[s][t] = (t s t ...) of length m(s,t)-1, b"" when s = t, None for a free pair;
        # _joins[t][s] = the length of s v t (1 when s = t), 0 for a free pair
        self._heads = relation_heads(presentation)
        self._joins = tuple(tuple(0 if h is None else len(h) + 1 for h in row) for row in self._heads)
        # _quotients[s] = {word w: s\w, or None when s does not left-divide w}
        self._quotients: list[dict[bytes, bytes | None]] = [{} for _ in range(n)]
        self._classes: dict[bytes, MonoidElement] = {}  # every word met -> the element of its class
        self._by_id: list[MonoidElement] = []  # id -> its element
        self._build_lock = threading.Lock()
        # (side, x) -> (sorted divisors of x, {divisor: cofactor word})
        self._divisors: dict[tuple[str, MonoidElement], tuple[tuple, dict]] = {}
        # _complements[t] = {word c: the leftmost right reversing run of c^-1 t, as
        # `_complement` returns it: (c', t', steps, blocked), or the int k when the run
        # trips under budget k}
        self._complements: list[dict[bytes, tuple | int]] = [{} for _ in range(n)]
        # (side, x, y, budget) -> lcm_data's answer, or a budget trip's message
        self._lcm_cache = _Memo()
        # (kernel, lcm budget) -> that kernel's window memos, for even and odd positions
        self._windows: dict[tuple[str, int], tuple[_Memo, _Memo]] = {}
        self.identity = self._intern(b"")  # the first element interned: id 0

    # -- quotients and elements --------------------------------------------

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

    def _class(self, w: bytes) -> MonoidElement:
        """The element of w's class, stored under every word of its chain: its
        key is the least atom s dividing w, then the key of s\\w's class."""
        classes, joins, quotient = self._classes, self._joins, self._quotient
        chain = []
        el = classes.get(w)
        while el is None:
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
            el = classes.get(w)
        for w, s in reversed(chain):
            el = classes[w] = self._intern(_ATOMS[s] + el.key)
        return el

    def element(self, word) -> MonoidElement:
        """The class of a positive word (string, token iterable, or bytes)."""
        if word.__class__ is not bytes:
            if isinstance(word, MonoidElement):
                if word.monoid is not self:
                    raise ValueError("element belongs to a different monoid")
                return word
            word = self.presentation.encode(word)
        el = self._classes.get(word)
        if el is None:
            if word and max(word) >= len(self._heads):
                raise PresentationError(f"letter {max(word)} of {word!r} is not a generator index")
            el = self._class(word)
        return el

    def _intern(self, key: bytes) -> MonoidElement:
        """The element of a key: the one place an element is built, and
        given the next id, the first time its key is met."""
        el = self._classes.get(key)
        if el is None:
            with self._build_lock:
                el = self._classes.get(key)
                if el is None:
                    el = MonoidElement(self, key, len(self._by_id))
                    # fill the id table before publishing the element, so that
                    # whoever finds it can look its id up
                    self._by_id.append(el)
                    self._classes[key] = el
        return el

    def _window_memos(self, kernel: str, lcm_budget: int) -> tuple[_Memo, _Memo]:
        """The window memos of a kernel under this lcm budget, for even and
        odd positions: "reduction" and "split" (multifraction._CompactStates),
        and "reduction pairs", the lcm rows of (a_i, a_{i+1}) pairs that the
        reduction windows are read off (multifraction._ReductionStates)."""
        memos = self._windows.get((kernel, lcm_budget))
        if memos is None:
            memos = self._windows.setdefault((kernel, lcm_budget), (_Memo(), _Memo()))
        return memos

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
            classes, class_of, intern = self._classes, self._class, self._intern
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
                    e = classes.get(w)  # element(w), inlined
                    if e is None:  # on x's key, w is a prefix (suffix) of a lex-least word: a key
                        e = intern(w) if on_key else class_of(w)
                    if e not in cofactors:
                        cofactors[e] = q if left else q[::-1]
                        todo.append((e, q, on_key))
            # canonical order is by (length, key): sort the keys, then stably by length
            order = sorted(map(_KEY, cofactors))
            order.sort(key=len)
            table = self._divisors[(side, x)] = (tuple(map(classes.__getitem__, order)), cofactors)
        return table

    def divide(self, side: str, x: MonoidElement, y: MonoidElement) -> MonoidElement | None:
        """The witness z with y = x*z (side="left") or y = z*x (side="right").

        None when x does not divide y; the witness is unique by
        cancellativity.  x is cancelled from y one atom quotient per letter
        (`_cancel`), on mirrored words for side="right", so no divisor table
        is built.
        """
        self._check(x, y)
        left = side == "left"
        if not left and side != "right":
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        w = self._cancel(x.key, y.key) if left else self._cancel(x.key[::-1], y.key[::-1])
        if w is None:
            return None
        return self.element(w if left else w[::-1])

    def _cancel(self, x: bytes, y: bytes) -> bytes | None:
        """The word y with x cancelled from its left, one atom quotient per
        letter of x, or None when x does not left-divide y."""
        quotient = self._quotient
        for s in x:
            y = quotient(s, y)
            if y is None:
                break
        return y

    def divisors(self, side: str, x: MonoidElement) -> tuple[MonoidElement, ...]:
        """All left- (right-) divisors of x, including 1 and x, in canonical order."""
        return self._divisor_table(side, x)[0]

    def gcd(self, side: str, x: MonoidElement, y: MonoidElement) -> MonoidElement:
        """Greatest common left- (right-) divisor.

        Each divisor of the shorter element is cancelled from the longer one
        by atom quotients, as `divide` cancels (on mirrored words for
        side="right"), so no divisor table of the longer element is built.
        The prefix (suffix) of a key is a key, so a divisor d = d's (s.d')
        is cancelled by one quotient from what cancelling d' left.  In a
        gcd-monoid the maximal-length common divisor is unique, so finding
        two distinct ones is a structural failure.
        """
        self._check(x, y)
        small, big = (x, y) if len(x.key) <= len(y.key) else (y, x)
        left, quotient = side == "left", self._quotient
        divs = self.divisors(side, small)  # by length, so d' comes before d
        # the longer element with each divisor cancelled from it, or None
        rests = {b"": big.key if left else big.key[::-1]}
        for w in map(_KEY, divs[1:]):
            rest = rests[w[:-1] if left else w[1:]]
            rests[w] = None if rest is None else quotient(w[-1] if left else w[0], rest)
        common = [d for d in divs if rests[d.key] is not None]
        best = [d for d in common if len(d.key) == len(common[-1].key)]
        if len(best) != 1:
            raise StructuralError(
                f"{side}-gcd of {x} and {y} is not unique: {best}"
            )
        return best[0]

    # -- lcms and complements via reversing -------------------------------

    def _complement(self, w: bytes, y: bytes, left: int) -> tuple | int:
        """The leftmost right reversing run of w^-1 y, for positive words w and y.

        Returns (w', s', steps, blocked): the run ends in s' w'^-1 after
        `steps` steps.  Unless blocked, w.s' = y.w'.  A blocked run met a
        free pair and ends in P w'^-1 with P not positive; s' is P with its
        signs dropped.  Returns the int k instead when the run needs more
        than `left` steps: the fact that it trips under budget k, k >= left.

        Folds y's letters through w in the leftmost run's cell order (see
        the module docstring).  A frame stands for one sub-run c^-1 t whose
        first cell gave u v^-1; it folds u's letters through c[1:], and each
        sub-run gets what its frame has left of `left`.  Memoised per Monoid
        by (t, c): a finished sub-run by its result, an aborted one by its
        k, which each frame lifts by its own steps before it stores its own.
        Runs on an explicit stack; on a presentation where a run never ends,
        `left` stops it.
        """
        if not y:
            return w, b"", 0, False
        memo, heads = self._complements, self._heads
        # the frame being folded: its memo key (atom, word; none for the top frame), its
        # letters to fold and their number, how many are folded, v, c, s', steps, blocked, left
        fa = fw = None
        letters, n, taken, v, c, acc, steps, blocked = y, len(y), 0, b"", w, b"", 0, False
        frames = []  # the frames waiting on a sub-run, as tuples of the fields above
        r = None  # what the last sub-run gave, not yet handed to the frame
        while True:
            if r is None:  # the sub-run c^-1 t for the frame's next letter t
                a = letters[taken]
                # a deletion, taken inline: frames are pushed only when c[0] != t, so no memo holds it
                if c and c[0] == a:
                    if steps < left:
                        c = c[1:]
                        steps += 1
                        taken += 1
                        if taken < n:
                            continue
                        r = (v + c, acc, steps, blocked)
                    else:
                        r = steps  # it needs 1 > left - steps, so the frame trips
                    if not frames:
                        return r
                    memo[fa][fw] = r
                    fa, fw, letters, n, taken, v, c, acc, steps, blocked, left = frames.pop()
                    continue
                r = memo[a].get(c)
                if r is None or r.__class__ is int and left - steps > r:
                    t = c[0] if c else a
                    u = heads[t][a]
                    if not c:
                        r = (b"", letters[taken:], 0, False)  # the letters left pass through
                        taken = n - 1
                    elif u is None:
                        r = (b"", c[::-1] + _ATOMS[a], 0, True)  # a free pair: blocked in place
                    elif steps >= left:
                        r = 0
                    else:  # c[0]^-1 t -> u v^-1: fold u's letters through c[1:]
                        frames.append((fa, fw, letters, n, taken, v, c, acc, steps, blocked, left))
                        fa, fw, letters, n, taken, v, c, acc, steps, blocked, left = (
                            a, c, u, len(u), 0, heads[a][t], c[1:], b"", 1, False, left - steps)
                        r = None
                        continue
            if r.__class__ is tuple:
                c, s, k, b = r
                if k and k > left - steps:  # past the frame's budget
                    r = k - 1
                else:
                    acc += s
                    steps += k
                    taken += 1
                    blocked = blocked or b
                    if taken < n:
                        r = None
                        continue
                    r = (v + c, acc, steps, blocked)
            if r.__class__ is int:
                r += steps  # the sub-run trips, so the frame trips too
            if not frames:
                return r
            memo[fa][fw] = r
            fa, fw, letters, n, taken, v, c, acc, steps, blocked, left = frames.pop()

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
    ):
        """(complement-of-x, complement-of-y) or None, cached.

        side="right": x*c_x = y*c_y = x v y  (c_x = x\\y, c_y = y\\x);
        side="left":  c_x*x = c_y*y = the left-lcm  (c_x = y/x, c_y = x/y).

        The answer is that of the leftmost `reverse_full` run of x^-1 y
        (right) or x y^-1 (left) with this step budget: its terminal split
        by `split_terminal`, None when it blocks on a free pair, or a
        BudgetExhausted "{side}-lcm of {x} and {y} undetermined within
        budget" with steps=budget when it needs more steps.
        `_complement` takes that run's steps on bytes, the left side on
        mirrored words; no run on signed words is started.

        The common multiple is then checked by elements, found from atom
        quotients, which share no code with reversing: unless x.c_x and
        y.c_y are the same element, StructuralError.  `lcm` finds that
        element again with one lookup.

        Cached by every argument, the budget included, in the bounded
        `_lcm_cache`, so the answer depends on the arguments alone.
        `_lcm` computes a miss; a budget trip is cached as its message,
        formatted once because searches re-raise it often.
        """
        key = (side, x, y, budget)
        cache = self._lcm_cache
        data = cache.young.get(key, _MISS)  # a cached key was validated when it was stored
        if data is _MISS:
            data = cache.miss(key, self._lcm, side, x, y, budget)
        if data.__class__ is str:
            raise BudgetExhausted(data, steps=budget)
        return data

    def _lcm(self, side: str, x: MonoidElement, y: MonoidElement, budget: int):
        """lcm_data's answer, not cached, or the message of its budget trip."""
        self._check(x, y)
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        right = side == "right"
        # the left run of x y^-1 is the mirror of the right run of rev(x)^-1 rev(y), step for step
        run = self._complement(x.key if right else x.key[::-1], y.key if right else y.key[::-1], budget)
        if run.__class__ is int:
            return f"{side}-lcm of {x} and {y} undetermined within budget"
        c_y, c_x, _, blocked = run
        if blocked:
            return None
        if not right:
            c_x, c_y = c_x[::-1], c_y[::-1]
        u, v = (x.key + c_x, y.key + c_y) if right else (c_x + x.key, c_y + y.key)
        if self.element(u) is not self.element(v):
            raise StructuralError(f"{side}-lcm complements of {x} and {y} close no common multiple")
        return self.element(c_x), self.element(c_y)
