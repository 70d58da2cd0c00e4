"""Multifractions and the depth-preserving reduction rewrite system.

A multifraction a_1 / a_2 / ... / a_n is a finite sequence of monoid
elements denoting the alternating group product
a_1 * a_2^-1 * a_3 * a_4^-1 * ...  (odd entries are numerators, even
entries denominators).  The reduction rule at position i with parameter
x != 1 divides x out of a_{i+1} and pushes it across a_i through an lcm:

  i = 1:        b_1 x = a_1,  b_2 x = a_2
  i even:       b_{i-1} = a_{i-1} x',  x b_i = a_i x' = (x v a_i),
                x b_{i+1} = a_{i+1}
  i odd >= 3:   the left-lcm mirror of the even case.

Reduction preserves the represented group element and the depth.  On a
noetherian monoid it terminates, so the reachable set from any start is
finite and breadth-first search decides whether the all-trivial
multifraction is reachable -- which, when reduction is semi-convergent
(e.g. FC type), decides the word problem.  The search runs on compact
states (`_CompactStates`, shared with the split search): a state is the
bytes of its entries' 4-byte ids, the dense ids their Monoid gives its
elements (the identity 0).  A step at position i reads and writes only
a_{i-1}, a_i and a_{i+1}, so a window's children are computed once per
Monoid and lcm budget, keyed by i's parity and the window's ids, and a
child is built by bytes slicing (`_ReductionStates`).  The lcm of a step
involves only a_i and a divisor of a_{i+1}, while a_{i-1} is only
multiplied by a complement, so the lcms are taken once per (a_i, a_{i+1})
pair, into pair rows of their own, and a window maps them through
a_{i-1}.  Each kernel's window memos, and the pair rows, live on the
Monoid, bounded like its lcm cache (`monoid._Memo`), so the many small
searches of a long-lived Monoid share their rows.

The reduction, split and special-transformation kernels share one
protocol and one base class, `_Kernel`, beside the engine `_search`:
`_Kernel.search` is the one front end, `_Kernel.expand` the one
single-state expansion, `_Kernel.descend` the one greedy descent (here
`reduce_greedily`), and `_Kernel.replay` the one replay.  The replay
builds the step objects of a found trace and re-applies each by the
rule's element-level function (here `apply_reduction`), which reads none
of the kernel's tables, so every trace a search or descent returns has
been checked step by step; `Multifraction` objects are built only at the
API boundary.

Budgets: the search takes a state budget, and every lcm call inside step
enumeration is budgeted, the replay's included.  A search that had to
skip an undetermined lcm or ran out of states reports `complete=False`;
a found trace is sound either way.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from operator import attrgetter
from struct import Struct

from .errors import BudgetExhausted, Record, StructuralError, _set
from .monoid import Monoid, MonoidElement
from .words import SignedWord, check_signed, runs, signed_of_positive

__all__ = [
    "Multifraction",
    "ReductionStep",
    "SearchResult",
    "apply_reduction",
    "reduction_step_candidates",
    "search_reduction",
    "reduce_greedily",
    "reduces_to_trivial",
    "DEFAULT_STATE_BUDGET",
    "DEFAULT_LCM_BUDGET",
]

DEFAULT_STATE_BUDGET = 10**6
# Reversing budgets used inside step enumeration.  Small on purpose: an lcm
# that does not settle this fast at desk scale is treated as undetermined
# and the search downgrades its completeness claim instead of stalling.
DEFAULT_LCM_BUDGET = 1_000


class Multifraction:
    """An immutable sequence of monoid elements with alternating signs."""

    __slots__ = ("monoid", "entries")

    def __init__(self, monoid: Monoid, entries):
        items = tuple(map(monoid.element, entries))
        if not items:
            raise ValueError("a multifraction has at least one entry")
        self.monoid = monoid
        self.entries = items

    @classmethod
    def _of(cls, monoid: Monoid, entries: tuple) -> "Multifraction":
        """Wrap a nonempty tuple of elements of `monoid`, already interned."""
        self = object.__new__(cls)
        self.monoid = monoid
        self.entries = entries
        return self

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def wordlength(self) -> int:
        return sum(map(len, map(attrgetter("key"), self.entries)))

    def is_trivial(self) -> bool:
        return self.wordlength == 0

    def entry(self, i: int) -> MonoidElement:
        """1-based entry access, matching the rewrite-rule indexing."""
        if not 1 <= i <= self.depth:
            raise IndexError(f"entry {i} of a depth-{self.depth} multifraction")
        return self.entries[i - 1]

    def key(self) -> tuple[MonoidElement, ...]:
        """The entries themselves: interned elements compare by identity."""
        return self.entries

    def pad(self, p: int) -> "Multifraction":
        """Prepend 2p trivial entries; even so the group value is preserved."""
        if p < 0:
            raise ValueError("padding must be nonnegative")
        return Multifraction._of(self.monoid, (self.monoid.identity,) * (2 * p) + self.entries)

    def strip_trailing_ones(self) -> "Multifraction":
        """Drop trailing trivial entries (used when comparing across depths)."""
        items = list(self.entries)
        while len(items) > 1 and items[-1].is_identity():
            items.pop()
        return Multifraction._of(self.monoid, tuple(items))

    def to_signed_word(self) -> SignedWord:
        """Concatenate canonical entry words with alternating inversion."""
        out: list[int] = []
        for pos, e in enumerate(self.entries, start=1):
            out.extend(signed_of_positive(e.key, 1 if pos % 2 else -1))
        return tuple(out)

    @classmethod
    def from_signed_word(cls, monoid: Monoid, word: SignedWord) -> "Multifraction":
        """Decompose into maximal alternating runs; sharp by construction.

        The first entry is trivial iff the word starts with a negative
        letter; the empty word gives the depth-1 trivial multifraction.
        PresentationError when a letter is not a generator or its inverse.
        """
        blocks = runs(check_signed(monoid.presentation, word))
        if not blocks:
            return cls(monoid, (b"",))
        entries: list[bytes] = []
        if blocks[0][0] < 0:
            entries.append(b"")
        for sign, pos in blocks:
            expected = 1 if len(entries) % 2 == 0 else -1
            if sign != expected:
                raise AssertionError("runs() produced non-alternating blocks")
            entries.append(pos)
        return cls(monoid, entries)

    def __eq__(self, other) -> bool:
        # identical entries imply the same monoid
        return isinstance(other, Multifraction) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return "/".join(str(e) for e in self.entries)

    def __repr__(self) -> str:
        return f"Multifraction({self})"


class ReductionStep(Record):
    """Reduction at position i with parameter x (x != 1)."""

    __slots__ = ("i", "x")

    def __init__(self, i: int, x: MonoidElement):
        _set(self, "i", i)
        _set(self, "x", x)

    def json_obj(self) -> dict:
        return {"rule": "R", "i": self.i, "x": str(self.x)}


def apply_reduction(
    a: Multifraction, step: ReductionStep, lcm_budget: int = DEFAULT_LCM_BUDGET
) -> Multifraction | None:
    """Apply one reduction step; None when its conditions fail.

    Raises BudgetExhausted if the lcm behind the step cannot be settled.
    """
    i, x = step.i, step.x
    m = a.monoid
    if getattr(x, "monoid", None) is not m:
        raise ValueError(f"step parameter {x!r} is not an element of this monoid")
    if not 1 <= i <= a.depth - 1 or x.is_identity():
        return None
    e = a.entries
    if i == 1:
        b1, b2 = m.divide("right", x, e[0]), m.divide("right", x, e[1])
        return None if b1 is None or b2 is None else Multifraction._of(m, (b1, b2) + e[2:])
    side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
    quot = m.divide(side, x, e[i])
    data = None if quot is None else m.lcm_data(lcm_side, x, e[i - 1], lcm_budget)
    if data is None:
        return None
    # even i: x*comp_x = a_i*comp_a = x v a_i; odd i: the left-lcm mirror
    comp_x, comp_a = data
    prev = m.multiply(e[i - 2], comp_a) if side == "left" else m.multiply(comp_a, e[i - 2])
    return Multifraction._of(m, e[: i - 2] + (prev, comp_x, quot) + e[i + 1 :])


class SearchResult(Record):
    """Outcome of a bounded reachability search.

    found=True is always sound and comes with a certifying trace.
    found=False is definitive only when complete=True: the whole reachable
    set was enumerated with no budget truncation anywhere.
    """

    __slots__ = ("found", "complete", "trace", "states", "steps", "reason")

    def __init__(self, found: bool, complete: bool, trace: tuple = (), states: int = 0, steps: int = 0,
                 reason: str | None = None):
        _set(self, "found", found)
        _set(self, "complete", complete)
        _set(self, "trace", trace)
        _set(self, "states", states)
        _set(self, "steps", steps)
        _set(self, "reason", reason)


def _search(start, successors, is_target, state_budget, priority=0) -> SearchResult:
    """Budgeted reachability search shared by every rewrite system here.

    States are hashable and are their own dedupe keys.  `successors(state)`
    returns (children, complete): children is a list of (delta, step,
    child) in a deterministic order, and complete is False when an lcm ran
    out of budget while they were enumerated, which the engine records as
    "lcm budget" before it reads them.  A child (delta, None, reason) marks
    work a cap skipped at that point of the list ("depth cap" in split
    reduction).  `priority` is the start's priority and a child's is its
    parent's plus its delta; states leave the frontier in (priority,
    insertion) order, so a search whose deltas are all 0 is breadth-first.
    `steps` counts admitted children before dedupe.  Reasons rank "state
    budget" over "lcm budget" over "depth cap"; a found trace carries no
    reason, and its `complete` covers only the caps met before it.

    The frontier is one FIFO per priority (`queues`, with `keys` the heap of
    their priorities), lowest priority first.
    """
    if is_target(start):
        return SearchResult(True, True, (), 1, 0)
    seen: dict = {start: None}  # state -> (parent state, step), None at the start
    queue = deque((start,))
    queues, keys = {priority: queue}, [priority]
    edges = 0
    reason = None
    while True:
        if keys[0] != priority:  # a lower priority arrived, or the current queue was dropped
            priority = keys[0]
            queue = queues[priority]
        if not queue:
            if len(keys) == 1:
                break
            del queues[heapq.heappop(keys)]
            continue
        cur = queue.popleft()
        children, complete = successors(cur)
        if not complete:
            reason = "lcm budget"
        for delta, step, child in children:
            if step is None:  # a cap, outranked by "lcm budget"
                reason = reason or child
                continue
            edges += 1
            if child in seen:
                continue
            if len(seen) >= state_budget:
                return SearchResult(False, False, (), len(seen), edges, "state budget")
            seen[child] = (cur, step)
            if is_target(child):
                trace = []
                while seen[child] is not None:
                    child, st = seen[child]
                    trace.append(st)
                return SearchResult(True, reason is None, tuple(reversed(trace)), len(seen), edges)
            if not delta:
                queue.append(child)
                continue
            p = priority + delta
            other = queues.get(p)
            if other is None:
                queues[p] = deque((child,))
                heapq.heappush(keys, p)
            else:
                other.append(child)
    return SearchResult(False, reason is None, (), len(seen), edges, reason)


class _Kernel:
    """One rewrite system's search kernel: the protocol the three searches
    share, and the code that runs on it.

    A kernel searches on compact states (bytes) and shows each state as a
    view, the values the rewrite system's own functions take.  It supplies
      - `children(state)`: the engine's successors (see `_search`), each
        step recorded as a tuple;
      - `step(state, *record)`: that record's step object and the child it
        leads to;
      - `encode(view)` and `view(state)`: a state from its view and back;
      - `apply(view, step)`: the step re-applied to the view by the rule's
        element-level function, which reads none of the kernel's tables, or
        None when it does not apply.
    `search` runs the engine and replays a found trace, `replay` checks
    every step of a trace against `apply`, and `expand` lists one state's
    steps and children.
    """

    __slots__ = ()

    def search(self, start: bytes, is_target, state_budget: int, priority: int = 0) -> SearchResult:
        """`_search` from the state `start`, with its found trace replayed."""
        res = _search(start, self.children, is_target, state_budget, priority)
        if res.trace:
            res = SearchResult(res.found, res.complete, self.replay(start, res.trace), res.states, res.steps,
                               res.reason)
        return res

    def replay(self, start: bytes, trace) -> tuple:
        """The step objects of a trace of recorded steps from `start`, each
        re-applied to the view: StructuralError unless every application
        gives exactly the kernel's child."""
        state, view, steps = start, self.view(start), []
        for n, record in enumerate(trace, 1):
            step, state = self.step(state, *record)
            try:
                applied = self.apply(view, step)
            except ValueError as exc:
                raise StructuralError(f"step {n} of a found trace, {step}, does not apply: {exc}") from exc
            view = self.view(state)
            if applied != view:
                raise StructuralError(f"step {n} of a found trace, {step}, does not give the kernel's child")
            steps.append(step)
        return tuple(steps)

    def descend(self, start: bytes, max_steps: int) -> tuple[tuple, bytes, bool, bool]:
        """Greedy descent: follow the first child from `start` until a state
        has none or `max_steps` steps were taken.  Returns the replayed step
        objects, the last state, whether its expansion was complete, and
        whether the descent stopped with children left.  The kernel must cap
        no child of a state it meets."""
        state, records = start, []
        while True:
            # the last state is expanded too: only that tells whether it is irreducible
            children, complete = self.children(state)
            if not children or len(records) >= max_steps:
                break
            _, record, state = children[0]
            records.append(record)
        return self.replay(start, records), state, complete, bool(children)

    def expand(self, view) -> tuple[list, bool]:
        """Every (step object, child view) of one state, in the kernel's
        order, and False when a candidate was skipped because its lcm ran
        out of budget.  The kernel must cap no child of the state."""
        state = self.encode(view)
        children, complete = self.children(state)
        stepped = [self.step(state, *record) for _, record, _ in children]
        return [(step, self.view(child)) for step, child in stepped], complete


# a compact state holds one native unsigned int ("I", 4 bytes) per entry
_pack2, _pack3 = Struct("2I").pack, Struct("3I").pack
# a reduction window's memo value, row by row: the replacement, 8 bytes at i = 1
_reps_at_1, _reps = Struct("8s").iter_unpack, Struct("12s").iter_unpack
_UNSETTLED = b"\0"  # the value's trailing marker: an lcm ran out of budget
_ID = attrgetter("id")


class _CompactStates(_Kernel):
    """One search's compact states, whose views are entry tuples.

    A state is the `bytes` of its entries' 4-byte ids, the dense ids their
    Monoid gives its elements (the identity 0), so a child is built, hashed
    and compared as one bytes object.  A rule at position i reads and
    writes only a few neighbouring entries, so its children depend only on
    i's parity and that window's ids: `_memos[i % 2]` maps the window's
    bytes to one `bytes` value that the kernel computed for it, and only
    those misses read the Monoid.  A subclass is one rewrite system's
    kernel, named by `kernel`; its memos are the Monoid's for that kernel
    and lcm budget (`Monoid._window_memos`), shared by every search on the
    Monoid, so no value may depend on the search.  `children` records each
    step as (i, rep), rep the bytes it writes into the state.
    """

    __slots__ = ("monoid", "lcm_budget", "_memos")

    def __init__(self, monoid: Monoid, lcm_budget: int):
        self.monoid = monoid
        self.lcm_budget = lcm_budget
        self._memos = monoid._window_memos(self.kernel, lcm_budget)

    def encode(self, entries) -> bytes:
        return array("I", map(_ID, entries)).tobytes()

    def view(self, state: bytes) -> tuple:
        return tuple(map(self.monoid._by_id.__getitem__, memoryview(state).cast("I")))

    def wordlength(self, state: bytes) -> int:
        elems = self.monoid._by_id
        return sum([len(elems[i].key) for i in memoryview(state).cast("I")])


class _ReductionStates(_CompactStates):
    """The reduction rule on compact states.

    A step at position i reads and writes only the window a_{i-1}, a_i,
    a_{i+1} (a_1, a_2 when i = 1).  The window's memo value is one `bytes`:
    the 12-byte replacement of each row (8 bytes at i = 1), ordered by x,
    then the marker `_UNSETTLED` when an lcm ran out of budget, which
    leaves its length odd.  x itself is not stored: the new a_{i+1} is the
    cofactor of x in a_{i+1}, which fixes x by cancellativity, so the
    engine records a step as (i, replacement) and `step` recovers x for a
    returned trace only.  The memos are the Monoid's for this lcm budget,
    so every search on the Monoid shares their rows.  The 8-byte i = 1
    windows cannot collide with the 12-byte ones of odd i >= 3.

    At i >= 2 the lcms involve only a_i and the divisors of a_{i+1}, so a
    window is read off its pair rows: the value of a second memo pair
    (`_pairs`, the Monoid's "reduction pairs" memos), keyed by i's parity
    and the 8 bytes of the (a_i, a_{i+1}) ids, whose 12-byte rows hold the
    ids of comp_a, comp_x and the cofactor, in x order, then the same
    marker.  After a_{i-1} = 1 the pair value is the window's value itself;
    otherwise each row's comp_a becomes a_{i-1}*comp_a (even i) or
    comp_a*a_{i-1} (odd i).  So only a pair miss calls `lcm_data`.  At
    i = 1, whether x right-divides a_1 is tested as `Monoid.divide` tests
    it, by atom quotients (`Monoid._cancel`), so no divisor table of a_1 is
    built.
    """

    __slots__ = ("_pairs",)
    kernel = "reduction"

    def __init__(self, monoid: Monoid, lcm_budget: int):
        super().__init__(monoid, lcm_budget)
        self._pairs = monoid._window_memos("reduction pairs", lcm_budget)

    def children(self, state: bytes) -> tuple[list, bool]:
        """Every (0, (i, replacement), child state), ordered by (i, x), and
        False when a candidate was skipped because its lcm ran out of
        budget; every priority delta is 0, so the search is breadth-first."""
        ids = memoryview(state).cast("I")
        memos, children, complete = self._memos, [], True
        reps_of, reps_at_1 = _reps, _reps_at_1
        # a step at i needs a_{i+1} != 1, so the scan starts at the first nonzero entry
        for i in range(max(1, (len(state) - len(state.lstrip(b"\0"))) >> 2), len(ids)):
            if not ids[i]:
                continue
            lo, hi = (4 * i - 8 if i > 1 else 0), 4 * i + 4
            window = state[lo:hi]
            memo = memos[i & 1]
            rows = memo.young.get(window)
            if rows is None:
                rows = memo.miss(window, self._window, i, ids)
            if not rows:
                continue
            head, tail = state[:lo], state[hi:]
            if len(rows) == hi - lo:  # one row, the commonest case, needs no unpacking
                children.append((0, (i, rows), head + rows + tail))
            else:
                if len(rows) & 1:  # the marker: an lcm ran out of budget
                    complete = False
                    rows = rows[:-1]
                unpack = reps_of if i > 1 else reps_at_1
                children += [(0, (i, rep), head + rep + tail) for rep, in unpack(rows)]
        return children, complete

    def _window(self, i: int, ids) -> bytes:
        """The rule at position i of a state, on its window alone: its memo value."""
        m = self.monoid
        elems, element = m._by_id, m.element
        if i == 1:
            # b_1 x = a_1 and b_2 x = a_2: x is cancelled from the mirrored a_1 as
            # `Monoid.divide` does, which builds no divisor table of a_1
            divs, cofactors = m._divisor_table("right", elems[ids[1]])  # divs[0] is 1
            cancel, mirrored, rows = m._cancel, elems[ids[0]].key[::-1], []
            for x in divs[1:]:
                w = cancel(x.key[::-1], mirrored)
                if w is not None:
                    rows.append(_pack2(element(w[::-1]).id, element(cofactors[x]).id))
            return b"".join(rows)
        pairs, key = self._pairs[i & 1], _pack2(ids[i - 1], ids[i])
        rows = pairs.young.get(key)
        if rows is None:
            rows = pairs.miss(key, self._pair, i, ids)
        prev = ids[i - 2]
        if not prev:
            return rows  # a_{i-1} = 1, and 1*comp_a = comp_a
        # each row's comp_a becomes a_{i-1}*comp_a (even i) or comp_a*a_{i-1} (odd i)
        word, left = elems[prev].key, not i & 1
        end = len(rows) & ~1  # the rows without the marker
        out = array("I")
        out.frombytes(rows[:end])
        for k in range(0, len(out), 3):
            comp_a = out[k]
            if not comp_a:
                out[k] = prev
            elif left:
                out[k] = element(word + elems[comp_a].key).id
            else:
                out[k] = element(elems[comp_a].key + word).id
        return out.tobytes() + rows[end:]

    def _pair(self, i: int, ids) -> bytes:
        """The lcm rows of a_i and a_{i+1} at a position of i's parity: for
        each divisor x of a_{i+1} in order whose lcm with a_i exists, the ids
        of comp_a, comp_x and x's cofactor in a_{i+1}, then `_UNSETTLED`
        when an lcm ran out of budget.  a_{i-1} takes no part in the lcm."""
        m = self.monoid
        elems, element = m._by_id, m.element
        side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
        divs, cofactors = m._divisor_table(side, elems[ids[i]])  # divs[0] is 1
        cur, lcm_data, budget = elems[ids[i - 1]], m.lcm_data, self.lcm_budget
        rows, settled = [], True
        for x in divs[1:]:
            try:
                data = lcm_data(lcm_side, x, cur, budget)
            except BudgetExhausted:
                settled = False
                continue
            if data is not None:
                # even i: x*comp_x = a_i*comp_a = x v a_i; odd i: the left-lcm mirror
                comp_x, comp_a = data
                rows.append(_pack3(comp_a.id, comp_x.id, element(cofactors[x]).id))
        if not settled:
            rows.append(_UNSETTLED)
        return b"".join(rows)

    def step(self, state: bytes, i: int, rep: bytes) -> tuple[ReductionStep, bytes]:
        """The ReductionStep that the kernel's (i, rep) is on `state`, and
        its child: x is the divisor of a_{i+1} whose cofactor is rep's last
        entry."""
        elems = self.monoid._by_id
        entry, quot = elems[memoryview(state).cast("I")[i]], elems[memoryview(rep).cast("I")[-1]]
        # even i: a_{i+1} = x * quot; odd i: a_{i+1} = quot * x
        x = self.monoid.divide("right" if i % 2 == 0 else "left", quot, entry)
        hi = 4 * i + 4  # the window ends after a_{i+1} and is as long as rep
        return ReductionStep(i, x), state[:hi - len(rep)] + rep + state[hi:]

    def apply(self, entries: tuple, step: ReductionStep) -> tuple | None:
        """`apply_reduction` on entries, under the kernel's lcm budget."""
        b = apply_reduction(Multifraction._of(self.monoid, entries), step, self.lcm_budget)
        return None if b is None else b.entries


def reduction_step_candidates(a: Multifraction) -> tuple[list[ReductionStep], bool]:
    """All applicable reduction steps, ordered by (i, parameter word), and
    False second when an lcm ran out of budget (the list may be incomplete)."""
    children, complete = _ReductionStates(a.monoid, DEFAULT_LCM_BUDGET).expand(a.entries)
    return [step for step, _ in children], complete


def search_reduction(
    a: Multifraction,
    target_wordlength: int = 0,
    state_budget: int = DEFAULT_STATE_BUDGET,
    lcm_budget: int = DEFAULT_LCM_BUDGET,
) -> SearchResult:
    """Breadth-first search of the reduction graph from `a`.

    Succeeds on the first multifraction of wordlength <= target_wordlength
    (0 = the all-trivial target); the BFS order plus the deterministic
    child ordering make the returned trace the canonical shortest one.
    The search runs on `_ReductionStates`: each state is the bytes of its
    entries' ids, and each window's rows are read from the Monoid's window
    memos, which outlive the search.  The engine records each step as
    (i, replacement); `ReductionStep`s are built only for the returned
    trace, whose replay re-applies each by `apply_reduction` under the lcm
    budget and raises StructuralError unless it gives the kernel's child.
    """
    states = _ReductionStates(a.monoid, lcm_budget)
    start = states.encode(a.entries)
    if target_wordlength == 0:
        is_target = bytes(len(start)).__eq__  # every id 0: the all-trivial state
    else:
        def is_target(state):
            return states.wordlength(state) <= target_wordlength
    return states.search(start, is_target, state_budget)


def reduce_greedily(a: Multifraction, max_steps: int) -> tuple[tuple, Multifraction, bool, bool]:
    """Apply the first reduction step, in (i, x) order, until none applies
    or `max_steps` steps were taken (`_Kernel.descend`), under the default
    lcm budget.

    Returns the trace, replayed by `apply_reduction` (StructuralError unless
    every step gives the kernel's child), the last multifraction, whether
    its step enumeration was complete, and whether the descent stopped with
    steps left.  The last multifraction is irreducible only when both the
    enumeration was complete and no step was left.
    """
    states = _ReductionStates(a.monoid, DEFAULT_LCM_BUDGET)
    trace, state, complete, stopped = states.descend(states.encode(a.entries), max_steps)
    return trace, Multifraction._of(a.monoid, states.view(state)), complete, stopped


def reduces_to_trivial(a: Multifraction, **budgets) -> SearchResult:
    """Is the all-trivial multifraction of the same depth reachable from a?"""
    return search_reduction(a, target_wordlength=0, **budgets)
