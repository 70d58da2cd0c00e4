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
(e.g. FC type), decides the word problem.  The search's states are raw
entry tuples of interned elements, expanded by one kernel that settles
each lcm once, `_reduction_children`; `Multifraction` objects are built
only at the API boundary.

Budgets: the search takes a state budget, and every lcm call inside step
enumeration is budgeted.  A search that had to skip an undetermined lcm
or ran out of states reports `complete=False`; a found trace is sound
either way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter

from .errors import BudgetExhausted
from .monoid import Monoid, MonoidElement
from .words import SignedWord, runs, signed_of_positive

__all__ = [
    "Multifraction",
    "ReductionStep",
    "SearchResult",
    "apply_reduction",
    "reduction_step_candidates",
    "search_reduction",
    "reduces_to_trivial",
    "DEFAULT_STATE_BUDGET",
    "DEFAULT_LCM_BUDGET",
    "DEFAULT_LCM_MAX_LEN",
]

DEFAULT_STATE_BUDGET = 10**6
# Reversing budgets used inside step enumeration.  Small on purpose: an lcm
# that does not settle this fast at desk scale is treated as undetermined
# and the search downgrades its completeness claim instead of stalling.
DEFAULT_LCM_BUDGET = 1_000
DEFAULT_LCM_MAX_LEN = 512


def _wordlength(entries) -> int:
    return sum(map(len, map(attrgetter("key"), entries)))


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
        return _wordlength(self.entries)

    def is_trivial(self) -> bool:
        return self.wordlength == 0

    def entry(self, i: int) -> MonoidElement:
        """1-based entry access, matching the rewrite-rule indexing."""
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
        """
        blocks = runs(word)
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


@dataclass(frozen=True)
class ReductionStep:
    """Reduction at position i with parameter x (x != 1)."""

    i: int
    x: MonoidElement

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
    if x.monoid is not m:
        raise ValueError("step parameter from a different monoid")
    if not 1 <= i <= a.depth - 1 or x.is_identity():
        return None
    e = a.entries
    if i == 1:
        b1, b2 = m.divide("right", x, e[0]), m.divide("right", x, e[1])
        return None if b1 is None or b2 is None else Multifraction._of(m, (b1, b2) + e[2:])
    side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
    quot = m.divide(side, x, e[i])
    data = None if quot is None else m.lcm_data(lcm_side, x, e[i - 1], lcm_budget, DEFAULT_LCM_MAX_LEN)
    if data is None:
        return None
    # even i: x*comp_x = a_i*comp_a = x v a_i; odd i: the left-lcm mirror
    _, comp_x, comp_a = data
    prev = m.multiply(e[i - 2], comp_a) if side == "left" else m.multiply(comp_a, e[i - 2])
    return Multifraction._of(m, e[: i - 2] + (prev, comp_x, quot) + e[i + 1 :])


def _reduction_children(m: Monoid, entries: tuple, lcm_budget: int) -> tuple[list, bool]:
    """Every (ReductionStep, child entries) of a state, ordered by (i, x).

    These are the children `apply_reduction` gives, from one divisor table
    read per position and one lcm per candidate.  The flag is False when
    a candidate was skipped because its lcm ran out of budget.
    """
    element, children, complete = m.element, [], True
    for i in range(1, len(entries)):
        if not entries[i].key:
            continue
        side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
        divs, cofactors = m._divisor_table(side, entries[i])  # divs[0] is 1
        if i == 1:
            first = m._divisor_table("right", entries[0])[1]
            children += [(ReductionStep(1, x), (element(first[x]), element(cofactors[x])) + entries[2:])
                         for x in divs[1:] if x in first]
            continue
        prev, cur = entries[i - 2], entries[i - 1]
        for x in divs[1:]:
            try:
                data = m.lcm_data(lcm_side, x, cur, lcm_budget, DEFAULT_LCM_MAX_LEN)
            except BudgetExhausted:
                complete = False
                continue
            if data is not None:
                # even i: x*comp_x = a_i*comp_a = x v a_i; odd i: the left-lcm mirror
                _, comp_x, comp_a = data
                new_prev = element(prev.key + comp_a.key if side == "left" else comp_a.key + prev.key)
                child = entries[: i - 2] + (new_prev, comp_x, element(cofactors[x])) + entries[i + 1 :]
                children.append((ReductionStep(i, x), child))
    return children, complete


def reduction_step_candidates(
    a: Multifraction, lcm_budget: int = DEFAULT_LCM_BUDGET
) -> tuple[list[ReductionStep], bool]:
    """All applicable reduction steps, ordered by (i, parameter word), and
    False second when an lcm ran out of budget (the list may be incomplete)."""
    children, complete = _reduction_children(a.monoid, a.entries, lcm_budget)
    return [step for step, _ in children], complete


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded reachability search.

    found=True is always sound and comes with a certifying trace.
    found=False is definitive only when complete=True: the whole reachable
    set was enumerated with no budget truncation anywhere.
    """

    found: bool
    complete: bool
    trace: tuple = ()
    states: int = 0
    steps: int = 0
    reason: str | None = None


def _search(start, successors, is_target, state_budget, priority=None) -> SearchResult:
    """Budgeted reachability search shared by every rewrite system here.

    States are hashable and are their own dedupe keys.  `successors(state)`
    returns (children, complete): children is a list of (step, child) in a
    deterministic order, and complete is False when an lcm ran out of
    budget while they were enumerated, which the engine records as "lcm
    budget" before it reads them.  A child (None, reason) marks work a
    cap skipped at that point of the list ("depth cap" in split
    reduction).  States leave the frontier by (priority(state), insertion
    tick), so priority=None is breadth-first.  `steps` counts admitted
    children before dedupe.  Reasons rank "state budget" over "lcm budget"
    over "depth cap"; a found trace carries no reason, and its `complete`
    covers only the caps met before it.
    """
    if is_target(start):
        return SearchResult(True, True, (), 1, 0)
    seen: dict = {start: None}  # state -> (parent state, step), None at the start
    frontier = [(priority(start) if priority else 0, 0, start)]
    tick = edges = 0
    reason = None
    while frontier:
        cur = heapq.heappop(frontier)[2]
        children, complete = successors(cur)
        if not complete:
            reason = "lcm budget"
        for step, child in children:
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
            tick += 1
            heapq.heappush(frontier, (priority(child) if priority else 0, tick, child))
    return SearchResult(False, reason is None, (), len(seen), edges, reason)


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
    """
    return _search(a.entries, lambda e: _reduction_children(a.monoid, e, lcm_budget),
                   lambda e: _wordlength(e) <= target_wordlength, state_budget)


def reduces_to_trivial(a: Multifraction, **budgets) -> SearchResult:
    """Is the all-trivial multifraction of the same depth reachable from a?"""
    return search_reduction(a, target_wordlength=0, **budgets)
