"""Split reduction: the depth-raising variant of multifraction reduction.

A split step at position i crosses the removed divisor x of a_{i+1} over a
*divisor* y of a_i instead of the whole entry, which costs two extra
entries:

  i even:  y b_i = a_i,   y b_{i+1} = x b_{i+2} = (x v y),   x b_{i+3} = a_{i+1}
  i odd:   b_i y = a_i,   b_{i+1} y = b_{i+2} x = left-lcm,  b_{i+3} x = a_{i+1}

with x*y != 1.  Trimming at position i merges around a trivial entry
a_{i+1} = 1 and lowers the depth by two.  Split reduction does not
terminate in general (there are loops already over the three-generator
all-threes presentation), so searches here are always budget-bound and
only a positive answer is definitive.

The search's states are raw entry tuples of interned elements, expanded
by one kernel, `_split_children`, that reads each entry's divisor table
once per position, settles each lcm once and builds each child by tuple
slicing; `Multifraction` objects are built only at the API boundary.

The two `simulate_*` translations implement the constructive equivalence
between split reduction and reduction-after-padding: one ordinary
reduction step is two split steps (split off the whole entry, then trim),
and one split (resp. trim) step costs one extra leading (resp. trailing)
pair of trivial entries on the ordinary side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExhausted
from .monoid import Monoid, MonoidElement
from .multifraction import (
    DEFAULT_LCM_BUDGET,
    DEFAULT_LCM_MAX_LEN,
    Multifraction,
    ReductionStep,
    SearchResult,
    _search,
    _wordlength,
    apply_reduction,
)

__all__ = [
    "SplitStep",
    "TrimStep",
    "apply_split",
    "apply_trim",
    "apply_split_or_trim",
    "split_step_candidates",
    "split_reduces_to_trivial",
    "simulate_reduction_by_splits",
    "simulate_splits_by_padded_reduction",
    "DEFAULT_SPLIT_STATE_BUDGET",
]

DEFAULT_SPLIT_STATE_BUDGET = 10**5


@dataclass(frozen=True)
class SplitStep:
    """Split at position i, crossing x over the divisor y of a_i."""

    i: int
    x: MonoidElement
    y: MonoidElement

    def json_obj(self) -> dict:
        return {"rule": "S", "i": self.i, "x": str(self.x), "y": str(self.y)}


@dataclass(frozen=True)
class TrimStep:
    """Merge entries i and i+2 around the trivial entry a_{i+1}."""

    i: int

    def json_obj(self) -> dict:
        return {"rule": "T", "i": self.i}


def apply_split(a: Multifraction, step: SplitStep) -> Multifraction | None:
    """Apply one split step; None when its conditions fail."""
    i, x, y = step.i, step.x, step.y
    m = a.monoid
    if x.monoid is not m or y.monoid is not m:
        raise ValueError("step parameters from a different monoid")
    if not 1 <= i <= a.depth - 1 or (x.is_identity() and y.is_identity()):
        return None
    side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
    e = a.entries
    b_i, b_last = m.divide(side, y, e[i - 1]), m.divide(side, x, e[i])
    if b_i is None or b_last is None:
        return None
    data = m.lcm_data(lcm_side, x, y, DEFAULT_LCM_BUDGET, DEFAULT_LCM_MAX_LEN)
    if data is None:
        return None
    _, comp_x, comp_y = data
    return Multifraction._of(m, e[: i - 1] + (b_i, comp_y, comp_x, b_last) + e[i + 1 :])


def apply_trim(a: Multifraction, step: TrimStep) -> Multifraction | None:
    """Apply one trim step; None unless a_{i+1} = 1 and the depth allows it."""
    i = step.i
    if not 1 <= i <= a.depth - 2 or not a.entry(i + 1).is_identity():
        return None
    m, e = a.monoid, a.entries
    merged = m.multiply(e[i - 1], e[i + 1]) if i % 2 == 1 else m.multiply(e[i + 1], e[i - 1])
    return Multifraction._of(m, e[: i - 1] + (merged,) + e[i + 2 :])


def apply_split_or_trim(a: Multifraction, step) -> Multifraction | None:
    if isinstance(step, SplitStep):
        return apply_split(a, step)
    if isinstance(step, TrimStep):
        return apply_trim(a, step)
    raise TypeError(f"not a split-system step: {step!r}")


def _split_children(m: Monoid, entries: tuple) -> tuple[list, bool]:
    """Every (step, child entries) of a state: trims by i, then splits by (i, y, x).

    These are the children `apply_trim` and `apply_split` give, from one
    read of both divisor tables per position and one lcm per divisor pair.
    The flag is False when a pair was skipped because its lcm ran out of
    budget.
    """
    element, one, children, complete = m.element, m.identity, [], True
    for i in range(1, len(entries) - 1):
        if entries[i] is one:
            a, c = entries[i - 1].key, entries[i + 1].key
            merged = element(a + c if i % 2 == 1 else c + a)
            children.append((TrimStep(i), entries[: i - 1] + (merged,) + entries[i + 2 :]))
    for i in range(1, len(entries)):
        a_i, a_next = entries[i - 1], entries[i]
        if a_i is one and a_next is one:
            continue  # the only divisor pair is (1, 1), which is no step
        side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
        ys, y_cofactors = m._divisor_table(side, a_i)  # ys[0] is 1
        xs, x_cofactors = m._divisor_table(side, a_next)  # xs[0] is 1
        head, tail = entries[: i - 1], entries[i + 1 :]
        for y in ys:
            b_i = a_i if y is one else element(y_cofactors[y])
            for x in xs[1:] if y is one else xs:
                try:
                    data = m.lcm_data(lcm_side, x, y, DEFAULT_LCM_BUDGET, DEFAULT_LCM_MAX_LEN)
                except BudgetExhausted:
                    complete = False
                    continue
                if data is not None:
                    _, comp_x, comp_y = data
                    b_last = a_next if x is one else element(x_cofactors[x])
                    children.append((SplitStep(i, x, y), head + (b_i, comp_y, comp_x, b_last) + tail))
    return children, complete


def split_step_candidates(a: Multifraction) -> tuple[list, bool]:
    """All applicable trim and split steps, trims by i then splits by
    (i, y, x), and False second when an lcm ran out of budget."""
    children, complete = _split_children(a.monoid, a.entries)
    return [step for step, _ in children], complete


def split_reduces_to_trivial(
    a: Multifraction,
    state_budget: int = DEFAULT_SPLIT_STATE_BUDGET,
    max_depth: int | None = None,
) -> SearchResult:
    """Bounded search for an all-trivial multifraction under split reduction.

    Splits grow the depth without bound, so besides the state budget the
    search caps the depth at 2*depth(a) + 12 by default.  States are
    explored best-first by (word-length, depth), which reaches certificates
    far sooner than breadth-first in this heavily branching system; the
    exploration order does not affect what "exhausted" means.  found=True
    is definitive; anything else is undetermined (complete=False whenever a
    cap did any work).
    """
    if max_depth is None:
        max_depth = 2 * a.depth + 12
    m = a.monoid

    def successors(entries: tuple) -> tuple[list, bool]:
        # the kernel settles every lcm even at the cap, so that an lcm
        # budget trip there still outranks the depth cap
        children, complete = _split_children(m, entries)
        if len(entries) + 2 > max_depth:  # a split adds two entries, a trim drops two
            children = [(s, c) if len(c) <= max_depth else (None, "depth cap") for s, c in children]
        return children, complete

    # the target test compares entries with 1 by identity, so each admitted
    # state's word-length is computed once, for its priority
    one = m.identity
    return _search(a.entries, successors, lambda e: e.count(one) == len(e),
                   state_budget, lambda e: (_wordlength(e), len(e)))


def simulate_reduction_by_splits(a: Multifraction, step: ReductionStep) -> list:
    """The 2-step split trace (split off the whole of a_i, then trim) whose
    application equals `apply_reduction(a, step)` exactly."""
    b = apply_reduction(a, step)
    if b is None:
        raise ValueError(f"reduction step {step} does not apply to {a}")
    i = step.i
    strace = [SplitStep(i, step.x, a.entry(i)), TrimStep(i - 1 if i >= 2 else 1)]
    cur: Multifraction = a
    for s in strace:
        cur = apply_split_or_trim(cur, s)
        if cur is None:
            raise AssertionError(f"constructed split trace failed at {s}")
    if cur != b:
        raise AssertionError("split simulation endpoint differs from the reduction step")
    return strace


def simulate_splits_by_padded_reduction(a: Multifraction, strace) -> tuple[int, int, list[ReductionStep]]:
    """Translate a split-system trace into an ordinary reduction trace.

    Returns (p, q, rtrace) such that rtrace applies from a.pad(p) and ends
    at b / 1^(2q), where b is the endpoint of `strace` from a.  Each split
    step contributes p += 1, each trim q += 1; identity-parameter moves are
    dropped since they do not change the multifraction.
    """
    m = a.monoid
    p = q = 0
    rtrace: list[ReductionStep] = []
    cur = a
    for step in strace:
        new_steps: list[ReductionStep] = []
        if isinstance(step, SplitStep):
            i = step.i
            # from 1^2/cur: walk the trivial pair right to position (i, i+1)
            for t in range(1, i):
                if not cur.entry(t).is_identity():
                    new_steps.append(ReductionStep(t + 1, cur.entry(t)))
            side = "left" if i % 2 == 0 else "right"
            b_i = m.divide(side, step.y, cur.entry(i))
            if b_i is None:
                raise ValueError(f"split step {step} does not apply to {cur}")
            if not b_i.is_identity():
                new_steps.append(ReductionStep(i + 1, b_i))
            if not step.x.is_identity():
                new_steps.append(ReductionStep(i + 2, step.x))
            nxt = apply_split(cur, step)
            if nxt is None:
                raise ValueError(f"split step {step} does not apply to {cur}")
            rtrace = [ReductionStep(s.i + 2, s.x) for s in rtrace] + new_steps
            p += 1
        elif isinstance(step, TrimStep):
            i = step.i
            nxt = apply_trim(cur, step)
            if nxt is None:
                raise ValueError(f"trim step {step} does not apply to {cur}")
            if not cur.entry(i + 2).is_identity():
                new_steps.append(ReductionStep(i + 1, cur.entry(i + 2)))
            for t in range(i + 3, cur.depth + 1):
                if not cur.entry(t).is_identity():
                    new_steps.append(ReductionStep(t - 1, cur.entry(t)))
            rtrace = rtrace + new_steps
            q += 1
        else:
            raise TypeError(f"not a split-system step: {step!r}")
        cur = nxt
    return p, q, rtrace
