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

The search runs on the compact states the reduction search uses
(`multifraction._CompactStates`): a state is the bytes of its entries'
4-byte ids, the dense ids their Monoid gives its elements (the identity
0).  A split at i reads only a_i and a_{i+1}, and a trim at i only a_i,
a_{i+1} and a_{i+2}, so each window's children are computed once per
Monoid, keyed by i's parity and the window's ids, from the divisor tables
and `Monoid.lcm_data`; a child is built by bytes slicing (`_SplitStates`).
The window memos live on the Monoid beside the reduction kernel's,
bounded the same way (`monoid._Memo`): a split row stores its unscaled
word-length growth, so no row depends on the search that computed it.
The kernel follows `multifraction._Kernel`: `split_step_candidates` is
its single-state expansion, and the replay of a found trace re-applies
each step by `apply_split_or_trim`, which reads none of the kernel's
tables, and raises StructuralError unless it gives the kernel's child.
`Multifraction` objects and steps are built only at the API boundary.

The two `simulate_*` translations implement the constructive equivalence
between split reduction and reduction-after-padding: one ordinary
reduction step is two split steps (split off the whole entry, then trim),
and one split (resp. trim) step costs one extra leading (resp. trailing)
pair of trivial entries on the ordinary side.
"""

from __future__ import annotations

from struct import Struct

from .errors import BudgetExhausted, Record, _set
from .monoid import Monoid, MonoidElement
from .multifraction import (
    DEFAULT_LCM_BUDGET,
    Multifraction,
    ReductionStep,
    SearchResult,
    _UNSETTLED,
    _CompactStates,
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


class SplitStep(Record):
    """Split at position i, crossing x over the divisor y of a_i."""

    __slots__ = ("i", "x", "y")

    def __init__(self, i: int, x: MonoidElement, y: MonoidElement):
        _set(self, "i", i)
        _set(self, "x", x)
        _set(self, "y", y)

    def json_obj(self) -> dict:
        return {"rule": "S", "i": self.i, "x": str(self.x), "y": str(self.y)}


class TrimStep(Record):
    """Merge entries i and i+2 around the trivial entry a_{i+1}."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        _set(self, "i", i)

    def json_obj(self) -> dict:
        return {"rule": "T", "i": self.i}


def apply_split(a: Multifraction, step: SplitStep) -> Multifraction | None:
    """Apply one split step; None when its conditions fail."""
    i, x, y = step.i, step.x, step.y
    m = a.monoid
    if getattr(x, "monoid", None) is not m or getattr(y, "monoid", None) is not m:
        raise ValueError(f"step parameters {x!r}, {y!r} are not elements of this monoid")
    if not 1 <= i <= a.depth - 1 or (x.is_identity() and y.is_identity()):
        return None
    side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
    e = a.entries
    b_i, b_last = m.divide(side, y, e[i - 1]), m.divide(side, x, e[i])
    if b_i is None or b_last is None:
        return None
    data = m.lcm_data(lcm_side, x, y, DEFAULT_LCM_BUDGET)
    if data is None:
        return None
    comp_x, comp_y = data
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


_pack1 = Struct("I").pack
# a split window's memo value, row by row: the ids of b_i, c_y, c_x and the new
# last entry, then the row's growth |c_x| + |c_y| - |x| - |y|, 20 bytes in all
_pack_row, _rows = Struct("4Ii").pack, Struct("16si").iter_unpack


class _SplitStates(_CompactStates):
    """Split and trim steps on compact states.

    A trim at i reads a_i, a_{i+1} = 1 and a_{i+2} and writes one merged
    entry; a split at i reads a_i and a_{i+1} and writes four entries.  So
    a trim's memo value, keyed by its 12-byte window, is the merged entry's
    4-byte id, and a split's, keyed by its 8-byte window, is one `bytes` of
    20-byte rows, ordered by (y, x): the four ids the split writes, then
    its growth, and the marker `_UNSETTLED` when an lcm ran out of budget.
    The two window lengths cannot collide in the memo of a parity, and
    neither value depends on the search, so the memos are the Monoid's,
    shared by every split search on it.  The engine records a trim as
    (i, merged) and a split as (i, replacement); `step` recovers x and y
    for a returned trace only, as the divisors of a_{i+1} and a_i whose
    cofactors are the replacement's last and first entries.

    A state's priority is wordlength * scale + depth, which orders states
    by (word-length, depth): no state is deeper than the start or the
    depth cap, and `scale` is one more than both.  A split changes the
    word-length by its row's growth and the depth by +2, so its priority
    delta is growth * scale + 2; a trim keeps the word-length and lowers
    the depth by 2, a delta of -2.  A child's priority is its parent's plus
    its delta.
    """

    __slots__ = ("cap", "scale")
    kernel = "split"

    def __init__(self, monoid: Monoid, max_depth: int, start_depth: int):
        super().__init__(monoid, DEFAULT_LCM_BUDGET)
        self.cap = 4 * max_depth  # in bytes
        self.scale = max(start_depth, max_depth) + 1

    def priority(self, state: bytes) -> int:
        return self.wordlength(state) * self.scale + len(state) // 4

    def children(self, state: bytes) -> tuple[list, bool]:
        """Every (priority delta, step, child state), trims by i then splits
        by (i, y, x), and False when a pair was skipped because its lcm ran
        out of budget.  A step is (i, merged) for a trim and (i, replacement)
        for a split.

        A child deeper than the cap is not built: one (0, None, "depth
        cap") follows the children that are.  Every window is still
        settled, so that an lcm budget trip at the cap outranks the cap.
        """
        ids = memoryview(state).cast("I")
        memos, scale, trims, splits, complete = self._memos, self.scale, [], [], True
        # a trim drops two entries and a split adds two, so the state's
        # length says which kinds pass the cap
        trim_ok, split_ok, capped = len(state) - 8 <= self.cap, len(state) + 8 <= self.cap, False
        # one pass: a trim at i needs a_{i+1} = 1 and i < depth - 1, and a
        # split at i needs a_i and a_{i+1} not both 1 (the only divisor
        # pair would be (1, 1), which is no step)
        last = len(ids) - 1
        for i in range(1, len(ids)):
            lo, memo = 4 * i - 4, memos[i & 1]
            if not ids[i]:
                if i < last and not trim_ok:
                    capped = True
                elif i < last:
                    window = state[lo:lo + 12]
                    merged = memo.young.get(window)
                    if merged is None:
                        merged = memo.miss(window, self._trim, i, ids)
                    trims.append((-2, (i, merged), state[:lo] + merged + state[lo + 12:]))
                if not ids[i - 1]:
                    continue
            window = state[lo:lo + 8]
            rows = memo.young.get(window)
            if rows is None:
                rows = memo.miss(window, self._split, i, ids)
            if len(rows) & 1:  # the marker: an lcm ran out of budget
                complete = False
                rows = rows[:-1]
            if rows and not split_ok:
                capped = True
            elif rows:
                head, tail = state[:lo], state[lo + 8:]
                splits += [(growth * scale + 2, (i, rep), head + rep + tail) for rep, growth in _rows(rows)]
        if capped:
            trims.append((0, None, "depth cap"))
        return trims + splits, complete

    def _trim(self, i: int, ids) -> bytes:
        """The trim at position i of a state, on its window alone: its memo value."""
        elems = self.monoid._by_id
        a, c = elems[ids[i - 1]].key, elems[ids[i + 1]].key
        return _pack1(self.monoid.element(a + c if i % 2 == 1 else c + a).id)

    def _split(self, i: int, ids) -> bytes:
        """The splits at position i of a state, on their window alone: its memo value."""
        m, element = self.monoid, self.monoid.element
        one, a_i, a_next = m.identity, m._by_id[ids[i - 1]], m._by_id[ids[i]]
        side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
        ys, y_cofactors = m._divisor_table(side, a_i)  # ys[0] is 1
        xs, x_cofactors = m._divisor_table(side, a_next)  # xs[0] is 1
        rows, settled = [], True
        for y in ys:
            b_i = a_i if y is one else element(y_cofactors[y])
            y_len = len(y.key)
            for x in xs[1:] if y is one else xs:
                try:
                    data = m.lcm_data(lcm_side, x, y, self.lcm_budget)
                except BudgetExhausted:
                    settled = False
                    continue
                if data is not None:
                    comp_x, comp_y = data
                    b_last = a_next if x is one else element(x_cofactors[x])
                    growth = len(comp_x.key) + len(comp_y.key) - len(x.key) - y_len
                    rows.append(_pack_row(b_i.id, comp_y.id, comp_x.id, b_last.id, growth))
        if not settled:
            rows.append(_UNSETTLED)
        return b"".join(rows)

    def step(self, state: bytes, i: int, rep: bytes) -> tuple:
        """The TrimStep or SplitStep that the kernel's (i, rep) is on
        `state`, and its child."""
        lo = 4 * i - 4
        if len(rep) == 4:  # a trim's merged entry
            return TrimStep(i), state[:lo] + rep + state[lo + 12:]
        m, entries, new = self.monoid, memoryview(state).cast("I"), memoryview(rep).cast("I")
        # even i: a_i = y * b_i and a_{i+1} = x * b_{i+3}; odd i: the mirror
        side = "right" if i % 2 == 0 else "left"
        x = m.divide(side, m._by_id[new[3]], m._by_id[entries[i]])
        y = m.divide(side, m._by_id[new[0]], m._by_id[entries[i - 1]])
        return SplitStep(i, x, y), state[:lo] + rep + state[lo + 8:]

    def apply(self, entries: tuple, step) -> tuple | None:
        """`apply_split_or_trim` on entries."""
        b = apply_split_or_trim(Multifraction._of(self.monoid, entries), step)
        return None if b is None else b.entries


def split_step_candidates(a: Multifraction) -> tuple[list, bool]:
    """All applicable trim and split steps, trims by i then splits by
    (i, y, x), and False second when an lcm ran out of budget: the kernel's
    expansion, under a cap that every child fits."""
    children, complete = _SplitStates(a.monoid, a.depth + 2, a.depth).expand(a.entries)
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
    cap did any work).  The search runs on `_SplitStates`: a child's
    priority is its parent's plus a delta worked out from its window's row,
    so no state's entries are summed after the start's, and the target is
    the all-zero state.  The engine records (i, merged) for a trim and
    (i, replacement) for a split; `TrimStep`s and `SplitStep`s are built
    only for the returned trace, whose replay re-applies each by
    `apply_split_or_trim` and raises StructuralError unless it gives the
    kernel's child.
    """
    if max_depth is None:
        max_depth = 2 * a.depth + 12
    states = _SplitStates(a.monoid, max_depth, a.depth)
    start = states.encode(a.entries)
    # the target is an all-zero state; no state the search admits is deeper
    # than the cap, or than the start plus two entries per admitted state
    zeros = bytes(4 * min(states.scale, a.depth + 2 * max(state_budget, 0)))
    return states.search(start, zeros.startswith, state_budget, states.priority(start))


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
