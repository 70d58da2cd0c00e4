import random

import pytest

from multifrac import (
    ArtinPresentation,
    BudgetExhausted,
    Monoid,
    Multifraction,
    SplitStep,
    TrimStep,
    apply_reduction,
    apply_split,
    apply_trim,
    reduces_to_trivial,
    reduction_step_candidates,
    simulate_reduction_by_splits,
    simulate_splits_by_padded_reduction,
    split_reduces_to_trivial,
)
from multifrac.multifraction import _search
from multifrac.split import (
    DEFAULT_SPLIT_STATE_BUDGET,
    _split_children,
    _SplitStates,
    apply_split_or_trim,
    split_step_candidates,
)
from multifrac.words import parse_signed

from oracles import (
    all_threes,
    braid_pair,
    random_identity_word,
    random_signed_word,
    signed_words_up_to,
)


@pytest.fixture(scope="module")
def a2t():
    return Monoid(all_threes())


@pytest.fixture(scope="module")
def a2():
    return Monoid(braid_pair(3))


def mf(mon, *entries):
    return Multifraction(mon, entries)


def test_worked_split_example(a2t):
    """The six-step split run over the all-threes presentation."""
    e = a2t.element
    a = mf(a2t, "ab", "c")
    steps = [
        SplitStep(1, e("c"), e("b")),
        SplitStep(1, e("c"), e("a")),
        SplitStep(3, e("b"), e("a")),
        SplitStep(3, e("b"), e("c")),
        SplitStep(5, e("a"), e("c")),
        SplitStep(5, e("a"), e("b")),
    ]
    cur = a
    seen = []
    for s in steps:
        cur = apply_split(cur, s)
        assert cur is not None
        seen.append(cur)
    assert seen[1] == mf(a2t, "", "ac", "ca", "b", "cb", "")
    assert seen[5] == mf(
        a2t, "", "ac", "", "cb", "", "ba", "ab", "c", "ac", "", "ba", "", "cb", ""
    )
    # the start reappears as entries 7-8: the run can be repeated forever
    assert seen[5].entries[6:8] == a.entries


def test_split_depth_accounting(a2t):
    a = mf(a2t, "ab", "c")
    b = apply_split(a, SplitStep(1, a2t.element("c"), a2t.element("b")))
    assert b.depth == a.depth + 2
    c = apply_trim(mf(a2t, "a", "", "b", "c"), TrimStep(1))
    assert c.depth == 2


def test_insertion_split_pads(a2t):
    # split with x = 1 at the first nontrivial entry prepends a trivial pair
    for entries in (("ab", "c"), ("", "", "ab", "c")):
        a = mf(a2t, *entries)
        i = next(k for k in range(1, a.depth + 1) if not a.entry(k).is_identity())
        if i >= a.depth:
            continue
        b = apply_split(a, SplitStep(i, a2t.identity, a.entry(i)))
        assert b == a.pad(1)


def test_split_requires_nontrivial_pair(a2t):
    a = mf(a2t, "ab", "c")
    assert apply_split(a, SplitStep(1, a2t.identity, a2t.identity)) is None


def test_trim_examples(a2t):
    e = a2t.element
    assert apply_trim(mf(a2t, "a", "", "b", "c"), TrimStep(1)) == mf(a2t, "ab", "c")
    assert apply_trim(mf(a2t, "", "", ""), TrimStep(1)) == mf(a2t, "")
    # even position: the merge order flips
    assert apply_trim(mf(a2t, "a", "b", "", "c"), TrimStep(2)) == mf(a2t, "a", "cb")
    assert apply_trim(mf(a2t, "a", "b", "c"), TrimStep(1)) is None  # entry not trivial
    assert apply_trim(mf(a2t, "a", ""), TrimStep(1)) is None  # too deep


# every signed word up to these lengths, per presentation
EVERY_WORD_UP_TO = pytest.mark.parametrize(
    "pres, max_len",
    [
        (braid_pair(3), 4),
        (braid_pair(4), 4),
        (ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2}), 3),
        (all_threes(), 3),
    ],
    ids=["I2(3)", "I2(4)", "A3", "A2~"],
)


def _applied_children(a):
    """The oracle: apply_trim at every i, then apply_split at every i with
    every divisor pair (y of a_i, x of a_{i+1}) on the rule's side, dropping
    (and flagging) budget trips."""
    m = a.monoid
    children, complete = [], True
    for i in range(1, a.depth):
        b = apply_trim(a, TrimStep(i))
        if b is not None:
            children.append((TrimStep(i), b.entries))
    for i in range(1, a.depth):
        side = "left" if i % 2 == 0 else "right"
        for y in m.divisors(side, a.entry(i)):
            for x in m.divisors(side, a.entry(i + 1)):
                step = SplitStep(i, x, y)
                try:
                    b = apply_split(a, step)
                except BudgetExhausted:
                    complete = False
                    continue
                if b is not None:
                    children.append((step, b.entries))
    return children, complete


@EVERY_WORD_UP_TO
def test_split_children_match_apply_split_and_trim(pres, max_len):
    mon = Monoid(pres)
    for w in signed_words_up_to(pres, max_len):
        a = Multifraction.from_signed_word(mon, w)
        for p in (0, 1):
            start = a.pad(p)
            want = _applied_children(start)
            assert _split_children(mon, start.entries) == want, (w, p)
            steps, complete = split_step_candidates(start)
            assert (steps, complete) == ([s for s, _ in want[0]], want[1])


def _tuple_split_search(a, state_budget, max_depth):
    """The reference search: the engine on raw entry tuples, through the
    oracle, with the compact search's order, target and depth cap.  Each
    state's priority is worked out from scratch, by summing its entries'
    lengths, and a child's delta is the difference of the two."""
    m = a.monoid
    scale = max(a.depth, max_depth) + 1  # deeper than any admitted state

    def priority(entries):
        return sum(len(x.key) for x in entries) * scale + len(entries)

    def successors(entries):
        children, complete = _applied_children(Multifraction._of(m, entries))
        base = priority(entries)
        return [(priority(c) - base, s, c) if len(c) <= max_depth else (0, None, "depth cap")
                for s, c in children], complete

    return _search(a.entries, successors, lambda e: not any(x.key for x in e), state_budget,
                   priority(a.entries))


def _pinned(res):
    return (res.found, res.complete, res.states, res.steps, res.reason,
            [step.json_obj() for step in res.trace])


@EVERY_WORD_UP_TO
def test_compact_split_search_matches_tuple_search(pres, max_len):
    # the kernel test's words at paddings 0-1, under the default depth cap
    # and under depth + 2.  Most of these words are nontrivial, and their
    # searches run to the default state budget of 10**5 (minutes per
    # presentation for the compact search alone), so every case here is
    # also capped at 100 or 20 states
    mon = Monoid(pres)
    reasons = set()
    for w in signed_words_up_to(pres, max_len):
        a = Multifraction.from_signed_word(mon, w)
        for p in (0, 1):
            start = a.pad(p)
            default_depth = 2 * start.depth + 12
            # under depth - 3 every child of the start, trims included, is deeper than the cap
            for state_budget, max_depth in ((100, default_depth), (100, start.depth + 2), (20, default_depth),
                                            (20, start.depth - 3)):
                got = split_reduces_to_trivial(start, state_budget, max_depth)
                want = _tuple_split_search(start, state_budget, max_depth)
                assert _pinned(got) == _pinned(want), (w, p, state_budget, max_depth)
                reasons.add(got.reason)
    assert {None, "state budget", "depth cap"} <= reasons


@EVERY_WORD_UP_TO
def test_split_rows_carry_the_priority_delta(pres, max_len):
    # every child of every start of the differential test above: its word
    # length is the parent's plus the length part of the delta it came with
    mon = Monoid(pres)
    kinds = set()
    for w in signed_words_up_to(pres, max_len):
        a = Multifraction.from_signed_word(mon, w)
        for p in (0, 1):
            start = a.pad(p)
            states = _SplitStates(mon, 2 * start.depth + 12, start.depth)
            parent = states.encode(start.entries)
            length, scale = states.wordlength(parent), states.scale
            for delta, (i, rep), child in states.children(parent)[0]:
                # a trim writes its 4-byte merged entry, a split its 16-byte replacement
                kinds.add(len(rep))
                if len(rep) == 4:  # a trim keeps the word length and drops two entries
                    assert delta == -2 and states.wordlength(child) == length, (w, p, i, rep)
                else:  # a split adds two entries
                    assert (delta - 2) % scale == 0, (w, p, i, rep)
                    assert length + (delta - 2) // scale == states.wordlength(child), (w, p, i, rep)
                assert states.priority(parent) + delta == states.priority(child)
    assert kinds == {4, 16}


def test_compact_split_search_matches_tuple_search_on_lcm_budget_trips(a2t):
    # abc/cba, the start of abcABC: an lcm trips the default budget at once
    a = Multifraction.from_signed_word(a2t, parse_signed(a2t.presentation, "abcABC"))
    got = split_reduces_to_trivial(a, max_depth=4)
    assert got.reason == "lcm budget"
    assert _pinned(got) == _pinned(_tuple_split_search(a, DEFAULT_SPLIT_STATE_BUDGET, 4))
    # deeper, where the state budget outranks the tripped lcm budget
    for max_depth in (8, 2 * a.depth + 12):
        got = split_reduces_to_trivial(a, 1000, max_depth)
        assert _pinned(got) == _pinned(_tuple_split_search(a, 1000, max_depth))


def test_split_children_skip_unsettled_lcms(a2t):
    # abc/cba, the start of abcABC: some lcm there trips the default budget
    a = Multifraction.from_signed_word(a2t, parse_signed(a2t.presentation, "abcABC"))
    children, complete = _split_children(a2t, a.entries)
    assert not complete and children
    assert (children, complete) == _applied_children(a)


def test_split_search_trivial_cases(a2, a2t):
    assert split_reduces_to_trivial(mf(a2, "", "")).found
    for state_budget in (0, -1):
        assert split_reduces_to_trivial(mf(a2, "", ""), state_budget).found
    # a cap the state budget cannot reach binds nowhere, and costs nothing
    start = mf(a2, "ab", "ba")
    assert split_reduces_to_trivial(start, 50, 10**12) == split_reduces_to_trivial(start, 50, 200)
    w = Multifraction.from_signed_word(a2, parse_signed(a2.presentation, "abaBAB"))
    res = split_reduces_to_trivial(w)
    assert res.found
    cur = w
    for s in res.trace:
        cur = apply_split_or_trim(cur, s)
        assert cur is not None
    assert cur.is_trivial()


def test_simulate_reduction_by_splits(a2, a2t):
    rng = random.Random(31)
    for mon in (a2, a2t):
        checked = 0
        while checked < 40:
            w = random_signed_word(rng, mon.presentation, rng.randint(2, 5))
            a = Multifraction.from_signed_word(mon, w).pad(rng.randint(0, 1))
            steps, _ = reduction_step_candidates(a)
            if not steps:
                continue
            step = rng.choice(steps)
            strace = simulate_reduction_by_splits(a, step)
            assert len(strace) == 2
            assert isinstance(strace[0], SplitStep) and isinstance(strace[1], TrimStep)
            cur = a
            for s in strace:
                cur = apply_split_or_trim(cur, s)
            assert cur == apply_reduction(a, step)
            checked += 1


def _random_strace(rng, mon, start, length):
    cur = start
    out = []
    for _ in range(length):
        cands, _ = split_step_candidates(cur)
        if not cands:
            break
        step = rng.choice(cands)
        cur = apply_split_or_trim(cur, step)
        out.append(step)
    return out, cur


def test_simulate_splits_by_padded_reduction(a2, a2t):
    rng = random.Random(37)
    for mon in (a2, a2t):
        for _ in range(15):
            w = random_signed_word(rng, mon.presentation, rng.randint(1, 4))
            a = Multifraction.from_signed_word(mon, w)
            strace, endpoint = _random_strace(rng, mon, a, rng.randint(0, 3))
            p, q, rtrace = simulate_splits_by_padded_reduction(a, strace)
            assert p == sum(isinstance(s, SplitStep) for s in strace)
            assert q == sum(isinstance(s, TrimStep) for s in strace)
            cur = a.pad(p)
            for s in rtrace:
                cur = apply_reduction(cur, s)
                assert cur is not None
            want = Multifraction(mon, endpoint.entries + (mon.identity,) * (2 * q))
            assert cur == want
    assert simulate_splits_by_padded_reduction(mf(a2, "a", "b"), []) == (0, 0, [])


def test_split_found_iff_padded_reduction_found(a2):
    # both searches certify the same identity instances
    rng = random.Random(41)
    for _ in range(8):
        w = random_identity_word(rng, a2.presentation, 6)
        a = Multifraction.from_signed_word(a2, w)
        sres = split_reduces_to_trivial(a)
        assert sres.found
        p, q, rtrace = simulate_splits_by_padded_reduction(a, list(sres.trace))
        cur = a.pad(p)
        for s in rtrace:
            cur = apply_reduction(cur, s)
        assert cur.is_trivial()
        assert any(reduces_to_trivial(a.pad(k)).found for k in range(0, p + 1))
