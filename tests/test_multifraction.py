import random

import pytest

from multifrac import (
    ArtinPresentation,
    BudgetExhausted,
    Monoid,
    Multifraction,
    ReductionStep,
    StructuralError,
    apply_reduction,
    decide,
    equal_in_group_fc,
    reduces_to_trivial,
    reduction_step_candidates,
    search_reduction,
)
from multifrac.multifraction import _ReductionStates, _search
from multifrac.words import parse_signed

from oracles import (
    all_threes,
    braid_pair,
    random_identity_word,
    random_signed_word,
    signed_words_up_to,
)
from reference import DihedralGroup

A3 = ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2})


@pytest.fixture(scope="module")
def a2():
    return Monoid(braid_pair(3))


def mf(mon, *entries):
    return Multifraction(mon, entries)


def test_from_signed_word(a2):
    p = a2.presentation
    x = Multifraction.from_signed_word(a2, parse_signed(p, "abC" if False else "abB"))
    assert str(x) == "ab/b"
    assert str(Multifraction.from_signed_word(a2, ())) == "1"
    w = Multifraction.from_signed_word(a2, parse_signed(p, "Ab"))
    assert str(w) == "1/a/b" and w.depth == 3
    assert w.entry(1).is_identity()
    two = Multifraction.from_signed_word(Monoid(all_threes()), parse_signed(all_threes(), "abC"))
    assert str(two) == "ab/c" and two.depth == 2


def test_to_signed_word_roundtrip(a2):
    rng = random.Random(8)
    for _ in range(30):
        w = random_signed_word(rng, a2.presentation, rng.randint(0, 8))
        x = Multifraction.from_signed_word(a2, w)
        back = Multifraction.from_signed_word(a2, x.to_signed_word())
        assert back.entries == x.entries


def test_equality_and_key_follow_the_interned_entries(a2):
    x, y = mf(a2, "aba", "ab", "aab"), mf(a2, "bab", "ab", "aab")
    assert x == y and hash(x) == hash(y) and x.key() == y.key()
    assert x.key() is x.entries
    assert len({x, y, mf(a2, "aba", "ba", "aab")}) == 2
    # equal presentations, different monoids: no entry is shared
    z = mf(Monoid(braid_pair(3)), "aba", "ab", "aab")
    assert z != x and z.key() != x.key()


def test_entry_rejects_indices_outside_one_to_depth(a2):
    x = mf(a2, "ab", "b", "a")
    assert [str(x.entry(i)) for i in (1, 2, 3)] == ["ab", "b", "a"]
    for i in (0, -1, 4):
        with pytest.raises(IndexError):
            x.entry(i)


def test_pad(a2):
    x = mf(a2, "a", "b")
    assert str(x.pad(1)) == "1/1/a/b"
    assert x.pad(0) == x
    y = mf(a2, "").pad(2)
    assert y.depth == 5 and y.is_trivial()
    with pytest.raises(ValueError):
        x.pad(-1)


def test_wordlength_and_strip(a2):
    x = mf(a2, "aba", "", "b")
    assert x.wordlength == 4 and x.depth == 3
    assert str(mf(a2, "a", "", "").strip_trailing_ones()) == "a"
    assert str(mf(a2, "", "").strip_trailing_ones()) == "1"


def test_apply_reduction_examples(a2):
    e = a2.element
    assert apply_reduction(mf(a2, "", "", "ab"), ReductionStep(2, e("a"))) == mf(a2, "a", "", "b")
    assert apply_reduction(mf(a2, "ab", "b"), ReductionStep(1, e("b"))) == mf(a2, "a", "")
    assert apply_reduction(mf(a2, "", "a", "ba"), ReductionStep(2, e("b"))) == mf(
        a2, "ba", "ab", "a"
    )
    # inapplicable: parameter does not divide the target entry
    assert apply_reduction(mf(a2, "ab", "b"), ReductionStep(1, e("a"))) is None
    # inapplicable: trivial parameter or out-of-range position
    assert apply_reduction(mf(a2, "ab", "b"), ReductionStep(1, a2.identity)) is None
    assert apply_reduction(mf(a2, "ab", "b"), ReductionStep(2, e("b"))) is None
    # inapplicable at i >= 2: b does not left-divide a_3
    assert apply_reduction(mf(a2, "", "a", "a"), ReductionStep(2, e("b"))) is None
    # inapplicable at i >= 2 in the free monoid on a, b: x divides a_{i+1}, but x and a_i have no lcm
    free = Monoid(ArtinPresentation("ab", {}))
    assert apply_reduction(mf(free, "", "a", "b"), ReductionStep(2, free.element("b"))) is None
    assert apply_reduction(mf(free, "", "", "a", "b"), ReductionStep(3, free.element("b"))) is None


def test_apply_reduction_defining_equations(a2):
    # re-verify the defining equations of each case on random applicable steps
    rng = random.Random(13)
    mon = Monoid(all_threes())
    checked = 0
    while checked < 60:
        w = random_signed_word(rng, mon.presentation, rng.randint(2, 5))
        a = Multifraction.from_signed_word(mon, w).pad(rng.randint(0, 1))
        steps, _ = reduction_step_candidates(a)
        if not steps:
            continue
        step = rng.choice(steps)
        b = apply_reduction(a, step)
        assert b is not None and b.depth == a.depth
        i, x = step.i, step.x
        if i == 1:
            assert mon.multiply(b.entry(1), x) == a.entry(1)
            assert mon.multiply(b.entry(2), x) == a.entry(2)
        elif i % 2 == 0:
            lcm = mon.lcm("right", x, a.entry(i))
            assert mon.multiply(x, b.entry(i)) == lcm
            xp = mon.divide("left", a.entry(i), lcm)
            assert b.entry(i - 1) == mon.multiply(a.entry(i - 1), xp)
            assert mon.multiply(x, b.entry(i + 1)) == a.entry(i + 1)
        else:
            lcm = mon.lcm("left", x, a.entry(i))
            assert mon.multiply(b.entry(i), x) == lcm
            xp = mon.divide("right", a.entry(i), lcm)
            assert b.entry(i - 1) == mon.multiply(xp, a.entry(i - 1))
            assert mon.multiply(b.entry(i + 1), x) == a.entry(i + 1)
        for k in range(1, a.depth + 1):
            if abs(k - i) > 1:
                assert b.entry(k) == a.entry(k)
        checked += 1


def test_reduction_candidates(a2):
    e = a2.element
    assert reduction_step_candidates(mf(a2, "", ""))[0] == []
    steps, complete = reduction_step_candidates(mf(a2, "ab", "b"))
    assert complete and [(s.i, str(s.x)) for s in steps] == [(1, "b")]
    steps, _ = reduction_step_candidates(mf(a2, "", "a", "ba"))
    assert [(s.i, str(s.x)) for s in steps] == [(2, "b"), (2, "ba")]


def _applied_children(a, lcm_budget):
    """The oracle: apply_reduction over every i and nontrivial divisor x of
    a_{i+1} on the rule's side, dropping (and flagging) budget trips."""
    m = a.monoid
    children, complete = [], True
    for i in range(1, a.depth):
        side = "left" if i % 2 == 0 else "right"
        for x in m.divisors(side, a.entry(i + 1)):
            if x.is_identity():
                continue
            step = ReductionStep(i, x)
            try:
                b = apply_reduction(a, step, lcm_budget)
            except BudgetExhausted:
                complete = False
                continue
            if b is not None:
                children.append((step, b.entries))
    return children, complete


@pytest.mark.parametrize(
    "pres, max_len",
    [(braid_pair(3), 4), (braid_pair(4), 4), (A3, 3), (all_threes(), 3)],
    ids=["I2(3)", "I2(4)", "A3", "A2~"],
)
def test_reduction_children_match_apply_reduction(pres, max_len):
    mon = Monoid(pres)
    for w in signed_words_up_to(pres, max_len):
        a = Multifraction.from_signed_word(mon, w)
        for p in (0, 1, 2):
            start = a.pad(p)
            want = _applied_children(start, 1000)
            assert _ReductionStates(mon, 1000).expand(start.entries) == want, (w, p)
            steps, complete = reduction_step_candidates(start)
            assert (steps, complete) == ([s for s, _ in want[0]], want[1])


def _tuple_search(a, lcm_budget, state_budget):
    """The reference search: the engine on raw entry tuples, through the
    oracle, with every priority delta 0 (breadth-first)."""
    m = a.monoid

    def successors(entries):
        children, complete = _applied_children(Multifraction._of(m, entries), lcm_budget)
        return [(0, s, c) for s, c in children], None if complete else "lcm budget"

    return _search(a.entries, successors, lambda e: not any(x.key for x in e), state_budget)


def _pinned(res):
    return (res.found, res.complete, res.states, res.steps, res.reason,
            [step.json_obj() for step in res.trace])


@pytest.mark.parametrize(
    "pres, max_len, edge_starts",
    [(braid_pair(3), 4, [("abab",), ("aba", "ab"), ("", "", "", "", "", "", "abab")]),
     (braid_pair(4), 4, [("abab",), ("abab", "ba"), ("", "", "", "", "bab")]),
     (A3, 3, [("abca",), ("ac", "ca"), ("", "", "", "", "cab")]),
     (all_threes(), 3, [("abc",), ("ab", "cb"), ("", "", "", "", "", "", "abca")])],
    ids=["I2(3)", "I2(4)", "A3", "A2~"],
)
def test_compact_search_matches_tuple_search(pres, max_len, edge_starts):
    # the kernel test's words at paddings 0-2, then three edge cases: depth 1;
    # depth 2, where only the i = 1 rule applies; and a padded start whose
    # only nonempty entry is the last one
    mon = Monoid(pres)
    starts = [Multifraction.from_signed_word(mon, w).pad(p)
              for w in signed_words_up_to(pres, max_len) for p in (0, 1, 2)]
    starts += [Multifraction(mon, entries) for entries in edge_starts]
    for start in starts:
        for lcm_budget in (1000, 1):
            for state_budget in (10**6, 5):
                got = search_reduction(start, state_budget=state_budget, lcm_budget=lcm_budget)
                want = _tuple_search(start, lcm_budget, state_budget)
                assert _pinned(got) == _pinned(want), (str(start), lcm_budget, state_budget)


def test_reduction_children_skip_unsettled_lcms():
    def start():
        # a fresh Monoid, so that no lcm was settled under another budget
        return Multifraction(Monoid(all_threes()), ("", "", "ab", "ba"))

    def named(children):
        return [(s.i, str(s.x), tuple(map(str, e))) for s, e in children]

    a = start()
    full, full_complete = _ReductionStates(a.monoid, 1000).expand(a.entries)
    a = start()
    got, complete = _ReductionStates(a.monoid, 1).expand(a.entries)
    want, want_complete = _applied_children(start(), 1)
    assert full_complete and not complete and not want_complete
    assert named(got) == named(want)
    assert 0 < len(got) < len(full)


def test_the_first_window_builds_no_divisor_table_of_a_1(monkeypatch):
    a4 = ArtinPresentation("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3,
                                     ("a", "c"): 2, ("a", "d"): 2, ("b", "d"): 2})
    mon = Monoid(a4)
    cube = mon.element("abacbadcba" * 3)  # Delta^3, with 79 140 left divisors
    tables = []
    table = Monoid._divisor_table

    def spy(self, side, x):
        tables.append(x)
        return table(self, side, x)

    monkeypatch.setattr(Monoid, "_divisor_table", spy)
    verdict = decide(mon, "abacbadcba" * 3 + "A", assume_fc=True, state_budget=10)
    assert verdict.answer == "nontrivial"
    assert tables and cube not in tables


def test_reduces_to_trivial(a2):
    assert reduces_to_trivial(mf(a2, "", "")).found
    w = Multifraction.from_signed_word(a2, parse_signed(a2.presentation, "abaBAB"))
    res = reduces_to_trivial(w)
    assert res.found and res.complete
    cur = w
    for s in res.trace:
        cur = apply_reduction(cur, s)
    assert cur.is_trivial()
    res2 = reduces_to_trivial(mf(a2, "a", ""))
    assert not res2.found and res2.complete


def test_monotone_padding(a2):
    rng = random.Random(17)
    for _ in range(10):
        w = random_identity_word(rng, a2.presentation, 8)
        a = Multifraction.from_signed_word(a2, w)
        assert reduces_to_trivial(a).found
        for p in (1, 2):
            assert reduces_to_trivial(a.pad(p)).found


def test_search_is_finite_at_desk_scale():
    for pres in (braid_pair(3), all_threes()):
        mon = Monoid(pres)
        rng = random.Random(23)
        done = 0
        while done < 8:
            w = random_signed_word(rng, pres, 6)
            a = Multifraction.from_signed_word(mon, w).pad(1)
            if a.depth > 8:
                continue
            res = reduces_to_trivial(a, state_budget=10**6)
            assert res.states < 10**6  # self-terminating, no budget hit
            done += 1


def test_single_step_preserves_group_value(a2):
    rng = random.Random(29)
    oracle = DihedralGroup(3)
    checked = 0
    while checked < 40:
        w = random_signed_word(rng, a2.presentation, rng.randint(2, 6))
        a = Multifraction.from_signed_word(a2, w)
        steps, _ = reduction_step_candidates(a)
        if not steps:
            continue
        b = apply_reduction(a, rng.choice(steps))
        assert equal_in_group_fc(a2, a.to_signed_word(), b.to_signed_word())
        assert oracle.value(a.to_signed_word()) == oracle.value(b.to_signed_word())
        checked += 1


def test_equal_in_group_fc(a2):
    p = a2.presentation
    assert equal_in_group_fc(a2, parse_signed(p, "aba"), parse_signed(p, "bab"))
    w = parse_signed(p, "aBab")
    assert equal_in_group_fc(a2, w, w)
    assert not equal_in_group_fc(a2, parse_signed(p, "a"), parse_signed(p, "b"))


def test_search_reduction_revalidates_its_trace_without_the_kernel(monkeypatch):
    # pair rows whose ids are all zero claim that every step empties a_i and
    # a_{i+1}; 1/1/ab/ba is nontrivial, and apply_reduction repeats no such step
    pair = _ReductionStates._pair
    monkeypatch.setattr(_ReductionStates, "_pair", lambda self, i, ids: bytes(len(pair(self, i, ids))))
    mon = Monoid(braid_pair(3))
    a = Multifraction.from_signed_word(mon, parse_signed(mon.presentation, "abAB")).pad(1)
    with pytest.raises(StructuralError):
        search_reduction(a)
