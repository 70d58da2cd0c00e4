import random

import pytest

from multifrac import (
    ArtinPresentation,
    Monoid,
    PresentationError,
    StructuralError,
    apply_word_step,
    equal_in_group_fc,
    search_empty_word,
    special_neighbors,
)
from multifrac.multifraction import DEFAULT_STATE_BUDGET, _search
from multifrac.transforms import _step_table
from multifrac.words import bytes_of_signed, parse_signed, signed_str

from oracles import (
    all_threes,
    braid_pair,
    naive_special_neighbors,
    random_identity_word,
    random_signed_word,
    signed_words_up_to,
)
from reference import DihedralGroup


@pytest.fixture(scope="module")
def a2():
    return Monoid(braid_pair(3))


def words(mon, items):
    return {signed_str(mon.presentation, w) for _, w in items}


def uncapped(mon, w):
    """A cap no single step can exceed: reversing grows a word by at most
    2*m - 4 for the largest finite label m."""
    m = max((m for _, _, m in mon.presentation.labelled_pairs()), default=2)
    return len(w) + 2 * m - 4


def test_neighbor_examples(a2):
    p = a2.presentation
    for text, expected in (("aba", "bab"), ("aA", "")):
        w = parse_signed(p, text)
        assert expected in words(a2, special_neighbors(a2, w, max_len=uncapped(a2, w)))
    assert special_neighbors(a2, (), max_len=uncapped(a2, ())) == []


def test_negative_equivalence(a2):
    p = a2.presentation
    w = parse_signed(p, "ABA")
    nb = words(a2, special_neighbors(a2, w, max_len=uncapped(a2, w)))
    assert "BAB" in nb


def test_commutation_reversing_survives_the_length_cap():
    mon = Monoid(ArtinPresentation("ab", {("a", "b"): 2}))
    w = parse_signed(mon.presentation, "Ab")
    capped = special_neighbors(mon, w, max_len=len(w))
    assert ("bA") in {signed_str(mon.presentation, u) for _, u in capped}


def test_growing_rewrites_only_without_cap(a2):
    p = a2.presentation
    w = parse_signed(p, "Ab")
    assert words(a2, special_neighbors(a2, w, max_len=uncapped(a2, w))) == {"baBA"}
    assert special_neighbors(a2, w, max_len=len(w)) == []


@pytest.mark.parametrize(
    "pres, max_len",
    [
        (braid_pair(3), 6),
        (braid_pair(4), 6),
        (ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2}), 5),
        (all_threes(), 5),
    ],
    ids=["I2(3)", "I2(4)", "A3", "A2~"],
)
def test_neighbors_match_sorted_scan_of_every_position(pres, max_len):
    mon = Monoid(pres)
    for w in signed_words_up_to(pres, max_len):
        for cap in (None, len(w) - 2, len(w), len(w) + 2):
            got = special_neighbors(mon, w, max_len=uncapped(mon, w) if cap is None else cap)
            assert got == naive_special_neighbors(mon, w, cap), (w, cap)


def _tuple_proph_search(mon, word, state_budget):
    """The reference search: the engine on signed tuples, through the
    oracle, under the search's length cap len(word)."""
    cap = len(word)

    def successors(w):
        return [(0, step, child) for step, child in naive_special_neighbors(mon, w, cap)], None

    return _search(tuple(word), successors, lambda w: not w, state_budget)


def _pinned(res, pres):
    return (res.found, res.complete, res.states, res.steps, res.reason,
            [step.json_obj(pres) for step in res.trace])


@pytest.mark.parametrize(
    "pres, max_len",
    [
        (braid_pair(3), 6),
        (braid_pair(4), 6),
        (ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2}), 5),
        (all_threes(), 4),
        (ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 2}), 4),
    ],
    ids=["I2(3)", "I2(4)", "A3", "A2~", "free-pair"],
)
def test_byte_search_matches_tuple_search(pres, max_len):
    # every signed word, at the default state budget and at budgets 5 and 20
    mon = Monoid(pres)
    outcomes = set()
    for w in signed_words_up_to(pres, max_len):
        for state_budget in (DEFAULT_STATE_BUDGET, 5, 20):
            got = search_empty_word(mon, w, state_budget)
            want = _tuple_proph_search(mon, w, state_budget)
            assert _pinned(got, pres) == _pinned(want, pres), (w, state_budget)
            outcomes.add((got.found, got.reason))
    assert {(True, None), (False, None)} <= outcomes


@pytest.mark.parametrize(
    "word, pair, entry",
    [
        # a^-1 b right-reverses to b a b^-1 a^-1; the entry claims it deletes
        ("Ab", "Ab", lambda kind, fac, n, rep, growth: (kind, fac, n, b"", -2)),
        # aba -> bab; the entry claims aba -> 1, which is no relation
        ("aba", "ab", lambda kind, fac, n, rep, growth: (kind, fac, n, b"", -n)),
    ],
    ids=["reversing", "relation"],
)
def test_search_revalidates_its_trace_without_the_byte_table(monkeypatch, word, pair, entry):
    pres = braid_pair(3)
    table = _step_table(pres)
    key = bytes_of_signed(parse_signed(pres, pair))
    monkeypatch.setitem(table, key, entry(*table[key]))
    with pytest.raises(StructuralError):
        search_empty_word(Monoid(pres), parse_signed(pres, word))


@pytest.mark.parametrize("word", [(3,), (1, 3, -1), (0, 1), (1, 2, 1, 5)], ids=str)
def test_letters_that_are_not_generators_are_rejected(a2, word):
    # I2(3) has the generators 1 and 2 only
    with pytest.raises(PresentationError):
        special_neighbors(a2, word, max_len=len(word) + 2)
    with pytest.raises(PresentationError):
        search_empty_word(a2, word)


def test_byte_words_hold_127_generators():
    def pres(n):
        return ArtinPresentation([f"g{i}" for i in range(n)], {("g0", "g1"): 3, ("g125", "g126"): 2})

    mon = Monoid(pres(127))
    assert search_empty_word(mon, (127, 126, -127, -126)).found
    assert not search_empty_word(mon, (127, 1)).found
    assert [s.rule for s, _ in special_neighbors(mon, (1, 2, 1), max_len=3)] == ["pos"]
    # a generator number past 127 has no byte letter
    with pytest.raises(ValueError):
        bytes_of_signed((128,))
    big = Monoid(pres(128))
    with pytest.raises(PresentationError):
        search_empty_word(big, (1, -1))
    with pytest.raises(PresentationError):
        special_neighbors(big, (1, -1), max_len=2)


def test_neighbors_preserve_class_and_cap_respects_length(a2):
    rng = random.Random(43)
    oracle = DihedralGroup(3)
    for _ in range(60):
        w = random_signed_word(rng, a2.presentation, rng.randint(1, 6))
        for step, nxt in special_neighbors(a2, w, max_len=len(w)):
            assert len(nxt) <= len(w)
            assert oracle.value(w) == oracle.value(nxt)
            assert equal_in_group_fc(a2, w, nxt)
            assert apply_word_step(a2, w, step) == nxt


def test_search_examples(a2):
    p = a2.presentation
    assert search_empty_word(a2, parse_signed(p, "aA")).found
    res = search_empty_word(a2, parse_signed(p, "abaBAB"))
    assert res.found
    w = parse_signed(p, "abaBAB")
    for step in res.trace:
        w = apply_word_step(a2, w, step)
    assert w == ()
    blank = search_empty_word(a2, parse_signed(p, "a"))
    assert not blank.found and blank.complete and blank.states == 1


def test_search_agrees_with_identity_oracle(a2):
    rng = random.Random(47)
    oracle = DihedralGroup(3)
    for _ in range(25):
        w = random_identity_word(rng, a2.presentation, 8)
        assert search_empty_word(a2, w).found
    found_nonid = 0
    while found_nonid < 25:
        w = random_signed_word(rng, a2.presentation, rng.randint(1, 6))
        if oracle.is_trivial(w):
            continue
        res = search_empty_word(a2, w)
        assert not res.found
        found_nonid += 1


def test_search_on_three_generators():
    mon = Monoid(all_threes())
    p = mon.presentation
    assert search_empty_word(mon, parse_signed(p, "bcbCBC")).found
    assert not search_empty_word(mon, parse_signed(p, "abc")).found


def test_emptying_search_coheres_with_split_search(a2):
    # the two reachability searches certify the same identity words
    from multifrac import Multifraction, split_reduces_to_trivial

    rng = random.Random(71)
    oracle = DihedralGroup(3)
    for _ in range(12):
        w = random_identity_word(rng, a2.presentation, 8)
        assert search_empty_word(a2, w).found
        assert split_reduces_to_trivial(Multifraction.from_signed_word(a2, w)).found
    checked = 0
    while checked < 12:
        w = random_signed_word(rng, a2.presentation, rng.randint(1, 6))
        if oracle.is_trivial(w):
            continue
        assert not search_empty_word(a2, w).found
        # the split system never terminates on its own, so cap this tightly:
        # "not found within budget" is the only honest negative here
        a = Multifraction.from_signed_word(a2, w)
        sres = split_reduces_to_trivial(a, state_budget=2000, max_depth=a.depth + 4)
        assert not sres.found
        checked += 1
