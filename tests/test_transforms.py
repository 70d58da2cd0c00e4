import random

import pytest

from multifrac import (
    ArtinPresentation,
    Monoid,
    apply_word_step,
    equal_in_group_fc,
    search_empty_word,
    special_neighbors,
)
from multifrac.words import parse_signed, signed_str

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


def test_neighbor_examples(a2):
    p = a2.presentation
    assert "bab" in words(a2, special_neighbors(a2, parse_signed(p, "aba")))
    assert "" in words(a2, special_neighbors(a2, parse_signed(p, "aA")))
    assert special_neighbors(a2, ()) == []


def test_negative_equivalence(a2):
    p = a2.presentation
    nb = words(a2, special_neighbors(a2, parse_signed(p, "ABA")))
    assert "BAB" in nb


def test_commutation_reversing_survives_the_length_cap():
    mon = Monoid(ArtinPresentation("ab", {("a", "b"): 2}))
    w = parse_signed(mon.presentation, "Ab")
    capped = special_neighbors(mon, w, max_len=len(w))
    assert ("bA") in {signed_str(mon.presentation, u) for _, u in capped}


def test_growing_rewrites_only_without_cap(a2):
    p = a2.presentation
    w = parse_signed(p, "Ab")
    assert words(a2, special_neighbors(a2, w)) == {"baBA"}
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
            assert special_neighbors(mon, w, max_len=cap) == naive_special_neighbors(mon, w, cap), (w, cap)


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
