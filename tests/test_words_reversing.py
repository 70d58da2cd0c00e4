import random

import pytest

from multifrac import ArtinPresentation, BudgetExhausted, Monoid, StructuralError, equal_in_group_fc, reversing
from multifrac.reversing import reverse_full, reverse_step
from multifrac.words import free_reduce, invert, parse_signed, runs, signed_str

from oracles import MultipleSets, all_threes, braid_pair, random_signed_word


def sw(pres, text):
    return parse_signed(pres, text)


def test_invert():
    p = all_threes()
    assert signed_str(p, invert(sw(p, "aB"))) == "bA"
    assert invert(()) == ()
    assert signed_str(p, invert(sw(p, "abc"))) == "CBA"
    w = sw(p, "aBcA")
    assert invert(invert(w)) == w


def test_free_reduce_and_runs():
    p = all_threes()
    assert free_reduce(sw(p, "aAbB")) == ()
    assert signed_str(p, free_reduce(sw(p, "abBA"))) == ""
    assert signed_str(p, free_reduce(sw(p, "abBc"))) == "ac"
    assert runs(sw(p, "abC")) == [(1, b"\x00\x01"), (-1, b"\x02")]
    assert runs(sw(p, "Ab"))[0][0] == -1


def test_reverse_step_cases():
    a2 = braid_pair(3)
    w = sw(a2, "Ab")
    assert signed_str(a2, reverse_step(a2, "right", w, 0)) == "baBA"
    assert reverse_step(a2, "right", sw(a2, "Aa"), 0) == ()
    assert reverse_step(a2, "right", sw(a2, "ab"), 0) is None  # wrong sign pattern
    free = Monoid(__import__("multifrac").ArtinPresentation("ab", {})).presentation
    assert reverse_step(free, "right", sw(free, "Ab"), 0) is None  # blocked
    # left reversing deletes s s^-1 and rewrites s t^-1
    assert reverse_step(a2, "left", sw(a2, "aA"), 0) == ()
    assert signed_str(a2, reverse_step(a2, "left", sw(a2, "aB"), 0)) == "BAba"
    with pytest.raises(IndexError):
        reverse_step(a2, "right", w, 5)


def test_reverse_full_examples():
    a2 = braid_pair(3)
    assert signed_str(a2, reverse_full(a2, "right", sw(a2, "Ab")).word) == "baBA"
    assert reverse_full(a2, "right", sw(a2, "Aa")).word == ()
    assert reverse_full(a2, "left", sw(a2, "aA")).word == ()
    # B2 rewrite: a^-1 b -> bab (aba)^-1
    b2 = braid_pair(4)
    assert signed_str(b2, reverse_full(b2, "right", sw(b2, "Ab")).word) == "babABA"


def test_reverse_full_terminates_on_spherical_inputs():
    # every signed word of length <= 10 settles quickly on m = 3 and m = 4
    rng = random.Random(5)
    for m in (3, 4):
        pres = braid_pair(m)
        for _ in range(300):
            w = random_signed_word(rng, pres, rng.randint(0, 10))
            for side in ("right", "left"):
                res = reverse_full(pres, side, w, budget=10_000)
                assert res.steps < 2_000


def test_reverse_budget_exhaustion_is_detected():
    # (ab) and c have no common multiple over the all-threes presentation,
    # and with no free pair the reversing cannot block: it must run forever
    p = all_threes()
    with pytest.raises(BudgetExhausted) as trip:
        reverse_full(p, "right", sw(p, "BAc"), budget=500)
    # the budget alone bounds the word: each of the 500 steps adds at most
    # 2m - 4 = 2 letters to the 3 it starts with
    assert trip.value.stats["steps"] == 500
    assert trip.value.stats["word_length"] <= 3 + 2 * 500


def test_reverse_full_is_the_leftmost_step_loop():
    # terminal, step count and every budget trip's stats match a loop that
    # applies reverse_step at the leftmost position where it applies
    def leftmost(pres, side, w, budget):
        steps = 0
        while True:
            pos = next((k for k in range(len(w) - 1) if reverse_step(pres, side, w, k) is not None), None)
            if pos is None:
                return w, steps
            if steps >= budget:
                return {"steps": steps, "word_length": len(w)}
            w, steps = reverse_step(pres, side, w, pos), steps + 1

    rng = random.Random(12)
    free = ArtinPresentation("abc", {("a", "b"): 3})
    for pres in (braid_pair(3), braid_pair(4), all_threes(), free):
        for _ in range(150):
            w = random_signed_word(rng, pres, rng.randint(0, 9))
            budget = rng.choice((3, 40, 200))
            for side in ("right", "left"):
                try:
                    res = reverse_full(pres, side, w, budget)
                    got = (res.word, res.steps)
                except BudgetExhausted as trip:
                    got = trip.stats
                assert got == leftmost(pres, side, w, budget)


def test_reversing_preserves_group_element():
    # each step keeps the class; checked with the convergent-type oracle
    rng = random.Random(9)
    pres = braid_pair(3)
    mon = Monoid(pres)
    for _ in range(40):
        w = random_signed_word(rng, pres, rng.randint(2, 7))
        for side in ("right", "left"):
            res = reverse_full(pres, side, w, budget=4_000)
            assert equal_in_group_fc(mon, w, res.word)


def _clear_table_caches():
    reversing.relation_heads.cache_clear()
    reversing._tables.cache_clear()


def test_reversing_tables_are_checked_against_the_relations(monkeypatch):
    pres = all_threes()
    # the heads builder gets s t s ... where t s t ... belongs: no pair of
    # heads, and so no table entry, follows its relation
    monkeypatch.setattr(reversing, "alternating_word", lambda s, t, n: tuple((t, s)[k % 2] for k in range(n)))
    _clear_table_caches()
    try:
        for side in ("right", "left"):
            with pytest.raises(StructuralError):
                reverse_full(pres, side, sw(pres, "Ab" if side == "right" else "aB"))
        with pytest.raises(StructuralError):
            Monoid(pres)
    finally:
        monkeypatch.undo()
        _clear_table_caches()


def test_lcm_via_reversing_matches_brute_force_small():
    # a quick low-volume version of the full acceptance sweep
    mon = Monoid(all_threes())
    ms = MultipleSets(mon)
    elems = [mon.element(w) for w in ("a", "b", "c", "ab", "ba", "abc")]
    for x in elems:
        for y in elems:
            try:
                c_x = mon.lcm_data("right", x, y, budget=400)[0]
            except BudgetExhausted:
                assert ms.brute_lcm("right", x, y, 10) is None
                continue
            rev = mon.multiply(x, c_x)
            assert rev == ms.brute_lcm("right", x, y, max(10, len(rev.key)))
