"""Heavier randomized sweeps over the trickiest conventions: reversing
replacement orientation across labels, long geodesic traces, long split
trace translations, and presentations with more than three generators."""

import random

import pytest

from multifrac import (
    ArtinPresentation,
    Dihedral,
    Monoid,
    Multifraction,
    apply_reduction,
    decide,
    simulate_splits_by_padded_reduction,
)
from multifrac.reversing import reverse_step
from multifrac.split import apply_split_or_trim, split_step_candidates
from multifrac.words import parse_signed, runs

from oracles import braid_pair, random_signed_word
from reference import DihedralGroup


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_reversing_replacements_preserve_the_group_element(m):
    """Every table rewrite (both sides, both letter orders) is checked
    against exact group arithmetic, pinning the v/u orientation convention."""
    pres = braid_pair(m)
    oracle = DihedralGroup(m)
    factors = [(-1, 2), (-2, 1), (1, -2), (2, -1), (-1, 1), (1, -1), (-2, 2), (2, -2)]
    for side in ("right", "left"):
        for fac in factors:
            out = reverse_step(pres, side, fac, 0)
            if out is None:
                continue
            assert oracle.value(fac) == oracle.value(out), (m, side, fac, out)


@pytest.mark.parametrize("m", [3, 4])
def test_long_geodesic_traces(m):
    mon = Monoid(braid_pair(m))
    d = Dihedral(mon, "a", "b")
    oracle = DihedralGroup(m)
    rng = random.Random(127 + m)
    done = 0
    while done < 6:
        w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 9)))
        fr = d.normal_form("right", w)
        if fr.num.is_identity() or fr.den.is_identity():
            continue
        v = d.geodesic_word(w)
        if not 5 <= len(v) <= 6:
            continue
        for side in ("right", "left"):
            fp = d.normal_form(side, w)
            trace = d.to_geodesic_trace(fp, v)
            cur = d.padded_start(fp, v)
            for s in trace:
                cur = apply_reduction(cur, s)
                assert cur is not None
            stripped = cur.strip_trailing_ones()
            expected = [mon.identity] if v[0] < 0 else []
            expected += [mon.element(key) for _, key in runs(v)]
            assert list(stripped.entries) == expected
            assert oracle.value(cur.to_signed_word()) == oracle.value(w)
        done += 1


def test_long_split_trace_translations():
    mon = Monoid(braid_pair(3))
    rng = random.Random(131)
    for _ in range(10):
        w = random_signed_word(rng, mon.presentation, rng.randint(2, 4))
        a = Multifraction.from_signed_word(mon, w)
        cur = a
        strace = []
        for _ in range(6):
            cands, _ = split_step_candidates(cur)
            if not cands:
                break
            s = rng.choice(cands)
            cur = apply_split_or_trim(cur, s)
            strace.append(s)
        p, q, rtrace = simulate_splits_by_padded_reduction(a, strace)
        replay = a.pad(p)
        for s in rtrace:
            replay = apply_reduction(replay, s)
            assert replay is not None
        assert replay == Multifraction(mon, cur.entries + (mon.identity,) * (2 * q))


def test_four_generator_presentation():
    # mixed labels over four generators, with one commuting pair
    pres = ArtinPresentation(
        "abcd",
        {
            ("a", "b"): 3, ("a", "c"): 3, ("b", "c"): 3,
            ("a", "d"): 3, ("b", "d"): 3, ("c", "d"): 2,
        },
    )
    # the (a, c, d) triangle has exactly one label 2
    assert not pres.is_sufficiently_large()
    mon = Monoid(pres)
    assert str(mon.lcm("right", mon.element("c"), mon.element("d"))) == "cd"
    assert mon.element("cd") == mon.element("dc")
    w = parse_signed(pres, "adaDAD")
    assert decide(mon, w).answer == "trivial"
    v = decide(mon, "cdCD")
    assert v.answer == "trivial"
    # without a completeness certificate a failed search stays undetermined
    assert decide(mon, "aD").answer == "undetermined"


def test_commuting_pair_transform_search():
    pres = ArtinPresentation("ab", {("a", "b"): 2})
    mon = Monoid(pres)
    from multifrac import search_empty_word

    # commutation rewrites survive the non-increasing cap, so mixed words empty
    assert search_empty_word(mon, parse_signed(pres, "abAB")).found
    assert search_empty_word(mon, parse_signed(pres, "aBAb")).found
    assert not search_empty_word(mon, parse_signed(pres, "ab")).found
