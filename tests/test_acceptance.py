"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its wall-clock budget (visible with `pytest -v -s`)."""

import random
import time
from contextlib import contextmanager

import pytest

from multifrac import (
    BudgetExhausted,
    Dihedral,
    Monoid,
    Multifraction,
    SplitStep,
    apply_reduction,
    apply_split,
    decide,
    equal_in_group_fc,
    padding_bound,
    reduces_to_trivial,
    reduction_step_candidates,
    search_empty_word,
    search_reduction,
    simulate_reduction_by_splits,
    simulate_splits_by_padded_reduction,
    special_neighbors,
    split_reduces_to_trivial,
)
from multifrac.split import apply_split_or_trim, split_step_candidates
from multifrac.words import free_reduce, invert, parse_signed, runs

from oracles import (
    BoundedLcmOracle,
    WordClasses,
    all_threes,
    braid_pair,
    random_identity_word,
    random_signed_word,
    reversal_closed,
    signed_words_up_to,
)
from reference import DihedralGroup


@contextmanager
def criterion(number: int, limit_s: float, label: str):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {number} PASS ({dt:.1f}s < {limit_s:.0f}s): {label}")
    assert dt < limit_s, f"criterion {number} exceeded its {limit_s}s budget ({dt:.1f}s)"


def _elements_upto(mon, wl):
    out = [mon.identity.key]
    frontier = {mon.identity.key}
    for _ in range(wl):
        nxt = set()
        for w in frontier:
            for a in mon.atoms():
                nxt.add(mon.canonical(w + a.key))
        out += sorted(nxt)
        frontier = nxt
    return [mon.element(k) for k in out]


def test_criterion_01_split_example():
    """Six listed split steps from ab/c reproduce the depth-14 multifraction."""
    with criterion(1, 1.0, "worked split-reduction example"):
        mon = Monoid(all_threes())
        e = mon.element
        cur = Multifraction(mon, ("ab", "c"))
        steps = [(1, "c", "b"), (1, "c", "a"), (3, "b", "a"),
                 (3, "b", "c"), (5, "a", "c"), (5, "a", "b")]
        states = []
        for i, x, y in steps:
            cur = apply_split(cur, SplitStep(i, e(x), e(y)))
            assert cur is not None
            states.append(cur)
        assert states[1] == Multifraction(mon, ("", "ac", "ca", "b", "cb", ""))
        assert states[5] == Multifraction(
            mon,
            ("", "ac", "", "cb", "", "ba", "ab", "c", "ac", "", "ba", "", "cb", ""),
        )


def test_criterion_02_reversing_lcm_vs_brute_force():
    """Reversing-computed lcms agree with exhaustive enumeration, both sides,
    for every pair of elements of word-length <= 4 over labels 3, 4 and the
    three-generator all-threes presentation.

    Absence agreement is at the oracle's enumeration bound (12/16/10); the
    only lcms above the all-threes bound have word-length 12, for which the
    empty intersection up to 10 plus an explicit empty layer at 11 pins
    minimality exactly.
    """
    with criterion(2, 60.0, "lcm agreement with brute-force enumeration"):
        setups = [
            (braid_pair(3), 12),
            (braid_pair(4), 16),
            (all_threes(), 10),
        ]
        for pres, bound in setups:
            assert reversal_closed(pres)  # left-lcms map to reversed right-lcms
            mon = Monoid(pres)
            sweep = _elements_upto(mon, 4)
            oracle = BoundedLcmOracle(mon, sweep, bound)
            rev = {e.key: mon.element(e.key[::-1]) for e in sweep}
            layer11: dict[bytes, set] = {}

            def multiples_at(x, wl):
                hit = layer11.get(x.key)
                if hit is None:
                    frontier = {x.key}
                    for _ in range(wl - len(x.key)):
                        frontier = {
                            mon.canonical(w + a.key) for w in frontier for a in mon.atoms()
                        }
                    hit = layer11[x.key] = frontier
                return hit

            for x in sweep:
                for y in sweep:
                    for side in ("right", "left"):
                        if side == "right":
                            ox, oy = x, y
                        else:
                            ox, oy = rev[x.key], rev[y.key]
                        try:
                            data = mon.lcm_data(side, x, y, budget=500)
                        except BudgetExhausted:
                            assert oracle.min_common_multiple(ox, oy) is None
                            continue
                        assert data is not None  # no free pairs here: never blocked
                        c_x = data[0]
                        z = mon.multiply(x, c_x) if side == "right" else mon.multiply(c_x, x)
                        zo = z if side == "right" else mon.element(z.key[::-1])
                        if len(z.key) <= bound:
                            assert oracle.min_common_multiple(ox, oy) == zo
                        else:
                            # lcm divides every common multiple: nothing <= bound,
                            # and the single uncovered layer below it is empty too
                            assert oracle.min_common_multiple(ox, oy) is None
                            assert len(z.key) == 12 and bound == 10
                            assert ox.divides(zo) and oy.divides(zo)
                            common11 = multiples_at(ox, 11) & multiples_at(oy, 11)
                            assert not common11


def test_criterion_03_translation_lemmas():
    """200 reduction steps simulate as split+trim pairs; 100 random split-system
    traces translate to validating padded reduction traces."""
    with criterion(3, 120.0, "reduction/split translation round-trips"):
        rng = random.Random(101)
        for pres in (braid_pair(3), all_threes()):
            mon = Monoid(pres)
            done = 0
            while done < 100:
                w = random_signed_word(rng, pres, rng.randint(2, 5))
                a = Multifraction.from_signed_word(mon, w).pad(rng.randint(0, 1))
                steps, _ = reduction_step_candidates(a)
                if not steps:
                    continue
                step = rng.choice(steps)
                strace = simulate_reduction_by_splits(a, step)
                cur = a
                for s in strace:
                    cur = apply_split_or_trim(cur, s)
                assert cur == apply_reduction(a, step)
                done += 1
            done = 0
            while done < 50:
                w = random_signed_word(rng, pres, rng.randint(1, 4))
                a = Multifraction.from_signed_word(mon, w)
                strace = []
                cur = a
                for _ in range(rng.randint(1, 3)):
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
                done += 1


def test_criterion_04_split_vs_padded_reduction():
    """Over the label-3 pair, split-trivializing and padded trivializing agree
    on 50 relator-product multifractions (padding searched up to 4)."""
    with criterion(4, 120.0, "split search vs padded reduction search"):
        mon = Monoid(braid_pair(3))
        rng = random.Random(103)
        for _ in range(50):
            w = random_identity_word(rng, mon.presentation, 6)
            a = Multifraction.from_signed_word(mon, w)
            sres = split_reduces_to_trivial(a)
            rfound = any(reduces_to_trivial(a.pad(p)).found for p in range(5))
            assert sres.found == rfound == True  # noqa: E712  (identity instances)


def test_criterion_05_fc_decision():
    """With convergent reduction (label 3 pair): 100 identity words decide
    trivial with no padding; 100 non-identity words (distinct values certified
    by the group oracle and decided by exhaustive search) decide nontrivial."""
    with criterion(5, 300.0, "decision procedure on a convergent presentation"):
        mon = Monoid(braid_pair(3))
        oracle = DihedralGroup(3)
        rng = random.Random(107)
        produced = []
        seen = set()
        while len(produced) < 100:
            w = random_identity_word(rng, mon.presentation, 10, factors=2)
            # prefer fresh words, but the pool at this length is finite
            if w in seen and len(seen) < 60:
                continue
            seen.add(w)
            produced.append(w)
            v = decide(mon, w)
            assert v.answer == "trivial" and v.padding == 0
            replay = Multifraction.from_signed_word(mon, w)
            for s in v.trace:
                replay = apply_reduction(replay, s)
            assert replay.is_trivial()
        values = set()
        checked = 0
        while checked < 100:
            w = free_reduce(random_signed_word(rng, mon.presentation, rng.randint(1, 8)))
            val = oracle.value(w)
            if val == oracle.identity or val in values:
                continue
            values.add(val)
            v = decide(mon, w, assume_fc=True)
            assert v.answer == "nontrivial"
            checked += 1


def _element_buckets(pres, oracle, max_len):
    buckets = {}
    for w in signed_words_up_to(pres, max_len):
        buckets.setdefault(oracle.value(w), []).append(w)
    return buckets


def test_criterion_06_fraction_lemma_suite():
    """Uniqueness of reduced fractions, unique entry words, end-letter
    constraints and geodesic first-letter control, exhaustively over all
    two-generator group elements reached by signed words of length <= 4."""
    with criterion(6, 120.0, "two-generator fraction lemmas, exhaustive"):
        for m in (3, 4):
            pres = braid_pair(m)
            mon = Monoid(pres)
            classes = WordClasses(mon)
            d = Dihedral(mon, "a", "b")
            oracle = DihedralGroup(m)
            delta = d.garside()
            buckets = _element_buckets(pres, oracle, 4)
            forms = {}
            for val, ws in buckets.items():
                rights = {d.normal_form("right", w) for w in ws}
                lefts = {d.normal_form("left", w) for w in ws}
                assert len(rights) == 1 and len(lefts) == 1  # class functions
                forms[val] = (rights.pop(), lefts.pop())
            bound = max(
                len(e.key) for fr, fl in forms.values() for e in (fr.num, fr.den, fl.num, fl.den)
            ) + 1
            els = _elements_upto(mon, bound)
            by_wl: dict[int, list] = {}
            for e in els:
                by_wl.setdefault(len(e.key), []).append(e)
            val_pos = {e.key: oracle.value(tuple(c + 1 for c in e.key)) for e in els}
            val_inv = {k: oracle.inverse(v) for k, v in val_pos.items()}
            exponent = {val: sum(1 if c > 0 else -1 for c in ws[0]) for val, ws in buckets.items()}
            for val, (fr, fl) in forms.items():
                # exactly one gcd-reduced fraction on each side, by brute
                # force (letter counts pin wl(x) - wl(y) to the exponent sum)
                ex = exponent[val]
                right_matches = [
                    (x, y)
                    for wx, xs in by_wl.items()
                    if wx - ex in by_wl
                    for x in xs
                    for y in by_wl[wx - ex]
                    if oracle.mul(val_pos[x.key], val_inv[y.key]) == val
                    and mon.gcd("right", x, y).is_identity()
                ]
                assert right_matches == [(fr.num, fr.den)]
                left_matches = [
                    (x, y)
                    for wx, xs in by_wl.items()
                    if wx + ex in by_wl
                    for x in xs
                    for y in by_wl[wx + ex]
                    if oracle.mul(val_inv[x.key], val_pos[y.key]) == val
                    and mon.gcd("left", x, y).is_identity()
                ]
                assert left_matches == [(fl.num, fl.den)]
                both = not fr.num.is_identity() and not fr.den.is_identity()
                if both:
                    # unique words, no Garside divisor
                    for entry in (fr.num, fr.den, fl.num, fl.den):
                        assert len(classes.of(entry)) == 1
                        assert mon.divide("left", delta, entry) is None
                    # end letters of the two forms disagree
                    assert d.first_letter(fr, "num") != d.last_letter(fl, "num")
                    assert d.first_letter(fr, "den") != d.last_letter(fl, "den")
                    # geodesic first-letter control, over every brute-forced geodesic
                    geo_len = min(len(w) for w in buckets[val])
                    f_a = d.first_letter(fr, "num")
                    l_c = d.last_letter(fl, "num")
                    for w in buckets[val]:
                        if len(w) != geo_len:
                            continue
                        name = pres.generators[abs(w[0]) - 1]
                        assert name == (f_a if w[0] > 0 else l_c)


def test_criterion_07_geodesic_traces():
    """30 elements (neither positive nor negative, geodesic length <= 4, labels
    3 and 4): both padded fraction starts reduce, step-validated, to a
    multifraction sharply representing the geodesic."""
    with criterion(7, 120.0, "constructive traces to geodesics"):
        rng = random.Random(109)
        done_total = 0
        for m in (3, 4):
            mon = Monoid(braid_pair(m))
            d = Dihedral(mon, "a", "b")
            oracle = DihedralGroup(m)
            done = 0
            while done < 15:
                w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 6)))
                fr = d.normal_form("right", w)
                if fr.num.is_identity() or fr.den.is_identity():
                    continue
                v = d.geodesic_word(w)
                if not 2 <= len(v) <= 4:
                    continue
                expected = [mon.identity] if v[0] < 0 else []
                expected += [mon.element(key) for _, key in runs(v)]
                for side in ("right", "left"):
                    fp = d.normal_form(side, w)
                    trace = d.to_geodesic_trace(fp, v)
                    cur = d.padded_start(fp, v)
                    for s in trace:
                        cur = apply_reduction(cur, s)
                        assert cur is not None, "trace must revalidate step by step"
                    stripped = cur.strip_trailing_ones()
                    assert list(stripped.entries) == expected  # sharp: blocks of v
                    assert oracle.value(cur.to_signed_word()) == oracle.value(w)
                done += 1
                done_total += 1
        assert done_total == 30


def test_criterion_08_padding_bound_formula():
    with criterion(8, 5.0, "quadratic padding bound values"):
        assert padding_bound(2) == 6
        assert padding_bound(4) == 18
        assert padding_bound(0) == 0
        with pytest.raises(ValueError):
            padding_bound(3)


def test_criterion_09_length_reduction_spot_check():
    """Ten non-geodesic all-threes words of length 4 with geodesic length 2:
    from 1^(6*4)/a, a budgeted search reaches word-length 2.  Instances whose
    search hits the state budget are reported skipped; at least 5 must finish.

    Certification of "geodesic length exactly 2": every letter of each word
    is positive except one inverse balancing to exponent sum 2, so no word of
    length < 2 can represent the same element; a length-2 representative is
    exhibited and certified by a found reduction to the trivial multifraction.
    """
    with criterion(9, 600.0, "padded searches recover shorter representatives"):
        mon = Monoid(all_threes())
        pres = mon.presentation
        instances = [
            ("abaB", "ba"), ("babA", "ab"), ("bcbC", "cb"), ("cbcB", "bc"),
            ("cacA", "ac"), ("acaC", "ca"), ("Abab", "ba"), ("Bcbc", "cb"),
            ("Caca", "ac"), ("Baba", "ab"),
        ]
        finished = 0
        skipped = []
        for text, short in instances:
            w = parse_signed(pres, text)
            v = parse_signed(pres, short)
            assert len(w) == 4 and len(v) == 2
            assert sum(1 if c > 0 else -1 for c in w) == 2  # rules out length < 2
            assert free_reduce(w) == w  # non-geodesic but not by free reduction alone
            cert = Multifraction.from_signed_word(mon, w + invert(v))
            assert any(reduces_to_trivial(cert.pad(p)).found for p in range(4))
            a = Multifraction.from_signed_word(mon, w).pad(12)  # 24 trivial entries
            assert a.depth == 24 + Multifraction.from_signed_word(mon, w).depth
            res = search_reduction(a, target_wordlength=2, state_budget=10**6)
            if not res.complete and not res.found:
                skipped.append(text)
                continue
            assert res.found, f"search from padded {text} found no shorter form"
            finished += 1
        if skipped:
            print(f"criterion 9 skipped instances: {skipped}")
        assert finished >= 5


def test_criterion_10_special_transformation_engine():
    """Every special step offered on 500 random words preserves the group
    element (checked with the convergent-type decision oracle) and never
    increases length; the emptying search succeeds on 50 identity words and
    exhausts on 50 non-identity words."""
    with criterion(10, 300.0, "special word transformations"):
        mon = Monoid(braid_pair(3))
        pres = mon.presentation
        oracle = DihedralGroup(3)
        rng = random.Random(113)
        for _ in range(500):
            w = random_signed_word(rng, pres, rng.randint(1, 6))
            for step, nxt in special_neighbors(mon, w, max_len=len(w)):
                assert len(nxt) <= len(w)
                assert equal_in_group_fc(mon, free_reduce(w + invert(nxt)), ())
        # identity words: the exhaustive pool of freely reduced ones at
        # length <= 8, topped up with generator output if ever short
        pool = [
            w
            for w in signed_words_up_to(pres, 8)
            if free_reduce(w) == w and oracle.is_trivial(w)
        ]
        while len(pool) < 50:
            pool.append(random_identity_word(rng, pres, 8))
        for w in pool[:50]:
            assert search_empty_word(mon, w).found
        checked = 0
        while checked < 50:
            w = free_reduce(random_signed_word(rng, pres, rng.randint(1, 7)))
            if oracle.is_trivial(w):
                continue
            res = search_empty_word(mon, w)
            assert not res.found and res.complete
            checked += 1
