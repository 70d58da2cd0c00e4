import random
from itertools import product

import pytest

from multifrac import (
    Dihedral,
    Monoid,
    Multifraction,
    PresentationError,
    ReductionStep,
    StructuralError,
    apply_reduction,
    padding_bound,
)
from multifrac.words import parse_signed, signed_str

from oracles import WordClasses, braid_pair, signed_words_up_to
from reference import DihedralGroup


@pytest.fixture(scope="module")
def d3():
    return Dihedral(Monoid(braid_pair(3)), "a", "b")


@pytest.fixture(scope="module")
def d4():
    return Dihedral(Monoid(braid_pair(4)), "a", "b")


def test_padding_bound():
    assert padding_bound(2) == 6
    assert padding_bound(0) == 0
    assert padding_bound(4) == 18
    with pytest.raises(ValueError):
        padding_bound(3)
    with pytest.raises(ValueError):
        padding_bound(-2)


def test_garside_element(d3):
    assert str(d3.garside()) == "aba"
    two = Dihedral(Monoid(__import__("multifrac").ArtinPresentation("ab", {("a", "b"): 2})), "a", "b")
    assert str(two.garside()) == "ab"
    with pytest.raises(PresentationError):
        Dihedral(Monoid(__import__("multifrac").ArtinPresentation("ab", {})), "a", "b")


def test_normal_form_examples(d3):
    mon = d3.monoid
    fp = d3.normal_form("right", "aB")
    assert (fp.num, fp.den) == (mon.element("a"), mon.element("b"))
    fp = d3.normal_form("left", "aB")
    assert (fp.num, fp.den) == (mon.element("ab"), mon.element("ba"))
    fp = d3.normal_form("right", "Ab")
    assert (fp.num, fp.den) == (mon.element("ba"), mon.element("ab"))
    # positive and trivial elements
    fp = d3.normal_form("right", "aab")
    assert fp.den.is_identity() and fp.num == mon.element("aab")
    assert d3.normal_form("right", "abaBAB").num.is_identity()


def test_first_last_letters(d3):
    fp = d3.normal_form("left", "aB")  # (ab, ba)
    assert d3.first_letter(fp, "num") == "a"
    assert d3.last_letter(fp, "num") == "b"
    assert d3.first_letter(fp, "den") == "b"
    fpr = d3.normal_form("right", "aB")  # (a, b)
    assert d3.first_letter(fpr, "num") == "a"
    # letter-change: f(a) != l(c) and f(b) != l(d)
    assert d3.first_letter(fpr, "num") != d3.last_letter(fp, "num")
    assert d3.first_letter(fpr, "den") != d3.last_letter(fp, "den")
    with pytest.raises(StructuralError):
        d3.first_letter(d3.normal_form("right", "ab"), "num")  # denominator trivial


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_unique_word_iff_no_alternating_factor_of_length_m(m):
    mon = Monoid(braid_pair(m))
    d = Dihedral(mon, "a", "b")
    classes = WordClasses(mon)
    for length in range(9):
        for t in product(range(2), repeat=length):
            x = mon.element(bytes(t))
            assert d._has_unique_word(x) == (len(classes.of(x)) == 1)


def _elements_by_oracle(pres, oracle, max_len):
    """Group signed words of bounded length by their oracle value."""
    buckets = {}
    for w in signed_words_up_to(pres, max_len):
        buckets.setdefault(oracle.value(w), []).append(w)
    return buckets


@pytest.mark.parametrize("m", [3, 4])
def test_normal_form_is_constant_on_classes_and_unique(m):
    """Right/left forms depend only on the group element, and the brute-force
    search over bounded fraction expressions finds exactly one reduced pair."""
    mon = Monoid(braid_pair(m))
    d = Dihedral(mon, "a", "b")
    oracle = DihedralGroup(m)
    buckets = _elements_by_oracle(mon.presentation, oracle, 3)
    # monoid elements of bounded length, for the brute-force side
    els = [mon.element(bytes(t)) for L in range(5) for t in __import__("itertools").product(range(2), repeat=L)]
    els = sorted(set(els))
    for val, ws in buckets.items():
        forms = {d.normal_form("right", w) for w in ws}
        assert len(forms) == 1, f"right form not class-invariant on {ws}"
        fp = forms.pop()
        found = [
            (x, y)
            for x in els
            for y in els
            if mon.gcd("right", x, y).is_identity()
            and oracle.value(
                tuple(c + 1 for c in x.key) + tuple(-(c + 1) for c in reversed(y.key))
            ) == val
        ]
        assert found == [(fp.num, fp.den)]


def test_geodesic_examples(d3):
    p = d3.monoid.presentation
    assert signed_str(p, d3.geodesic_word("aB")) == "aB"
    assert d3.geodesic_word("abaBAB") == ()
    assert signed_str(p, d3.geodesic_word("babA")) == "ab"
    assert d3.geodesic_length("aBA") == 3


@pytest.mark.parametrize("m", [3, 4])
def test_geodesic_minimality_brute_force(m):
    mon = Monoid(braid_pair(m))
    d = Dihedral(mon, "a", "b")
    oracle = DihedralGroup(m)
    buckets = _elements_by_oracle(mon.presentation, oracle, 4)
    lengths = {val: min(len(w) for w in ws) for val, ws in buckets.items()}
    for val, ws in buckets.items():
        w = max(ws, key=len)
        geo = d.geodesic_word(w)
        assert oracle.value(geo) == val
        assert len(geo) == lengths[val]


def test_geodesic_first_letter_control(d3):
    """Every geodesic with a positive first letter starts with f(a); every
    negative-starting one starts with l(c)^-1 (exhaustive at length <= 4)."""
    mon = d3.monoid
    oracle = DihedralGroup(3)
    buckets = _elements_by_oracle(mon.presentation, oracle, 4)
    lengths = {val: min(len(w) for w in ws) for val, ws in buckets.items()}
    for val, ws in buckets.items():
        sample = ws[0]
        fr = d3.normal_form("right", sample)
        fl = d3.normal_form("left", sample)
        if fr.num.is_identity() or fr.den.is_identity():
            continue
        f_a = d3.first_letter(fr, "num")
        l_c = d3.last_letter(fl, "num")
        for w in ws:
            if len(w) != lengths[val] or not w:
                continue
            first = w[0]
            name = mon.presentation.generators[abs(first) - 1]
            if first > 0:
                assert name == f_a, (w, name, f_a)
            else:
                assert name == l_c, (w, name, l_c)


def test_swap_forms_single_step(d3):
    mon = d3.monoid
    fpr = d3.normal_form("right", "aB")
    fpl = d3.normal_form("left", "aB")
    # (1/c/dt) --R(2,d)--> (a/b/t) with t = 1
    start = Multifraction(mon, ("", fpl.num, fpl.den))
    assert apply_reduction(start, ReductionStep(2, fpl.den)) == Multifraction(
        mon, (fpr.num, fpr.den, "")
    )
    # the mirror swap at an odd position: (s/a/tb) --R(3,b)--> (cs/d/t)
    start = Multifraction(mon, ("", "", fpr.num, fpr.den))
    assert apply_reduction(start, ReductionStep(3, fpr.den)) == Multifraction(
        mon, ("", fpl.num, fpl.den, "")
    )


@pytest.mark.parametrize("m", [3, 4])
def test_swap_forms_random_pairs(m):
    """The one-step form swaps hold verbatim with arbitrary context entries:
    (s/c/d*t) * R(i,d) = (s*a/b/t) at even i, and
    (s/a/t*b) * R(i,b) = (c*s/d/t) at odd i."""
    mon = Monoid(braid_pair(m))
    d = Dihedral(mon, "a", "b")
    rng = random.Random(73)
    done = 0
    while done < 25:
        w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 5)))
        fr = d.normal_form("right", w)
        fl = d.normal_form("left", w)
        if fr.num.is_identity() or fr.den.is_identity():
            continue
        s = mon.element("".join(rng.choice("ab") for _ in range(rng.randint(0, 2))))
        t = mon.element("".join(rng.choice("ab") for _ in range(rng.randint(0, 2))))
        # even position for the left-form denominator c: entries (s, c, d*t)
        even_start = Multifraction(mon, (s, fl.num, mon.multiply(fl.den, t)))
        got = apply_reduction(even_start, ReductionStep(2, fl.den))
        assert got == Multifraction(mon, (mon.multiply(s, fr.num), fr.den, t))
        # odd position for the right-form numerator a: entries (1, s, a, t*b)
        odd_start = Multifraction(mon, ("", s, fr.num, mon.multiply(t, fr.den)))
        got = apply_reduction(odd_start, ReductionStep(3, fr.den))
        assert got == Multifraction(mon, ("", mon.multiply(fl.num, s), fl.den, t))
        done += 1


@pytest.mark.parametrize("m", [3, 4])
def test_to_geodesic_trace(m):
    mon = Monoid(braid_pair(m))
    d = Dihedral(mon, "a", "b")
    rng = random.Random(53)
    oracle = DihedralGroup(m)
    done = 0
    while done < 12:
        w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 6)))
        fr = d.normal_form("right", w)
        if fr.num.is_identity() or fr.den.is_identity():
            continue
        v = d.geodesic_word(w)
        if not 2 <= len(v) <= 4:
            continue
        for side in ("right", "left"):
            fp = d.normal_form(side, w)
            trace = d.to_geodesic_trace(fp, v)
            cur = d.padded_start(fp, v)
            for s in trace:
                cur = apply_reduction(cur, s)
                assert cur is not None
            assert oracle.value(cur.to_signed_word()) == oracle.value(v)
        done += 1


def test_to_geodesic_trace_rejects_bad_input(d3):
    fp = d3.normal_form("right", "ab")  # positive element
    with pytest.raises(ValueError):
        d3.to_geodesic_trace(fp, d3.geodesic_word("ab"))
    good = d3.normal_form("right", "aB")
    with pytest.raises(ValueError):
        d3.to_geodesic_trace(good, parse_signed(d3.monoid.presentation, "bA"))


def test_words_must_stay_in_the_pair():
    mon = Monoid(__import__("multifrac").ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 3}))
    d = Dihedral(mon, "a", "b")
    with pytest.raises(PresentationError):
        d.normal_form("right", "abC")
