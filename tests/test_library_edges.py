"""Edge coverage: multi-token generators, pairs inside larger
presentations, and word syntax round-trips."""

import random

import pytest

from multifrac import (
    ArtinPresentation,
    Dihedral,
    Monoid,
    Multifraction,
    PresentationError,
    decide,
    equal_in_group_fc,
    search_empty_word,
)
from multifrac.words import bytes_of_signed, parse_signed, signed_of_bytes, signed_str

from oracles import all_threes, braid_pair, random_signed_word


def test_multi_token_generators():
    # library contexts allow arbitrary generator tokens; words are then
    # iterables of tokens rather than strings
    pres = ArtinPresentation(("g1", "g2"), {("g1", "g2"): 3})
    mon = Monoid(pres)
    x = mon.element(["g1", "g2", "g1"])
    assert x == mon.element(["g2", "g1", "g2"])
    assert str(x) == "g1.g2.g1"
    assert mon.lcm("right", mon.element(["g1"]), mon.element(["g2"])) == x
    # the compact string word syntax is a single-letter-only convenience
    with pytest.raises(PresentationError):
        parse_signed(pres, "g1")


def test_dihedral_pair_inside_larger_presentation():
    # parabolic submonoids are closed under divisors and lcms, so fraction
    # computations for a pair agree with the standalone two-generator monoid
    big = Dihedral(Monoid(all_threes()), "a", "b")
    small = Dihedral(Monoid(braid_pair(3)), "a", "b")
    rng = random.Random(79)
    assert str(big.garside()) == str(small.garside()) == "aba"
    for _ in range(25):
        w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 5)))
        for side in ("right", "left"):
            fb = big.normal_form(side, w)
            fs = small.normal_form(side, w)
            assert (str(fb.num), str(fb.den)) == (str(fs.num), str(fs.den))
        assert signed_str(big.monoid.presentation, big.geodesic_word(w)) == signed_str(
            small.monoid.presentation, small.geodesic_word(w)
        )


def test_signed_word_roundtrip():
    pres = all_threes()
    rng = random.Random(83)
    for _ in range(50):
        w = random_signed_word(rng, pres, rng.randint(0, 10))
        assert parse_signed(pres, signed_str(pres, w)) == w
        assert signed_of_bytes(bytes_of_signed(w)) == w


def test_decide_accepts_parsed_words():
    mon = Monoid(braid_pair(3))
    w = parse_signed(mon.presentation, "abaBAB")
    assert decide(mon, w).answer == "trivial"


@pytest.mark.parametrize("word", [(3,), (0,), (1, -3), (2, 0, 1)])
@pytest.mark.parametrize("entry", [
    decide,
    lambda mon, word: equal_in_group_fc(mon, word, (1,)),
    search_empty_word,
], ids=["decide", "equal_in_group_fc", "search_empty_word"])
def test_signed_letters_must_be_generators(entry, word):
    # on a 2-generator presentation, 0 and +-3 name no generator: every entry
    # point that takes a signed word rejects them before it searches
    with pytest.raises(PresentationError):
        entry(Monoid(braid_pair(3)), word)


def test_empty_generator_presentation():
    pres = ArtinPresentation((), {})
    mon = Monoid(pres)
    assert mon.identity.is_identity()
    a = Multifraction.from_signed_word(mon, ())
    assert a.depth == 1 and a.is_trivial()


@pytest.mark.parametrize("m", [2, 5, 6])
def test_larger_labels(m):
    """Labels beyond 3 and 4 run through the same generic machinery."""
    from oracles import random_identity_word
    from multifrac import equal_in_group_fc
    from reference import DihedralGroup, alternating

    pres = braid_pair(m)
    mon = Monoid(pres)
    oracle = DihedralGroup(m)
    delta = mon.lcm("right", mon.element("a"), mon.element("b"))
    assert str(delta) == "".join(alternating("a", "b", m))
    assert mon.lcm("left", mon.element("a"), mon.element("b")) == delta
    rng = random.Random(89 + m)
    for _ in range(20):
        w1 = random_signed_word(rng, pres, rng.randint(0, 5))
        w2 = random_signed_word(rng, pres, rng.randint(0, 5))
        assert equal_in_group_fc(mon, w1, w2) == (oracle.value(w1) == oracle.value(w2))
    d = Dihedral(mon, "a", "b")
    for _ in range(10):
        w = random_signed_word(rng, pres, rng.randint(1, 5))
        g = d.geodesic_word(w)
        assert oracle.value(w) == oracle.value(g)
        assert len(g) <= len(w)
    for _ in range(5):
        w = random_identity_word(rng, pres, 2 * m + 2)
        assert decide(mon, w).answer == "trivial"
