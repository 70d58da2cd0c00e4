"""Soundness sweep: no verdict of `decide` contradicts an independent group
reference (perfbench/reference.py, which imports nothing from multifrac).

Every freely reduced signed word up to a fixed length is decided and
checked against `reference.WordReference`, which settles every word over
I2(m) and A3 and certifies nontriviality over the all-threes A2~ by
exponent sums and the Coxeter image.  `trivial` must never meet a word the
reference calls nontrivial, and `nontrivial` must never be given unless the
reference calls the word nontrivial.
"""

from collections import Counter

import pytest

from multifrac import ArtinPresentation, Monoid, PaddingStrategy, decide

from oracles import all_threes, braid_pair, signed_words_up_to
from reference import NONTRIVIAL, TRIVIAL, WordReference, free_reduce

A3 = ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2})


def _sweep(pres, max_len, **options):
    """Counter of (verdict, reference answer) over freely reduced words."""
    mon = Monoid(pres)
    ref = WordReference(pres.generators, pres.labelled_pairs())
    seen = Counter()
    for w in signed_words_up_to(pres, max_len):
        if free_reduce(w) != w:
            continue
        answer = decide(mon, w, **options).answer
        truth = ref.is_trivial(w)
        assert not (answer == "trivial" and truth is NONTRIVIAL), w
        assert answer != "nontrivial" or truth is NONTRIVIAL, w
        seen[answer, truth] += 1
    return seen


@pytest.mark.parametrize(
    "pres, max_len",
    [(braid_pair(3), 6), (braid_pair(4), 6), (A3, 5)],
    ids=["I2(3)", "I2(4)", "A3"],
)
def test_fc_verdicts_agree_with_reference(pres, max_len):
    seen = _sweep(pres, max_len, assume_fc=True, state_budget=2000)
    assert seen["trivial", TRIVIAL] and seen["nontrivial", NONTRIVIAL]


@pytest.mark.parametrize(
    "strategy, max_len",
    [(PaddingStrategy.none(), 4), (PaddingStrategy.quadratic(), 2)],
    ids=["none", "quadratic"],
)
def test_all_threes_verdicts_agree_with_reference(strategy, max_len):
    seen = _sweep(all_threes(), max_len, strategy=strategy, state_budget=20000)
    if strategy.kind == "quadratic":
        assert seen["nontrivial", NONTRIVIAL]


def test_budget_trips_are_never_read_as_nontrivial():
    """A tiny state budget leaves searches for trivial words incomplete;
    those must end undetermined, not nontrivial."""
    for pres, max_len in ((braid_pair(3), 6), (A3, 4)):
        seen = _sweep(pres, max_len, assume_fc=True, state_budget=3)
        assert seen["undetermined", TRIVIAL], pres
