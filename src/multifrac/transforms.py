"""Special word transformations and the empty-word reachability search.

Four kinds of steps act on signed words without ever inserting a trivial
factor: applying one defining relation inside a positive factor ("positive
equivalence"), the same inside a negative factor, one step of right
reversing, and one step of left reversing.  All four preserve the
represented group element, so emptying a word certifies that it represents
the identity.

`special_neighbors` enumerates single steps on raw signed-word tuples in
one in-order scan of the word's length-2 factors: a factor's first two
letters pick out the one relation factor that can start there or, where
the sign changes, the reversing-table entry that replaces them, so nothing
is tried twice and nothing is sorted.  It checks each step's result length
against a required cap before it builds the step: an equivalence keeps the
length, and a reversing step swaps two letters for its table entry, so it
grows the word by at most 2*m - 4 for the largest finite label m.  The
reachability search always uses the cap len(word), so no word it reaches
is longer than its start, the reachable set is finite and the search is
exhaustive without any budget at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .monoid import Monoid
from .multifraction import DEFAULT_STATE_BUDGET, SearchResult, _search
from .presentation import ArtinPresentation
from .reversing import _tables, reverse_step
from .words import SignedWord, invert, signed_of_positive, signed_str

__all__ = ["WordStep", "special_neighbors", "apply_word_step", "search_empty_word"]


@dataclass(frozen=True)
class WordStep:
    """One special transformation: rule kind, position, replaced factor."""

    rule: str  # "pos" | "neg" | "rrev" | "lrev"
    at: int
    factor_from: SignedWord = ()
    factor_to: SignedWord = ()

    def json_obj(self, pres: ArtinPresentation | None = None) -> dict:
        obj: dict = {"rule": self.rule, "at": self.at}
        if self.rule in ("pos", "neg") and pres is not None:
            obj["from"] = signed_str(pres, self.factor_from)
            obj["to"] = signed_str(pres, self.factor_to)
        return obj


@lru_cache(maxsize=None)
def _relation_factors(pres: ArtinPresentation) -> dict[tuple[int, int], tuple[str, SignedWord, SignedWord]]:
    """(rule, factor, replacement) of each single relation application,
    keyed by the factor's first two letters.

    Those two letters fix the generator pair and which of its two
    alternating words the factor is, and a presentation has one relation
    per pair, so the key is unique.
    """
    out = {}
    for rel in pres.relations():
        lhs = signed_of_positive(pres.encode(rel.lhs))
        rhs = signed_of_positive(pres.encode(rel.rhs))
        for u, v in ((lhs, rhs), (rhs, lhs)):
            out[u[:2]] = ("pos", u, v)
            out[invert(u)[:2]] = ("neg", invert(u), invert(v))
    return out


def special_neighbors(monoid: Monoid, word: SignedWord, max_len: int) -> list[tuple[WordStep, SignedWord]]:
    """All single special steps from `word`: "pos", then "neg", then
    "rrev", then "lrev" steps, each kind by position.

    A positive (negative) factor matching one side of a relation is always
    contained in a maximal positive (negative) run, so plain subword search
    enumerates exactly the one-relation equivalence steps.  Steps whose
    result would be longer than `max_len` are skipped before they are
    built; a cap of len(word) + 2*m - 4, with m the largest finite label,
    skips none.
    """
    pres = monoid.presentation
    word = tuple(word)
    factors = _relation_factors(pres)
    right, left = _tables(pres, "right"), _tables(pres, "left")
    room = max_len - len(word)  # the growth the cap allows
    found = {"pos": [], "neg": [], "rrev": [], "lrev": []}
    for k, pair in enumerate(zip(word, word[1:])):
        hit = factors.get(pair)
        if hit is not None:
            rule, fac, rep = hit
            n = len(fac)
            if room >= 0 and word[k : k + n] == fac:
                found[rule].append((WordStep(rule, k, fac, rep), word[:k] + rep + word[k + n :]))
        elif (pair[0] > 0) != (pair[1] > 0):
            # right reversing rewrites s^-1 t, left reversing s t^-1; a free
            # pair has no table entry and no reversing step
            rule, rep = ("rrev", right.get(pair)) if pair[0] < 0 else ("lrev", left.get(pair))
            if rep is not None and len(rep) - 2 <= room:
                found[rule].append((WordStep(rule, k), word[:k] + rep + word[k + 2 :]))
    return found["pos"] + found["neg"] + found["rrev"] + found["lrev"]


def apply_word_step(monoid: Monoid, word: SignedWord, step: WordStep) -> SignedWord:
    """Re-apply a recorded step; raises ValueError if it does not fit."""
    word = tuple(word)
    if step.rule in ("pos", "neg"):
        n = len(step.factor_from)
        if word[step.at : step.at + n] != step.factor_from:
            raise ValueError(f"factor mismatch for {step} in {word}")
        hit = _relation_factors(monoid.presentation).get(step.factor_from[:2])
        if hit is None or hit[1:] != (step.factor_from, step.factor_to):
            raise ValueError(f"{step} is not a single relation application")
        return word[: step.at] + step.factor_to + word[step.at + n :]
    if step.rule in ("rrev", "lrev"):
        side = "right" if step.rule == "rrev" else "left"
        res = reverse_step(monoid.presentation, side, word, step.at)
        if res is None:
            raise ValueError(f"reversing step {step} does not apply to {word}")
        return res
    raise ValueError(f"unknown rule {step.rule!r}")


def search_empty_word(
    monoid: Monoid,
    word: SignedWord,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SearchResult:
    """Breadth-first search for the empty word under special steps.

    found=True certifies that `word` represents 1 (the trace revalidates
    step by step).  No step may make the word longer than `word`, which
    keeps the search space finite; an exhausted search then means "not
    emptiable without growing the word", which does *not* by itself decide
    the word problem.
    """
    word = tuple(word)
    max_len = len(word)
    # special steps never skip work, so every enumeration is complete
    return _search(word, lambda w: (special_neighbors(monoid, w, max_len=max_len), True),
                   lambda w: not w, state_budget)
