"""Special word transformations and the empty-word reachability search.

Four kinds of steps act on signed words without ever inserting a trivial
factor: applying one defining relation inside a positive factor ("positive
equivalence"), the same inside a negative factor, one step of right
reversing, and one step of left reversing.  All four preserve the
represented group element, so emptying a word certifies that it represents
the identity.

The search runs on byte words (`words.bytes_of_signed`, one byte per
signed letter).  One table per presentation (`_step_table`), keyed by a
word's first two letters, gives the one step that can start there: the
relation factor that begins with those letters or, where the sign
changes, the reversing-table entry that replaces them, with its
replacement and its growth.  So one in-order scan of a word's length-2
factors (the kernel `_WordStates`) finds every step, tries nothing twice
and sorts nothing, and it checks each step's growth against a length cap
before it builds the child: an equivalence keeps the length, and a
reversing step swaps two letters for its table entry, so it grows the
word by at most 2*m - 4 for the largest finite label m.  The kernel
follows `multifraction._Kernel`, on signed words as its views: it
records a step as (kind, at), and `WordStep`s are built only for the
returned trace, whose replay re-applies each step to the signed word by
`apply_word_step`, which reads no byte table.  `special_neighbors` is the
kernel's single-state expansion.  Both check the word's letters once, as
the kernel encodes it.  The reachability search always uses the cap
len(word), so no word it reaches is longer than its start, the reachable
set is finite and the search is exhaustive without any budget at desk
scale.
"""

from __future__ import annotations

from functools import lru_cache
from operator import not_

from .errors import PresentationError, Record, _set
from .monoid import Monoid
from .multifraction import DEFAULT_STATE_BUDGET, SearchResult, _Kernel
from .presentation import ArtinPresentation
from .reversing import _tables, reverse_step
from .words import (
    MAX_BYTE_LETTER,
    SignedWord,
    bytes_of_signed,
    check_signed,
    invert,
    signed_of_bytes,
    signed_of_positive,
    signed_str,
)

__all__ = ["WordStep", "special_neighbors", "apply_word_step", "search_empty_word"]

# the step kinds, in the order a word's children list them
RULES = ("pos", "neg", "rrev", "lrev")


class WordStep(Record):
    """One special transformation: rule kind, position, replaced factor."""

    __slots__ = ("rule", "at", "factor_from", "factor_to")

    def __init__(self, rule: str, at: int, factor_from: SignedWord = (), factor_to: SignedWord = ()):
        _set(self, "rule", rule)  # "pos" | "neg" | "rrev" | "lrev"
        _set(self, "at", at)
        _set(self, "factor_from", factor_from)
        _set(self, "factor_to", factor_to)

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


@lru_cache(maxsize=None)
def _step_table(pres: ArtinPresentation) -> dict[bytes, tuple[int, bytes, int, bytes, int]]:
    """(kind, factor, factor length, replacement, growth) of the one special
    step that can start at each pair of byte letters; kind indexes RULES.

    A relation factor's first two letters have one sign, and a reversing
    factor's two letters have opposite signs, so the relation factors
    (`_relation_factors`) and the two reversing tables (`reversing._tables`)
    never share a key.  A sign change missing from the table is a free
    pair, which has no step.
    """
    if len(pres.generators) > MAX_BYTE_LETTER:
        raise PresentationError(
            f"special transformations run on byte words, which hold at most "
            f"{MAX_BYTE_LETTER} generators; this presentation has {len(pres.generators)}"
        )
    table = {}
    for pair, (rule, fac, rep) in _relation_factors(pres).items():
        table[bytes_of_signed(pair)] = (RULES.index(rule), bytes_of_signed(fac), len(fac),
                                        bytes_of_signed(rep), 0)
    for kind, side in ((2, "right"), (3, "left")):
        for pair, rep in _tables(pres, side).items():
            key = bytes_of_signed(pair)
            table[key] = (kind, key, 2, bytes_of_signed(rep), len(rep) - 2)
    return table


class _WordStates(_Kernel):
    """The special steps on byte words, whose views are signed words, under
    the length cap `max_len`.

    `children` maps a byte word to every (0, (kind, at), child word):
    "pos", then "neg", then "rrev", then "lrev" steps, each kind by
    position, and True, since special steps never skip work.  A positive
    (negative) factor matching one side of a relation is always contained
    in a maximal positive (negative) run, so plain subword search
    enumerates exactly the one-relation equivalence steps; a two-letter
    factor is matched by its key alone.  `apply` is `apply_word_step`,
    which reads no byte table.
    """

    __slots__ = ("monoid", "max_len", "_get")

    def __init__(self, monoid: Monoid, max_len: int):
        self.monoid = monoid
        self.max_len = max_len
        self._get = _step_table(monoid.presentation).get

    def encode(self, word) -> bytes:
        """PresentationError when a letter is not a generator or its inverse."""
        return bytes_of_signed(check_signed(self.monoid.presentation, word))

    def view(self, state: bytes) -> SignedWord:
        return signed_of_bytes(state)

    def children(self, word: bytes) -> tuple[list, bool]:
        get, room = self._get, self.max_len - len(word)  # the growth the cap allows
        found: tuple[list, list, list, list] = ([], [], [], [])
        for k in range(len(word) - 1):
            hit = get(word[k : k + 2])
            if hit is not None:
                kind, fac, n, rep, growth = hit
                if growth <= room and (n == 2 or word.startswith(fac, k)):
                    found[kind].append((0, (kind, k), word[:k] + rep + word[k + n :]))
        pos, neg, rrev, lrev = found
        return pos + neg + rrev + lrev, True

    def step(self, word: bytes, kind: int, at: int) -> tuple[WordStep, bytes]:
        """The WordStep of the kernel's (kind, at) on `word`, and its child."""
        _, fac, n, rep, _ = self._get(word[at : at + 2])
        child = word[:at] + rep + word[at + n :]
        if kind > 1:
            return WordStep(RULES[kind], at), child
        return WordStep(RULES[kind], at, signed_of_bytes(fac), signed_of_bytes(rep)), child

    def apply(self, word: SignedWord, step: WordStep) -> SignedWord:
        return apply_word_step(self.monoid, word, step)


def special_neighbors(monoid: Monoid, word: SignedWord, max_len: int) -> list[tuple[WordStep, SignedWord]]:
    """All single special steps from `word`: "pos", then "neg", then
    "rrev", then "lrev" steps, each kind by position.

    These are the search's children (`_WordStates`) on signed tuples.
    Steps whose result would be longer than `max_len` are skipped before
    they are built; a cap of len(word) + 2*m - 4, with m the largest finite
    label, skips none.  PresentationError when a letter is not a generator
    or its inverse.
    """
    return _WordStates(monoid, max_len).expand(word)[0]


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

    found=True certifies that `word` represents 1: the trace is replayed on
    signed tuples by `apply_word_step` before it is returned, and a step
    that does not give the kernel's child raises StructuralError.  No step may
    make the word longer than `word`, which keeps the search space finite;
    an exhausted search then means "not emptiable without growing the
    word", which does *not* by itself decide the word problem.  The search
    runs on byte words, so it raises PresentationError on a presentation
    with more than 127 generators.  So does a letter that is not a
    generator or its inverse.
    """
    word = tuple(word)
    states = _WordStates(monoid, len(word))
    return states.search(states.encode(word), not_, state_budget)
