"""Subword reversing on signed words.

Right reversing rewrites a factor s^-1 s to the empty word and a factor
s^-1 t (s != t, m(s,t) finite) to v u^-1, where s v = t u is the defining
relation; both sides of that relation represent the right-lcm of s and t,
which is why iterated right reversing of u^-1 v computes lcms.  Left
reversing is the mirror: it deletes s s^-1 and rewrites s t^-1 to v^-1 u
with v s = u t a relation.

Termination is not guaranteed for arbitrary Artin-Tits presentations (a
pair without a common multiple over a diagram with no infinite label makes
right reversing run forever), so the full-reversing loop carries a step
budget and raises BudgetExhausted when it trips.  A step replaces two
letters by at most 2(m-1), so B steps bound the word at its length plus
(2m-4)B letters, m the largest finite label.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetExhausted, Record, StructuralError, _set
from .presentation import ArtinPresentation, alternating_word
from .words import SignedWord, runs

__all__ = [
    "reverse_step",
    "reverse_full",
    "split_terminal",
    "ReversalResult",
    "DEFAULT_STEP_BUDGET",
]

DEFAULT_STEP_BUDGET = 10_000


@lru_cache(maxsize=None)
def relation_heads(pres: ArtinPresentation) -> tuple[tuple[bytes | None, ...], ...]:
    """heads[s][t] = (t s t ...) of length m(s,t)-1, for generator indices s
    and t: b"" when s = t, None for a free pair.

    s.heads[s][t] = t.heads[t][s] is then the relation of s and t, both
    sides of it representing s v t.  Every pair is checked against
    `pres.relations()` when the heads are built, so the reversing tables and
    the Monoid kernels, which all derive from these heads, prove equalities
    on their own.
    """
    n = len(pres.generators)
    heads = [[b"" if s == t else None for t in range(n)] for s in range(n)]
    for s, t, m in pres.labelled_pairs():
        i, j = pres.index(s), pres.index(t)
        heads[i][j] = pres.encode(alternating_word(t, s, m - 1))
        heads[j][i] = pres.encode(alternating_word(s, t, m - 1))
    relations = set()
    for rel in pres.relations():
        lhs, rhs = pres.encode(rel.lhs), pres.encode(rel.rhs)
        relations |= {(lhs, rhs), (rhs, lhs)}
    for s, row in enumerate(heads):
        for t, v in enumerate(row):
            if s != t and v is not None and (bytes([s]) + v, bytes([t]) + heads[t][s]) not in relations:
                s, t = pres.generators[s], pres.generators[t]
                raise StructuralError(f"the relation heads of {s} and {t} are not their defining relation")
    return tuple(map(tuple, heads))


@lru_cache(maxsize=None)
def _tables(pres: ArtinPresentation, side: str) -> dict[tuple[int, int], tuple[int, ...]]:
    """Factor -> replacement map for one reversing side, from `relation_heads`.

    Keys are length-2 signed factors; the value () means deletion.  Factors
    absent from the map are either of the wrong sign pattern or blocked
    (free pair).  Right: s^-1 t -> v u^-1 with s v = t u, so v = heads[s][t]
    and u = heads[t][s]; left: s t^-1 -> v^-1 u with v s = u t, the mirror,
    so v and u are those heads reversed.  On the diagonal both are empty: a
    deletion.
    """
    heads = relation_heads(pres)
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    for s, row in enumerate(heads):
        for t, v in enumerate(row):
            if v is not None:
                u = heads[t][s]
                if side == "right":
                    table[(-s - 1, t + 1)] = tuple(c + 1 for c in v) + tuple(-c - 1 for c in reversed(u))
                else:
                    table[(s + 1, -t - 1)] = tuple(-c - 1 for c in v) + tuple(c + 1 for c in reversed(u))
    return table


def reverse_step(
    pres: ArtinPresentation, side: str, word: SignedWord, position: int
) -> SignedWord | None:
    """Apply one reversing step to the length-2 factor at `position`.

    Returns None when the factor has the wrong sign pattern or is blocked
    (free pair); inapplicability is not an error.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if not 0 <= position <= len(word) - 2:
        raise IndexError(f"no length-2 factor at position {position}")
    rep = _tables(pres, side).get(word[position : position + 2])
    if rep is None:
        return None
    return word[:position] + rep + word[position + 2 :]


class ReversalResult(Record):
    """Terminal word of a completed reversing run and its step count."""

    __slots__ = ("word", "steps")

    def __init__(self, word: SignedWord, steps: int):
        _set(self, "word", word)
        _set(self, "steps", steps)


def reverse_full(
    pres: ArtinPresentation,
    side: str,
    word: SignedWord,
    budget: int = DEFAULT_STEP_BUDGET,
) -> ReversalResult:
    """Reverse at the leftmost applicable position until none applies.

    Deterministic (fixed strategy, so traces are reproducible).  Raises
    BudgetExhausted when a step would pass `budget`; that outcome is
    undetermined, distinct from "blocked".
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    table = _tables(pres, side)
    # done + reversed(todo) is the current word, and no factor inside `done`
    # applies, so the first factor (done[-1], c) that applies is the leftmost
    done: list[int] = []
    todo = list(reversed(word))
    steps = 0
    while todo:
        c = todo.pop()
        rep = table.get((done[-1], c)) if done else None
        if rep is None:
            done.append(c)
            continue
        if steps >= budget:
            raise BudgetExhausted(
                f"{side} reversing did not settle within {budget} steps",
                steps=steps,
                word_length=len(done) + 1 + len(todo),
            )
        done.pop()
        todo += rep[::-1]
        steps += 1
    return ReversalResult(tuple(done), steps)


def split_terminal(side: str, word: SignedWord) -> tuple[bytes, bytes] | None:
    """Split a reversing terminal into positive words (num, den).

    A right terminal must read num * den^-1, a left one num^-1 * den; either
    half may be empty.  Any other shape returns None: reversing blocked on a
    free pair, so there is no common multiple.
    """
    num_sign = 1 if side == "right" else -1
    blocks = runs(word)
    if len(blocks) > 2 or (len(blocks) == 2 and blocks[0][0] != num_sign):
        return None
    by_sign = dict(blocks)  # maximal runs: at most one per sign
    return by_sign.get(num_sign, b""), by_sign.get(-num_sign, b"")
