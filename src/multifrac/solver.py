"""The word-problem decision procedure built on padded reduction search.

Given a signed word w, form its multifraction, prepend 2*f trivial entries
per the chosen padding strategy, and search the reduction graph for the
all-trivial multifraction.  A found trace is always a sound "trivial"
answer: the search has replayed it, re-applying each step by
`apply_reduction` under the lcm budget, before it returns it.
"Nontrivial" is asserted only when the search exhausted the whole
reachable set (no budget truncation anywhere) *and* the presentation and
strategy together are known complete:

  * the caller asserts FC type (reduction is then convergent, and padding
    only adds reductions), or
  * the presentation is of sufficiently large type and the padding is at
    least the quadratic bound 3*l*(l+2)/4 for the instance.

Everything else is "undetermined" -- never coerced to a boolean, since
semi-convergence of reduction is open in general.  `decide` is the only
place the tri-state rule is stated; `equal_in_group_fc` reads its verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dihedral import padding_bound
from .monoid import Monoid
from .multifraction import DEFAULT_LCM_BUDGET, DEFAULT_STATE_BUDGET, Multifraction, reduces_to_trivial
# not called here: kept as solver.apply_reduction, the name perfbench/tracer.py wraps
from .multifraction import apply_reduction  # noqa: F401
from .errors import BudgetExhausted
from .words import SignedWord, invert, parse_signed

__all__ = ["PaddingStrategy", "Verdict", "decide", "equal_in_group_fc", "verdict_json"]


@dataclass(frozen=True)
class PaddingStrategy:
    """How many leading trivial-entry pairs to prepend before searching.

    kind "none" pads nothing; "constant" pads a fixed p; "quadratic" pads
    3*l*(l+2)/4 with l the multifraction word-length rounded up to even
    (the bound is stated for even lengths, and more padding never hurts).
    """

    kind: str
    amount: int = 0

    @staticmethod
    def none() -> "PaddingStrategy":
        return PaddingStrategy("none")

    @staticmethod
    def constant(p: int) -> "PaddingStrategy":
        if p < 0:
            raise ValueError("padding must be nonnegative")
        return PaddingStrategy("constant", amount=p)

    @staticmethod
    def quadratic() -> "PaddingStrategy":
        return PaddingStrategy("quadratic")

    def padding_for(self, a: Multifraction) -> int:
        wl = a.wordlength
        if self.kind == "none":
            return 0
        if self.kind == "constant":
            return self.amount
        if self.kind == "quadratic":
            return padding_bound(wl + wl % 2)
        raise ValueError(f"unknown strategy kind {self.kind!r}")


@dataclass(frozen=True)
class Verdict:
    """Tri-state decision with the certifying trace for "trivial"."""

    answer: str  # "trivial" | "nontrivial" | "undetermined"
    padding: int
    trace: tuple = ()
    states: int = 0
    steps: int = 0
    reason: str | None = None


def decide(
    monoid: Monoid,
    word,
    strategy: PaddingStrategy | None = None,
    assume_fc: bool = False,
    state_budget: int = DEFAULT_STATE_BUDGET,
    lcm_budget: int = DEFAULT_LCM_BUDGET,
) -> Verdict:
    """Decide whether a signed word represents 1 in the enveloping group."""
    if strategy is None:
        strategy = PaddingStrategy.none()
    w: SignedWord = parse_signed(monoid.presentation, word) if isinstance(word, str) else tuple(word)
    a = Multifraction.from_signed_word(monoid, w)
    p = strategy.padding_for(a)
    padded = a.pad(p)
    res = reduces_to_trivial(padded, state_budget=state_budget, lcm_budget=lcm_budget)
    if res.found:
        return Verdict("trivial", p, res.trace, res.states, res.steps)
    wl = a.wordlength
    complete_class = assume_fc or (
        monoid.presentation.is_sufficiently_large() and p >= padding_bound(wl + wl % 2)
    )
    if res.complete and complete_class:
        return Verdict("nontrivial", p, (), res.states, res.steps)
    reason = res.reason
    if res.complete and not complete_class:
        reason = "search exhausted, but completeness is not established for this presentation/strategy"
    return Verdict("undetermined", p, (), res.states, res.steps, reason)


def equal_in_group_fc(monoid: Monoid, w1: SignedWord, w2: SignedWord) -> bool:
    """Group equality oracle, valid when reduction is convergent (FC type).

    Decides cl(w1) = cl(w2) as `decide(w1 * invert(w2), assume_fc=True)`:
    the caller asserts the presentation is of FC type; on other
    presentations a False answer is meaningless.  Raises BudgetExhausted
    when the verdict is undetermined.
    """
    v = decide(monoid, tuple(w1) + invert(tuple(w2)), assume_fc=True)
    if v.answer == "undetermined":
        raise BudgetExhausted(f"equality search undetermined ({v.reason})",
                              states=v.states, steps=v.steps)
    return v.answer == "trivial"


def verdict_json(monoid: Monoid, word_text: str, verdict: Verdict) -> str:
    """Stable JSON rendering: identical inputs give byte-identical output."""
    pres = monoid.presentation
    obj = {
        "version": 1,
        "presentation": {
            "generators": list(pres.generators),
            "labels": [[s, t, m] for s, t, m in pres.labelled_pairs()],
        },
        "input": word_text,
        "padding": verdict.padding,
        "answer": verdict.answer,
        "trace": [step.json_obj() for step in verdict.trace],
        "stats": {"states": verdict.states, "steps": verdict.steps},
    }
    if verdict.reason:
        obj["reason"] = verdict.reason
    return json.dumps(obj, separators=(",", ":"))
