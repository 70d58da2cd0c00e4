"""Golden results of the three searches that share one engine.

Every SearchResult field (found, complete, states, steps, reason and the
trace's JSON records) is pinned per case, so a change to the engine's
order, dedupe, edge count, budgets or reason precedence shows up here.
The table covers, for each search, a start that is already the target, a
found trace, an exhausted search and each cap: the state budget, the lcm
budget (which outranks the depth cap) and the depth cap, plus a
reduction trace found after an lcm budget had tripped and a split trace
found after a depth cap had tripped (found, but not complete).
"""

import pytest

from multifrac import (
    ArtinPresentation,
    Monoid,
    Multifraction,
    WordStep,
    search_empty_word,
    search_reduction,
    split_reduces_to_trivial,
)
from multifrac.words import parse_signed

from oracles import all_threes, braid_pair

PRESENTATIONS = {
    "I2(3)": braid_pair(3),
    "A3": ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2}),
    "A~2": all_threes(),
}

# (search, presentation, word, options) -> (found, complete, states, steps, reason, trace)
GOLDEN = [
    ("reduction", "I2(3)", "", {},
     (True, True, 1, 0, None, ())),
    ("reduction", "I2(3)", "abaBAB", {},
     (True, True, 6, 5, None, (
         {"i": 1, "rule": "R", "x": "aba"},
     ))),
    ("reduction", "A3", "acAC", {"pad": 1},
     (True, True, 7, 6, None, (
         {"i": 3, "rule": "R", "x": "ac"},
     ))),
    ("reduction", "I2(3)", "abAB", {"pad": 1},
     (False, True, 10, 22, None, ())),
    ("reduction", "I2(3)", "aaBB", {"pad": 2, "state_budget": 50},
     (False, False, 50, 85, "state budget", ())),
    ("reduction", "A~2", "abcABC", {"pad": 1},
     (False, False, 12, 24, "lcm budget", ())),
    ("split", "I2(3)", "", {},
     (True, True, 1, 0, None, ())),
    ("split", "I2(3)", "abaBAB", {},
     (True, True, 36, 35, None, (
         {"i": 1, "rule": "S", "x": "aba", "y": "aba"},
     ))),
    ("split", "I2(3)", "AbBBba", {"max_depth": 7},
     (True, False, 28, 42, None, (
         {"i": 3, "rule": "S", "x": "b", "y": "b"},
         {"i": 2, "rule": "T"},
         {"i": 4, "rule": "S", "x": "b", "y": "b"},
         {"i": 2, "rule": "T"},
         {"i": 2, "rule": "T"},
         {"i": 2, "rule": "S", "x": "a", "y": "a"},
     ))),
    ("split", "I2(3)", "ab", {},
     (False, True, 1, 0, None, ())),
    ("split", "I2(3)", "abAB", {"state_budget": 20},
     (False, False, 20, 32, "state budget", ())),
    ("split", "I2(3)", "abAB", {"max_depth": 4},
     (False, False, 9, 12, "depth cap", ())),
    ("split", "I2(3)", "aB", {"max_depth": 2},
     (False, False, 1, 0, "depth cap", ())),
    ("split", "A~2", "abcABC", {"max_depth": 4},
     (False, False, 8, 13, "lcm budget", ())),
    ("proph", "A3", "", {},
     (True, True, 1, 0, None, ())),
    ("proph", "I2(3)", "abaBAB", {},
     (True, True, 9, 13, None, (
         {"at": 0, "from": "aba", "rule": "pos", "to": "bab"},
         {"at": 2, "rule": "lrev"},
         {"at": 1, "rule": "lrev"},
         {"at": 0, "rule": "lrev"},
     ))),
    ("proph", "A3", "acAC", {},
     (True, True, 9, 16, None, (
         {"at": 0, "from": "ac", "rule": "pos", "to": "ca"},
         {"at": 1, "rule": "lrev"},
         {"at": 0, "rule": "lrev"},
     ))),
    ("proph", "A3", "cAcAac", {},
     (False, True, 24, 76, None, ())),
    ("proph", "A3", "cAcAac", {"state_budget": 20},
     (False, False, 20, 49, "state budget", ())),
    # appended last, so that the ids of the rows above keep their indices
    ("reduction", "I2(3)", "abaBAB", {"pad": 1, "lcm_budget": 1},
     (True, False, 30, 44, None, (
         {"i": 2, "rule": "R", "x": "ab"},
         {"i": 3, "rule": "R", "x": "aba"},
         {"i": 1, "rule": "R", "x": "ab"},
     ))),
]


@pytest.fixture()
def monoids():
    # fresh per case, so that each row is pinned on its own; the shared-Monoid
    # test below checks that the rows do not depend on one another
    return {name: Monoid(pres) for name, pres in PRESENTATIONS.items()}


def _run(mon, search, word, options):
    w = parse_signed(mon.presentation, word)
    options = dict(options)
    if search == "reduction":
        a = Multifraction.from_signed_word(mon, w).pad(options.pop("pad", 0))
        res = search_reduction(a, **options)
    elif search == "split":
        res = split_reduces_to_trivial(Multifraction.from_signed_word(mon, w), **options)
    else:
        res = search_empty_word(mon, w, **options)
    trace = tuple(
        st.json_obj(mon.presentation) if isinstance(st, WordStep) else st.json_obj()
        for st in res.trace
    )
    return (res.found, res.complete, res.states, res.steps, res.reason, trace)


@pytest.mark.parametrize("search, pres, word, options, expected", GOLDEN)
def test_search_result_is_pinned(monoids, search, pres, word, options, expected):
    assert _run(monoids[pres], search, word, options) == expected


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_search_results_do_not_depend_on_earlier_searches(monoids, order):
    # every row on one Monoid per presentation: an lcm answer depends only on
    # its arguments, never on what the same Monoid settled before
    for search, pres, word, options, expected in GOLDEN[::order]:
        assert _run(monoids[pres], search, word, options) == expected, (search, pres, word, options)
