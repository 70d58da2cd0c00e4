"""Golden results of the three searches that share one engine.

Every SearchResult field (found, complete, states, steps, reason and the
trace's JSON records) is pinned per case, so a change to the engine's
order, dedupe, edge count, budgets or reason precedence shows up here.
The table covers, for each search, a start that is already the target, a
found trace, an exhausted search and each cap: the state budget, the lcm
budget (which outranks the depth cap) and the depth cap, plus a
reduction trace found after an lcm budget had tripped and a split trace
found after a depth cap had tripped (found, but not complete).

The engine's frontier, one FIFO per priority, is checked against a
frontier of (priority, tick, state) heap entries (`oracles.heap_search`)
on random successor graphs, and a counting stand-in for its `heapq`
checks that a breadth-first search makes no heap operation.  A successor
function returns (children, why), as a kernel's `children` does: each
random state draws one reason beside its list of real children, None,
"lcm budget" or "depth cap".
"""

import heapq
import random

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
from multifrac import multifraction
from multifrac.words import parse_signed

from oracles import all_threes, braid_pair, heap_search

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


class CountingHeapq:
    """A stand-in for the engine's `heapq` that counts each call."""

    def __init__(self):
        self.calls = dict.fromkeys(("heappush", "heappop", "heapreplace"), 0)

    def __getattr__(self, name):
        def counted(*args):
            self.calls[name] += 1
            return getattr(heapq, name)(*args)
        return counted


def test_breadth_first_searches_make_no_heap_operation(monoids, monkeypatch):
    counter = CountingHeapq()
    monkeypatch.setattr(multifraction, "heapq", counter)
    for search, pres, word, options, expected in GOLDEN:
        if search != "split":  # reduction and proph: every delta is 0
            assert _run(monoids[pres], search, word, options) == expected, (search, word, options)
    assert counter.calls == {"heappush": 0, "heappop": 0, "heapreplace": 0}
    # a split search with trims (delta -2) still uses the heap, and keeps its golden row
    [(_, _, word, options, expected)] = [r for r in GOLDEN if r[:3] == ("split", "I2(3)", "AbBBba")]
    assert _run(monoids["I2(3)"], "split", word, options) == expected
    assert counter.calls["heappush"] > 0


def _random_graph(rng):
    """A successor function over small int states, a target, a state budget
    and a start priority, drawn from `rng`."""
    n = rng.randint(2, 40)
    succ = {}
    for s in range(n):
        children, kids = [], []
        for j in range(rng.randint(0, 5)):
            # a repeated child, maybe by another delta, or any state
            kids.append(rng.choice(kids) if kids and rng.random() < 0.2 else rng.randrange(n))
            children.append((rng.choice((-2, 0, 0, 1, 3)), (s, j), kids[-1]))
        # the reason some of the state's work was skipped, if any
        succ[s] = (children, rng.choice((None,) * 8 + ("lcm budget", "depth cap")))
    target = rng.randrange(n + n // 2)  # past n: unreachable
    return succ.__getitem__, target.__eq__, rng.choice((2, 5, 10, 10**6)), rng.randint(-3, 3)


def test_bucket_frontier_matches_the_heap_frontier(monkeypatch):
    counter = CountingHeapq()
    monkeypatch.setattr(multifraction, "heapq", counter)
    rng = random.Random(20)
    endings = set()
    for _ in range(2000):
        successors, is_target, budget, priority = _random_graph(rng)
        got = multifraction._search(0, successors, is_target, budget, priority)
        assert got == heap_search(0, successors, is_target, budget, priority)
        endings.add("found" if got.found else got.reason or "exhausted")
    assert endings == {"found", "exhausted", "state budget", "lcm budget", "depth cap"}
    # priorities were added to the heap and dropped from it
    assert counter.calls["heappush"] > 0 and counter.calls["heappop"] > 0
