"""Searches that share one Monoid's element ids, window memos and lcm cache.

Every search on a Monoid encodes its states with the Monoid's element ids,
and every reduction and split search reads and fills the Monoid's window
memos (one per kernel, parity and lcm budget) and its lcm cache, which are
bounded by two generations of at most `monoid.MEMO_CAP` entries each.  A
reduction window at i >= 2 is read off the pair rows of its (a_i, a_{i+1}),
the lcm rows the reduction kernel keeps in memos of their own ("reduction
pairs"), and each must equal what the triple alone gives
(`oracles.triple_window`).  What one search leaves behind must never change
another's result: in any order, past the cap, where the memos rotate all
the time, and from several threads.
"""

import random
import sys
import threading
from itertools import product

import pytest

from multifrac import ArtinPresentation, Monoid, Multifraction, search_reduction, split_reduces_to_trivial
from multifrac import monoid as monoid_module
from multifrac.multifraction import _ReductionStates, _pack2
from multifrac.split import SplitStep, TrimStep, _SplitStates
from multifrac.words import parse_signed

from oracles import all_threes, braid_pair, signed_words_up_to, triple_window

A3 = ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2})
# the presentations and word lengths of the compact-search differential test
# (test_multifraction.test_compact_search_matches_tuple_search)
PRESENTATIONS = {"I2(3)": (braid_pair(3), 4), "I2(4)": (braid_pair(4), 4), "A3": (A3, 3),
                 "A2~": (all_threes(), 3)}


def _cases(pres, max_len: int) -> list:
    """A reduction search of every word up to max_len at paddings 0-2 under
    lcm budgets 1, 10 and 1000, and a 20-state split search of each word
    at paddings 0-1, which reads the Monoid's split windows."""
    cases = []
    for w in signed_words_up_to(pres, max_len):
        cases += [("reduction", w, p, budget) for p in (0, 1, 2) for budget in (1, 10, 1000)]
        cases += [("split", w, p, 20) for p in (0, 1)]
    return cases


def _search(mon: Monoid, case):
    search, word, pad, budget = case
    a = Multifraction.from_signed_word(mon, word).pad(pad)
    if search == "reduction":
        return search_reduction(a, lcm_budget=budget)
    return split_reduces_to_trivial(a, state_budget=budget)


def _pinned(res) -> tuple:
    return (res.found, res.complete, res.states, res.steps, res.reason,
            tuple(step.json_obj() for step in res.trace))


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_a_shared_monoid_gives_what_fresh_monoids_give(name):
    pres, max_len = PRESENTATIONS[name]
    cases = _cases(pres, max_len)
    random.Random(name).shuffle(cases)
    shared = Monoid(pres)
    for case in cases:
        assert _pinned(_search(shared, case)) == _pinned(_search(Monoid(pres), case)), case


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_every_reduction_window_matches_its_triple(name, monkeypatch):
    pres, max_len = PRESENTATIONS[name]
    windows = []
    window = _ReductionStates._window

    def spy(self, i, ids):
        value = window(self, i, ids)
        windows.append((self.lcm_budget, i, tuple(ids), value))
        return value

    monkeypatch.setattr(_ReductionStates, "_window", spy)
    mon = Monoid(pres)
    for case in _cases(pres, max_len):
        _search(mon, case)
    assert {i > 1 and not ids[i - 2] for _, i, ids, _ in windows} == {True, False}
    assert any(len(value) & 1 for *_, value in windows)  # an lcm ran out of budget
    for budget, i, ids, value in windows:
        assert triple_window(mon, budget, i, ids) == value, (budget, i, ids)


def _a_b(mon: Monoid, word: str) -> tuple:
    return tuple(mon.element(w) for w in word.split("/"))


@pytest.mark.parametrize("i", (2, 3))
def test_a_window_after_a_trivial_entry_is_its_pair_value(i):
    mon = Monoid(braid_pair(3))
    states = _ReductionStates(mon, 1000)
    entries = (mon.identity,) * (i - 1) + _a_b(mon, "a/b")
    ids = memoryview(states.encode(entries)).cast("I")
    value = states._window(i, ids)
    assert value and value is states._pairs[i & 1].young[_pack2(ids[i - 1], ids[i])]
    assert value == triple_window(mon, 1000, i, ids)
    # after a_{i-1} != 1, the rows are mapped through it
    entries = entries[:i - 2] + (mon.element("ab"),) + entries[i - 1:]
    ids = memoryview(states.encode(entries)).cast("I")
    assert states._window(i, ids) == triple_window(mon, 1000, i, ids) != value


@pytest.mark.parametrize("budget", (1, 1000))
def test_a_window_with_a_known_pair_computes_no_lcm(budget, monkeypatch):
    mon = Monoid(A3)
    states = _ReductionStates(mon, budget)
    a_i, a_next = _a_b(mon, "ab/bc")
    states.children(states.encode((mon.element("c"), a_i, a_next)))
    calls = []
    lcm_data = Monoid.lcm_data

    def spy(self, *args):
        calls.append(args)
        return lcm_data(self, *args)

    monkeypatch.setattr(Monoid, "lcm_data", spy)
    for prev in ("a", "ba", "cc"):
        ids = memoryview(states.encode((mon.element(prev), a_i, a_next))).cast("I")
        value = states._window(2, ids)
        assert not calls, prev
        assert value == triple_window(mon, budget, 2, ids)
        calls.clear()  # the oracle's own lcm calls


def test_a_repeated_split_search_computes_no_window(monkeypatch):
    mon = Monoid(all_threes())
    a = Multifraction.from_signed_word(mon, parse_signed(mon.presentation, "abaBAB")).pad(1)
    calls = {"_split": 0, "_trim": 0}
    for name in calls:
        def spy(self, i, ids, name=name, kernel=getattr(_SplitStates, name)):
            calls[name] += 1
            return kernel(self, i, ids)
        monkeypatch.setattr(_SplitStates, name, spy)
    first = split_reduces_to_trivial(a, state_budget=200)
    assert calls["_split"] and calls["_trim"]
    calls.update(_split=0, _trim=0)
    assert _pinned(split_reduces_to_trivial(a, state_budget=200)) == _pinned(first)
    assert calls == {"_split": 0, "_trim": 0}


def _elements_of(step) -> tuple:
    if isinstance(step, TrimStep):
        return ()
    return (step.x, step.y) if isinstance(step, SplitStep) else (step.x,)


def test_memos_past_a_tiny_cap_keep_elements_and_answers(monkeypatch):
    presentations = {"I2(3)": (braid_pair(3), 3), "A3": (A3, 2)}
    cases = [(name, case) for name, (pres, max_len) in presentations.items()
             for case in _cases(pres, max_len)]
    # the answers under the default cap, each on a fresh Monoid
    want = {(name, case): _pinned(_search(Monoid(presentations[name][0]), case)) for name, case in cases}

    cap, rotated = 4, set()
    put = monoid_module._Memo.put

    def checked_put(memo, key, value):
        if len(memo.young) >= cap:
            rotated.add(id(memo))
        out = put(memo, key, value)
        assert len(memo.young) <= cap and len(memo.old) <= cap
        return out

    monkeypatch.setattr(monoid_module, "MEMO_CAP", cap)
    monkeypatch.setattr(monoid_module._Memo, "put", checked_put)
    monoids = {name: Monoid(pres) for name, (pres, _) in presentations.items()}
    # every positive word up to length 4, interned before any search
    interned = {}
    for mon in monoids.values():
        n = len(mon.presentation.generators)
        for t in (t for k in range(5) for t in product(range(n), repeat=k)):
            e = mon.element(bytes(t))
            interned[mon, bytes(t)] = (e, e.id)
    first = {}
    for round_ in range(2):
        for name, case in cases:
            res = _search(monoids[name], case)
            assert _pinned(res) == want[name, case], (round_, name, case)
            # a trace's elements are the very objects the first round returned
            steps = [e for step in res.trace for e in _elements_of(step)]
            assert all(a is b for a, b in zip(first.setdefault((name, case), steps), steps))
    # the lcm caches and every kind of window memo rotated, the reduction pair rows included
    for mon in monoids.values():
        assert id(mon._lcm_cache) in rotated
        kernels = {kernel for (kernel, _), memos in mon._windows.items()
                   if any(id(memo) in rotated for memo in memos)}
        assert kernels == {"reduction", "reduction pairs", "split"}, kernels
    for (mon, word), (e, i) in interned.items():
        assert mon.element(word) is e and e.id == i and mon._by_id[i] is e


def test_threads_sharing_a_monoid_get_the_sequential_results(monkeypatch):
    cases = _cases(A3, 2)
    sequential = Monoid(A3)
    want = {case: _pinned(_search(sequential, case)) for case in cases}
    # a cap small enough that the threads rotate the memos under one another
    monkeypatch.setattr(monoid_module, "MEMO_CAP", 16)
    shared = Monoid(A3)
    got: list[dict] = [{} for _ in range(4)]

    def search_all(k: int):
        order = cases * 2  # each case twice, the second time after rotations
        random.Random(k).shuffle(order)
        for case in order:
            res = _pinned(_search(shared, case))
            assert got[k].setdefault(case, res) == res

    threads = [threading.Thread(target=search_all, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g == want for g in got)
    # one dense id per element, each element mapped from its own key
    elements, classes = shared._by_id, set(shared._classes.values())
    assert sorted(e.id for e in classes) == list(range(len(elements)))
    assert all(elements[e.id] is e for e in classes)
    assert all(shared._classes[e.key] is e for e in classes)
