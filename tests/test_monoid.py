import random
import sys
import threading
import time
from itertools import product

import pytest

from multifrac import (ArtinPresentation, BudgetExhausted, Monoid, Multifraction, PresentationError,
                       StructuralError, kernel_backend, search_reduction)
from multifrac import monoid as monoid_module
from multifrac import reversing
from multifrac.monoid import MonoidElement, congruence_class
from multifrac.words import parse_signed, signed_of_positive

from oracles import MultipleSets, WordClasses, all_threes, braid_pair, rewrite_rules
from reference import PositiveMonoid

A3 = ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2})
ONE_FREE_PAIR = ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 4})  # (a, c) free
# (a, d) and (b, d) free
TWO_FREE_PAIRS = ArtinPresentation("abcd", {("a", "b"): 5, ("b", "c"): 3, ("a", "c"): 2, ("c", "d"): 4})


@pytest.fixture(scope="module")
def a2():
    return Monoid(braid_pair(3))


def test_element_classes(a2):
    class_strings = WordClasses(a2).strings
    e = a2.element("aba")
    assert class_strings(e) == {"aba", "bab"}
    assert str(e) == "aba"
    assert a2.element("bab") == e
    assert a2.element("") is a2.identity
    assert len(a2.identity) == 0
    # no relation applies to length-2 words when m = 3
    assert class_strings(a2.element("ab")) == {"ab"}


@pytest.mark.parametrize("word", [b"\x02", b"\x00\x05", b"\x02\x00"])
def test_element_rejects_bytes_past_the_last_generator(word):
    m = Monoid(braid_pair(3))  # generators 0 and 1
    with pytest.raises(PresentationError):
        m.element(word)
    with pytest.raises(PresentationError):
        Multifraction(m, [word])
    assert m.element(b"\x01\x00").key == b"\x01\x00"


def test_class_matches_string_oracle(a2):
    class_strings = WordClasses(a2).strings
    strings = PositiveMonoid("ab", [("a", "b", 3)], class_cap=1000)
    rng = random.Random(3)
    for _ in range(50):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 7)))
        assert class_strings(a2.element(w)) == strings.word_class(w)


def test_pure_kernel_matches_string_oracle():
    assert kernel_backend() == "python"
    pres = all_threes()
    rules = rewrite_rules(pres)
    strings = PositiveMonoid(pres.generators, pres.labelled_pairs(), class_cap=1000)
    rng = random.Random(61)
    for _ in range(60):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 7)))
        got = {pres.word_str(k) if k else "" for k in congruence_class(pres.encode(w), rules)}
        assert got == strings.word_class(w)


def test_multiply(a2):
    assert a2.multiply(a2.element("a"), a2.element("ba")) == a2.element("aba")
    x = a2.element("ab")
    assert a2.multiply(x, a2.identity) == x
    assert a2.multiply(a2.element("b"), a2.element("ab")) == a2.element("aba")
    assert len(x * x) == 4


def test_homogeneity(a2):
    classes = WordClasses(a2)
    rng = random.Random(4)
    for _ in range(50):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        e = a2.element(w)
        assert all(len(v) == len(w) for v in classes.of(e))
        assert len(e) == len(w)


def test_divide(a2):
    e = a2.element
    assert a2.divide("left", e("a"), e("aba")) == e("ba")
    assert a2.divide("left", e("ab"), e("ab")) == a2.identity
    assert a2.divide("left", e("a"), e("ba")) is None
    assert a2.divide("right", e("b"), e("aba")) == e("ba")  # aba = ba*b via bab
    assert a2.divide("right", e("a"), e("aba")) == e("ab")


def test_cancellativity_spot_check(a2):
    # x*z1 = x*z2 forces z1 = z2 over all short words
    words = ["", "a", "b", "ab", "ba", "aa", "aba"]
    els = [a2.element(w) for w in words]
    for x in els:
        seen = {}
        for z in els:
            prod = a2.multiply(x, z)
            assert seen.setdefault(prod.key, z) == z
        seen = {}
        for z in els:
            prod = a2.multiply(z, x)
            assert seen.setdefault(prod.key, z) == z


def test_divisibility_rejects_unknown_side(a2):
    x, y = a2.element("ab"), a2.element("aba")
    for _ in range(2):  # a rejected side leaves nothing cached behind
        with pytest.raises(ValueError):
            a2.divisors("up", y)
        with pytest.raises(ValueError):
            a2.gcd("up", x, y)
        with pytest.raises(ValueError):
            a2.divide("up", x, y)
        with pytest.raises(ValueError):
            a2.lcm_data("up", x, y)


@pytest.mark.parametrize(
    "pres, max_len",
    [
        (braid_pair(3), 5),
        (braid_pair(4), 5),
        (A3, 4),
        (all_threes(), 4),
    ],
    ids=["I2(3)", "I2(4)", "A3", "A2~"],
)
def test_divide_and_divisors_match_naive_scan(pres, max_len):
    m = Monoid(pres)
    classes = WordClasses(m)
    cls = PositiveMonoid(pres.generators, pres.labelled_pairs(), class_cap=1000).word_class

    words = [""]
    for _ in range(max_len):
        words += [w + g for w in words if len(w) == len(words[-1]) for g in pres.generators]
    els = sorted({m.element(w) for w in words})
    for y in els:
        for w in classes.of(y):
            assert m.element(w) is m.element(m.canonical(w)) is y
        members = cls("".join(y.word))
        for side in ("left", "right"):
            parts = {w[:k] if side == "left" else w[len(w) - k:]
                     for w in members for k in range(len(w) + 1)}
            want = sorted({min(cls(p)) for p in parts}, key=lambda s: (len(s), s))
            assert ["".join(d.word) for d in m.divisors(side, y)] == want
            for x in els:
                xw = "".join(x.word)
                rests = [w[len(xw):] if side == "left" else w[:len(w) - len(xw)]
                         for w in members
                         if (w.startswith(xw) if side == "left" else w.endswith(xw))]
                got = m.divide(side, x, y)
                if not rests:
                    assert got is None
                else:
                    assert all(cls(r) == cls(rests[0]) for r in rests)
                    assert classes.strings(got) == cls(rests[0])


def test_divisors(a2):
    e = a2.element
    assert set(a2.divisors("left", e("aba"))) == {
        a2.identity, e("a"), e("b"), e("ab"), e("ba"), e("aba")
    }
    assert a2.divisors("left", a2.identity) == (a2.identity,)
    assert set(a2.divisors("left", e("ab"))) == {a2.identity, e("a"), e("ab")}
    # ordering is canonical: by length then generator order
    assert [str(d) for d in a2.divisors("left", e("aba"))] == ["1", "a", "b", "ab", "ba", "aba"]
    for d in a2.divisors("right", e("abab")):
        assert a2.divide("right", d, e("abab")) is not None
        assert len(d) <= 4


def test_gcd(a2):
    e = a2.element
    assert a2.gcd("left", e("ab"), e("ba")) == a2.identity
    assert a2.gcd("left", e("ab"), e("ab")) == e("ab")
    assert a2.gcd("left", e("aba"), e("ab")) == e("ab")
    assert a2.gcd("right", e("aba"), e("ba")) == e("ba")


def test_gcd_is_divided_by_every_common_divisor():
    # exhaustive at small word-length over both test presentations
    for mon in (Monoid(braid_pair(3)), Monoid(all_threes())):
        gens = mon.presentation.generators
        words = [""]
        for _ in range(3):
            words += [w + g for w in words[-len(gens) ** 2 or 1:] for g in gens]
        els = {mon.element(w) for w in words if len(w) <= 3}
        els = sorted(els)[:20]
        for x in els:
            for y in els:
                for side in ("left", "right"):
                    g = mon.gcd(side, x, y)
                    assert g.divides(x, side) and g.divides(y, side)
                    for d in mon.divisors(side, x):
                        if d.divides(y, side):
                            assert d.divides(g, side)


def test_lcm_examples(a2):
    e = a2.element
    assert a2.lcm("right", e("a"), e("b")) == e("aba")
    assert a2.lcm("right", e("a"), e("a")) == e("a")
    free = Monoid(ArtinPresentation("ab", {}))
    assert free.lcm("right", free.element("a"), free.element("b")) is None
    assert free.lcm_data("right", free.element("a"), free.element("b")) is None


def test_complement_identities(a2):
    e = a2.element
    rng = random.Random(6)
    words = ["a", "b", "ab", "ba", "aab", "aba"]
    for _ in range(40):
        x, y = e(rng.choice(words)), e(rng.choice(words))
        under = a2.lcm_data("right", x, y)[0]
        assert a2.multiply(x, under) == a2.lcm("right", x, y)
        over = a2.lcm_data("left", x, y)[1]
        assert a2.multiply(over, y) == a2.lcm("left", x, y)
    assert a2.lcm_data("right", e("ab"), e("ab"))[0] == a2.identity
    assert a2.lcm_data("right", e("a"), e("b"))[0] == e("ba")


def test_lcm_budget_exhaustion_distinct_from_absent():
    mon = Monoid(all_threes())
    x, y = mon.element("ab"), mon.element("c")
    with pytest.raises(BudgetExhausted):
        mon.lcm_data("right", x, y, budget=300)
    # and the cached outcome is replayed for the same budget
    with pytest.raises(BudgetExhausted):
        mon.lcm_data("right", x, y, budget=300)
    ms = MultipleSets(mon)
    assert ms.brute_lcm("right", x, y, 9) is None


def test_lcm_budget_replay_formats_no_message(monkeypatch):
    mon = Monoid(all_threes())
    x, y = mon.element("ab"), mon.element("c")
    with pytest.raises(BudgetExhausted):
        mon.lcm_data("right", x, y, budget=300)
    calls = []
    plain_str = MonoidElement.__str__
    monkeypatch.setattr(MonoidElement, "__str__", lambda el: calls.append(el) or plain_str(el))
    messages = []
    for _ in range(2):
        with pytest.raises(BudgetExhausted) as info:
            mon.lcm_data("right", x, y, budget=300)
        messages.append(str(info.value))
        assert info.value.stats == {"steps": 300}
    assert calls == []
    assert messages == ["right-lcm of ab and c undetermined within budget"] * 2


def test_lcm_answer_is_keyed_by_budget():
    # an lcm settled at the default budget is not an answer at a smaller one
    mon = Monoid(braid_pair(3))
    x, y = mon.element("aaa"), mon.element("bbb")
    assert mon.lcm("right", x, y) == mon.element("aaabaabba")
    fresh = Monoid(braid_pair(3))
    with pytest.raises(BudgetExhausted) as on_fresh:
        fresh.lcm_data("right", fresh.element("aaa"), fresh.element("bbb"), budget=5)
    with pytest.raises(BudgetExhausted) as on_settled:
        mon.lcm_data("right", x, y, budget=5)
    assert str(on_settled.value) == str(on_fresh.value)


def test_a_search_and_a_direct_call_share_one_lcm_entry(monkeypatch):
    # the searches pass lcm_data their lcm budget and nothing else, so a
    # direct call under that budget reads the very answer a search stored
    answers = []
    plain = Monoid.lcm_data

    def spy(self, *args):
        out = plain(self, *args)
        answers.append((args, out))
        return out

    mon = Monoid(A3)
    a = Multifraction.from_signed_word(mon, parse_signed(A3, "acAC")).pad(1)
    with monkeypatch.context() as patch:
        patch.setattr(Monoid, "lcm_data", spy)
        assert search_reduction(a, lcm_budget=777).found
    settled = [(args, out) for args, out in answers if out is not None]
    assert settled
    for (side, x, y, budget, *_), out in settled:
        assert budget == 777
        assert mon.lcm_data(side, x, y, budget) is out


def test_lcm_data_builds_no_class_of_the_lcm(monkeypatch):
    # the common multiple is checked by the keys of the two products, which
    # come from atom quotients: lcm_data enumerates no word class
    for side in ("right", "left"):
        mon = Monoid(A3)
        x, y = mon.element("ab"), mon.element("bc")
        with monkeypatch.context() as patch:
            patch.setattr(monoid_module, "congruence_class", _no_closure)
            c_x, c_y = mon.lcm_data(side, x, y)
        if side == "right":
            products = (x.key + c_x.key, y.key + c_y.key)
        else:
            products = (c_x.key + x.key, c_y.key + y.key)
        assert mon.element(products[0]) is mon.element(products[1])


def test_lcm_check_catches_a_table_that_breaks_a_relation():
    # the complement kernel reads u = ab of the A3 relation a.ba = b.ab as the
    # complement of b; with u corrupted to aa, a.ba and b.aa are different
    # elements
    mon = Monoid(A3)
    a, b = mon.element("a"), mon.element("b")
    # the heads are shared by every Monoid of the presentation: corrupt a copy
    heads = [list(row) for row in mon._heads]
    heads[1][0] = b"\0\0"
    mon._heads = heads
    for _ in range(2):  # a failed check leaves nothing cached behind
        with pytest.raises(StructuralError):
            mon.lcm_data("right", a, b)


def test_lcm_check_needs_no_budget_of_its_own(monkeypatch):
    # the check runs no reversing, so a one-step default budget does not
    # stop an lcm that the caller's budget settles
    monkeypatch.setattr(monoid_module, "DEFAULT_STEP_BUDGET", 1)
    mon = Monoid(A3)
    x, y = mon.element("a"), mon.element("b")
    assert mon.lcm_data("right", x, y, budget=100) == (mon.element("ba"), mon.element("ab"))
    x, y = mon.element("ab"), mon.element("cb")
    assert mon.lcm("left", x, y) == mon.element("acb")
    assert mon.lcm_data("left", x, y, budget=100) == (mon.element("c"), mon.element("a"))


_reverse_full = reversing.reverse_full  # the oracle's own reference, which `reversing_runs` does not count


def _leftmost_lcm(mon, side, x, y, budget):
    """What the leftmost reversing run says about the lcm: its split terminal, or "trip"."""
    sign = -1 if side == "right" else 1
    word = signed_of_positive(x.key, sign) + signed_of_positive(y.key, -sign)
    try:
        terminal = _reverse_full(mon.presentation, side, word, budget).word
    except BudgetExhausted:
        return "trip"
    split = reversing.split_terminal(side, terminal)
    return None if split is None else tuple(mon.element(c) for c in split)


def _lcm_outcome(mon, side, x, y, budget):
    try:
        return mon.lcm_data(side, x, y, budget)
    except BudgetExhausted:
        return "trip"


@pytest.fixture
def reversing_runs(monkeypatch):
    """The number of reverse_full runs the library has started, as a one-item list."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return _reverse_full(*args)

    monkeypatch.setattr(monoid_module, "reverse_full", counted)
    monkeypatch.setattr(reversing, "reverse_full", counted)
    return count


def _check_lcm(mon, reversing_runs, side, x, y, budget, want):
    """lcm_data gives `want` and starts no reverse_full run."""
    got = _lcm_outcome(mon, side, x, y, budget)
    assert got == want, (side, str(x), str(y), budget)
    assert reversing_runs[0] == 0, (side, str(x), str(y), budget)


def _check_memo_entry(pres, s, w, hit):
    """One complement memo entry against the leftmost right reversing run of w^-1 s on its own.

    Returns the kind of entry: "trip", "settled" or "blocked".
    """
    word = signed_of_positive(w, -1) + (s + 1,)
    if isinstance(hit, int):  # the run trips under budget hit
        with pytest.raises(BudgetExhausted):
            _reverse_full(pres, "right", word, hit)
        return "trip"
    w2, s2, steps, blocked = hit
    result = _reverse_full(pres, "right", word, steps)
    assert result.steps == steps, (s, w, hit)
    with pytest.raises(BudgetExhausted):
        _reverse_full(pres, "right", word, steps - 1)
    split = reversing.split_terminal("right", result.word)
    assert split == (None if blocked else (s2, w2)), (s, w, hit)
    # s' spells the terminal before w'^-1, blocked or not, with the signs dropped
    assert bytes(abs(c) - 1 for c in result.word) == s2 + w2[::-1], (s, w, hit)
    return "blocked" if blocked else "settled"


def _memo_entries(mon):
    return {(s, w, hit) for s, memo in enumerate(mon._complements) for w, hit in memo.items()}


# the searches pass 1000 and `lcm` 10000
LCM_BUDGETS = [1000, 10000, 40, 200, 7, 30]


@pytest.mark.parametrize(
    "pres, max_len",
    [(braid_pair(2), 4), (braid_pair(3), 4), (braid_pair(4), 4), (A3, 3), (all_threes(), 2),
     (ONE_FREE_PAIR, 3)],
    ids=["I2(2)", "I2(3)", "I2(4)", "A3", "A2~", "one-free-pair"],
)
def test_lcm_data_matches_the_leftmost_reversing_run(pres, max_len, reversing_runs):
    # every pair of elements up to max_len letters, both sides and every
    # budget on one shared Monoid: lcm_data trips exactly where the
    # leftmost run trips, and otherwise gives its split terminal
    mon = Monoid(pres)
    n = len(pres.generators)
    els = sorted({mon.element(bytes(t)) for k in range(max_len + 1) for t in product(range(n), repeat=k)})
    for budget in LCM_BUDGETS:
        for side in ("right", "left"):
            for x in els:
                for y in els:
                    want = _leftmost_lcm(mon, side, x, y, budget)
                    _check_lcm(mon, reversing_runs, side, x, y, budget, want)


def test_lcm_data_matches_the_leftmost_run_on_random_words(reversing_runs):
    # seeded random words of up to 7 letters, budgets 0-1000, both sides, on
    # one shared Monoid per presentation (labels 2-5 and free pairs) and on
    # fresh ones; then every entry the shared memo held
    rng = random.Random(16)
    kinds = set()
    for pres in (braid_pair(5), ArtinPresentation("ab", {}), A3, all_threes(), ONE_FREE_PAIR, TWO_FREE_PAIRS):
        shared = Monoid(pres)
        n = len(pres.generators)
        entries = set()
        for _ in range(2000):
            mon = shared if rng.random() < 0.75 else Monoid(pres)
            x, y = (mon.element(bytes(rng.randrange(n) for _ in range(rng.randint(0, 7)))) for _ in "xy")
            budget = rng.choice([0, 1, 2, 3, 5, 8, 13, 30, 100, 1000])
            side = rng.choice(("right", "left"))
            want = _leftmost_lcm(mon, side, x, y, budget)
            _check_lcm(mon, reversing_runs, side, x, y, budget, want)
            if mon is shared:
                entries |= _memo_entries(shared)
        kinds.update(_check_memo_entry(pres, *entry) for entry in entries)
    assert kinds == {"trip", "settled", "blocked"}


def test_lcm_answers_do_not_depend_on_the_complement_memo(reversing_runs):
    # one shared Monoid, a shuffled call sequence that mixes budgets, trips and
    # aborts settled by a stored trip: each answer is the one a fresh Monoid
    # gives for the same call.  Budgets 0-11 put a call that just suffices
    # after calls that just did not, so a trip stored one step too high would
    # turn a settled lcm into a trip
    pres = all_threes()
    shared = Monoid(pres)
    words = ["a", "c", "ab", "ca", "abc", "aab", "bba", "aabb", "bbaa"]
    budgets = list(range(12)) + [40, 200, 1000]
    calls = [(side, x, y, budget) for side in ("right", "left") for x in words for y in words for budget in budgets]
    random.Random(15).shuffle(calls)
    outcomes = set()
    trips = set()  # every trip the memo held at some point
    for side, x, y, budget in calls:
        fresh = Monoid(pres)
        want = _lcm_outcome(fresh, side, fresh.element(x), fresh.element(y), budget)
        if isinstance(want, tuple):
            want = tuple(shared.element(c.key) for c in want)
        _check_lcm(shared, reversing_runs, side, shared.element(x), shared.element(y), budget, want)
        outcomes.add("trip" if want == "trip" else "settled")
        trips.update(entry for entry in _memo_entries(shared) if isinstance(entry[2], int))
    assert outcomes == {"trip", "settled"}
    # each memo entry is a fact about its key, checked by reversing w^-1 s on its own
    kinds = {_check_memo_entry(pres, *entry) for entry in trips | _memo_entries(shared)}
    assert kinds == {"trip", "settled"}
    # reversing (ab)^-1 c never ends; the kernel's explicit stack keeps a
    # 10 000-step budget from reaching the recursion limit
    mon = Monoid(pres)
    with pytest.raises(BudgetExhausted):
        mon.lcm_data("right", mon.element("ab"), mon.element("c"), 10_000)


def test_lcm_agrees_with_brute_force_on_existing(a2):
    ms = MultipleSets(a2)
    els = [a2.element(w) for w in ("a", "b", "ab", "ba", "ba", "aab")]
    for x in els:
        for y in els:
            for side in ("right", "left"):
                got = a2.lcm(side, x, y)
                assert got == ms.brute_lcm(side, x, y, max(10, len(got.key)))
                # the lcm divides every bounded common multiple
                layers = ms.of(side, x, 8)
                other = ms.of(side, y, 8)
                for wl, keys in layers.items():
                    for k in keys & other.get(wl, set()):
                        assert got.divides(a2.element(k), "left" if side == "right" else "right")


def test_cross_monoid_elements_rejected(a2):
    other = Monoid(braid_pair(3))
    with pytest.raises(ValueError):
        a2.multiply(a2.element("a"), other.element("b"))


@pytest.mark.parametrize("pres", [braid_pair(3), A3, all_threes()], ids=["I2(3)", "A3", "A2~"])
def test_operations_return_interned_elements(pres):
    m = Monoid(pres)
    classes = WordClasses(m)
    checked = set()

    def interned(z):
        assert z is m.element(z.key)
        if z not in checked:
            checked.add(z)
            for w in classes.of(z):
                assert m.element(w) is z

    gens = pres.generators
    words = ["".join(t) for n in range(5) for t in product(gens, repeat=n)]
    els = sorted({m.element(w) for w in words})
    for x in els:
        interned(x)
        for side in ("left", "right"):
            for d in m.divisors(side, x):
                interned(d)
        for y in els:
            interned(m.multiply(x, y))
            for side in ("left", "right"):
                q = m.divide(side, x, y)
                if q is not None:
                    interned(q)
                interned(m.gcd(side, x, y))
                try:
                    data = m.lcm_data(side, x, y, budget=200)
                except BudgetExhausted:
                    continue
                if data is not None:
                    c_x, c_y = data
                    lcm = m.multiply(x, c_x) if side == "right" else m.multiply(c_x, x)
                    for z in (lcm, c_x, c_y):
                        interned(z)


def test_equal_presentations_give_distinct_elements(a2):
    other = Monoid(braid_pair(3))
    assert other.presentation == a2.presentation
    for w in ("", "a", "aba"):
        assert other.element(w) != a2.element(w)
        assert other.element(w).key == a2.element(w).key


def test_threads_sharing_a_monoid_intern_one_element_per_class():
    m = Monoid(A3)
    words = ["".join(t) for t in product("abc", repeat=6)]
    seen: list[dict] = [{} for _ in range(4)]

    def intern_all(k: int):
        order = words[:]
        random.Random(k).shuffle(order)
        for w in order:
            seen[k][w] = m.element(w)

    threads = [threading.Thread(target=intern_all, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w in words:
        el = m.element(w)
        assert all(s[w] is el for s in seen)
    # and one dense id per element, the identity's 0, each element mapped from its own key
    elements = set(m._classes.values())
    assert sorted(e.id for e in elements) == list(range(len(elements)))
    assert m.identity.id == 0 and all(m._by_id[e.id] is e for e in elements)
    assert all(m._classes[e.key] is e for e in elements)


# -- the quotient, key and divisor kernels against the rewriting closure -----

def _no_closure(*args):
    raise AssertionError("the package enumerated a word class")


@pytest.mark.parametrize(
    "pres, max_len",
    [
        (braid_pair(3), 8),
        (braid_pair(4), 8),
        (A3, 6),
        (all_threes(), 6),
        (ONE_FREE_PAIR, 6),
    ],
    ids=["I2(3)", "I2(4)", "A3", "A2~", "one-free-pair"],
)
def test_kernels_match_the_closure(pres, max_len):
    m = Monoid(pres)
    classes = WordClasses(m)
    n = len(pres.generators)
    key = {}  # every word up to max_len -> min of its class
    for length in range(max_len + 1):
        for t in product(range(n), repeat=length):
            w = bytes(t)
            key[w] = min(classes.of(w))
            assert m.element(w).key == key[w]
            for s in range(n):
                tails = [v[1:] for v in classes.of(w) if v and v[0] == s]
                q = m._quotient(s, w)
                assert (q is None) == (not tails)
                if tails:
                    assert classes.of(q) == classes.of(tails[0])
    els = sorted({m.element(k) for k in key.values()})
    # prefix (suffix) read-off: {divisor key: cofactor key} for each side
    readoff = {}
    for y in els:
        for side in ("left", "right"):
            table = {}
            for w in classes.of(y):
                for k in range(len(w) + 1):
                    d, c = (w[:k], w[k:]) if side == "left" else (w[len(w) - k:], w[:len(w) - k])
                    table[min(classes.of(d))] = min(classes.of(c))
            readoff[side, y] = table
            assert [d.key for d in m.divisors(side, y)] == sorted(table, key=lambda k: (len(k), k))
    small = [x for x in els if len(x) <= max_len // 2]
    for y in els:
        for side in ("left", "right"):
            table = readoff[side, y]
            for x in small:
                got = m.divide(side, x, y)
                assert (None if got is None else got.key) == table.get(x.key)
                common = readoff[side, x].keys() & table.keys()
                longest = max(len(k) for k in common)
                [want] = [k for k in common if len(k) == longest]
                assert m.gcd(side, x, y).key == want


def test_no_operation_enumerates_a_class(monkeypatch):
    monkeypatch.setattr(monoid_module, "congruence_class", _no_closure)
    from multifrac import Dihedral, PaddingStrategy, decide

    mon = Monoid(all_threes())
    assert decide(mon, "bcbCBC", PaddingStrategy.quadratic()).answer == "trivial"
    assert decide(mon, "aB", PaddingStrategy.quadratic()).answer == "nontrivial"
    m3 = Monoid(A3)
    delta = m3.element("abacba")
    assert len(m3.divisors("left", delta)) == len(m3.divisors("right", delta)) == 24
    assert m3.gcd("left", m3.element("abc"), m3.element("acb")) == m3.element("a")
    assert m3.lcm("right", m3.element("a"), m3.element("b")) == m3.element("bab")
    assert m3.lcm("left", m3.element("ab"), m3.element("cb")) == m3.element("acb")
    d = Dihedral(Monoid(braid_pair(3)), "a", "b")
    fp = d.normal_form("left", "aB")
    assert str(fp) == "(ab)^-1(ba)"
    assert d.first_letter(fp, "num") == "a" and d.last_letter(fp, "num") == "b"


@pytest.mark.parametrize(
    "pres, length",
    [(braid_pair(3), 6), (A3, 5), (all_threes(), 4), (TWO_FREE_PAIRS, 4)],
    ids=["I2(3)", "A3", "A2~", "two free pairs"],
)
def test_divisor_tables_list_divisors_in_element_order(pres, length):
    # the tables sort keys without MonoidElement.__lt__; their order must stay the
    # one < gives, by (length, key), on every word of this length and on A3's Delta^2
    m = Monoid(pres)
    n = len(pres.generators)
    xs = [m.element(bytes(t)) for t in product(range(n), repeat=length)]
    if pres is A3:
        xs.append(m.element("abacba" * 2))
    for x in xs:
        for side in ("left", "right"):
            divs = m.divisors(side, x)
            assert list(divs) == sorted(divs)
            assert [d.key for d in divs] == sorted((d.key for d in divs), key=lambda k: (len(k), k))


@pytest.mark.parametrize(
    "pres, length",
    [(braid_pair(3), 5), (A3, 4), (all_threes(), 4), (TWO_FREE_PAIRS, 4)],
    ids=["I2(3)", "A3", "A2~", "two free pairs"],
)
def test_every_word_met_maps_to_the_element_of_its_least_word(pres, length):
    # element, divisors and lcm_data meet words off the inputs too: the quotient chains
    # of new words, divisor words and the lcm products that lcm_data checks
    m = Monoid(pres)
    n = len(pres.generators)
    xs = [m.element(bytes(t)) for k in range(length + 1) for t in product(range(n), repeat=k)]
    for x in xs:
        for side in ("left", "right"):
            m.divisors(side, x)
    for x, y in product(xs[:1 + n + n * n], repeat=2):
        for side in ("left", "right"):
            try:
                m.lcm_data(side, x, y, budget=200)
            except BudgetExhausted:
                pass
    classes = WordClasses(m)
    assert len(m._classes) > len(set(xs))
    for w, e in m._classes.items():
        assert e.key == min(classes.of(w)) and m._classes[e.key] is e


def test_a4_delta_squared_and_its_divisor_tables():
    a4 = ArtinPresentation("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3,
                                     ("a", "c"): 2, ("a", "d"): 2, ("b", "d"): 2})
    t0 = time.monotonic()
    m = Monoid(a4)
    delta = m.element("abacbadcba")
    square = m.element("abacbadcba" * 2)
    assert square is m.multiply(delta, delta)
    left, right = m.divisors("left", square), m.divisors("right", square)
    assert time.monotonic() - t0 < 10.0
    # Delta^2 in B5+: 3651 divisors on each side, Delta among them
    assert len(left) == len(right) == 3651
    assert delta in left and delta in right


def test_dividing_delta_cubed_builds_no_divisor_table(monkeypatch):
    # over A4, Delta^3 has 79 140 left divisors; divide cancels by atom quotients
    a4 = ArtinPresentation("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3,
                                     ("a", "c"): 2, ("a", "d"): 2, ("b", "d"): 2})
    m = Monoid(a4)
    cube, a, a4th = m.element("abacbadcba" * 3), m.element("a"), m.element("aaaa")
    tables = []
    monkeypatch.setattr(Monoid, "_divisor_table", lambda self, side, x: tables.append((side, x)))
    interned = len(m._by_id)
    left = m.divide("left", a, cube)
    assert len(m._by_id) == interned  # and no new element
    right = m.divide("right", a, cube)
    assert m.divide("left", a4th, cube) is None and m.divide("right", a4th, cube) is None
    assert tables == []
    assert m.multiply(a, left) is cube and m.multiply(right, a) is cube
