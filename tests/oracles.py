"""Test oracles that the benchmark's references do not provide.

The group references (`reference.DihedralGroup`, `reference.WordReference`)
and the string-level closure (`reference.PositiveMonoid`) come from
perfbench/reference.py, which imports nothing from multifrac; the root
conftest.py puts perfbench/ on the path.  What is here is checked against
the package but leans on parts of it:

* `MultipleSets` finds lcms by intersecting bounded multiple sets, whose
  members it canonicalises with `Monoid.canonical`;
* `WordClasses` enumerates the class of an element with
  `congruence_class`, the rewriting closure the package no longer calls,
  under rules built from `presentation.relations()`;
* `BoundedLcmOracle` finds lcms by bitmasks over every element up to a
  word-length bound, whose classes it takes from `congruence_class`;
* `naive_special_neighbors` enumerates special transformations by trying
  every relation factor and every reversing position (`reverse_step`),
  then sorting: the scan `special_neighbors` replaced;
* `heap_search` is the search engine with its frontier a heap of
  (priority, tick, state) entries: the loop the bucket queue of
  `multifraction._search` replaced;
* `triple_window` computes a reduction window's memo value from the whole
  triple, one `lcm_data` call per divisor of a_{i+1} and a_1's divisor
  table at i = 1: the loop the pair rows of
  `multifraction._ReductionStates` replaced.

The word generators and the presentations used across the suite live here
too.
"""

from __future__ import annotations

import heapq
import random
from functools import lru_cache
from itertools import product
from struct import Struct

from multifrac import BudgetExhausted, Monoid, MonoidElement, WordStep
from multifrac.monoid import congruence_class
from multifrac.multifraction import _UNSETTLED, SearchResult
from multifrac.presentation import ArtinPresentation
from multifrac.reversing import reverse_step
from multifrac.words import SignedWord, free_reduce, invert, parse_signed, signed_of_positive
from reference import alternating


# -- word classes by rewriting -----------------------------------------------

def rewrite_rules(pres: ArtinPresentation) -> tuple[tuple[bytes, bytes], ...]:
    """Both orientations of every defining relation, encoded."""
    rules = []
    for rel in pres.relations():
        lhs, rhs = pres.encode(rel.lhs), pres.encode(rel.rhs)
        rules += [(lhs, rhs), (rhs, lhs)]
    return tuple(rules)


class WordClasses:
    """Every word of an element's class, enumerated once per element."""

    def __init__(self, monoid: Monoid):
        self.monoid = monoid
        self.rules = rewrite_rules(monoid.presentation)
        self._cache: dict[bytes, frozenset[bytes]] = {}

    def of(self, x) -> frozenset[bytes]:
        """The class of an element, or of a word given as bytes."""
        key = x if isinstance(x, bytes) else x.key
        cls = self._cache.get(key)
        if cls is None:
            cls = congruence_class(key, self.rules)
            for w in cls:
                self._cache[w] = cls
        return cls

    def strings(self, x) -> set[str]:
        """The class, decoded to generator names."""
        decode = self.monoid.presentation.decode
        return {"".join(decode(w)) for w in self.of(x)}


# -- brute-force lcm via bounded multiple sets ------------------------------

class MultipleSets:
    """Canonical keys of bounded multiples, shared across lcm queries."""

    def __init__(self, monoid: Monoid):
        self.monoid = monoid
        self._cache: dict[tuple[str, bytes, int], dict[int, set[bytes]]] = {}

    def of(self, side: str, x: MonoidElement, max_wl: int) -> dict[int, set[bytes]]:
        """Keys of {x*z} (side="right") or {z*x} ("left"), by word-length."""
        key = (side, x.key, max_wl)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        m = self.monoid
        atoms = [a.key for a in m.atoms()]
        layers: dict[int, set[bytes]] = {len(x.key): {x.key}}
        frontier = {x.key}
        wl = len(x.key)
        while wl < max_wl and frontier:
            nxt = set()
            for w in frontier:
                for a in atoms:
                    prod = m.canonical(w + a) if side == "right" else m.canonical(a + w)
                    nxt.add(prod)
            wl += 1
            layers[wl] = nxt
            frontier = nxt
        self._cache[key] = layers
        return layers

    def brute_lcm(self, side: str, x: MonoidElement, y: MonoidElement, bound: int):
        """Least common multiple found by intersecting multiple sets.

        Returns the lcm element, or None if no common multiple of
        word-length <= bound exists.  Asserts that the minimal layer of the
        intersection is a single class (uniqueness of the lcm).
        """
        mx = self.of(side, x, bound)
        my = self.of(side, y, bound)
        for wl in range(max(len(x.key), len(y.key)), bound + 1):
            common = mx.get(wl, set()) & my.get(wl, set())
            if common:
                assert len(common) == 1, f"two minimal common multiples: {common}"
                return self.monoid.element(common.pop())
        return None


class BoundedLcmOracle:
    """Exact least common right-multiples up to a global word-length bound.

    Every monoid element of word-length <= bound is generated once by a
    breadth-first product enumeration (classes are computed by the raw
    kernel and immediately discarded), and tagged with a bitmask telling
    which of the sweep elements left-divide it: x left-divides m iff some
    member of m's class carries the canonical word of x as a literal
    prefix.  A pair query is then one integer AND; the lowest set bit is
    the least common multiple (bits are laid out in word-length order).
    """

    def __init__(self, monoid: Monoid, sweep, bound: int):
        self.monoid = monoid
        self.bound = bound
        self.sweep = list(sweep)
        slot = {e.key: i for i, e in enumerate(self.sweep)}
        self._slots = slot
        max_sweep = max((len(e.key) for e in self.sweep), default=0)
        rules = rewrite_rules(monoid.presentation)
        atoms = [a.key for a in monoid.atoms()]
        self.keys: list[bytes] = []
        self.masks = [0] * len(self.sweep)
        frontier = [b""]
        seen = {b""}
        wl = 0
        while True:
            for key in sorted(frontier):
                idx = len(self.keys)
                self.keys.append(key)
                cls = congruence_class(key, rules)
                hit = set()
                for member in cls:
                    for k in range(min(max_sweep, len(member)) + 1):
                        j = slot.get(member[:k])
                        if j is not None:
                            hit.add(j)
                bit = 1 << idx
                for j in hit:
                    self.masks[j] |= bit
            if wl == bound:
                break
            nxt = set()
            for key in frontier:
                for a in atoms:
                    cand = min(congruence_class(key + a, rules))
                    if cand not in seen:
                        nxt.add(cand)
            seen |= nxt
            frontier = list(nxt)
            wl += 1

    def min_common_multiple(self, x: MonoidElement, y: MonoidElement):
        """The least common right-multiple of word-length <= bound, or None.

        Asserts that the minimal layer of the common-multiple set is a
        single class (the defining property of an lcm).
        """
        ix, iy = self._slot(x), self._slot(y)
        v = self.masks[ix] & self.masks[iy]
        if not v:
            return None
        low = (v & -v).bit_length() - 1
        rest = v & (v - 1)
        if rest:
            nxt = (rest & -rest).bit_length() - 1
            assert len(self.keys[nxt]) > len(self.keys[low]), "two minimal common multiples"
        return self.monoid.element(self.keys[low])

    def _slot(self, x: MonoidElement) -> int:
        try:
            return self._slots[x.key]
        except KeyError:
            raise KeyError(f"{x} is not a sweep element") from None


def reversal_closed(pres: ArtinPresentation) -> bool:
    """Whether reversing words is an anti-automorphism of the presentation."""
    rels = {frozenset(("".join(r.lhs), "".join(r.rhs))) for r in pres.relations()}
    rev = {frozenset(("".join(reversed(r.lhs)), "".join(reversed(r.rhs)))) for r in pres.relations()}
    return rels == rev


# -- presentations and word generators ---------------------------------------

def braid_pair(m: int = 3) -> ArtinPresentation:
    return ArtinPresentation("ab", {("a", "b"): m})


def all_threes() -> ArtinPresentation:
    return ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 3})


def random_signed_word(rng: random.Random, pres: ArtinPresentation, length: int) -> SignedWord:
    n = len(pres.generators)
    return tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(length))


def random_identity_word(
    rng: random.Random, pres: ArtinPresentation, max_len: int, factors: int = 2
) -> SignedWord:
    """A freely reduced product of conjugated relators, of length <= max_len."""
    rels = []
    for s, t, m in pres.labelled_pairs():
        lhs = parse_signed(pres, alternating(s, t, m))
        rhs = parse_signed(pres, alternating(t, s, m))
        rels.append(lhs + invert(rhs))
    while True:
        word: SignedWord = ()
        for _ in range(rng.randint(1, factors)):
            rel = rng.choice(rels)
            if rng.random() < 0.5:
                rel = invert(rel)
            conj = random_signed_word(rng, pres, rng.randint(0, 2))
            word += conj + rel + invert(conj)
        word = free_reduce(word)
        if len(word) <= max_len:
            return word


def signed_words_up_to(pres: ArtinPresentation, max_len: int):
    """Every signed word of length <= max_len, shortest first."""
    n = len(pres.generators)
    letters = [i + 1 for i in range(n)] + [-(i + 1) for i in range(n)]
    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            yield combo


# -- special transformations by trying every position, then sorting ---------

@lru_cache(maxsize=None)
def _equivalence_factors(pres: ArtinPresentation) -> tuple[tuple[str, SignedWord, SignedWord], ...]:
    """(rule, factor, replacement) triples for single relation applications."""
    out = []
    for rel in pres.relations():
        lhs = signed_of_positive(pres.encode(rel.lhs))
        rhs = signed_of_positive(pres.encode(rel.rhs))
        for u, v in ((lhs, rhs), (rhs, lhs)):
            out.append(("pos", u, v))
            out.append(("neg", tuple(-c for c in reversed(u)), tuple(-c for c in reversed(v))))
    return tuple(out)


def naive_special_neighbors(
    monoid: Monoid, word: SignedWord, max_len: int | None = None
) -> list[tuple[WordStep, SignedWord]]:
    """All single special steps from `word`, deterministically ordered.

    A positive (negative) factor matching one side of a relation is always
    contained in a maximal positive (negative) run, so plain subword search
    enumerates exactly the one-relation equivalence steps.  `max_len`
    filters out results longer than the cap; None keeps everything.
    """
    pres = monoid.presentation
    word = tuple(word)
    out: list[tuple[WordStep, SignedWord]] = []

    def emit(step: WordStep, w: SignedWord):
        if max_len is None or len(w) <= max_len:
            out.append((step, w))

    for rule, fac, rep in _equivalence_factors(pres):
        n = len(fac)
        for k in range(len(word) - n + 1):
            if word[k : k + n] == fac:
                emit(WordStep(rule, k, fac, rep), word[:k] + rep + word[k + n :])
    for rule, side in (("rrev", "right"), ("lrev", "left")):
        for k in range(len(word) - 1):
            res = reverse_step(pres, side, word, k)
            if res is not None:
                emit(WordStep(rule, k), res)
    order = {"pos": 0, "neg": 1, "rrev": 2, "lrev": 3}
    out.sort(key=lambda item: (order[item[0].rule], item[0].at, item[0].factor_to))
    return out


# -- the search engine with a heap frontier ----------------------------------

def heap_search(start, successors, is_target, state_budget, priority=0) -> SearchResult:
    """`multifraction._search` with every frontier entry a (priority, tick,
    state) heap tuple: states leave by (priority, insertion tick)."""
    if is_target(start):
        return SearchResult(True, True, (), 1, 0)
    seen: dict = {start: None}  # state -> (parent state, step), None at the start
    frontier = [(priority, 0, start)]
    tick = edges = 0
    reason = None
    while frontier:
        priority, _, cur = heapq.heappop(frontier)
        children, complete = successors(cur)
        if not complete:
            reason = "lcm budget"
        for delta, step, child in children:
            if step is None:  # a cap, outranked by "lcm budget"
                reason = reason or child
                continue
            edges += 1
            if child in seen:
                continue
            if len(seen) >= state_budget:
                return SearchResult(False, False, (), len(seen), edges, "state budget")
            seen[child] = (cur, step)
            if is_target(child):
                trace = []
                while seen[child] is not None:
                    child, st = seen[child]
                    trace.append(st)
                return SearchResult(True, reason is None, tuple(reversed(trace)), len(seen), edges)
            tick += 1
            heapq.heappush(frontier, (priority + delta, tick, child))
    return SearchResult(False, reason is None, (), len(seen), edges, reason)


# -- a reduction window computed from its whole triple -----------------------

def triple_window(m: Monoid, lcm_budget: int, i: int, ids) -> bytes:
    """The memo value of the reduction window at position i of a state with
    entry ids `ids`: one 12-byte (a_{i-1}', comp_x, cofactor) row per divisor
    x of a_{i+1} in order whose lcm with a_i exists (8-byte (b_1, b_2) rows
    at i = 1, read off a_1's divisor table), then `_UNSETTLED` when an lcm
    ran out of budget."""
    pack2, pack3 = Struct("2I").pack, Struct("3I").pack
    element, elems = m.element, m._by_id
    side, lcm_side = ("left", "right") if i % 2 == 0 else ("right", "left")
    divs, cofactors = m._divisor_table(side, elems[ids[i]])  # divs[0] is 1
    if i == 1:
        first = m._divisor_table("right", elems[ids[0]])[1]
        return b"".join([pack2(element(first[x]).id, element(cofactors[x]).id)
                         for x in divs[1:] if x in first])
    prev, cur = elems[ids[i - 2]], elems[ids[i - 1]]
    rows, settled = [], True
    for x in divs[1:]:
        try:
            data = m.lcm_data(lcm_side, x, cur, lcm_budget)
        except BudgetExhausted:
            settled = False
            continue
        if data is not None:
            comp_x, comp_a = data
            new_prev = element(prev.key + comp_a.key if side == "left" else comp_a.key + prev.key)
            rows.append(pack3(new_prev.id, comp_x.id, element(cofactors[x]).id))
    if not settled:
        rows.append(_UNSETTLED)
    return b"".join(rows)
