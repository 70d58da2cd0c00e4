"""Independent oracles used by the test-suite.

Nothing here goes through the code paths under test: word classes are
recomputed by a string-level saturation, lcms by enumerating bounded
multiple sets, and group equality over a single labelled pair by normal
forms in the central extension  < x, y | x^2 = y^m >  (m odd)  resp.
< x, y | x^(m/2) central >  (m even), both of which are the enveloping
group of the two-generator Artin-Tits monoid.  Special transformations are
enumerated by trying every relation factor and every reversing position,
then sorting.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from multifrac import Monoid, MonoidElement, WordStep
from multifrac.presentation import ArtinPresentation, alternating_word
from multifrac.reversing import reverse_step
from multifrac.words import SignedWord, free_reduce, invert, parse_signed, signed_of_positive


# -- string-level congruence closure (independent of the package kernel) ----

def naive_class(word: str, relations: list[tuple[str, str]]) -> frozenset[str]:
    """Saturate a word under string rewriting with the given relations."""
    rules = [(l, r) for l, r in relations] + [(r, l) for l, r in relations]
    seen = {word}
    todo = [word]
    while todo:
        w = todo.pop()
        for lhs, rhs in rules:
            k = w.find(lhs)
            while k >= 0:
                u = w[:k] + rhs + w[k + len(lhs):]
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
                k = w.find(lhs, k + 1)
    return frozenset(seen)


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
        from multifrac.monoid import congruence_class

        self.monoid = monoid
        self.bound = bound
        self.sweep = list(sweep)
        slot = {e.key: i for i, e in enumerate(self.sweep)}
        self._slots = slot
        max_sweep = max((len(e.key) for e in self.sweep), default=0)
        rules = monoid.rewrite_rules
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


# -- dihedral group oracle ---------------------------------------------------

class DihedralGroupOracle:
    """Exact equality in the enveloping group of < s, t | alt(m) = alt(m) >.

    Elements are normal forms (z_exponent, syllables) in the central
    extension; the construction is self-checked at init by verifying the
    defining relation and that the generators stay distinct.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("label must be at least 2")
        self.m = m
        if m % 2:
            self.x_order, self.y_order = 2, m  # x^2 = z = y^m
        else:
            self.x_order, self.y_order = m // 2, 0  # x^(m/2) = z, y free
        x = (0, (("x", 1),)) if self.x_order != 1 else (1, ())
        y = (0, (("y", 1),))
        if m % 2:
            half = (m - 1) // 2
            self.gen_a = self.mul(self.power(y, -half), x)
            self.gen_b = self.mul(self.inverse(x), self.power(y, half + 1))
        else:
            self.gen_a = y
            self.gen_b = self.mul(self.inverse(y), x)
        lhs = self._positive(alternating_string("a", "b", m))
        rhs = self._positive(alternating_string("b", "a", m))
        assert lhs == rhs, "oracle construction broke the defining relation"
        assert self.gen_a != self.gen_b != self.identity != self.gen_a

    identity = (0, ())

    def _norm_syllable(self, gen: str, exp: int):
        """(z-carry, reduced syllable or None)."""
        order = self.x_order if gen == "x" else self.y_order
        if order:
            carry, exp = divmod(exp, order)
        else:
            carry = 0
        return carry, None if exp == 0 else (gen, exp)

    def _push(self, stack: list, gen: str, exp: int) -> int:
        """Append one syllable, merging with the top; returns the z-carry."""
        z = 0
        while stack and stack[-1][0] == gen:
            _, a = stack.pop()
            exp += a
        carry, reduced = self._norm_syllable(gen, exp)
        z += carry
        if reduced is not None:
            stack.append(reduced)
        return z

    def mul(self, e1, e2):
        z = e1[0] + e2[0]
        stack = list(e1[1])
        for gen, exp in e2[1]:
            z += self._push(stack, gen, exp)
        return (z, tuple(stack))

    def power(self, e, k: int):
        out = self.identity
        base = e if k >= 0 else self.inverse(e)
        for _ in range(abs(k)):
            out = self.mul(out, base)
        return out

    def inverse(self, e):
        out = (-e[0], ())
        for gen, exp in reversed(e[1]):
            out = self.mul(out, (0, ((gen, -exp),)))
        return out

    def _positive(self, word: str):
        out = self.identity
        for ch in word:
            out = self.mul(out, self.gen_a if ch == "a" else self.gen_b)
        return out

    def value(self, word: SignedWord):
        """Image of a signed word over the pair (letters +-1 = a, +-2 = b)."""
        out = self.identity
        for c in word:
            img = self.gen_a if abs(c) == 1 else self.gen_b
            out = self.mul(out, img if c > 0 else self.inverse(img))
        return out

    def equal(self, w1: SignedWord, w2: SignedWord) -> bool:
        return self.value(w1) == self.value(w2)

    def is_identity_word(self, word: SignedWord) -> bool:
        return self.value(word) == self.identity


def alternating_string(s: str, t: str, length: int) -> str:
    return "".join(alternating_word(s, t, length))


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
        lhs = parse_signed(pres, alternating_string(s, t, m))
        rhs = parse_signed(pres, alternating_string(t, s, m))
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
