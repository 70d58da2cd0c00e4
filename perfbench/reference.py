"""Independent verdict references for the benchmark corpus.

Nothing here imports multifrac: words are tuples of nonzero ints (+i is
generator number i, counted from 1, and -i its inverse), presentations are
plain (generators, labels) data from spec.json, and every test computes an
image of the word in a group where equality is decidable.

* I2(m): exact normal forms in the central extension that is the
  enveloping group of < a, b | alt(m) = alt(m) > (the construction used by
  the test-suite's dihedral oracle).  Settles every word.
* A3 = the 4-strand braid group: Artin's action on the free group F4,
  computed exactly by free reduction.  The action is faithful, so unlike a
  Burau matrix (whose faithfulness on B4 is open) it settles every word.
* Other presentations with labels 2 and 3 (here the all-threes A2~): the
  exponent sums over the classes of generators joined by odd labels, and
  the Tits reflection image of the Coxeter group, which is exact over the
  integers because 2cos(pi/3) and 2cos(pi/2) are.  A nonzero sum or a
  nonidentity image proves the word nontrivial; otherwise only words that
  are trivial by construction are settled.

Positive-monoid results (divisors, gcd, lcm) are checked by a string-level
congruence closure, separate from the package kernel, up to a class-size
cap; larger elements are reported as unsettled.
"""

from __future__ import annotations

TRIVIAL, NONTRIVIAL = True, False  # is_trivial() answers; None = cannot settle


def alternating(s, t, length):
    return tuple(s if k % 2 == 0 else t for k in range(length))


def inverse(word):
    return tuple(-c for c in reversed(word))


def free_reduce(word):
    out = []
    for c in word:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


# -- I2(m): central-extension normal forms ------------------------------------

class DihedralGroup:
    """Exact equality in the enveloping group of < a, b | alt(m) = alt(m) >.

    Elements are (z-exponent, syllables) normal forms in < x, y | x^2 = y^m >
    (m odd) or < x, y | x^(m/2) central > (m even).
    """

    identity = (0, ())

    def __init__(self, m: int):
        self.m = m
        if m % 2:
            self.x_order, self.y_order = 2, m
        else:
            self.x_order, self.y_order = m // 2, 0
        x = (0, (("x", 1),)) if self.x_order != 1 else (1, ())
        y = (0, (("y", 1),))
        if m % 2:
            half = (m - 1) // 2
            self.gen_a = self.mul(self.power(y, -half), x)
            self.gen_b = self.mul(self.inverse(x), self.power(y, half + 1))
        else:
            self.gen_a = y
            self.gen_b = self.mul(self.inverse(y), x)
        if self.value(alternating(1, 2, m) + inverse(alternating(2, 1, m))) != self.identity:
            raise AssertionError("dihedral reference broke the defining relation")
        if self.gen_a == self.gen_b or self.identity in (self.gen_a, self.gen_b):
            raise AssertionError("dihedral reference collapsed a generator")

    def _push(self, stack, gen, exp):
        while stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        order = self.x_order if gen == "x" else self.y_order
        carry = 0
        if order:
            carry, exp = divmod(exp, order)
        if exp:
            stack.append((gen, exp))
        return carry

    def mul(self, e1, e2):
        z = e1[0] + e2[0]
        stack = list(e1[1])
        for gen, exp in e2[1]:
            z += self._push(stack, gen, exp)
        return (z, tuple(stack))

    def power(self, e, k):
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

    def value(self, word):
        out = self.identity
        for c in word:
            img = self.gen_a if abs(c) == 1 else self.gen_b
            out = self.mul(out, img if c > 0 else self.inverse(img))
        return out

    def is_trivial(self, word):
        return self.value(word) == self.identity


# -- A3 = B4: Artin's faithful action on the free group F4 --------------------

class BraidGroup:
    """Word problem of the braid group on `strands` strands (sigma_i = +i)."""

    def __init__(self, strands: int):
        self.n = strands
        if self.is_trivial((1, 2)):
            raise AssertionError("braid reference collapsed a nontrivial braid")

    def artin_images(self, word, max_letters=200_000):
        """Images of x1..xn under the braid, or None past `max_letters`."""
        imgs = [[j] for j in range(1, self.n + 1)]
        for c in word:
            i = abs(c)
            if c > 0:
                sub = {i: (i, i + 1, -i), i + 1: (i,)}
            else:
                sub = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
            new = []
            for img in imgs:
                out: list[int] = []
                for y in img:
                    rep = sub.get(abs(y))
                    if rep is None:
                        rep = (y,)
                    elif y < 0:
                        rep = tuple(-z for z in reversed(rep))
                    for z in rep:
                        if out and out[-1] == -z:
                            out.pop()
                        else:
                            out.append(z)
                new.append(out)
            imgs = new
            if sum(map(len, imgs)) > max_letters:
                return None
        return imgs

    def is_trivial(self, word):
        imgs = self.artin_images(word)
        if imgs is None:
            return None
        return all(img == [j + 1] for j, img in enumerate(imgs))


# -- labels 2 and 3: exponent sums and the Tits reflection image -------------

class CoxeterImage:
    """Nontriviality certificates for presentations with labels in {2, 3}."""

    def __init__(self, n: int, labels: dict):
        self.n = n
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for (i, j), m in labels.items():
            if m % 2:
                parent[find(i)] = find(j)
        self.cls = [find(i) for i in range(n)]
        # 2B(e_i, e_j): 2 on the diagonal, -2cos(pi/m) = -1 (m=3), 0 (m=2), -2 (free)
        two_b = [[2 if i == j else {3: -1, 2: 0, None: -2}[labels.get((min(i, j), max(i, j)))]
                  for j in range(n)] for i in range(n)]
        self.refl = []
        for s in range(n):
            # sigma_s(v) = v - 2B(e_s, v) e_s, as a matrix acting on columns
            mat = [[int(r == c) for c in range(n)] for r in range(n)]
            for c in range(n):
                mat[s][c] -= two_b[s][c]
            self.refl.append(mat)

    def certifies_nontrivial(self, word) -> bool:
        sums = {}
        for c in word:
            k = self.cls[abs(c) - 1]
            sums[k] = sums.get(k, 0) + (1 if c > 0 else -1)
        if any(sums.values()):
            return True
        n = self.n
        acc = [[int(r == c) for c in range(n)] for r in range(n)]
        for c in word:
            g = self.refl[abs(c) - 1]
            acc = [[sum(acc[r][k] * g[k][col] for k in range(n)) for col in range(n)] for r in range(n)]
        return acc != [[int(r == c) for c in range(n)] for r in range(n)]


class WordReference:
    """is_trivial(word, known_trivial) -> True, False, or None (cannot settle)."""

    def __init__(self, generators: str, labels):
        self.generators = generators
        n = len(generators)
        idx = {g: i for i, g in enumerate(generators)}
        lab = {}
        for s, t, m in labels:
            i, j = sorted((idx[s], idx[t]))
            lab[(i, j)] = m
        self.labels = lab
        self._dihedral = self._braid = self._coxeter = None
        if n == 2 and (0, 1) in lab:
            self._dihedral = DihedralGroup(lab[(0, 1)])
        elif n == 3 and lab == {(0, 1): 3, (1, 2): 3, (0, 2): 2}:
            self._braid = BraidGroup(4)
        elif set(lab.values()) <= {2, 3}:
            self._coxeter = CoxeterImage(n, lab)
        else:
            raise ValueError(f"no reference for labels {labels}")
        for rel in self.relators():
            if self.is_trivial(rel, known_trivial=True) is not TRIVIAL:
                raise AssertionError(f"reference for {generators} {labels} rejects a defining relation")

    def relators(self):
        """lhs * rhs^-1 for each defining relation, as signed words."""
        out = []
        for (i, j), m in sorted(self.labels.items()):
            out.append(alternating(i + 1, j + 1, m) + inverse(alternating(j + 1, i + 1, m)))
        return out

    def is_trivial(self, word, known_trivial=False):
        if not free_reduce(word):
            return TRIVIAL
        if self._dihedral is not None:
            return self._dihedral.is_trivial(word)
        if self._braid is not None:
            return self._braid.is_trivial(word)
        if self._coxeter.certifies_nontrivial(word):
            return NONTRIVIAL
        return TRIVIAL if known_trivial else None


# -- positive monoid: string-level congruence closure --------------------------

class PositiveMonoid:
    """Classes, divisors, gcds and lcm checks by saturating letter strings."""

    def __init__(self, generators: str, labels, class_cap: int):
        rules = []
        for s, t, m in labels:
            lhs, rhs = "".join(alternating(s, t, m)), "".join(alternating(t, s, m))
            rules += [(lhs, rhs), (rhs, lhs)]
        self.rules = rules
        self.class_cap = class_cap
        self._canon: dict[str, str] = {}
        self._classes: dict[str, frozenset] = {}

    def word_class(self, word: str):
        """All words equal to `word`, or None past the class-size cap."""
        cls = self._classes.get(word)
        if cls is not None:
            return cls
        seen = {word}
        todo = [word]
        while todo:
            w = todo.pop()
            for lhs, rhs in self.rules:
                k = w.find(lhs)
                while k >= 0:
                    u = w[:k] + rhs + w[k + len(lhs):]
                    if u not in seen:
                        seen.add(u)
                        todo.append(u)
                        if len(seen) > self.class_cap:
                            return None
                    k = w.find(lhs, k + 1)
        cls = frozenset(seen)
        canon = min(cls)
        for w in cls:
            self._classes[w] = cls
            self._canon[w] = canon
        return cls

    def canonical(self, word: str):
        if word not in self._canon and self.word_class(word) is None:
            return None
        return self._canon[word]

    def divisors(self, side: str, word: str):
        """Canonical words of all left (right) divisors, or None past the cap."""
        cls = self.word_class(word)
        if cls is None:
            return None
        out = set()
        for w in cls:
            for k in range(len(w) + 1):
                d = self.canonical(w[:k] if side == "left" else w[len(w) - k:])
                if d is None:
                    return None
                out.add(d)
        return out

    def gcd(self, side: str, x: str, y: str):
        dx, dy = self.divisors(side, x), self.divisors(side, y)
        if dx is None or dy is None:
            return None
        common = dx & dy
        top = max(len(d) for d in common)
        best = [d for d in common if len(d) == top]
        return best[0] if len(best) == 1 else "<not unique>"

    def is_lcm(self, side: str, x: str, y: str, z: str):
        """Whether z is the right- (left-) lcm of x and y; None past the cap.

        z is a common multiple, and no element obtained by removing one last
        (first) letter from z is still a common multiple.
        """
        div_side = "left" if side == "right" else "right"
        dz = self.divisors(div_side, z)
        cx, cy = self.canonical(x), self.canonical(y)
        if dz is None or cx is None or cy is None:
            return None
        if cx not in dz or cy not in dz:
            return False
        smaller = {self.canonical(w[:-1] if side == "right" else w[1:])
                   for w in self.word_class(z) if w}
        for s in smaller:
            ds = None if s is None else self.divisors(div_side, s)
            if ds is None:
                return None
            if cx in ds and cy in ds:
                return False
        return True
