"""Two-generator (dihedral) Artin machinery: fractional normal forms,
geodesics, and explicit reduction traces from a normal form to a geodesic.

Over a non-free two-generator presentation the lcm of the generators is a
Garside element, so the enveloping group is a group of fractions: every
element has a unique right fractional form a*b^-1 with trivial right gcd
and a unique left form c^-1*d with trivial left gcd.  When both entries of
a form are nontrivial, neither is divisible by the Garside element and
each is represented by a *unique* positive word -- which pins down first
and last letters f(.) and l(.).  These letters control geodesics: a
geodesic starting with a positive letter starts with f(a), one starting
negatively starts with l(c)^-1.

`to_geodesic_trace` turns that letter control into an explicit sequence of
reduction steps carrying 1^(4|v|)/a/b (or 1^(4|v|-1)/c/d) to a
multifraction whose nontrivial entries spell the geodesic v block by
block.  The two workhorses are single reduction steps that swap a pair
between its two fractional forms, and the "walk an entry across a pair of
trivial entries" moves that shuttle peeled letters to the left.
"""

from __future__ import annotations

from .errors import BudgetExhausted, PresentationError, Record, StructuralError, _set
from .monoid import Monoid, MonoidElement
from .multifraction import Multifraction, ReductionStep, apply_reduction
from .reversing import reverse_full, split_terminal
from .words import SignedWord, free_reduce, parse_signed, runs, signed_of_positive

__all__ = ["padding_bound", "FractionPair", "Dihedral"]


def padding_bound(length: int) -> int:
    """The quadratic padding 3*l*(l+2)/4 that suffices at word-length l.

    Only even lengths are meaningful (relations are homogeneous of even
    total length, so words representing 1 have even length); odd input is
    rejected.
    """
    if length < 0 or length % 2:
        raise ValueError(f"word-length must be even and nonnegative, got {length}")
    return 3 * length * (length + 2) // 4


class FractionPair(Record):
    """A gcd-reduced fraction: a*b^-1 (side="right") or c^-1*d (side="left")."""

    __slots__ = ("side", "num", "den")

    def __init__(self, side: str, num: MonoidElement, den: MonoidElement):
        _set(self, "side", side)
        _set(self, "num", num)
        _set(self, "den", den)

    def __str__(self) -> str:
        if self.side == "right":
            return f"({self.num})({self.den})^-1"
        return f"({self.num})^-1({self.den})"


class Dihedral:
    """Fraction and geodesic computations for a labelled generator pair.

    The pair may sit inside a larger presentation; every input word must
    use only these two generators (their parabolic submonoid is closed
    under divisors and lcms, so the ambient monoid operations agree).
    """

    REVERSAL_BUDGET = 100_000

    def __init__(self, monoid: Monoid, s: str, t: str):
        self.monoid = monoid
        pres = monoid.presentation
        m = pres.label(s, t)
        if m is None:
            raise PresentationError(
                f"({s},{t}) is a free pair; fractional normal forms need a finite label"
            )
        self.s, self.t, self.m = s, t, m
        self._letters = frozenset((pres.index(s), pres.index(t)))
        self._relation_sides = tuple(
            pres.encode(side) for rel in pres.relations() for side in (rel.lhs, rel.rhs)
        )
        # keyed by the (num, den) elements of the right form
        self._geo_memo: dict[tuple, tuple[int, SignedWord]] = {}

    # -- basics -----------------------------------------------------------

    def garside(self) -> MonoidElement:
        """The lcm of the two generators: the alternating word of length m."""
        lcm = self.monoid.lcm(
            "right", self.monoid.element(self.s), self.monoid.element(self.t)
        )
        assert lcm is not None  # the label is finite
        return lcm

    def _coerce(self, word) -> SignedWord:
        w = parse_signed(self.monoid.presentation, word) if isinstance(word, str) else tuple(word)
        for c in w:
            if abs(c) - 1 not in self._letters:
                raise PresentationError(
                    f"word uses a generator outside the pair ({self.s},{self.t})"
                )
        return w

    # -- fractional normal forms ------------------------------------------

    def normal_form(self, side: str, word) -> FractionPair:
        """The unique gcd-reduced fraction of cl(word) on the given side.

        Right: reverse to positive-negative shape p*n^-1, then cancel the
        right gcd.  Left is the mirror.  Reversing over a finite label
        always terminates, so budget exhaustion here is structural.
        """
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        w = self._coerce(word)
        m = self.monoid
        try:
            terminal = reverse_full(m.presentation, side, w, self.REVERSAL_BUDGET).word
        except BudgetExhausted as exc:
            raise StructuralError(f"dihedral reversing did not terminate: {exc}") from exc
        split = split_terminal(side, terminal)
        if split is None:
            raise StructuralError(f"{side}-reversing terminal {terminal} is not a fraction")
        num0, den0 = m.element(split[0]), m.element(split[1])
        d = m.gcd(side, num0, den0)
        num = m.divide(side, d, num0)
        den = m.divide(side, d, den0)
        assert num is not None and den is not None
        fp = FractionPair(side, num, den)
        self._validate(fp)
        return fp

    def _validate(self, fp: FractionPair):
        m = self.monoid
        if not m.gcd(fp.side, fp.num, fp.den).is_identity():
            raise StructuralError(f"fraction {fp} is not gcd-reduced")
        if fp.num.is_identity() or fp.den.is_identity():
            return
        delta = self.garside()
        for entry in (fp.num, fp.den):
            if m.divide("left", delta, entry) is not None:
                raise StructuralError(f"fraction entry {entry} is divisible by the Garside element")
            if not self._has_unique_word(entry):
                raise StructuralError(f"fraction entry {entry} has more than one word")

    def _has_unique_word(self, entry: MonoidElement) -> bool:
        """Whether entry's class is its key alone.

        A class is connected by single relation applications, so it has a
        second word exactly when some relation side, here an alternating
        word of length m, occurs in the key.
        """
        return not any(side in entry.key for side in self._relation_sides)

    def _unique_word(self, fp: FractionPair, which: str) -> bytes:
        if fp.num.is_identity() or fp.den.is_identity():
            raise StructuralError(
                "first/last letters need both fraction entries nontrivial"
            )
        entry = fp.num if which == "num" else fp.den
        if not self._has_unique_word(entry):
            raise StructuralError(f"{entry} is not represented by a unique word")
        return entry.key

    def first_letter(self, fp: FractionPair, which: str) -> str:
        """First letter of the unique word of the addressed entry."""
        return self.monoid.presentation.generators[self._unique_word(fp, which)[0]]

    def last_letter(self, fp: FractionPair, which: str) -> str:
        return self.monoid.presentation.generators[self._unique_word(fp, which)[-1]]

    # -- geodesics ---------------------------------------------------------

    def geodesic_length(self, word) -> int:
        w = free_reduce(self._coerce(word))
        length, _ = self._geodesic(w, len(w))
        return length

    def geodesic_word(self, word) -> SignedWord:
        """A geodesic representative of cl(word), of minimal letter count.

        Positive and negative elements return their canonical word (all
        words of such a class are geodesic, by counting signed letters);
        otherwise the word is built letter by letter, at each stage taking
        the first letter of the right form or the inverted last letter of
        the left form, whichever peels down faster, preferring the positive
        letter on ties.
        """
        w = free_reduce(self._coerce(word))
        _, geo = self._geodesic(w, len(w))
        return geo

    def _geodesic(self, w: SignedWord, fuel: int) -> tuple[int, SignedWord] | None:
        """Exact (length, geodesic) when the length is within `fuel`.

        A result is returned (and memoised) only when provably exact: the
        branch through a true geodesic first letter shrinks the length by
        one, so with fuel >= geodesic length the minimum over the two
        candidate letters is exact; candidates that come back above the
        fuel line are upper bounds and can only lose the minimum.
        """
        fright = self.normal_form("right", w)
        if fright.den.is_identity():
            key = fright.num.key
            return len(key), signed_of_positive(key)
        if fright.num.is_identity():
            key = fright.den.key
            return len(key), signed_of_positive(key, -1)
        gkey = (fright.num, fright.den)
        hit = self._geo_memo.get(gkey)
        if hit is not None:
            return hit
        if fuel <= 0:
            return None
        x_pos = self._unique_word(fright, "num")[0]
        x_neg = self._unique_word(self.normal_form("left", w), "num")[-1]
        best: tuple[int, SignedWord] | None = None
        for letter, child in (
            (x_pos + 1, free_reduce((-(x_pos + 1),) + w)),
            (-(x_neg + 1), free_reduce((x_neg + 1,) + w)),
        ):
            sub = self._geodesic(child, fuel - 1)
            if sub is None:
                continue
            cand = (sub[0] + 1, (letter,) + sub[1])
            if best is None or cand[0] < best[0]:
                best = cand
        if best is None:
            return None
        if best[0] <= fuel:
            self._geo_memo[gkey] = best
        return best

    # -- explicit traces to a geodesic --------------------------------------

    def padded_start(self, fp: FractionPair, v) -> Multifraction:
        """1^(4|v|)/num/den for a right form, 1^(4|v|-1)/num/den for a left."""
        v = self._coerce(v)
        pad = 4 * len(v) if fp.side == "right" else 4 * len(v) - 1
        return Multifraction(self.monoid, (b"",) * pad + (fp.num, fp.den))

    def to_geodesic_trace(self, fp: FractionPair, v) -> list[ReductionStep]:
        """Reduction steps from `padded_start(fp, v)` to a multifraction whose
        entries, after dropping trailing trivial ones, spell v block by block.

        Requires cl(fp) neither positive nor negative and v a geodesic word
        for it; violations raise ValueError (mismatched fraction) or
        StructuralError (first-letter control fails, i.e. v not geodesic).
        """
        v = self._coerce(v)
        if fp.num.is_identity() or fp.den.is_identity():
            raise ValueError("the element must be neither positive nor negative")
        check = self.normal_form(fp.side, v)
        if check != fp:
            raise ValueError(f"{fp} is not the {fp.side} fraction of the given word")
        m = self.monoid
        cur = self.padded_start(fp, v)
        pos = cur.depth - 1  # pair occupies (pos, pos+1)
        side = fp.side
        trace: list[ReductionStep] = []

        def step(i: int, x: MonoidElement):
            nonlocal cur
            nxt = apply_reduction(cur, ReductionStep(i, x))
            if nxt is None:
                raise StructuralError(f"constructed step R({i},{x}) failed on {cur}")
            trace.append(ReductionStep(i, x))
            cur = nxt

        def march(bp: int, x: MonoidElement, target: int):
            while bp > target:
                step(bp - 1, x)
                bp -= 2
            if bp != target:
                raise StructuralError("parity mismatch while walking an entry left")

        last_block = 0
        u = v
        while True:
            if all(c > 0 for c in u) or all(c < 0 for c in u):
                positive = u[0] > 0
                pair = (cur.entry(pos), cur.entry(pos + 1))
                if positive == (side == "right"):
                    block, bp, partner = pair[0], pos, pair[1]
                else:
                    block, bp, partner = pair[1], pos + 1, pair[0]
                if not partner.is_identity():
                    raise StructuralError("final fraction entry should be trivial")
                target = last_block + 1 if last_block else (1 if v[0] > 0 else 2)
                if block is not m.element(
                    bytes(abs(c) - 1 for c in (u if positive else tuple(reversed(u))))
                ):
                    raise StructuralError("final block does not spell the geodesic tail")
                march(bp, block, target)
                break
            x = u[0]
            want_side = "right" if x > 0 else "left"
            if side != want_side:
                step(pos, cur.entry(pos + 1))
                pos -= 1
                side = want_side
            pair_fp = FractionPair(side, cur.entry(pos), cur.entry(pos + 1))
            if x > 0:
                letter = self._unique_word(pair_fp, "num")[0]
                if letter + 1 != x:
                    raise StructuralError("geodesic first letter disagrees with the fraction")
            else:
                letter = self._unique_word(pair_fp, "num")[-1]
                if -(letter + 1) != x:
                    raise StructuralError("geodesic first letter disagrees with the fraction")
            xel = m.element(bytes([letter]))
            step(pos - 1, xel)  # peel the letter off the pair
            bp = pos - 2
            same_run = last_block and (last_block % 2 == 1) == (x > 0)
            if same_run:
                march(bp, xel, last_block + 2)
                step(last_block + 1, xel)  # absorb into the current block
            else:
                target = last_block + 1 if last_block else (1 if x > 0 else 2)
                march(bp, xel, target)
                last_block = target
            u = u[1:]

        stripped = cur.strip_trailing_ones()
        expected: list[bytes] = [b""] if v[0] < 0 else []
        for _, key in runs(v):
            expected.append(m.canonical(key))
        if stripped != Multifraction(m, expected):
            raise StructuralError(
                f"trace terminal {stripped} does not sharply represent the geodesic"
            )
        return trace
