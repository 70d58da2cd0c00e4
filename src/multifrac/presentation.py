"""Artin-Tits presentations: generators, Coxeter labels, defining relations.

A presentation is a finite ordered generator set together with a symmetric
label map m(s,t) in {2, 3, ...}; an absent label means m(s,t) = infinity (a
"free pair", no relation).  Each finite label m contributes the single
relation  sts... = tst...  between the two alternating products of length m.
Both sides of that relation represent the right-lcm and the left-lcm of s
and t, which is what makes subword reversing compute lcms.
"""

from __future__ import annotations

from .errors import PresentationError, Record, _set

__all__ = [
    "ArtinPresentation",
    "Relation",
    "alternating_word",
    "parse_presentation",
]


def alternating_word(s: str, t: str, length: int) -> tuple[str, ...]:
    """The alternating product s t s t ... with `length` letters."""
    return tuple(s if k % 2 == 0 else t for k in range(length))


class Relation(Record):
    """One defining relation lhs = rhs (two alternating words of equal length)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple[str, ...], rhs: tuple[str, ...]):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class ArtinPresentation:
    """A validated Artin-Tits presentation.

    Immutable after construction; safe to share between threads.  Generators
    may be arbitrary string tokens, but the CLI word syntax (lowercase =
    generator, uppercase = its inverse) requires single lowercase letters.
    """

    def __init__(self, generators, labels=None):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise PresentationError(f"duplicate generator in {gens!r}")
        for g in gens:
            if not isinstance(g, str) or not g:
                raise PresentationError(f"generator ids must be nonempty strings, got {g!r}")
        self.generators: tuple[str, ...] = gens
        self._index = {g: i for i, g in enumerate(gens)}
        table: dict[tuple[int, int], int] = {}
        for pair, m in (labels or {}).items():
            s, t = pair
            if s not in self._index or t not in self._index:
                raise PresentationError(f"label on unknown generator pair {pair!r}")
            if s == t:
                raise PresentationError(f"label on diagonal pair ({s},{s})")
            if not isinstance(m, int) or m < 2:
                raise PresentationError(f"label m({s},{t}) = {m!r} must be an integer >= 2")
            key = self._pair_key(s, t)
            if key in table and table[key] != m:
                raise PresentationError(
                    f"conflicting labels for pair ({s},{t}): {table[key]} vs {m}"
                )
            table[key] = m
        self._labels = table
        # built and hashed once: the reversing and transform tables hash presentations per call
        self._identity = (gens, tuple(sorted(table.items())))
        self._hash = hash(self._identity)

    def _pair_key(self, s: str, t: str) -> tuple[int, int]:
        i, j = self._index[s], self._index[t]
        return (i, j) if i < j else (j, i)

    def index(self, g: str) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise PresentationError(f"unknown generator {g!r}") from None

    def label(self, s: str, t: str) -> int | None:
        """m(s,t), or None for a free pair (m = infinity)."""
        if s == t:
            raise PresentationError("label is only defined for distinct generators")
        return self._labels.get(self._pair_key(s, t))

    def labelled_pairs(self):
        """(s, t, m) for every finite label, in generator order."""
        for (i, j), m in sorted(self._labels.items()):
            yield self.generators[i], self.generators[j], m

    def relations(self) -> tuple[Relation, ...]:
        """One relation per finite label: the two alternating words of length m."""
        out = []
        for s, t, m in self.labelled_pairs():
            out.append(Relation(alternating_word(s, t, m), alternating_word(t, s, m)))
        return tuple(out)

    def is_sufficiently_large(self) -> bool:
        """Check the triangle condition on the Coxeter diagram.

        True iff every 3-generator subdiagram has either no edge labelled 2,
        or all three edges labelled 2, or at least one free (infinite) edge.
        """
        gens = self.generators
        n = len(gens)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    ms = (
                        self.label(gens[i], gens[j]),
                        self.label(gens[i], gens[k]),
                        self.label(gens[j], gens[k]),
                    )
                    if None in ms:
                        continue
                    twos = sum(1 for m in ms if m == 2)
                    if twos not in (0, 3):
                        return False
        return True

    # -- word encoding -------------------------------------------------
    #
    # Positive words are stored as `bytes` of generator indices; signed
    # words as tuples of nonzero ints, +(: i+1) for generator i, negated
    # for its formal inverse.  Both encodings compare in generator order.

    def encode(self, word) -> bytes:
        """Positive word (string over 1-char generators, or iterable of tokens) -> bytes."""
        if isinstance(word, bytes):
            return word
        return bytes(self.index(tok) for tok in word)

    def decode(self, key: bytes) -> tuple[str, ...]:
        return tuple(self.generators[b] for b in key)

    def word_str(self, key: bytes) -> str:
        """Human-readable positive word; "1" for the empty word."""
        if not key:
            return "1"
        toks = self.decode(key)
        return "".join(toks) if all(len(t) == 1 for t in toks) else ".".join(toks)

    def single_letter_names(self) -> bool:
        return all(len(g) == 1 and g.islower() for g in self.generators)

    def __repr__(self):
        labels = ", ".join(f"m({s},{t})={m}" for s, t, m in self.labelled_pairs())
        return f"ArtinPresentation({' '.join(self.generators)}; {labels or 'free'})"

    def __eq__(self, other):
        return isinstance(other, ArtinPresentation) and self._identity == other._identity

    def __hash__(self):
        return self._hash


def parse_presentation(text: str) -> ArtinPresentation:
    """Parse the presentation file format.

    Lines:  `generators: a b c`   (required, once, before any label line)
            `m: a b 3`            (one per finite label)
            `# ...`               comments; blank lines ignored.
    Any other key is rejected.
    """
    generators: tuple[str, ...] | None = None
    labels: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise PresentationError(f"line {lineno}: expected 'key: ...', got {line!r}")
        key = key.strip()
        fields = rest.split()
        if key == "generators":
            if generators is not None:
                raise PresentationError(f"line {lineno}: repeated 'generators' line")
            generators = tuple(fields)
            if len(set(generators)) != len(generators):
                raise PresentationError(f"line {lineno}: duplicate generator")
        elif key == "m":
            if generators is None:
                raise PresentationError(f"line {lineno}: 'm' line before 'generators'")
            if len(fields) != 3:
                raise PresentationError(f"line {lineno}: expected 'm: s t <label>'")
            s, t, m_str = fields
            try:
                m = int(m_str)
            except ValueError:
                raise PresentationError(f"line {lineno}: label {m_str!r} is not an integer") from None
            if m < 2:
                raise PresentationError(f"line {lineno}: label {m} < 2")
            if s not in generators or t not in generators:
                raise PresentationError(f"line {lineno}: label on undeclared generator")
            if s == t:
                raise PresentationError(f"line {lineno}: label on pair ({s},{s})")
            pair = (s, t) if s < t else (t, s)
            if pair in labels:
                raise PresentationError(f"line {lineno}: pair ({s},{t}) labelled twice")
            labels[pair] = m
        else:
            raise PresentationError(f"line {lineno}: unknown key {key!r}")
    if generators is None:
        raise PresentationError("missing 'generators' line")
    return ArtinPresentation(generators, labels)
