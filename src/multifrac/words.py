"""Signed words over a presentation's generators and their formal inverses.

A signed word is a tuple of nonzero ints: +(i+1) is generator number i,
-(i+1) its inverse.  The string syntax (external interface) writes a
positive letter as the lowercase generator name and its inverse as the
corresponding uppercase letter, with no separators: "abC" = a b c^-1.
Free reduction is *not* applied implicitly anywhere; the rewriting systems
in this package treat deletion of trivial factors as an explicit step.

The special-transformation search runs on byte words, one byte per signed
letter: generator number i is the byte i+1 and its inverse the byte
0x80 | (i+1), so a byte word covers up to 127 generators.
"""

from __future__ import annotations

from .errors import PresentationError
from .presentation import ArtinPresentation

SignedWord = tuple[int, ...]

__all__ = [
    "SignedWord",
    "parse_signed",
    "check_signed",
    "signed_str",
    "invert",
    "free_reduce",
    "signed_of_positive",
    "positive_of_run",
    "runs",
    "bytes_of_signed",
    "signed_of_bytes",
    "MAX_BYTE_LETTER",
]

MAX_BYTE_LETTER = 0x7F  # the largest generator number a byte word holds


def parse_signed(pres: ArtinPresentation, text: str) -> SignedWord:
    """Parse the lowercase/uppercase word syntax."""
    if not pres.single_letter_names():
        raise PresentationError(
            "string word syntax needs single lowercase-letter generators"
        )
    out = []
    for ch in text:
        if ch.islower():
            out.append(pres.index(ch) + 1)
        elif ch.isupper():
            out.append(-(pres.index(ch.lower()) + 1))
        else:
            raise PresentationError(f"bad letter {ch!r} in signed word {text!r}")
    return tuple(out)


def check_signed(pres: ArtinPresentation, word) -> SignedWord:
    """word as a tuple; PresentationError when a letter is 0 or past the last generator."""
    word = tuple(word)
    n = len(pres.generators)
    for x in word:
        if not x or abs(x) > n:
            raise PresentationError(f"letter {x!r} of signed word {word!r} is not a generator 1..{n} or its inverse")
    return word


def signed_str(pres: ArtinPresentation, word: SignedWord) -> str:
    if not word:
        return ""
    parts = []
    for x in word:
        name = pres.generators[abs(x) - 1]
        parts.append(name if x > 0 else name.upper())
    return "".join(parts)


def invert(word: SignedWord) -> SignedWord:
    """Formal inverse: swap signs and reverse the letter order."""
    return tuple(-x for x in reversed(word))


def free_reduce(word: SignedWord) -> SignedWord:
    """Delete all factors x x^-1 and x^-1 x (iterated to a fixed point)."""
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def signed_of_positive(key: bytes, sign: int = 1) -> SignedWord:
    """Positive word bytes -> signed word; sign=-1 yields its inverse block."""
    if sign > 0:
        return tuple(b + 1 for b in key)
    return tuple(-(b + 1) for b in reversed(key))


def positive_of_run(run: SignedWord) -> bytes:
    """Letters of a single-sign run -> the underlying positive word.

    For a negative run this is the word u with run = invert(u).
    """
    if not run:
        return b""
    if run[0] > 0:
        return bytes(x - 1 for x in run)
    return bytes(-x - 1 for x in reversed(run))


def runs(word: SignedWord) -> list[tuple[int, bytes]]:
    """Maximal constant-sign runs as (sign, positive word) pairs, in order."""
    out: list[tuple[int, bytes]] = []
    i, n = 0, len(word)
    while i < n:
        sign = 1 if word[i] > 0 else -1
        j = i
        while j < n and (word[j] > 0) == (sign > 0):
            j += 1
        out.append((sign, positive_of_run(word[i:j])))
        i = j
    return out


def bytes_of_signed(word: SignedWord) -> bytes:
    """Signed word -> byte word: g -> g, g^-1 -> 0x80 | g."""
    if word and max(map(abs, word)) > MAX_BYTE_LETTER:
        raise ValueError(f"a byte word holds generators 1..{MAX_BYTE_LETTER} only")
    return bytes(x if x > 0 else 0x80 - x for x in word)


def signed_of_bytes(word: bytes) -> SignedWord:
    """Byte word -> signed word, the inverse of `bytes_of_signed`."""
    return tuple(b if b < 0x80 else 0x80 - b for b in word)
