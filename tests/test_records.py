"""The value records keep the behaviour of frozen dataclasses, and importing
the package loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import field, make_dataclass
from pathlib import Path

import pytest

from multifrac import (
    FractionPair,
    Monoid,
    PaddingStrategy,
    ReductionStep,
    Relation,
    SearchResult,
    SplitStep,
    TrimStep,
    Verdict,
    WordStep,
)
from multifrac.reversing import ReversalResult

from oracles import braid_pair

_REQUIRED = object()

# each record's fields in order, with their defaults, and sample values; the
# samples are plain values, since a MonoidElement does not pickle (its Monoid
# holds a lock) and a record checks no field's type
RECORDS = {
    Relation: ({"lhs": _REQUIRED, "rhs": _REQUIRED}, (("a", "b", "a"), ("b", "a", "b"))),
    ReversalResult: ({"word": _REQUIRED, "steps": _REQUIRED}, ((1, -2), 3)),
    ReductionStep: ({"i": _REQUIRED, "x": _REQUIRED}, (2, "ab")),
    SearchResult: ({"found": _REQUIRED, "complete": _REQUIRED, "trace": (), "states": 0, "steps": 0,
                    "reason": None}, (False, False, (), 1000, 3119, "state budget")),
    SplitStep: ({"i": _REQUIRED, "x": _REQUIRED, "y": _REQUIRED}, (1, "aba", "ab")),
    TrimStep: ({"i": _REQUIRED}, (3,)),
    WordStep: ({"rule": _REQUIRED, "at": _REQUIRED, "factor_from": (), "factor_to": ()},
               ("pos", 0, (1, 2, 1), (2, 1, 2))),
    FractionPair: ({"side": _REQUIRED, "num": _REQUIRED, "den": _REQUIRED}, ("right", "ab", "b")),
    PaddingStrategy: ({"kind": _REQUIRED, "amount": 0}, ("constant", 3)),
    Verdict: ({"answer": _REQUIRED, "padding": _REQUIRED, "trace": (), "states": 0, "steps": 0,
               "reason": None}, ("trivial", 6, ((1, 2),), 9, 14, None)),
}


def _dataclass_like(cls, fields):
    """The frozen dataclass a record stands in for, as a reference."""
    spec = [(name, object) if default is _REQUIRED else (name, object, field(default=default))
            for name, default in fields.items()]
    return make_dataclass(cls.__name__, spec, frozen=True)


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    cls = request.param
    fields, args = RECORDS[cls]
    return cls, fields, args


def test_record_fields_defaults_and_keywords(record):
    cls, fields, args = record
    assert cls.__match_args__ == tuple(fields)
    assert cls(**dict(zip(fields, args))) == cls(*args)
    required = [name for name, default in fields.items() if default is _REQUIRED]
    bare = cls(*args[: len(required)])
    for name, default in fields.items():
        if default is not _REQUIRED:
            assert getattr(bare, name) == default


def test_record_equality_hash_and_repr_match_the_dataclass(record):
    cls, fields, args = record
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b and hash(a) == hash(b) == hash(args)
    assert len({a, b}) == 1
    reference = _dataclass_like(cls, fields)(*args)
    assert repr(a) == repr(reference)
    assert hash(a) == hash(reference)
    # equal fields in another class: not equal, as between dataclasses
    assert a != reference and reference != a
    other = type("Other", (cls,), {"__slots__": ()})(*args)
    assert a != other and other != a
    assert repr(other) == "Other" + repr(a)[len(cls.__name__):]
    assert a != cls(*args[:-1], ("changed",))


def test_record_is_frozen(record):
    cls, fields, args = record
    a = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == args[list(fields).index(name)]
    with pytest.raises(AttributeError):
        a.unknown = 1


def test_record_pickles_copies_and_matches(record):
    cls, fields, args = record
    a = cls(*args)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a
    match a:
        case cls(first):
            assert first == args[0]
        case _:
            pytest.fail("the class pattern did not match")


def test_record_reprs_embed_element_reprs():
    m = Monoid(braid_pair(3))
    ab, b = m.element(m.presentation.encode("ab")), m.element(m.presentation.encode("b"))
    assert repr(ReductionStep(2, ab)) == "ReductionStep(i=2, x=<ab>)"
    assert repr(SplitStep(1, ab, b)) == "SplitStep(i=1, x=<ab>, y=<b>)"
    assert repr(PaddingStrategy("constant", amount=3)) == "PaddingStrategy(kind='constant', amount=3)"
    assert repr(SearchResult(True, True)) == (
        "SearchResult(found=True, complete=True, trace=(), states=0, steps=0, reason=None)")
    assert repr(WordStep("rrev", 1)) == "WordStep(rule='rrev', at=1, factor_from=(), factor_to=())"


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    code = ("import sys; before = set(sys.modules); import multifrac, multifrac.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, check=True)
    assert out.stdout == "[]\n"
