import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from multifrac import (
    ArtinPresentation,
    Monoid,
    Multifraction,
    PaddingStrategy,
    apply_reduction,
    decide,
    verdict_json,
)
from multifrac.cli import main
from multifrac.reversing import DEFAULT_STEP_BUDGET
from multifrac.words import parse_signed

from oracles import all_threes, braid_pair, random_identity_word

A2_TEXT = "generators: a b\nm: a b 3\n"
A2T_TEXT = "generators: a b c\nm: a b 3\nm: b c 3\nm: a c 3\n"


@pytest.fixture(scope="module")
def a2():
    return Monoid(braid_pair(3))


@pytest.fixture()
def a2_file(tmp_path):
    f = tmp_path / "a2.txt"
    f.write_text(A2_TEXT)
    return str(f)


@pytest.fixture()
def a2t_file(tmp_path):
    f = tmp_path / "a2t.txt"
    f.write_text(A2T_TEXT)
    return str(f)


def test_decide_trivial(a2):
    v = decide(a2, "abaBAB")
    assert v.answer == "trivial" and v.trace
    assert decide(a2, "").answer == "trivial"


def test_decide_nontrivial_needs_completeness_flag(a2):
    assert decide(a2, "a").answer == "undetermined"
    assert decide(a2, "a", assume_fc=True).answer == "nontrivial"
    # two-generator diagrams satisfy the triangle condition, so the
    # quadratic strategy is complete here as well
    assert decide(a2, "a", PaddingStrategy.quadratic()).answer == "nontrivial"


def test_decide_nontrivial_beyond_convergent_type():
    # on a sufficiently-large (but not convergent-type) presentation, the
    # quadratic padding makes an exhausted search a proof of nontriviality
    mon = Monoid(all_threes())
    v = decide(mon, "aB", PaddingStrategy.quadratic())
    assert v.answer == "nontrivial" and v.padding == 6
    assert decide(mon, "aB").answer == "undetermined"
    v2 = decide(mon, "bcbCBC", PaddingStrategy.quadratic())
    assert v2.answer == "trivial"


def test_decide_monotone_in_padding(a2):
    rng = random.Random(59)
    for _ in range(6):
        w = random_identity_word(rng, a2.presentation, 6)
        for p in (0, 1, 2):
            v = decide(a2, w, PaddingStrategy.constant(p), assume_fc=True)
            assert v.answer == "trivial"
            assert v.padding == p


def test_strategies(a2):
    a = Multifraction.from_signed_word(a2, parse_signed(a2.presentation, "abaB"))
    assert PaddingStrategy.none().padding_for(a) == 0
    assert PaddingStrategy.constant(3).padding_for(a) == 3
    assert PaddingStrategy.quadratic().padding_for(a) == 18  # wl 4 -> 3*4*6/4
    odd = Multifraction.from_signed_word(a2, parse_signed(a2.presentation, "aba"))
    assert PaddingStrategy.quadratic().padding_for(odd) == 18  # wl 3 rounds up to 4
    with pytest.raises(ValueError):
        PaddingStrategy.constant(-1)


def test_trace_revalidates(a2):
    w = parse_signed(a2.presentation, "babABA")
    v = decide(a2, w)
    assert v.answer == "trivial"
    cur = Multifraction.from_signed_word(a2, w).pad(v.padding)
    for step in v.trace:
        cur = apply_reduction(cur, step)
    assert cur.is_trivial()


def test_decide_settles_every_lcm_at_its_lcm_budget(monkeypatch):
    # the search and the revalidation of its trace use the same lcm budget
    budgets = set()
    plain = Monoid.lcm_data

    def spy(self, side, x, y, budget=DEFAULT_STEP_BUDGET):
        budgets.add(budget)
        return plain(self, side, x, y, budget)

    monkeypatch.setattr(Monoid, "lcm_data", spy)
    a3 = ArtinPresentation("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2})
    v = decide(Monoid(a3), "acAC", PaddingStrategy.constant(1), lcm_budget=777)
    assert v.answer == "trivial"
    assert [st.json_obj() for st in v.trace] == [{"i": 3, "rule": "R", "x": "ac"}]
    assert budgets == {777}


def test_json_deterministic(a2):
    v1 = decide(a2, "abaBAB")
    v2 = decide(a2, "abaBAB")
    s1 = verdict_json(a2, "abaBAB", v1)
    s2 = verdict_json(a2, "abaBAB", v2)
    assert s1 == s2
    obj = json.loads(s1)
    assert obj["version"] == 1 and obj["answer"] == "trivial"
    assert obj["stats"]["states"] > 0
    assert obj["presentation"]["labels"] == [["a", "b", 3]]


# -- command line ------------------------------------------------------------

def test_cli_solve(a2_file, capsys):
    assert main(["solve", "--presentation", a2_file, "abaBAB"]) == 0
    out = capsys.readouterr().out
    assert "trivial" in out
    assert main(["solve", "--presentation", a2_file, "a", "--assume-fc"]) == 1
    assert main(["solve", "--presentation", a2_file, "a"]) == 2


def test_cli_solve_json(a2_file, capsys):
    assert main(["solve", "--presentation", a2_file, "abaBAB", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["answer"] == "trivial"
    assert obj["trace"][0]["rule"] == "R"


def test_cli_bound(capsys):
    assert main(["bound", "4"]) == 0
    assert capsys.readouterr().out.strip() == "18"
    assert main(["bound", "3"]) == 3  # odd rejected as usage error


def test_cli_classify(a2t_file, capsys):
    assert main(["classify", "--presentation", a2t_file]) == 0
    assert capsys.readouterr().out.strip() == "sufficiently-large: true"


def test_cli_lcm_gcd_nf_reverse(a2_file, capsys):
    assert main(["lcm", "--presentation", a2_file, "a", "b"]) == 0
    assert capsys.readouterr().out.strip() == "aba"
    assert main(["gcd", "--presentation", a2_file, "--side", "left", "aba", "ab"]) == 0
    assert capsys.readouterr().out.strip() == "ab"
    assert main(["nf", "--presentation", a2_file, "--side", "left", "aB"]) == 0
    assert capsys.readouterr().out.strip() == "(ab)^-1(ba)"
    assert main(["reverse", "--presentation", a2_file, "Ab"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "baBA"


def test_cli_free_pair_lcm(tmp_path, capsys):
    f = tmp_path / "free.txt"
    f.write_text("generators: a b\n")
    assert main(["lcm", "--presentation", str(f), "a", "b"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_cli_lcm_trip_names_the_lcm(a2t_file, capsys):
    # on A2~ reversing (ab)^-1 c never ends: the lcm is undetermined, and the
    # trip names the lcm whichever limit it passed
    for side in ("right", "left"):
        assert main(["lcm", "--presentation", a2t_file, "--side", side, "ab", "c"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"undetermined: {side}-lcm of ab and c undetermined within budget\n"


def test_cli_strategy_flags(a2t_file, capsys):
    rc = main(["solve", "--presentation", a2t_file, "aB", "--strategy", "quadratic"])
    assert rc == 1
    assert "nontrivial" in capsys.readouterr().out
    # a constant that reaches the quadratic bound for this instance is
    # still a completeness certificate; one below it is not
    rc = main(["solve", "--presentation", a2t_file, "aB",
               "--strategy", "constant", "--padding", "6"])
    assert rc == 1
    rc = main(["solve", "--presentation", a2t_file, "aB",
               "--strategy", "constant", "--padding", "2"])
    assert rc == 2
    rc = main(["solve", "--presentation", a2t_file, "bcbCBC"])
    assert rc == 0


def test_cli_padding_needs_constant_strategy(a2t_file, capsys):
    for strategy in ([], ["--strategy", "quadratic"]):
        argv = ["solve", "--presentation", a2t_file, "aB", "--padding", "1", *strategy]
        assert main(argv) == 3
        assert capsys.readouterr().out == ""
    # constant alone still pads 0
    assert main(["solve", "--presentation", a2t_file, "aB", "--strategy", "constant"]) == 2
    assert "(padding 0," in capsys.readouterr().out


def test_cli_nf_pair_flag(a2t_file, capsys):
    assert main(["nf", "--presentation", a2t_file, "--pair", "ab",
                 "--side", "right", "a"]) == 0
    assert capsys.readouterr().out.strip() == "(a)(1)^-1"


PROPH_SPLIT_STDOUT = {
    ("proph", "abaBAB"): (0, (
        "{'rule': 'pos', 'at': 0, 'from': 'aba', 'to': 'bab'}\n"
        "{'rule': 'lrev', 'at': 2}\n"
        "{'rule': 'lrev', 'at': 1}\n"
        "{'rule': 'lrev', 'at': 0}\n"
        "empty word reached (states 9)\n"
    )),
    ("proph", "ab"): (2, "not emptied (states 1)\n"),
    ("proph", "abaBAB", "--state-budget", "3"): (2, "not emptied (states 3, state budget)\n"),
    ("split", "abaBAB"): (0, (
        "{'rule': 'S', 'i': 1, 'x': 'aba', 'y': 'aba'}\n"
        "trivial (states 36, steps 35)\n"
    )),
    ("split", "abAB", "--max-depth", "4"): (2, "not found (states 9, steps 12, depth cap)\n"),
    ("reduce", "abaBAB"): (0, (
        "{'rule': 'R', 'i': 1, 'x': 'a'}\n"
        "{'rule': 'R', 'i': 1, 'x': 'b'}\n"
        "{'rule': 'R', 'i': 1, 'x': 'a'}\n"
        "irreducible: 1/1\n"
    )),
    # "irreducible" only when a complete enumeration of the last state found no step
    ("reduce", "abaBAB", "--max-steps", "0"): (2, "stopped after 0 steps: aba/aba\n"),
    ("reduce", "abaBAB", "--max-steps", "1"): (2, (
        "{'rule': 'R', 'i': 1, 'x': 'a'}\n"
        "stopped after 1 steps: ab/ab\n"
    )),
}


def test_cli_proph_split_reduce(a2_file, a2t_file, capsys):
    for (command, *rest), want in PROPH_SPLIT_STDOUT.items():
        code = main([command, "--presentation", a2_file, *rest])
        assert (code, capsys.readouterr().out) == want, (command, *rest)
    # an lcm of the last state ran out of budget, so it may still reduce
    assert main(["reduce", "--presentation", a2t_file, "abcABCabcABC"]) == 2
    assert capsys.readouterr().out == "undetermined (lcm budget): abc/cba/abc/cba\n"


def test_cli_proph_exits_4_when_its_trace_does_not_revalidate(a2_file, monkeypatch, capsys):
    # a^-1 b right-reverses to b a b^-1 a^-1; the corrupted entry claims it deletes
    from multifrac.transforms import _step_table
    from multifrac.words import bytes_of_signed

    table = _step_table(braid_pair(3))  # the file's presentation is equal, so it reads this table
    key = bytes_of_signed((-1, 2))
    kind, fac, n, _, _ = table[key]
    monkeypatch.setitem(table, key, (kind, fac, n, b"", -2))
    assert main(["proph", "--presentation", a2_file, "Ab"]) == 4
    assert capsys.readouterr().out == ""


def test_cli_split_exits_4_when_its_trace_does_not_revalidate(a2_file, monkeypatch, capsys):
    # abAB is nontrivial; a trim kernel that merges every window into the identity empties it
    from multifrac.split import _SplitStates

    monkeypatch.setattr(_SplitStates, "_trim", lambda self, i, ids: bytes(4))
    assert main(["split", "--presentation", a2_file, "abAB"]) == 4
    assert capsys.readouterr().out == ""


QUADRATIC_JSON = {
    ("A2", "abAB"): '{"version":1,"presentation":{"generators":["a","b"],"labels":[["a","b",3]]},'
    '"input":"abAB","padding":18,"answer":"undetermined","trace":[],'
    '"stats":{"states":1000,"steps":3119},"reason":"state budget"}',
    ("A2", "aaBB"): '{"version":1,"presentation":{"generators":["a","b"],"labels":[["a","b",3]]},'
    '"input":"aaBB","padding":18,"answer":"undetermined","trace":[],'
    '"stats":{"states":1000,"steps":2587},"reason":"state budget"}',
    ("A2", "aB"): '{"version":1,"presentation":{"generators":["a","b"],"labels":[["a","b",3]]},'
    '"input":"aB","padding":6,"answer":"undetermined","trace":[],'
    '"stats":{"states":1000,"steps":3473},"reason":"state budget"}',
    ("A2T", "abcABC"): '{"version":1,"presentation":{"generators":["a","b","c"],'
    '"labels":[["a","b",3],["a","c",3],["b","c",3]]},"input":"abcABC","padding":36,'
    '"answer":"undetermined","trace":[],"stats":{"states":1000,"steps":2725},'
    '"reason":"state budget"}',
}


@pytest.mark.parametrize("pres, word", list(QUADRATIC_JSON), ids=lambda v: v)
def test_cli_quadratic_json_bytes(pres, word, tmp_path, capsys):
    # the words every padded-quadratic benchmark run must answer
    f = tmp_path / "pres.txt"
    f.write_text({"A2": A2_TEXT, "A2T": A2T_TEXT}[pres])
    argv = ["solve", "--presentation", str(f), word, "--strategy", "quadratic", "--json",
            "--state-budget", "1000"]
    assert main(argv) == 2
    assert capsys.readouterr().out.encode() == QUADRATIC_JSON[pres, word].encode() + b"\n"


def test_cli_usage_errors(a2_file, capsys):
    assert main(["solve", "--presentation", "/nonexistent", "a"]) == 3
    assert main(["nope"]) == 3
    assert main(["nf", "--presentation", a2_file, "a"]) == 3  # pair not inferable


NEGATIVE_FLAGS = [
    ("solve", "abaBAB", "--state-budget"),
    ("solve", "abaBAB", "--lcm-budget"),
    ("reduce", "abaBAB", "--max-steps"),
    ("split", "abaBAB", "--max-depth"),
    ("split", "abaBAB", "--state-budget"),
    ("reverse", "Ab", "--budget"),
    ("proph", "abaBAB", "--state-budget"),
]


@pytest.mark.parametrize("command, word, flag", NEGATIVE_FLAGS,
                         ids=[f"{c}{f}" for c, _, f in NEGATIVE_FLAGS])
def test_cli_negative_budgets_are_usage_errors(a2_file, capsys, command, word, flag):
    assert main([command, "--presentation", a2_file, word, flag, "-1"]) == 3
    assert capsys.readouterr().out == ""
    # 0 keeps its meaning: a budget or cap that allows nothing
    assert main([command, "--presentation", a2_file, word, flag, "0"]) != 3
    capsys.readouterr()


@pytest.mark.parametrize("value", ["-1", "x"], ids=["negative", "not-an-integer"])
def test_cli_usage_errors_name_the_flag(a2_file, capsys, value):
    assert main(["solve", "--presentation", a2_file, "abaBAB", "--state-budget", value]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    # the usage, then argparse's message naming the flag and the value
    assert err.startswith("usage: multifrac solve ")
    message = err.splitlines()[-1]
    assert message.startswith("multifrac solve: error: argument --state-budget: ")
    assert value in message


def test_cli_builds_its_parser_once(a2_file, monkeypatch, capsys):
    from multifrac import cli

    build, built = cli._build_parser, []

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting)
    assert main(["solve", "--presentation", a2_file, "abaBAB"]) == 0
    assert main(["solve", "--presentation", a2_file, "a", "--assume-fc"]) == 1
    assert main(["solve", "--presentation", a2_file, "a", "--strategy", "nope"]) == 3
    assert main(["reverse", "--presentation", a2_file, "Ab"]) == 0
    assert main(["bound", "4"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_cli_byte_identical_json(a2_file):
    cmd = [sys.executable, "-m", "multifrac", "solve", "--presentation", a2_file,
           "abaBAB", "--json"]
    env = {"PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    r1 = subprocess.run(cmd, capture_output=True, env=env, text=True)
    r2 = subprocess.run(cmd, capture_output=True, env=env, text=True)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
