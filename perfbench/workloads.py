"""Corpora and the calls each workload makes into multifrac.

A workload turns (seed, spec) into a list of queries, builds the state its
queries share (the presentations and Monoids that setup_s times), runs one
query against that state, and checks a query's outcome against
reference.py.  Queries are plain dicts; words are tuples of nonzero ints
(+i = generator i counted from 1, -i its inverse), which is also what the
library takes, so the program receives only the generated words.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import multifrac
from multifrac import cli, solver, split, transforms

from reference import PositiveMonoid, WordReference, free_reduce, inverse


def presentation(spec, name):
    data = spec["presentations"][name]
    labels = {(s, t): m for s, t, m in data["labels"]}
    return multifrac.ArtinPresentation(data["generators"], labels)


def parse_word(generators: str, text: str):
    """The signed word of lowercase/uppercase letter text."""
    return tuple(generators.index(ch) + 1 if ch.islower() else -(generators.index(ch.lower()) + 1)
                 for ch in text)


def word_text(generators: str, word) -> str:
    return "".join(generators[abs(c) - 1] if c > 0 else generators[abs(c) - 1].upper() for c in word)


def random_word(rng, n_gens: int, length: int):
    return tuple(rng.choice((1, -1)) * rng.randint(1, n_gens) for _ in range(length))


def relator_product(rng, ref: WordReference, n_gens: int, lo: int, hi: int):
    """A freely reduced product of conjugated relators with lo <= length <= hi."""
    rels = ref.relators()
    while True:
        word = ()
        for _ in range(rng.randint(1, 3)):
            rel = rng.choice(rels)
            if rng.random() < 0.5:
                rel = inverse(rel)
            conj = random_word(rng, n_gens, rng.randint(0, 2))
            word += conj + rel + inverse(conj)
        word = free_reduce(word)
        if lo <= len(word) <= hi:
            return word


def automorphisms(data) -> list[tuple[int, ...]]:
    """Generator permutations (1-based images) that preserve every label."""
    gens = data["generators"]
    labels = {frozenset((s, t)): m for s, t, m in data["labels"]}
    out = []
    for perm in itertools.permutations(range(len(gens))):
        image = {gens[i]: gens[perm[i]] for i in range(len(gens))}
        if all(labels.get(frozenset((image[s], image[t]))) == m for s, t, m in data["labels"]):
            out.append(tuple(j + 1 for j in perm))
    return out


def outcome_of_verdict(v) -> dict:
    return {"answer": v.answer, "padding": v.padding, "states": v.states, "edges": v.steps,
            "trace": [step.json_obj() for step in v.trace]}


class Workload:
    """Base: subclasses define base_corpus() and run().

    The base corpus is fixed: it is drawn once from the workload's
    corpus_seed by the recipe in its base_corpus().  The run seed relabels
    each query by a diagram automorphism of its presentation (a generator
    permutation that keeps every label), which gives different words with
    the same structure.  A run ends only after a whole number of
    `pass_size` queries.
    """

    pass_size = 1
    # Collect cyclic garbage after every query, outside its timed span, and
    # fix the C allocator's mmap threshold (run.fix_mmap_threshold)
    fresh_heap = False

    def __init__(self, name: str, spec: dict, workdir: str):
        self.name = name
        self.spec = spec
        self.cfg = spec["workloads"][name]
        self.workdir = workdir
        self.pres_names = self.cfg["presentations"]
        self.refs = {p: WordReference(spec["presentations"][p]["generators"],
                                      spec["presentations"][p]["labels"]) for p in self.pres_names}
        self.autos = {p: automorphisms(spec["presentations"][p]) for p in self.pres_names}

    def corpus(self, seed: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.relabel(q, rng.choice(self.autos[q["pres"]]))
                for q in self.base_corpus(random.Random(self.cfg["corpus_seed"]))]

    def relabel(self, q: dict, perm: tuple[int, ...]) -> dict:
        """q with generator i renamed perm[i-1], unless q is marked fixed."""
        q = dict(q)
        if q.pop("fixed", False):
            return q
        if "word" in q:
            q["word"] = tuple(perm[abs(c) - 1] * (1 if c > 0 else -1) for c in q["word"])
        gens = self.generators(q["pres"])
        table = str.maketrans(gens, "".join(gens[perm[i] - 1] for i in range(len(gens))))
        for key in ("x", "y"):
            if key in q:
                q[key] = q[key].translate(table)
        return q

    def generators(self, pres_name: str) -> str:
        return self.spec["presentations"][pres_name]["generators"]

    def build_state(self) -> dict:
        """The presentations and Monoids the workload's queries share."""
        state = {}
        for p in self.pres_names:
            pres = presentation(self.spec, p)
            state[p] = multifrac.Monoid(pres)
        return state

    def reset(self, state: dict, pres_name: str):
        """Replace state a stopped query may have left half-written."""
        state[pres_name] = multifrac.Monoid(presentation(self.spec, pres_name))

    def check(self, q: dict, out: dict) -> str:
        """'ok', 'contradiction' or 'unsettled' for a word-problem outcome."""
        truth = self.refs[q["pres"]].is_trivial(q["word"], q["known_trivial"])
        answer = out["answer"]
        claims = {"trivial": True, "found": True, "nontrivial": False}.get(answer)
        if claims is None:
            return "ok"  # undetermined answers claim nothing
        if truth is None:
            return "unsettled"
        return "ok" if truth == claims else "contradiction"


class FcUnpadded(Workload):
    def base_corpus(self, rng) -> list[dict]:
        out = []
        for k in range(self.cfg["corpus_size"]):
            p = self.pres_names[k % 3]
            n = len(self.generators(p))
            if (k // 3) % 2 == 0:
                word, known = relator_product(rng, self.refs[p], n, 6, 12), True
            else:
                word, known = random_word(rng, n, 6 + (k // 6) % 7), False
            out.append({"pres": p, "word": word, "known_trivial": known})
        return out

    def run(self, state, q):
        v = solver.decide(state[q["pres"]], q["word"], multifrac.PaddingStrategy.none(),
                          assume_fc=True, state_budget=self.cfg["state_budget"])
        return outcome_of_verdict(v)


class PaddedQuadratic(Workload):
    def __init__(self, name, spec, workdir):
        super().__init__(name, spec, workdir)
        self.paths = {p: f"{workdir}/{p.replace('~', 't').replace('(', '').replace(')', '')}.txt"
                      for p in self.pres_names}

    def build_state(self) -> dict:
        for p, path in self.paths.items():
            data = self.spec["presentations"][p]
            lines = [f"generators: {' '.join(data['generators'])}"]
            lines += [f"m: {s} {t} {m}" for s, t, m in data["labels"]]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        return super().build_state()

    def base_corpus(self, rng) -> list[dict]:
        required = []
        for p, text in self.cfg["required_words"]:
            word = parse_word(self.generators(p), text)
            required.append({"pres": p, "word": word, "known_trivial": False, "fixed": True})
        out = []
        for k in range(self.cfg["corpus_size"]):
            if k % 40 < len(required):
                out.append(required[k % 40])
                continue
            p = self.pres_names[k % 2]
            n = len(self.generators(p))
            if (k // 2) % 4 == 0:
                rel = rng.choice(self.refs[p].relators())
                if rng.random() < 0.5:
                    rel = inverse(rel)
                r = rng.randrange(len(rel))
                word, known = rel[r:] + rel[:r], True
            else:
                word, known = random_word(rng, n, 2 + (k // 2) % 5), False
            out.append({"pres": p, "word": word, "known_trivial": known})
        return out

    def reset(self, state, pres_name):
        pass  # every query builds its own Monoid through the CLI

    def run(self, state, q):
        buf = io.StringIO()
        argv = ["solve", "--presentation", self.paths[q["pres"]], "--strategy", "quadratic",
                "--json", "--state-budget", str(self.cfg["state_budget"]),
                word_text(self.generators(q["pres"]), q["word"])]
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        if code not in (0, 1, 2):
            raise RuntimeError(f"multifrac solve exited {code}")
        obj = json.loads(text)
        return {"answer": obj["answer"], "padding": obj["padding"], "states": obj["stats"]["states"],
                "edges": obj["stats"]["steps"], "json": text}


class SplitProph(Workload):
    def base_corpus(self, rng) -> list[dict]:
        out = []
        for k in range(self.cfg["corpus_size"]):
            p = self.pres_names[k % 2]
            n = len(self.generators(p))
            engine = "split" if (k // 2) % 2 == 0 else "proph"
            if (k // 4) % 2 == 0:
                word, known = relator_product(rng, self.refs[p], n, 6, 12), True
            else:
                word, known = random_word(rng, n, 4 + (k // 8) % 5), False
            out.append({"pres": p, "word": word, "known_trivial": known, "engine": engine})
        return out

    def run(self, state, q):
        m = state[q["pres"]]
        if q["engine"] == "split":
            a = multifrac.Multifraction.from_signed_word(m, q["word"])
            res = split.split_reduces_to_trivial(a, state_budget=self.cfg["split_state_budget"])
            trace = [step.json_obj() for step in res.trace]
        else:
            res = transforms.search_empty_word(m, q["word"], state_budget=self.cfg["proph_state_budget"])
            trace = [step.json_obj(m.presentation) for step in res.trace]
        return {"answer": "found" if res.found else ("exhausted" if res.complete else "budget"),
                "states": res.states, "edges": res.steps, "trace": trace}


class LongPositive(Workload):
    """A fixed menu run in whole passes; see "corpus" in spec.json.

    Each query builds its own Monoid, whose caches hold reference cycles.
    Left to the collector's schedule, one or two dead Monoids were still
    resident when the next large class was built, and the allocator's
    moving mmap threshold made a query's peak depend on the queries before
    it, so peak RSS depended on the seed's query order.  A fresh heap for
    each query makes the peak the largest single query's footprint.
    """

    fresh_heap = True

    def __init__(self, name, spec, workdir):
        super().__init__(name, spec, workdir)
        data = spec["presentations"]["A3"]
        self.positive = PositiveMonoid(data["generators"], data["labels"], self.cfg["reference_class_cap"])
        wx, wy = self.cfg["delta_cube_words"]
        menu = [{"kind": "decide", "text": w} for w in self.cfg["menu_words"]]
        menu.append({"kind": "decide", "text": self.cfg["heavy_word"]})
        for kind, side, length in self.cfg["menu_monoid"]:
            cut = (lambda w: w[:length]) if side == "left" else (lambda w: w[len(w) - length:])
            menu.append({"kind": kind, "side": side, "x": cut(wx), "y": cut(wy)})
        self.menu = menu
        self.pass_size = len(menu)

    def base_corpus(self, rng) -> list[dict]:
        gens = self.generators("A3")
        out = []
        for i, item in enumerate(self.menu):
            q = dict(item, pres="A3", known_trivial=False, menu_item=i)
            if q["kind"] == "decide":
                q["word"] = parse_word(gens, q.pop("text"))
            out.append(q)
        return out

    def corpus(self, seed: int) -> list[dict]:
        """Whole passes over the menu, each shuffled and relabelled."""
        rng = random.Random(f"{self.name}:{seed}")
        menu = self.base_corpus(None)
        out = []
        for _ in range(self.cfg["corpus_size"] // self.pass_size):
            order = list(range(self.pass_size))
            rng.shuffle(order)
            out += [self.relabel(menu[i], rng.choice(self.autos["A3"])) for i in order]
        return out

    def build_state(self) -> dict:
        return {"A3": presentation(self.spec, "A3")}

    def reset(self, state, pres_name):
        pass  # every query builds its own Monoid

    def run(self, state, q):
        m = multifrac.Monoid(state["A3"])
        if q["kind"] == "decide":
            v = solver.decide(m, q["word"], multifrac.PaddingStrategy.none(), assume_fc=True,
                              state_budget=self.cfg["state_budget"])
            return outcome_of_verdict(v)
        x = m.element(q["x"])
        if q["kind"] == "divisors":
            result = [str(d) for d in m.divisors(q["side"], x)]
        elif q["kind"] == "gcd":
            result = str(m.gcd(q["side"], x, m.element(q["y"])))
        else:
            # prefixes (suffixes) of Delta^3 have a right- (left-) lcm dividing it
            lcm_side = "right" if q["side"] == "left" else "left"
            result = str(m.lcm(lcm_side, x, m.element(q["y"])))
        return {"answer": "result", "result": result}

    def check(self, q, out):
        if q["kind"] == "decide":
            return super().check(q, out)
        ref = self.positive
        side, got = q["side"], out["result"]
        canon = lambda w: w or "1"
        if q["kind"] == "divisors":
            want = ref.divisors(side, q["x"])
            if want is None:
                return "unsettled"
            return "ok" if sorted(got) == sorted(canon(d) for d in want) else "contradiction"
        if q["kind"] == "gcd":
            want = ref.gcd(side, q["x"], q["y"])
            if want is None:
                return "unsettled"
            return "ok" if got == canon(want) else "contradiction"
        lcm_side = "right" if side == "left" else "left"
        verdict = ref.is_lcm(lcm_side, q["x"], q["y"], "" if got == "1" else got)
        if verdict is None:
            return "unsettled"
        return "ok" if verdict else "contradiction"


WORKLOADS = {
    "fc-unpadded": FcUnpadded,
    "padded-quadratic": PaddedQuadratic,
    "split-proph": SplitProph,
    "long-positive": LongPositive,
}
