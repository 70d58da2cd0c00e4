"""Per-layer tracing from outside the library.

Each layer is wrapped at the name its caller looks up (a module global or a
class attribute), so the library itself is unchanged.  A span records its
name, start, end and parent; its self time is its duration minus the time
its child spans cover.  Coarse spans (one query, one search, one CLI call)
are kept as records; the hot layers, called up to millions of times a run,
are folded into per-name counts and self time on their nearest kept
ancestor instead of being stored one by one.
"""

from __future__ import annotations

import itertools
import json
import time
import weakref
from collections import defaultdict

from multifrac import cli, monoid, multifraction, solver, split, transforms
from multifrac.errors import BudgetExhausted

KEPT = {
    "query", "cli.main", "solver.decide", "solver.revalidate",
    "multifraction.search", "split.search", "transforms.search",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, kept_span, owner_span]
        self.spans: list[dict] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple] = []
        # a serial per Monoid: ids are reused once per-query Monoids are freed
        self._monoids = weakref.WeakKeyDictionary()
        self._serial = itertools.count()

    def monoid_serial(self, m) -> int:
        serial = self._monoids.get(m)
        if serial is None:
            serial = self._monoids[m] = next(self._serial)
        return serial

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str):
        owner = self.stack[-1][4] if self.stack else None
        span = None
        if name in KEPT:
            span = {"id": len(self.spans), "parent": None if owner is None else owner["id"],
                    "name": name, "start": 0.0, "end": 0.0, "agg": {}}
            self.spans.append(span)
            owner = span
        frame = [name, 0.0, 0.0, span, owner]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        if span is not None:
            span["start"] = frame[1]

    def exit(self):
        end = time.perf_counter()
        name, start, child, span, owner = self.stack.pop()
        dur = end - start
        own = dur - child
        if self.stack:
            self.stack[-1][2] += dur
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += own
        tot[2] += dur
        if span is not None:
            span["end"] = end
        elif owner is not None:
            agg = owner["agg"].setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += own

    def unwind(self, depth: int):
        """Close frames left open by a query stopped at its time limit."""
        while len(self.stack) > depth:
            self.exit()

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, post=None):
        orig = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                exit_()
                if post is not None:
                    post(args, None, exc)
                raise
            exit_()
            if post is not None:
                post(args, out, None)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self):
        c, d = self.counts, self.distinct

        def search(prefix):
            def post(args, res, exc):
                if res is not None:
                    c[prefix + ".states"] += res.states
                    c[prefix + ".edges"] += res.steps
            return post

        def candidates(prefix):
            def post(args, res, exc):
                if res is not None:
                    c[prefix + ".yield"] += len(res[0])
            return post

        def apply(args, res, exc):
            if exc is None and res is None:
                c["multifraction.apply.none"] += 1

        def closure(args, res, exc):
            if res is not None:
                c["monoid.closure.words"] += len(res)
                c["monoid.closure.max_class"] = max(c["monoid.closure.max_class"], len(res))

        def divisors(args, res, exc):
            d["monoid.divisors"].add((self.monoid_serial(args[0]), args[1], args[2].key))

        def lcm(args, res, exc):
            d["monoid.lcm"].add((self.monoid_serial(args[0]), args[1], args[2].key, args[3].key))
            if isinstance(exc, BudgetExhausted):
                c["monoid.lcm.budget_trips"] += 1

        def reverse(args, res, exc):
            if res is not None:
                c["reversing.full.steps"] += res.steps
            elif isinstance(exc, BudgetExhausted):
                c["reversing.full.steps"] += exc.stats.get("steps", 0)
                c["reversing.full.budget_trips"] += 1

        M, MF = monoid.Monoid, multifraction.Multifraction
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "decide", "solver.decide")
        self.wrap(solver, "decide", "solver.decide")
        self.wrap(solver, "apply_reduction", "solver.revalidate")
        self.wrap(solver, "reduces_to_trivial", "multifraction.search", search("multifraction.search"))
        self.wrap(multifraction, "reduction_step_candidates", "multifraction.candidates",
                  candidates("multifraction.candidates"))
        self.wrap(multifraction, "apply_reduction", "multifraction.apply", apply)
        self.wrap(MF, "__init__", "multifraction.construct")
        self.wrap(MF, "key", "multifraction.key")
        self.wrap(M, "element", "monoid.element")
        self.wrap(monoid, "congruence_class", "monoid.closure", closure)
        self.wrap(M, "divisors", "monoid.divisors", divisors)
        self.wrap(M, "divide", "monoid.divide")
        self.wrap(M, "lcm_data", "monoid.lcm", lcm)
        self.wrap(monoid, "reverse_full", "reversing.full", reverse)
        self.wrap(split, "split_reduces_to_trivial", "split.search", search("split.search"))
        self.wrap(split, "split_step_candidates", "split.candidates", candidates("split.candidates"))
        self.wrap(split, "apply_split_or_trim", "split.apply")
        self.wrap(split, "apply_trim", "split.apply")
        self.wrap(transforms, "search_empty_word", "transforms.search", search("transforms.search"))
        self.wrap(transforms, "special_neighbors", "transforms.neighbors")
        self.wrap(transforms, "reverse_step", "reversing.step")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        t, c, d = self.totals, self.counts, self.distinct
        out: dict[str, float] = {}

        def calls(name):
            return t[name][0] if name in t else 0

        def own(name):
            return t[name][1] if name in t else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        out["cli.main.self_s"] = own("cli.main")
        out["solver.decide.self_s"] = own("solver.decide")
        out["solver.revalidate_s"] = t["solver.revalidate"][2] if "solver.revalidate" in t else 0.0
        for name in ("multifraction.search", "multifraction.construct", "multifraction.key",
                     "multifraction.apply", "multifraction.candidates", "monoid.element",
                     "monoid.closure", "monoid.divisors", "monoid.divide", "monoid.lcm",
                     "reversing.full", "split.search", "split.candidates", "split.apply",
                     "transforms.search", "transforms.neighbors", "reversing.step"):
            out[name + ".calls"] = calls(name)
            out[name + ".self_s"] = own(name)
        s = "multifraction.search"
        out[s + ".states"] = c[s + ".states"]
        out[s + ".edges"] = c[s + ".edges"]
        out[s + ".new_state_ratio"] = ratio(c[s + ".states"], c[s + ".edges"])
        out[s + ".states_per_s"] = ratio(c[s + ".states"], t[s][2] if s in t else 0.0)
        out["multifraction.apply.none_ratio"] = ratio(c["multifraction.apply.none"],
                                                      calls("multifraction.apply"))
        out["multifraction.candidates.yield"] = ratio(c["multifraction.candidates.yield"],
                                                      calls("multifraction.candidates"))
        out["split.candidates.yield"] = ratio(c["split.candidates.yield"], calls("split.candidates"))
        out["monoid.closure.words"] = c["monoid.closure.words"]
        out["monoid.closure.max_class"] = c["monoid.closure.max_class"]
        out["monoid.divisors.distinct_ratio"] = ratio(len(d["monoid.divisors"]),
                                                      calls("monoid.divisors"))
        out["monoid.lcm.distinct_ratio"] = ratio(len(d["monoid.lcm"]), calls("monoid.lcm"))
        out["monoid.lcm.budget_trips"] = c["monoid.lcm.budget_trips"]
        out["reversing.full.steps"] = c["reversing.full.steps"]
        out["reversing.full.budget_trips"] = c["reversing.full.budget_trips"]
        out["split.search.states"] = c["split.search.states"]
        out["split.search.edges"] = c["split.search.edges"]
        out["transforms.search.states"] = c["transforms.search.states"]
        return out

    def dump(self, path):
        """Write the kept spans (with their folded hot layers) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)

