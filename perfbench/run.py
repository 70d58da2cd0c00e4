"""Verdict benchmark for multifrac: one seeded workload per run.

    python3 perfbench/run.py --workload fc-unpadded --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports multifrac from its src/.  Load
is a closed loop: one client in this process sends the next query only
after the previous one returns.  Each query has a time limit enforced from
outside the library (SIGALRM); a stopped query counts as failed and as
slower than every answered one.  Every outcome is checked against
reference.py; a contradiction makes the run exit 1.  Times are CPU time
of this process, each scaled to a reference machine speed by the probes
timed just before and after it (SpeedProbe, local_slowdowns; see
"speed_probe_about" in spec.json).

--trace 0 prints the end-to-end metrics; --trace 1 runs a quarter of the
window untraced, then the same queries again from the same fresh state with
every layer wrapped (tracer.py), and prints the per-layer metrics.  The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
# A3 rewriting rules on generator-index bytes, for the machine-speed probe
_PROBE_RULES = ((b"\0\1\0", b"\1\0\1"), (b"\1\0\1", b"\0\1\0"), (b"\1\2\1", b"\2\1\2"),
                (b"\2\1\2", b"\1\2\1"), (b"\0\2", b"\2\0"), (b"\2\0", b"\0\2"))
# Every time the benchmark reports is CPU time of the process that spent it.
# The library is single-threaded and does no I/O, so on an idle machine this
# equals wall time; on a shared host it leaves out the time other tenants
# hold the core, which moved wall-clock latencies by 1.5-2x between queries.
CLOCK = time.process_time


class QueryStopped(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler swallows it."""


def _alarm(signum, frame):
    raise QueryStopped()


def fix_mmap_threshold():
    """Serve every C allocation of 128 KiB or more by its own mmap.

    glibc starts with that threshold but raises it, up to 32 MiB, each time
    such a block is freed, after which large blocks come from the heap,
    where growing tables fragment it.  A query's peak memory then depended
    on the queries before it: the same long-positive query peaked at 62 MB
    first and at 74 MB when repeated.  Fixing the threshold keeps its first
    value, so each query's peak is its own.  Does nothing off glibc.
    """
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (AttributeError, OSError):
        pass


def import_library():
    src = ROOT / "src"
    if not (src / "multifrac" / "__init__.py").is_file():
        sys.exit(f"error: no multifrac sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import multifrac

    if Path(multifrac.__file__).resolve().parent != (src / "multifrac").resolve():
        sys.exit(f"error: imported multifrac from {multifrac.__file__}, not from {src}")
    return multifrac


def setup_seconds(workload: str, reference_probe_s: float) -> tuple[float, float]:
    """Median over fresh processes of import + presentations + Monoids.

    Returns (scaled, unscaled): each process's time is also divided by its
    own speed-probe time over the reference, as the other times are.
    """
    scaled, unscaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, probe = map(float, proc.stdout.split())
        unscaled.append(elapsed)
        scaled.append(elapsed * reference_probe_s / probe)
    return statistics.median(scaled), statistics.median(unscaled)


class SpeedProbe:
    """Seconds this machine takes, right now, for a fixed piece of Python.

    The probe is the closure of a positive A3 word's class, like the
    library's hot loop, but it is the benchmark's own copy, so no change to
    multifrac changes its cost.  It allocates only bytes and no GC-tracked
    objects, so it never triggers a collection of the workload's heap.
    `config` is a "speed_probe" entry of spec.json: the word, how many timed
    runs give the median (after one untimed run that warms the caches the
    last query left cold, when there is more than one), the seconds between
    probes in a run, and the reference time the probe's times are scaled to.
    """

    def __init__(self, config: dict):
        self.word = bytes("abc".index(ch) for ch in config["word"])
        self.repeats = config["repeats"]
        self.interval_s = config["interval_s"]
        self.reference_s = config["reference_s"]

    def __call__(self) -> float:
        if self.repeats == 1:
            return self._closure()
        self._closure()
        return statistics.median(self._closure() for _ in range(self.repeats))

    def _closure(self) -> float:
        start = CLOCK()
        seen = {self.word}
        stack = [self.word]
        while stack:
            w = stack.pop()
            for lhs, rhs in _PROBE_RULES:
                at = w.find(lhs)
                while at >= 0:
                    u = w[:at] + rhs + w[at + len(lhs):]
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
                    at = w.find(lhs, at + 1)
        return CLOCK() - start


def trimmed_mean(values) -> float:
    """Mean of the middle 80 %: the probe's average, without rare outliers."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def run_pass(workload, corpus, probe, *, seconds=None, min_queries=0, count=None, tracer=None):
    """Closed loop over the corpus.

    Returns (records, loop CPU seconds, peak RSS MB, speed-probe seconds).
    Stops after `count` queries if given, else once `seconds` of wall time
    have passed, at least `min_queries` queries are done and the workload's
    current pass is complete.  Times are CPU time of this process (CLOCK).
    A record's `latency` is its query's time; its `span` is the loop time
    it accounts for, from the end of the previous record or probe, so the
    spans add up to the loop time.  Between queries, every
    probe.interval_s, the speed probe runs outside every span; a
    record's `probe` is the index of the last probe before it.  Peak RSS is
    read after the first rss_after_queries.
    """
    rss_at = workload.cfg["rss_after_queries"]
    rss_mb = None
    limit = workload.cfg["query_time_limit_s"]
    state = workload.build_state()
    records = []
    probes = []
    paused_wall = 0.0
    start_wall = next_probe = time.perf_counter()
    k = 0
    while True:
        now = time.perf_counter()
        if now >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter()
            paused_wall += next_probe - now
            next_probe += probe.interval_s
            mark = CLOCK()
        if count is not None:
            if k >= count:
                break
        elif (k >= min_queries and k % workload.pass_size == 0
              and time.perf_counter() - start_wall - paused_wall >= seconds):
            break
        q = corpus[k % len(corpus)]
        status, out = "ok", None
        t0 = CLOCK()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                if tracer is not None:
                    tracer.enter("query")
                out = workload.run(state, q)
                if tracer is not None:
                    tracer.exit()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryStopped:
            status = "stopped"
        except Exception as exc:  # a raising query is a failed query, not a crash
            status, out = "error", {"error": f"{type(exc).__name__}: {exc}"}
        latency = CLOCK() - t0
        if status != "ok":
            if tracer is not None:
                tracer.unwind(0)
            workload.reset(state, q["pres"])
        if workload.fresh_heap:
            gc.collect()
        end = CLOCK()
        records.append({"k": k, "status": status, "out": out, "latency": latency,
                        "span": end - mark, "probe": len(probes) - 1})
        mark = end
        k += 1
        if k == rss_at:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records, sum(r["span"] for r in records), rss_mb, probes


def percentile(values, frac: float) -> float:
    """Harrell-Davis estimate of a latency quantile.

    A Beta((n+1)frac, (n+1)(1-frac))-weighted mean of all order statistics,
    rather than the one nearest-rank value: the per-query costs of a fixed
    corpus have gaps, and a single order statistic jumps across a gap when
    machine noise reorders two queries.
    """
    values = sorted(values)
    n = len(values)
    a, b = frac * (n + 1), (1 - frac) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per = max(20, math.ceil(20000 / n))  # midpoint-rule cells per order statistic
    step = 1.0 / (n * per)
    weighted = total = 0.0
    for i, value in enumerate(values):
        mass = 0.0
        for j in range(i * per, (i + 1) * per):
            x = (j + 0.5) * step
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weighted += mass * value
        total += mass
    return weighted / total


def check_records(workload, corpus, records) -> dict:
    tally = {"ok": 0, "contradiction": 0, "unsettled": 0, "not answered": 0}
    first_bad = None
    for r in records:
        if r["status"] != "ok":
            tally["not answered"] += 1
            continue
        q = corpus[r["k"] % len(corpus)]
        verdict = workload.check(q, r["out"])
        tally[verdict] += 1
        if verdict == "contradiction" and first_bad is None:
            first_bad = {"query": q, "outcome": r["out"]}
    tally["first_contradiction"] = first_bad
    return tally


def digest(records, n: int) -> str:
    h = hashlib.sha256()
    for r in records[:n]:
        item = [r["k"], r["status"], r["out"] if r["status"] == "ok" else None]
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def environment(multifrac, seed, corpus) -> dict:
    corpus_hash = hashlib.sha256(
        json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": multifrac.kernel_backend(),
        "MULTIFRAC_PURE": bool(os.environ.get("MULTIFRAC_PURE")),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "corpus_sha256": corpus_hash,
    }


DECIDED = ("trivial", "nontrivial", "found", "result")


def local_slowdowns(records, probes, reference_s: float) -> list[float]:
    """Per record: the probes either side of it, over the reference time.

    Machine speed drifts within a run, so each record is scaled by the
    probes taken just before and just after it rather than by the run's
    average.
    """
    last = len(probes) - 1
    return [(probes[r["probe"]] + probes[min(r["probe"] + 1, last)]) / 2 / reference_s
            for r in records]


def end_to_end(records, slowdowns, setup_s, peak_rss_mb, limit) -> dict:
    """The end-to-end metrics; each record's times are divided by its slowdown.

    A slowdown is the local speed-probe time over the reference probe time
    in spec.json (local_slowdowns), so times read as if the machine ran at
    reference speed; all ones give the unscaled values.  setup_s comes
    already scaled by its own probes (setup_seconds).  A failed query counts
    as the time limit, above every answered one.
    """
    n = len(records)
    answered = [r for r in records if r["status"] == "ok"]
    decided = sum(1 for r in answered if r["out"]["answer"] in DECIDED)
    latencies = [r["latency"] / f if r["status"] == "ok" else limit for r, f in zip(records, slowdowns)]
    return {
        "setup_s": setup_s,
        "verdicts_per_s": len(answered) / sum(r["span"] / f for r, f in zip(records, slowdowns)),
        "verdict_ms_p50": 1000 * percentile(latencies, 0.50),
        "verdict_ms_p90": 1000 * percentile(latencies, 0.90),
        "decided_frac": decided / n,
        "answered_frac": len(answered) / n,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process and the library's set and dict
        # orders follow them: with the same inputs, long-positive's peak RSS
        # moved by ~8 % between processes.  Run again with the salt fixed;
        # the set-up processes inherit it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    multifrac = import_library()
    from workloads import WORKLOADS

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, spec, str(workdir))
    corpus = workload.corpus(args.seed)
    env = environment(multifrac, args.seed, corpus)
    digest_n = workload.cfg["digest_queries"]
    min_queries = max(digest_n, workload.cfg["rss_after_queries"])
    probe = SpeedProbe(workload.cfg.get("speed_probe", spec["speed_probe"]))
    if workload.fresh_heap:
        fix_mmap_threshold()
    signal.signal(signal.SIGALRM, _alarm)

    if args.trace:
        from tracer import Tracer

        plain, wall_plain, _, probes_plain = run_pass(workload, corpus, probe, seconds=args.seconds / 4,
                                                      min_queries=digest_n)
        tracer = Tracer()
        tracer.install()
        try:
            traced, wall_traced, _, probes = run_pass(workload, corpus, probe, count=len(plain),
                                                      tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(workdir / f"spans-{args.workload}-seed{args.seed}.json")
        records = plain
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (wall_traced / trimmed_mean(probes)) / (wall_plain / trimmed_mean(probes_plain))
        raw = {}
        checked = plain + traced
    else:
        setup_s, setup_unscaled = setup_seconds(args.workload, spec["speed_probe"]["reference_s"])
        records, _, peak, probes = run_pass(workload, corpus, probe, seconds=args.seconds,
                                            min_queries=min_queries)
        limit = workload.cfg["query_time_limit_s"]
        slowdowns = local_slowdowns(records, probes, probe.reference_s)
        metrics = end_to_end(records, slowdowns, setup_s, peak, limit)
        raw = end_to_end(records, [1.0] * len(records), setup_unscaled, peak, limit)
        checked = records

    tally = check_records(workload, corpus, checked)
    failed = sum(1 for r in records if r["status"] != "ok")
    correct = tally["contradiction"] == 0

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"machine speed: probe {1000 * trimmed_mean(probes):.3f} ms over {len(probes)} samples, "
          f"reference {1000 * probe.reference_s:.3f} ms")
    print(f"queries: {len(records)} attempted, {failed} failed "
          f"(stopped {sum(r['status'] == 'stopped' for r in records)}, "
          f"raised {sum(r['status'] == 'error' for r in records)}); "
          f"error_frac {failed / len(records):.4f}")
    print(f"reference: {tally['ok']} agree, {tally['contradiction']} contradict, "
          f"{tally['unsettled']} unsettled, {tally['not answered']} not answered")
    if tally["first_contradiction"]:
        print("first contradiction: " + json.dumps(tally["first_contradiction"], default=str))
    head = records[:digest_n]
    slowest = max((r["latency"] for r in head if r["status"] == "ok"), default=0.0)
    print(f"digest: sha256 {digest(records, digest_n)} over the first {len(head)} queries "
          f"({sum(r['status'] != 'ok' for r in head)} failed; slowest answer {slowest:.3f} s, "
          f"time limit {workload.cfg['query_time_limit_s']} s)")
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        name = m["name"]
        unscaled = f"   (unscaled {raw[name]:.6g})" if raw.get(name, metrics[name]) != metrics[name] else ""
        print(f"  {name:40s} {metrics[name]:.6g} {m['unit']}{unscaled}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
