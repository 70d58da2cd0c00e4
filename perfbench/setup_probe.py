"""Print the seconds a fresh process takes to import multifrac and build a
workload's presentations and Monoids, then the speed-probe time measured
right after it.  run.py starts this several times per run and reports the
median of the scaled set-up times as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import json
import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
spec = json.loads((here / "spec.json").read_text(encoding="utf-8"))
names = spec["workloads"][sys.argv[1]]["presentations"]
sys.path.insert(0, str(here.parent / "src"))

start = time.process_time()  # CPU time, as run.CLOCK
import multifrac  # noqa: E402
import multifrac.cli  # noqa: E402,F401

for name in names:
    data = spec["presentations"][name]
    pres = multifrac.ArtinPresentation(data["generators"], {(s, t): m for s, t, m in data["labels"]})
    multifrac.Monoid(pres)
elapsed = time.process_time() - start

from run import SpeedProbe, trimmed_mean  # noqa: E402

probe = SpeedProbe(spec["speed_probe"])
print(repr(elapsed), repr(trimmed_mean([probe() for _ in range(10)])))
