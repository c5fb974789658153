"""One cold set-up, timed in a fresh interpreter.

What every CLI call pays before it does any work: importing ``repro``,
generating the 8 controller tables, and snapshotting the database that
each benchmark op clones.  The same interpreter runs rounds of the
reference kernel right before and right after the set-up: a fresh
process runs at a speed of its own, often far from its parent's, so the
drift factor is sampled in the process that did the work, from the
kernel's single-threaded reading, as the set-up runs on one thread.  The
kernel imports ``sqlite3``, so that import is not part of ``import_s``.

Prints one JSON object with the three times in seconds, the drift factor
and the reference reading in ms.  Run by ``run.py``; runs alone as ``python3
perfbench/setup_probe.py`` from the checkout root.
"""

import json
import os
import sys
import time

from reference import Reference, factor

#: reference rounds on each side of the set-up; together about as long
#: as the set-up itself.
ROUNDS = 2

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

ref = Reference()
before = ref.mean_round_ms(ROUNDS)
t0 = time.perf_counter()
import repro  # noqa: E402
from repro.protocols.asura import build_system  # noqa: E402
t1 = time.perf_counter()
system = build_system()
t2 = time.perf_counter()
snapshot = system.db.snapshot()
t3 = time.perf_counter()
after = ref.mean_round_ms(ROUNDS)
system.db.close()
ref.close()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                  "snapshot_s": t3 - t2, "factor": factor(before, after, 1),
                  "ref_ms": (before[1] + after[1]) / 2,
                  "snapshot_bytes": len(snapshot),
                  "version": repro.__version__}))
