"""The cold set-up loads only the table-generation path.

Every CLI call and benchmark op starts by importing ``repro`` and
generating the 8 controller tables.  Without a bytecode cache each
module is compiled from source on every start, so the set-up's cost
grows with the source it loads.  A fresh interpreter checks that
``import repro`` loads nothing else and that ``build_system()`` plus a
snapshot loads exactly the pinned generation path: no checking engine,
no analysis package, no report sinks.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "repro")

import repro
after_import = loaded()
from repro.protocols.asura import build_system
system = build_system()
system.db.snapshot()
print(json.dumps([after_import, loaded()]))
"""

#: every ``repro`` module that generating the tables needs.
SETUP_MODULES = [
    "repro",
    "repro.core",
    "repro.core.assignment",
    "repro.core.constraints",
    "repro.core.database",
    "repro.core.expr",
    "repro.core.generator",
    "repro.core.quad",
    "repro.core.report",
    "repro.core.schema",
    "repro.core.sqlgen",
    "repro.core.table",
    "repro.protocols",
    "repro.protocols.asura",
    "repro.protocols.asura.memory",
    "repro.protocols.asura.netif",
    "repro.protocols.asura.pengine",
    "repro.protocols.asura.rac",
    "repro.protocols.asura.system",
    "repro.protocols.family",
    "repro.protocols.family.cache",
    "repro.protocols.family.channels",
    "repro.protocols.family.directory",
    "repro.protocols.family.io",
    "repro.protocols.family.node",
    "repro.protocols.family.spec",
    "repro.protocols.family.system",
    "repro.protocols.messages",
    "repro.protocols.states",
    "repro.telemetry",
    "repro.telemetry.context",
    "repro.telemetry.metrics",
    "repro.telemetry.spans",
    "repro.telemetry.tracer",
]

#: engines and tools that set-up must not load (with their submodules).
NOT_AT_SETUP = (
    "repro.analysis",
    "repro.core.deadlock",
    "repro.core.invariants",
    "repro.core.mapping",
    "repro.core.codegen",
    "repro.core.revision",
    "repro.core.repair",
    "repro.protocols.family.invariants",
    "repro.telemetry.sinks",
)


def _closure():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", SCRIPT, SRC],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_setup_loads_only_the_generation_path():
    after_import, after_setup = _closure()
    assert after_import == ["repro"]
    assert after_setup == SETUP_MODULES
    assert [m for m in after_setup if m.startswith(NOT_AT_SETUP)] == []
