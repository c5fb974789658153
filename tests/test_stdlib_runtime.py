"""The runtime needs nothing beyond the standard library.

A fresh interpreter started with ``-S`` (no ``site``, so no installed
packages) imports every ``repro`` module and runs a small MESI pipeline;
every top-level module it loaded must be part of the standard library.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = r"""
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = {name.partition(".")[0] for name in sys.modules}

import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.explore import explore_system
from repro.protocols.asura import build_system

system = build_system()
assert system.check_invariants().passed
for name, expected in (("v4", True), ("v5", True), ("v5d", False)):
    assert bool(system.analyze_deadlocks(name).cycles()) is expected, name
assert explore_system(system, nodes=2, depth=6).ok

# multiprocessing aliases the main module as ``__mp_main__``.
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(" ".join(sorted(loaded - set(sys.stdlib_module_names)
                      - {"repro", "__mp_main__"})))
"""


def test_runtime_is_stdlib_only():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, SRC],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [], \
        f"non-stdlib modules loaded: {out.stdout}"
