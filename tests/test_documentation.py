"""Documentation hygiene: every public item carries a doc comment, every
module explains which part of the paper it implements, and the metric
catalog in OBSERVABILITY.md tracks the counters the code emits."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = sorted(
    m.name
    for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not m.name.endswith("__main__")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    public = getattr(module, "__all__", None)
    if public is None:
        return
    undocumented = []
    for name in public:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


def test_design_and_experiments_exist():
    import pathlib
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
        path = root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 1000, doc


def test_paper_section_references_present():
    """The core modules each anchor themselves to the paper."""
    for name in ("repro.core.generator", "repro.core.invariants",
                 "repro.core.deadlock", "repro.core.mapping"):
        module = importlib.import_module(name)
        assert "section" in module.__doc__.lower() or "§" in module.__doc__


# -- metric-catalog drift ------------------------------------------------------
_STRING = re.compile(r"""f?(['"])((?:(?!\1).)*)\1""")
_VAR = "\0VAR\0"


def _call_args(text, start):
    """The balanced-paren argument text of a call opening at ``start``
    (the index of the ``(``)."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return text[start + 1:]


def _emitted_counters():
    """Every counter name ``src/`` increments, as normalized patterns
    (f-string ``{...}`` substitutions become a wildcard marker)."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    names = set()
    for path in src.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for m in re.finditer(r"\.incr\(", text):
            args = _call_args(text, m.end() - 1)
            for sm in _STRING.finditer(args):
                name = re.sub(r"\{[^}]*\}", _VAR, sm.group(2))
                if "." in name.replace(_VAR, ""):
                    names.add(name)
    return names


def _documented_counters():
    """Metric names from OBSERVABILITY.md's catalog tables, with
    combined rows (`a.b` / `.c`) expanded and ``<placeholder>`` parts
    normalized to the same wildcard marker."""
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    doc = (root / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    names = set()
    for row in re.finditer(r"^\|\s*(`[^|]+)\|", doc, re.MULTILINE):
        cell = row.group(1)
        parts = [p.strip("` ") for p in re.findall(r"`([^`]+)`", cell)]
        base = None
        for part in parts:
            if part.startswith("."):
                if base is not None:
                    # `invariant.checks` / `.passed` swaps the last
                    # component; the shorthand could also append one.
                    # Expand both readings.
                    names.add(base + part)
                    names.add(base.rsplit(".", 1)[0] + part)
                continue
            base = part
            names.add(part)
    return {re.sub(r"<[^>]*>", _VAR, n) for n in names}


def _wildcard_match(a, b):
    """Two normalized names match when their wildcard markers line up
    against anything non-empty on the other side."""
    pattern = re.escape(a).replace(re.escape(_VAR), r"[^\s`]+")
    if re.fullmatch(pattern, b):
        return True
    pattern = re.escape(b).replace(re.escape(_VAR), r"[^\s`]+")
    return re.fullmatch(pattern, a) is not None


def test_every_emitted_counter_is_in_the_metric_catalog():
    """No undocumented counters: each ``tracer.incr(...)`` name in the
    source appears in OBSERVABILITY.md's metric catalog (placeholder
    rows like ``sim.runs.<status>`` cover their f-string emitters)."""
    documented = _documented_counters()
    emitted = _emitted_counters()
    assert emitted, "counter extraction found nothing — extractor broken?"
    missing = sorted(
        name.replace(_VAR, "<...>") for name in emitted
        if not any(_wildcard_match(name, doc) for doc in documented))
    assert not missing, (
        f"counters emitted in src/ but absent from OBSERVABILITY.md's "
        f"metric catalog: {missing}")
