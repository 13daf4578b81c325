"""The package surface: what perfcone exports, and every function that
perfbench's tracer patches by name."""

import importlib
from pathlib import Path

import perfcone

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    """(module, attribute path) of every entry of SPANS and COUNTS in
    perfbench/tracing.py. The file is read and run in a fresh namespace,
    not imported, so nothing is compiled to disk beside it."""
    ns = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), ns)
    return [pair for table in (ns["SPANS"], ns["COUNTS"]) for pairs in table.values() for pair in pairs]


def test_every_traced_name_resolves():
    # a deleted name would make every traced run fail with AttributeError
    names = _traced_names()
    assert ("perfcone.intlinalg", "pivot_columns") in names
    for module, path in names:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_every_exported_name_resolves():
    assert [name for name in perfcone.__all__ if not hasattr(perfcone, name)] == []


def test_test_only_names_are_not_exported():
    # graphs only build test cones, and the alternation test and the
    # spanning pick are reached through their submodules
    for name in ("SimpleGraph", "graphic_cone", "is_alternating", "spanning_subset"):
        assert name not in perfcone.__all__, name
        assert not hasattr(perfcone, name), name
