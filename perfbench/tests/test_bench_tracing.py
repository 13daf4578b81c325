"""The tracer patches every binding, restores them, and derives self times."""

import json
import sys

import workloads
from tracing import COUNTS, SPANS, Tracer, layer_metrics


def _bindings(original):
    """(module, name) of every perfcone binding of ``original``."""
    return [
        (name, key)
        for name, module in sys.modules.items()
        if module is not None and (name == "perfcone" or name.startswith("perfcone."))
        for key, value in vars(module).items()
        if value is original
    ]


def _originals():
    out = {}
    for table in (SPANS, COUNTS):
        for targets in table.values():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                for part in path.split("."):
                    owner = getattr(owner, part)
                out[(module_name, path)] = owner
    return out


def test_every_binding_is_patched_and_restored():
    before = _originals()
    assert _bindings(before[("perfcone.cone", "facet_index_sets")]) == [
        ("perfcone.cone", "facet_index_sets"),
        ("perfcone.complexes", "facet_index_sets"),
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for original in before.values():
            assert _bindings(original) == []
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert _bindings(before[("perfcone.intlinalg", "rank_rows")])


def test_traced_run_counts_and_outputs(tmp_path):
    cats = workloads.catalogs(0, 3)
    tracer = Tracer()
    tracer.install()
    try:
        reg, cxs, reports = workloads._pipeline(3, cats.__getitem__)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.json"
    tracer.write(str(path), wall_ns=10**12)
    m = layer_metrics(str(path))
    assert m["complexes.facet_records"] == sum(len(o.facets) for o in reg.orbits)
    assert m["homology.betti.calls"] == 5
    assert m["complexes.assemble.calls"] == 4
    assert m["cone.facet_index_sets.calls"] >= 1
    assert m["intlinalg.rank_rows.calls"] >= 1
    assert m["symmetry.orbits_created"] == m["cone.facet_index_sets.calls"]
    assert 0 < m["symmetry.equivalent.hit_ratio"] <= 1
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))


def test_self_time_subtracts_child_spans(tmp_path):
    data = {
        "names": ["quadform.voronoi_neighbor", "quadform.minimal_vectors", "cone.reduce"],
        "spans": [
            [0, 0, 100, -1, True],
            [1, 10, 30, 0, True],
            [2, 12, 20, 1, True],
            [1, 40, 50, 0, True],
            [2, 150, 160, -1, True],
        ],
        "counters": {},
        "wall_ns": 200,
    }
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(data))
    m = layer_metrics(str(path))
    assert m["quadform.voronoi_neighbor.self_s"] == 70e-9
    assert m["quadform.minimal_vectors.self_s"] == 22e-9
    assert m["cone.reduce.self_s"] == 18e-9
    assert m["quadform.mv_per_neighbor"] == 2
    assert m["run.unattributed_share"] == 1 - 110 / 200
