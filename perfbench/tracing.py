"""Per-layer tracing of the package from outside it.

A ``Tracer`` replaces every module binding of a chosen function with a
wrapper: ``facet_index_sets`` is bound in both ``perfcone.cone`` and
``perfcone.complexes``, and the ``intlinalg`` kernels are imported by name
into several modules, so patching one binding would silently miss calls
made through the others. Span wrappers record (name, start, end, parent,
outermost) in memory; count wrappers only count. ``write`` stores the
spans and counters as JSON, and ``layer_metrics`` derives self times and
the per-layer metrics from that file.

Self time is a span's duration minus the durations of its child spans;
the program is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Span name -> (module, attribute path) of every function it covers.
SPANS = {
    "symmetry.fingerprint": [("perfcone.symmetry", "OrbitRegistry.fingerprint")],
    "symmetry.locate": [("perfcone.symmetry", "OrbitRegistry.locate")],
    "symmetry.equivalent": [("perfcone.symmetry", "equivalent")],
    "symmetry.is_alternating": [("perfcone.symmetry", "is_alternating")],
    "cone.facet_index_sets": [("perfcone.cone", "facet_index_sets")],
    "cone.spanning_subset": [("perfcone.cone", "spanning_subset")],
    "cone.reduce": [("perfcone.cone", "reduce")],
    "quadform.minimal_vectors": [("perfcone.quadform", "minimal_vectors")],
    "quadform.voronoi_neighbor": [("perfcone.quadform", "voronoi_neighbor")],
    "complexes.build_registry": [("perfcone.complexes", "build_registry")],
    "complexes.assemble": [
        ("perfcone.complexes", "build_perfect_complex"),
        ("perfcone.complexes", "build_voronoi_complex"),
        ("perfcone.complexes", "build_inflation_complex"),
        ("perfcone.complexes", "build_matroid_complexes"),
    ],
    "complexes.annotate_matroidal": [("perfcone.complexes", "annotate_matroidal")],
    "complexes.annotate_coloops": [("perfcone.complexes", "annotate_coloops")],
    "matroid.graphic_cone": [("perfcone.matroid", "graphic_cone")],
    "matroid.zg_coloop_indices": [("perfcone.matroid", "zg_coloop_indices")],
    "homology.betti": [("perfcone.homology", "betti")],
}

# Kernels counted without spans: they are called too often to time.
COUNTS = {
    f"intlinalg.{name}": [("perfcone.intlinalg", name)]
    for name in (
        "rank_rows",
        "pivot_columns",
        "frac_inverse",
        "det_sign",
        "det_int",
        "snf_left",
    )
}
COUNTS["homology.bareiss_rank"] = [("perfcone.intlinalg", "bareiss_rank")]
COUNTS["symmetry.add"] = [("perfcone.symmetry", "OrbitRegistry.add")]


def _hooks(tracer: "Tracer") -> dict:
    """Counters read off results: name -> fn(result, outermost)."""
    c = tracer.counters

    def equivalent(result, outermost):
        if outermost:
            c["symmetry.equivalent.attempts"] += 1
            c["symmetry.equivalent.hits"] += result is not None

    def add(result, outermost):
        c["symmetry.orbits_created"] += bool(result[2])

    def facets(result, outermost):
        c["cone.facets_found"] += len(result)

    def registry(result, outermost):
        if outermost:
            c["complexes.facet_records"] += sum(len(o.facets) for o in result.orbits)

    return {
        "symmetry.equivalent": equivalent,
        "symmetry.add": add,
        "cone.facet_index_sets": facets,
        "complexes.build_registry": registry,
    }


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._active: Counter[str] = Counter()
        self._undo: list = []

    def _span_wrapper(self, name: str, fn, hook):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            outermost = active[name] == 0
            active[name] += 1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name_id, start, end, stack[-1], outermost)
            if hook is not None:
                hook(result, outermost)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn, hook):
        counters = self.counters
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, True)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in SPANS and COUNTS wherever a perfcone
        module binds it."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "perfcone" or n.startswith("perfcone."))
        ]
        hooks = _hooks(self)
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, targets in table.items():
                for module_name, path in targets:
                    owner, attr = _resolve(module_name, path)
                    original = getattr(owner, attr)
                    wrapper = make(name, original, hooks.get(name))
                    self._rebind(owner, attr, original, wrapper)
                    if isinstance(owner, type):
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str, wall_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "wall_ns": wall_ns,
                },
                fh,
                separators=(",", ":"),
            )


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced run, from the file ``write`` made."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    spans = data["spans"]
    counters = Counter(data["counters"])
    layer = [names[s[0]] for s in spans]
    child_ns = [0] * len(spans)
    under_neighbor = [False] * len(spans)
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    outer_ns: Counter[str] = Counter()
    covered_ns = 0
    mv_in_neighbor = 0
    for i, (_name_id, start, end, parent, _outermost) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            under_neighbor[i] = under_neighbor[parent] or layer[parent] == "quadform.voronoi_neighbor"
        else:
            covered_ns += end - start
        if layer[i] == "quadform.minimal_vectors" and under_neighbor[i]:
            mv_in_neighbor += 1
    for i, (_name_id, start, end, _parent, outermost) in enumerate(spans):
        name = layer[i]
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if outermost:
            outer_ns[name] += end - start
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out["complexes.build_registry.s"] = outer_ns["complexes.build_registry"] / 1e9
    for name in COUNTS:
        out[f"{name}.calls"] = counters[f"{name}.calls"]
    attempts = counters["symmetry.equivalent.attempts"]
    out["symmetry.equivalent.hit_ratio"] = (
        counters["symmetry.equivalent.hits"] / attempts if attempts else 0.0
    )
    for name in ("symmetry.orbits_created", "cone.facets_found", "complexes.facet_records"):
        out[name] = counters[name]
    neighbors = calls["quadform.voronoi_neighbor"]
    out["quadform.mv_per_neighbor"] = mv_in_neighbor / neighbors if neighbors else 0.0
    out["run.unattributed_share"] = 1 - covered_ns / data["wall_ns"]
    return out
