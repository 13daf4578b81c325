"""Workload inputs, bodies and correctness gates of the benchmark.

Each workload is a pair of functions: ``load_*`` builds the inputs from
the benchmark seed (this is set-up time), and ``run_*`` drives the
package's public API on those inputs and returns the gate outcome.

Seed 0 reproduces the bundled inputs exactly. Other seeds conjugate the
top ambient's bundled form catalog by a seeded unimodular matrix
(``pipeline_g5``), conjugate every Voronoi neighbour by its own seeded
unimodular matrix (``voronoi_g5``) or pick another range of
``build_registry`` seeds (``seeds_g4``). The gates hold for every seed;
the byte digests of ``pipeline_g5`` are checked at seed 0 only, where
its inputs are the bundled ones.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

from perfcone import complexes, cone, homology, quadform, symmetry

KINDS = ("P", "V", "I", "R", "C")

# Values recorded from the seed-0 run at the commit that added the
# benchmark; the digests equal those of the files written by
# `perfcone orbits --g N` and `perfcone complex --g N --kind K`.
EXPECTED = {
    4: {
        "orbits": 27,
        "facet_records": 207,
        "dims": {
            "P": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
            "V": [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
            "I": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
            "R": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
            "C": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        },
        "homology": {
            "P": {},
            "V": {6: 1},
            "I": {},
            "R": {},
            "C": {},
        },
        "sha256": {
            "registry": "e0bad2869824084f72cf58d6b313fd32a8bc1038602c5b6b37f91502dd16b8c8",
            "P": "83ea889bd7f9aa61a4753f516a5531fd9db86a190bc7c85b27f4cc16261a8ba3",
            "V": "ebd5540c62c033d2f08b4d95b7f9cdd92d4656ea93ab2482c4a2bd791a05b9ca",
            "I": "a41dad4fe62c0a8acf8d9f38a26ec9e26bf5f3559b3a058f025ce0343dda40a4",
            "R": "ad0b88f432a16d6954a598e1590fd4879ecb2c6ba05cce711b1e988ef5774127",
            "C": "bb34d075f49da1e0057274af2199359994bc1405baacf1089c8fcf32792f9b2d",
        },
    },
    5: {
        "orbits": 163,
        "facet_records": 2166,
        "dims": {
            "P": [1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 7, 6, 1, 0, 2, 3],
            "V": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 6, 1, 0, 2, 3],
            "I": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
            "R": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 2, 1, 0, 0, 1, 1],
            "C": [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        },
        "homology": {
            "P": {9: 1, 14: 1},
            "V": {9: 1, 14: 1},
            "I": {},
            "R": {9: 1},
            "C": {},
        },
        "sha256": {
            "registry": "ed7eab293df0e0f95d2002213380b6be00ecc27992bda6b699cb57906b4b59df",
            "P": "91edcf61cd8eac8f4fd5132b5b4fdcf9e5a76f3d35d07d1bb9a9a3a48b2e592c",
            "V": "8d4bfe2a1b271847feabde028e799de0e7b2e894c4a0246e685bafc22c9c44ad",
            "I": "ca2cba06582d35d6956df48007e2ed13ebe306ba85b8fc2d248f5de9a4d4eee7",
            "R": "d4094176de59bce16a043478e177efaacf1dd20e652790429823c7779d2e41f1",
            "C": "8d0353e5d357302113af6ae67550316f40b530d0dc6882fcaaa41bc9688ef8aa",
        },
    },
}

# Neighbour classes of the three bundled g=5 forms, one per facet.
VORONOI_CLASSES = {"principal_5": 40, "d5": 350, "a5_3": 40}
VORONOI_NEIGHBOURS = sum(VORONOI_CLASSES.values())

# Re-seeded g=4 registries per run of `seeds_g4`.
SEEDS_PER_RUN = 4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unimodular(g: int, rng: random.Random) -> list[list[int]]:
    """A seeded signed permutation matrix. It keeps the coefficients of
    the minimal vectors as small as in the bundled catalog, so the amount
    of exact arithmetic does not grow with the seed; what changes is the
    order and the coordinates in which the registry meets every face."""
    perm = list(range(g))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(g)] for i in range(g)]


def catalogs(seed: int, gmax: int) -> dict[int, list[quadform.QuadraticForm]]:
    """Bundled form catalogs of ambients 1..gmax; for a seed other than 0
    the top ambient's catalog is conjugated by a seeded unimodular matrix.
    This is `perfcone orbits --catalog FILE`, whose override also applies
    to the top ambient only."""
    out = {g: quadform.load_bundled_catalog(g) for g in range(1, gmax + 1)}
    if seed != 0:
        h = unimodular(gmax, random.Random(f"perfbench:{seed}:{gmax}"))
        out[gmax] = [q.conjugated(h) for q in out[gmax]]
    return out


def registry_seeds(seed: int) -> list[int]:
    """The `build_registry` seeds of a `seeds_g4` run; seed 0 gives 1..4."""
    return list(range(SEEDS_PER_RUN * seed + 1, SEEDS_PER_RUN * seed + SEEDS_PER_RUN + 1))


@dataclass
class Gate:
    """Correctness checks of one run; one check is one operation."""

    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    parts: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def digest(self) -> str:
        """One digest over every output text the run produced."""
        return sha256("\n".join(sha256(p) for p in self.parts))


def _pipeline(g: int, catalog_for, seed: int | None = None):
    reg = complexes.build_registry(g, catalog_for, seed)
    cxs = {
        "P": complexes.build_perfect_complex(g, reg),
        "V": complexes.build_voronoi_complex(g, reg),
        "I": complexes.build_inflation_complex(g, reg),
    }
    cxs["R"], cxs["C"] = complexes.build_matroid_complexes(g, reg)
    reports = {k: homology.betti(cx) for k, cx in cxs.items()}
    return reg, cxs, reports


def _check_pipeline(gate: Gate, label: str, g: int, result, digests: bool) -> None:
    """Orbit and facet-record counts, chain dimensions and homology of
    every complex; with ``digests`` also the byte digests of the texts."""
    reg, cxs, reports = result
    exp = EXPECTED[g]
    gate.check(f"{label}:orbits", len(reg.orbits) == exp["orbits"])
    facet_records = sum(len(o.facets) for o in reg.orbits)
    gate.check(f"{label}:facet_records", facet_records == exp["facet_records"])
    for k in KINDS:
        dims = [reports[k].chain_dims[n] for n in cxs[k].degrees()]
        homology_k = {n: d for n, d in reports[k].homology.items() if d}
        gate.check(f"{label}:dims[{k}]", dims == exp["dims"][k])
        gate.check(f"{label}:homology[{k}]", homology_k == exp["homology"][k])
    texts = {"registry": symmetry.format_registry(reg)}
    texts.update((k, complexes.format_complex(cxs[k])) for k in KINDS)
    gate.parts.extend(texts.values())
    if digests:
        for name, text in texts.items():
            gate.check(f"{label}:sha256[{name}]", sha256(text) == exp["sha256"][name])


def load_pipeline_g5(seed: int):
    return catalogs(seed, 5)


def run_pipeline_g5(cats, seed: int) -> Gate:
    gate = Gate()
    _check_pipeline(gate, "g5", 5, _pipeline(5, cats.__getitem__), digests=seed == 0)
    return gate


def load_voronoi_g5(seed: int):
    """The bundled g=5 forms, and for a seed other than 0 one seeded
    signed permutation per neighbour: each neighbour is moved by its own
    matrix before its cone is built. The double description and the
    equivalence search then meet every neighbour cone in its own
    coordinates and ray order, so their work is a sum over 430
    independent draws. Conjugating the three starting forms instead
    would make it one draw per run, which moved the run time by 10%."""
    rng = random.Random(f"perfbench:{seed}:voronoi")
    frames = [unimodular(5, rng) for _ in range(VORONOI_NEIGHBOURS)] if seed else []
    return quadform.load_bundled_catalog(5), frames


def run_voronoi_g5(inputs, seed: int) -> Gate:
    forms, frames = inputs
    gate = Gate()
    sym_dim = 5 * 6 // 2  # a form is perfect iff its cone spans Sym^2(R^5)
    catalog = [(q.name, quadform.cone_of_form(q)) for q in forms]
    classes: Counter[str] = Counter()
    k = 0
    for q in forms:
        sigma = quadform.cone_of_form(q)
        for s in cone.facet_index_sets(sigma):
            nb = quadform.voronoi_neighbor(q, cone.Face(sigma, s))
            if frames:
                nb = nb.conjugated(frames[k % len(frames)])
            k += 1
            nb_cone = quadform.cone_of_form(nb)
            nb_facets = cone.facet_index_sets(nb_cone)
            gate.check(f"perfect[{q.name}]", nb_cone.dim == sym_dim)
            label = next(
                (name for name, c in catalog if symmetry.equivalent(nb_cone, c) is not None),
                "unclassified",
            )
            classes[label] += 1
            gate.parts.append(f"{q.name} {label} {len(nb_facets)} {nb.entries}")
    gate.check("classes", dict(classes) == VORONOI_CLASSES)
    return gate


def load_seeds_g4(seed: int):
    return catalogs(0, 4), registry_seeds(seed)


def run_seeds_g4(inputs, seed: int) -> Gate:
    gate = Gate()
    cats, seeds = inputs
    _check_pipeline(gate, "canonical", 4, _pipeline(4, cats.__getitem__), digests=True)
    for s in seeds:
        _check_pipeline(gate, f"seed{s}", 4, _pipeline(4, cats.__getitem__, s), digests=False)
    return gate


WORKLOADS = {
    "pipeline_g5": (load_pipeline_g5, run_pipeline_g5),
    "voronoi_g5": (load_voronoi_g5, run_voronoi_g5),
    "seeds_g4": (load_seeds_g4, run_seeds_g4),
}
