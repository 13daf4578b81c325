"""The input generator is deterministic, and seed 0 is the bundled input."""

import random

import pytest

import workloads
from perfcone.intlinalg import det_int
from perfcone.quadform import load_bundled_catalog, minimal_vectors


@pytest.mark.parametrize("g", range(1, 6))
def test_seed0_is_the_bundled_catalog(g):
    forms = workloads.catalogs(0, g)[g]
    bundled = load_bundled_catalog(g)
    assert forms == bundled
    assert [q.name for q in forms] == [q.name for q in bundled]


@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_catalogs_are_deterministic(seed):
    assert workloads.catalogs(seed, 5) == workloads.catalogs(seed, 5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reseeded_catalog_is_a_unimodular_conjugate(seed):
    cats = workloads.catalogs(seed, 5)
    assert all(cats[g] == load_bundled_catalog(g) for g in range(1, 5))
    moved, bundled = cats[5], load_bundled_catalog(5)
    assert moved != bundled
    for q, q0 in zip(moved, bundled):
        assert q.name == q0.name
        mv, mv0 = minimal_vectors(q), minimal_vectors(q0)
        assert (mv.minimum, len(mv)) == (mv0.minimum, len(mv0))


@pytest.mark.parametrize("g", range(1, 6))
def test_unimodular_has_determinant_one(g):
    for s in range(20):
        assert det_int(workloads.unimodular(g, random.Random(s))) in (1, -1)


def test_registry_seeds():
    assert workloads.registry_seeds(0) == list(range(1, 5))
    runs = [set(workloads.registry_seeds(s)) for s in range(5)]
    assert all(len(r) == workloads.SEEDS_PER_RUN for r in runs)
    assert len(set().union(*runs)) == 5 * workloads.SEEDS_PER_RUN


def test_seeds_g4_inputs():
    cats, seeds = workloads.load_seeds_g4(3)
    assert cats == workloads.catalogs(0, 4)
    assert seeds == workloads.registry_seeds(3)


def test_voronoi_seed0_is_the_bundled_walk():
    forms, frames = workloads.load_voronoi_g5(0)
    assert forms == load_bundled_catalog(5)
    assert frames == []


@pytest.mark.parametrize("seed", [1, 7])
def test_voronoi_frames(seed):
    forms, frames = workloads.load_voronoi_g5(seed)
    assert forms == load_bundled_catalog(5)
    assert (forms, frames) == workloads.load_voronoi_g5(seed)
    assert frames != workloads.load_voronoi_g5(seed + 1)[1]
    assert len(frames) == workloads.VORONOI_NEIGHBOURS
    for h in frames:
        assert sorted(abs(x) for row in h for x in row) == [0] * 20 + [1] * 5
        assert det_int(h) in (1, -1)
