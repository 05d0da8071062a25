"""Shared fixtures: one moderate Grushin Neumann solve reused across suites."""

import pytest
from hypothesis import settings

import ccspectral as cc

# Property tests parse configs or assemble grids of at most 12x12 nodes, so
# a few dozen examples each keep the suite's time where it was; no deadline,
# since a cold first example can take longer than hypothesis' default 200 ms.
settings.register_profile("ccspectral", deadline=None, max_examples=60)
settings.load_profile("ccspectral")


@pytest.fixture(scope="session")
def grushin():
    return cc.builtin_grushin_cylinder()


@pytest.fixture(scope="session")
def grushin_grid(grushin):
    return cc.build_grid(grushin.chart, 48, 96)


@pytest.fixture(scope="session")
def grushin_neumann_forms(grushin, grushin_grid):
    return cc.assemble(grushin, grushin_grid, cc.BoundarySpec.all_neumann())


@pytest.fixture(scope="session")
def grushin_neumann_pairs(grushin_neumann_forms):
    return cc.solve_smallest(grushin_neumann_forms, k=8, seed=0)


@pytest.fixture(scope="session")
def euclidean():
    return cc.builtin_euclidean()
