"""Shared Coxeter systems for the test suite."""

import pytest

from wdigraph.coxeter import CoxeterSystem
from wdigraph.digraph import SLabeledDigraph


def make_a3():
    return CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3, ("r", "t"): 2})


def make_b3():
    return CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 4, ("r", "t"): 2})


def make_h3():
    return CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 5, ("r", "t"): 2})


def make_affine_a2():
    return CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3, ("r", "t"): 3})


def subgraph(g, vertex_subset):
    """The subdigraph induced on a vertex subset, by a scan of every edge:
    the per-component references of the classifier and `analyze` use it."""
    keep = set(vertex_subset)
    return SLabeledDigraph(g.system, [v for v in g.vertices if v in keep],
                           [e for e in g.edges if e.src in keep and e.dst in keep])


@pytest.fixture(scope="session")
def a3():
    return make_a3()


@pytest.fixture(scope="session")
def b3():
    return make_b3()


@pytest.fixture(scope="session")
def h3():
    return make_h3()


@pytest.fixture(scope="session")
def affine_a2():
    return make_affine_a2()
