"""Shared Coxeter systems and references for the test suite."""

import pytest

from wdigraph.coxeter import CoxeterSystem
from wdigraph.digraph import SLabeledDigraph
from wdigraph.exactalg import RF_U2M1, RF_U_M2, RF_ZERO
from wdigraph.modrep import ModuleRep


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


class RatFuncOperators:
    """tau_s and tau_s^-1 over Q(u) on sparse RatFunc vectors {index: value},
    the kernel of the tests' Q(u) references.  The columns of tau_s are read
    off the dense `ModuleRep.tau_matrix(s)`, and those of tau_s^-1 are
    (tau_s - (u^2-1)) u^-2, so no reference shares the Z[u] tables it checks.
    A generator is given by name or by index."""

    def __init__(self, g):
        rep = ModuleRep(g)
        self.n = rep.n
        self._index = g.system._gen_index
        self._tau, self._inv = [], []
        for s in range(g.system.rank()):
            rows = rep.tau_matrix(s).rows
            tau = [{i: row[j] for i, row in enumerate(rows) if row[j]}
                   for j in range(self.n)]
            inv = []
            for j, col in enumerate(tau):
                col = dict(col)
                col[j] = col.get(j, RF_ZERO) - RF_U2M1
                inv.append({i: RF_U_M2 * c for i, c in col.items() if c})
            self._tau.append(tau)
            self._inv.append(inv)

    def apply(self, s, vec):
        return _apply_dense_columns(self._tau[self._index(s)], vec)

    def apply_inv(self, s, vec):
        return _apply_dense_columns(self._inv[self._index(s)], vec)


def _apply_dense_columns(columns, vec):
    out = {}
    for j, c in vec.items():
        for i, x in columns[j].items():
            out[i] = out.get(i, RF_ZERO) + x * c
    return {i: c for i, c in out.items() if c}


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
