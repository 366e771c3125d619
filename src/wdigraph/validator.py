"""Two independent deciders for the defining property of a labeled digraph.

The classifier inspects every rank-two restriction: each connected component
must be a 2m-cycle carrying one of the eight templates, with the matching
divisibility condition against the order n(s,t).  The restriction's edges are
bucketed by component in one pass, so the classifier is linear in the size
of the digraph.  The brute-force oracle instead applies the generator
operators and verifies the quadratic relation and the length-n alternating
product identity exactly.  Their agreement on random inputs is the central
soundness test of the whole library.

The oracle runs on integers, not over Q(u).  Every forward coefficient of
tau_s lies in Z[u], and every column of tau_s has coefficient L1 norm at most
5 (the dashed head column, u^2-u-1 and u^2-u).  The L1 norm is
submultiplicative, so after k applications to a unit column every entry is an
integer polynomial whose coefficients sum in absolute value to at most 5^k,
and the two sides of a relation differ entrywise by integer polynomials with
coefficients at most 2 * 5^k in absolute value (for the quadratic relation,
k = 2: 25 + 2 * 5 + 1 = 36 <= 50).  A nonzero such polynomial has every root
below Cauchy's bound 1 + 2 * 5^k in absolute value, and 2^(3k+2) = 4 * 8^k is
larger, so it does not vanish there: evaluating both sides at the integer
u = 2^(3k+2), with k = 2 for the quadratic relation and k = n(s,t) for the
braid relation, decides each entry's equality exactly.  This is a coefficient
bound, not sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf

from .digraph import DASHED, SOLID, Edge, SLabeledDigraph
from .families import TEMPLATES, family_divisibility_ok
from .modrep import ModuleRep, _apply_columns, _sparse_items

# the cycle templates (m >= 2) by their dashed slots
_FIGURE_BY_DASHES = {template.dashes: figure
                     for figure, template in TEMPLATES.items()
                     if template.divisor is not None}


@dataclass(frozen=True)
class FamilyMatch:
    figure: int
    m: int
    orientation_witness: dict  # component vertex -> template vertex name


@dataclass(frozen=True)
class Rejection:
    reason: str


@dataclass(frozen=True)
class PairReport:
    pair: tuple[str, str]
    n: int
    components: tuple  # FamilyMatch or Rejection per component


@dataclass(frozen=True)
class Verdict:
    is_w_digraph: bool
    structural_violations: tuple[str, ...]
    pair_reports: tuple[PairReport, ...]

    def describe(self) -> str:
        lines = []
        if self.structural_violations:
            lines.append("structural violations:")
            lines.extend(f"  {v}" for v in self.structural_violations)
        for pr in self.pair_reports:
            lines.append(f"pair ({pr.pair[0]},{pr.pair[1]}), n = {pr.n}:")
            for comp in pr.components:
                if isinstance(comp, FamilyMatch):
                    verts = ",".join(sorted(comp.orientation_witness))
                    lines.append(f"  figure {comp.figure}, m = {comp.m}"
                                 f"  [{verts}]")
                else:
                    lines.append(f"  rejected: {comp.reason}")
        lines.append("accepted" if self.is_w_digraph else "rejected")
        return "\n".join(lines)


def classify_component(component: SLabeledDigraph, n, pair):
    """Match one connected rank-two component against the eight templates.

    The component must already satisfy the one-edge-per-label invariant for
    its two labels `pair`; connectivity then forces a single alternating
    cycle, so the classification reduces to locating the source/sink,
    checking the orientation of the two arcs, and reading off the dash
    positions.  Every vertex meets exactly two edges, so a source has
    out-degree 2 and a sink in-degree 2.
    """
    s_name, t_name = pair
    nv = len(component.vertices)
    if nv % 2 != 0:
        return Rejection("odd number of vertices")
    m = nv // 2

    if m == 1:
        edges = component.edges
        if len(edges) != 2:
            return Rejection("two vertices need exactly two edges")
        e1, e2 = edges
        if (e1.src, e1.dst) != (e2.src, e2.dst):
            return Rejection("the two edges must be parallel, same direction")
        if e1.style != e2.style:
            return Rejection("the two parallel edges must share one style")
        figure = 7 if e1.style == SOLID else 8
        if not family_divisibility_ok(figure, 1, n):
            return Rejection(f"figure {figure} invalid for n = {n}")
        witness = {e1.src: "a0", e1.dst: "b1"}
        return FamilyMatch(figure, 1, witness)

    sources, sinks = component.sources(), component.sinks()
    if len(sources) != 1:
        return Rejection(f"{len(sources)} sources, need exactly 1")
    if len(sinks) != 1:
        return Rejection(f"{len(sinks)} sinks, need exactly 1")
    src, snk = sources[0], sinks[0]

    # walk the two arcs from the source; they must both run source -> sink
    first_edges = sorted(component.out_edges(src), key=lambda e: e.label)
    arcs = []
    for start_edge in first_edges:
        arc = [start_edge]
        current = start_edge.dst
        while current != snk:
            nxt = component.out_edges(current)
            if len(nxt) != 1 or len(arc) > 2 * m:
                return Rejection("arc from the source does not run to the sink")
            arc.append(nxt[0])
            current = nxt[0].dst
        arcs.append(arc)
    if len(arcs[0]) + len(arcs[1]) != 2 * m:
        return Rejection("arcs do not cover the cycle")
    if len(arcs[0]) != m:
        return Rejection(f"sink not opposite the source "
                         f"(arc lengths {len(arcs[0])}, {len(arcs[1])})")

    # the s-labeled first edge starts the a-arc, the t-labeled one the b-arc
    by_label = {arc[0].label: arc for arc in arcs}
    if set(by_label) != {s_name, t_name}:
        return Rejection("the two source edges do not carry both labels")
    a_arc, b_arc = by_label[s_name], by_label[t_name]

    # labels must alternate along both arcs
    for arc, first in ((a_arc, s_name), (b_arc, t_name)):
        second = t_name if first == s_name else s_name
        for i, e in enumerate(arc):
            if e.label != (first if i % 2 == 0 else second):
                return Rejection("labels do not alternate along an arc")

    dash_slots = set()
    for arc, tag in ((a_arc, "left"), (b_arc, "right")):
        for i, e in enumerate(arc):
            if e.style == DASHED:
                if i == 0:
                    dash_slots.add(f"{tag}_first")
                elif i == len(arc) - 1:
                    dash_slots.add(f"{tag}_last")
                else:
                    return Rejection("dashed edge in the interior of an arc")
    figure = _FIGURE_BY_DASHES.get(frozenset(dash_slots))
    if figure is None:
        return Rejection(f"dash pattern {sorted(dash_slots)} matches no figure")
    if not family_divisibility_ok(figure, m, n):
        divisor = TEMPLATES[figure].divisor(m)
        return Rejection(f"figure {figure} needs {divisor} | n, n = {n}")
    witness = {src: "a0", snk: f"b{m}"}
    for i, e in enumerate(a_arc[:-1]):
        witness[e.dst] = f"a{i + 1}"
    for i, e in enumerate(b_arc[:-1]):
        witness[e.dst] = f"b{i + 1}"
    return FamilyMatch(figure, m, witness)


def is_w_digraph(digraph: SLabeledDigraph) -> Verdict:
    """The classification decision procedure over all rank-two restrictions.

    Pairs of generators with infinite order impose no condition; the digraph
    is accepted when every component of every finite rank-two restriction
    matches a template with its divisibility condition.
    """
    violations = tuple(digraph.validate_structure())
    if violations:
        return Verdict(False, violations, ())
    system = digraph.system
    reports = []
    ok = True
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is inf or n <= 1:
                continue
            pair = (system.generators[i], system.generators[j])
            restriction = digraph.restrict(pair)
            comps = []
            for comp in restriction.component_subgraphs():
                result = classify_component(comp, n, pair)
                comps.append(result)
                if isinstance(result, Rejection):
                    ok = False
            reports.append(PairReport(pair, n, tuple(comps)))
    return Verdict(ok, (), tuple(reports))


# -- the brute-force oracle -------------------------------------------------------------------


@dataclass(frozen=True)
class RelationWitness:
    kind: str          # "structure", "quadratic" or "braid"
    generators: tuple
    column: str        # vertex whose column first differs, or "" for quadratic


def _exact_point(k: int) -> int:
    """An integer u past every root of the differences after k applications
    (the coefficient bound in the module docstring)."""
    return 1 << (3 * k + 2)


def brute_force_check(digraph: SLabeledDigraph):
    """Check the defining operator relations exactly; None means all hold.

    The quadratic relation is checked for every generator and the
    alternating-product identity for every pair with finite order, one unit
    column at a time in vertex order, with an early exit on the first
    difference.  Each generator acts by 2x2 blocks, so an alternating word
    keeps a unit column inside its {s,t}-component and each check costs the
    size of that component, not the number of vertices.  Both sides are
    evaluated at the integer `_exact_point(k)` for k applications (k = 2 for
    the quadratic relation, k = n(s,t) for the braid relation), which decides
    the polynomial identity exactly.
    """
    violations = digraph.validate_structure()
    if violations:
        return RelationWitness("structure", (), "; ".join(violations))
    rep = ModuleRep(digraph)
    system = digraph.system
    u = _exact_point(2)
    columns = rep.columns_at(u)
    for s in range(system.rank()):
        # (tau - u^2)(tau + 1) = 0  <=>  tau^2 = (u^2-1) tau + u^2
        for j in range(rep.n):
            once = _apply_columns(columns[s], {j: 1}, 0)
            expected = {i: (u * u - 1) * c for i, c in once.items()}
            expected[j] = expected.get(j, 0) + u * u
            if (_apply_columns(columns[s], once, 0)
                    != _sparse_items(expected.items())):
                return RelationWitness("quadratic", (system.generators[s],),
                                       digraph.vertices[j])
    tables = {}
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is inf or n <= 1:
                continue
            if n not in tables:
                tables[n] = rep.columns_at(_exact_point(n))
            columns = tables[n]
            pair = (system.generators[i], system.generators[j])
            left = [(i, j)[k % 2] for k in range(n)]     # i j i ..., n letters
            right = [(j, i)[k % 2] for k in range(n)]
            for col in range(rep.n):
                if (_word_apply(columns, left, {col: 1})
                        != _word_apply(columns, right, {col: 1})):
                    return RelationWitness("braid", pair,
                                           digraph.vertices[col])
    return None


def _word_apply(columns, word, vec: dict) -> dict:
    """tau_{s_1} ... tau_{s_k} (leftmost acting last) on an integer vector."""
    for s in reversed(word):
        vec = _apply_columns(columns[s], vec, 0)
    return vec


def random_two_label_digraph(rng: random.Random, n_vertices: int,
                             labels=("s", "t"), n: int = 3) -> SLabeledDigraph:
    """A uniform 2-regular labeled digraph from two random perfect matchings.

    Each label contributes a perfect matching of the vertices; every matched
    pair becomes one edge with a random direction and a random style.
    """
    from .coxeter import CoxeterSystem

    if n_vertices % 2 != 0 or n_vertices <= 0:
        raise ValueError("need a positive even number of vertices")
    system = CoxeterSystem(labels, {(labels[0], labels[1]): n})
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for label in labels:
        shuffled = list(vertices)
        rng.shuffle(shuffled)
        for k in range(0, n_vertices, 2):
            a, b = shuffled[k], shuffled[k + 1]
            if rng.random() < 0.5:
                a, b = b, a
            style = SOLID if rng.random() < 0.5 else DASHED
            edges.append(Edge(a, b, label, style))
    return SLabeledDigraph(system, vertices, edges)
