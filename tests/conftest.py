"""Shared Coxeter systems and references for the test suite.

Also here: conveniences and references that only tests call, each a function
of the object it reads, so that the package keeps only what the program uses
(`test_surface.py`)."""

import json
import os
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import factorial, inf

import pytest

from wdigraph import coxeter
from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism, GroupElement
from wdigraph.digraph import (CODE_ENDS, DASHED, END_CODES, LEVEL_STEP, SOLID,
                              ComponentAnalysis, ComponentDetail, Edge,
                              SLabeledDigraph, _dot_id)
from wdigraph.exactalg import RF_ONE, RF_U, RF_ZERO, Poly, RatFunc, RatMatrix
from wdigraph.hecke import Dihedral, HeckeElt
from wdigraph.modrep import (_TAU_CASES, ModuleRep, _apply_columns, _exact_bits,
                             _table, _word_apply)
from wdigraph.validator import RelationWitness


RF_U2 = RF_U * RF_U                     # u^2
RF_U2M1 = RF_U2 - RF_ONE                # u^2 - 1
RF_U_M2 = RF_U ** (-2)                  # u^-2


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


# -- coxeter ------------------------------------------------------------------


def braid_orbit(system, word):
    """All reduced words reachable from a reduced word by braid moves, sorted.

    A reference for tests: the word problem never enumerates orbits.
    """
    seen = {tuple(word)}
    queue = list(seen)
    matrix = system.matrix
    while queue:
        w = queue.pop()
        lw = len(w)
        for i in range(lw - 1):
            s, t = w[i], w[i + 1]
            if s == t:
                continue
            n = matrix[s][t]
            if n is inf or i + n > lw:
                continue
            if any(w[i + k] != (s if k % 2 == 0 else t) for k in range(2, n)):
                continue
            repl = tuple((t if k % 2 == 0 else s) for k in range(n))
            new = w[:i] + repl + w[i + n:]
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return tuple(sorted(seen))


def multiply_by_generator(system, w, s, side="left"):
    """(ws or sw, +1/-1) depending on whether the length rose or fell."""
    si = system._gen_index(s)
    if side == "right":
        new = system._rmult(w.word, si)
    elif side == "left":
        new = system.lmult(w.word, si)
    else:
        raise ValueError("side must be 'left' or 'right'")
    delta = 1 if len(new) > len(w.word) else -1
    return GroupElement(system, new), delta


def apply_star(star, x):
    """The image of the group element x under the diagram automorphism."""
    return star.system.element(tuple(star.perm[s] for s in x.word))


def conjugation_by_w0_products(system, star):
    """s -> w0 star(s) w0 by two products of group elements per generator,
    the reference of `conjugation_automorphism_by_w0`."""
    w0 = system.longest_element()
    perm = []
    for i in range(system.rank()):
        image = w0 * apply_star(star, system.gen(i)) * w0
        if len(image.word) != 1:
            raise ValueError("conjugation by w0 did not yield a generator")
        perm.append(image.word[0])
    return DiagramAutomorphism(system, tuple(perm))


def reference_up_walk(system, length_bound=None):
    """`up_walk` along left multiplication as it was before it listed W one
    length at a time: a BFS from the identity along w -> sw that raise
    length, each element it keeps named through `name` as it is found,
    then every word sorted (length, ShortLex) and every arrow mapped to the
    sorted positions; with the same refusals, read off
    `coxeter.MAX_ELEMENTS` when called (all of W only when W is finite)."""
    limit = coxeter.MAX_ELEMENTS
    too_many = f"more than {limit} elements to enumerate"
    ops = system._ops()
    if length_bound is None:
        if system.parabolic_order() > limit:
            raise ValueError(too_many)
        length_bound = inf
    rank = system.rank()
    budget = ops.built() + limit * (rank if ops.on_words else 1)
    seen = {ops.identity: 0}
    queue, words, arrows = [ops.identity], [()], []
    for i, w in enumerate(queue):
        if len(words[i]) >= length_bound:
            continue
        for s in range(rank):
            if ops.descent(w, s):
                continue
            target = ops.left(w, s)
            j = seen.get(target)
            if j is None:
                word = ops.name(target)
                if len(word) > length_bound:
                    continue
                j = seen[target] = len(words)
                words.append(word)
                queue.append(target)
                if len(seen) > limit:
                    raise ValueError(too_many)
            arrows.append((i, j, s, None))
        if ops.built() > budget:
            raise ValueError(too_many)
    order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
    position = sorted(range(len(order)), key=order.__getitem__)
    return ([words[i] for i in order],
            [(position[i], position[j], s, tag) for i, j, s, tag in arrows])


def left_descents(system, w):
    """Generators s with l(sw) < l(w)."""
    return {s for s in range(system.rank())
            if len(system.canonical((s,) + w.word)) < len(w.word)}


def parabolic_data(system, J):
    """(elements of W_J, distinguished right coset representatives X_J),
    read off all of W."""
    Jset = {system.gen(s).word[0] for s in J}
    everything = system.enumerate()
    wj = [w for w in everything if set(w.word) <= Jset]
    xj = [w for w in everything if not (left_descents(system, w) & Jset)]
    return wj, xj


def reference_component_order(comp: list[int], matrix):
    """The order of the parabolic subgroup on one connected diagram
    component by arm and path walks, the reference of
    `coxeter._component_order`: its finite type (Humphreys, Reflection Groups
    and Coxeter Groups, 2.11), or math.inf if the type is not finite."""
    k = len(comp)
    if k == 1:
        return 2
    edges = []
    for a in range(k):
        for b in range(a + 1, k):
            m = matrix[comp[a]][comp[b]]
            if m != 2:
                if m is inf:
                    return inf
                edges.append((comp[a], comp[b], m))
    if k == 2:
        return 2 * edges[0][2]                                  # I2(m)
    # components of rank >= 3 must be trees
    if len(edges) != k - 1:
        return inf
    adjacency = {v: [] for v in comp}
    for a, b, m in edges:
        adjacency[a].append((b, m))
        adjacency[b].append((a, m))
    degrees = sorted(len(adjacency[v]) for v in comp)
    labels = sorted(m for _, _, m in edges)
    if degrees[-1] > 3:
        return inf
    branch_nodes = [v for v in comp if len(adjacency[v]) == 3]
    if len(branch_nodes) > 1:
        return inf
    if branch_nodes:
        if any(m != 3 for _, _, m in edges):
            return inf
        center = branch_nodes[0]
        arms = []
        for start, _ in adjacency[center]:
            length = 1
            prev, cur = center, start
            while len(adjacency[cur]) == 2:
                nxt = [w for w, _ in adjacency[cur] if w != prev][0]
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] != 1:
            return inf
        if arms[1] == 1:
            return 2 ** (k - 1) * factorial(k)                  # D_k
        if arms[1] == 2 and arms[2] in (2, 3, 4):
            return {2: 51_840, 3: 2_903_040, 4: 696_729_600}[arms[2]]  # E6-E8
        return inf
    # a path: read its edge labels from one end
    ends = [v for v in comp if len(adjacency[v]) == 1]
    prev, cur = None, ends[0]
    path_labels = []
    while True:
        nxts = [(w, m) for w, m in adjacency[cur] if w != prev]
        if not nxts:
            break
        (nxt, m) = nxts[0]
        path_labels.append(m)
        prev, cur = cur, nxt
    if labels == [3] * (k - 1):
        return factorial(k + 1)                                 # A_k
    if labels == [3] * (k - 2) + [4]:
        if path_labels[0] == 4 or path_labels[-1] == 4:
            return 2 ** k * factorial(k)                        # B_k
        if k == 4 and path_labels[1] == 4:
            return 1_152                                        # F4
        return inf
    if labels == [3] * (k - 2) + [5]:
        if k in (3, 4) and (path_labels[0] == 5 or path_labels[-1] == 5):
            return {3: 120, 4: 14_400}[k]                       # H3, H4
        return inf
    return inf


# -- digraph -------------------------------------------------------------------


def out_edges(g, v):
    """The edges out of v in edge order, by a scan of every edge; a loop at
    v is one of them."""
    return [e for e in g.edges if e.src == v]


def successors(g, v):
    """Heads of directed edges out of v (styles ignored, as in the arrow view)."""
    return [e.dst for e in out_edges(g, v)]


def undirected_neighbors(g, v):
    """The other ends of the edges at v, in edge order; a loop is listed once."""
    out = []
    for e in g.edges:
        if e.src == v:
            out.append(e.dst)
        elif e.dst == v:
            out.append(e.src)
    return out


def is_acyclic(g):
    """No nonempty directed circuit in the arrow view."""
    return g.analyze().all_acyclic


def distances_by_name(g, alpha):
    """`g.distances_from` with vertices named."""
    dist = g.distances_from(g.vertex_index[alpha])
    return {g.vertices[i]: d for i, d in dist.items()}


def path_length_mu(g, alpha, beta):
    """Minimum number of edges in a directed path, or None if unreachable."""
    return distances_by_name(g, alpha).get(beta)


def reachable_from(g, alpha):
    return set(distances_by_name(g, alpha))


def in_label_set(g, beta):
    """Labels of edges (either style) coming into beta."""
    return frozenset(e.label for e in g.edges if e.dst == beta)


def descent_counts(g):
    """How many vertices have each incoming-label set, the labels of the
    edges into the vertex, by one scan of every edge: the per-vertex scan
    that `SLabeledDigraph.descent_counts` once ran, and the reference of
    the source and sink counts that the obstruction's evidence reads."""
    into = {v: set() for v in g.vertices}
    for e in g.edges:
        into[e.dst].add(e.label)
    return Counter(map(frozenset, into.values()))


def assert_refused(call, g):
    """call(g) raises the structure gate's ValueError: the first line of
    `g.validate_structure()`."""
    with pytest.raises(ValueError) as raised:
        call(g)
    assert str(raised.value) == g.validate_structure()[0]


def scan_alternating_cycles(g, s, t):
    """The components of `g.restrict((s, t))` in the order of their first
    vertices, each as (cycle, word): the vertex indices walked from its
    first vertex by taking the s-partner and the t-partner in turn, and per
    position the (role, style) of the s-edge, then of the t-edge, partners,
    roles, styles and components all found by edge scans (a loop meets its
    vertex as its head): the reference of
    `SLabeledDigraph.alternating_cycles`."""
    h = g.restrict((s, t))
    partner, end = {}, {}
    for e in h.edges:
        partner[e.label, e.src] = e.dst
        partner[e.label, e.dst] = e.src
        end[e.label, e.src] = ("tail", e.style)
        end[e.label, e.dst] = ("head", e.style)
    cycles, seen = [], set()
    for root in h.vertices:
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in undirected_neighbors(h, stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        cycle, v = [root], partner[s, root]
        while v != root:
            cycle.append(v)
            v = partner[t if len(cycle) % 2 == 0 else s, v]
        assert set(cycle) == comp
        cycles.append(([g.vertex_index[v] for v in cycle],
                       tuple(end[s, v] + end[t, v] for v in cycle)))
    return cycles


def decoded_word(word):
    """A cycle word of `SLabeledDigraph.alternating_cycles`, one byte per
    walk position, as the tuple of (role, style) of the i-edge and of the
    j-edge per position, the form `scan_alternating_cycles` gives."""
    return tuple(CODE_ENDS[b & 7] + CODE_ENDS[b >> 3] for b in word)


def encoded_word(word):
    """A word of `scan_alternating_cycles` as the bytes the digraph keys its
    cycles by: per position, the i-code | the j-code << 3."""
    return bytes(END_CODES[end[:2]] | END_CODES[end[2:]] << 3 for end in word)


def scan_walk_flags(g):
    """Per component of `g._walk`, (some edge raises the level pair by other
    than its `LEVEL_STEP`, some edge raises the level sum by other than 1),
    read by the edge scans that `linear_char_dims` and `_grading` once ran
    over the walk's level pairs: the reference of the walk's own flags."""
    comps = g._walk[0]
    level = dict(zip(g.vertices, g._walk[1]))
    which = {g.vertices[i]: k for k, comp in enumerate(comps) for i in comp}
    ungraded, unsummed = set(), set()
    for e in g.edges:
        (a, b), (da, db) = level[e.src], LEVEL_STEP[e.style]
        if level[e.dst] != (a + da, b + db):
            ungraded.add(which[e.src])
        if sum(level[e.dst]) != a + b + 1:
            unsummed.add(which[e.src])
    return [(k in ungraded, k in unsummed) for k in range(len(comps))]


def scan_shortest_circuit(g):
    """`g._shortest_circuit()` with the edges into each candidate vertex
    found by a scan of every edge, as the digraph once found them."""
    peeled = {g.vertices[i] for i in g._peel}
    for v in g.vertices:
        if v in peeled:
            continue
        dist = distances_by_name(g, v)
        back = [dist[e.src] + 1 for e in g.edges
                if e.dst == v and e.src in dist]
        if back:
            return v, min(back)
    return None


class TupleDigraph:
    """A digraph held as its sorted `Edge` tuples, as `SLabeledDigraph` was
    before it held its edge pairing: the same checks in the same order, the
    edges sorted by (label, tail index, head index, style), one pass over
    them (`_pass`) for the pairing and the structure report, and name-keyed
    adjacency for the components, sources, sinks and acyclicity.  The
    reference of the pairing-backed digraph."""

    def __init__(self, system, vertices, edges):
        self.system = system
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        parsed = []
        for e in edges:
            edge = Edge(*e)
            if edge.style not in (SOLID, DASHED):
                raise ValueError(f"bad edge style {edge.style!r}")
            if edge.src not in self.vertex_index or edge.dst not in self.vertex_index:
                raise ValueError(f"edge {edge} references unknown vertex")
            if edge.label not in system.index:
                raise ValueError(f"edge {edge} has a label outside the system")
            parsed.append(edge)
        vi = self.vertex_index
        self.edges = tuple(sorted(
            parsed, key=lambda e: (e.label, vi[e.src], vi[e.dst], e.style)))

    @cached_property
    def _pass(self):
        n = len(self.vertices)
        index, gens = self.vertex_index, self.system.index
        pairing = [[None] * n for _ in gens]
        counts = [[0] * n for _ in gens]
        loops = []
        for e in self.edges:
            s, a, b = gens[e.label], index[e.src], index[e.dst]
            counts[s][a] += 1
            if a == b:
                loops.append(f"loop at {e.src} labeled {e.label}")
            else:
                counts[s][b] += 1
            pairing[s][a] = (b, "tail", e.style)
            pairing[s][b] = (a, "head", e.style)
        bad = sorted((v, g, counts[s][i]) for g, s in gens.items()
                     for i, v in enumerate(self.vertices) if counts[s][i] != 1)
        return pairing, loops, [f"vertex {v} meets {c} edges labeled {g}"
                                for v, g, c in bad]

    def validate_structure(self):
        _, loops, counts = self._pass
        return loops + counts

    def edge_pairing(self):
        pairing, _, counts = self._pass
        if counts:
            raise ValueError(counts[0])
        return pairing

    def restrict(self, J):
        Jnames = {self.system.generators[self.system._gen_index(s)] for s in J}
        return TupleDigraph(self.system, self.vertices,
                            [e for e in self.edges if e.label in Jnames])

    def reverse(self):
        return TupleDigraph(self.system, self.vertices,
                            [Edge(e.dst, e.src, e.label, e.style)
                             for e in self.edges])

    def components(self):
        steps = {v: [] for v in self.vertices}
        for e in self.edges:
            steps[e.src].append(e.dst)
            steps[e.dst].append(e.src)
        seen, comps = set(), []
        for root in self.vertices:
            if root in seen:
                continue
            comp, stack = {root}, [root]
            while stack:
                for w in steps[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(sorted(comp, key=self.vertex_index.get))
        return comps

    def analyze(self):
        succ = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            succ[e.src].append(e.dst)
            indeg[e.dst] += 1
        sources = {v for v in self.vertices if indeg[v] == 0}
        sinks = {v for v in self.vertices if not succ[v]}
        peeled = [v for v in self.vertices if indeg[v] == 0]
        for v in peeled:
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    peeled.append(w)
        return ComponentAnalysis(tuple(
            ComponentDetail(vertices=tuple(comp),
                            sources=tuple(v for v in comp if v in sources),
                            sinks=tuple(v for v in comp if v in sinks),
                            acyclic=set(peeled).issuperset(comp))
            for comp in self.components()))

    def to_json(self):
        return {"system": self.system.to_json(),
                "vertices": list(self.vertices),
                "edges": [{"from": e.src, "to": e.dst, "label": e.label,
                           "style": e.style} for e in self.edges]}

    def to_json_text(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_dot(self):
        lines = ["digraph G {"]
        for v in self.vertices:
            lines.append(f"  {_dot_id(v)};")
        for e in self.edges:
            attrs = f"label={_dot_id(e.label)}"
            if e.style == DASHED:
                attrs += ", style=dashed"
            lines.append(f"  {_dot_id(e.src)} -> {_dot_id(e.dst)} [{attrs}];")
        lines.append("}")
        return "\n".join(lines)


def reference_load_digraph(source):
    """`load_digraph` as it was before the one pass: every edge dict read
    into a tuple, then the tuple form checks them all."""
    base_dir = ""
    if isinstance(source, (str, os.PathLike)):
        base_dir = os.path.dirname(os.fspath(source))
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    sysdata = data["system"]
    if isinstance(sysdata, str):
        sysdata = os.path.join(base_dir, sysdata)
    system = CoxeterSystem.from_json(sysdata)
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str)
                                                 for v in vertices):
        raise ValueError("vertices must be a list of strings")
    edges = [(e["from"], e["to"], e["label"], e["style"]) for e in data["edges"]]
    return TupleDigraph(system, vertices, edges)


def reference_walk_digraph(system, walk, styles):
    """The digraph of an up-walk's (words, arrows) as `families` once built
    it: each arrow named and handed to the tuple form."""
    words, arrows = walk
    name, label = [system.word_to_str(w) for w in words], system.generators
    return TupleDigraph(
        system, name,
        [Edge(name[i], name[j], label[s], styles[tag]) for i, j, s, tag in arrows])


def edge_pairing(g):
    """pairing[s][i] = (partner index, "tail" or "head", style) for the
    edge labeled by generator s at vertex i: a view of `g.coded_pairing()`,
    with its ValueError."""
    return [[(p, *CODE_ENDS[c]) for p, c in zip(partners, codes)]
            for partners, codes in g.coded_pairing()]


def checked_arcs(system, index, edges):
    """(s, tail index, head index, style) of each (src, dst, label, style)
    edge, once its style, its two ends and its label pass, in that order:
    the checks of `SLabeledDigraph` when it held tuple rows."""
    for src, dst, label, style in edges:
        if style not in (SOLID, DASHED):
            raise ValueError(f"bad edge style {style!r}")
        a = index.get(src)
        if a is None or index.get(dst) is None:
            raise ValueError(f"edge {Edge(src, dst, label, style)} references "
                             f"unknown vertex")
        if label not in system.index:
            raise ValueError(f"edge {Edge(src, dst, label, style)} has a label "
                             f"outside the system")
        yield system.index[label], a, index[dst], style


def tuple_rows_fill(rank, n, arcs):
    """The tuple rows of (s, tail, head, style) arcs on n vertices, and the
    generator of each, as `SLabeledDigraph` once held them: row s < rank is
    generator s's pairing, entry i (partner, role, style) or None, and an
    edge that finds a slot there taken goes to the first extra row of its
    generator free at both its ends, or a new one."""
    rows = [[None] * n for _ in range(rank)]
    gens = list(range(rank))
    for s, a, b, style in arcs:
        row = rows[s]
        if row[a] is not None or row[b] is not None:
            row = next((r for k, r in zip(gens, rows) if k == s
                        and r[a] is None and r[b] is None), None)
            if row is None:
                row = [None] * n
                rows.append(row)
                gens.append(s)
        if a != b:
            row[a] = (b, "tail", style)
        row[b] = (a, "head", style)
    return rows, gens


def tuple_rows_load(data):
    """`load_digraph` on a JSON dict as it ran on tuple rows, up to its
    (rows, gens): the vertex check, one pass of `checked_arcs` into
    `tuple_rows_fill`, and a key missing from any edge dict reported
    before what that pass raised."""
    system = CoxeterSystem.from_json(data["system"])
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str)
                                                 for v in vertices):
        raise ValueError("vertices must be a list of strings")
    edges = data["edges"]
    try:
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertex ids")
        return tuple_rows_fill(system.rank(), len(index), checked_arcs(
            system, index,
            ((e["from"], e["to"], e["label"], e["style"]) for e in edges)))
    except (ValueError, TypeError):
        for e in edges:
            e["from"], e["to"], e["label"], e["style"]
        raise


def tuple_rows(g):
    """The flat rows of g as `tuple_rows_fill` gives them: (rows, gens)."""
    return ([[(p, *CODE_ENDS[c]) if c else None for p, c in zip(*row)]
             for row in g._rows], g._gens)


def disjoint_union(g, h, suffixes=("", "'")):
    if g.system is not h.system:
        raise ValueError("disjoint union requires a shared system")
    a, b = suffixes
    verts = [v + a for v in g.vertices] + [v + b for v in h.vertices]
    edges = ([Edge(e.src + a, e.dst + a, e.label, e.style) for e in g.edges]
             + [Edge(e.src + b, e.dst + b, e.label, e.style) for e in h.edges])
    return SLabeledDigraph(g.system, verts, edges)


def random_labeled_digraph(rng, system, n_vertices):
    """One random perfect matching per generator, each pair one edge of
    random direction and style: the seeded random digraphs the classifier
    and the module layer are checked on."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for label in system.generators:
        shuffled = list(vertices)
        rng.shuffle(shuffled)
        for k in range(0, n_vertices, 2):
            a, b = shuffled[k], shuffled[k + 1]
            if rng.random() < 0.5:
                a, b = b, a
            edges.append(Edge(a, b, label, SOLID if rng.random() < 0.5 else DASHED))
    return SLabeledDigraph(system, vertices, edges)


def same_structure(g, h):
    return (g.vertices == h.vertices and g.edges == h.edges
            and g.system.generators == h.system.generators
            and g.system.matrix == h.system.matrix)


# -- validator -----------------------------------------------------------------


def column_brute_force_check(g):
    """The integer oracle one column at a time, the reference of the keyed
    `brute_force_check`: whole-digraph tables at 2^`_exact_bits(k)`, both
    relations run on every unit column in vertex order, the same early exit
    and the same `RelationWitness`."""
    violations = g.validate_structure()
    if violations:
        return RelationWitness("structure", (), "; ".join(violations))
    pairing = g.coded_pairing()
    system = g.system
    n_vertices = len(g.vertices)
    u = 1 << _exact_bits(2)
    columns = _table(pairing, _TAU_CASES, lambda c: c(u))
    for s in range(system.rank()):
        # (tau - u^2)(tau + 1) = 0  <=>  tau^2 = (u^2-1) tau + u^2
        for j in range(n_vertices):
            once = _apply_columns(columns[s], {j: 1}, 0)
            expected = {i: (u * u - 1) * c for i, c in once.items()}
            expected[j] = expected.get(j, 0) + u * u
            if (_apply_columns(columns[s], once, 0)
                    != {i: c for i, c in expected.items() if c}):
                return RelationWitness("quadratic", (system.generators[s],),
                                       g.vertices[j])
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is inf:
                continue
            point = 1 << _exact_bits(n)
            columns = _table(pairing, _TAU_CASES, lambda c: c(point))
            pair = (system.generators[i], system.generators[j])
            left = [(i, j)[k % 2] for k in range(n)]
            right = [(j, i)[k % 2] for k in range(n)]
            for col in range(n_vertices):
                if (_word_apply(columns, left, {col: 1}, 0)
                        != _word_apply(columns, right, {col: 1}, 0)):
                    return RelationWitness("braid", pair, g.vertices[col])
    return None


# -- exactalg ------------------------------------------------------------------


def is_poly(f):
    return f.den.coeffs == (1,)


def identity_matrix(n):
    return RatMatrix([[RF_ONE if i == j else RF_ZERO for j in range(n)]
                      for i in range(n)])


def matrix_is_zero(m):
    return not any(a for r in m.rows for a in r)


def apply_entrywise(m, fn):
    return RatMatrix([[fn(a) for a in r] for r in m.rows])


def zeta(f):
    """The field automorphism substituting u -> -u."""
    def sub(p):
        return Poly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])
    return RatFunc(sub(f.num), sub(f.den))


def eval_at(f, q):
    """Evaluate f at the rational point q; raises at a pole.  An integral
    value comes back as an int."""
    dv = f.den(q)
    if dv == 0:
        raise ZeroDivisionError(f"pole at u = {q}")
    value = Fraction(f.num(q)) / Fraction(dv)
    return value.numerator if value.denominator == 1 else value


def lampoly_mul(a, b, zero=RF_ZERO):
    """Product of two polynomials in x given as ascending coefficient tuples
    over one ring: RatFuncs, or Polys with zero = P_ZERO."""
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
    return tuple(out)


def lampoly_eval_matrix(coeffs, m):
    """Evaluate an ascending coefficient tuple at a matrix argument (Horner)."""
    acc = RatMatrix.zero(m.n)
    for c in reversed(coeffs):
        acc = acc * m + identity_matrix(m.n).scale(c)
    return acc


# -- hecke ---------------------------------------------------------------------


def hecke_is_zero(h):
    return not h.coeffs


def left_mult_gen(h, s):
    """T_s h."""
    return h._left_mult(s)


def Ts_circ(system, s):
    """(u+1)^{-1} (T_s - u), the generator of a dashed edge."""
    return HeckeElt.one(system)._left_mult(s, ("tail", DASHED))


def Ts_circ_inverse(system, s):
    """(u^2-u)^{-1} (T_s - (u^2-u-1))."""
    return HeckeElt.one(system)._left_mult(s, ("head", DASHED))


def dihedral_elements(system, s, t, j):
    """The five named families at index j, keyed by family name."""
    dd = Dihedral(system, s, t)
    return {"sigma": dd.sigma(j), "phi": dd.phi(j), "eta": dd.eta(j),
            "gamma": dd.gamma(j), "delta": dd.delta(j)}


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
