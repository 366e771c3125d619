"""Labeled directed multigraphs with solid/dashed edges, one edge per label
at each vertex, plus the derived graphs and structural analyses used by the
classification and module machinery: restrictions, reversal, the
per-generator edge pairing, component scans, sources, sinks and acyclicity
per component, directed path lengths, incoming-label statistics,
label-preserving isomorphism, and JSON/DOT serialization.

One cached pass over the edges (`_pass`) fills the per-generator edge
pairing and counts each label's edges at each vertex; `validate_structure`
and `edge_pairing` both read it.  Label-preserving isomorphism propagates
one vertex's image per component along both digraphs' pairings.

Every structural question is answered from three walks, each run once per
digraph on first use and cached: one undirected walk (`_walk`) gives the
components, a (solid, dashed) level pair per vertex and, per component,
whether a loop or some edge breaks the level rules that the grading and the
sign character read; one Kahn peel (`_peel`) gives acyclicity and a
topological order; and one BFS (`distances_from`) gives the directed path
lengths from a vertex and the shortest circuit.  Each costs O(V + E); a
digraph that is never traversed never runs them.  `analyze` reads the first
two once and keeps its frozen result, so the CLI and the module layer share
one analysis.  The rank-two restrictions the deciders inspect are walked
along the pairing by `alternating_cycles`, one cycle per component.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple

from .coxeter import CoxeterSystem

SOLID = "solid"
DASHED = "dashed"

# the change of the (solid, dashed) level pair along an edge of each style
LEVEL_STEP = {SOLID: (1, 0), DASHED: (0, 1)}


class Edge(NamedTuple):
    src: str
    dst: str
    label: str
    style: str


class SLabeledDigraph:
    """Vertices plus generator-labeled solid/dashed directed edges.

    Edges are kept in canonical (label, src, dst, style) order so that
    serialization and equality are deterministic.  Vertex order is meaningful:
    it fixes the basis order of the associated module.
    """

    def __init__(self, system: CoxeterSystem, vertices: Iterable[str],
                 edges: Iterable[tuple]):
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

    # -- the edge pass ------------------------------------------------------------

    @cached_property
    def _pass(self) -> tuple[list[list[tuple]], list[str], list[str]]:
        """One pass over the edges: the per-generator pairing, the loop lines
        and the count lines of `validate_structure`.  A loop meets its vertex
        once, as its head."""
        n = len(self.vertices)
        index, gens = self.vertex_index, self.system.index
        pairing: list[list[tuple | None]] = [[None] * n for _ in gens]
        counts = [[0] * n for _ in gens]
        loops = []
        for e in self.edges:
            s, a, b = gens[e.label], index[e.src], index[e.dst]
            counts[s][a] += 1
            if a == b:
                loops.append(f"loop at {e.src} labeled {e.label}")
            else:
                counts[s][b] += 1
            pairing[s][a] = _entry(b, "tail", e.style)
            pairing[s][b] = _entry(a, "head", e.style)
        bad = sorted((v, g, counts[s][i]) for g, s in gens.items()
                     for i, v in enumerate(self.vertices) if counts[s][i] != 1)
        return pairing, loops, [f"vertex {v} meets {c} edges labeled {g}"
                                for v, g, c in bad]

    def validate_structure(self) -> list[str]:
        """All violations of the defining invariants (empty list means ok):
        the loops in edge order, then every (vertex, label) not met by
        exactly one edge, sorted by vertex and label name."""
        _, loops, counts = self._pass
        return loops + counts

    def edge_pairing(self) -> list[list[tuple]]:
        """pairing[s][i] = (partner index, "tail" or "head", style) for the
        edge labeled by generator s at vertex i; raises ValueError with the
        first count line of `validate_structure` unless every vertex meets
        exactly one edge per label.  The table is shared: do not mutate it."""
        pairing, _, counts = self._pass
        if counts:
            raise ValueError(counts[0])
        return pairing

    def alternating_cycles(self, i: int, j: int) -> Iterator[list[int]]:
        """The components of the restriction to generators i and j, in the
        order of their first vertices, each as vertex indices walked from its
        first vertex by taking the i-partner and the j-partner in turn.  On a
        digraph that passes `validate_structure` every vertex meets one edge
        of each label, so each component is a single cycle of even length
        whose labels alternate; `edge_pairing` raises on a count violation.
        Each cycle is walked when it is asked for, and none is cached."""
        pairing = self.edge_pairing()
        first, second = pairing[i], pairing[j]
        seen = [False] * len(self.vertices)
        for start in range(len(seen)):
            if seen[start]:
                continue
            cycle = [start]
            v = first[start][0]
            while v != start:
                cycle.append(v)
                v = (first if len(cycle) % 2 else second)[v][0]
            for v in cycle:
                seen[v] = True
            yield cycle

    # -- derived digraphs ----------------------------------------------------------

    def restrict(self, J: Iterable) -> "SLabeledDigraph":
        """Same vertices, only edges labeled by elements of J."""
        Jnames = {self.system.generators[self.system._gen_index(s)] for s in J}
        return SLabeledDigraph(self.system, self.vertices,
                               [e for e in self.edges if e.label in Jnames])

    def reverse(self) -> "SLabeledDigraph":
        return SLabeledDigraph(self.system, self.vertices,
                               [Edge(e.dst, e.src, e.label, e.style)
                                for e in self.edges])

    @cached_property
    def _succ(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            succ[e.src].append(e.dst)
        return succ

    @cached_property
    def _steps(self) -> dict[str, list[tuple[str, int, int]]]:
        """Undirected neighbours, each with the change (da, db) of the level
        pair: the edge's `LEVEL_STEP` along it, its negative against it (a
        loop is listed once)."""
        steps: dict[str, list[tuple[str, int, int]]] = {
            v: [] for v in self.vertices}
        for e in self.edges:
            da, db = LEVEL_STEP[e.style]
            steps[e.src].append((e.dst, da, db))
            if e.dst != e.src:
                steps[e.dst].append((e.src, -da, -db))
        return steps

    # -- the three walks --------------------------------------------------------------

    @cached_property
    def _walk(self) -> tuple[list[list[str]], dict[str, tuple[int, int]],
                             list[tuple[bool, bool, bool]]]:
        """The connected components of the underlying undirected multigraph,
        each in vertex order; a level pair per vertex, (net solid steps, net
        dashed steps) on the walk: (0, 0) at the first vertex of its
        component, raised by an edge's `LEVEL_STEP` along it and lowered by
        it against it; and three flags per component: whether some edge
        raises the level pair by other than its `LEVEL_STEP`, whether some
        edge raises the level sum a + b by other than 1, and whether the
        component has a loop.  The walk meets every edge from both ends; an
        edge whose far end already has a level is checked against it, and
        one that gives the far end its level holds by construction.  A loop
        raises nothing, so it breaks both rules."""
        level: dict[str, tuple[int, int]] = {}
        comps, flags = [], []
        for root in self.vertices:
            if root in level:
                continue
            level[root] = (0, 0)
            comp = [root]
            stack = [root]
            off_step = off_sum = looped = False
            while stack:
                v = stack.pop()
                a, b = level[v]
                for w, da, db in self._steps[v]:
                    if w not in level:
                        level[w] = (a + da, b + db)
                        comp.append(w)
                        stack.append(w)
                    elif level[w] != (a + da, b + db):
                        off_step = True
                        off_sum |= sum(level[w]) != a + b + da + db
                        looped |= w == v
            comps.append(sorted(comp, key=self.vertex_index.get))
            flags.append((off_step, off_sum, looped))
        return comps, level, flags

    @cached_property
    def _peel(self) -> list[str]:
        """Kahn's algorithm: vertices in a topological order, as far as it
        gets.  It covers exactly the vertices no directed circuit leads to."""
        indeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            indeg[e.dst] += 1
        order = [v for v in self.vertices if indeg[v] == 0]
        for v in order:
            for w in self._succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        return order

    def distances_from(self, alpha: str) -> dict[str, int]:
        """The least number of edges on a directed path from alpha to v, for
        every v reachable from alpha, by one BFS."""
        dist = {alpha: 0}
        queue = [alpha]
        for v in queue:
            for w in self._succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    # -- structural analysis ----------------------------------------------------------

    def components(self) -> list[list[str]]:
        """Connected components of the underlying undirected multigraph."""
        return [list(comp) for comp in self._walk[0]]

    def sources(self) -> list[str]:
        with_in = {e.dst for e in self.edges}
        return [v for v in self.vertices if v not in with_in]

    def sinks(self) -> list[str]:
        with_out = {e.src for e in self.edges}
        return [v for v in self.vertices if v not in with_out]

    def analyze(self) -> "ComponentAnalysis":
        """Sources, sinks and acyclicity per component, read off the whole
        digraph: no edge leaves a component.  Computed once per digraph; the
        result is frozen, so every caller shares it."""
        return self._analysis

    @cached_property
    def _analysis(self) -> "ComponentAnalysis":
        sources, sinks = set(self.sources()), set(self.sinks())
        peeled = set(self._peel)
        return ComponentAnalysis(tuple(
            ComponentDetail(vertices=tuple(comp),
                            sources=tuple(v for v in comp if v in sources),
                            sinks=tuple(v for v in comp if v in sinks),
                            acyclic=peeled.issuperset(comp))
            for comp in self._walk[0]))

    def _grading(self) -> bool:
        """Whether the walk's level a + b (net steps along edges, 0 at the
        first vertex of each component) rises by 1 on every edge.  Any such
        grading is fixed along the walk by its value at the first vertex, so
        this one exists whenever some grading does."""
        return not any(off_sum for _, off_sum, _ in self._walk[2])

    def equal_path_lengths_check(self):
        """None if any two directed paths between equal endpoints agree in length.

        Otherwise a counterexample (alpha, beta, length1, length2).  On cyclic
        input the circuit itself is the counterexample (a vertex reaches itself
        by the empty path and by the circuit).

        A graded digraph (see `_grading`) is acyclic, and every path from alpha
        to beta in it has length level(beta) - level(alpha), so one O(V + E)
        walk settles that case.  A grading is sufficient, not necessary
        (a->b->c, d->c, d->e, a->e has equal path lengths and none), so
        without one the check falls back to a BFS and a longest-path DP from
        every vertex.
        """
        if self._grading():
            return None
        circuit = self._shortest_circuit()
        if circuit is not None:
            v, length = circuit
            return (v, v, 0, length)
        # acyclic: longest path lengths by DP over the peel's topological order
        for alpha in self.vertices:
            shortest = self.distances_from(alpha)
            longest = {alpha: 0}
            for v in self._peel:
                if v in longest:
                    for w in self._succ[v]:
                        cand = longest[v] + 1
                        if longest.get(w, -1) < cand:
                            longest[w] = cand
            for beta in self.vertices:
                if beta in shortest and shortest[beta] != longest[beta]:
                    return (alpha, beta, shortest[beta], longest[beta])
        return None

    def _shortest_circuit(self):
        """(v, length): the first vertex in vertex order on a directed
        circuit, and the length of the shortest circuit through it; None on
        acyclic input.  Only vertices the peel left can lie on a circuit."""
        peeled = set(self._peel)
        for v in self.vertices:
            if v in peeled:
                continue
            dist = self.distances_from(v)
            back = [dist[e.src] + 1 for e in self.edges
                    if e.dst == v and e.src in dist]
            if back:
                return v, min(back)
        return None

    # -- incoming-label statistics ---------------------------------------------------------

    def descent_counts(self) -> dict[frozenset, int]:
        """How many vertices have each incoming-label set."""
        labels: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            labels[e.dst].add(e.label)
        counts: dict[frozenset, int] = {}
        for v in self.vertices:
            key = frozenset(labels[v])
            counts[key] = counts.get(key, 0) + 1
        return counts

    # -- isomorphism --------------------------------------------------------------------------

    def labeled_isomorphic(self, other: "SLabeledDigraph"):
        """A label/style/direction-preserving bijection, or None.

        The image of a component's first vertex fixes the map on the whole
        component (`_propagate`).  Each component, in vertex order, keeps the
        first unused image that closes: exact, because isomorphic components
        can be swapped.  Raises `edge_pairing`'s ValueError on a digraph that
        breaks the one-edge-per-label rule.
        """
        if set(self.system.generators) != set(other.system.generators):
            return None
        if len(self.vertices) != len(other.vertices) or len(self.edges) != len(other.edges):
            return None
        mine, theirs = self.edge_pairing(), other.edge_pairing()
        theirs = [theirs[other.system.index[g]] for g in self.system.generators]
        image: dict[int, int] = {}
        used: set[int] = set()
        for comp in self._walk[0]:
            root = self.vertex_index[comp[0]]
            for w in range(len(other.vertices)):
                if w not in used:
                    trial = _propagate(mine, theirs, root, w)
                    if trial is not None:
                        break
            else:
                return None
            image.update(trial)
            used.update(trial.values())
        return {v: other.vertices[image[i]] for i, v in enumerate(self.vertices)}

    # -- unions, equality, serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "vertices": list(self.vertices),
            "edges": [{"from": e.src, "to": e.dst, "label": e.label,
                       "style": e.style} for e in self.edges],
        }

    def to_json_text(self) -> str:
        """json.dumps(self.to_json(), indent=2, sort_keys=True), written
        without building the dict tree: each name is escaped once by the C
        escaper that `ensure_ascii` uses, and each edge fills one template."""
        quoted = {v: encode_basestring_ascii(v) for v in self.vertices}
        names = {g: encode_basestring_ascii(g) for g in self.system.generators}
        edges = [_EDGE_JSON % (quoted[e.src], names[e.label], e.style,
                               quoted[e.dst]) for e in self.edges]
        system = json.dumps(self.system.to_json(), indent=2, sort_keys=True)
        return _DIGRAPH_JSON % (_json_list(edges), system.replace("\n", "\n  "),
                                _json_list([quoted[v] for v in self.vertices]))

    def to_dot(self) -> str:
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

    def __repr__(self):
        return (f"SLabeledDigraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


# `to_json_text`'s frame and its edge, at their indents, keys sorted; a style
# needs no escaping
_DIGRAPH_JSON = '{\n  "edges": %s,\n  "system": %s,\n  "vertices": %s\n}'
_EDGE_JSON = ('{\n      "from": %s,\n      "label": %s,\n      "style": "%s",\n'
              '      "to": %s\n    }')


def _json_list(items: list[str]) -> str:
    """A list one level into `_DIGRAPH_JSON`, its items written out."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


@cache
def _entry(partner: int, role: str, style: str) -> tuple:
    """One shared tuple per pairing entry: cached pairings hold no copies."""
    return partner, role, style


def _propagate(mine, theirs, root: int, w: int):
    """The map root -> w extended along both pairings over root's component,
    or None when roles, styles or injectivity break.  Its image is w's whole
    component, so it never meets the image of another component."""
    trial = {root: w}
    taken = {w}
    stack = [root]
    while stack:
        v = stack.pop()
        x = trial[v]
        for row, their_row in zip(mine, theirs):
            (p, *kind), (q, *their_kind) = row[v], their_row[x]
            if kind != their_kind:      # role and style
                return None
            if p in trial:
                if trial[p] != q:
                    return None
            elif q in taken:
                return None
            else:
                trial[p] = q
                taken.add(q)
                stack.append(p)
    return trial


def _dot_id(name: str) -> str:
    """A DOT double-quoted string, with backslash and quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True)
class ComponentDetail:
    vertices: tuple[str, ...]
    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    acyclic: bool


@dataclass(frozen=True)
class ComponentAnalysis:
    components: tuple[ComponentDetail, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_sources(self) -> int:
        return sum(len(c.sources) for c in self.components)

    @property
    def n_sinks(self) -> int:
        return sum(len(c.sinks) for c in self.components)

    @property
    def n_acyclic(self) -> int:
        return sum(1 for c in self.components if c.acyclic)

    @property
    def all_acyclic(self) -> bool:
        return all(c.acyclic for c in self.components)


def load_digraph(source) -> SLabeledDigraph:
    """Load a digraph from a JSON dict or file path.

    The "system" entry may be inline or a path to a system file, resolved
    relative to the digraph file when one was given.
    """
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
    return SLabeledDigraph(system, vertices, edges)
