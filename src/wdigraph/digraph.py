"""Labeled directed multigraphs with solid/dashed edges, one edge per label
at each vertex, plus the derived graphs and structural analyses used by the
classification and module machinery: restrictions, reversal, the
per-generator edge pairing, component scans, sources, sinks and acyclicity
per component, directed path lengths, label-preserving isomorphism, and
JSON/DOT serialization.

A digraph is held as its edge pairing alone, two flat arrays per row: a
partner position and a code byte per vertex, the code naming the (role,
style) of the vertex's end of the edge (`END_CODES`; 0 marks an empty
slot).  Row s < rank is generator s's, and a second edge of one label at a
vertex goes to an extra row of its generator, so the rows hold every edge.
The tuple form, `load_digraph` and the builders of `families` all write it
through one loop, `_fill`, which checks each edge as it reads it and notes
every loop; the structure report reads the loops it noted and finds the
empty slots by a byte search, so a digraph that passes costs no scan of its
entries.  `coded_pairing` hands the rows to the deciders and the module
layer, and is the one structure gate: it raises on every violation the
report lists, loops included, so every reader of the pairing computes only
on a digraph with one edge per label at each vertex and no loop.  `edges`,
the serializations and the derived digraphs are read off the rows, and
still show a broken digraph as it is.  Three walks over the rows by vertex
index, each cached on first use and O(V + E), answer every structural
question: `_walk`
gives the components, a (solid, dashed) level pair per vertex and the
per-component flags that the grading and the sign character read; `_peel`
(Kahn) gives acyclicity and a topological order; `distances_from` (BFS)
gives path lengths and the shortest circuit.  `analyze` keeps its frozen
result, so the CLI and the module layer share one analysis, and
`alternating_cycles` walks the rank-two restrictions the deciders inspect,
each cycle with its word, a `bytes` key with one byte per walk position,
the code of the i-edge in its low three bits and that of the j-edge above
them; `cycle_words` keeps one such walk per pair, as its distinct words,
each with the first vertex of its first cycle, and `cycle_pairing` reads a
word back as its cycle's edge pairing on walk positions.  Label-preserving
isomorphism propagates one vertex's image per component along both
pairings.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter, or_
from typing import Iterable, Iterator, NamedTuple

from .coxeter import CoxeterSystem

SOLID = "solid"
DASHED = "dashed"

# the change of the (solid, dashed) level pair along an edge of each style
LEVEL_STEP = {SOLID: (1, 0), DASHED: (0, 1)}

# the code of a vertex's end of an edge in the pairing's code rows; 0 marks
# an empty slot, and a head's code is its tail's plus one, so a tail's code
# is odd
END_CODES = {("tail", SOLID): 1, ("head", SOLID): 2,
             ("tail", DASHED): 3, ("head", DASHED): 4}
CODE_ENDS = (None, *END_CODES)                  # code -> (role, style)
_TAIL_CODES = {style: END_CODES["tail", style] for style in (SOLID, DASHED)}
# code -> the change of the level pair along the edge away from this end:
# `LEVEL_STEP` from a tail, negated from a head
_CODE_STEP = (None, (1, 0), (-1, 0), (0, 1), (0, -1))
# `bytes.translate` tables: a code row turned round, its tails and its heads
# as 1s, its codes shifted to a j-code; a cycle word's i-codes and j-codes
_TURNED = bytes.maketrans(bytes((1, 2, 3, 4)), bytes((2, 1, 4, 3)))
_TAILS = bytes.maketrans(bytes((1, 2, 3, 4)), bytes((1, 0, 1, 0)))
_HEADS = bytes.maketrans(bytes((1, 2, 3, 4)), bytes((0, 1, 0, 1)))
_SHIFTED = bytes.maketrans(bytes((1, 2, 3, 4)), bytes((8, 16, 24, 32)))
_I_CODES = bytes(range(8)) * 32
_J_CODES = bytes(b >> 3 for b in range(256))
# a cycle word's byte -> the (role, style) of its i-edge and of its j-edge;
# and -> 1 where both are tails, at a source of the cycle
WORD_ENDS = {i | j << 3: (CODE_ENDS[i], CODE_ENDS[j])
             for i in range(5) for j in range(5)}
WORD_SOURCES = bytes(b & 1 and b >> 3 & 1 for b in range(256))
_EDGE_KEYS = itemgetter("from", "to", "label", "style")


class Edge(NamedTuple):
    src: str
    dst: str
    label: str
    style: str


class SLabeledDigraph:
    """Vertices plus generator-labeled solid/dashed directed edges, held as
    their edge pairing.  Vertex order is meaningful: it fixes the basis
    order of the associated module and indexes every per-vertex table.
    `edges` lists the edges by label name, then tail index, head index and
    style, whatever order they were given in.
    """

    def __init__(self, system: CoxeterSystem, vertices: Iterable[str],
                 edges: Iterable[tuple]):
        """The digraph of (src, dst, label, style) edges, checked in turn."""
        self.system = system
        self.vertices = tuple(vertices)
        self.vertex_index = index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self._rows, self._gens, self._loops = _fill(
            system.rank(), len(index), edges, index, system.index, _TAIL_CODES)

    @classmethod
    def _on_rows(cls, system: CoxeterSystem, vertices: tuple[str, ...],
                 rows: list, gens: list[int], loops: list
                 ) -> "SLabeledDigraph":
        """The digraph of the rows, generators and loops `_fill` returns,
        on distinct vertex ids."""
        g = cls.__new__(cls)
        g.system, g.vertices = system, vertices
        g._rows, g._gens, g._loops = rows, gens, loops
        return g

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    # -- the pairing --------------------------------------------------------------

    @cached_property
    def _report(self) -> tuple[list[str], list[str]]:
        """The loop lines and the count lines of `validate_structure`; a
        loop meets its vertex once, as its head.  The loops are the ones
        `_fill` noted, and only a digraph with an extra row or an empty
        slot, which a byte search finds, has count lines."""
        names, labels = self.vertices, self.system.generators
        rows, gens = self._rows, self._gens
        loops = sorted((labels[gens[k]], i, CODE_ENDS[rows[k][1][i]][1])
                       for k, i in self._loops)
        if len(rows) == len(labels) and not any(0 in codes for _, codes in rows):
            bad = []
        else:
            counts = [[0] * len(names) for _ in labels]
            for s, (_, codes) in zip(gens, rows):
                for i, c in enumerate(codes):
                    counts[s][i] += c > 0
            bad = sorted((v, g, counts[s][i]) for s, g in enumerate(labels)
                         for i, v in enumerate(names) if counts[s][i] != 1)
        return ([f"loop at {names[i]} labeled {g}" for g, i, _ in loops],
                [f"vertex {v} meets {c} edges labeled {g}" for v, g, c in bad])

    def validate_structure(self) -> list[str]:
        """All violations of the defining invariants (empty list means ok):
        the loops in edge order, then every (vertex, label) not met by
        exactly one edge, sorted by vertex and label name."""
        loops, counts = self._report
        return loops + counts

    def coded_pairing(self) -> list[tuple[list[int], bytearray]]:
        """rows[s] = (partners, codes) for generator s: partners[i] the
        index of the other end of the s-edge at vertex i, and codes[i] the
        `END_CODES` code of its (role, style) at i.  The one structure gate:
        raises ValueError with the first line of `validate_structure` on any
        violation, so the rows it returns pair the vertices with no loop and
        no empty slot.  The rows are shared: do not mutate them."""
        problems = self.validate_structure()
        if problems:
            raise ValueError(problems[0])
        return self._rows

    def alternating_cycles(self, i: int, j: int
                           ) -> Iterator[tuple[list[int], bytes]]:
        """The components of the restriction to generators i and j, in the
        order of their first vertices, each as (cycle, word): cycle holds its
        vertex indices walked from its first vertex by taking the i-partner
        and the j-partner in turn, and word[p] the codes of the i-edge and
        the j-edge at walk position p, as i-code | j-code << 3.  The
        digraph passes `coded_pairing`'s gate, so each of the two pairings
        is a fixed-point-free involution, each component is a single cycle
        of even length whose labels alternate, closed by a j-step, and
        `cycle_pairing(word)` is its edge pairing on walk positions.  Each
        cycle is walked when it is asked for, and none is cached;
        `cycle_words` keeps what the deciders read of the walk, each
        distinct word and the first vertex of its first cycle."""
        rows = self.coded_pairing()
        (first, i_codes), (second, j_codes) = rows[i], rows[j]
        both = bytes(map(or_, i_codes, j_codes.translate(_SHIFTED)))
        seen = bytearray(len(both))
        start = seen.find(0)
        while start >= 0:
            cycle, word, v = [], bytearray(), start
            while True:
                # two positions per turn: an even one, left by its i-edge,
                # then an odd one, left by its j-edge
                seen[v] = 1
                cycle.append(v)
                word.append(both[v])
                v = first[v]
                seen[v] = 1
                cycle.append(v)
                word.append(both[v])
                v = second[v]
                if v == start:
                    break
            yield cycle, bytes(word)
            start = seen.find(0, start + 1)

    @cached_property
    def _cycle_words(self) -> dict:
        return {}

    def cycle_words(self, i: int, j: int) -> dict[bytes, int]:
        """The distinct cycle words of the restriction to generators i and
        j, in the order of the first vertices of their cycles, each mapped
        to the first vertex of its first cycle: one walk of
        `alternating_cycles`, kept per pair."""
        found = self._cycle_words.get((i, j))
        if found is None:
            found = {}
            for cycle, word in self.alternating_cycles(i, j):
                found.setdefault(word, cycle[0])
            self._cycle_words[i, j] = found
        return found

    def _by_label(self) -> Iterator[tuple[int, list[tuple[int, int, str]]]]:
        """(s, the s-edges as (tail, head, style), sorted) for each generator
        s in label-name order.  Each edge is read at its tail, or a loop at
        its vertex, so only a generator with extra rows or a loop needs the
        sort."""
        labels, rows, gens = self.system.generators, self._rows, self._gens
        vertices = range(len(self.vertices))
        for s in sorted(range(len(labels)), key=labels.__getitem__):
            ks = [k for k, g in enumerate(gens) if g == s]
            arcs = [(i, partners[i], CODE_ENDS[codes[i]][1])
                    for partners, codes in map(rows.__getitem__, ks)
                    for i in compress(vertices, codes.translate(_TAILS))]
            looped = [(i, i, CODE_ENDS[rows[k][1][i]][1])
                      for k, i in self._loops if gens[k] == s]
            if len(ks) > 1 or looped:
                arcs += looped
                arcs.sort()
            yield s, arcs

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        names, labels = self.vertices, self.system.generators
        return tuple(Edge(names[a], names[b], labels[s], style)
                     for s, arcs in self._by_label() for a, b, style in arcs)

    def _edge_count(self) -> int:
        """The tails, counted by a byte count, and the loops."""
        return len(self._loops) + sum(codes.translate(_TAILS).count(1)
                                      for _, codes in self._rows)

    # -- derived digraphs ----------------------------------------------------------

    def restrict(self, J: Iterable) -> "SLabeledDigraph":
        """Same vertices, only edges labeled by elements of J."""
        keep = {self.system._gen_index(s) for s in J}
        empty = ([0] * len(self.vertices), bytearray(len(self.vertices)))
        gens = self._gens
        return SLabeledDigraph._on_rows(
            self.system, self.vertices,
            [row if s in keep else empty for s, row in zip(gens, self._rows)],
            gens, [(k, i) for k, i in self._loops if gens[k] in keep])

    def reverse(self) -> "SLabeledDigraph":
        """Every edge turned round: tail and head swap their codes, by one
        byte translation per row, except at a loop, which stays its
        vertex's head.  The partner rows are shared."""
        rows = [(partners, codes.translate(_TURNED))
                for partners, codes in self._rows]
        for k, i in self._loops:
            rows[k][1][i] = self._rows[k][1][i]
        return SLabeledDigraph._on_rows(self.system, self.vertices, rows,
                                        self._gens, self._loops)

    @cached_property
    def _arrows(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per vertex index, the heads of the edges out of it and the tails
        of the edges into it; a loop is in both."""
        succ = [[] for _ in self.vertices]
        pred = [[] for _ in self.vertices]
        vertices = range(len(self.vertices))
        for partners, codes in self._rows:
            for i in compress(vertices, codes.translate(_TAILS)):
                succ[i].append(partners[i])
            for i in compress(vertices, codes.translate(_HEADS)):
                p = partners[i]
                pred[i].append(p)
                if p == i:
                    succ[i].append(p)
        return succ, pred

    # -- the three walks --------------------------------------------------------------

    @cached_property
    def _walk(self) -> tuple[list[list[int]], list[tuple[int, int]],
                             list[tuple[bool, bool]]]:
        """The connected components of the underlying undirected multigraph
        as sorted vertex indices; a level pair per vertex index, (net solid
        steps, net dashed steps) from the first vertex of its component,
        each edge's `LEVEL_STEP` counted along it and negated against it;
        and two flags per component: some edge raises the level pair by
        other than its `LEVEL_STEP`, some edge raises the level sum a + b by
        other than 1.  Each edge is met from both ends (a loop once, as its
        head), and checked when its far end already has a level.  A loop
        raises nothing, so it breaks both rules."""
        rows = self._rows
        level: list[tuple[int, int] | None] = [None] * len(self.vertices)
        comps, flags = [], []
        for root in range(len(level)):
            if level[root] is not None:
                continue
            level[root] = (0, 0)
            comp = [root]
            stack = [root]
            off_step = off_sum = False
            while stack:
                v = stack.pop()
                a, b = level[v]
                for partners, codes in rows:
                    c = codes[v]
                    if not c:
                        continue
                    w = partners[v]
                    da, db = _CODE_STEP[c]
                    if level[w] is None:
                        level[w] = (a + da, b + db)
                        comp.append(w)
                        stack.append(w)
                    elif level[w] != (a + da, b + db):
                        off_step = True
                        off_sum |= sum(level[w]) != a + b + da + db
            comps.append(sorted(comp))
            flags.append((off_step, off_sum))
        return comps, level, flags

    @cached_property
    def _peel(self) -> list[int]:
        """Kahn's algorithm: vertex indices in a topological order, as far
        as it gets.  It covers exactly the vertices no directed circuit
        leads to."""
        succ, pred = self._arrows
        indeg = [len(p) for p in pred]
        order = [v for v, d in enumerate(indeg) if d == 0]
        for v in order:
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        return order

    def distances_from(self, alpha: int) -> dict[int, int]:
        """The least number of edges on a directed path from vertex index
        alpha to v, for every vertex index v reachable from alpha, by one
        BFS."""
        succ = self._arrows[0]
        dist = {alpha: 0}
        queue = [alpha]
        for v in queue:
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    # -- structural analysis ----------------------------------------------------------

    def components(self) -> list[list[str]]:
        """Connected components of the underlying undirected multigraph."""
        return [[self.vertices[i] for i in comp] for comp in self._walk[0]]

    def sources(self) -> list[str]:
        return [v for v, p in zip(self.vertices, self._arrows[1]) if not p]

    def sinks(self) -> list[str]:
        return [v for v, s in zip(self.vertices, self._arrows[0]) if not s]

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
                            acyclic=peeled.issuperset(indices))
            for comp, indices in zip(self.components(), self._walk[0])))

    def _grading(self) -> bool:
        """Whether the walk's level a + b (net steps along edges, 0 at the
        first vertex of each component) rises by 1 on every edge.  Any such
        grading is fixed along the walk by its value at the first vertex, so
        this one exists whenever some grading does."""
        return not any(off_sum for _, off_sum in self._walk[2])

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
        succ, names = self._arrows[0], self.vertices
        for alpha in range(len(names)):
            shortest = self.distances_from(alpha)
            longest = {alpha: 0}
            for v in self._peel:
                if v in longest:
                    for w in succ[v]:
                        cand = longest[v] + 1
                        if longest.get(w, -1) < cand:
                            longest[w] = cand
            for beta in range(len(names)):
                if beta in shortest and shortest[beta] != longest[beta]:
                    return (names[alpha], names[beta], shortest[beta],
                            longest[beta])
        return None

    def _shortest_circuit(self):
        """(v, length): the first vertex in vertex order on a directed
        circuit, and the length of the shortest circuit through it, closed
        by an edge from one of its predecessors; None on acyclic input.
        Only vertices the peel left can lie on a circuit."""
        peeled = set(self._peel)
        for v, pred in enumerate(self._arrows[1]):
            if v not in peeled:
                dist = self.distances_from(v)
                back = [dist[p] + 1 for p in pred if p in dist]
                if back:
                    return self.vertices[v], min(back)
        return None

    # -- isomorphism --------------------------------------------------------------------------

    def labeled_isomorphic(self, other: "SLabeledDigraph"):
        """A label/style/direction-preserving bijection, or None.

        The image of a component's first vertex fixes the map on the whole
        component (`_propagate`).  Each component, in vertex order, keeps the
        first unused image that closes: exact, because isomorphic components
        can be swapped.  Raises `coded_pairing`'s ValueError, before any
        other test, unless both digraphs pass `validate_structure`.
        """
        mine, theirs = self.coded_pairing(), other.coded_pairing()
        if set(self.system.generators) != set(other.system.generators):
            return None
        if (len(self.vertices) != len(other.vertices)
                or self._edge_count() != other._edge_count()):
            return None
        theirs = [theirs[other.system.index[g]] for g in self.system.generators]
        image: dict[int, int] = {}
        used: set[int] = set()
        for comp in self._walk[0]:
            root = comp[0]
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

    # -- serialization ----------------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "vertices": list(self.vertices),
            "edges": [{"from": e.src, "to": e.dst, "label": e.label,
                       "style": e.style} for e in self.edges],
        }

    def to_json_text(self) -> str:
        """json.dumps(self.to_json(), indent=2, sort_keys=True), written
        without building the dict tree or the `Edge` tuples: each name is
        escaped once by the C escaper that `ensure_ascii` uses, and each
        edge fills one template."""
        quoted = [encode_basestring_ascii(v) for v in self.vertices]
        labels = [encode_basestring_ascii(g) for g in self.system.generators]
        edges = [_EDGE_JSON % (quoted[a], labels[s], style, quoted[b])
                 for s, arcs in self._by_label() for a, b, style in arcs]
        system = json.dumps(self.system.to_json(), indent=2, sort_keys=True)
        return _DIGRAPH_JSON % (_json_list(edges), system.replace("\n", "\n  "),
                                _json_list(quoted))

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
                f"{self._edge_count()} edges)")


def _fill(rank: int, n: int, edges: Iterable[tuple], vertex, label, code
          ) -> tuple[list[tuple[list[int], bytearray]], list[int],
                     list[tuple[int, int]]]:
    """The rows of (src, dst, label, style) edges on n vertices, the
    generator of each row and the (row, vertex) of each loop: `vertex`,
    `label` and `code` map an edge's ends to vertex indices, its label to a
    generator and its style to its tail's code, each edge checked as it is
    read, its style, then its two ends, then its label.  Row s < rank is
    generator s's pairing, and an edge that finds a slot there taken goes
    to the first extra row of its generator free at both its ends, or a new
    one.  A loop is written once, as its vertex's head."""
    rows = [([0] * n, bytearray(n)) for _ in range(rank)]
    gens = list(range(rank))
    loops = []
    for edge in edges:
        src, dst, name, style = edge
        try:
            tail = code[style]
        except (KeyError, TypeError):
            raise ValueError(f"bad edge style {style!r}") from None
        try:
            a, b, k = vertex[src], vertex[dst], label[name]
        except KeyError:
            raise ValueError(f"edge {Edge(*edge)} " + (
                "has a label outside the system"
                if src in vertex and dst in vertex
                else "references unknown vertex")) from None
        partners, codes = rows[k]
        if codes[a] or codes[b]:
            s = k
            k = next((r for r in range(rank, len(rows)) if gens[r] == s
                      and not rows[r][1][a] and not rows[r][1][b]), len(rows))
            if k == len(rows):
                rows.append(([0] * n, bytearray(n)))
                gens.append(s)
            partners, codes = rows[k]
        if a != b:
            partners[a], codes[a] = b, tail
        else:
            loops.append((k, a))
        partners[b], codes[b] = a, tail + 1
    return rows, gens, loops


def cycle_pairing(word: bytes) -> list[tuple[list[int], bytes]]:
    """The edge pairing of the alternating cycle of a cycle word from
    `SLabeledDigraph.alternating_cycles` on a digraph that passes
    `validate_structure`, so of even length, on its walk positions: a row
    for the i-edges, then one for the j-edges, each (partners, codes) as in
    `coded_pairing`, the codes read off the word by one byte translation
    each.  The walk's parity rule gives the partners: the i-partner of p is
    p + 1 and the j-partner p - 1 when p is even, the other way round when
    p is odd, mod the length."""
    size = len(word)
    # inside the walk the j-partner of p is the i-partner of p - 1, plus 1
    second = [size - 1, *[((p - 1) ^ 1) + 1 for p in range(1, size - 1)], 0]
    return [([p ^ 1 for p in range(size)], word.translate(_I_CODES)),
            (second, word.translate(_J_CODES))]


# `to_json_text`'s frame and its edge, at their indents, keys sorted; a style
# needs no escaping
_DIGRAPH_JSON = '{\n  "edges": %s,\n  "system": %s,\n  "vertices": %s\n}'
_EDGE_JSON = ('{\n      "from": %s,\n      "label": %s,\n      "style": "%s",\n'
              '      "to": %s\n    }')


def _json_list(items: list[str]) -> str:
    """A list one level into `_DIGRAPH_JSON`, its items written out."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _propagate(mine, theirs, root: int, w: int):
    """The map root -> w extended along both pairings over root's component,
    or None when codes (roles and styles) or injectivity break.  Its image
    is w's whole component, so it never meets the image of another
    component."""
    trial = {root: w}
    taken = {w}
    stack = [root]
    while stack:
        v = stack.pop()
        x = trial[v]
        for (partners, codes), (their_partners, their_codes) in zip(mine,
                                                                     theirs):
            if codes[v] != their_codes[x]:
                return None
            p, q = partners[v], their_partners[x]
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
    relative to the digraph file when one was given.  The edge dicts go
    straight into the tuple form's one pass, `_fill`, each read by one
    C-level item getter, so they are checked as it checks its tuples, and
    no list of tuples is made.
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
    edges = data["edges"]
    try:
        return SLabeledDigraph(system, vertices, map(_EDGE_KEYS, edges))
    except (ValueError, TypeError):
        # the one pass checks each edge as it reads it; an edge dict that
        # lacks a key, anywhere in the list, is still reported first
        for e in edges:
            e["from"], e["to"], e["label"], e["style"]
        raise
