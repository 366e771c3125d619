"""Tests for the labeled digraph structure and its analyses."""

import json
import random
from collections import Counter
from math import inf

import pytest

from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism
from wdigraph.digraph import DASHED, SOLID, Edge, SLabeledDigraph, load_digraph
from wdigraph import families, hecke
from wdigraph.families import (EXAMPLE_NAMES, FamilySpec, build_example,
                               build_family, build_lv, build_regular)

import conftest
from conftest import (TupleDigraph, decoded_word, descent_counts,
                      disjoint_union, distances_by_name, edge_pairing,
                      in_label_set, is_acyclic, make_a3, path_length_mu,
                      random_labeled_digraph, reachable_from,
                      reference_load_digraph, reference_walk_digraph,
                      same_structure, scan_alternating_cycles,
                      scan_shortest_circuit, scan_walk_flags, subgraph,
                      successors, tuple_rows, tuple_rows_load,
                      undirected_neighbors)
from test_cli_golden import FAMILY_SIZES
from test_coxeter import (DIFFERENTIAL_SYSTEMS, INFINITE_DIFFERENTIAL,
                          involutory_automorphisms)


@pytest.fixture(scope="module")
def i23():
    return CoxeterSystem.dihedral(3)


def single_edge(system):
    return SLabeledDigraph(system, ["x", "y"], [("x", "y", "s", SOLID)])


def test_validate_single_edge():
    a1 = CoxeterSystem(["s"], {})
    assert single_edge(a1).validate_structure() == []


def test_validate_duplicate_label():
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y", "z"],
                        [("x", "y", "s", SOLID), ("x", "z", "s", SOLID)])
    problems = g.validate_structure()
    assert any("x" in p and "2" in p for p in problems)


def test_validate_figure7_parallel_edges(i23):
    g = build_family(i23, FamilySpec(7, 1))
    assert g.validate_structure() == []


def test_validate_loop():
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x"], [("x", "x", "s", SOLID)])
    assert any("loop" in p for p in g.validate_structure())


def test_validate_structure_lines_and_order():
    # vertex names sort against their index order, generators are declared
    # out of name order; a loop, a label met twice and labels met by no edge
    system = CoxeterSystem(["t", "r", "s"],
                           {("t", "s"): 3, ("r", "s"): 2, ("r", "t"): 3})
    g = SLabeledDigraph(system, ["y", "x", "b", "a"], [
        ("y", "y", "t", SOLID), ("x", "y", "r", DASHED), ("b", "a", "r", SOLID),
        ("x", "b", "s", SOLID), ("x", "a", "s", DASHED), ("a", "b", "t", DASHED)])
    assert g.validate_structure() == [
        "loop at y labeled t",
        "vertex x meets 2 edges labeled s",
        "vertex x meets 0 edges labeled t",
        "vertex y meets 0 edges labeled s",
    ]


def test_restrict(i23):
    g = build_family(i23, FamilySpec(1, 3))
    assert g.restrict("st").edges == g.edges
    empty = g.restrict("")
    assert empty.edges == ()
    assert len(empty.components()) == len(g.vertices)


def test_restrict_affine_cycle():
    # each rank-two restriction of the cycle is a single 6-cycle
    g = build_example("affine_a2_cycle")
    for pair in ("st", "rs", "rt"):
        comps = g.restrict(pair).components()
        assert [len(c) for c in comps] == [6]


def test_reverse_involution(i23):
    g = build_family(i23, FamilySpec(4, 2))
    assert same_structure(g.reverse().reverse(), g)


def test_reverse_fig4_is_fig5(i23):
    g4 = build_family(i23, FamilySpec(4, 2))
    g5 = build_family(i23, FamilySpec(5, 2))
    assert g4.reverse().labeled_isomorphic(g5) is not None


def test_analyze_family(i23):
    g = build_family(i23, FamilySpec(1, 3))
    analysis = g.analyze()
    assert analysis.n_components == 1
    comp = analysis.components[0]
    assert comp.sources == ("a0",) and comp.sinks == ("b3",)
    assert comp.acyclic


def test_analyze_cycle():
    g = build_example("affine_a2_cycle")
    analysis = g.analyze()
    assert analysis.n_components == 1
    assert analysis.n_sources == 0 and analysis.n_sinks == 0
    assert not analysis.all_acyclic


def test_analyze_edgeless():
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y", "z"], [])
    analysis = g.analyze()
    assert analysis.n_components == 3
    assert analysis.n_sources == 3 and analysis.n_sinks == 3
    assert analysis.all_acyclic


def test_analyze_of_reverse_swaps(i23):
    g = build_family(i23, FamilySpec(2, 3))
    a, b = g.analyze(), g.reverse().analyze()
    assert a.n_components == b.n_components
    assert {c.sources for c in a.components} == {c.sinks for c in b.components}
    assert a.all_acyclic == b.all_acyclic


def test_path_length(i23):
    g = build_family(i23, FamilySpec(1, 3))
    assert path_length_mu(g, "a0", "b3") == 3
    assert path_length_mu(g, "a0", "a0") == 0
    assert path_length_mu(g, "b3", "a0") is None


def test_equal_path_lengths(i23):
    g = build_family(i23, FamilySpec(1, 3))
    assert g.equal_path_lengths_check() is None
    cyc = build_example("affine_a2_cycle")
    counterexample = cyc.equal_path_lengths_check()
    assert counterexample is not None
    alpha, beta, l1, l2 = counterexample
    assert alpha == beta and l1 == 0 and l2 > 0


def test_single_edge_equal_lengths():
    a1 = CoxeterSystem(["s"], {})
    assert single_edge(a1).equal_path_lengths_check() is None


def test_in_label_set(i23):
    g = build_family(i23, FamilySpec(1, 2))
    assert in_label_set(g, "a0") == frozenset()
    assert in_label_set(g, "b2") == {"s", "t"}
    cyc = build_example("affine_a2_cycle")
    counts = descent_counts(cyc)
    assert counts.get(frozenset(), 0) == 0


def test_isomorphic_to_self(i23):
    g = build_family(i23, FamilySpec(2, 3))
    iso = g.labeled_isomorphic(g)
    assert iso is not None


def test_fig2_fig3_not_isomorphic(i23):
    g2 = build_family(i23, FamilySpec(2, 3))
    g3 = build_family(i23, FamilySpec(3, 3))
    assert g2.labeled_isomorphic(g3) is None
    i24 = CoxeterSystem.dihedral(4)
    assert (build_family(i24, FamilySpec(2, 2))
            .labeled_isomorphic(build_family(i24, FamilySpec(3, 2)))) is None


def test_isomorphism_respects_styles(i23):
    g1 = build_family(i23, FamilySpec(7, 1))
    g8 = build_family(i23, FamilySpec(8, 1))
    assert g1.labeled_isomorphic(g8) is None


def test_isomorphism_needs_equal_generators_and_vertex_counts(i23):
    g = build_family(i23, FamilySpec(7, 1))
    renamed = build_family(CoxeterSystem.dihedral(3, ("s", "u")),
                           FamilySpec(7, 1, "s", "u"))
    assert g.labeled_isomorphic(renamed) is None
    # two copies of g: the same generators, twice the vertices
    assert g.labeled_isomorphic(disjoint_union(g, g)) is None


def test_json_roundtrip(i23):
    g = build_family(i23, FamilySpec(6, 3))
    data = json.loads(json.dumps(g.to_json()))
    g2 = load_digraph(data)
    assert same_structure(g2, g)


def stdlib_text(g):
    return json.dumps(g.to_json(), indent=2, sort_keys=True)


@pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
def test_json_text_is_the_stdlib_dump_on_walked_digraphs(name):
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    stars = involutory_automorphisms(system)
    for bound in (0, 3, *([None] if name not in INFINITE_DIFFERENTIAL else [])):
        for g in (build_regular(system, bound),
                  *(build_lv(system, star, bound) for star in stars)):
            assert g.to_json_text() == stdlib_text(g), (name, bound)


def test_json_text_is_the_stdlib_dump_on_examples_and_templates():
    digraphs = [build_example(name) for name in EXAMPLE_NAMES]
    for figure, sizes in FAMILY_SIZES.items():
        digraphs += [build_family(CoxeterSystem.dihedral(n), FamilySpec(figure, m))
                     for m, n in sizes]
    assert len(digraphs) == 5 + 16
    for g in digraphs:
        assert g.to_json_text() == stdlib_text(g)


def test_json_text_edge_cases():
    a1 = build_regular(CoxeterSystem(["s"], {}), 0)
    assert not a1.edges and '"edges": [],' in a1.to_json_text()
    infinite = build_regular(CoxeterSystem.dihedral(inf), 2)
    assert '"s,t": "inf"' in infinite.to_json_text()
    # one-character names that JSON escapes, allowed to library code
    odd = CoxeterSystem(['"', "\\", "α"], {('"', "\\"): 3, ("\\", "α"): 4})
    text = build_regular(odd, 3).to_json_text()
    assert '"\\""' in text and '"\\\\"' in text and '"\\u03b1"' in text
    for g in (a1, infinite, build_regular(odd, 3), build_regular(odd, 0)):
        assert g.to_json_text() == stdlib_text(g)
        assert same_structure(load_digraph(json.loads(g.to_json_text())), g)


def test_json_system_by_path(tmp_path, i23):
    syspath = tmp_path / "system.json"
    syspath.write_text(json.dumps(i23.to_json()))
    g = build_family(i23, FamilySpec(1, 2))
    data = g.to_json()
    data["system"] = "system.json"
    dpath = tmp_path / "digraph.json"
    dpath.write_text(json.dumps(data))
    g2 = load_digraph(str(dpath))
    assert same_structure(g2, g)


def test_dot_export(i23):
    g = build_family(i23, FamilySpec(2, 2))
    dot = g.to_dot()
    assert dot.startswith("digraph G {")
    assert 'style=dashed' in dot
    assert '"a0" -> "a1" [label="s", style=dashed];' in dot


def test_dot_export_escapes_quotes_and_backslashes():
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ['a"b', "c\\d"], [('a"b', "c\\d", "s", DASHED)])
    assert g.to_dot() == ('digraph G {\n'
                          '  "a\\"b";\n'
                          '  "c\\\\d";\n'
                          '  "a\\"b" -> "c\\\\d" [label="s", style=dashed];\n'
                          '}')


def test_disjoint_union(i23):
    g = build_family(i23, FamilySpec(1, 2))
    both = disjoint_union(g, g)
    assert len(both.vertices) == 8
    assert both.validate_structure() == []
    assert both.analyze().n_components == 2


def test_canonical_edge_order_is_stable(i23):
    g1 = build_family(i23, FamilySpec(1, 2))
    shuffled = SLabeledDigraph(g1.system, g1.vertices, list(g1.edges)[::-1])
    assert shuffled.edges == g1.edges


def test_reverse_preserves_component_partition(i23):
    g = build_example("ex_fig2")
    parts = {frozenset(c.vertices) for c in g.analyze().components}
    rev_parts = {frozenset(c.vertices) for c in g.reverse().analyze().components}
    assert parts == rev_parts


def test_underlying_cycle_of_family(i23):
    # the undirected view of a 2m-vertex template is a single simple cycle
    g = build_family(i23, FamilySpec(1, 3))
    assert len(g.edges) == len(g.vertices)
    for v in g.vertices:
        assert len(undirected_neighbors(g, v)) == 2
    assert len(g.components()) == 1


# -- the once-built adjacency against the edge scans it replaced --------------------------


def scan_neighbors(g, v):
    out = []
    for e in g.edges:
        if e.src == v:
            out.append(e.dst)
        elif e.dst == v:
            out.append(e.src)
    return out


def scan_reachable(g, alpha):
    seen, stack = {alpha}, [alpha]
    while stack:
        v = stack.pop()
        for e in g.edges:
            if e.src == v and e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen


def scan_components(g):
    """Connected components in vertex order, grown by edge scans."""
    seen, comps = set(), []
    for root in g.vertices:
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in scan_neighbors(g, stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append([v for v in g.vertices if v in comp])
    return comps


def three_colour_acyclic(g):
    """No directed circuit: the three-colour DFS `is_acyclic` once ran."""
    state = {v: 0 for v in g.vertices}  # 0 new, 1 active, 2 done
    succ = scan_successors(g)
    for root in g.vertices:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(succ[w])))
                    break
            else:
                state[v] = 2
                stack.pop()
    return True


def scan_successors(g):
    return {v: [e.dst for e in g.edges if e.src == v] for v in g.vertices}


def bfs_distances(succ, alpha):
    dist, queue = {alpha: 0}, [alpha]
    for v in queue:
        for w in succ[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def scan_circuit(g, succ):
    """The first vertex, in vertex order, with a successor that leads back
    to it, and the shortest circuit through it; None on acyclic input."""
    for v in g.vertices:
        back = [bfs_distances(succ, w).get(v) for w in succ[v]]
        back = [d + 1 for d in back if d is not None]
        if back:
            return v, min(back)
    return None


def scan_pairing(g):
    """pairing[s][i] = (partner index, role, style) from a scan of the
    s-edges at each vertex, a loop meeting its vertex once, as its head;
    None unless every vertex meets exactly one edge per label."""
    index = g.vertex_index
    rows = []
    for s in g.system.generators:
        row = []
        for v in g.vertices:
            at_v = [(index[e.src], "head", e.style) if e.dst == v
                    else (index[e.dst], "tail", e.style)
                    for e in g.edges if e.label == s and v in (e.src, e.dst)]
            if len(at_v) != 1:
                return None
            row.append(at_v[0])
        rows.append(row)
    return rows


def adjacency_fixtures():
    a3 = CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3})
    i23 = CoxeterSystem.dihedral(3)
    out = {name: build_example(name) for name in EXAMPLE_NAMES}
    out["lv_a3"] = build_lv(a3, DiagramAutomorphism.identity(a3))
    out["regular_a3"] = build_regular(a3)
    for figure, m in [(1, 3), (4, 3), (7, 1), (8, 1)]:
        out[f"fig{figure}_m{m}"] = build_family(i23, FamilySpec(figure, m))
    # a directed triangle entered from a vertex off the circuit, and a loop
    out["tail_then_triangle"] = SLabeledDigraph(
        i23, ["p", "x", "y", "z"],
        [("p", "x", "s", SOLID), ("x", "y", "t", SOLID),
         ("y", "z", "s", DASHED), ("z", "x", "t", SOLID)])
    out["loop"] = SLabeledDigraph(i23, ["x", "y"],
                                  [("x", "x", "s", SOLID), ("x", "y", "t", SOLID)])
    out["edgeless"] = SLabeledDigraph(i23, ["x", "y"], [])
    return out


def per_component_reference(g):
    """`analyze()` as it once ran: one induced subdigraph per component,
    its own sources and sinks, and the three-colour DFS."""
    return [(sub.vertices, tuple(sub.sources()), tuple(sub.sinks()),
             three_colour_acyclic(sub))
            for sub in (subgraph(g, c) for c in scan_components(g))]


def test_analyze_matches_per_component_reference():
    from test_validator import group_digraphs, oracle_inputs

    inputs = [*oracle_inputs(), *group_digraphs(),
              *adjacency_fixtures().items()]
    cyclic = 0
    for label, g in inputs:
        got = [(c.vertices, c.sources, c.sinks, c.acyclic)
               for c in g.analyze().components]
        assert got == per_component_reference(g), label
        cyclic += not all(c[3] for c in got)
    assert 100 < cyclic < len(inputs) - 100


@pytest.mark.parametrize("name", sorted(adjacency_fixtures()))
def test_adjacency_matches_edge_scans(name):
    g = adjacency_fixtures()[name]
    succ = scan_successors(g)
    for v in g.vertices:
        assert successors(g, v) == succ[v]
        assert undirected_neighbors(g, v) == scan_neighbors(g, v)
        assert reachable_from(g, v) == scan_reachable(g, v)
        assert distances_by_name(g, v) == bfs_distances(succ, v)
    assert g.components() == scan_components(g)
    assert g._shortest_circuit() == scan_circuit(g, succ)
    assert is_acyclic(g) == (scan_circuit(g, succ) is None) \
        == three_colour_acyclic(g)
    # the peel is a topological order of what it covers
    position = {g.vertices[v]: i for i, v in enumerate(g._peel)}
    assert all(position[e.src] < position[e.dst]
               for e in g.edges if e.dst in position)
    expected = scan_pairing(g)
    if expected is None:
        with pytest.raises(ValueError):
            edge_pairing(g)
    else:
        assert edge_pairing(g) == expected


def walk_inputs():
    """The template grid, seeded random digraphs and the examples of the
    oracle's inputs, the group digraphs and the adjacency fixtures, which
    include a loop and an edgeless digraph."""
    from test_validator import group_digraphs, oracle_inputs

    return [*oracle_inputs(), *group_digraphs(),
            *adjacency_fixtures().items()]


def test_alternating_cycles_match_edge_scans():
    walked = broken = 0
    for label, g in walk_inputs():
        gens = g.system.generators
        pairs = [(i, j) for i in range(len(gens))
                 for j in range(i + 1, len(gens))]
        if scan_pairing(g) is None:
            for i, j in pairs:
                with pytest.raises(ValueError):
                    list(g.alternating_cycles(i, j))
            broken += 1
            continue
        for i, j in pairs:
            # each cycle with its word of (role, style) pairs, both scanned
            cycles = list(g.alternating_cycles(i, j))
            assert [(cycle, decoded_word(word)) for cycle, word in cycles] \
                == scan_alternating_cycles(g, gens[i], gens[j]), (label, i, j)
            assert all(len(word) == len(cycle) and isinstance(word, bytes)
                       for cycle, word in cycles), (label, i, j)
            walked += 1
    assert walked > 1000 and broken == 4


def test_cycle_words_number_the_scanned_positions():
    """`cycle_words` keeps the distinct words of the scanned cycles in the
    order of their first vertices, each mapped to the first vertex of its
    first cycle, the least vertex of all its cycles; it is kept per pair."""
    decomposed = 0
    for label, g in walk_inputs():
        if scan_pairing(g) is None:
            continue
        gens = g.system.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                cycles = scan_alternating_cycles(g, gens[i], gens[j])
                firsts = [(w, min(v for cycle, x in cycles if x == w
                                  for v in cycle))
                          for w in dict.fromkeys(w for _, w in cycles)]
                words = g.cycle_words(i, j)
                assert [(decoded_word(w), v) for w, v in words.items()] \
                    == firsts, (label, i, j)
                assert g.cycle_words(i, j) is words
                decomposed += 1
    assert decomposed > 1000


def test_walk_flags_match_edge_scans():
    seen = [0, 0]
    for label, g in walk_inputs():
        flags = g._walk[2]
        assert flags == scan_walk_flags(g), label
        for k in range(2):
            seen[k] += sum(f[k] for f in flags)
    off_step, off_sum = seen
    assert off_step > off_sum > 100


def test_edge_pairing_rejects_broken_digraphs(i23):
    doubled = SLabeledDigraph(i23, ["x", "y", "z"],
                              [("x", "y", "s", SOLID), ("x", "z", "s", SOLID)])
    with pytest.raises(ValueError, match="^vertex x meets 2 edges labeled s$"):
        edge_pairing(doubled)
    missing = SLabeledDigraph(i23, ["x", "y"], [("x", "y", "s", SOLID)])
    with pytest.raises(ValueError, match="^vertex x meets 0 edges labeled t$"):
        edge_pairing(missing)


# -- the grading shortcut against the all-pairs path-length check --------------------------


def scan_topological_order(succ):
    """Reverse DFS postorder of an acyclic successor table."""
    order, seen = [], set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    return order[::-1]


def all_pairs_equal_path_lengths(g):
    """The circuit, else a BFS and a longest-path DP from every vertex,
    all over a successor table built by edge scans."""
    succ = scan_successors(g)
    circuit = scan_circuit(g, succ)
    if circuit is not None:
        v, length = circuit
        return (v, v, 0, length)
    topo = scan_topological_order(succ)
    for alpha in g.vertices:
        shortest = bfs_distances(succ, alpha)
        longest = {alpha: 0}
        for v in topo:
            if v in longest:
                for w in succ[v]:
                    longest[w] = max(longest.get(w, -1), longest[v] + 1)
        for beta in g.vertices:
            if beta in shortest and shortest[beta] != longest[beta]:
                return (alpha, beta, shortest[beta], longest[beta])
    return None


def ungraded_equal_lengths(system):
    """a->b->c, d->c, d->e, a->e: equal path lengths, but no grading (the
    undirected circuit a-b-c-d-e-a has four edges one way, one the other)."""
    return SLabeledDigraph(system, list("abcde"), [
        ("a", "b", "s", SOLID), ("b", "c", "t", SOLID), ("d", "c", "s", SOLID),
        ("d", "e", "t", SOLID), ("a", "e", "t", SOLID)])


def test_grading_is_sufficient_not_necessary(i23):
    g = ungraded_equal_lengths(i23)
    assert not g._grading() and is_acyclic(g)
    assert g.equal_path_lengths_check() is None
    shortcut = SLabeledDigraph(i23, list("abc"), [
        ("a", "b", "s", SOLID), ("b", "c", "t", SOLID), ("a", "c", "t", SOLID)])
    assert not shortcut._grading()
    assert shortcut.equal_path_lengths_check() == ("a", "c", 1, 2)
    # the walk's (net solid, net dashed) level pairs, summed by `_grading`
    fig = build_family(i23, FamilySpec(2, 3))
    assert fig._grading()
    assert dict(zip(fig.vertices, fig._walk[1])) == {
        "a0": (0, 0), "a1": (0, 1), "a2": (1, 1),
        "b1": (1, 0), "b2": (2, 0), "b3": (2, 1)}


def test_graded_check_matches_all_pairs_reference(i23):
    from test_validator import group_digraphs, oracle_inputs

    inputs = [*oracle_inputs(), *group_digraphs(),
              ("ungraded", ungraded_equal_lengths(i23)),
              ("affine_a2_cycle", build_example("affine_a2_cycle"))]
    graded = 0
    for label, g in inputs:
        assert g.equal_path_lengths_check() == \
            all_pairs_equal_path_lengths(g), label
        graded += g._grading()
    assert 300 < graded < len(inputs) - 300


# -- isomorphism by propagation against the backtracking it replaced ----------------------


def backtracking_isomorphic(self, other):
    """A label/style/direction-preserving bijection, or None.

    Backtracking seeded by local vertex signatures: `labeled_isomorphic` as
    it once ran, kept as the reference for the propagation that replaced it.
    """
    if set(self.system.generators) != set(other.system.generators):
        return None
    if len(self.vertices) != len(other.vertices) or len(self.edges) != len(other.edges):
        return None

    def signature(g: "SLabeledDigraph", v: str):
        incident = []
        for e in g.edges:
            if e.src == v:
                incident.append(("out", e.label, e.style))
            if e.dst == v:
                incident.append(("in", e.label, e.style))
        return tuple(sorted(incident))

    sig1 = {v: signature(self, v) for v in self.vertices}
    sig2 = {v: signature(other, v) for v in other.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    edge_set2 = set(other.edges)
    # match rarest signatures first to cut branching
    rarity = {}
    for v, s in sig1.items():
        rarity.setdefault(s, []).append(v)
    order = sorted(self.vertices, key=lambda v: (len(rarity[sig1[v]]), v))
    candidates = {v: [w for w in other.vertices if sig2[w] == sig1[v]]
                  for v in self.vertices}
    adjacency: dict[str, list[Edge]] = {v: [] for v in self.vertices}
    for e in self.edges:
        adjacency[e.src].append(e)
        adjacency[e.dst].append(e)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v: str, w: str) -> bool:
        for e in adjacency[v]:
            a, b = e.src, e.dst
            ia, ib = mapping.get(a), mapping.get(b)
            if a == v:
                ia = w
            if b == v:
                ib = w
            if ia is not None and ib is not None:
                if Edge(ia, ib, e.label, e.style) not in edge_set2:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def relabelled(g, rng):
    """A copy of g with its vertices renamed and reordered at random."""
    names = [f"w{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    rename = dict(zip(g.vertices, names))
    rng.shuffle(names)
    return SLabeledDigraph(g.system, names,
                           [Edge(rename[e.src], rename[e.dst], e.label, e.style)
                            for e in g.edges])


def assert_edge_preserving(g, h, iso):
    """iso is a bijection of vertices carrying every edge of g to one of h."""
    assert sorted(iso) == sorted(g.vertices)
    assert sorted(iso.values()) == sorted(h.vertices)
    edges = set(h.edges)
    for e in g.edges:
        assert Edge(iso[e.src], iso[e.dst], e.label, e.style) in edges, e


def isomorphism_inputs():
    """The template grid over I2(2..8), seeded random two-label digraphs,
    the LV and regular digraphs of A3 and B3, the named examples, and
    disjoint unions of template pairs."""
    dihedral = {n: CoxeterSystem.dihedral(n) for n in range(2, 9)}
    grid = {}
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4, 5]):
            for n in range(2, 9):
                grid[figure, m, n] = build_family(dihedral[n],
                                                  FamilySpec(figure, m))
    inputs = [(f"figure {f} m={m} n={n}", g) for (f, m, n), g in grid.items()]
    rng = random.Random(1515)
    for k in range(320):
        g = random_labeled_digraph(rng, dihedral[3], rng.choice([2, 4, 6, 8, 10]))
        n = rng.randrange(2, 9)
        inputs.append((f"two-label #{k} n={n}",
                       SLabeledDigraph(dihedral[n], g.vertices, g.edges)))
    a3 = CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3})
    b3 = CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 4})
    for name, system in (("A3", a3), ("B3", b3)):
        inputs.append((f"lv {name}", build_lv(
            system, DiagramAutomorphism.identity(system))))
        inputs.append((f"regular {name}", build_regular(system)))
    inputs += [(name, build_example(name)) for name in EXAMPLE_NAMES]
    for figure, other in [(1, 1), (1, 2), (2, 3), (4, 5), (6, 6), (7, 8),
                          (4, 4), (2, 2)]:
        for n in (3, 4):
            m = 1 if figure in (7, 8) else 2
            m2 = 1 if other in (7, 8) else 2
            g, h = grid[figure, m, n], grid[other, m2, n]
            inputs.append((f"union {figure},{other} n={n}", disjoint_union(g, h)))
            inputs.append((f"union {figure},{other}r n={n}",
                           disjoint_union(g, h.reverse())))
    return inputs


def isomorphism_pairs():
    """Each input against its reverse, a seeded relabelled copy and two
    random inputs of the same shape, plus a double cover and pairs over
    systems declaring their generators in different orders."""
    inputs = isomorphism_inputs()
    rng = random.Random(77)
    shape = {}
    for label, g in inputs:
        key = (g.system.generators, len(g.vertices), len(g.edges))
        shape.setdefault(key, []).append((label, g))
    for label, g in inputs:
        yield f"{label} / reverse", g, g.reverse()
        yield f"{label} / relabelled", g, relabelled(g, rng)
        peers = shape[(g.system.generators, len(g.vertices), len(g.edges))]
        for other_label, h in rng.sample(peers, min(2, len(peers))):
            yield f"{label} / {other_label}", g, relabelled(h, rng)
    # an alternating 4-cycle maps onto one figure 7 twice over, not onto two
    i23 = CoxeterSystem.dihedral(3)
    cycle = SLabeledDigraph(i23, list("abcd"), [
        ("a", "b", "s", SOLID), ("a", "d", "t", SOLID), ("c", "b", "t", SOLID),
        ("c", "d", "s", SOLID)])
    fig7 = build_family(i23, FamilySpec(7, 1))
    yield "4-cycle / two figure 7s", cycle, disjoint_union(fig7, fig7)
    st = CoxeterSystem.dihedral(4, ("s", "t"))
    ts = CoxeterSystem.dihedral(4, ("t", "s"))
    g = build_family(st, FamilySpec(4, 2))
    yield "s,t / t,s", g, SLabeledDigraph(ts, g.vertices, g.edges)
    yield "s,t / t,s reversed", g, SLabeledDigraph(ts, g.vertices,
                                                  g.reverse().edges)


def test_propagation_matches_backtracking_reference():
    outcomes = {True: 0, False: 0}
    pairs = 0
    for label, g, h in isomorphism_pairs():
        iso = g.labeled_isomorphic(h)
        assert (iso is None) == (backtracking_isomorphic(g, h) is None), label
        if iso is not None:
            assert_edge_preserving(g, h, iso)
        outcomes[iso is not None] += 1
        pairs += 1
    assert pairs >= 2000
    assert outcomes[True] > 500 and outcomes[False] > 500


@pytest.mark.parametrize("name, orders", [
    ("H3", {("r", "s"): 3, ("s", "t"): 5}),
    ("B4", {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 4}),
])
def test_propagation_at_scale(name, orders):
    system = CoxeterSystem(sorted({g for pair in orders for g in pair}), orders)
    g = build_regular(system)
    copy = relabelled(g, random.Random(2024))
    assert_edge_preserving(g, copy, g.labeled_isomorphic(copy))
    first, *rest = copy.edges
    flipped = first._replace(style=DASHED if first.style == SOLID else SOLID)
    assert g.labeled_isomorphic(
        SLabeledDigraph(system, copy.vertices, [flipped, *rest])) is None


# -- the pairing-backed digraph against the tuple form it replaced -------------------------


def both_ways(monkeypatch, module, build):
    """build() as it is, and again with `module`'s `SLabeledDigraph` swapped
    for the tuple-form reference, so both are built from the same edges."""
    with monkeypatch.context() as patched:
        patched.setattr(module, "SLabeledDigraph", TupleDigraph)
        reference = build()
    return build(), reference


def pairing_inputs(monkeypatch):
    """(label, digraph, reference): the `lv` and `regular` digraphs of every
    differential system (length bound 4 on the infinite ones), the template
    grid, seeded random digraphs, the examples, `supports_digraph` outputs,
    b3_no_bar with its generators declared t, s, r, and digraphs with a
    loop, a doubled label and a missing label."""
    for name, (gens, orders) in DIFFERENTIAL_SYSTEMS.items():
        system = CoxeterSystem(list(gens), orders)
        bound = 4 if name in INFINITE_DIFFERENTIAL else None
        yield (f"regular {name}", build_regular(system, bound),
               reference_walk_digraph(system, system.up_walk(None, bound),
                                      {None: SOLID}))
        for star in involutory_automorphisms(system):
            yield (f"lv {name} {star.perm}", build_lv(system, star, bound),
                   reference_walk_digraph(system, system.up_walk(star, bound),
                                          {True: DASHED, False: SOLID}))
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4, 5]):
            for n in range(2, 11):
                system = CoxeterSystem.dihedral(n)
                yield (f"figure {figure} m={m} n={n}", *both_ways(
                    monkeypatch, families,
                    lambda: build_family(system, FamilySpec(figure, m))))
    for k in range(60):
        system = CoxeterSystem.dihedral(2 + k % 5) if k % 2 else make_a3()
        yield (f"random #{k}", *both_ways(
            monkeypatch, conftest, lambda: random_labeled_digraph(
                random.Random(k), system, 2 * (k % 6 + 1))))
    for name in EXAMPLE_NAMES:
        yield name, *both_ways(monkeypatch, families,
                               lambda: build_example(name))
    for figure, m, n in [(1, 3, 3), (2, 2, 2), (3, 4, 4), (4, 2, 3),
                         (5, 3, 5), (6, 2, 2), (6, 3, 4)]:
        X = hecke.dihedral_case_basis(CoxeterSystem.dihedral(n), "s", "t",
                                      figure, m)
        yield (f"supports figure {figure} m={m}",
               *both_ways(monkeypatch, hecke,
                          lambda: hecke.supports_digraph(X)))
    _, orders, vertices, edges = families._EXAMPLES["b3_no_bar"]
    tsr = CoxeterSystem(["t", "s", "r"], orders)
    yield ("b3_no_bar over t, s, r", SLabeledDigraph(tsr, vertices, edges),
           TupleDigraph(tsr, vertices, edges))
    i23 = CoxeterSystem.dihedral(3)
    for label, edges in [
            ("loop", [("x", "x", "s", SOLID), ("x", "y", "t", DASHED),
                      ("y", "y", "s", DASHED), ("y", "y", "s", DASHED)]),
            ("doubled", [("x", "y", "s", SOLID), ("z", "x", "s", DASHED),
                         ("x", "y", "t", SOLID), ("y", "z", "s", SOLID),
                         ("x", "y", "s", SOLID), ("z", "z", "t", SOLID)]),
            ("missing", [("y", "x", "s", SOLID), ("x", "z", "t", DASHED)])]:
        yield (label, SLabeledDigraph(i23, "xyz", edges[::-1]),
               TupleDigraph(i23, "xyz", edges))


def assert_same_digraph(label, g, reference):
    problems = reference.validate_structure()
    if problems:
        # the structure gate: every violation, a loop too, refuses the rows
        with pytest.raises(ValueError) as raised:
            edge_pairing(g)
        assert str(raised.value) == problems[0], label
    else:
        assert edge_pairing(g) == reference.edge_pairing(), label
    assert g.edges == reference.edges, label
    assert g.validate_structure() == reference.validate_structure(), label
    assert g.analyze() == reference.analyze(), label
    assert g.components() == reference.components(), label
    assert g.to_json_text() == reference.to_json_text(), label
    assert g.to_dot() == reference.to_dot(), label


def test_pairing_digraph_matches_tuple_reference(monkeypatch):
    broken = 0
    inputs = list(pairing_inputs(monkeypatch))
    for label, g, reference in inputs:
        assert_same_digraph(label, g, reference)
        assert_same_digraph(f"{label} loaded", load_digraph(reference.to_json()),
                            reference)
        gens = g.system.generators
        subsets = [()] + [(s,) for s in gens] + [
            (gens[i], gens[j]) for i in range(len(gens))
            for j in range(i + 1, len(gens))]
        for h, r, how in [(g, reference, ""),
                          (g.reverse(), reference.reverse(), " reversed")]:
            if how:
                assert_same_digraph(label + how, h, r)
            for J in subsets:
                assert_same_digraph(f"{label}{how} on {J}", h.restrict(J),
                                    r.restrict(J))
        broken += bool(reference.validate_structure())
    assert (len(inputs), broken) == (383, 19)


def test_load_matches_tuple_reference_on_damaged_files():
    """Every message and exception type of `load_digraph`, on damaged
    files, is the tuple form's: a malformed edge dict anywhere in the list
    is reported before any check fails."""
    from test_cli import FUZZ_BASES, FUZZ_PARTS, JUNK, damage

    rng = random.Random(29)
    bases = [base for base in FUZZ_BASES if isinstance(base["system"], dict)]
    raised = set()
    for _ in range(600):
        data = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 3)):
            damage(data, rng.choice(sorted(FUZZ_PARTS)),
                   rng.choice(["drop", "retype", "duplicate", "redirect"]),
                   rng.randrange(61), rng.choice(JUNK))
        outcomes = []
        for load in (load_digraph, reference_load_digraph):
            try:
                outcomes.append(load(data))
            except Exception as exc:        # noqa: BLE001 - compared below
                outcomes.append((type(exc), str(exc)))
        got, expected = outcomes
        if isinstance(expected, TupleDigraph):
            assert_same_digraph(repr(data), got, expected)
        else:
            assert got == expected, data
            raised.add(expected[0])
    assert {KeyError, TypeError, ValueError} <= raised
    # an edge that fails a check, or a repeated vertex, before a later edge
    # that lacks a key: the missing key is reported
    base = build_example("ex_fig2").to_json()
    for damaged in (dict(base, edges=[dict(base["edges"][0], style="dotted"),
                                      *base["edges"][1:-1], {"from": "g1"}]),
                    dict(base, vertices=base["vertices"] * 2,
                         edges=[*base["edges"], {"from": "g1"}])):
        with pytest.raises(KeyError, match="'to'"):
            load_digraph(damaged)


def round_trip_inputs():
    """The group digraphs, the template grid, the five examples, and three
    broken digraphs: an extra row, a loop and an empty slot."""
    from test_validator import group_digraphs, template_grid

    yield from group_digraphs()
    yield from template_grid()
    for name in EXAMPLE_NAMES:
        yield name, build_example(name)
    i23 = CoxeterSystem.dihedral(3)
    yield "extra row", SLabeledDigraph(i23, "xyz", [
        ("x", "y", "s", SOLID), ("z", "x", "s", DASHED),
        ("x", "y", "t", SOLID), ("z", "z", "t", SOLID)])
    yield "loop", SLabeledDigraph(i23, "xy", [
        ("x", "x", "s", SOLID), ("x", "y", "t", DASHED), ("y", "y", "s", DASHED)])
    yield "empty slot", SLabeledDigraph(i23, "xy", [("x", "y", "s", SOLID)])


def test_json_round_trip_keeps_text_and_structure():
    """Loading a digraph's JSON text gives back the same text, the same
    structure report and, where the structure holds, the same pairing."""
    broken = 0
    for label, g in round_trip_inputs():
        text = g.to_json_text()
        loaded = load_digraph(json.loads(text))
        assert loaded.to_json_text() == text, label
        assert loaded.validate_structure() == g.validate_structure(), label
        if g.validate_structure():
            broken += 1
        else:
            assert edge_pairing(loaded) == edge_pairing(g), label
    assert broken == 3


def loader_damages(data, rng):
    """(what, damaged copy of data) for each damage the loader checks, at a
    random edge or vertex: a bad style, an unknown tail, an unknown head,
    an unknown label, a key missing from a later edge, a non-string vertex
    id, and the structural breaks it only records: an edge doubled and an
    edge turned into a loop."""
    def copy(change):
        damaged = json.loads(json.dumps(data))
        change(damaged, damaged["edges"][rng.randrange(len(damaged["edges"]))])
        return damaged

    def later_key_missing(d, e):
        e["style"] = "dotted"
        del d["edges"][-1]["to"]

    yield "bad style", copy(lambda d, e: e.update(style="dotted"))
    yield "unknown tail", copy(lambda d, e: e.update({"from": "nowhere"}))
    yield "unknown head", copy(lambda d, e: e.update(to="nowhere"))
    yield "unknown label", copy(lambda d, e: e.update(label="z"))
    yield "later key missing", copy(later_key_missing)
    yield "non-string vertex", copy(lambda d, e: d["vertices"].__setitem__(
        rng.randrange(len(d["vertices"])), 7))
    yield "doubled", copy(lambda d, e: d["edges"].append(dict(e)))
    yield "loop", copy(lambda d, e: e.update(to=e["from"]))


def test_loader_raises_as_the_tuple_rows_loader():
    """On every damage `load_digraph` raises the exception type and
    message of the loader that filled tuple rows through a generator of
    checked arcs, and otherwise fills the same rows, extra rows and loops
    included."""
    from test_validator import group_digraphs

    rng = random.Random(36)
    bases = [g.to_json() for _, g in group_digraphs()]
    bases += [build_example(name).to_json() for name in EXAMPLE_NAMES]
    raised = Counter()
    for data in bases:
        assert tuple_rows(load_digraph(data)) == tuple_rows_load(data)
        for what, damaged in loader_damages(data, rng):
            outcomes = []
            for load in (load_digraph, tuple_rows_load):
                try:
                    outcomes.append(load(damaged))
                except (KeyError, TypeError, ValueError) as exc:
                    outcomes.append((type(exc), str(exc)))
            got, expected = outcomes
            if isinstance(got, SLabeledDigraph):
                assert tuple_rows(got) == expected, what
                assert got.validate_structure(), what
            else:
                assert got == expected, what
                raised[what, expected[0]] += 1
    assert set(raised) == {("bad style", ValueError),
                           ("unknown tail", ValueError),
                           ("unknown head", ValueError),
                           ("unknown label", ValueError),
                           ("later key missing", KeyError),
                           ("non-string vertex", ValueError)}
    assert set(raised.values()) == {len(bases)}


def cyclic_inputs():
    """The cyclic digraphs among the walk inputs (template grid, random
    digraphs, examples, group digraphs), with their reversals."""
    for label, g in walk_inputs():
        if not is_acyclic(g):
            yield label, g
            yield f"{label} reversed", g.reverse()


def test_shortest_circuit_matches_edge_scan():
    labels = set()
    for label, g in cyclic_inputs():
        assert g._shortest_circuit() == scan_shortest_circuit(g), label
        labels.add(label)
    assert "affine_a2_cycle" in labels and len(labels) > 500
