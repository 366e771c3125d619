"""Tests for the classification decision procedure and the brute-force oracle."""

import random
from collections import Counter
from itertools import islice
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism
from wdigraph.digraph import (DASHED, SOLID, Edge, SLabeledDigraph,
                              cycle_pairing)
from wdigraph.exactalg import RF_ONE, RF_U, RF_ZERO, Poly, rf
from wdigraph.families import (EXAMPLE_NAMES, TEMPLATES, FamilySpec,
                               build_family, build_lv, build_example,
                               build_regular, family_divisibility_ok)
from wdigraph import modrep, validator
from wdigraph.modrep import _TAU_CASES, _cases_at, _exact_bits, _table
from wdigraph.validator import (_FIGURE_BY_DASHES, FamilyMatch, PairReport,
                                Rejection, RelationWitness, Verdict,
                                brute_force_check, is_w_digraph)

from conftest import (RatFuncOperators, column_brute_force_check,
                      edge_pairing, encoded_word, is_poly, out_edges, random_labeled_digraph,
                      same_structure, scan_alternating_cycles, subgraph)


def family_on(n, figure, m):
    system = CoxeterSystem.dihedral(n)
    return build_family(system, FamilySpec(figure, m))


def classify(g):
    """The classifier's result on the first component of the first pair."""
    return is_w_digraph(g).pair_reports[0].components[0]


def classify_family(n, figure, m):
    return classify(family_on(n, figure, m))


def test_classify_fig1():
    result = classify_family(3, 1, 3)
    assert isinstance(result, FamilyMatch)
    assert (result.figure, result.m) == (1, 3)
    assert result.orientation_witness["a0"] == "a0"


def test_classify_fig4_divisibility():
    accept = classify_family(3, 4, 2)
    assert isinstance(accept, FamilyMatch) and accept.figure == 4
    reject = classify_family(4, 4, 2)
    assert isinstance(reject, Rejection)
    assert "3 | n" in reject.reason


def test_classify_same_arc_dashes_rejected():
    # dashes at the source edge and sink edge of the same arc match no figure
    system = CoxeterSystem.dihedral(2)
    g = build_family(system, FamilySpec(1, 2))
    edges = []
    for e in g.edges:
        if (e.src, e.dst) in {("a0", "a1"), ("a1", "b2")}:
            edges.append(Edge(e.src, e.dst, e.label, DASHED))
        else:
            edges.append(e)
    bad = SLabeledDigraph(system, g.vertices, edges)
    result = classify(bad)
    assert isinstance(result, Rejection)
    # and the oracle agrees, for several ambient orders
    for n in range(2, 7):
        remade = SLabeledDigraph(CoxeterSystem.dihedral(n), bad.vertices,
                                 bad.edges)
        assert brute_force_check(remade) is not None


def test_classify_single_dash_rejected():
    system = CoxeterSystem.dihedral(2)
    g = build_family(system, FamilySpec(1, 2))
    edges = [Edge(e.src, e.dst, e.label, DASHED)
             if (e.src, e.dst) == ("a0", "a1") else e for e in g.edges]
    bad = SLabeledDigraph(system, g.vertices, edges)
    assert isinstance(classify(bad), Rejection)
    assert brute_force_check(bad) is not None


def test_classify_mixed_parallel_rejected():
    system = CoxeterSystem.dihedral(3)
    g = SLabeledDigraph(system, ["x", "y"],
                        [("x", "y", "s", SOLID), ("x", "y", "t", DASHED)])
    assert isinstance(classify(g), Rejection)
    assert brute_force_check(g) is not None


def test_classify_antiparallel_rejected():
    system = CoxeterSystem.dihedral(2)
    g = SLabeledDigraph(system, ["x", "y"],
                        [("x", "y", "s", SOLID), ("y", "x", "t", SOLID)])
    assert isinstance(classify(g), Rejection)
    assert brute_force_check(g) is not None


def test_classify_invariant_under_relabeling():
    g = family_on(3, 4, 2)
    renamed = SLabeledDigraph(
        g.system, [f"z{i}" for i, _ in enumerate(g.vertices)],
        [Edge(f"z{g.vertex_index[e.src]}", f"z{g.vertex_index[e.dst]}",
              e.label, e.style) for e in g.edges])
    result = classify(renamed)
    assert isinstance(result, FamilyMatch) and (result.figure, result.m) == (4, 2)
    shuffled = SLabeledDigraph(g.system, g.vertices, list(g.edges)[::-1])
    result2 = classify(shuffled)
    assert isinstance(result2, FamilyMatch) and result2.figure == 4


REVERSAL_FIGURE_MAP = {1: {1}, 2: {2, 3}, 3: {2, 3}, 4: {5}, 5: {4},
                       6: {6}, 7: {7}, 8: {8}}


def test_classify_reversed_components():
    cases = [(1, 3, 3), (2, 2, 2), (2, 3, 3), (3, 3, 3), (4, 2, 3),
             (5, 3, 5), (6, 3, 4), (7, 1, 4), (8, 1, 2)]
    for figure, m, n in cases:
        g = family_on(n, figure, m)
        result = classify(g.reverse())
        assert isinstance(result, FamilyMatch), (figure, m)
        assert result.figure in REVERSAL_FIGURE_MAP[figure]
        assert result.m == m


def test_is_w_digraph_lv_a3(a3):
    verdict = is_w_digraph(build_lv(a3, DiagramAutomorphism.identity(a3)))
    assert verdict.is_w_digraph
    assert len(verdict.pair_reports) == 3
    described = verdict.describe()
    assert "accepted" in described


def test_is_w_digraph_ex_fig2():
    g = build_example("ex_fig2")
    verdict = is_w_digraph(g)
    assert verdict.is_w_digraph
    match = verdict.pair_reports[0].components[0]
    assert match.figure in (2, 3) and match.m == 3


def test_is_w_digraph_structural_violation():
    a1 = CoxeterSystem(["s", "t"], {("s", "t"): 3})
    g = SLabeledDigraph(a1, ["x", "y", "z"],
                        [("x", "y", "s", SOLID), ("x", "z", "s", SOLID)])
    verdict = is_w_digraph(g)
    assert not verdict.is_w_digraph
    assert verdict.structural_violations


def test_infinite_orders_impose_no_condition():
    system = CoxeterSystem(["s", "t"], {("s", "t"): "inf"})
    g = SLabeledDigraph(system, ["x", "y"],
                        [("x", "y", "s", SOLID), ("y", "x", "t", DASHED)])
    verdict = is_w_digraph(g)
    assert verdict.is_w_digraph and verdict.pair_reports == ()
    assert brute_force_check(g) is None


def test_oracle_quadratic_always_holds():
    rng = random.Random(5)
    for _ in range(10):
        g = random_labeled_digraph(rng, CoxeterSystem.dihedral(3), 6)
        witness = brute_force_check(g)
        assert witness is None or witness.kind == "braid"


def test_oracle_fig1_m2_against_n3():
    g = family_on(3, 1, 2)
    witness = brute_force_check(g)
    assert witness is not None and witness.kind == "braid"


def test_oracle_flipped_interior_edge():
    g = family_on(4, 1, 4)
    edges = [Edge(e.src, e.dst, e.label, DASHED)
             if (e.src, e.dst) == ("a1", "a2") else e for e in g.edges]
    bad = SLabeledDigraph(g.system, g.vertices, edges)
    assert brute_force_check(bad) is not None
    verdict = is_w_digraph(bad)
    assert not verdict.is_w_digraph


def test_deciders_agree_on_sample():
    rng = random.Random(20251114)
    for _ in range(40):
        nv = rng.choice([2, 4, 6, 8])
        for n in range(2, 5):
            g = random_labeled_digraph(rng, CoxeterSystem.dihedral(n), nv)
            assert (is_w_digraph(g).is_w_digraph
                    == (brute_force_check(g) is None))


def test_random_generator_is_seeded():
    i24 = CoxeterSystem.dihedral(4)
    g1 = random_labeled_digraph(random.Random(3), i24, 8)
    g2 = random_labeled_digraph(random.Random(3), i24, 8)
    assert same_structure(g1, g2)
    assert g1.validate_structure() == []


def test_classifier_recovers_built_figure():
    cases = [(1, 2, 2), (1, 5, 10), (2, 2, 4), (2, 3, 3), (3, 2, 2),
             (3, 3, 9), (4, 2, 3), (4, 4, 7), (5, 2, 6), (5, 3, 5),
             (6, 2, 2), (6, 4, 6), (7, 1, 2), (7, 1, 9), (8, 1, 5)]
    for figure, m, n in cases:
        g = family_on(n, figure, m)
        verdict = is_w_digraph(g)
        assert verdict.is_w_digraph, (figure, m, n)
        (match,) = verdict.pair_reports[0].components
        assert (match.figure, match.m) == (figure, m)
        # the witness maps the template onto itself here
        assert match.orientation_witness["a0"] == "a0"
        assert match.orientation_witness[f"b{m}"] == f"b{m}"


# -- the sparse oracle against the dense one it replaced -----------------------------------

U = RF_U
U2 = U * U
U2M1 = U2 - RF_ONE
# (tail column, head column) of one edge's 2x2 block, each as
# (coefficient at the tail, coefficient at the head)
DENSE_BLOCKS = {
    SOLID: ((RF_ZERO, RF_ONE), (U2, U2M1)),
    DASHED: ((U, rf([1, 1])), (rf([0, -1, 1]), rf([-1, -1, 1]))),
}


def dense_tau(g, s, vec):
    """tau_s on a dense vector, block by block from the edge list."""
    out = [RF_ZERO] * len(vec)
    for e in g.edges:
        if e.label != s:
            continue
        a, b = g.vertex_index[e.src], g.vertex_index[e.dst]
        for col, (at_tail, at_head) in zip((a, b), DENSE_BLOCKS[e.style]):
            out[a] = out[a] + at_tail * vec[col]
            out[b] = out[b] + at_head * vec[col]
    return out


def dense_brute_force_check(g):
    """The oracle on dense length-n columns: (kind, generators, column) or None."""
    violations = g.validate_structure()
    if violations:
        return ("structure", (), "; ".join(violations))
    system = g.system
    n_verts = len(g.vertices)
    ident = [[RF_ONE if i == j else RF_ZERO for i in range(n_verts)]
             for j in range(n_verts)]
    for s in system.generators:
        once = [dense_tau(g, s, col) for col in ident]
        twice = [dense_tau(g, s, col) for col in once]
        for j in range(n_verts):
            for i in range(n_verts):
                rhs = U2M1 * once[j][i] + (U2 if i == j else RF_ZERO)
                if twice[j][i] != rhs:
                    return ("quadratic", (s,), g.vertices[j])
    gens = system.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            n = system.order(i, j)
            if n is inf or n <= 1:
                continue
            left = [gens[(i, j)[k % 2]] for k in range(n)]
            right = [gens[(j, i)[k % 2]] for k in range(n)]
            for col, e in enumerate(ident):
                a, b = e, e
                for s in reversed(left):
                    a = dense_tau(g, s, a)
                for s in reversed(right):
                    b = dense_tau(g, s, b)
                if a != b:
                    return ("braid", (gens[i], gens[j]), g.vertices[col])
    return None


def oracle_inputs():
    """Criterion 1's template grid, random two-label digraphs over I2(2..6),
    random three-label digraphs over A3, and the named examples."""
    dihedral = {n: CoxeterSystem.dihedral(n) for n in range(2, 11)}
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4, 5]):
            for n in range(2, 11):
                yield f"figure {figure} m={m} n={n}", build_family(
                    dihedral[n], FamilySpec(figure, m))
    rng = random.Random(4242)
    for k in range(100):
        g0 = random_labeled_digraph(rng, dihedral[3],
                                    rng.choice([2, 4, 6, 8, 10, 12]))
        for n in range(2, 7):
            yield f"two-label #{k} n={n}", SLabeledDigraph(
                dihedral[n], g0.vertices, g0.edges)
    a3 = CoxeterSystem(["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3})
    for k in range(400):
        yield f"A3 #{k}", random_labeled_digraph(rng, a3, 2 * (k % 6 + 1))
    for name in EXAMPLE_NAMES:
        yield name, build_example(name)
    yield "lv_a3", build_lv(a3, DiagramAutomorphism.identity(a3))
    broken = SLabeledDigraph(dihedral[3], ["a", "b"], [("a", "b", "s", SOLID)])
    yield "broken", broken


def test_oracle_matches_dense_reference():
    outcomes = {"none": 0, "quadratic": 0, "braid": 0, "structure": 0}
    for label, g in oracle_inputs():
        witness = brute_force_check(g)
        got = (None if witness is None
               else (witness.kind, witness.generators, witness.column))
        assert got == dense_brute_force_check(g), label
        outcomes[got[0] if got else "none"] += 1
    assert outcomes["none"] > 100 and outcomes["braid"] > 500
    assert outcomes["structure"] == 1


# -- the integer-evaluation oracle and the cycle-walking classifier against the
# -- RatFunc oracle and the per-component classifier they replaced -------------------------


def word_apply(ops, word, vec):
    """tau_{s_1} ... tau_{s_k} (leftmost acting last) on a RatFunc vector,
    with `RatFuncOperators` ops."""
    for s in reversed(word):
        vec = ops.apply(s, vec)
    return vec


def ratfunc_brute_force_check(g):
    """The oracle over Q(u) on sparse RatFunc columns: same column order,
    same early exit, same RelationWitness."""
    violations = g.validate_structure()
    if violations:
        return RelationWitness("structure", (), "; ".join(violations))
    rep = RatFuncOperators(g)
    system = g.system
    for s in range(system.rank()):
        for j in range(rep.n):
            once = rep.apply(s, {j: RF_ONE})
            expected = {i: U2M1 * c for i, c in once.items()}
            expected[j] = expected.get(j, RF_ZERO) + U2
            if rep.apply(s, once) != {i: c for i, c in expected.items() if c}:
                return RelationWitness("quadratic", (system.generators[s],),
                                       g.vertices[j])
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is inf or n <= 1:
                continue
            pair = (system.generators[i], system.generators[j])
            left = [(i, j)[k % 2] for k in range(n)]
            right = [(j, i)[k % 2] for k in range(n)]
            for col in range(rep.n):
                if (word_apply(rep, left, {col: RF_ONE})
                        != word_apply(rep, right, {col: RF_ONE})):
                    return RelationWitness("braid", pair, g.vertices[col])
    return None


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
    first_edges = sorted(out_edges(component, src), key=lambda e: e.label)
    arcs = []
    for start_edge in first_edges:
        arc = [start_edge]
        current = start_edge.dst
        while current != snk:
            nxt = out_edges(component, current)
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


def subgraph_is_w_digraph(g):
    """The classifier with one `subgraph` copy per rank-two component."""
    violations = tuple(g.validate_structure())
    if violations:
        return Verdict(False, violations, ())
    system = g.system
    reports = []
    ok = True
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is inf or n <= 1:
                continue
            pair = (system.generators[i], system.generators[j])
            restriction = g.restrict(pair)
            comps = []
            for comp_vertices in restriction.components():
                result = classify_component(
                    subgraph(restriction, comp_vertices), n, pair)
                comps.append(result)
                ok = ok and not isinstance(result, Rejection)
            reports.append(PairReport(pair, n, tuple(comps)))
    return Verdict(ok, (), tuple(reports))


GROUP_ORDERS = {
    "A3": {("r", "s"): 3, ("s", "t"): 3},
    "B3": {("r", "s"): 3, ("s", "t"): 4},
    "H3": {("r", "s"): 3, ("s", "t"): 5},
    "A4": {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 3},
    "D4": {("q", "s"): 3, ("r", "s"): 3, ("s", "t"): 3},
    "B4": {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 4},
}


def group_digraphs():
    """The LV and regular digraphs of A3, B3, H3, A4, D4 and B4."""
    for name, orders in GROUP_ORDERS.items():
        system = CoxeterSystem(sorted({g for pair in orders for g in pair}),
                               orders)
        yield f"lv {name}", build_lv(system, DiagramAutomorphism.identity(system))
        yield f"regular {name}", build_regular(system)


def test_exact_point_clears_the_root_bound():
    # every column of tau_s has coefficient L1 norm at most 5 ...
    norms = [sum(abs(c) for coeff in case if coeff is not None
                 for c in coeff.coeffs) for case in _TAU_CASES.values()]
    assert all(coeff is None or isinstance(coeff, Poly)
               for case in _TAU_CASES.values() for coeff in case)
    assert max(norms) == 5
    # ... so k applications to a unit column have L1 norm at most 5^k ...
    rng = random.Random(55)
    for _ in range(20):
        g = random_labeled_digraph(rng, CoxeterSystem.dihedral(5), 8)
        rep = RatFuncOperators(g)
        for word in ([0, 1, 0, 1, 0], [1, 0, 1, 0, 1], [1, 1, 0, 0, 1]):
            for j in range(rep.n):
                col = {j: RF_ONE}
                for k, s in enumerate(word, start=1):
                    col = rep.apply(s, col)
                    assert all(is_poly(c) for c in col.values())
                    assert sum(abs(x) for c in col.values()
                               for x in c.num.coeffs) <= 5 ** k
    # ... and u = 2^(3k+2) lies past Cauchy's bound 1 + 2 * 5^k
    for k in range(40):
        assert _exact_bits(k) == 3 * k + 2
        assert 1 << _exact_bits(k) > 1 + 2 * 5 ** k
    # a sum of n entries on each side, such as a trace, stays past the bound
    for k in range(31):
        for n in range(1, 1001):
            assert 2 ** _exact_bits(k, n) > 1 + 2 * n * 5 ** k, (k, n)


def test_integer_oracle_matches_ratfunc_reference():
    # the keyed oracle against the column-by-column integer oracle it
    # replaced, and both against the Q(u) one
    outcomes = {"none": 0, "quadratic": 0, "braid": 0, "structure": 0}
    for label, g in [*oracle_inputs(), *group_digraphs(),
                     *non_alphabetical_inputs()]:
        witness = brute_force_check(g)
        assert witness == column_brute_force_check(g), label
        assert witness == ratfunc_brute_force_check(g), label
        outcomes[witness.kind if witness else "none"] += 1
    assert outcomes["none"] > 200 and outcomes["braid"] > 1000
    assert outcomes["structure"] == 1


def non_alphabetical_inputs():
    """Digraphs whose generators are not declared in alphabetical order: the
    template grid over I2(n) declared as ("t", "s"), with either label on
    the left arc, random two-label digraphs over it, and LV, regular and
    random digraphs over B3 declared as ["t", "s", "r"]."""
    ts = {n: CoxeterSystem.dihedral(n, ("t", "s")) for n in range(2, 8)}
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4]):
            for n in range(2, 8):
                for labels in (("s", "t"), ("t", "s")):
                    yield (f"t,s figure {figure} m={m} n={n} {labels}",
                           build_family(ts[n], FamilySpec(figure, m, *labels)))
    rng = random.Random(1306)
    for k in range(100):
        g0 = random_labeled_digraph(rng, ts[3],
                                    rng.choice([2, 4, 6, 8, 10, 12]))
        for n in range(2, 6):
            yield f"t,s two-label #{k} n={n}", SLabeledDigraph(
                ts[n], g0.vertices, g0.edges)
    tsr = CoxeterSystem(["t", "s", "r"], {("r", "s"): 3, ("s", "t"): 4})
    yield "lv B3 t,s,r", build_lv(tsr, DiagramAutomorphism.identity(tsr))
    yield "regular B3 t,s,r", build_regular(tsr)
    for k in range(200):
        yield f"t,s,r #{k}", random_labeled_digraph(rng, tsr, 2 * (k % 6 + 1))


def test_one_pass_classifier_matches_subgraph_reference():
    accepted = 0
    for label, g in [*oracle_inputs(), *group_digraphs()]:
        verdict = is_w_digraph(g)
        reference = subgraph_is_w_digraph(g)
        assert verdict == reference, label
        assert repr(verdict) == repr(reference), label   # witness order too
        assert verdict.describe() == reference.describe(), label
        accepted += verdict.is_w_digraph
    assert accepted > 100
    # arc lengths are listed in label-name order, not declaration order
    swapped = accepted = 0
    for label, g in non_alphabetical_inputs():
        verdict = is_w_digraph(g)
        reference = subgraph_is_w_digraph(g)
        assert verdict == reference, label
        assert repr(verdict) == repr(reference), label
        assert verdict.describe() == reference.describe(), label
        accepted += verdict.is_w_digraph
        swapped += "sink not opposite" in verdict.describe()
    assert accepted > 100 and swapped > 10


@st.composite
def labeled_digraphs(draw, systems):
    """One random perfect matching per generator, each pair one edge of
    random direction and style, over a system drawn from `systems`."""
    system = draw(st.sampled_from(systems))
    vertices = [f"v{i}" for i in range(2 * draw(st.integers(1, 6)))]
    edges = []
    for label in system.generators:
        matched = draw(st.permutations(vertices))
        for k in range(0, len(vertices), 2):
            a, b = matched[k], matched[k + 1]
            if draw(st.booleans()):
                a, b = b, a
            edges.append(Edge(a, b, label, draw(st.sampled_from((SOLID, DASHED)))))
    return SLabeledDigraph(system, vertices, edges)


RANK_THREE = [CoxeterSystem(["r", "s", "t"], GROUP_ORDERS[name])
              for name in ("A3", "B3")]
DIHEDRAL = [CoxeterSystem.dihedral(n) for n in range(2, 9)]


@pytest.mark.parametrize("systems", [
    pytest.param(RANK_THREE, id="A3_B3"),
    pytest.param(DIHEDRAL, id="I2"),
])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_oracle_and_classifier(systems, data):
    g = data.draw(labeled_digraphs(systems))
    witness = brute_force_check(g)
    assert witness == column_brute_force_check(g)
    assert witness == ratfunc_brute_force_check(g)
    assert is_w_digraph(g).is_w_digraph == (witness is None)


# -- the keyed oracle on many components sharing cycle words ------------------------------


def keyed_components(g, i, j):
    """The components of the restriction to generators i < j as the oracle
    keys them: walked from their first vertex in vertex order, each gives
    ((n, cycle word), its vertex indices), read off the edge scans."""
    n = g.system.order(i, j)
    s, t = g.system.generators[i], g.system.generators[j]
    for cycle, word in scan_alternating_cycles(g, s, t):
        yield (n, word), cycle


def passing_columns(g):
    """The vertices whose column passes every check up to the first failing
    pair, each read off the column reference on g with that vertex moved to
    the front."""
    passing = []
    for v in g.vertices:
        front = (v,) + tuple(x for x in g.vertices if x != v)
        witness = column_brute_force_check(SLabeledDigraph(g.system, front,
                                                           g.edges))
        if witness is None or witness.column != v:
            passing.append(v)
    return passing


def many_component_rejections():
    """Disjoint unions of 3 to 5 relabeled copies of one or two rejected
    random digraphs over I2(2..6), A3 or B3.  Half copy one digraph with a
    passing column, lead with the copies of that vertex, so that the
    components through them share their cycle words and pass, and shuffle
    the rest; the other half are shuffled whole."""
    rng = random.Random(2207)
    systems = [CoxeterSystem.dihedral(n) for n in range(2, 7)] + RANK_THREE
    for k in range(160):
        system = systems[k % len(systems)]
        bases, leads = [], []
        while len(bases) < 1 + k % 2:
            g0 = random_labeled_digraph(rng, system, rng.choice([2, 4, 6]))
            if column_brute_force_check(g0) is None:
                continue
            if k % 2 == 0:
                leads = passing_columns(g0)
                if not leads:
                    continue
            bases.append(g0)
        copies = [rng.choice(bases) for _ in range(rng.randint(3, 5))]
        vertices, edges = [], []
        for c, base in enumerate(copies):
            vertices += [f"c{c}{v}" for v in base.vertices]
            edges += [Edge(f"c{c}{e.src}", f"c{c}{e.dst}", e.label, e.style)
                      for e in base.edges]
        rng.shuffle(vertices)
        if leads:
            lead = rng.choice(leads)
            firsts = [f"c{c}{lead}" for c in range(len(copies))]
            vertices = firsts + [v for v in vertices if v not in firsts]
        yield (f"{system.generators} #{k}, {len(copies)} copies",
               SLabeledDigraph(system, vertices, edges))


def test_keyed_oracle_on_many_component_rejections():
    """Whole witnesses equal both references on unions whose copies share
    cycle words.  Each rejected cycle here fails at every position (so does
    every cycle word with m <= 4 under n = 2..8), so the witness is the first
    vertex of its cycle and no copy walked later can hold it; what the set
    makes sure of is that verdicts decided on one component are read back
    for others before the failing one is walked."""
    read_back = shared_word = 0
    for label, g in many_component_rejections():
        witness = brute_force_check(g)
        assert witness is not None, label
        assert witness == column_brute_force_check(g), label
        assert witness == ratfunc_brute_force_check(g), label
        gens = g.system.generators
        pairs = [(i, j) for i in range(len(gens))
                 for j in range(i + 1, len(gens))]
        walked = {pair: list(keyed_components(g, *pair)) for pair in pairs}
        # the components the oracle walks up to the failing one
        col = g.vertex_index[witness.column]
        failing = tuple(gens.index(x) for x in witness.generators)
        keys = []
        for pair in pairs[:pairs.index(failing) + 1]:
            for key, cycle in walked[pair]:
                keys.append(key)
                if pair == failing and col in cycle:
                    assert cycle[0] == col, label
                    break
        read_back += len(set(keys)) < len(keys)
        # one cycle word under two orders n(s,t)
        orders = {}
        for pair in pairs:
            for n, word in (key for key, _ in walked[pair]):
                orders.setdefault(word, set()).add(n)
        shared_word += any(len(ns) > 1 for ns in orders.values())
    assert read_back > 60 and shared_word > 10


def test_keyed_oracle_keys_cycle_words_by_order():
    """A template on (r, s) copied onto (r, t) gives both restrictions one
    cycle word; it holds under n(r,s) and fails under n(r,t), so a verdict
    keyed by the word alone would be read back wrongly."""
    cases = 0
    for figure in range(1, 7):
        for m in (2, 3, 4):
            n1 = TEMPLATES[figure].divisor(m)
            if n1 < 2:
                continue
            system = CoxeterSystem(["r", "s", "t"], {
                ("r", "s"): n1, ("r", "t"): n1 + 1, ("s", "t"): 2})
            template = build_family(CoxeterSystem.dihedral(n1, ("r", "s")),
                                    FamilySpec(figure, m, "r", "s"))
            copied = [Edge(e.src, e.dst, "t", e.style)
                      for e in template.edges if e.label == "s"]
            g = SLabeledDigraph(system, template.vertices,
                                [*template.edges, *copied])
            (rs, rt) = (list(keyed_components(g, 0, k)) for k in (1, 2))
            assert [word for (_, word), _ in rs] == [word for (_, word), _ in rt]
            witness = brute_force_check(g)
            assert witness == RelationWitness("braid", ("r", "t"),
                                              g.vertices[0]), (figure, m)
            assert witness == column_brute_force_check(g), (figure, m)
            assert witness == ratfunc_brute_force_check(g), (figure, m)
            cases += 1
    assert cases >= 12


def entered_pairs(monkeypatch) -> dict:
    """Wrap `SLabeledDigraph.alternating_cycles` to count the walks entered
    per pair of generator indices; a pair never walked is absent."""
    entered = {}
    walk = SLabeledDigraph.alternating_cycles

    def counted(self, i, j):
        entered[i, j] = entered.get((i, j), 0) + 1
        yield from walk(self, i, j)

    monkeypatch.setattr(SLabeledDigraph, "alternating_cycles", counted)
    return entered


def relabeled_union(parts):
    """The disjoint union of the digraphs in parts, over the system of the
    first, the vertices of part c renamed with the prefix c{c}, in turn."""
    return SLabeledDigraph(
        parts[0].system,
        [f"c{c}{v}" for c, g in enumerate(parts) for v in g.vertices],
        [Edge(f"c{c}{e.src}", f"c{c}{e.dst}", e.label, e.style)
         for c, g in enumerate(parts) for e in g.edges])


def test_deciders_walk_each_pair_once(monkeypatch):
    """`is_w_digraph` then `brute_force_check` on one digraph enter the walk
    of each finite pair once between them, whatever either decides; on a
    union whose (r, s) passes and whose (r, t) fails, the oracle alone
    enters those two walks and never (s, t)'s."""
    entered = entered_pairs(monkeypatch)
    rng = random.Random(3301)
    inputs = [g for _, g in group_digraphs()]
    inputs += [g for _, g in islice(many_component_rejections(), 40)]
    inputs += [random_labeled_digraph(rng, RANK_THREE[k % 2], 2 * (k % 6 + 1))
               for k in range(60)]
    walked = 0
    for g in inputs:
        entered.clear()
        is_w_digraph(g)
        brute_force_check(g)
        rank = g.system.rank()
        assert entered == ({} if g.validate_structure() else {
            (i, j): 1 for i in range(rank) for j in range(i + 1, rank)
            if g.system.order(i, j) is not inf}), g
        walked += bool(entered)
    assert walked > 80
    # a template on (r, s) copied onto (r, t): (r, s) passes, (r, t) fails
    system = CoxeterSystem(["r", "s", "t"], {("r", "s"): 4, ("r", "t"): 5,
                                             ("s", "t"): 2})
    template = build_family(CoxeterSystem.dihedral(4, ("r", "s")),
                            FamilySpec(2, 4, "r", "s"))
    g = relabeled_union([SLabeledDigraph(
        system, template.vertices,
        [*template.edges, *(Edge(e.src, e.dst, "t", e.style)
                            for e in template.edges if e.label == "s")])] * 3)
    entered.clear()
    assert brute_force_check(g) == RelationWitness("braid", ("r", "t"),
                                                   g.vertices[0])
    assert entered == {(0, 1): 1, (0, 2): 1}


def test_reports_are_built_once_when_first_read(monkeypatch):
    """The classifier's verdict walks each finite pair once; its reports
    walk each pair once more when first read, and are kept, so `repr`, `==`
    and a second read walk nothing."""
    entered = entered_pairs(monkeypatch)
    g = build_regular(CoxeterSystem(["q", "r", "s", "t"], GROUP_ORDERS["B4"]))
    verdict = is_w_digraph(g)
    assert verdict.is_w_digraph and len(entered) == 6
    walked = dict(entered)
    reports = verdict.pair_reports
    assert entered == {pair: 2 * k for pair, k in walked.items()}
    assert verdict.pair_reports is reports and verdict == verdict
    assert "FamilyMatch(figure=" in repr(verdict)
    assert entered == {pair: 2 * k for pair, k in walked.items()}


def test_oracle_runs_each_key_once_from_position_zero(monkeypatch):
    """On the group digraphs `brute_force_check` runs the braid relation
    once per distinct (n, cycle word) of the finite pairs, both sides from
    walk position 0 (a cycle's verdicts are all or none by position), on
    the word's tables at the exact point for n."""
    real_pairing, real_apply = validator.cycle_pairing, validator._word_apply
    runs, words = [], []

    def pairing(word):
        words.append(word)
        return real_pairing(word)

    def counted(table, letters, vec, zero):
        n, word = len(letters), words[-1]
        point = 1 << _exact_bits(n)
        assert table == _table(cycle_pairing(word),
                               _cases_at(_TAU_CASES, lambda c: c(point)))
        runs.append((n, word, tuple(vec.items())))
        return real_apply(table, letters, vec, zero)

    monkeypatch.setattr(validator, "cycle_pairing", pairing)
    monkeypatch.setattr(validator, "_word_apply", counted)
    for label, g in group_digraphs():
        runs.clear()
        assert brute_force_check(g) is None, label
        system = g.system
        keys = {(system.order(i, j), encoded_word(word))
                for i in range(system.rank())
                for j in range(i + 1, system.rank())
                if system.order(i, j) is not inf
                for _, word in scan_alternating_cycles(
                    g, system.generators[i], system.generators[j])}
        assert Counter(runs) == Counter({(n, word, ((0, 1),)): 2
                                         for n, word in keys}), label


def template_grid():
    """The template digraphs of `oracle_inputs`, each figure and m over
    I2(2..10)."""
    return [(label, g) for label, g in oracle_inputs()
            if label.startswith("figure ")]


@pytest.mark.parametrize("case, rigged", [
    pytest.param(("head", SOLID), (modrep.U2, modrep.U2), id="solid"),
    pytest.param(("tail", DASHED), (modrep.U2, modrep.U2MU), id="dashed"),
])
def test_rigged_case_gives_the_column_witness(monkeypatch, case, rigged):
    """With one case of `_TAU_CASES` rigged so that the quadratic relation
    fails on its block, the once-per-case check gives the witness of the
    column-by-column reference: the first column, generators in order
    and columns in vertex order, of a failing case, or the braid witness
    when no column has one."""
    inputs = [*template_grid(), *group_digraphs()]
    monkeypatch.setitem(modrep._TAU_CASES, case, rigged)
    kinds = Counter()
    for label, g in inputs:
        witness = brute_force_check(g)
        assert witness == column_brute_force_check(g), label
        kinds[witness.kind if witness else "none"] += 1
    assert kinds["quadratic"] > 100 and kinds["braid"] and kinds["none"], kinds


def test_oracle_runs_the_quadratic_relation_once_per_case(monkeypatch):
    """On every accepted group digraph the quadratic relation costs eight
    kernel applications, two for each case of `_TAU_CASES`, whatever the
    size of the digraph, and the braid relation runs through
    `_word_apply` alone."""
    real = validator._apply_columns
    calls = []

    def counted(columns, vec, zero):
        calls.append(len(columns))
        return real(columns, vec, zero)

    monkeypatch.setattr(validator, "_apply_columns", counted)
    for label, g in group_digraphs():
        calls.clear()
        assert brute_force_check(g) is None, label
        assert calls == [2] * 8, label


# -- the keyed classifier against the per-cycle classifier it replaced --------------------


def pairing_arc(first, second, source):
    """The directed path out of the source whose edges take their labels
    from the pairings first, second, first, ... in turn, as (head, style)
    per edge; it ends at the first vertex it cannot leave, the sink."""
    pairings = (first, second)
    arc = []
    v = source
    while True:
        partner, role, style = pairings[len(arc) % 2][v]
        if role != "tail":
            return arc
        arc.append((partner, style))
        v = partner


def classify_cycle(names, ps, pt, cycle, n, pair):
    """One alternating cycle of the restriction to `pair` matched against
    the eight templates by vertex name, its source, arcs and dashes read off
    the edge pairing."""
    m = len(cycle) // 2
    if m == 1:
        x = cycle[0]
        (y, role, style), (_, t_role, t_style) = ps[x], pt[x]
        if role != t_role:
            return Rejection("the two edges must be parallel, same direction")
        if style != t_style:
            return Rejection("the two parallel edges must share one style")
        src, snk = (x, y) if role == "tail" else (y, x)
        return FamilyMatch(7 if style == SOLID else 8, 1,
                           {names[src]: "a0", names[snk]: "b1"})

    sources = [v for v in cycle if ps[v][1] == pt[v][1] == "tail"]
    if len(sources) != 1:
        return Rejection(f"{len(sources)} sources, need exactly 1")
    src = sources[0]
    a_arc, b_arc = pairing_arc(ps, pt, src), pairing_arc(pt, ps, src)
    if len(a_arc) != m:
        first, second = len(a_arc), len(b_arc)
        if pair[1] < pair[0]:
            first, second = second, first
        return Rejection(f"sink not opposite the source "
                         f"(arc lengths {first}, {second})")

    dash_slots = set()
    for arc, tag in ((a_arc, "left"), (b_arc, "right")):
        for i, (_, style) in enumerate(arc):
            if style == DASHED:
                if i == 0:
                    dash_slots.add(f"{tag}_first")
                elif i == m - 1:
                    dash_slots.add(f"{tag}_last")
                else:
                    return Rejection("dashed edge in the interior of an arc")
    figure = _FIGURE_BY_DASHES.get(frozenset(dash_slots))
    if figure is None:
        return Rejection(f"dash pattern {sorted(dash_slots)} matches no figure")
    if not family_divisibility_ok(figure, m, n):
        divisor = TEMPLATES[figure].divisor(m)
        return Rejection(f"figure {figure} needs {divisor} | n, n = {n}")
    witness = {names[src]: "a0", names[a_arc[-1][0]]: f"b{m}"}
    for i, (v, _) in enumerate(a_arc[:-1]):
        witness[names[v]] = f"a{i + 1}"
    for i, (v, _) in enumerate(b_arc[:-1]):
        witness[names[v]] = f"b{i + 1}"
    return FamilyMatch(figure, m, witness)


def per_cycle_is_w_digraph(g):
    """The classifier with every cycle classified by name on its own, the
    cycles found by edge scans: the reference of the keyed `is_w_digraph`."""
    violations = tuple(g.validate_structure())
    if violations:
        return Verdict(False, violations, ())
    names, pairing, system = g.vertices, edge_pairing(g), g.system
    reports = []
    ok = True
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is inf:
                continue
            pair = (system.generators[i], system.generators[j])
            comps = [classify_cycle(names, pairing[i], pairing[j], cycle, n,
                                    pair)
                     for cycle, _ in scan_alternating_cycles(g, *pair)]
            ok = ok and not any(isinstance(c, Rejection) for c in comps)
            reports.append(PairReport(pair, n, tuple(comps)))
    return Verdict(ok, (), tuple(reports))


def test_keyed_classifier_matches_per_cycle_reference():
    accepted = rejected = 0
    for label, g in [*oracle_inputs(), *group_digraphs(),
                     *non_alphabetical_inputs(), *many_component_rejections()]:
        verdict = is_w_digraph(g)
        reference = per_cycle_is_w_digraph(g)
        assert verdict == reference, label
        assert repr(verdict) == repr(reference), label   # witness order too
        assert verdict.describe() == reference.describe(), label
        accepted += verdict.is_w_digraph
        rejected += any(isinstance(c, Rejection)
                        for pr in verdict.pair_reports for c in pr.components)
    assert accepted > 200 and rejected > 1000


def test_keyed_classifier_decides_each_word_once(monkeypatch):
    """On B4 regular each pair decides one result per distinct (n, cycle
    word), far fewer than its components."""
    system = CoxeterSystem(["q", "r", "s", "t"], GROUP_ORDERS["B4"])
    g = build_regular(system)
    decided = {}
    real = validator._decide_word

    def counted(word, n, pair):
        decided.setdefault(pair, []).append((n, word))
        return real(word, n, pair)

    monkeypatch.setattr(validator, "_decide_word", counted)
    verdict = is_w_digraph(g)
    assert verdict.is_w_digraph and len(verdict.pair_reports) == 6
    for report in verdict.pair_reports:
        keys = decided[report.pair]
        assert len(keys) == len(set(keys))
        assert set(keys) == {(report.n, encoded_word(word)) for _, word in
                             scan_alternating_cycles(g, *report.pair)}
        assert 10 * len(keys) <= len(report.components), report.pair


# -- the oracle's cycle tables against the whole-digraph tables ---------------------------


def test_positional_tables_are_the_whole_tables_on_a_cycle():
    """Each (n, cycle word)'s tables, `_table` over its `cycle_pairing`,
    are `_table`'s tables of tau_s and tau_t over the whole digraph, at both
    exact points, restricted to the cycle and relabeled by walk position:
    the premise of `brute_force_check`."""
    rng = random.Random(3001)
    systems = DIHEDRAL + RANK_THREE
    inputs = [g for _, g in group_digraphs()]
    inputs += [random_labeled_digraph(rng, systems[k % len(systems)],
                                      2 * (k % 6 + 1)) for k in range(300)]
    keys = set()
    for g in inputs:
        pairing, system = g.coded_pairing(), g.system
        for i in range(system.rank()):
            for j in range(i + 1, system.rank()):
                n = system.order(i, j)
                if n is inf:
                    continue
                pair = (system.generators[i], system.generators[j])
                for k in (2, n):
                    point = 1 << _exact_bits(k)
                    cases = _cases_at(_TAU_CASES, lambda c: c(point))
                    whole = _table(pairing, cases)
                    for cycle, word in scan_alternating_cycles(g, *pair):
                        position = {v: p for p, v in enumerate(cycle)}
                        expected = list(
                            [(position[whole[s][v][0]],) + whole[s][v][1:]
                             for v in cycle] for s in (i, j))
                        assert _table(cycle_pairing(encoded_word(word)),
                                      cases) == expected, (pair, k, cycle)
                        keys.add((n, word))
    assert len(keys) > 400
