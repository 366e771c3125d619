"""Tests for the digraph module: generator matrices, characters, eigenspaces,
reversal identities, the 0-specialization, bar propagation, and the
theorem-level checkers."""

import itertools
import random
from collections import Counter, deque
from math import inf

import pytest

from wdigraph import modrep
from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism
from wdigraph.digraph import CODE_ENDS, DASHED, SOLID, SLabeledDigraph
from wdigraph.exactalg import (P_ONE, P_ZERO, RF_ONE, RF_U, RF_ZERO, Poly,
                               RatFunc, RatMatrix, char_poly, rf, sigma,
                               solve_simultaneous_eigenspace)
from wdigraph.families import (EXAMPLE_NAMES, FamilySpec, build_family,
                               build_lv, build_example, build_regular,
                               family_divisibility_ok)
from wdigraph.hecke import invert_Tw
from wdigraph.modrep import (BarSolution, IdentityReport, ModuleRep,
                             LinearCharacterDims, _S_CASES, _TAU_CASES,
                             _TWISTED_S_CASES, _apply_columns, _as_ratfuncs,
                             _restricted_component_counts, _same_image,
                             _sign_diagonal,
                             _table, _trace, _u_powers, _word_columns,
                             bar_from_source, linear_char_dims,
                             reversal_identities, theorem_checkers,
                             zero_hecke_action)

from conftest import (RatFuncOperators, TupleDigraph, apply_entrywise,
                      assert_refused, descent_counts, disjoint_union,
                      edge_pairing, eval_at, identity_matrix,
                      is_poly, lampoly_mul, make_a3, make_b3, out_edges,
                      path_length_mu, random_labeled_digraph, reachable_from,
                      subgraph)
from test_validator import GROUP_ORDERS, group_digraphs, word_apply

U2 = RF_U * RF_U


@pytest.fixture(scope="module")
def i23():
    return CoxeterSystem.dihedral(3)


def test_tau_matrix_solid_block():
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y"], [("x", "y", "s", SOLID)])
    tau = ModuleRep(g).tau_matrix("s")
    assert tau == RatMatrix([[RF_ZERO, U2], [RF_ONE, U2 - RF_ONE]])


def test_tau_matrix_dashed_block():
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y"], [("x", "y", "s", DASHED)])
    tau = ModuleRep(g).tau_matrix("s")
    assert tau == RatMatrix([[RF_U, rf([0, -1, 1])],
                             [rf([1, 1]), rf([-1, -1, 1])]])


@pytest.mark.parametrize("style", [SOLID, DASHED])
def test_tau_block_eigenvalues(style):
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y"], [("x", "y", "s", style)])
    tau = ModuleRep(g).tau_matrix("s")
    cp = char_poly(tau)
    assert cp == lampoly_mul((-U2, RF_ONE), (RF_ONE, RF_ONE))


@pytest.mark.parametrize("style", [SOLID, DASHED])
def test_eigenvector_closed_forms(style):
    # alpha + beta carries u^2; alpha - u^{-2} beta (solid) and
    # alpha - (u+1)/(u^2-u) beta (dashed) carry -1
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y"], [("x", "y", "s", style)])
    rep = RatFuncOperators(g)
    assert rep.apply("s", {0: RF_ONE, 1: RF_ONE}) == {0: U2, 1: U2}
    coeff = -(RF_U ** (-2)) if style == SOLID else -rf([1, 1], [0, -1, 1])
    assert rep.apply("s", {0: RF_ONE, 1: coeff}) == {0: -RF_ONE, 1: -coeff}


@pytest.mark.parametrize("style", [SOLID, DASHED])
def test_tau_cases_block_is_quadratic_with_eigenvalues_u2_and_minus_1(style):
    # the 2x2 block [[tail_self, head_partner], [tail_partner, head_self]]
    # read straight off the case table, over Z[u]
    u, one, zero = Poly((0, 1)), P_ONE, P_ZERO
    tail_self, tail_partner = _TAU_CASES[("tail", style)]
    head_self, head_partner = _TAU_CASES[("head", style)]
    block = [[tail_self or zero, head_partner], [tail_partner, head_self or zero]]

    def times(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                for i in range(2)]

    def shift(c):
        return [[block[i][j] - (c if i == j else zero) for j in range(2)]
                for i in range(2)]

    u2 = u * u
    assert times(shift(u2), shift(-one)) == [[zero, zero], [zero, zero]]
    # trace u^2 - 1 and determinant -u^2: the characteristic polynomial is
    # (x - u^2)(x + 1), so u^2 and -1 are the only eigenvalues
    assert block[0][0] + block[1][1] == u2 - one
    assert block[0][0] * block[1][1] - block[0][1] * block[1][0] == -u2
    # and their eigenvectors (tail, head): (1, 1), and (u^2, -1) solid or
    # (u^2 - u, -(u + 1)) dashed
    minus = (u2, -one) if style == SOLID else (u2 - u, -(u + one))
    for lam, vec in ((u2, (one, one)), (-one, minus)):
        image = [block[i][0] * vec[0] + block[i][1] * vec[1] for i in range(2)]
        assert image == [lam * x for x in vec]


def test_character_at_identity(i23):
    g = build_family(i23, FamilySpec(1, 3))
    assert ModuleRep(g).character(i23.identity()) == rf(6)


def test_reduced_word_independence(i23):
    g = build_family(i23, FamilySpec(2, 3))
    rep = RatFuncOperators(g)
    for j in range(rep.n):
        assert word_apply(rep, [0, 1, 0], {j: RF_ONE}) == \
            word_apply(rep, [1, 0, 1], {j: RF_ONE})


def test_affine_cycle_char_poly():
    g = build_example("affine_a2_cycle")
    rep = ModuleRep(g)
    w = g.system.element("rst")
    cp = char_poly(rep.rho(w))
    u6 = RF_U ** 6
    expected = lampoly_mul(
        lampoly_mul((RF_ONE, RF_ZERO, RF_ONE), (-u6, RF_ZERO, RF_ONE)),
        lampoly_mul((-u6, RF_ONE), (-u6, RF_ONE)))
    assert cp == expected


def _lv(system):
    return build_lv(system, DiagramAutomorphism.identity(system))


def _lv_a3_flip():
    a3 = make_a3()
    return build_lv(a3, DiagramAutomorphism.from_mapping(a3, {"r": "t", "t": "r"}))


# the sparse inverse against the Hecke-algebra expansion of T_w^{-1}, over all
# of W or over the words up to a length
@pytest.mark.parametrize("build, max_length", [
    (lambda: build_family(CoxeterSystem.dihedral(3), FamilySpec(4, 2)), None),
    (lambda: _lv(make_a3()), None),
    (lambda: build_regular(make_a3()), None),
    (lambda: _lv(make_b3()), 3),
    (lambda: build_example("h3_nonselfassoc"), 3),
    (_lv_a3_flip, 3),
    (lambda: build_example("b3_no_bar"), 3),
    (lambda: build_example("affine_a2_cycle"), 3),
], ids=["fig4_m2", "lv_a3", "regular_a3", "lv_b3", "h3_nonselfassoc",
        "lv_a3_flip", "b3_no_bar", "affine_a2_cycle"])
def test_rho_inverse_roundtrip(build, max_length):
    g = build()
    rep = ModuleRep(g)
    for w in g.system.enumerate(max_length):
        inv = rep.rho_inv(w)
        assert inv == rep.rho_elt(invert_Tw(w)), w
        assert rep.rho(w) * inv == identity_matrix(rep.n), w


@pytest.mark.parametrize("name", ["b3_no_bar", "h3_nonselfassoc"])
def test_tau_inv_apply_matches_dense(name):
    # b3_no_bar is all solid; h3_nonselfassoc has dashed edges; both the Z[u]
    # kernel on S_s, over u^2, and the Q(u) reference give tau_s^-1
    g = build_example(name)
    rep = ModuleRep(g)
    ops = RatFuncOperators(g)
    ident = identity_matrix(rep.n)
    s_table = _table(g.coded_pairing(), _S_CASES)
    for k, s in enumerate(g.system.generators):
        dense = (rep.tau_matrix(s) - ident.scale(U2 - RF_ONE)).scale(RF_U ** -2)
        for j in range(rep.n):
            column = {i: row[j] for i, row in enumerate(dense.rows)
                      if row[j] != RF_ZERO}
            s_column = _apply_columns(s_table[k], {j: P_ONE})
            assert {i: RatFunc(c, Poly((0, 0, 1)))
                    for i, c in s_column.items()} == column
            assert ops.apply_inv(s, {j: RF_ONE}) == column


def test_linear_char_dims_family(i23):
    g = build_family(CoxeterSystem.dihedral(2), FamilySpec(1, 2))
    dims = linear_char_dims(g)
    assert (dims.dim_ind, dims.dim_sgn) == (1, 1)
    assert (dims.predicted_ind, dims.predicted_sgn) == (1, 1)


def test_linear_char_dims_cycle():
    dims = linear_char_dims(build_example("affine_a2_cycle"))
    assert (dims.dim_ind, dims.dim_sgn) == (1, 0)
    assert (dims.predicted_ind, dims.predicted_sgn) == (1, 0)


def test_linear_char_dims_union(i23):
    g = build_family(i23, FamilySpec(7, 1))
    both = disjoint_union(g, g)
    dims = linear_char_dims(both)
    assert (dims.dim_ind, dims.dim_sgn) == (2, 2)
    assert (dims.predicted_ind, dims.predicted_sgn) == (2, 2)


# -- the local trace coefficient table ---------------------------------------------

U2M1 = U2 - RF_ONE            # u^2 - 1
U2MUM1 = rf([-1, -1, 1])      # u^2 - u - 1

KAPPA_TABLE = {
    ("in", SOLID, "out", SOLID): rf(0),
    ("in", SOLID, "out", DASHED): RF_U * U2M1,
    ("in", DASHED, "out", SOLID): rf(0),
    ("in", DASHED, "out", DASHED): RF_U * U2MUM1,
    ("out", SOLID, "in", SOLID): rf(0),
    ("out", SOLID, "in", DASHED): rf(0),
    ("out", DASHED, "in", SOLID): RF_U * U2M1,
    ("out", DASHED, "in", DASHED): RF_U * U2MUM1,
    ("out", SOLID, "out", SOLID): rf(0),
    ("out", SOLID, "out", DASHED): rf(0),
    ("out", DASHED, "out", SOLID): rf(0),
    ("out", DASHED, "out", DASHED): U2,
    ("in", SOLID, "in", SOLID): U2M1 * U2M1,
    ("in", SOLID, "in", DASHED): U2M1 * U2MUM1,
    ("in", DASHED, "in", SOLID): U2M1 * U2MUM1,
    ("in", DASHED, "in", DASHED): U2MUM1 * U2MUM1,
}


def vertex_config(g, v, s_name, t_name):
    out = {}
    for e in g.edges:
        if e.src == v:
            out[e.label] = ("out", e.style)
        elif e.dst == v:
            out[e.label] = ("in", e.style)
    sdir, sstyle = out[s_name]
    tdir, tstyle = out[t_name]
    return (sdir, sstyle, tdir, tstyle)


def kappa_coefficient(ops, g, v):
    """The diagonal entry of tau_s tau_t at v, with `RatFuncOperators` ops."""
    i = g.vertex_index[v]
    return ops.apply("s", ops.apply("t", {i: RF_ONE})).get(i, RF_ZERO)


def test_kappa_table_polynomials():
    # spot-check two expanded table entries
    assert KAPPA_TABLE[("in", SOLID, "out", DASHED)] == rf([0, -1, 0, 1])
    assert KAPPA_TABLE[("in", SOLID, "in", SOLID)] == rf([1, 0, -2, 0, 1])


def test_kappa_all_16_configurations():
    # the table describes vertices whose two edges go to distinct neighbors,
    # so only the 2m-cycles with m >= 2 (figures 1-6) are in scope
    seen = set()
    cases = [(1, 2, 2), (1, 3, 3), (2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3),
             (4, 2, 3), (4, 3, 5), (5, 2, 3), (5, 3, 5), (6, 2, 2), (6, 3, 4)]
    for figure, m, n in cases:
        system = CoxeterSystem.dihedral(n)
        g = build_family(system, FamilySpec(figure, m))
        rep = RatFuncOperators(g)
        for v in g.vertices:
            config = vertex_config(g, v, "s", "t")
            assert kappa_coefficient(rep, g, v) == KAPPA_TABLE[config], \
                (figure, m, v, config)
            seen.add(config)
    assert seen == set(KAPPA_TABLE)


def test_trace_constant_term_counts_sinks():
    # on one connected rank-two component, the constant term of tr(tau_s tau_t)
    # equals the (unique) sink count
    for figure, m, n in [(1, 3, 3), (2, 2, 2), (4, 2, 3), (6, 2, 2), (7, 1, 5)]:
        system = CoxeterSystem.dihedral(n)
        g = build_family(system, FamilySpec(figure, m))
        rep = RatFuncOperators(g)
        trace = RF_ZERO
        for v in g.vertices:
            trace = trace + kappa_coefficient(rep, g, v)
        assert is_poly(trace)
        assert trace.num[0] == 1


TABLE_POLYS = {
    1: lambda m: _poly_pow(_xm_minus_1(m), 2),
    2: lambda m: _poly_pow(_xm_minus_1(m), 2),
    3: lambda m: _poly_pow(_xm_minus_1(m), 2),
    4: lambda m: lampoly_mul(_xm_minus_1(1), _xm_minus_1(2 * m - 1)),
    5: lambda m: lampoly_mul(_xm_minus_1(1), _xm_minus_1(2 * m - 1)),
    6: lambda m: lampoly_mul(_poly_pow(_xm_minus_1(1), 2),
                             _poly_pow(_xm_plus_1(m - 1), 2)),
}


def _xm_minus_1(m):
    return tuple([rf(-1)] + [RF_ZERO] * (m - 1) + [RF_ONE])


def _xm_plus_1(m):
    return tuple([rf(1)] + [RF_ZERO] * (m - 1) + [RF_ONE])


def _poly_pow(p, k):
    out = (RF_ONE,)
    for _ in range(k):
        out = lampoly_mul(out, p)
    return out


def test_table_char_polys_at_u_equals_1():
    for figure in range(1, 7):
        for m in (2, 3):
            n = {1: m, 2: m, 3: m, 4: 2 * m - 1, 5: 2 * m - 1,
                 6: 2 * m - 2}[figure]
            system = CoxeterSystem.dihedral(max(n, 2))
            g = build_family(system, FamilySpec(figure, m))
            rep = ModuleRep(g)
            at1 = apply_entrywise(rep.tau_matrix("s") * rep.tau_matrix("t"),
                                  lambda f: rf(eval_at(f, 1)))
            assert char_poly(at1) == TABLE_POLYS[figure](m), (figure, m)


# -- reversal identities ----------------------------------------------------------------


def test_reversal_identities_family(i23):
    g = build_family(i23, FamilySpec(2, 3))
    words = [w for w in i23.enumerate() if w.length <= 4]
    words.append(i23.longest_element())
    for report in reversal_identities(g, words):
        assert report.twist_matrix and report.twist_trace
        assert report.sign_matrix and report.sign_trace


def test_reversal_identities_cycle_values():
    g = build_example("affine_a2_cycle")
    system = g.system
    y = system.element("rst")
    rep = ModuleRep(g)
    rev = ModuleRep(g.reverse())
    chi_rev = rev.rho(y).trace()
    assert chi_rev == rf(2)
    assert sigma(rep.rho_elt(invert_Tw(y.inverse())).trace()) == rf(2)
    eps_u = rf(-1) * RF_U ** 6
    assert eps_u * rep.rho_elt(invert_Tw(y)).trace() == rf(-2)
    reports = reversal_identities(g, [y])
    assert reports[0].twist_matrix and reports[0].twist_trace
    assert reports[0].skipped is not None  # sign identity needs acyclicity


# -- the 0-specialization ------------------------------------------------------------------


def test_zero_hecke_sink_negates(i23):
    g = build_family(i23, FamilySpec(1, 2))
    sign, v = zero_hecke_action(g, i23.element("s"), "b2")
    assert (sign, v) == (-1, "b2")
    sign, v = zero_hecke_action(g, i23.element("s"), "a0")
    assert (sign, v) == (1, "a1")


def test_zero_hecke_longest_reaches_sink(a3):
    lv = build_lv(a3, DiagramAutomorphism.identity(a3))
    w0 = a3.longest_element()
    sink = lv.sinks()[0]
    for alpha in lv.vertices:
        sign, v = zero_hecke_action(lv, w0, alpha)
        assert v == sink


def test_zero_hecke_reachability_matches_bfs(a3):
    lv = build_lv(a3, DiagramAutomorphism.identity(a3))
    elems = a3.enumerate()
    for alpha in lv.vertices:
        reached = {zero_hecke_action(lv, w, alpha)[1] for w in elems}
        assert reached == reachable_from(lv, alpha)


def out_edge_walk(digraph, w, alpha):
    """The 0-Hecke action as a walk along out-edges, as `zero_hecke_action`
    computed it before it ran the tau_s table at u = 0: each generator
    follows its edge out of the current vertex if one leaves it, and
    otherwise negates."""
    sign, v = 1, alpha
    gens = digraph.system.generators
    out_by_label = {}
    for e in digraph.edges:
        out_by_label[(e.src, e.label)] = e.dst
    for s in reversed(w.word):
        dst = out_by_label.get((v, gens[s]))
        if dst is None:
            sign = -sign
        else:
            v = dst
    return sign, v


def zero_hecke_inputs():
    """The seven modules fixtures, the template grid over I2(2..7) and 100
    seeded random two-label digraphs, none with a loop."""
    yield from ((label, g) for label, g in reversal_inputs()
                if not label.startswith("figure"))
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4, 5]):
            for n in range(2, 8):
                yield f"figure {figure} m={m} n={n}", build_family(
                    _DIHEDRAL[n], FamilySpec(figure, m))
    rng = random.Random(1919)
    for k in range(100):
        nv = rng.choice([2, 4, 6, 8, 10])
        yield f"two-label #{k}", random_labeled_digraph(
            rng, _DIHEDRAL[rng.choice([2, 3, 4, 5, 6])], nv)


def test_zero_hecke_action_matches_out_edge_walk():
    seen = Counter()
    for label, g in zero_hecke_inputs():
        assert all(e.src != e.dst for e in g.edges), label
        words = g.system.enumerate(4)
        if g.system.is_finite():
            words.append(g.system.longest_element())
        for w in words:
            for alpha in g.vertices:
                got = zero_hecke_action(g, w, alpha)
                assert got == out_edge_walk(g, w, alpha), (label, w, alpha)
                seen[got[0]] += 1
        seen["digraphs"] += 1
    assert seen["digraphs"] == 7 + 156 + 100
    assert seen[1] > 1000 and seen[-1] > 1000


def test_zero_hecke_refuses_a_loop():
    # a loop digraph defines no module, so the action raises the structure
    # gate's error, at every vertex; the out-edge walk followed the loop
    g = loop_digraph()
    t = g.system.element("t")
    for alpha in ("x_loop", "y_loop", "a0"):
        assert_refused(lambda g: zero_hecke_action(g, t, alpha), g)
    assert out_edge_walk(g, t, "x_loop") == (1, "x_loop")


def test_zero_hecke_missing_edge_raises(i23):
    # a vertex with no t-edge breaks the one-edge-per-label rule; the walk
    # negated there, the action raises the pairing's error
    g = SLabeledDigraph(i23, ["a", "b"], [("a", "b", "s", SOLID)])
    t = i23.element("t")
    assert out_edge_walk(g, t, "a") == (-1, "a")
    with pytest.raises(ValueError, match="meets 0 edges labeled t"):
        zero_hecke_action(g, t, "a")


# -- bar propagation -------------------------------------------------------------------------


def test_bar_consistent_on_family():
    i22 = CoxeterSystem.dihedral(2)
    g = build_family(i22, FamilySpec(1, 2))
    sol = bar_from_source(g)
    assert sol.consistent
    # the source is fixed
    src = g.sources()[0]
    i = g.vertex_index[src]
    assert sol.images[src][i] == RF_ONE


def test_bar_witness_b3_fixture():
    g = build_example("b3_no_bar")
    sol = bar_from_source(g)
    assert not sol.consistent
    edge, got, tree = sol.witness
    assert edge.dst == "v4"
    differing = {g.vertices[i] for i in range(len(g.vertices))
                 if got[i] != tree[i]}
    assert differing == {"v1", "v8"}


def test_bar_requires_source():
    with pytest.raises(ValueError, match="source"):
        bar_from_source(build_example("affine_a2_cycle"))


# -- bar propagation over Z[u] against the RatFunc propagation it replaced ---------------------


def ratfunc_bar_from_source(g):
    """Bar propagation over Q(u) with `RatFuncOperators`: the solid step is
    tau_s^-1, the dashed step u/(u+1) (tau_s^-1 - 1/u).  Same BFS, same
    checks, same BarSolution as `bar_from_source`."""
    analysis = g.analyze()
    if analysis.n_components != 1:
        raise ValueError("bar propagation needs a connected digraph")
    sources = analysis.components[0].sources
    if len(sources) != 1:
        raise ValueError("bar propagation needs a unique source")
    source = sources[0]
    ops = RatFuncOperators(g)
    u_inv = RF_U ** (-1)
    factor = rf([0, 1], [1, 1])  # u/(u+1)

    def dense(vec):
        return [vec.get(i, RF_ZERO) for i in range(ops.n)]

    images = {source: {g.vertex_index[source]: RF_ONE}}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for e in out_edges(g, v):
            image = images[v]
            propagated = ops.apply_inv(e.label, image)
            if e.style == DASHED:
                propagated = {
                    i: c for i in propagated.keys() | image.keys()
                    if (c := factor * (propagated.get(i, RF_ZERO)
                                       - u_inv * image.get(i, RF_ZERO)))}
            if e.dst not in images:
                images[e.dst] = propagated
                queue.append(e.dst)
            elif propagated != images[e.dst]:
                return BarSolution(images=None, consistent=False,
                                   witness=(e, dense(propagated),
                                            dense(images[e.dst])))
    if len(images) != ops.n:
        raise ValueError("not every vertex is reachable from the source")
    return BarSolution(images={v: dense(x) for v, x in images.items()},
                       consistent=True)


def test_same_image_cancels_common_powers():
    # P / (u^a (u+1)^b) against images with other exponents: on the inputs of
    # the differential test below, no two equal images have unequal exponents
    u, u1 = Poly((0, 1)), Poly((1, 1))
    one = {0: P_ONE}
    assert _same_image(({0: u}, 1, 0), (one, 0, 0))
    assert _same_image(({0: u * u1}, 2, 1), (one, 1, 0))
    assert _same_image(({0: u1, 1: u * u1}, 0, 1), ({0: P_ONE, 1: u}, 0, 0))
    assert not _same_image(({0: u}, 2, 0), (one, 0, 0))
    assert not _same_image(({0: u1}, 0, 0), (one, 0, 1))
    assert not _same_image(({0: u}, 1, 0), ({1: P_ONE}, 0, 0))


def test_as_ratfuncs_matches_gcd_reduction():
    # P u^i (u+1)^j over u^a (u+1)^b, i > a and j > b included, for random
    # integer P of degree <= 6, some with P(-1) = 0: the reduction by u and
    # u+1 alone against the Euclid gcd of the RatFunc constructor
    rng = random.Random(2718)
    for i, j, a, b in itertools.product(range(5), repeat=4):
        scale = Poly.monomial(1, i) * Poly((1, 1)) ** j
        vec = {}
        for k in range(8):
            cs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 7))]
            if k % 2:
                cs[0] -= Poly(cs)(-1)          # P(-1) = 0
            p = Poly(cs)
            if p:
                vec[2 * k] = p * scale
        got = _as_ratfuncs((vec, a, b), 16)
        den = _u_powers(a, b)
        assert got == [RatFunc(vec[k], den) if k in vec else RF_ZERO
                       for k in range(16)], (i, j, a, b)


def b3_no_bar_declared_tsr():
    """b3_no_bar over the same B3 matrix with its generators declared
    ["t", "s", "r"]: declaration order is not label-name order."""
    g = build_example("b3_no_bar")
    system = CoxeterSystem(["t", "s", "r"], {("r", "s"): 3, ("s", "t"): 4})
    return SLabeledDigraph(system, g.vertices, g.edges)


def i2_3_with_loops():
    """a -> b labeled s and a -> c labeled t, with a t-loop at b and an
    s-loop at c: connected, one source, and no other out-edge at b or c."""
    return SLabeledDigraph(_DIHEDRAL[3], ["a", "b", "c"], [
        ("a", "b", "s", SOLID), ("a", "c", "t", SOLID),
        ("b", "b", "t", SOLID), ("c", "c", "s", DASHED)])


def bar_inputs():
    """The examples, b3_no_bar with its generators declared out of name
    order, a digraph with loops, the LV and regular digraphs of A3, B3, H3,
    A4, D4 and B4, the A3 flip LV, and 320 seeded random two-label digraphs
    over I2(2..6)."""
    for name in EXAMPLE_NAMES:
        yield name, build_example(name)
    yield "b3_no_bar declared t, s, r", b3_no_bar_declared_tsr()
    yield "I2(3) with loops", i2_3_with_loops()
    yield from group_digraphs()
    yield "lv_a3_flip", _lv_a3_flip()
    rng = random.Random(3141)
    for k in range(320):
        g0 = random_labeled_digraph(rng, _DIHEDRAL[3],
                                    rng.choice([2, 4, 6, 8, 10]))
        yield f"two-label #{k}", SLabeledDigraph(
            _DIHEDRAL[rng.choice([2, 3, 4, 5, 6])], g0.vertices, g0.edges)


def _bar_outcome(bar, g):
    try:
        return bar(g)
    except ValueError as exc:
        return str(exc)


def test_bar_from_source_matches_ratfunc_reference():
    seen = Counter()
    for label, g in bar_inputs():
        got = _bar_outcome(bar_from_source, g)
        assert got == _bar_outcome(ratfunc_bar_from_source, g), label
        seen["refused" if isinstance(got, str)
             else "consistent" if got.consistent else "inconsistent"] += 1
    assert min(seen["consistent"], seen["inconsistent"], seen["refused"]) > 10


# -- theorem checkers ----------------------------------------------------------------------------


def test_theorems_lv_b3(b3):
    lv = build_lv(b3, DiagramAutomorphism.identity(b3))
    report = theorem_checkers(lv)
    assert report.source_sink["status"] == "pass"
    assert report.index_bound["status"] == "pass"
    assert len(report.index_bound["per_subset"]) == 8
    assert report.vertex_bound["status"] == "pass"
    assert not report.vertex_bound["attained"]
    assert report.equal_lengths["status"] == "pass"
    assert report.wgraph_obstruction["status"] == "not-applicable"


def test_theorems_regular_a3_bound_attained(a3):
    report = theorem_checkers(build_regular(a3))
    assert report.vertex_bound["status"] == "pass"
    assert report.vertex_bound["attained"]


def test_index_bound_fails_when_every_subset_is_over_by_one():
    # a hexagon x0 ... x5 over A1^3, every order 2: r and s pair x0 x1,
    # x2 x3 and x4 x5 alike, t pairs x1 x2, x3 x4 and x0 x5.  Only {r, s}
    # fails, with exactly one component more than [W : W_J], so the bound
    # admits no margin
    a1_cubed = CoxeterSystem(["r", "s", "t"], {})
    hexagon = SLabeledDigraph(a1_cubed, [f"x{i}" for i in range(6)], [
        (f"x{a}", f"x{b}", label, SOLID)
        for label, pairs in [("r", [(0, 1), (2, 3), (4, 5)]),
                             ("s", [(0, 1), (2, 3), (4, 5)]),
                             ("t", [(1, 2), (3, 4), (0, 5)])]
        for a, b in pairs])
    report = theorem_checkers(hexagon)
    assert report.index_bound == {
        "status": "fail",
        "per_subset": {"empty": (6, 8), "r": (3, 4), "s": (3, 4),
                       "rs": (3, 2), "t": (3, 4), "rt": (1, 2),
                       "st": (1, 2), "rst": (1, 1)}}


def test_theorems_take_orders_from_the_classification(monkeypatch):
    """The report is unchanged when enumerating W is impossible, and its
    bounds equal |W| and [W : W_J] counted over the enumerated elements."""
    inputs = [*group_digraphs(),
              *((name, build_example(name)) for name in EXAMPLE_NAMES)]
    expected = [theorem_checkers(g) for _, g in inputs]
    counted = {}
    for label, g in inputs:
        if g.system.is_finite():
            elems = g.system.enumerate()
            counted[label] = (len(elems),
                              Counter(frozenset(w.word) for w in elems))

    def refuse(self, length_bound=None):
        raise AssertionError("enumerate called")

    monkeypatch.setattr(CoxeterSystem, "enumerate", refuse)
    for (label, g), before in zip(inputs, expected):
        report = theorem_checkers(g)
        assert report == before, label
        if report.vertex_bound["status"] == "not-applicable":
            continue
        order, supports = counted[label]
        assert report.vertex_bound["group_order"] == order
        gens = g.system.generators
        for J, (_, bound) in report.index_bound["per_subset"].items():
            Jset = set() if J == "empty" else {gens.index(x) for x in J}
            order_wj = sum(k for support, k in supports.items()
                           if support <= Jset)
            assert bound == order // order_wj, (label, J)


def test_restricted_component_counts_match_restrict_reference():
    inputs = [*group_digraphs(),
              *((name, build_example(name)) for name in EXAMPLE_NAMES)]
    for label, g in inputs:
        gens = g.system.generators
        expected = [len(g.restrict([gens[i] for i in range(len(gens))
                                    if mask >> i & 1]).components())
                    for mask in range(1 << len(gens))]
        assert _restricted_component_counts(g) == expected, label


def test_source_sink_fails_on_a_cycle_with_two_sources(i23):
    # the 4-cycle a -> b <- c -> d <- a: two sources and two sinks in one
    # acyclic component
    g = SLabeledDigraph(i23, ["a", "b", "c", "d"], [
        ("a", "b", "s", SOLID), ("c", "b", "t", SOLID),
        ("c", "d", "s", SOLID), ("a", "d", "t", SOLID)])
    report = theorem_checkers(g)
    assert report.source_sink == {
        "status": "fail", "unique_per_component": False,
        "finite_has_both": False, "acyclic": True,
        "counts_match_components": False}
    assert report.wgraph_obstruction == {"status": "not-applicable"}


def test_theorems_over_an_infinite_order_are_not_applicable():
    g = build_family(CoxeterSystem.dihedral(inf), FamilySpec(7, 1))
    report = theorem_checkers(g)
    assert report.source_sink == {"status": "not-applicable",
                                  "reason": "some order is infinite"}
    assert report.index_bound == report.vertex_bound == {
        "status": "not-applicable", "reason": "infinite group"}
    assert report.wgraph_obstruction == {"status": "not-applicable"}


def test_wgraph_obstruction_fires_on_cycle():
    report = theorem_checkers(build_example("affine_a2_cycle"))
    obstruction = report.wgraph_obstruction
    assert obstruction["status"] == "fires"
    assert obstruction["evidence"]["sinks"] == 0
    assert obstruction["evidence"]["dim_sgn"] == 0
    assert obstruction["evidence"]["n_in_empty"] == 0
    assert obstruction["evidence"]["n_in_full"] == 0


def test_obstruction_evidence_counts_incoming_label_sets():
    # on a digraph that passes the structure gate a vertex's incoming-label
    # set is empty exactly at a source and full exactly at a sink, so the
    # evidence reads the analysis' counts; checked against the edge scan
    rng = random.Random(2718)
    inputs = [*group_digraphs(),
              *((name, build_example(name)) for name in EXAMPLE_NAMES)]
    for k in range(120):
        system = make_a3() if k % 3 == 2 else _DIHEDRAL[2 + k % 5]
        inputs.append((f"random #{k}", random_labeled_digraph(
            rng, system, rng.choice([2, 4, 6, 8, 10]))))
    fired = 0
    for label, g in inputs:
        counts = descent_counts(g)
        empty = counts.get(frozenset(), 0)
        full = counts.get(frozenset(g.system.generators), 0)
        analysis = g.analyze()
        assert (analysis.n_sources, analysis.n_sinks) == (empty, full), label
        obstruction = theorem_checkers(g).wgraph_obstruction
        if obstruction["status"] == "fires":
            evidence = obstruction["evidence"]
            assert (evidence["n_in_empty"], evidence["n_in_full"]) \
                == (empty, full), label
            fired += 1
    assert fired > 20


def structurally_broken_digraphs():
    """A loop digraph, and a disconnected digraph over I2(3) on a, b, c, d
    with a -> b labeled s and c -> d labeled t, which breaks the count
    rule at every vertex."""
    yield "I2(3) with loops", i2_3_with_loops()
    yield "disconnected", SLabeledDigraph(_DIHEDRAL[3], list("abcd"), [
        ("a", "b", "s", SOLID), ("c", "d", "t", SOLID)])


def test_every_pairing_reader_raises_the_first_structure_line():
    # `coded_pairing` is the one structure gate: each reader of the pairing
    # raises its first `validate_structure` line before computing anything,
    # on a loop as on a count violation, connected or not
    fixture = build_family(_DIHEDRAL[3], FamilySpec(1, 3))
    s = _DIHEDRAL[3].element("s")
    readers = [
        ModuleRep, linear_char_dims, bar_from_source, theorem_checkers,
        lambda g: reversal_identities(g, [s]),
        lambda g: zero_hecke_action(g, s, g.vertices[0]),
        lambda g: g.labeled_isomorphic(g),
        lambda g: g.labeled_isomorphic(fixture),
        lambda g: fixture.labeled_isomorphic(g),
        lambda g: g.cycle_words(0, 1),
    ]
    for label, g in structurally_broken_digraphs():
        assert g.validate_structure(), label
        for reader in readers:
            assert_refused(reader, g)


def test_h3_character_not_self_associated(h3):
    g = build_example("h3_nonselfassoc")
    rep = ModuleRep(g)
    w0 = h3.longest_element()
    chi_w0 = eval_at(rep.character(w0), 1)
    assert chi_w0 == -4
    eps = (-1) ** w0.length
    assert chi_w0 != eps * chi_w0
    assert eval_at(rep.character(h3.identity()), 1) == 6


def test_two_generator_eigenspace_is_all_ones(i23):
    # requiring eigenvalue u^2 for both generators on a connected component
    # forces the all-ones vector
    g = build_family(i23, FamilySpec(2, 3))
    rep = ModuleRep(g)
    mats = [rep.tau_matrix("s"), rep.tau_matrix("t")]
    basis = solve_simultaneous_eigenspace(mats, [U2, U2])
    assert len(basis) == 1
    v = basis[0]
    scale = v[0]
    assert all(c == scale for c in v)


# -- the block-structured paths against the dense reference ---------------------------------
#
# The reference functions below are the dense implementations that
# `linear_char_dims` and `reversal_identities` replaced: Gaussian elimination
# over the n x n generator matrices, a directed BFS from each source on
# component copies, and n x n matrices for both identities.

def dense_linear_char_dims(g):
    """(dim_ind, dim_sgn) by simultaneous eigenspaces of the dense generator
    matrices."""
    rep = ModuleRep(g)
    mats = [rep.tau_matrix(s) for s in range(g.system.rank())]
    dim_ind = len(solve_simultaneous_eigenspace(mats, [U2] * len(mats),
                                                dim=rep.n))
    dim_sgn = len(solve_simultaneous_eigenspace(mats, [rf(-1)] * len(mats),
                                                dim=rep.n))
    return dim_ind, dim_sgn


def source_bfs_weights(g):
    """-1/u^2 per solid and -(u+1)/(u^2-u) per dashed edge, multiplied along
    a directed BFS from each component's source; None without a unique
    source, on a cyclic component or on inconsistent products."""
    weights = {}
    w_solid = rf(-1, [0, 0, 1])
    w_dashed = rf([-1, -1], [0, -1, 1])
    for comp in g.analyze().components:
        if len(comp.sources) != 1 or not comp.acyclic:
            return None
        src = comp.sources[0]
        weights[src] = RF_ONE
        sub = subgraph(g, comp.vertices)
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for e in out_edges(sub, v):
                candidate = weights[v] * (w_solid if e.style == SOLID else w_dashed)
                if e.dst in weights:
                    if weights[e.dst] != candidate:
                        return None
                else:
                    weights[e.dst] = candidate
                    queue.append(e.dst)
    return weights


def subgraph_sign_diagonal(g):
    """(-1)^(distance from the component source), read on component copies."""
    signs = [None] * len(g.vertices)
    for comp in g.analyze().components:
        if len(comp.sources) != 1 or not comp.acyclic:
            return None
        sub = subgraph(g, comp.vertices)
        for v in comp.vertices:
            mu = path_length_mu(sub, comp.sources[0], v)
            if mu is None:
                return None
            signs[g.vertex_index[v]] = -1 if mu % 2 else 1
    return signs


def test_sign_diagonal_matches_per_vertex_reference():
    inputs = [*reversal_inputs(), ("regular_b4", build_regular(CoxeterSystem(
        ["q", "r", "s", "t"], {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 4})))]
    for label, g in inputs:
        assert _sign_diagonal(g) == subgraph_sign_diagonal(g), label
    assert _sign_diagonal(build_example("affine_a2_cycle")) is None


def dense_reversal_identities(g, words):
    """Both reversal identities on dense matrices, as (word, twist matrix,
    twist trace, sign matrix, sign trace, skipped) tuples."""
    rep = ModuleRep(g)
    rev = ModuleRep(g.reverse())
    signs = subgraph_sign_diagonal(g)
    out = []
    for w in words:
        lhs = rev.rho(w)
        rhs1 = apply_entrywise(rep.rho_inv(w.inverse()), sigma)
        row = [str(w), lhs == rhs1, lhs.trace() == rhs1.trace()]
        if signs is None:
            row += [None, None, "sign identity needs acyclic components with sources"]
        else:
            uw = RF_U ** (2 * w.length)
            inner = rep.rho_inv(w)
            conj = RatMatrix([[inner.rows[i][j] if signs[i] == signs[j]
                               else -inner.rows[i][j]
                               for j in range(rep.n)] for i in range(rep.n)])
            rhs2 = RatMatrix([list(col) for col in zip(*conj.rows)]).scale(
                -uw if w.length % 2 else uw)
            row += [lhs == rhs2, lhs.trace() == rhs2.trace(), None]
        out.append(tuple(row))
    return out


_DIHEDRAL = {n: CoxeterSystem.dihedral(n) for n in range(2, 8)}


def loop_digraph():
    """A figure-1 component beside one carrying a t-loop at each vertex:
    `reverse` turns it round, and every reader of the pairing refuses it."""
    i22 = _DIHEDRAL[2]
    fig1 = build_family(i22, FamilySpec(1, 2))
    looped = SLabeledDigraph(i22, ["x", "y"], [
        ("x", "y", "s", SOLID), ("x", "x", "t", SOLID), ("y", "y", "t", DASHED)])
    return disjoint_union(fig1, looped, suffixes=("", "_loop"))


def eigenspace_inputs():
    """The examples, LV and regular A3 and B3, the template grid over
    I2(2..7), random two- and three-label digraphs, and a loop digraph."""
    a3, b3 = make_a3(), make_b3()
    for name in EXAMPLE_NAMES:
        yield name, build_example(name)
    yield "lv_a3", _lv(a3)
    yield "regular_a3", build_regular(a3)
    yield "lv_b3", _lv(b3)
    yield "regular_b3", build_regular(b3)
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4, 5]):
            for n in range(2, 8):
                yield f"figure {figure} m={m} n={n}", build_family(
                    _DIHEDRAL[n], FamilySpec(figure, m))
    rng = random.Random(8128)
    for k in range(120):
        g0 = random_labeled_digraph(rng, _DIHEDRAL[3],
                                    rng.choice([2, 4, 6, 8, 10, 12]))
        yield f"two-label #{k}", SLabeledDigraph(
            _DIHEDRAL[rng.choice([2, 3, 4, 5, 6])], g0.vertices, g0.edges)
    for k in range(120):
        yield f"A3 #{k}", random_labeled_digraph(rng, a3, 2 * (k % 5 + 1))
    yield "loop", loop_digraph()


def test_linear_char_dims_matches_dense_reference():
    seen = Counter()
    for label, g in eigenspace_inputs():
        if g.validate_structure():
            assert_refused(linear_char_dims, g)
            seen["refused"] += 1
            continue
        dims = linear_char_dims(g)
        assert (dims.dim_ind, dims.dim_sgn) == dense_linear_char_dims(g), label
        # the sign eigenvector, 1 at each source, exists iff every component
        # has one source and carries the sign character
        weights = source_bfs_weights(g)
        one_source = all(len(c.sources) == 1 for c in g.analyze().components)
        assert (weights is not None) == (
            one_source and dims.dim_sgn == dims.predicted_ind), label
        seen["weights" if weights is not None else "no weights"] += 1
        seen["sgn below prediction"] += dims.dim_sgn < dims.predicted_sgn
    assert seen["refused"] == 1
    assert seen["weights"] > 100 and seen["no weights"] > 100
    assert seen["sgn below prediction"] > 10


# -- the eigenlines on level pairs against the RatFunc walk they replaced ---------------------


def ratfunc_eigenline_ratios(lam):
    """v[partner] / v[i] on the lam-eigenline of a block, keyed by the (role,
    style) of vertex i, from the block's first row."""
    ratios = {}
    for style in (SOLID, DASHED):
        tail_self = RatFunc(_TAU_CASES[("tail", style)][0] or P_ZERO)
        r = (lam - tail_self) / RatFunc(_TAU_CASES[("head", style)][1])
        ratios[("tail", style)] = r
        ratios[("head", style)] = r.inverse()
    return ratios


def ratfunc_eigenline(pairing, start, ratios):
    """The simultaneous eigenvector on start's component that is 1 at start,
    multiplied out in `RatFunc` along a BFS, or None if the component
    carries none (ratios disagree around a circuit)."""
    values = {start: RF_ONE}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for row in pairing:
            partner, role, style = row[i]
            value = values[i] * ratios[(role, style)]
            known = values.get(partner)
            if known is None:
                values[partner] = value
                queue.append(partner)
            elif known != value:
                return None
    return values


def ratfunc_linear_char_dims(g):
    """`linear_char_dims` by the `RatFunc` eigenline walk it replaced: each
    component walked once per character, from its source when it has
    exactly one."""
    pairing = edge_pairing(g)
    analysis = g.analyze()
    starts = [g.vertex_index[c.sources[0] if len(c.sources) == 1
                             else c.vertices[0]]
              for c in analysis.components]
    ind = [ratfunc_eigenline(pairing, i, ratfunc_eigenline_ratios(U2))
           for i in starts]
    sgn = [ratfunc_eigenline(pairing, i, ratfunc_eigenline_ratios(-RF_ONE))
           for i in starts]
    return LinearCharacterDims(
        dim_ind=sum(values is not None for values in ind),
        dim_sgn=sum(values is not None for values in sgn),
        predicted_ind=analysis.n_components,
        predicted_sgn=analysis.n_acyclic)


def random_looped_digraph(rng, system, n_vertices):
    """One random involution of the vertices per generator: each fixed point
    a loop, each swapped pair one edge, of random direction and style."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for label in system.generators:
        rest = list(vertices)
        rng.shuffle(rest)
        while rest:
            a = rest.pop()
            b = a if not rest or rng.random() < 0.2 else rest.pop()
            if rng.random() < 0.5:
                a, b = b, a
            edges.append((a, b, label, SOLID if rng.random() < 0.5 else DASHED))
    return SLabeledDigraph(system, vertices, edges)


def eigenline_inputs():
    """`eigenspace_inputs`, plus the one module fixture it lacks, seeded
    random digraphs with loops over I2(2..6) and A3, and the LV and regular
    digraphs of H3 and B4 and the LV digraph of F4."""
    yield from eigenspace_inputs()
    yield "lv_a3_flip", _lv_a3_flip()
    rng = random.Random(1729)
    a3 = make_a3()
    for k in range(200):
        system = a3 if k % 3 == 2 else _DIHEDRAL[rng.choice([2, 3, 4, 5, 6])]
        yield f"looped #{k}", random_looped_digraph(rng, system,
                                                    rng.randint(1, 12))
    for name, orders in [("H3", GROUP_ORDERS["H3"]),
                         ("B4", GROUP_ORDERS["B4"]),
                         ("F4", {("q", "r"): 3, ("r", "s"): 4, ("s", "t"): 3})]:
        system = CoxeterSystem(sorted({x for pair in orders for x in pair}),
                               orders)
        yield f"lv {name}", _lv(system)
        if name != "F4":
            yield f"regular {name}", build_regular(system)


def test_linear_char_dims_matches_ratfunc_eigenline_reference():
    seen = Counter()
    for label, g in eigenline_inputs():
        if g.validate_structure():
            assert_refused(linear_char_dims, g)
            seen["loop"] += 1
            continue
        dims = linear_char_dims(g)
        assert dims == ratfunc_linear_char_dims(g), label
        seen["sgn on every component" if dims.dim_sgn == dims.predicted_ind
             else "sgn fails somewhere"] += 1
        seen["sgn fails, ind holds"] += dims.dim_sgn < dims.dim_ind
    assert (seen["sgn on every component"] > 100
            and seen["sgn fails somewhere"] > 100)
    assert seen["sgn fails, ind holds"] > 50 and seen["loop"] > 50


def reversal_inputs():
    """The modules benchmark fixtures, and the figure 1-6 templates that I2(2)
    rejects, where the braid relation and so the identities may fail."""
    a3, b3 = make_a3(), make_b3()
    yield "lv_a3", _lv(a3)
    yield "lv_a3_flip", _lv_a3_flip()
    yield "lv_b3", _lv(b3)
    yield "regular_a3", build_regular(a3)
    for name in ("h3_nonselfassoc", "b3_no_bar", "affine_a2_cycle"):
        yield name, build_example(name)
    for figure in range(1, 7):
        for m in (2, 3):
            if not family_divisibility_ok(figure, m, 2):
                yield f"figure {figure} m={m} n=2", build_family(
                    _DIHEDRAL[2], FamilySpec(figure, m))


def reversed_rows(g):
    """The rows of `g.reverse()` as `conftest.edge_pairing` views them, read
    past the structure gate: `reverse` still turns a loop digraph round."""
    return [[(p, *CODE_ENDS[c]) for p, c in zip(partners, codes)]
            for partners, codes in g.reverse()._rows]


def test_reversed_pairing_is_the_pairing_of_the_reversed_digraph():
    # the byte translation `reverse()` turns the code rows round by,
    # against the pairing of the turned-round `Edge` tuples
    rng = random.Random(3141)
    inputs = [*reversal_inputs(), ("loop", loop_digraph())]
    for k in range(100):
        nv = rng.choice([2, 4, 6, 8, 10])
        inputs.append((f"two-label #{k}", random_labeled_digraph(
            rng, _DIHEDRAL[rng.choice([2, 3, 4, 5])], nv)))
    for label, g in inputs:
        turned = TupleDigraph(g.system, g.vertices, g.edges).reverse()
        assert reversed_rows(g) == turned.edge_pairing(), label
        assert g.reverse().validate_structure() \
            == turned.validate_structure(), label
    # a loop stays its vertex's head
    loop = loop_digraph()
    x = loop.vertex_index["x_loop"]
    assert reversed_rows(loop)[1][x] == (x, "head", SOLID)


def test_reversal_identities_match_dense_reference():
    outcomes = set()
    for label, g in reversal_inputs():
        words = g.system.enumerate(3)
        got = [(r.word, r.twist_matrix, r.twist_trace, r.sign_matrix,
                r.sign_trace, r.skipped) for r in reversal_identities(g, words)]
        assert got == dense_reversal_identities(g, words), label
        outcomes.update(got)
    # the rejected templates fail an identity; the cycle skips the sign one
    assert any(False in row for row in outcomes)
    assert any(row[-1] for row in outcomes)


# -- the reversal identities over Z[u] against the RatFunc identities they
# -- replaced -------------------------------------------------------------------------------------


def ratfunc_reversal_identities(g, words):
    """The reversal identities over Q(u): the twist side is sigma of the
    u^-2 columns of rho(T_{w^-1})^-1, the sign side scales rho(T_w^-1) by
    u_w = u^(2 l(w)).  Same reports as `reversal_identities`."""
    rep = RatFuncOperators(g)
    rev = RatFuncOperators(g.reverse())
    signs = _sign_diagonal(g)

    def rho_cols(r, w):
        return [word_apply(r, w.word, {j: RF_ONE}) for j in range(r.n)]

    def rho_inv_cols(w):
        cols = [{j: RF_ONE} for j in range(rep.n)]
        for s in w.word:
            cols = [rep.apply_inv(s, col) for col in cols]
        return cols

    def trace(cols):
        t = RF_ZERO
        for j, col in enumerate(cols):
            t = t + col.get(j, RF_ZERO)
        return t

    reports = []
    for w in words:
        report = IdentityReport(word=str(w))
        lhs = rho_cols(rev, w)
        twisted = [{i: sigma(c) for i, c in col.items()}
                   for col in rho_inv_cols(w.inverse())]
        report.twist_matrix = lhs == twisted
        report.twist_trace = trace(lhs) == trace(twisted)
        if signs is None:
            report.skipped = "sign identity needs acyclic components with sources"
        else:
            eps = -1 if w.length % 2 else 1
            uw = RF_U ** (2 * w.length)
            flipped = [{} for _ in range(rep.n)]
            for j, col in enumerate(rho_inv_cols(w)):
                for i, c in col.items():
                    scaled = uw * c
                    flipped[i][j] = scaled if signs[i] * signs[j] == eps else -scaled
            report.sign_matrix = lhs == flipped
            report.sign_trace = trace(lhs) == trace(flipped)
        reports.append(report)
    return reports


def test_reversal_identities_match_ratfunc_reference_on_fixtures():
    # the seven modules benchmark fixtures, the words up to length 3 and the
    # longest element of a finite group
    fixtures = [(label, g) for label, g in reversal_inputs()
                if not label.startswith("figure")]
    assert len(fixtures) == 7
    for label, g in fixtures:
        words = g.system.enumerate(3)
        if g.system.is_finite():
            words.append(g.system.longest_element())
        assert reversal_identities(g, words) == \
            ratfunc_reversal_identities(g, words), label


def _twist(p: Poly, top: int) -> Poly:
    """u^top sigma(p), sigma the substitution u -> -1/u, for p of degree at
    most top: the coefficient reversal sum (-1)^k c_k u^(top-k) of
    p = sum c_k u^k."""
    cs = p.coeffs
    return Poly([0] * (top + 1 - len(cs))
                + [-c if k % 2 else c for k, c in enumerate(cs)][::-1])


def zu_reversal_identities(g, words):
    """The reversal identities on sparse Z[u] columns, as `reversal_identities`
    computed them before it moved to one integer point: the twist side is
    the coefficient reversal `_twist` of S_{w^-1}, the sign side S_w."""
    rev = ModuleRep(g.reverse())
    s_table = _table(g.coded_pairing(), _S_CASES)
    n = len(g.vertices)
    signs = _sign_diagonal(g)
    reports = []
    for w in words:
        report = IdentityReport(word=str(w))
        lhs = rev._rho_columns(w)
        top = 2 * w.length
        s_cols = _word_columns(s_table, w.inverse().word, n)
        twisted = [{i: _twist(c, top) for i, c in col.items()}
                   for col in s_cols]
        report.twist_matrix = lhs == twisted
        report.twist_trace = _trace(lhs) == _twist(_trace(s_cols), top)
        if signs is None:
            report.skipped = "sign identity needs acyclic components with sources"
        else:
            eps = -1 if w.length % 2 else 1
            flipped = [{} for _ in range(n)]
            for j, col in enumerate(_word_columns(s_table, w.word, n)):
                for i, c in col.items():
                    flipped[i][j] = c if signs[i] * signs[j] == eps else -c
            report.sign_matrix = lhs == flipped
            report.sign_trace = _trace(lhs) == _trace(flipped)
        reports.append(report)
    return reports


def test_reversal_identities_match_zu_reference_on_fixtures():
    # the seven modules benchmark fixtures, the words up to length 4 and the
    # longest element of a finite group
    fixtures = [(label, g) for label, g in reversal_inputs()
                if not label.startswith("figure")]
    assert len(fixtures) == 7
    outcomes = Counter()
    for label, g in fixtures:
        words = g.system.enumerate(4)
        if g.system.is_finite():
            words.append(g.system.longest_element())
        reports = reversal_identities(g, words)
        assert reports == zu_reversal_identities(g, words), label
        outcomes.update(r.skipped is None for r in reports)
    assert outcomes[True] and outcomes[False]


def test_integer_point_premises():
    # every column of the three tables the identities multiply has
    # coefficient L1 norm at most 5, the premise of `_exact_bits` ...
    for cases in (_TAU_CASES, _S_CASES, _TWISTED_S_CASES):
        for case in cases.values():
            assert all(c is None or isinstance(c, Poly) for c in case)
            assert sum(abs(x) for c in case if c is not None
                       for x in c.coeffs) <= 5
    # ... and the twisted table is u^2 sigma(S_s), computed over Q(u)
    for key, case in _S_CASES.items():
        for got, c in zip(_TWISTED_S_CASES[key], case):
            if c is None:
                assert got is None
            else:
                assert RatFunc(got) == U2 * sigma(RatFunc(c)), key


def test_reversal_identities_match_ratfunc_reference_on_random_digraphs():
    rng = random.Random(2718)
    seen = Counter()
    for n in range(2, 7):
        for _ in range(60):
            g = random_labeled_digraph(rng, _DIHEDRAL[n],
                                       rng.choice([2, 4, 6, 8]))
            words = g.system.enumerate(2 * n)
            reports = reversal_identities(g, words)
            assert reports == ratfunc_reversal_identities(g, words)
            assert reports == zu_reversal_identities(g, words)
            seen["cases"] += len(reports)
            seen["twist fails"] += sum(not r.twist_matrix for r in reports)
            seen["sign checked"] += sum(r.skipped is None for r in reports)
    assert seen["cases"] == 2400
    assert seen["twist fails"] > 100 and seen["sign checked"] > 100


def test_twisted_s_table_is_the_reversed_tau_table():
    # lemma 1 of `reversal_identities`: u^2 sigma(S_s) reads, at each end of
    # an edge, the tau_s case of the other role, that end's role once the
    # edge is turned round
    turned = {"tail": "head", "head": "tail"}
    assert len(_TWISTED_S_CASES) == 4
    for (role, style), case in _TWISTED_S_CASES.items():
        assert case == _TAU_CASES[(turned[role], style)], (role, style)


@pytest.mark.parametrize("style", [SOLID, DASHED])
@pytest.mark.parametrize("ends", [("x", "y"), ("y", "x")])
def test_sign_factor_is_the_reversed_tau_block_iff_parities_differ(style, ends):
    # lemma 2 of `reversal_identities`, over Q(u): on the block of one
    # s-edge, -D S_s^T D equals the reversed digraph's tau_s exactly when
    # D_x D_y = -1, and its diagonal always does
    a1 = CoxeterSystem(["s"], {})
    g = SLabeledDigraph(a1, ["x", "y"], [(*ends, "s", style)])
    s_block = ModuleRep(g).rho_inv(a1.gen("s")).scale(U2)
    rev_tau = ModuleRep(g.reverse()).tau_matrix("s")
    for d in itertools.product([1, -1], repeat=2):
        factor = RatMatrix([[s_block[j, i] if d[i] * d[j] == -1
                             else -s_block[j, i] for j in range(2)]
                            for i in range(2)])
        assert (factor == rev_tau) == (d[0] * d[1] == -1), d
        assert all(factor[i, i] == rev_tau[i, i] for i in range(2)), d


def count_calls(monkeypatch, name):
    """Wrap the modrep function `name` to log each call's arguments."""
    real, calls = getattr(modrep, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(modrep, name, counted)
    return calls


def letters_join_opposite_parities(g, w, signs):
    """Whether every edge labeled by a letter of w joins ends whose
    source-distance signs differ, read off the `Edge` list."""
    labels = {g.system.generators[s] for s in w.word}
    index = g.vertex_index
    return all(signs[index[e.src]] != signs[index[e.dst]]
               for e in g.edges if e.label in labels)


def test_reversal_identities_multiply_only_what_the_lemmas_leave_open(
        monkeypatch):
    # on the seven modules fixtures and their words up to length 3, no
    # product is taken where the two reduced words of w^-1 coincide and
    # the sign side is skipped or settled letter by letter, and one is
    # where the words differ
    calls = count_calls(monkeypatch, "_word_columns")
    seen = Counter()
    for label, g in reversal_inputs():
        if label.startswith("figure"):
            continue
        signs = _sign_diagonal(g)
        for w in g.system.enumerate(3):
            calls.clear()
            reversal_identities(g, [w])
            same_words = w.word[::-1] == w.inverse().word
            settled = signs is None or letters_join_opposite_parities(g, w,
                                                                      signs)
            if same_words and settled:
                assert not calls, (label, str(w))
                seen["no product"] += 1
            if not same_words:
                assert calls, (label, str(w))
                seen["twist products"] += 1
    assert seen["no product"] > 50 and seen["twist products"] > 10


def rank3_parity_digraphs():
    """The digraph on 0..3 with r: 0 -> 1, 2 -> 3; s: 0 -> 2, 1 -> 3; t:
    0 -> 3, 1 -> 2, over A1^3, A3 and B3, with each label's style solid or
    dashed.  Its one source is 0, and each label has an edge whose ends
    have the same source-distance parity (2 -> 3, 1 -> 3, 1 -> 2)."""
    arrows = {"r": [(0, 1), (2, 3)], "s": [(0, 2), (1, 3)],
              "t": [(0, 3), (1, 2)]}
    systems = {"A1^3": CoxeterSystem(["r", "s", "t"], {}),
               "A3": make_a3(), "B3": make_b3()}
    for name, system in systems.items():
        assert system.generators == ("r", "s", "t")
        for styles in itertools.product([SOLID, DASHED], repeat=3):
            edges = [(str(a), str(b), label, style)
                     for (label, pairs), style in zip(arrows.items(), styles)
                     for a, b in pairs]
            yield f"{name} {styles}", SLabeledDigraph(
                system, ["0", "1", "2", "3"], edges)


def test_reversal_identities_compute_the_sign_side_on_equal_parities(
        monkeypatch):
    # the products the sign lemma leaves open, against all three references
    calls = count_calls(monkeypatch, "_columns_at")
    seen = Counter()
    for label, g in rank3_parity_digraphs():
        assert _sign_diagonal(g) == [1, -1, -1, -1], label
        words = g.system.enumerate(3)
        for w in words:
            calls.clear()
            (report,) = reversal_identities(g, [w])
            computed = any(cases is _S_CASES for _, cases, _, _ in calls)
            assert computed == (w.length > 0), (label, str(w))
            if computed:
                seen[(report.sign_matrix, report.sign_trace)] += 1
        reports = reversal_identities(g, words)
        rows = [(r.word, r.twist_matrix, r.twist_trace, r.sign_matrix,
                 r.sign_trace, r.skipped) for r in reports]
        assert rows == dense_reversal_identities(g, words), label
        assert reports == ratfunc_reversal_identities(g, words), label
        assert reports == zu_reversal_identities(g, words), label
    # both trace verdicts where the matrices differ
    assert seen[False, True] and seen[False, False]
    # over A1^3, all solid, the one-letter word r: the matrices differ and
    # their traces agree
    g = next(rank3_parity_digraphs())[1]
    (report,) = reversal_identities(g, [g.system.element("r")])
    assert (report.sign_matrix, report.sign_trace) == (False, True)


def test_twist_is_sigma_times_a_power_of_u():
    # the S_s coefficients have degree <= 2, so the entries of S_w have
    # degree <= 2 l(w), the range in which `_twist` is exact
    assert max(c.degree for case in _S_CASES.values() for c in case
               if c is not None) == 2
    rng = random.Random(161)
    for _ in range(300):
        p = Poly([rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(rng.randint(0, 9))])
        top = rng.randint(p.degree or 0, 12)
        got = _twist(p, top)
        assert isinstance(got, Poly)
        assert RatFunc(got) == RF_U ** top * sigma(RatFunc(p))
