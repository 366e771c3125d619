"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact: no tolerances anywhere.
"""

import random

import pytest

from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism
from wdigraph.digraph import DASHED, SOLID, Edge, SLabeledDigraph
from wdigraph.exactalg import (RF_ONE, RF_U, RF_ZERO, RatFunc, char_poly,
                               poly_p, rf, sigma)
from wdigraph.families import (FamilySpec, build_family, build_lv,
                               build_example, build_regular,
                               family_divisibility_ok)
from wdigraph.hecke import (Dihedral, HeckeElt, dihedral_case_basis,
                            invert_Tw, supports_digraph)
from wdigraph.modrep import (ModuleRep, bar_from_source, linear_char_dims,
                             reversal_identities, theorem_checkers,
                             zero_hecke_action)
from wdigraph.validator import brute_force_check, is_w_digraph

from conftest import (RatFuncOperators, apply_entrywise, disjoint_union,
                      eval_at, lampoly_mul, left_mult_gen, make_a3, make_b3,
                      make_h3, random_labeled_digraph, reachable_from)

RANDOM_SEED = 987654321
S, D = SOLID, DASHED


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


# -- shared fixture digraphs -------------------------------------------------------------

_dihedral_cache = {}


def dihedral(n):
    if n not in _dihedral_cache:
        _dihedral_cache[n] = CoxeterSystem.dihedral(n)
    return _dihedral_cache[n]


@pytest.fixture(scope="module")
def fixtures():
    """Name -> digraph registry used by criteria 7-11."""
    a3, b3 = make_a3(), make_b3()
    fig1 = build_family(dihedral(2), FamilySpec(1, 2))
    fig7 = build_family(dihedral(5), FamilySpec(7, 1))
    out = {
        "fig1_m2": fig1,
        "fig2_m3": build_family(dihedral(3), FamilySpec(2, 3)),
        "fig3_m2": build_family(dihedral(4), FamilySpec(3, 2)),
        "fig4_m2": build_family(dihedral(3), FamilySpec(4, 2)),
        "fig5_m3": build_family(dihedral(5), FamilySpec(5, 3)),
        "fig6_m3": build_family(dihedral(4), FamilySpec(6, 3)),
        "fig7": fig7,
        "fig8": build_family(dihedral(3), FamilySpec(8, 1)),
        "lv_a3_id": build_lv(a3, DiagramAutomorphism.identity(a3)),
        "lv_a3_flip": build_lv(
            a3, DiagramAutomorphism.from_mapping(a3, {"r": "t", "t": "r"})),
        "lv_b3": build_lv(b3, DiagramAutomorphism.identity(b3)),
        "regular_a3": build_regular(a3),
        "ex_fig2": build_example("ex_fig2"),
        "h3_fixture": build_example("h3_nonselfassoc"),
        "b3_no_bar": build_example("b3_no_bar"),
        "union_fig1_fig1": disjoint_union(fig1, fig1),
        "union_fig7_fig7": disjoint_union(fig7, fig7),
        "affine_a2_cycle": build_example("affine_a2_cycle"),
    }
    return out


def acyclic_names(fixtures):
    return [name for name in fixtures if name != "affine_a2_cycle"]


# -- criterion 1: classification <=> oracle ----------------------------------------------------


def test_criterion_01_classification_equals_oracle():
    grid_cases = 0
    for figure in range(1, 9):
        ms = [1] if figure in (7, 8) else [2, 3, 4, 5]
        for m in ms:
            spec = FamilySpec(figure, m)
            for n in range(2, 11):
                g = build_family(dihedral(n), spec)
                expected = family_divisibility_ok(figure, m, n)
                assert is_w_digraph(g).is_w_digraph == expected, (figure, m, n)
                assert (brute_force_check(g) is None) == expected, (figure, m, n)
                grid_cases += 1
    rng = random.Random(RANDOM_SEED)
    random_cases = 0
    for _ in range(200):
        nv = rng.choice([2, 4, 6, 8, 10, 12])
        g0 = random_labeled_digraph(rng, dihedral(3), nv)
        for n in range(2, 7):
            g = SLabeledDigraph(dihedral(n), g0.vertices, g0.edges)
            assert (is_w_digraph(g).is_w_digraph
                    == (brute_force_check(g) is None)), (nv, n)
            random_cases += 1
    report(1, f"deciders agree on {grid_cases} template cases and "
              f"{random_cases} seeded random cases")


# -- criterion 2: the inverse expansion --------------------------------------------------------


def test_criterion_02_inverse_expansion():
    checked = 0
    for n in range(2, 8):
        system = dihedral(n)
        elements = system.enumerate()
        for y in elements:
            lhs = invert_Tw(y.inverse()).scale(RF_U ** (2 * y.length))
            rhs = HeckeElt.T(y)
            for x in elements:
                if x != y and system.bruhat_leq(x, y):
                    rhs = rhs + HeckeElt.T(x).scale(
                        RatFunc(poly_p(y.length - x.length)))
            assert lhs == rhs, (n, str(y))
            checked += 1
    report(2, f"inverse expansion exact for {checked} elements, n = 2..7")


# -- criterion 3: the dihedral multiplication lemmas ---------------------------------------------


def test_criterion_03_dihedral_lemmas():
    checked = 0
    for n in range(2, 8):
        system = dihedral(n)
        dd = Dihedral(system, "s", "t")
        for j in range(0, n + 1):
            for k in range(j, n - j + 1):
                for word_of in (dd.word_s, dd.word_t):
                    tk = HeckeElt.T(word_of(k).inverse())
                    if j > 0:
                        lhs = tk * dd.phi(j)
                        rhs = (HeckeElt.T(word_of(k - j).inverse())
                               .scale(RF_U ** (2 * j))
                               + HeckeElt.T(word_of(k + j).inverse()))
                        assert lhs == rhs, ("phi", n, j, k)
                        checked += 1
                    for family, scalar, step in (
                            (dd.eta, RF_U, 1),
                            (dd.gamma, -RF_U, 1),
                            (dd.delta, RF_U * RF_U, 2)):
                        lhs = tk * family(j)
                        rhs = HeckeElt.zero(system)
                        upper = 2 * j if step == 1 else j
                        for i in range(upper + 1):
                            rhs = rhs + HeckeElt.T(
                                word_of(k + j - step * i).inverse()
                            ).scale(scalar ** i)
                        assert lhs == rhs, (family.__name__, n, j, k)
                        checked += 1
    report(3, f"dihedral lemmas exact in {checked} instances, n = 2..7")


# -- criterion 4: the case identities and supported digraphs -----------------------------------


def alternating_sum(system, n):
    """sum over the parabolic of (-u)^(n - length) T_w."""
    out = HeckeElt.zero(system)
    for w in system.enumerate():
        out = out + HeckeElt.T(w).scale((-RF_U) ** (n - w.length))
    return out


def test_criterion_04_case_identities_and_supports():
    checked = 0
    # reflected chains close up (the two routes agree) for figures 1-3
    for figure in (1, 2, 3):
        for n in range(2, 8):
            system = dihedral(n)
            X = dihedral_case_basis(system, "s", "t", figure, n)
            assert len(X) == 2 * n
            if figure == 2:
                # the common closing element is (u+1)^{-1}(T_{t_n} - u T_{t_{n-1}})
                dd = Dihedral(system, "s", "t")
                closing = (HeckeElt.T(dd.word_t(n))
                           - HeckeElt.T(dd.word_t(n - 1)).scale(RF_U))
                assert X[-1] == closing.scale(rf(1, [1, 1])), ("case2", n)
            checked += 1
    # explicit closing identities for figures 4-6
    for n in (3, 5, 7):
        system = dihedral(n)
        dd = Dihedral(system, "s", "t")
        m = (n + 1) // 2
        eta = dd.eta(m - 1)
        lhs = (HeckeElt.T(dd.word_t(m - 1))
               * (left_mult_gen(eta, "s") - eta.scale(RF_U)))
        rhs = (HeckeElt.T(system.longest_element())
               - HeckeElt.one(system).scale(RF_U ** n))
        assert lhs == rhs, ("case4", n)
        gamma = dd.gamma(m - 1)
        tprime = "t" if m % 2 == 0 else "s"
        inner = HeckeElt.T(dd.word_s(m - 1)) * gamma
        lhs5 = left_mult_gen(inner, tprime) - inner.scale(RF_U)
        assert lhs5 == alternating_sum(system, n), ("case5", n)
        # the chain closing elements of figures 4 and 5
        one_over = rf(1, [1, 1])
        assert dihedral_case_basis(system, "s", "t", 4, m)[-1] == \
            rhs.scale(one_over), ("case4 closing", n)
        assert dihedral_case_basis(system, "s", "t", 5, m)[-1] == \
            alternating_sum(system, n).scale(one_over), ("case5 closing", n)
        checked += 2
    for n in (2, 4, 6):
        system = dihedral(n)
        dd = Dihedral(system, "s", "t")
        m = (n + 2) // 2
        delta = dd.delta(m - 2)
        step1 = left_mult_gen(delta, "s") - delta.scale(RF_U)
        step2 = HeckeElt.T(dd.word_t(m - 2)) * step1
        tprime = "t" if m % 2 == 0 else "s"
        lhs6 = left_mult_gen(step2, tprime) - step2.scale(RF_U)
        assert lhs6 == alternating_sum(system, n), ("case6", n)
        assert dihedral_case_basis(system, "s", "t", 6, m)[-1] == \
            alternating_sum(system, n).scale(rf(1, [1, 2, 1])), \
            ("case6 closing", n)
        checked += 1
    # every chain basis supports its own template, up to labeled isomorphism
    supports_cases = []
    for n in range(2, 8):
        supports_cases += [(1, n, n), (2, n, n), (3, n, n)]
    supports_cases += [(4, (n + 1) // 2, n) for n in (3, 5, 7)]
    supports_cases += [(5, (n + 1) // 2, n) for n in (3, 5, 7)]
    supports_cases += [(6, (n + 2) // 2, n) for n in (2, 4, 6)]
    for figure, m, n in supports_cases:
        system = dihedral(n)
        X = dihedral_case_basis(system, "s", "t", figure, m)
        extracted = supports_digraph(X)
        template = build_family(system, FamilySpec(figure, m))
        assert extracted.labeled_isomorphic(template) is not None, (figure, m)
        checked += 1
    report(4, f"case identities and supported digraphs exact in "
              f"{checked} instances")


# -- criterion 5: the two tables ---------------------------------------------------------------


def test_criterion_05_tables():
    from test_modrep import (KAPPA_TABLE, TABLE_POLYS, kappa_coefficient,
                             vertex_config)
    seen = set()
    for figure in range(1, 7):
        for m in range(2, 6):
            n = {1: m, 2: m, 3: m, 4: 2 * m - 1, 5: 2 * m - 1,
                 6: 2 * m - 2}[figure]
            system = dihedral(max(n, 2))
            g = build_family(system, FamilySpec(figure, m))
            rep = ModuleRep(g)
            ops = RatFuncOperators(g)
            for v in g.vertices:
                config = vertex_config(g, v, "s", "t")
                assert kappa_coefficient(ops, g, v) == KAPPA_TABLE[config], \
                    (figure, m, v)
                seen.add(config)
            at1 = apply_entrywise(rep.tau_matrix("s") * rep.tau_matrix("t"),
                                  lambda f: rf(eval_at(f, 1)))
            assert char_poly(at1) == TABLE_POLYS[figure](m), (figure, m)
    assert seen == set(KAPPA_TABLE)
    report(5, "all 16 local trace coefficients and all u=1 characteristic "
              "polynomials match, figures 1-6, m <= 5")


# -- criterion 6: the twisted-involution digraphs ------------------------------------------------

LV_A3_ID_EDGES = [
    ("e", "s", "s", D), ("e", "r", "r", D), ("e", "t", "t", D),
    ("r", "rt", "t", D), ("t", "rt", "r", D),
    ("s", "srs", "r", S), ("r", "srs", "s", S),
    ("s", "sts", "t", S), ("t", "sts", "s", S),
    ("rt", "srts", "s", S),
    ("srts", "w0", "t", S), ("srts", "w0", "r", S),
    ("srs", "rtstr", "t", S), ("sts", "rtstr", "r", S),
    ("rtstr", "w0", "s", D),
]

LV_A3_FLIP_EDGES = [
    ("e", "s", "s", D), ("e", "rt", "r", S), ("e", "rt", "t", S),
    ("rt", "srts", "s", S),
    ("srts", "rsrts", "r", D), ("rst", "rsrts", "s", S),
    ("s", "rst", "r", S),
    ("srts", "tsrts", "t", D), ("tsr", "tsrts", "s", S),
    ("s", "tsr", "t", S),
    ("rsrts", "w0", "t", D), ("tsrts", "w0", "r", D),
    ("rst", "rtstr", "t", S), ("tsr", "rtstr", "r", S),
    ("rtstr", "w0", "s", D),
]

LV_B3_ID_EDGES = [
    ("ststw0", "stsw0", "t", D), ("sts", "ststw0", "r", S),
    ("sts", "stst", "t", D), ("stst", "stsw0", "r", S),
    ("ststw0", "tstw0", "s", D), ("tstw0", "sw0", "t", S),
    ("sw0", "w0", "s", D), ("tw0", "w0", "t", D),
    ("stsw0", "tw0", "s", S), ("t", "sts", "s", S),
    ("e", "t", "t", D), ("e", "s", "s", D),
    ("s", "tst", "t", S), ("tst", "stst", "s", D),
    ("t", "rt", "r", D), ("rtstrw0", "tstw0", "r", S),
    ("rt", "rtstrw0", "s", S), ("r", "rt", "t", D),
    ("e", "r", "r", D), ("r", "srs", "s", S),
    ("s", "srs", "r", S), ("srs", "rtstr", "t", S),
    ("tst", "rtstr", "r", S), ("rtstrw0", "srsw0", "t", S),
    ("srsw0", "sw0", "r", S), ("srsw0", "rw0", "s", S),
    ("rw0", "w0", "r", D), ("rtw0", "rw0", "t", D),
    ("rtw0", "tw0", "r", D), ("rtstr", "rtw0", "s", S),
]


def named_element(system, name):
    """Map a fixture label like 'stsw0' to the group element it denotes."""
    if name == "e":
        return system.identity()
    if name.endswith("w0"):
        prefix = name[:-2]
        return system.element(prefix) * system.longest_element()
    return system.element(name)


def expected_edges(system, raw):
    return sorted(Edge(str(named_element(system, a)),
                       str(named_element(system, b)), label, style)
                  for a, b, label, style in raw)


def test_criterion_06_twisted_involution_digraphs(fixtures):
    a3, b3 = make_a3(), make_b3()
    lv_id = fixtures["lv_a3_id"]
    lv_flip = fixtures["lv_a3_flip"]
    lv_b3 = fixtures["lv_b3"]
    assert len(lv_id.vertices) == 10
    assert len(lv_flip.vertices) == 10
    assert len(lv_b3.vertices) == 20
    for g in (lv_id, lv_flip, lv_b3):
        assert is_w_digraph(g).is_w_digraph
    # exact edge sets against the expected lists
    assert sorted(lv_id.edges) == expected_edges(a3, LV_A3_ID_EDGES)
    assert sorted(lv_flip.edges) == expected_edges(a3, LV_A3_FLIP_EDGES)
    assert sorted(lv_b3.edges) == expected_edges(b3, LV_B3_ID_EDGES)
    # reversal: x -> x w0 carries the reversed identity-twist digraph onto
    # the w0-conjugated one
    w0 = a3.longest_element()
    relabel = {name: str(named_element(a3, name) * w0)
               for name in lv_id.vertices}
    mapped = sorted(Edge(relabel[e.src], relabel[e.dst], e.label, e.style)
                    for e in lv_id.reverse().edges)
    assert mapped == sorted(lv_flip.edges)
    assert lv_b3.reverse().labeled_isomorphic(lv_b3) is not None
    report(6, "vertex counts 10/10/20, acceptance, exact edge sets, "
              "and both reversal isomorphisms")


# -- criterion 7: structure theorems on the finite fixtures ---------------------------------------


def test_criterion_07_structure_theorems(fixtures):
    for name in acyclic_names(fixtures):
        g = fixtures[name]
        analysis = g.analyze()
        for comp in analysis.components:
            assert len(comp.sources) == 1, name
            assert len(comp.sinks) == 1, name
            assert comp.acyclic, name
        assert analysis.n_sources == analysis.n_components == analysis.n_sinks
        assert g.equal_path_lengths_check() is None, name
    # the index bound, subset by subset, on the twisted-involution digraph
    b3 = fixtures["lv_b3"].system
    report_b3 = theorem_checkers(fixtures["lv_b3"])
    assert report_b3.index_bound["status"] == "pass"
    assert len(report_b3.index_bound["per_subset"]) == 8
    for comps, bound in report_b3.index_bound["per_subset"].values():
        assert comps <= bound
    # the vertex bound, attained by the regular digraph
    report_reg = theorem_checkers(fixtures["regular_a3"])
    assert report_reg.vertex_bound["status"] == "pass"
    assert report_reg.vertex_bound["attained"]
    assert len(fixtures["lv_b3"].vertices) <= 48
    report(7, "sources/sinks/acyclicity, index bounds, vertex bound "
              "(attained on the regular digraph), and equal path lengths")


# -- criterion 8: eigenspace dimensions ------------------------------------------------------------


def test_criterion_08_eigenspace_dimensions(fixtures):
    results = {}
    for name, g in fixtures.items():
        dims = linear_char_dims(g)
        assert dims.dim_ind == dims.predicted_ind, name
        assert dims.dim_sgn == dims.predicted_sgn, name
        results[name] = (dims.dim_ind, dims.dim_sgn)
    assert len(results) >= 10
    assert results["affine_a2_cycle"] == (1, 0)
    assert results["union_fig1_fig1"] == (2, 2)
    assert results["union_fig7_fig7"] == (2, 2)
    report(8, f"eigenspace dimensions match component counts on "
              f"{len(results)} fixtures")


# -- criterion 9: reversal identities ---------------------------------------------------------------


def words_for(system):
    out = [w for w in system.enumerate() if w.length <= 4]
    w0 = system.longest_element()
    if w0 not in out:
        out.append(w0)
    return out


def test_criterion_09_reversal_identities(fixtures):
    total = 0
    for name in acyclic_names(fixtures):
        g = fixtures[name]
        for rep in reversal_identities(g, words_for(g.system)):
            assert rep.twist_matrix and rep.twist_trace, (name, rep.word)
            assert rep.skipped is None, (name, rep.word)
            assert rep.sign_matrix and rep.sign_trace, (name, rep.word)
            total += 1
    # the cycle: the twist identity holds, the sign identity fails at the
    # recorded values 2 vs -2
    cyc = fixtures["affine_a2_cycle"]
    system = cyc.system
    y = system.element("rst")
    rep = ModuleRep(cyc)
    rev = ModuleRep(cyc.reverse())
    chi_rev = rev.rho(y).trace()
    assert chi_rev == rf(2)
    assert sigma(rep.rho_elt(invert_Tw(y.inverse())).trace()) == chi_rev
    sign_side = (-RF_U ** 6) * rep.rho_elt(invert_Tw(y)).trace()
    assert sign_side == rf(-2)
    assert chi_rev != sign_side
    report(9, f"both identities exact for {total} (fixture, word) pairs; "
              f"cycle counterexample gives 2 vs -2")


# -- criterion 10: the bar operator and obstruction examples ----------------------------------------


def test_criterion_10_bar_and_obstructions(fixtures):
    cyc = fixtures["affine_a2_cycle"]
    rep = ModuleRep(cyc)
    cp = char_poly(rep.rho(cyc.system.element("rst")))
    u6 = RF_U ** 6
    expected = lampoly_mul(
        lampoly_mul((RF_ONE, RF_ZERO, RF_ONE), (-u6, RF_ZERO, RF_ONE)),
        lampoly_mul((-u6, RF_ONE), (-u6, RF_ONE)))
    assert cp == expected
    sol = bar_from_source(fixtures["b3_no_bar"])
    assert not sol.consistent
    assert sol.witness[0].dst == "v4"
    with pytest.raises(ValueError, match="source"):
        bar_from_source(cyc)
    assert theorem_checkers(cyc).wgraph_obstruction["status"] == "fires"
    h3 = fixtures["h3_fixture"]
    h3_rep = ModuleRep(h3)
    h3_system = h3.system
    test_words = words_for(h3_system)
    associated_differs = False
    for w in test_words:
        value = eval_at(h3_rep.character(w), 1)
        eps = (-1) ** w.length
        if value != eps * value:
            associated_differs = True
    w0 = h3_system.longest_element()
    assert eval_at(h3_rep.character(w0), 1) == -4
    assert associated_differs
    report(10, "characteristic polynomial, bar witness at v4, no-source "
               "error, obstruction firing, and the non-self-associated "
               "specialization")


# -- criterion 11: the 0-specialization ---------------------------------------------------------------


def test_criterion_11_zero_hecke(fixtures):
    for name in ("lv_a3_id", "lv_b3"):
        g = fixtures[name]
        system = g.system
        w0 = system.longest_element()
        sink = g.sinks()[0]
        for alpha in g.vertices:
            sign, v = zero_hecke_action(g, w0, alpha)
            assert v == sink, (name, alpha)
    total = 0
    for name, g in fixtures.items():
        system = g.system
        if system.is_finite():
            elements = system.enumerate()
        else:
            elements = system.enumerate(length_bound=len(g.vertices))
        for alpha in g.vertices:
            reached = {zero_hecke_action(g, w, alpha)[1] for w in elements}
            assert reached == reachable_from(g, alpha), (name, alpha)
            total += 1
    report(11, f"longest-element action reaches sinks; word reachability "
               f"matches graph reachability over {total} start vertices")


def test_fixture_registry_sanity(fixtures):
    """Every registry digraph passes both deciders (the cycle included)."""
    for name, g in fixtures.items():
        assert g.validate_structure() == [], name
        assert is_w_digraph(g).is_w_digraph, name
        assert brute_force_check(g) is None, name
