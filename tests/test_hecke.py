"""Tests for the Hecke algebra layer: products, inverses, the dihedral
element families, the bar involution, and digraph extraction."""

import itertools
import random
from collections import Counter
from math import inf

import pytest

from wdigraph.coxeter import CoxeterSystem, GroupElement
from wdigraph.digraph import DASHED, SOLID
from wdigraph.exactalg import RF_ONE, RF_U, RatFunc, poly_p, rf, ubar
from wdigraph.families import FamilySpec, build_family
from wdigraph.hecke import (Dihedral, HeckeElt, SupportsError, bar,
                            dihedral_case_basis, invert_Tw, supports_digraph)
from wdigraph.modrep import _TAU_CASES

from conftest import (RF_U2, RF_U2M1, RF_U_M2, Ts_circ, Ts_circ_inverse,
                      dihedral_elements, hecke_is_zero, left_mult_gen,
                      make_affine_a2, make_b3, zeta)

U2 = RF_U * RF_U


@pytest.fixture(scope="module")
def i23():
    return CoxeterSystem.dihedral(3)


@pytest.fixture(scope="module")
def i24():
    return CoxeterSystem.dihedral(4)


@pytest.fixture(scope="module")
def i25():
    return CoxeterSystem.dihedral(5)


def T(system, word):
    return HeckeElt.T(system.element(word))


def test_left_mult_identity(i23):
    assert left_mult_gen(T(i23, "e"), "s") == T(i23, "s")


def test_quadratic_relation_expansion(i23):
    # T_s T_s = u^2 + (u^2-1) T_s
    prod = left_mult_gen(T(i23, "s"), "s")
    assert prod == T(i23, "e").scale(U2) + T(i23, "s").scale(U2 - RF_ONE)


def test_length_additive(i23):
    assert left_mult_gen(T(i23, "ts"), "s") == T(i23, "sts")


def test_product_length_additive_all_pairs(i24):
    for x, y in itertools.product(i24.enumerate(), repeat=2):
        if (x * y).length == x.length + y.length:
            assert HeckeElt.T(x) * HeckeElt.T(y) == HeckeElt.T(x * y)


def test_braid_relation(i23):
    lhs, rhs = T(i23, "e"), T(i23, "e")
    for s, t in zip("sts", "tst"):
        lhs, rhs = left_mult_gen(lhs, s), left_mult_gen(rhs, t)
    assert lhs == rhs


def test_quadratic_relation_factored(i23):
    # (T_s - u^2)(T_s + 1) = 0, i.e. T_s^2 - (u^2-1) T_s - u^2 = 0
    for g in "st":
        prod = (T(i23, g) * T(i23, g)
                - T(i23, g).scale(U2 - RF_ONE)
                - T(i23, "e").scale(U2))
        assert hecke_is_zero(prod)


def test_associativity_random_triples(i25, a3):
    rng = random.Random(7)
    for system in (i25, a3):
        elems = system.enumerate()
        for _ in range(100):
            x, y, z = (HeckeElt.T(rng.choice(elems)) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_invert_identity(i23):
    assert invert_Tw(i23.identity()) == T(i23, "e")


def test_invert_generator(i23):
    got = invert_Tw(i23.element("s"))
    expected = (T(i23, "s").scale(RF_U ** (-2))
                - T(i23, "e").scale(RF_ONE - RF_U ** (-2)))
    assert got == expected
    assert T(i23, "s") * got == T(i23, "e")


def inverse_expansion_holds(system, y):
    """u^{2 l(y)} T_{y^{-1}}^{-1} = T_y + sum over x < y of p_{l(y)-l(x)} T_x."""
    lhs = invert_Tw(y.inverse()).scale(RF_U ** (2 * y.length))
    rhs = HeckeElt.T(y)
    for x in system.enumerate():
        if x != y and system.bruhat_leq(x, y):
            rhs = rhs + HeckeElt.T(x).scale(RatFunc(poly_p(y.length - x.length)))
    return lhs == rhs


def test_inverse_expansion_i2_5(i25):
    for y in i25.enumerate():
        assert inverse_expansion_holds(i25, y)


def test_ts_circ(i23):
    circ = Ts_circ(i23, "s")
    assert circ[i23.element("s")] == rf(1, [1, 1])
    assert circ[i23.identity()] == rf([0, -1], [1, 1])
    assert circ * Ts_circ_inverse(i23, "s") == T(i23, "e")
    # (circ - (u^2-u)/(u+1)) (circ + 1) = 0
    lam = rf([0, -1, 1], [1, 1])
    prod = ((circ * circ) - circ.scale(lam - RF_ONE)
            - T(i23, "e").scale(lam))
    assert hecke_is_zero(prod)


def test_bar_fixes_identity(i23):
    assert bar(T(i23, "e")) == T(i23, "e")


def test_bar_generator(i23):
    assert bar(T(i23, "s")) == invert_Tw(i23.element("s"))


def test_bar_involution(i24):
    h = T(i24, "st")
    assert bar(bar(h)) == h
    mix = T(i24, "st").scale(rf([1, 2])) + T(i24, "t").scale(rf(1, [0, 1]))
    assert bar(bar(mix)) == mix


def test_dihedral_words(i25):
    dd = Dihedral(i25, "s", "t")
    assert str(dd.word_s(3)) == "sts"
    assert dd.word_t(2) == i25.element("st")  # two letters ending in t
    assert dd.word_s(2) == i25.element("ts")
    assert dd.word_s(5) == dd.word_t(5) == i25.longest_element()


def test_sigma_k(i23):
    dd = Dihedral(i23, "s", "t")
    assert dd.sigma(0) == T(i23, "e")
    assert dd.sigma(3) == HeckeElt.T(i23.longest_element())
    assert dd.sigma(1) == T(i23, "s") + T(i23, "t")


def test_dihedral_element_families_at_zero(i25):
    fams = dihedral_elements(i25, "s", "t", 0)
    e = T(i25, "e")
    assert fams["phi"] == fams["eta"] == fams["gamma"] == fams["delta"] == e


def test_phi1_n5(i25):
    dd = Dihedral(i25, "s", "t")
    phi1 = dd.phi(1)
    expected = T(i25, "s") + T(i25, "t") + T(i25, "e").scale(rf([1, 0, -1]))
    assert phi1 == expected
    assert left_mult_gen(phi1, "s") == T(i25, "e").scale(U2) + T(i25, "st")


def test_zeta_twist_eta_gives_gamma():
    i26 = CoxeterSystem.dihedral(6)
    dd = Dihedral(i26, "s", "t")
    for j in range(7):
        eta = dd.eta(j)
        assert HeckeElt(i26, {w: zeta(c) for w, c in eta.coeffs.items()}) \
            == dd.gamma(j)


def test_lemma_varphi(i25):
    dd = Dihedral(i25, "s", "t")
    n = dd.n
    for j in range(1, n + 1):
        for k in range(j, n - j + 1):
            lhs = HeckeElt.T(dd.word_s(k).inverse()) * dd.phi(j)
            rhs = (HeckeElt.T(dd.word_s(k - j).inverse()).scale(RF_U ** (2 * j))
                   + HeckeElt.T(dd.word_s(k + j).inverse()))
            assert lhs == rhs


def test_lemma_eta_sum(i24):
    dd = Dihedral(i24, "s", "t")
    n = dd.n
    for j in range(n + 1):
        for k in range(j, n - j + 1):
            lhs = HeckeElt.T(dd.word_t(k).inverse()) * dd.eta(j)
            rhs = HeckeElt.zero(i24)
            for i in range(2 * j + 1):
                rhs = rhs + HeckeElt.T(dd.word_t(k + j - i).inverse()).scale(
                    RF_U ** i)
            assert lhs == rhs


def test_supports_t_basis_is_figure1(i23):
    X = [HeckeElt.T(w) for w in i23.enumerate()]
    g = supports_digraph(X)
    fam = build_family(i23, FamilySpec(1, 3))
    assert g.labeled_isomorphic(fam) is not None


def test_supports_eta_chain_is_figure4(i23):
    X = dihedral_case_basis(i23, "s", "t", 4, 2)
    g = supports_digraph(X)
    fam = build_family(i23, FamilySpec(4, 2))
    assert g.labeled_isomorphic(fam) is not None


def test_supports_failure(i23):
    X = [T(i23, "e"), T(i23, "s") + T(i23, "e")]
    with pytest.raises(SupportsError) as exc:
        supports_digraph(X)
    assert exc.value.generator is not None


def test_supports_rejects_dependent(i23):
    h = T(i23, "s") + T(i23, "t")
    with pytest.raises(SupportsError, match="dependent"):
        supports_digraph([h, h.scale(rf(2))])


def test_printing(i23):
    h = T(i23, "s").scale(rf(1, [1, 1])) + T(i23, "e").scale(rf([0, -1], [1, 1]))
    assert str(h) == "((-u)/(1+u))*T[e] + ((1)/(1+u))*T[s]"
    assert str(HeckeElt.zero(i23)) == "0"


# -- the generator rule written out, as the algebra computed it before its
# -- generators were read off modrep's case table ------------------------------------------


def rule_left_mult_gen(h, s):
    """T_s T_w = T_sw if l(sw) > l(w), and u^2 T_sw + (u^2-1) T_w if not."""
    system = h.system
    si = system._gen_index(s)
    out = {}

    def add(w, c):
        acc = out.get(w)
        out[w] = c if acc is None else acc + c

    for w, c in h.coeffs.items():
        sw = GroupElement(system, system.lmult(w.word, si))
        if sw.length > w.length:
            add(sw, c)
        else:
            add(sw, RF_U2 * c)
            add(w, RF_U2M1 * c)
    return HeckeElt(system, out)


def rule_left_mult_gen_inverse(h, s):
    """u^-2 (T_s - (u^2-1)) h."""
    return (rule_left_mult_gen(h, s) - h.scale(RF_U2M1)).scale(RF_U_M2)


def rule_left_mult_circ(h, s):
    """(u+1)^-1 (T_s - u) h."""
    return (rule_left_mult_gen(h, s) - h.scale(RF_U)).scale(rf(1, [1, 1]))


def rule_left_mult_circ_inverse(h, s):
    """(u^2-u)^-1 (T_s - (u^2-u-1)) h."""
    return ((rule_left_mult_gen(h, s) - h.scale(rf([-1, -1, 1])))
            .scale(rf(1, [0, -1, 1])))


def rule_mul(x, y):
    out = HeckeElt.zero(x.system)
    for w, c in x.coeffs.items():
        term = y
        for s in reversed(w.word):
            term = rule_left_mult_gen(term, s)
        out = out + term.scale(c)
    return out


def rule_invert_Tw(w):
    h = HeckeElt.one(w.system)
    for s in w.word:
        h = rule_left_mult_gen_inverse(h, s)
    return h


def rule_bar(h):
    out = HeckeElt.zero(h.system)
    for w, c in h.coeffs.items():
        out = out + rule_invert_Tw(w.inverse()).scale(ubar(c))
    return out


# the four operators in the (role, style) order of `_TAU_CASES`
RULE_OPERATORS = {("tail", SOLID): rule_left_mult_gen,
                  ("head", SOLID): rule_left_mult_gen_inverse,
                  ("tail", DASHED): rule_left_mult_circ,
                  ("head", DASHED): rule_left_mult_circ_inverse}

# coefficients with monomial and non-monomial denominators
_COEFFS = [rf(1), rf(-2), rf([0, 1]), rf([1, -1, 1]), rf(1, [0, 1]),
           rf([2, 1], [1, 1]), rf(1, [0, -1, 1]), rf([0, 3], [-1, 0, 1])]


def random_hecke_elt(rng, elements):
    system = elements[0].system
    return HeckeElt(system, {rng.choice(elements): rng.choice(_COEFFS)
                             for _ in range(rng.randint(1, 4))})


def test_generator_rule_matches_written_rule():
    # seeded random elements supported on words of length <= 5, over finite
    # and infinite, dihedral and rank-three systems
    systems = [CoxeterSystem.dihedral(3), CoxeterSystem.dihedral(4),
               CoxeterSystem.dihedral(6), CoxeterSystem.dihedral(inf),
               make_b3(), make_affine_a2()]
    assert list(RULE_OPERATORS) == list(_TAU_CASES)
    rng = random.Random(1919)
    checked = Counter()
    for system in systems:
        elements = system.enumerate(5)
        for _ in range(20):
            h = random_hecke_elt(rng, elements)
            for s in range(system.rank()):
                for key, rule in RULE_OPERATORS.items():
                    assert h._left_mult(s, key) == rule(h, s), (key, h)
                    checked["operators"] += 1
            x = random_hecke_elt(rng, elements)
            assert x * h == rule_mul(x, h)
            assert bar(h) == rule_bar(h)
            checked["products and bars"] += 1
        for w in elements:
            assert invert_Tw(w) == rule_invert_Tw(w), w
            checked["inverses"] += 1
    assert checked == {"operators": 1120, "products and bars": 120,
                       "inverses": 114}
