"""Tests for Coxeter-system word arithmetic, enumeration, and classification."""

import itertools
import random
from math import inf, prod

import pytest

from wdigraph import coxeter, roots
from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism, GroupElement
from wdigraph.digraph import DASHED, SOLID, Edge, SLabeledDigraph
from wdigraph.families import build_lv, build_regular

from conftest import (apply_star, braid_orbit, conjugation_by_w0_products,
                      left_descents, multiply_by_generator, parabolic_data,
                      reference_component_order, reference_up_walk)


def words(system, orbit):
    return {system.word_to_str(w) for w in orbit}


def test_braid_orbit_a3(a3):
    orbit = braid_orbit(a3, a3.word_from_str("srs"))
    assert words(a3, orbit) == {"srs", "rsr"}


def test_braid_orbit_commutation(a3):
    orbit = braid_orbit(a3, a3.word_from_str("rt"))
    assert words(a3, orbit) == {"rt", "tr"}


def test_braid_orbit_empty(a3):
    assert braid_orbit(a3, ()) == ((),)


def test_multiply_by_generator_identity(a3):
    for si, g in enumerate("rst"):
        assert a3.word_to_str(a3.lmult((), si)) == g


def test_multiply_by_generator_descent(a3):
    w = a3.word_from_str("rsr")
    assert a3.word_to_str(a3.lmult(w, 0)) == "sr"


def test_multiply_by_generator_i2_5():
    i25 = CoxeterSystem.dihedral(5)
    w = i25.word_from_str("stst")
    assert i25.word_to_str(i25.lmult(w, 0)) == "tst"


def test_enumerate_a1():
    a1 = CoxeterSystem(["s"], {})
    elems = a1.enumerate()
    assert [str(w) for w in elems] == ["e", "s"]


def test_enumerate_a3(a3):
    elems = a3.enumerate()
    assert len(elems) == 24
    assert a3.longest_element().length == 6


def test_enumerate_h3(h3):
    elems = h3.enumerate()
    assert len(elems) == 120
    assert h3.longest_element().length == 15


def test_enumerate_bounded(affine_a2):
    elems = affine_a2.enumerate(length_bound=3)
    assert all(w.length <= 3 for w in elems)
    # lengths 0..3 of the affine triangle group: 1 + 3 + 6 + 9
    by_len = [sum(1 for w in elems if w.length == k) for k in range(4)]
    assert by_len == [1, 3, 6, 9]
    with pytest.raises(ValueError):
        affine_a2.enumerate()


def test_enumerate_refuses_a_negative_bound(a3, affine_a2):
    for system in (a3, affine_a2):
        with pytest.raises(ValueError, match="length bound must be >= 0"):
            system.enumerate(length_bound=-1)
        assert [str(w) for w in system.enumerate(length_bound=0)] == ["e"]


def test_is_finite(a3, b3, h3, affine_a2):
    assert CoxeterSystem.dihedral(7).is_finite()
    assert a3.is_finite()
    assert b3.is_finite()
    assert h3.is_finite()
    assert not affine_a2.is_finite()
    assert not CoxeterSystem.dihedral("inf").is_finite()
    # affine F4-like chain with an interior 4 that is not F4
    c_affine = CoxeterSystem(
        ["a", "b", "c", "d", "f"],
        {("a", "b"): 3, ("b", "c"): 4, ("c", "d"): 3, ("d", "f"): 4})
    assert not c_affine.is_finite()
    f4 = CoxeterSystem(["a", "b", "c", "d"],
                       {("a", "b"): 3, ("b", "c"): 4, ("c", "d"): 3})
    assert f4.is_finite()
    d4 = CoxeterSystem(["a", "b", "c", "d"],
                       {("a", "b"): 3, ("b", "c"): 3, ("b", "d"): 3})
    assert d4.is_finite()
    e6 = CoxeterSystem(
        list("abcdef"),
        {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("d", "e"): 3, ("c", "f"): 3})
    assert e6.is_finite()
    # the affine D4 star (four arms) is infinite
    star = CoxeterSystem(list("abcde"),
                         {("a", "e"): 3, ("b", "e"): 3, ("c", "e"): 3, ("d", "e"): 3})
    assert not star.is_finite()


def test_bruhat_minimum_and_subword(a3):
    e = a3.identity()
    for y in a3.enumerate():
        assert a3.bruhat_leq(e, y)
    assert a3.bruhat_leq(a3.element("sr"), a3.element("rsr"))
    x = a3.element("rt")
    assert a3.bruhat_leq(x, x)


def test_bruhat_antisymmetry_on_a3(a3):
    elems = a3.enumerate()
    for x, y in itertools.product(elems[:12], elems[:12]):
        if a3.bruhat_leq(x, y) and a3.bruhat_leq(y, x):
            assert x == y
        if a3.bruhat_leq(x, y) and x.length == y.length:
            assert x == y


def test_bruhat_maximum(a3):
    w0 = a3.longest_element()
    for y in a3.enumerate():
        assert a3.bruhat_leq(y, w0)


def test_parabolic_data(a3):
    full, xj = parabolic_data(a3, "rst")
    assert len(full) == 24 and [str(w) for w in xj] == ["e"]
    wj, xj = parabolic_data(a3, "")
    assert len(wj) == 1 and len(xj) == 24
    wj, xj = parabolic_data(a3, "st")
    assert len(wj) == 6 and len(xj) == 4
    assert len(wj) * len(xj) == 24


def test_parabolic_counts_b3(b3):
    full = b3.enumerate()
    assert len(full) == 48
    for J in ["", "r", "s", "t", "rs", "rt", "st", "rst"]:
        wj, xj = parabolic_data(b3, J)
        assert len(wj) * len(xj) == 48


def named_system(name):
    """A_n, B_n, D_n, E_n, F4, G2 or H_n on the first n of the letters
    a, b, c, d, f, g, h, i: a chain of order-3 bonds, its last bond of order
    4 in B_n and 5 in H_n, its middle bond of order 4 in F4, its one bond of
    order 6 in G2; in D_n and E_n the last generator is off the chain,
    joined to the third from the end (D_n) or to the third (E_n)."""
    kind, n = name[0], int(name[1:])
    gens = "abcdfghi"[:n]
    chain = gens[:-1] if kind in "DE" else gens
    orders = {(x, y): 3 for x, y in zip(chain, chain[1:])}
    if kind in "BGH":
        orders[(gens[-2], gens[-1])] = {"B": 4, "G": 6, "H": 5}[kind]
    elif kind == "F":
        orders[(gens[1], gens[2])] = 4
    elif kind == "D":
        orders[(gens[-3], gens[-1])] = 3
    elif kind == "E":
        orders[(gens[2], gens[-1])] = 3
    return CoxeterSystem(list(gens), orders)


# the involutions of W, the identity among them
INVOLUTION_COUNTS = {"A1": 2, "A2": 4, "A3": 10, "A4": 26, "A5": 76, "A6": 232,
                     "B2": 6, "B3": 20, "B4": 76, "B5": 312,
                     "D4": 44, "D5": 156, "H3": 32, "E6": 892, "E7": 10_208}


def test_twisted_involutions_counts():
    for name, count in INVOLUTION_COUNTS.items():
        system = named_system(name)
        ident = DiagramAutomorphism.identity(system)
        involutions = system.twisted_involutions(ident)
        assert len(involutions) == count, name
        if system.parabolic_order() > coxeter.MAX_ELEMENTS:
            continue                    # E7: W is not listed, so has no w0
        # star = conjugation by w0: w* = w^-1 iff (w w0)^2 = 1, so w -> w w0
        # maps its twisted involutions onto the involutions
        sharp = system.conjugation_automorphism_by_w0(ident)
        w0 = system.longest_element()
        assert ({w * w0 for w in system.twisted_involutions(sharp)}
                == set(involutions)), name


def test_conjugation_by_w0(a3, b3):
    ident = DiagramAutomorphism.identity(a3)
    sharp = a3.conjugation_automorphism_by_w0(ident)
    assert sharp == DiagramAutomorphism.from_mapping(a3, {"r": "t", "t": "r"})
    assert sharp.is_involution()
    # w0 is central in B3
    assert (b3.conjugation_automorphism_by_w0(DiagramAutomorphism.identity(b3))
            == DiagramAutomorphism.identity(b3))


def test_canonicalization_idempotent(a3, b3):
    for system in (a3, b3, CoxeterSystem.dihedral(8)):
        for w in system.enumerate():
            assert system.canonical(w.word) == w.word


def test_length_subadditive_and_inverse():
    i25 = CoxeterSystem.dihedral(5)
    elems = i25.enumerate()
    for x, y in itertools.product(elems, elems):
        assert (x * y).length <= x.length + y.length
    for x in elems:
        assert x.inverse().length == x.length


def test_length_changes_by_one(a3):
    for w in a3.enumerate():
        for si in range(a3.rank()):
            assert abs(len(a3.lmult(w.word, si)) - w.length) == 1
            assert abs(len(a3._rmult(w.word, si)) - w.length) == 1


def test_unique_longest(a3):
    elems = a3.enumerate()
    top = max(w.length for w in elems)
    assert sum(1 for w in elems if w.length == top) == 1


def test_element_printing(a3):
    assert str(a3.identity()) == "e"
    assert str(a3.element("rt")) == "rt"
    assert str(a3.element("tr")) == "rt"  # ShortLex picks rt over tr


def test_json_roundtrip(b3):
    data = b3.to_json()
    rebuilt = CoxeterSystem.from_json(data)
    assert rebuilt.generators == b3.generators
    assert rebuilt.matrix == b3.matrix


@pytest.mark.parametrize("generators, matrix", [
    pytest.param(["a", "b", "c", "d", "e"],
                 {"a,b": 3, "b,c": 3, "c,d": 3, "d,e": 3}, id="named_e"),
    pytest.param(["s", "t,u"], {}, id="comma"),
    pytest.param(["a", "b", "ab"], {"a,b": 3}, id="multi_char"),
    pytest.param(["s", ""], {}, id="empty"),
])
def test_from_json_rejects_unsafe_names(generators, matrix):
    with pytest.raises(ValueError):
        CoxeterSystem.from_json({"generators": generators, "matrix": matrix})


def test_diagram_automorphism_validation(b3):
    with pytest.raises(ValueError):
        DiagramAutomorphism.from_mapping(b3, {"r": "t", "t": "r"})


def test_enumerate_ordering(b3):
    elems = b3.enumerate()
    keys = [w.sort_key() for w in elems]
    assert keys == sorted(keys)


def test_length_laws_a3(a3):
    elems = a3.enumerate()
    for x in elems:
        assert x.inverse().length == x.length
    rng_pairs = [(x, y) for x in elems[:10] for y in elems[:10]]
    for x, y in rng_pairs:
        assert (x * y).length <= x.length + y.length


# -- differential test against the braid-orbit word problem -----------------------------


class OrbitReference:
    """The braid-orbit word problem: an element's canonical word is the least
    word of its braid orbit, and w*s drops an s when some orbit word ends in it."""

    def __init__(self, system):
        self.system = system
        self.orbits = {}

    def orbit(self, word):
        if word not in self.orbits:
            orbit = braid_orbit(self.system, word)
            self.orbits.update(dict.fromkeys(orbit, orbit))
        return self.orbits[word]

    def multiply(self, word, s, side):
        for v in self.orbit(word):
            if v and v[-1 if side == "right" else 0] == s:
                return min(self.orbit(v[:-1] if side == "right" else v[1:])), -1
        return min(self.orbit(word + (s,) if side == "right" else (s,) + word)), 1

    def enumerate(self, length_bound):
        layer, out = [()], [()]
        while layer and (length_bound is None or len(layer[0]) < length_bound):
            layer = sorted({v for w in layer for s in range(self.system.rank())
                            for v, delta in [self.multiply(w, s, "right")]
                            if delta == 1})
            out += layer
        return out

    def bruhat_leq(self, x, y):
        """The subword property: some reduced word of x sits inside one of y."""
        def inside(word):
            it = iter(y)
            return all(ch in it for ch in word)
        return any(inside(word) for word in self.orbit(x))


DIFFERENTIAL_SYSTEMS = {
    "A1": (["s"], {}),
    "A3": ("rst", {("r", "s"): 3, ("s", "t"): 3}),
    "B3": ("rst", {("r", "s"): 3, ("s", "t"): 4}),
    "B3_reversed": ("rst", {("r", "s"): 4, ("s", "t"): 3}),
    "H3": ("rst", {("r", "s"): 3, ("s", "t"): 5}),
    "A4": ("qrst", {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 3}),
    "D4": ("qrst", {("q", "s"): 3, ("r", "s"): 3, ("s", "t"): 3}),
    "B4": ("qrst", {("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 4}),
    "A1xI2(5)": ("rst", {("s", "t"): 5}),
    "G2xA1": ("rst", {("r", "s"): 6}),
    "I2(7)xA1": ("rst", {("s", "t"): 7}),
    **{f"I2({n})": ("st", {("s", "t"): n}) for n in range(2, 11)},
    # infinite systems, up to a length bound
    "affine_A2": ("rst", {("r", "s"): 3, ("s", "t"): 3, ("r", "t"): 3}),
    "affine_C2": ("rst", {("r", "s"): 4, ("s", "t"): 4}),
    "triangle_337": ("rst", {("r", "s"): 3, ("s", "t"): 3, ("r", "t"): 7}),
    "I2(inf)": ("st", {("s", "t"): inf}),
    "rank4_345": ("qrst", {("q", "r"): 3, ("r", "s"): 4, ("s", "t"): 5,
                           ("q", "t"): 3}),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
def test_word_problem_matches_braid_orbits(name):
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    ref = OrbitReference(system)
    bound = None if system.is_finite() else 6
    elems = system.enumerate(bound)
    assert [w.word for w in elems] == ref.enumerate(bound)
    for w in elems:
        for s in range(system.rank()):
            for side in ("right", "left"):
                got, delta = multiply_by_generator(system, w, s, side)
                assert (got.word, delta) == ref.multiply(w.word, s, side)
        assert left_descents(system, w) == {v[0] for v in ref.orbit(w.word) if v}
    if len(elems) <= 120:
        for x, y in itertools.product(elems, repeat=2):
            assert system.bruhat_leq(x, y) == ref.bruhat_leq(x.word, y.word)


@pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
def test_direct_walks_match_canonical(name):
    # `element` on a string and `inverse` walk the letters with no second
    # check of each one, and name the element `canonical` names
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    elems = system.enumerate(None if system.is_finite() else 6)
    rng = random.Random(len(elems))
    texts = [str(w)[::-1] for w in elems if w.length]
    texts += ["".join(rng.choices(system.generators, k=rng.randint(0, 9)))
              for _ in range(50)]
    for text in ["", "e", *texts]:
        got = system.element(text)
        assert got.word == system.canonical(system.word_from_str(text)), text
        assert got.inverse().word == system.canonical(got.word[::-1]), text
    for w in elems:
        assert w.inverse().word == system.canonical(w.word[::-1]), str(w)
    # non-string input still goes through `canonical`, letter by letter
    assert system.element(list(system.generators)) == system.element(
        "".join(system.generators))
    for bad, message in [("sx", "unknown generator 'x'"),
                         (["s", "x"], "unknown generator 'x'"),
                         ([0, 9], "generator index 9 out of range")]:
        with pytest.raises(ValueError) as caught:
            system.element(bad)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            system.canonical(bad)
        assert str(caught.value) == message


# -- differential test of the up-walk against enumerate-then-filter --------------------


def reference_enumerate(system, length_bound):
    """The layered BFS over right multiplication that `enumerate` ran before
    the up-walk: canonical words sorted (length, ShortLex)."""
    frontier = [()]
    seen = {()}
    out = [()]
    length = 0
    while frontier:
        if length_bound is not None and length >= length_bound:
            break
        nxt = set()
        for w in frontier:
            for s in range(system.rank()):
                new = system._rmult(w, s)
                if len(new) > len(w) and new not in seen:
                    seen.add(new)
                    nxt.add(new)
        frontier = sorted(nxt)
        out.extend(frontier)
        length += 1
    return [GroupElement(system, w) for w in out]


def reference_twisted_involutions(system, star, length_bound):
    """Every element up to the bound, filtered by star(x) = x^{-1}."""
    return [x for x in reference_enumerate(system, length_bound)
            if apply_star(star, x) == x.inverse()]


def reference_build_lv(system, star, length_bound):
    """The twisted-involution digraph by one left and two right
    multiplications per vertex and generator."""
    involutions = reference_twisted_involutions(system, star, length_bound)
    members = {x.word for x in involutions}
    edges = []
    for w in involutions:
        for si in range(system.rank()):
            sw = system.lmult(w.word, si)
            if len(sw) < w.length:
                continue
            ws = system._rmult(w.word, star.perm[si])
            if sw == ws:
                target, style = sw, DASHED
            else:
                target, style = system._rmult(sw, star.perm[si]), SOLID
            if target in members:
                edges.append(Edge(str(w), system.word_to_str(target),
                                  system.generators[si], style))
    return SLabeledDigraph(system, [str(x) for x in involutions], edges)


def reference_build_regular(system, length_bound):
    """The left-Cayley digraph by one left multiplication per element and
    generator."""
    elements = reference_enumerate(system, length_bound)
    members = {x.word for x in elements}
    edges = []
    for x in elements:
        for si in range(system.rank()):
            sx = system.lmult(x.word, si)
            if len(sx) > x.length and sx in members:
                edges.append(Edge(str(x), system.word_to_str(sx),
                                  system.generators[si], SOLID))
    return SLabeledDigraph(system, [str(x) for x in elements], edges)


def involutory_automorphisms(system):
    out = []
    for perm in itertools.permutations(range(system.rank())):
        try:
            star = DiagramAutomorphism(system, perm)
        except ValueError:
            continue
        if star.is_involution():
            out.append(star)
    return out


# the systems of DIFFERENTIAL_SYSTEMS whose walks carry canonical words: an
# order of 7 or more, or an infinite group; the rest walk on root coordinates
WORD_WALKS = ("I2(7)", "I2(8)", "I2(9)", "I2(10)", "I2(7)xA1", "affine_A2",
              "affine_C2", "triangle_337", "I2(inf)", "rank4_345")


@pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
def test_up_walk_matches_enumerate_then_filter(name):
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    assert system._ops().on_words == (name in WORD_WALKS)
    stars = involutory_automorphisms(system)
    for bound in [*range(5), *([None] if system.is_finite() else [])]:
        assert system.enumerate(bound) == reference_enumerate(system, bound)
        assert (build_regular(system, bound).to_json()
                == reference_build_regular(system, bound).to_json())
        for star in stars:
            assert (system.twisted_involutions(star, bound)
                    == reference_twisted_involutions(system, star, bound))
            assert (build_lv(system, star, bound).to_json()
                    == reference_build_lv(system, star, bound).to_json())


def word_walking(system):
    """The same system, made to walk canonical words through `_rmult`."""
    system = CoxeterSystem.from_json(system.to_json())
    system._walk_ops = system._word_ops()
    return system


@pytest.mark.parametrize("name,kinds", [
    ("F4", "lv regular"), ("D5", "lv regular"), ("H4", "lv")])
def test_root_walk_matches_word_walk(name, kinds):
    system = named_system(name)
    words = word_walking(system)
    assert not system._ops().on_words and words._ops().on_words
    if "regular" in kinds:
        assert build_regular(system).to_json() == build_regular(words).to_json()
    for star in involutory_automorphisms(system):
        assert (build_lv(system, star).to_json()
                == build_lv(words, DiagramAutomorphism(words, star.perm)).to_json())


# -- the level walk against the BFS-plus-sort walk it replaced ----------------------


def walk_bounds(system):
    return [*range(5), *([None] if system.is_finite() else [])]


@pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
def test_level_walk_matches_reference_up_walk(name):
    """The regular walk lists the words of the BFS-plus-sort walk it
    replaced, and the same arrows, on roots and on words."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    for walker in (system, word_walking(system)):
        for bound in walk_bounds(system):
            words, arrows = walker.up_walk(None, bound)
            expected_words, expected_arrows = reference_up_walk(walker, bound)
            assert words == expected_words, bound
            assert sorted(arrows) == sorted(expected_arrows), bound


@pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
def test_level_walk_refuses_where_reference_does(name, monkeypatch):
    """With MAX_ELEMENTS one below and at the number of words kept, the
    regular walk and the walk it replaced both refuse, with the same
    message, or both return, each from a cold system, on roots and on
    words (where the products memoized count too)."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    for cold in (lambda: CoxeterSystem(list(gens), orders),
                 lambda: word_walking(system)):
        for bound in walk_bounds(system):
            kept = len(cold().up_walk(None, bound)[0])
            for limit in (kept - 1, kept):
                monkeypatch.setattr(coxeter, "MAX_ELEMENTS", limit)
                outcomes = []
                for walk in (lambda s: s.up_walk(None, bound),
                             lambda s: reference_up_walk(s, bound)):
                    try:
                        outcomes.append(walk(cold())[0])
                    except ValueError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (bound, limit)
                if 0 < limit < kept:       # the identity alone is never refused
                    assert outcomes[0] == (f"more than {limit} elements "
                                           "to enumerate")
                monkeypatch.undo()


def test_regular_walk_refuses_past_max_elements(monkeypatch):
    # A3 has 1, 3, 5, 6 elements of lengths 0 to 3: the walk up to length 3
    # keeps 15, so it is refused with MAX_ELEMENTS = 14 and not with 15, on
    # roots and on words; all of W (24) is refused before any element
    a3 = DIFFERENTIAL_SYSTEMS["A3"]
    for limit, refused in ((15, False), (14, True)):
        monkeypatch.setattr(coxeter, "MAX_ELEMENTS", limit)
        for system in (CoxeterSystem(list(a3[0]), a3[1]),
                       word_walking(CoxeterSystem(list(a3[0]), a3[1]))):
            with pytest.raises(ValueError, match=f"^more than {limit} "
                               "elements to enumerate$"):
                system.enumerate()
            assert system._products == {}
            if refused:
                with pytest.raises(ValueError, match="^more than 14 elements "
                                   "to enumerate$"):
                    system.enumerate(3)
            else:
                assert len(system.enumerate(3)) == 15


ROOT_WALKS = [name for name in DIFFERENTIAL_SYSTEMS if name not in WORD_WALKS]


@pytest.mark.parametrize("name", ROOT_WALKS)
def test_regular_root_walk_names_no_element(name):
    """Listing W on root coordinates reads no word back: `name` is never
    called, and its memo holds the identity alone."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    ops = system._ops()

    def unnamed(x):
        raise AssertionError(f"the regular walk named {x}")
    system._walk_ops = ops._replace(name=unnamed)
    assert len(system.up_walk()[0]) == system.parabolic_order()
    assert ops.built() == 1


@pytest.mark.parametrize("name", ROOT_WALKS)
def test_twisted_tag_reads_one_column(name):
    """The premise of the twisted walk's tag on roots: at every element w
    of W and every s that is not a left descent of w, under every
    involutory star, s w star(s) = w iff column s of w is the packed simple
    root of star(s)."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    ops = system._ops()
    elements = []
    for word in system.up_walk()[0]:
        x = ops.identity
        for s in reversed(word):
            x = ops.left(x, s)
        elements.append(x)
    tags = set()
    for star in involutory_automorphisms(system):
        for x in elements:
            for s in range(system.rank()):
                if ops.descent(x, s):
                    continue
                r = star.perm[s]
                fixed = ops.right(ops.left(x, s), r) == x
                assert (x[s] == 1 << (ops.bits * r)) == fixed
                assert ops.fixes(x, s, r) == fixed
                tags.add(fixed)
    assert tags == ({True, False} if system.rank() > 1 else {True})


# -- groups and words beyond braid-orbit enumeration ---------------------------------


LARGE_GROUPS = [
    pytest.param({("p", "q"): 3, ("q", "r"): 3, ("r", "s"): 3, ("s", "t"): 3},
                 720, 15, id="A5"),
    pytest.param({("q", "r"): 3, ("r", "s"): 4, ("s", "t"): 3}, 1152, 24, id="F4"),
    pytest.param({("p", "q"): 3, ("q", "r"): 3, ("r", "s"): 3, ("r", "t"): 3},
                 1920, 20, id="D5"),
    pytest.param({("q", "r"): 5, ("r", "s"): 3, ("s", "t"): 3}, 14400, 60, id="H4"),
]


def system_of(orders):
    return CoxeterSystem(sorted({g for pair in orders for g in pair}), orders)


@pytest.mark.parametrize("orders,order,top", LARGE_GROUPS)
def test_enumerate_large_groups(orders, order, top):
    elems = system_of(orders).enumerate()
    assert len(elems) == order and elems[-1].length == top


# -- group orders from the diagram classification ----------------------------------------


INFINITE_DIFFERENTIAL = ("affine_A2", "affine_C2", "triangle_337", "I2(inf)",
                         "rank4_345")


FINITE_DIFFERENTIAL = [name for name in DIFFERENTIAL_SYSTEMS
                       if name not in INFINITE_DIFFERENTIAL]


@pytest.mark.parametrize("gens,orders", [
    *(pytest.param(*DIFFERENTIAL_SYSTEMS[name], id=name)
      for name in FINITE_DIFFERENTIAL),
    *(pytest.param(sorted({g for pair in p.values[0] for g in pair}), p.values[0],
                   id=p.id) for p in LARGE_GROUPS),
])
def test_parabolic_order_counts_enumerated_supports(gens, orders):
    """|W_J| from the classification = the number of elements with support
    in J, for every J."""
    system = CoxeterSystem(list(gens), orders)
    elems = system.enumerate()
    assert system.parabolic_order() == len(elems)
    rank = system.rank()
    for mask in range(1 << rank):
        J = {i for i in range(rank) if mask >> i & 1}
        expected = sum(1 for w in elems if set(w.word) <= J)
        assert system.parabolic_order(J) == expected, J
        assert system.parabolic_order(system.generators[i] for i in J) == expected


@pytest.mark.parametrize("name", INFINITE_DIFFERENTIAL)
def test_parabolic_order_infinite(name):
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    assert system.parabolic_order() is inf
    assert not system.is_finite()


def random_diagrams(rng, count):
    """`count` seeded Coxeter matrices of rank 1..10, as lists of rows: half
    random labelled trees (each node joined to the one before it, or to a
    random earlier node; labels mostly 3, else 4, 5, 6, 7 or inf), half
    dense random matrices over {2, 3, 4, 5, 6, inf}."""
    diagrams = []
    for index in range(count):
        k = rng.randint(1, 10)
        matrix = [[1 if a == b else 2 for b in range(k)] for a in range(k)]
        if index % 2:
            pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
            labels = [rng.choice((2, 3, 4, 5, 6, inf)) for _ in pairs]
        else:
            pairs = [(rng.choice((b - 1, rng.randrange(b))), b)
                     for b in range(1, k)]
            labels = [3 if rng.random() < 0.8 else rng.choice((4, 5, 6, 7, inf))
                      for _ in pairs]
        for (a, b), m in zip(pairs, labels):
            matrix[a][b] = matrix[b][a] = m
        diagrams.append(matrix)
    return diagrams


def test_component_order_matches_walk_reference():
    """The classification read off degrees and the edges not labelled 3
    gives the order of the arm and path walks it replaced, and math.inf
    itself exactly where they do, on the component of generator 0 of each
    seeded diagram; the grid reaches every exceptional type."""
    seen = set()
    for matrix in random_diagrams(random.Random(20131), 20_000):
        comp = [0]
        for v in comp:                  # grows behind v
            comp.extend(w for w in range(len(matrix))
                        if w not in comp and matrix[v][w] != 2)
        comp.sort()
        got = coxeter._component_order(comp, matrix)
        expected = reference_component_order(comp, matrix)
        assert got == expected and (got is inf) == (expected is inf), matrix
        seen.add(got)
    assert {1_152, 120, 14_400, 51_840, 2_903_040, 696_729_600} <= seen


def mask_indices(mask, k):
    """The indices below k whose bits are set in mask."""
    return [a for a in range(k) if mask >> a & 1]


def test_parabolic_orders_match_component_walks():
    """The table of |W_J| over every mask, grown on bitmask components,
    equals the product of the reference orders of the components that a
    walk over the index lists finds, math.inf itself where one is
    infinite; and `parabolic_order(J)` reads the same values."""
    kinds = set()
    for matrix in random_diagrams(random.Random(4096), 300):
        k = len(matrix)
        gens = [f"g{a}" for a in range(k)]
        system = CoxeterSystem(gens, {(gens[a], gens[b]): matrix[a][b]
                                      for a in range(k)
                                      for b in range(a + 1, k)})
        table = system.parabolic_orders()
        assert len(table) == 1 << k
        for mask, got in enumerate(table):
            rest = mask_indices(mask, k)
            orders = []
            while rest:
                comp = [rest.pop(0)]
                for v in comp:          # grows behind v
                    comp.extend(b for b in rest if matrix[v][b] != 2)
                    rest = [b for b in rest if b not in comp]
                orders.append(reference_component_order(sorted(comp), matrix))
            expected = inf if inf in orders else prod(orders)
            assert got == expected and (got is inf) == (expected is inf)
            one = system.parabolic_order(gens[a]
                                         for a in mask_indices(mask, k))
            assert one == got and (one is inf) == (got is inf)
            kinds.add(got is inf)
    assert kinds == {True, False}


@pytest.mark.parametrize("name", FINITE_DIFFERENTIAL)
def test_conjugation_by_w0_matches_products(name):
    """s -> w0 s* w0 read off the walk's representation equals two products
    of group elements per generator, on root coordinates and on words."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    words = word_walking(system)
    for star in involutory_automorphisms(system):
        expected = conjugation_by_w0_products(system, star).perm
        assert system.conjugation_automorphism_by_w0(star).perm == expected
        assert words.conjugation_automorphism_by_w0(
            DiagramAutomorphism(words, star.perm)).perm == expected


@pytest.mark.parametrize("name", FINITE_DIFFERENTIAL)
def test_longest_element_walk_matches_enumerate(name):
    """w0 walked up from the identity is the last element `enumerate`
    lists, on root coordinates and on words, and nothing is listed to find
    it: on roots, only the elements of w0's canonical word are named."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    for walker in (system, word_walking(system)):
        walker.up_walk = None       # listing W would call it
        w0 = walker.longest_element()
        if not walker._ops().on_words:
            assert walker._ops().built() == len(w0.word) + 1
        del walker.up_walk
        assert w0.word == walker.enumerate()[-1].word


@pytest.mark.parametrize("name", ["A3", "H3", "I2(7)xA1", "affine_A2"])
def test_enumerate_returns_independent_lists(name):
    """Repeated calls return equal lists, and changing one leaves the next
    untouched."""
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    bound = 4 if name == "affine_A2" else None
    first = system.enumerate(bound)
    expected = list(first)
    first.pop()
    first.append(system.identity())
    assert system.enumerate(bound) == expected


@pytest.mark.parametrize("name", INFINITE_DIFFERENTIAL)
def test_longest_element_refused_on_infinite_groups(name):
    gens, orders = DIFFERENTIAL_SYSTEMS[name]
    system = CoxeterSystem(list(gens), orders)
    with pytest.raises(ValueError, match="no longest element"):
        system.longest_element()
    with pytest.raises(ValueError, match="no longest element"):
        system.conjugation_automorphism_by_w0(
            DiagramAutomorphism.identity(system))


E_TYPES = {
    "E6": ({("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("d", "f"): 3,
            ("c", "g"): 3}, 51_840),
    "E7": ({("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("d", "f"): 3,
            ("f", "g"): 3, ("c", "h"): 3}, 2_903_040),
    "E8": ({("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("d", "f"): 3,
            ("f", "g"): 3, ("g", "h"): 3, ("c", "i"): 3}, 696_729_600),
}


@pytest.mark.parametrize("name", E_TYPES)
def test_exceptional_orders_without_enumerating(name):
    orders, order = E_TYPES[name]
    system = system_of(orders)
    assert system.parabolic_order() == order
    assert system._products == {} and system._walk_ops is None


@pytest.mark.parametrize("system,message", [
    pytest.param(system_of(E_TYPES["E7"][0]), "more than 100000 elements", id="E7"),
    pytest.param(CoxeterSystem.dihedral("inf"), "infinite Coxeter group",
                 id="I2(inf)"),
])
def test_enumerate_refuses_before_building(system, message):
    with pytest.raises(ValueError, match=message):
        system.enumerate()
    assert system._products == {}


def test_long_words_in_infinite_groups():
    affine_a2 = CoxeterSystem(list("rst"), {("r", "s"): 3, ("s", "t"): 3,
                                            ("r", "t"): 3})
    assert len(affine_a2.canonical(list("rst") * 100)) == 300
    i2_inf = CoxeterSystem.dihedral("inf")
    assert len(i2_inf.canonical(list("st") * 100)) == 200


def test_enumerate_element_bound(monkeypatch):
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 20)
    a3 = CoxeterSystem(list("rst"), {("r", "s"): 3, ("s", "t"): 3})
    with pytest.raises(ValueError, match="more than 20 elements"):
        a3.enumerate()
    assert a3._products == {}   # refused from |W| = 24, before any product
    with pytest.raises(ValueError, match="more than 20 elements"):
        a3.enumerate(length_bound=5)


def test_bounded_walk_bounds_its_products(monkeypatch):
    # on canonical words (affine A2), the twisted walk up to length 6 keeps
    # 10 words but memoizes 69 products, more than MAX_ELEMENTS * rank = 36:
    # it has built more than 12 elements of W, and is refused for that
    affine_a2 = DIFFERENTIAL_SYSTEMS["affine_A2"]
    system = CoxeterSystem(list(affine_a2[0]), affine_a2[1])
    star = DiagramAutomorphism.identity(system)
    assert system._ops().on_words
    assert len(system.twisted_involutions(star, 6)) == 10
    assert len(system._products) == 69
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 12)
    system = CoxeterSystem(list(affine_a2[0]), affine_a2[1])
    with pytest.raises(ValueError, match="more than 12 elements to enumerate"):
        system.twisted_involutions(star, 6)
    assert len(system._products) > 36
    assert len(system.twisted_involutions(star, 3)) == 7   # 15 more products


def test_root_walk_bounds_the_elements_it_names(monkeypatch):
    # on root coordinates (A3), the twisted walk over all of W keeps 10
    # words and names 16 elements besides the identity, the vertices among
    # them: with MAX_ELEMENTS = 12 it is refused for those, not for |W| = 24
    a3 = CoxeterSystem(list("rst"), {("r", "s"): 3, ("s", "t"): 3})
    star = DiagramAutomorphism.identity(a3)
    assert not a3._ops().on_words
    assert len(a3.twisted_involutions(star)) == 10
    assert a3._ops().built() == 17
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 16)
    a3 = CoxeterSystem(list("rst"), {("r", "s"): 3, ("s", "t"): 3})
    assert len(a3.twisted_involutions(star)) == 10
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 12)
    a3 = CoxeterSystem(list("rst"), {("r", "s"): 3, ("s", "t"): 3})
    with pytest.raises(ValueError, match="more than 12 elements to enumerate"):
        a3.twisted_involutions(star)
    assert len(a3.twisted_involutions(star, 3)) == 7    # 10 names
    with pytest.raises(ValueError, match="more than 12 elements to enumerate"):
        a3.enumerate()                  # a walk over all of W: refused up front


# -- the packing width of root coordinates ------------------------------------------


PHI = (1 + 5 ** 0.5) / 2


def positive_roots(system):
    """The positive roots of the system's root coordinates, each a tuple of
    coefficients a + b*phi as pairs (a, b): the closure of the simple roots
    under r(v) = v + (sum over t of a_rt v_t - 2 v_r) alpha_r, the Cartan
    entries read off `roots._CARTAN`.  A root is positive when its
    coefficients are; a float decides a + b*phi, which is at least
    1/(3|b|) away from 0 when it is not 0."""
    n = system.rank()

    def cartan(r, t):
        m = system.matrix[r][t]
        return roots._CARTAN[m][r > t] if m > 2 else (0, 0)

    def reflect(v, r):
        a, b = -2 * v[r][0], -2 * v[r][1]
        for t in range(n):
            if t != r:
                (p, q), (x, y) = cartan(r, t), v[t]
                a, b = a + p * x + q * y, b + p * y + q * x + q * y
        return v[:r] + ((v[r][0] + a, v[r][1] + b),) + v[r + 1:]
    simple = [tuple((int(s == t), 0) for t in range(n)) for s in range(n)]
    found, queue = set(simple), list(simple)
    for v in queue:
        for r in range(n):
            u = reflect(v, r)
            if u not in found and all(a + b * PHI > -1e-9 for a, b in u):
                found.add(u)
                queue.append(u)
    return found


POSITIVE_ROOT_COUNTS = {
    **{f"A{n}": n * (n + 1) // 2 for n in range(1, 9)},
    **{f"B{n}": n * n for n in range(2, 9)},
    **{f"D{n}": n * (n - 1) for n in range(4, 9)},
    "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6, "H3": 15, "H4": 60,
    "I2(5)": 5,
}


@pytest.mark.parametrize("name", POSITIVE_ROOT_COUNTS)
def test_packing_width_holds_every_positive_root(name):
    # the premises of root coordinates: every coefficient of every positive
    # root lies strictly inside the signed digits of the width the system
    # picks (so packed equality and digit reads are exact), that width is
    # the least such, and a coefficient a + b*phi has a, b >= 0, so the
    # packed int of a root's column has the root's sign (H3, H4 and I2(5)
    # are the finite types with an order 5)
    system = (CoxeterSystem.dihedral(5) if name == "I2(5)"
              else named_system(name))
    bits = system._ops().bits
    roots = positive_roots(system)
    assert len(roots) == POSITIVE_ROOT_COUNTS[name]
    largest = max(abs(c) for v in roots for pair in v for c in pair)
    assert largest < 1 << (bits - 1)
    assert largest >= 1 << (bits - 2)
    assert all(c >= 0 for v in roots for pair in v for c in pair)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.lists(st.integers(min_value=0, max_value=2), max_size=10))
@settings(max_examples=60, deadline=None)
def test_canonicalization_idempotent_random_words(word):
    system = make_canon_system()
    canon = system.canonical(word)
    assert system.canonical(canon) == canon
    # canonical word is ShortLex-minimal over its braid orbit
    orbit = braid_orbit(system, canon)
    assert canon == min(orbit)


_canon_system = None


def make_canon_system():
    global _canon_system
    if _canon_system is None:
        from wdigraph.coxeter import CoxeterSystem
        _canon_system = CoxeterSystem(
            ["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 4, ("r", "t"): 2})
    return _canon_system
