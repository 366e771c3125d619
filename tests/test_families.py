"""Tests for the digraph family constructors."""

import pytest

from wdigraph.coxeter import CoxeterSystem, DiagramAutomorphism
from wdigraph.digraph import DASHED, SOLID, Edge
from wdigraph.exactalg import RF_ZERO, rf
from wdigraph.families import (FamilySpec, build_family, build_lv,
                               build_example, build_regular,
                               family_divisibility_ok)
from wdigraph.modrep import ModuleRep

from conftest import left_descents


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(1, 1)
    with pytest.raises(ValueError):
        FamilySpec(7, 2)
    with pytest.raises(ValueError):
        FamilySpec(9, 2)
    with pytest.raises(ValueError):
        FamilySpec(1, 2, "s", "s")


def test_figure1_m2():
    g = build_family(CoxeterSystem.dihedral(2), FamilySpec(1, 2))
    assert len(g.vertices) == 4
    assert all(e.style == SOLID for e in g.edges)
    assert g.sources() == ["a0"] and g.sinks() == ["b2"]


def test_figure7():
    g = build_family(CoxeterSystem.dihedral(3), FamilySpec(7, 1))
    assert set(g.edges) == {Edge("a0", "b1", "s", SOLID),
                            Edge("a0", "b1", "t", SOLID)}


def test_figure6_m3_dashes():
    g = build_family(CoxeterSystem.dihedral(4), FamilySpec(6, 3))
    dashed = {e for e in g.edges if e.style == DASHED}
    # m odd, so the terminal label on the left arc is s and on the right is t
    assert dashed == {Edge("a0", "a1", "s", DASHED),
                      Edge("a0", "b1", "t", DASHED),
                      Edge("a2", "b3", "s", DASHED),
                      Edge("b2", "b3", "t", DASHED)}


def test_figure2_terminal_labels_even_m():
    g = build_family(CoxeterSystem.dihedral(2), FamilySpec(2, 2))
    dashed = {e for e in g.edges if e.style == DASHED}
    assert dashed == {Edge("a0", "a1", "s", DASHED),
                      Edge("b1", "b2", "s", DASHED)}


def test_alternating_labels():
    g = build_family(CoxeterSystem.dihedral(5), FamilySpec(1, 5))
    left = ["a0", "a1", "a2", "a3", "a4", "b5"]
    labels = []
    for a, b in zip(left, left[1:]):
        labels.extend(e.label for e in g.edges if (e.src, e.dst) == (a, b))
    assert labels == ["s", "t", "s", "t", "s"]


def test_divisibility_table():
    assert family_divisibility_ok(1, 3, 9)
    assert not family_divisibility_ok(1, 3, 10)
    assert family_divisibility_ok(4, 2, 3)
    assert not family_divisibility_ok(4, 2, 4)
    assert family_divisibility_ok(6, 3, 8)
    assert not family_divisibility_ok(6, 3, 6)
    assert family_divisibility_ok(7, 1, 2)
    assert not family_divisibility_ok(2, 1, 4)


def test_lv_a3_identity(a3):
    g = build_lv(a3, DiagramAutomorphism.identity(a3))
    assert len(g.vertices) == 10
    assert g.validate_structure() == []
    assert g.sources() == ["e"]
    assert Edge("e", "s", "s", DASHED) in g.edges
    # the long dashed edge into the longest element
    w0 = str(a3.longest_element())
    rtstr = str(a3.element("rtstr"))
    assert Edge(rtstr, w0, "s", DASHED) in g.edges


def test_lv_a3_flip(a3):
    flip = DiagramAutomorphism.from_mapping(a3, {"r": "t", "t": "r"})
    g = build_lv(a3, flip)
    assert len(g.vertices) == 10
    assert g.validate_structure() == []
    assert g.sources() == ["e"]
    rt = str(a3.element("rt"))
    assert Edge("e", rt, "r", SOLID) in g.edges
    assert Edge("e", rt, "t", SOLID) in g.edges


def test_lv_b3(b3):
    g = build_lv(b3, DiagramAutomorphism.identity(b3))
    assert len(g.vertices) == 20
    assert g.validate_structure() == []


def test_lv_reversal_theorem(a3, b3):
    # reversing the identity-twist digraph gives the w0-conjugated twist,
    # via the vertex relabeling x -> x w0
    ident = DiagramAutomorphism.identity(a3)
    sharp = a3.conjugation_automorphism_by_w0(ident)
    lv_id = build_lv(a3, ident)
    lv_sharp = build_lv(a3, sharp)
    w0 = a3.longest_element()
    relabel = {name: str(a3.element(name if name != "e" else "") * w0)
               for name in lv_id.vertices}
    mapped = sorted(Edge(relabel[e.src], relabel[e.dst], e.label, e.style)
                    for e in lv_id.reverse().edges)
    assert mapped == sorted(lv_sharp.edges)
    # w0 central in B3, so reversal fixes the digraph up to isomorphism
    lv_b = build_lv(b3, DiagramAutomorphism.identity(b3))
    assert lv_b.reverse().labeled_isomorphic(lv_b) is not None


def test_regular_a1():
    a1 = CoxeterSystem(["s"], {})
    g = build_regular(a1)
    assert g.edges == (Edge("e", "s", "s", SOLID),)


def test_regular_a3(a3):
    g = build_regular(a3)
    assert len(g.vertices) == 24
    assert g.validate_structure() == []
    assert g.sources() == ["e"]
    assert g.sinks() == [str(a3.longest_element())]
    assert len(g.components()) == 1


def test_regular_character_is_left_regular():
    # the trace of a generator acting on the regular module equals the trace
    # of left multiplication on the algebra: (u^2-1) once per descent
    i23 = CoxeterSystem.dihedral(3)
    g = build_regular(i23)
    rep = ModuleRep(g)
    assert rep.character(i23.identity()) == rf(6)
    n_descents = sum(1 for w in i23.enumerate()
                     if 0 in left_descents(i23, w))
    assert rep.character(i23.gen("s")) == rf([-1, 0, 1]).__mul__(rf(n_descents))


def test_example_shapes():
    cyc = build_example("affine_a2_cycle")
    assert len(cyc.vertices) == 6 and cyc.validate_structure() == []
    b3g = build_example("b3_no_bar")
    assert len(b3g.vertices) == 12 and b3g.validate_structure() == []
    assert b3g.sources() == ["v0"] and b3g.sinks() == ["v7"]
    h3g = build_example("h3_nonselfassoc")
    assert len(h3g.vertices) == 6 and h3g.validate_structure() == []
    exf2 = build_example("ex_fig2")
    assert len(exf2.vertices) == 6 and exf2.validate_structure() == []
    exf3 = build_example("ex_fig3")
    assert len(exf3.vertices) == 4 and exf3.validate_structure() == []
    with pytest.raises(ValueError):
        build_example("nope")


def test_h3_fixture_dash_pattern():
    g = build_example("h3_nonselfassoc")
    assert g.sources() == ["a1"] and g.sinks() == ["b3"]
    dashed_labels = sorted(e.label for e in g.edges if e.style == DASHED)
    assert dashed_labels == ["r", "s", "t"]
    into_sink = sorted(e.label for e in g.edges if e.dst == "b3")
    assert into_sink == ["r", "s", "t"]
