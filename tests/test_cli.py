"""End-to-end tests for the command-line interface."""

import argparse
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdigraph import cli, coxeter, validator
from wdigraph.cli import main
from wdigraph.digraph import load_digraph
from wdigraph.families import EXAMPLE_NAMES, build_example

from test_validator import group_digraphs

SYSTEM_I2_3 = {"generators": ["s", "t"], "matrix": {"s,t": 3}}


@pytest.fixture()
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({
        "generators": ["r", "s", "t"],
        "matrix": {"r,s": 3, "s,t": 3, "r,t": 2},
    }))
    return str(path)


@pytest.fixture()
def affine_file(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({
        "generators": ["r", "s", "t"],
        "matrix": {"r,s": 3, "s,t": 3, "r,t": 3},
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_emits_json(capsys):
    code, out = run(capsys, "family", "--figure", "1", "--m", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 4
    assert len(data["edges"]) == 4


def test_family_usage_error(capsys):
    code = main(["family", "--figure", "1", "--m", "2"])
    assert code == 2


def test_lv_validate_both(capsys, tmp_path, a3_file):
    code, out = run(capsys, "lv", "--system", a3_file)
    assert code == 0
    dpath = tmp_path / "lv_a3_id.json"
    dpath.write_text(out)
    code, out = run(capsys, "validate", str(dpath), "--both", "--explain")
    assert code == 0
    assert "figure" in out and "oracle: ok" in out


def test_lv_star_flag(capsys, tmp_path, a3_file):
    code, out = run(capsys, "lv", "--system", a3_file, "--star", "r:t,s:s,t:r")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 10


def test_validate_rejects_broken(capsys, tmp_path):
    bad = {
        "system": {"generators": ["s"], "matrix": {}},
        "vertices": ["x", "y", "z"],
        "edges": [{"from": "x", "to": "y", "label": "s", "style": "solid"},
                  {"from": "x", "to": "z", "label": "s", "style": "solid"}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "violation" in out


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code = main(["validate", str(path)])
    assert code == 2


def test_character_charpoly_affine_cycle(capsys, tmp_path):
    code, out = run(capsys, "example", "affine_a2_cycle")
    assert code == 0
    dpath = tmp_path / "cycle.json"
    dpath.write_text(out)
    code, out = run(capsys, "character", str(dpath), "--words", "rst",
                    "--charpoly")
    assert code == 0
    # (L^2+1)(L^2-u^6)(L-u^6)^2 expanded
    assert "charpoly(T[rst]) = (-u^18) + (2*u^12)*x + (-u^6+u^12-u^18)*x^2" \
           " + (-2*u^6+2*u^12)*x^3 + (1-u^6+u^12)*x^4 + (-2*u^6)*x^5" \
           " + (1)*x^6" in out


def test_oracle_command(capsys, tmp_path):
    code, out = run(capsys, "family", "--figure", "4", "--m", "2", "--n", "4")
    dpath = tmp_path / "f.json"
    dpath.write_text(out)
    code, out = run(capsys, "oracle", str(dpath))
    assert code == 1
    assert "failing braid" in out
    code, out = run(capsys, "validate", str(dpath))
    assert code == 1


def test_validate_both_builds_no_witness(capsys, monkeypatch, tmp_path):
    """`validate --both` prints only the verdicts, so on the LV and regular
    digraphs of A3, B3, H3, A4, D4 and B4 it builds no `FamilyMatch`."""
    built = []
    real = validator.FamilyMatch

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(validator, "FamilyMatch", counted)
    checked = 0
    for label, g in group_digraphs():
        path = tmp_path / "g.json"
        path.write_text(g.to_json_text())
        code, out = run(capsys, "validate", str(path), "--both")
        assert (code, out) == (0, "accepted\noracle: ok\n"), label
        checked += 1
    assert checked == 12 and built == []


def test_validate_explain_divisibility_rejection(capsys, tmp_path):
    code, out = run(capsys, "family", "--figure", "4", "--m", "2", "--n", "4")
    dpath = tmp_path / "f.json"
    dpath.write_text(out)
    code, out = run(capsys, "validate", str(dpath), "--explain")
    assert code == 1
    assert out == ("pair (s,t), n = 4:\n"
                   "  rejected: figure 4 needs 3 | n, n = 4\n"
                   "rejected\n")


def test_analyze_json(capsys, tmp_path):
    code, out = run(capsys, "example", "affine_a2_cycle")
    dpath = tmp_path / "cycle.json"
    dpath.write_text(out)
    code, out = run(capsys, "--format", "json", "analyze", str(dpath))
    assert code == 0
    data = json.loads(out)
    assert data["dim_ind"] == 1 and data["dim_sgn"] == 0
    assert len(data["components"]) == 1


ANALYZE_TEXT = {
    "affine_a2_cycle": "component 0: 6 vertices, sources [], sinks [], cyclic\n"
                       "dim ind = 1 (components 1), dim sgn = 0 (acyclic 0)\n",
    "b3_no_bar": "component 0: 12 vertices, sources ['v0'], sinks ['v7'], "
                 "acyclic\n"
                 "dim ind = 1 (components 1), dim sgn = 1 (acyclic 1)\n",
    "h3_nonselfassoc": "component 0: 6 vertices, sources ['a1'], sinks ['b3'], "
                       "acyclic\n"
                       "dim ind = 1 (components 1), dim sgn = 1 (acyclic 1)\n",
    "ex_fig2": "component 0: 6 vertices, sources ['g1'], sinks ['g4'], acyclic\n"
               "dim ind = 1 (components 1), dim sgn = 1 (acyclic 1)\n",
    # acyclic with one source, yet the sign eigenvector does not exist
    "ex_fig3": "component 0: 4 vertices, sources ['g3'], sinks ['g1'], acyclic\n"
               "dim ind = 1 (components 1), dim sgn = 0 (acyclic 1)\n",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT))
def test_analyze_text_examples(capsys, tmp_path, name):
    code, out = run(capsys, "example", name)
    dpath = tmp_path / f"{name}.json"
    dpath.write_text(out)
    code, out = run(capsys, "analyze", str(dpath))
    assert code == 0
    assert out == ANALYZE_TEXT[name]


def test_bar_op_exit_codes(capsys, tmp_path):
    # b3_no_bar with its generators declared in name order and as t, s, r:
    # the propagation steps along the labels in name order, so both fail
    # first at the same edge
    code, out = run(capsys, "example", "b3_no_bar")
    data = json.loads(out)
    dpath = tmp_path / "b3.json"
    for generators in (["r", "s", "t"], ["t", "s", "r"]):
        data["system"]["generators"] = generators
        dpath.write_text(json.dumps(data))
        code, out = run(capsys, "bar-op", str(dpath))
        assert code == 1
        assert out.splitlines() == [
            "bar operator: inconsistent at edge v2 -> v4 [t, solid]",
            "first difference at v1: along the edge (1-u^2)/(u^4), "
            "along the tree 0"], generators
    code, out = run(capsys, "family", "--figure", "1", "--m", "2", "--n", "2")
    fpath = tmp_path / "fam.json"
    fpath.write_text(out)
    code, out = run(capsys, "bar-op", str(fpath))
    assert code == 0
    code, out = run(capsys, "example", "affine_a2_cycle")
    cpath = tmp_path / "cycle.json"
    cpath.write_text(out)
    code, out = run(capsys, "bar-op", str(cpath))
    assert code == 1
    assert out == "error: bar propagation needs a unique source\n"
    # one source, v3, whose edges reach only the sinks v5 and v0: the
    # directed cycle v1 -> v4 -> v2 -> v1 is never reached
    edges = [("v2", "v1", "r", "dashed"), ("v3", "v5", "r", "solid"),
             ("v4", "v0", "r", "dashed"), ("v1", "v0", "s", "dashed"),
             ("v3", "v5", "s", "solid"), ("v4", "v2", "s", "dashed"),
             ("v1", "v4", "t", "solid"), ("v2", "v5", "t", "dashed"),
             ("v3", "v0", "t", "solid")]
    cpath.write_text(json.dumps({
        "system": {"generators": ["r", "s", "t"],
                   "matrix": {"r,s": 3, "s,t": 3, "r,t": 2}},
        "vertices": [f"v{i}" for i in range(6)],
        "edges": [{"from": a, "to": b, "label": label, "style": style}
                  for a, b, label, style in edges]}))
    code, out = run(capsys, "bar-op", str(cpath))
    assert code == 1
    assert out == "error: not every vertex is reachable from the source\n"


def test_theorems_command(capsys, tmp_path, affine_file):
    code, out = run(capsys, "example", "affine_a2_cycle")
    dpath = tmp_path / "cycle.json"
    dpath.write_text(out)
    code, out = run(capsys, "--format", "json", "theorems", str(dpath))
    assert code == 0
    data = json.loads(out)
    assert data["wgraph_obstruction"] == {
        "evidence": {"dim_sgn": 0, "n_in_empty": 0, "n_in_full": 0, "sinks": 0},
        "message": "no W-graph over the rationals can afford this module",
        "status": "fires",
    }


def test_theorems_exit_codes(capsys, tmp_path):
    # a source_sink failure exits 1: the 4-cycle a -> b <- c -> d <- a
    dpath = tmp_path / "cycle4.json"
    dpath.write_text(json.dumps({
        "system": SYSTEM_I2_3, "vertices": ["a", "b", "c", "d"],
        "edges": [{"from": a, "to": b, "label": label, "style": "solid"}
                  for a, b, label in [("a", "b", "s"), ("c", "b", "t"),
                                      ("c", "d", "s"), ("a", "d", "t")]]}))
    code, out = run(capsys, "--format", "json", "theorems", str(dpath))
    assert code == 1
    assert json.loads(out)["source_sink"]["status"] == "fail"
    # an infinite order leaves nothing to check, and exits 0
    spath = tmp_path / "inf.json"
    spath.write_text(json.dumps({"generators": ["s", "t"],
                                 "matrix": {"s,t": "inf"}}))
    code, out = run(capsys, "family", "--system", str(spath), "--figure", "7",
                    "--m", "1")
    dpath.write_text(out)
    code, out = run(capsys, "--format", "json", "theorems", str(dpath))
    assert code == 0
    assert json.loads(out)["source_sink"] == {
        "status": "not-applicable", "reason": "some order is infinite"}


def test_bad_star_and_word_list_are_usage_errors(capsys, tmp_path, a3_file):
    assert main(["lv", "--system", a3_file, "--star", "s"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad automorphism entry 's'" in captured.err
    code, out = run(capsys, "example", "b3_no_bar")
    dpath = tmp_path / "b3.json"
    dpath.write_text(out)
    assert main(["character", str(dpath), "--words", "xq"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad word list 'xq'" in captured.err


def test_validate_both_reports_disagreement(capsys, monkeypatch, tmp_path):
    code, out = run(capsys, "example", "b3_no_bar")
    dpath = tmp_path / "b3.json"
    dpath.write_text(out)
    witness = validator.RelationWitness("braid", ("r", "s"), "v0")
    monkeypatch.setattr(cli, "brute_force_check", lambda g: witness)
    code, out = run(capsys, "validate", str(dpath), "--both")
    assert code == 1
    assert out == ("accepted\n"
                   "oracle: failing braid relation for r,s at column v0\n"
                   "DISAGREEMENT between classifier and oracle\n")


def test_identities_command(capsys, tmp_path):
    code, out = run(capsys, "family", "--figure", "2", "--m", "2", "--n", "2")
    dpath = tmp_path / "f2.json"
    dpath.write_text(out)
    code, out = run(capsys, "identities", str(dpath), "--words", "e,s,st")
    assert code == 0
    assert "FAIL" not in out


def test_export_dot(capsys, tmp_path):
    code, out = run(capsys, "family", "--figure", "8", "--m", "1", "--n", "3")
    dpath = tmp_path / "f8.json"
    dpath.write_text(out)
    code, out = run(capsys, "export-dot", str(dpath))
    assert code == 0
    assert out.startswith("digraph G {") and "style=dashed" in out


def test_regular_roundtrip(capsys, tmp_path, a3_file):
    code, out = run(capsys, "regular", "--system", a3_file)
    assert code == 0
    data = json.loads(out)
    g = load_digraph(data)
    assert len(g.vertices) == 24
    assert json.dumps(g.to_json(), sort_keys=True) == \
        json.dumps(json.loads(out), sort_keys=True)


def test_regular_infinite_needs_bound(capsys, affine_file):
    code = main(["regular", "--system", affine_file])
    assert code == 2


def test_deterministic_output(capsys, a3_file):
    _, out1 = run(capsys, "lv", "--system", a3_file)
    _, out2 = run(capsys, "lv", "--system", a3_file)
    assert out1 == out2


def test_orbit_bound_flag(capsys, a3_file):
    # not an option of wdigraph: argparse reports a usage error
    code = main(["--orbit-bound", "5", "lv", "--system", a3_file])
    assert code == 2


@pytest.mark.parametrize("generators,matrix,vertices", [
    pytest.param("pqrst", {"p,q": 3, "q,r": 3, "r,s": 3, "s,t": 3}, 76, id="A5"),
    pytest.param("qrst", {"q,r": 3, "r,s": 4, "s,t": 3}, 140, id="F4"),
])
def test_lv_validate_large_groups(capsys, tmp_path, generators, matrix, vertices):
    spath = tmp_path / "system.json"
    spath.write_text(json.dumps({"generators": list(generators), "matrix": matrix}))
    code, out = run(capsys, "lv", "--system", str(spath))
    assert code == 0 and len(json.loads(out)["vertices"]) == vertices
    dpath = tmp_path / "lv.json"
    dpath.write_text(out)
    code, out = run(capsys, "validate", str(dpath), "--both")
    assert code == 0 and out == "accepted\noracle: ok\n"


def fig7_over_order(order):
    """Figure 7 (two parallel solid edges) over I2(order), whatever order is."""
    return {"system": {"generators": ["s", "t"], "matrix": {"s,t": order}},
            "vertices": ["a", "b"],
            "edges": [{"from": "a", "to": "b", "label": g, "style": "solid"}
                      for g in "st"]}


def test_lv_element_bound(capsys, monkeypatch, tmp_path):
    # I2(7) x A1 walks canonical words, so its lv is refused from
    # |W| = 28 > MAX_ELEMENTS before any element is built
    path = tmp_path / "i27a1.json"
    path.write_text(json.dumps({"generators": ["r", "s", "t"],
                                "matrix": {"s,t": 7}}))
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 20)
    code = main(["lv", "--system", str(path)])
    assert code == 2
    assert "error: more than 20 elements" in capsys.readouterr().err
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 28)
    code, out = run(capsys, "lv", "--system", str(path))
    assert code == 0 and len(json.loads(out)["vertices"]) == 16


def test_bounded_lv_element_bound(capsys, monkeypatch, a3_file):
    # a bounded walk that keeps few words is refused on the work it does:
    # on A3's root coordinates, the 9 words up to length 5 take 16 names
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 12)
    code = main(["lv", "--system", a3_file, "--length-bound", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: more than 12 elements to enumerate\n"
    code, out = run(capsys, "lv", "--system", a3_file, "--length-bound", "3")
    assert code == 0 and len(json.loads(out)["vertices"]) == 7


@pytest.mark.parametrize("command", ["lv", "regular"])
def test_negative_length_bound_is_usage_error(capsys, a3_file, command):
    code = main([command, "--system", a3_file, "--length-bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: length bound must be >= 0, not -1\n"
    code, out = run(capsys, command, "--system", a3_file, "--length-bound", "0")
    assert code == 0 and json.loads(out)["vertices"] == ["e"]


def test_theorems_has_no_element_bound(capsys, monkeypatch, tmp_path, a3_file):
    code, out = run(capsys, "lv", "--system", a3_file)
    assert code == 0
    dpath = tmp_path / "lv.json"
    dpath.write_text(out)
    expected = run(capsys, "theorems", str(dpath))
    monkeypatch.setattr(coxeter, "MAX_ELEMENTS", 20)
    assert run(capsys, "theorems", str(dpath)) == expected


E7_SYSTEM = {"generators": list("abcdfgh"),
             "matrix": {"a,b": 3, "b,c": 3, "c,d": 3, "d,f": 3, "f,g": 3,
                        "c,h": 3}}


@pytest.mark.parametrize("data,order", [
    pytest.param({"system": E7_SYSTEM, "vertices": ["x", "y"],
                  "edges": [{"from": "x", "to": "y", "label": g,
                             "style": "solid"} for g in "abcdfgh"]},
                 2_903_040, id="E7_pair"),
    pytest.param(fig7_over_order(10**6), 2 * 10**6, id="I2(10^6)"),
])
def test_theorems_on_large_groups(capsys, tmp_path, data, order):
    dpath = tmp_path / "g.json"
    dpath.write_text(json.dumps(data))
    code, out = run(capsys, "--format", "json", "theorems", str(dpath))
    assert code == 0
    report = json.loads(out)
    assert report["vertex_bound"]["group_order"] == order
    assert report["index_bound"]["per_subset"]["empty"] == [2, order]


@pytest.mark.parametrize("data", [
    pytest.param({"system": SYSTEM_I2_3, "vertices": ["a", "b"],
                  "edges": [["a", "b", "s", "solid"]]}, id="edge_lists"),
    pytest.param({"system": SYSTEM_I2_3, "vertices": ["a", "b"],
                  "edges": "x"}, id="edges_string"),
    pytest.param([1, 2], id="top_level_array"),
    pytest.param({"system": SYSTEM_I2_3, "vertices": [1, 2],
                  "edges": [{"from": 1, "to": 2, "label": g, "style": "solid"}
                            for g in "st"]}, id="numeric_vertex_ids"),
    pytest.param({"system": "", "vertices": [], "edges": []},
                 id="system_path_is_a_directory"),
    *(pytest.param(fig7_over_order(order), id=name) for name, order in [
        ("order_3_9", 3.9), ("order_2_0", 2.0), ("order_string", "3")]),
])
def test_malformed_digraph_is_usage_error(capsys, tmp_path, data):
    dpath = tmp_path / "bad.json"
    dpath.write_text(json.dumps(data))
    for argv in (["validate"], ["validate", "--both"], ["export-dot"]):
        code = main([argv[0], str(dpath), *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad digraph file")


@pytest.mark.parametrize("argv", [
    ["theorems"], ["analyze"], ["character", "--words", "s"],
    ["identities", "--words", "s"], ["oracle"], ["validate", "--oracle"],
    ["bar-op"],
])
def test_broken_digraph_reports_violations(capsys, tmp_path, argv):
    # a two-vertex I2(3) digraph with an s-edge and no t-edge
    dpath = tmp_path / "broken.json"
    dpath.write_text(json.dumps({
        "system": SYSTEM_I2_3, "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "label": "s", "style": "solid"}]}))
    code, out = run(capsys, argv[0], str(dpath), *argv[1:])
    assert code == 1
    assert out == ("violation: vertex a meets 0 edges labeled t\n"
                   "violation: vertex b meets 0 edges labeled t\n")


def test_validate_both_on_broken_digraph(capsys, tmp_path):
    # the oracle's structure witness has no generators and no column
    dpath = tmp_path / "broken.json"
    dpath.write_text(json.dumps({
        "system": SYSTEM_I2_3, "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "label": "s", "style": "solid"}]}))
    code, out = run(capsys, "validate", str(dpath), "--both")
    assert code == 1
    assert out == ("structural violations:\n"
                   "  vertex a meets 0 edges labeled t\n"
                   "  vertex b meets 0 edges labeled t\n"
                   "rejected\n"
                   "oracle: rejected (structural violations)\n")


@pytest.mark.parametrize("generators", [
    pytest.param(["a", "b", "c", "d", "e"], id="named_e"),
    pytest.param(["s", "t,u"], id="comma"),
    pytest.param(["a", "b", "ab"], id="multi_char"),
])
@pytest.mark.parametrize("command", ["lv", "regular"])
def test_unsafe_generator_names_are_usage_errors(capsys, tmp_path, generators,
                                                 command):
    spath = tmp_path / "system.json"
    spath.write_text(json.dumps({"generators": generators, "matrix": {}}))
    code = main([command, "--system", str(spath)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bad system file {spath}")


def test_unsafe_generator_name_in_digraph_file(capsys, tmp_path):
    dpath = tmp_path / "named_e.json"
    dpath.write_text(json.dumps({
        "system": {"generators": ["e"], "matrix": {}}, "vertices": ["x", "y"],
        "edges": [{"from": "x", "to": "y", "label": "e", "style": "solid"}]}))
    code = main(["validate", str(dpath)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad digraph file")


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--s", "ab"], "generator name 'ab' is not one character",
                 id="multi_char"),
    pytest.param(["--s", "e"], 'generator name "e" is reserved for the identity',
                 id="named_e"),
    pytest.param(["--t", ","], "generator name ',' contains ','", id="comma"),
    pytest.param(["--s", "a", "--t", "a"], "generator names must be distinct",
                 id="equal"),
    pytest.param(["--n", "1"], "order n(s,t) must be >= 2 or inf", id="order"),
    # --n 0 is given, so the message names the bad order, not a missing --n
    pytest.param(["--n", "0"], "order n(s,t) must be >= 2 or inf",
                 id="order_zero"),
])
def test_family_refuses_what_other_commands_would(capsys, flags, message):
    # without the check, validate would refuse the emitted digraph
    code = main(["family", "--figure", "1", "--m", "2", "--n", "3", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_family_with_named_generators_round_trips(capsys, tmp_path):
    code, out = run(capsys, "family", "--figure", "1", "--m", "3", "--n", "3",
                    "--s", "a", "--t", "b")
    assert code == 0
    assert json.loads(out)["system"]["generators"] == ["a", "b"]
    dpath = tmp_path / "family_ab.json"
    dpath.write_text(out)
    code, out = run(capsys, "validate", str(dpath))
    assert code == 0
    assert out == "accepted\n"


def test_multi_char_generator_in_digraph_file(capsys, tmp_path):
    # "ab" would make the element strings of a,b and ab collide
    dpath = tmp_path / "multi_char.json"
    dpath.write_text(json.dumps({
        "system": {"generators": ["a", "ab"], "matrix": {}},
        "vertices": ["x", "y"],
        "edges": [{"from": "x", "to": "y", "label": "a", "style": "solid"},
                  {"from": "x", "to": "y", "label": "ab", "style": "solid"}]}))
    code = main(["validate", str(dpath)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad digraph file {dpath}: generator "
                            "name 'ab' is not one character\n")


def test_validate_oracle_flag(capsys, tmp_path, a3_file):
    code, out = run(capsys, "lv", "--system", a3_file)
    dpath = tmp_path / "lv.json"
    dpath.write_text(out)
    code, out = run(capsys, "validate", str(dpath), "--oracle")
    assert code == 0 and "oracle: ok" in out


# -- the exit-code contract on damaged digraph files ---------------------------------------


def fuzz_bases():
    """The named examples, plus ex_fig2 with its system in "system.json"."""
    bases = [build_example(name).to_json() for name in EXAMPLE_NAMES]
    by_path = dict(bases[EXAMPLE_NAMES.index("ex_fig2")], system="system.json")
    return bases + [by_path]


FUZZ_BASES = fuzz_bases()
FUZZ_SYSTEM = FUZZ_BASES[EXAMPLE_NAMES.index("ex_fig2")]["system"]
FUZZ_COMMANDS = (["validate", "--both"], ["analyze"], ["theorems"], ["bar-op"],
                 ["export-dot"])
# where a change lands: a path of keys, PICK choosing a list entry
PICK = object()
FUZZ_PARTS = {"key": (), "system key": ("system",),
              "matrix entry": ("system", "matrix"), "vertex": ("vertices",),
              "edge": ("edges",), "edge field": ("edges", PICK)}
JUNK = (None, 0, 7, -1, 2.5, True, "", "s", "solid", "nowhere", [], ["a"], {},
        {"from": "a"})


def damage(data, part, action, pick, junk):
    """Drop, retype or duplicate one entry of a digraph file's JSON, or point
    an edge at an unknown vertex; a change that does not apply is skipped."""
    target = data
    for step in FUZZ_PARTS[part]:
        if step is PICK:
            target = (target[pick % len(target)]
                      if isinstance(target, list) and target else None)
        else:
            target = target.get(step) if isinstance(target, dict) else None
    if not isinstance(target, (dict, list)) or not target:
        return
    if action == "redirect":
        if isinstance(target, dict) and part == "edge field":
            target[("from", "to")[pick % 2]] = "nowhere"
        return
    key = (sorted(target)[pick % len(target)] if isinstance(target, dict)
           else pick % len(target))
    if action == "drop":
        del target[key]
    elif action == "retype":
        target[key] = copy.deepcopy(junk)
    elif isinstance(target, list):
        target.append(copy.deepcopy(target[key]))


damage_st = st.tuples(st.sampled_from(sorted(FUZZ_PARTS)),
                      st.sampled_from(["drop", "retype", "duplicate", "redirect"]),
                      st.integers(0, 60), st.sampled_from(JUNK))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, len(FUZZ_BASES) - 1),
       st.lists(damage_st, min_size=1, max_size=3))
def test_damaged_files_keep_the_exit_code_contract(base, damages):
    data = copy.deepcopy(FUZZ_BASES[base])
    for part, action, pick, junk in damages:
        damage(data, part, action, pick, junk)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "system.json").write_text(json.dumps(FUZZ_SYSTEM))
        dpath = Path(tmp) / "damaged.json"
        dpath.write_text(json.dumps(data))
        for argv in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([argv[0], str(dpath), *argv[1:]])
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.getvalue().startswith("error:"), argv


# -- one parser per process ------------------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_builds_no_parser():
    """The parser is built on first use: a process that only imports the
    CLI (as every set-up of the benchmark does) pays nothing for it."""
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counting\n"
             "import wdigraph.cli\n"
             "assert not built, len(built)\n")
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def test_main_calls_share_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert main(["example", "b3_no_bar"]) == 0
    first = len(built)
    assert first > 1                    # the parser and its subparsers
    assert main(["example", "ex_fig2"]) == 0
    assert len(built) == first


def test_back_to_back_calls_match_fresh_processes(tmp_path, monkeypatch):
    """Calls in one process answer byte for byte as the first call of a
    fresh process does: the parser keeps no state between them."""
    monkeypatch.setenv("COLUMNS", "80")     # usage lines wrap at this width
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(build_example("b3_no_bar").to_json_text())
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in (["--format", "json", "theorems", "f.json"],
                 ["theorems", "f.json"], ["theorems"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        fresh = subprocess.run([sys.executable, "-m", "wdigraph.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 2 and "required: digraph" in err.getvalue()
