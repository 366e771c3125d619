"""End-to-end tests for the command-line interface."""

import json

import pytest

from wdigraph.cli import main
from wdigraph.digraph import load_digraph


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


def test_bar_op_exit_codes(capsys, tmp_path):
    code, out = run(capsys, "example", "b3_no_bar")
    dpath = tmp_path / "b3.json"
    dpath.write_text(out)
    code, out = run(capsys, "bar-op", str(dpath))
    assert code == 1 and "v4" in out
    code, out = run(capsys, "family", "--figure", "1", "--m", "2", "--n", "2")
    fpath = tmp_path / "fam.json"
    fpath.write_text(out)
    code, out = run(capsys, "bar-op", str(fpath))
    assert code == 0


def test_theorems_command(capsys, tmp_path, affine_file):
    code, out = run(capsys, "example", "affine_a2_cycle")
    dpath = tmp_path / "cycle.json"
    dpath.write_text(out)
    code, out = run(capsys, "--format", "json", "theorems", str(dpath))
    assert code == 0
    data = json.loads(out)
    assert data["wgraph_obstruction"]["status"] == "fires"


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
    code = main(["--orbit-bound", "-1", "lv", "--system", a3_file])
    assert code == 2
    code, out = run(capsys, "--orbit-bound", "100000", "lv",
                    "--system", a3_file)
    assert code == 0


def test_validate_oracle_flag(capsys, tmp_path, a3_file):
    code, out = run(capsys, "lv", "--system", a3_file)
    dpath = tmp_path / "lv.json"
    dpath.write_text(out)
    code, out = run(capsys, "validate", str(dpath), "--oracle")
    assert code == 0 and "oracle: ok" in out
