"""Golden outputs of the command-line interface.

Each row of the table runs `cli.main` in process on a fixed argv inside a
fresh temporary directory, and records its exit code and the sha256 of its
stdout and stderr, with the directory's path replaced by `<tmp>`.  The rows
build the LV and regular digraphs of A3, B3 and H3, the LV digraph of B4,
the named examples and the eight dihedral templates at two sizes each, run
every reading command on each of them, and feed a broken digraph, a
missing file and malformed JSON to the loaders.  `cli_golden.json` pins
every byte of those outputs; after a deliberate change of output, re-record
it with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from wdigraph.cli import main

GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")
TMP = "<tmp>"

SYSTEMS = {
    "a3": {"generators": ["r", "s", "t"], "matrix": {"r,s": 3, "s,t": 3, "r,t": 2}},
    "b3": {"generators": ["r", "s", "t"], "matrix": {"r,s": 3, "s,t": 4, "r,t": 2}},
    "h3": {"generators": ["r", "s", "t"], "matrix": {"r,s": 3, "s,t": 5, "r,t": 2}},
}

# B4 LV (76 vertices, with dashed edges) pins the module layer on a larger
# digraph; regular B4 is left out, since its --charpoly is a dense 384x384
# matrix
B4 = {"generators": ["q", "r", "s", "t"],
      "matrix": {"q,r": 3, "r,s": 3, "s,t": 4, "q,s": 2, "q,t": 2, "r,t": 2}}

# the I2(3) digraph whose vertex a meets no edge labeled t
BROKEN = {"system": {"generators": ["s", "t"], "matrix": {"s,t": 3}},
          "vertices": ["a", "b"],
          "edges": [{"from": "a", "to": "b", "label": "s", "style": "solid"}]}

RST_WORDS = "rs,st,sts"
ST_WORDS = "s,st,sts"

# per figure: (m, n) with n a multiple of the figure's divisor, then (m, n)
# with n not one (figures 7 and 8 exist for m = 1 and every n >= 2)
FAMILY_SIZES = {1: ((2, 2), (3, 4)), 2: ((2, 4), (3, 4)),
                3: ((2, 2), (3, 5)), 4: ((2, 3), (3, 6)),
                5: ((2, 6), (3, 6)), 6: ((2, 2), (3, 6)),
                7: ((1, 2), (1, 5)), 8: ((1, 3), (1, 4))}


def _digraphs() -> dict:
    """Digraph name -> (argv that builds it, words to evaluate on it)."""
    out = {}
    for system in SYSTEMS:
        for kind in ("lv", "regular"):
            out[f"{kind}-{system}"] = (
                [kind, "--system", f"{TMP}/{system}.json"], RST_WORDS)
    out["lv-b4"] = (["lv", "--system", f"{TMP}/b4.json"], "st,rst,qrs")
    for name in ("affine_a2_cycle", "b3_no_bar", "h3_nonselfassoc",
                 "ex_fig2", "ex_fig3"):
        out[f"example-{name}"] = (["example", name],
                                  ST_WORDS if name == "ex_fig2" else RST_WORDS)
    for figure, sizes in FAMILY_SIZES.items():
        for m, n in sizes:
            out[f"family-{figure}-m{m}-n{n}"] = (
                ["family", "--figure", str(figure), "--m", str(m),
                 "--n", str(n)], ST_WORDS)
    out["broken-i2-3"] = (None, ST_WORDS)
    return out


DIGRAPHS = _digraphs()


def _digraph_rows(name: str) -> list:
    """(row id, argv, file the row's stdout is written to) for one digraph."""
    build, words = DIGRAPHS[name]
    path = f"{TMP}/{name}.json"
    rows = [] if build is None else [(f"{name} build", build, path)]
    for label, argv in (
            ("validate", ["validate", path, "--both", "--explain"]),
            ("oracle", ["oracle", path]),
            ("analyze", ["analyze", path]),
            ("analyze-json", ["--format", "json", "analyze", path]),
            ("theorems-json", ["--format", "json", "theorems", path]),
            ("bar-op", ["bar-op", path]),
            ("export-dot", ["export-dot", path]),
            ("identities", ["identities", path, "--words", words]),
            ("character", ["character", path, "--words", words, "--charpoly"])):
        rows.append((f"{name} {label}", argv, None))
    return rows


def _error_rows() -> list:
    """A missing file and malformed JSON through every loader."""
    rows = []
    for kind in ("missing", "junk"):
        path = f"{TMP}/{kind}.json"
        for label, argv in (
                ("lv", ["lv", "--system", path]),
                ("regular", ["regular", "--system", path]),
                ("family", ["family", "--figure", "1", "--m", "2",
                            "--system", path]),
                ("validate", ["validate", path, "--both"]),
                ("oracle", ["oracle", path]),
                ("export-dot", ["export-dot", path])):
            rows.append((f"{kind} {label}", argv, None))
    return rows


def _prepare(tmp: Path) -> None:
    for name, data in SYSTEMS.items():
        (tmp / f"{name}.json").write_text(json.dumps(data))
    (tmp / "b4.json").write_text(json.dumps(B4))
    (tmp / "broken-i2-3.json").write_text(json.dumps(BROKEN))
    (tmp / "junk.json").write_text("{not json")


def _run(rows, tmp: Path) -> dict:
    """Row id -> [exit code, sha256 of stdout and stderr]."""
    table = {}
    for row, argv, target in rows:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.replace(TMP, str(tmp)) for a in argv])
        if target is not None:
            Path(target.replace(TMP, str(tmp))).write_text(out.getvalue())
        text = "\0".join((out.getvalue(), err.getvalue())).replace(str(tmp), TMP)
        table[row] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return table


def _all_rows() -> list:
    return [r for name in DIGRAPHS for r in _digraph_rows(name)] + _error_rows()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def _check(rows, tmp_path, golden):
    _prepare(tmp_path)
    got = _run(rows, tmp_path)
    differ = [row for row in got if got[row] != golden[row]]
    assert not differ, "output or exit code changed: " + ", ".join(differ)


@pytest.mark.parametrize("name", sorted(DIGRAPHS))
def test_digraph_commands_match_golden(name, tmp_path, golden):
    _check(_digraph_rows(name), tmp_path, golden)


def test_loader_errors_match_golden(tmp_path, golden):
    _check(_error_rows(), tmp_path, golden)


def test_table_has_one_entry_per_row(golden):
    assert sorted(golden) == sorted(row for row, _, _ in _all_rows())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _prepare(Path(tmp))
        table = _run(_all_rows(), Path(tmp))
    print("{\n" + ",\n".join(f" {json.dumps(row)}: {json.dumps(table[row])}"
                              for row in sorted(table)) + "\n}")
