"""The package keeps only what the program uses.

Every top-level function or class in `src/wdigraph`, and every non-dunder
method of a top-level class, must be referenced by name somewhere in `src/`
or `bench/` outside its own body; so must every non-dunder name that a
module assigns at top level, outside its own assignment.  A reference is a
loaded `Name`, a loaded `Attribute` or an imported name.  The only
exceptions are the public names in `PAPER_API`, through which a test states
a paper claim or a public output; an entry that gains a caller in `src/` no
longer needs the exception and must leave the list.  Helpers that only
tests call belong in the tests (`tests/conftest.py`).

The caller count matches a method by its bare name, so a method that
another class of the package also defines is kept alive by the other's
callers.  `SHARED_METHOD_NAMES` pins those names, so that a new clash is
reviewed.  Each module also imports alone, in a fresh interpreter, which no
import order of the test session can stand in for.
"""

import ast
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wdigraph"

PAPER_API = {
    "hecke.supports_digraph":
        "decides whether Hecke elements span a module with a W-digraph basis",
    "hecke.dihedral_case_basis":
        "the paper's explicit bases for the eight dihedral templates",
    "hecke.bar":
        "the bar involution of the Hecke algebra (with exactalg.ubar)",
    "modrep.zero_hecke_action":
        "the 0-Hecke action read off a digraph's edges",
    "modrep.ModuleRep.rho_inv":
        "dense rho(T_w)^-1, entry point of the Q(u) reversal reference",
    "coxeter.CoxeterSystem.bruhat_leq":
        "the Bruhat order on W",
    "coxeter.CoxeterSystem.conjugation_automorphism_by_w0":
        "s -> w0 s* w0, through which the LV reversal theorem is stated",
    "coxeter.CoxeterSystem.longest_element":
        "w0, through which the LV reversal and 0-Hecke sink claims are stated",
    "digraph.SLabeledDigraph.labeled_isomorphic":
        "label-preserving isomorphism, stated against its reference",
}

# method name -> the classes defining it, for every name defined on more
# than one class of the package
SHARED_METHOD_NAMES = {
    "_walk": {"coxeter.CoxeterSystem", "digraph.SLabeledDigraph"},
    "identity": {"coxeter.CoxeterSystem", "coxeter.DiagramAutomorphism"},
    "inverse": {"coxeter.GroupElement", "exactalg.RatFunc"},
    "is_zero": {"exactalg.Poly", "exactalg.RatFunc"},
    "scale": {"exactalg.Poly", "exactalg.RatMatrix", "hecke.HeckeElt"},
    "to_json": {"coxeter.CoxeterSystem", "digraph.SLabeledDigraph"},
    "zero": {"exactalg.RatMatrix", "hecke.HeckeElt"},
}


def _definitions():
    """(qualified name, bare name, def node) for every top-level function
    and class of the package and every non-dunder method of its classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree) -> tuple[Counter, Counter]:
    """(loaded attribute names, loaded bare and imported names)."""
    attrs, names = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            attrs[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return attrs, names


def _count(refs, qual: str, name: str) -> int:
    """A method is reached only as an attribute; a top-level function or
    class also by its bare or imported name."""
    attrs, names = refs
    return attrs[name] + (names[name] if qual.count(".") == 1 else 0)


def _tree_references(directories) -> tuple[Counter, Counter]:
    """`_references` summed over every Python file under directories."""
    attrs, names = Counter(), Counter()
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            file_attrs, file_names = _references(ast.parse(path.read_text()))
            attrs.update(file_attrs)
            names.update(file_names)
    return attrs, names


def _callers(directories) -> dict:
    """Qualified name -> number of references outside its own body."""
    attrs, names = _tree_references(directories)
    return {qual: (_count((attrs, names), qual, name)
                   - _count(_references(node), qual, name))
            for qual, name, node in _definitions()}


def test_every_definition_has_a_caller_in_src_or_bench():
    callers = _callers([PACKAGE, ROOT / "bench"])
    unused = sorted(q for q, n in callers.items()
                    if n == 0 and q not in PAPER_API)
    assert not unused, ("defined in src but used only by tests or by "
                        "nothing; move them to tests/conftest.py or delete "
                        "them: " + ", ".join(unused))


def _assignments():
    """(qualified name, bare name, assignment node) for every non-dunder
    name a module of the package assigns at top level."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not (name.id.startswith("__")
                                     and name.id.endswith("__"))):
                        yield f"{path.stem}.{name.id}", name.id, node


def test_every_module_constant_has_a_reader_in_src_or_bench():
    attrs, names = _tree_references([PACKAGE, ROOT / "bench"])
    unread = []
    for qual, name, node in _assignments():
        own_attrs, own_names = _references(node)
        if (attrs[name] + names[name]
                - own_attrs[name] - own_names[name]) == 0:
            unread.append(qual)
    assert not unread, ("assigned in src but read only by tests or by "
                        "nothing; move them to tests/conftest.py or delete "
                        "them: " + ", ".join(sorted(unread)))


def test_paper_api_is_minimal():
    callers = _callers([PACKAGE])
    assert set(PAPER_API) <= set(callers), (
        "PAPER_API names what src no longer defines: "
        + ", ".join(sorted(set(PAPER_API) - set(callers))))
    called = sorted(q for q in PAPER_API if callers[q] > 0)
    assert not called, ("PAPER_API entries that src now calls, so they "
                        "need no exception: " + ", ".join(called))


def test_shared_method_names_are_pinned():
    classes = defaultdict(set)
    for qual, name, _ in _definitions():
        if qual.count(".") == 2:
            classes[name].add(qual.rsplit(".", 1)[0])
    shared = {name: owners for name, owners in classes.items()
              if len(owners) > 1}
    assert shared == SHARED_METHOD_NAMES, (
        "a method name defined on more than one class keeps each of them "
        "alive for the caller count; check that every one of them has its "
        "own caller in src or bench, then update SHARED_METHOD_NAMES")


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "__init__"))
def test_module_imports_alone(module):
    # an import cycle between two modules shows only when one of them is
    # imported first, in an interpreter that has imported neither
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    subprocess.run([sys.executable, "-c", f"import wdigraph.{module}"],
                   check=True, env=env)
