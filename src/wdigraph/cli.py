"""Command-line interface.

Subcommands build digraphs (family, lv, regular, example), decide validity
(validate, oracle), and compute module-level data (analyze, character,
identities, bar-op, theorems, export-dot).  Exit codes: 0 for success or
acceptance, 1 for rejection or inconsistency, 2 for usage errors.  All output
is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .coxeter import CoxeterSystem, DiagramAutomorphism, check_generator_name
from .digraph import SLabeledDigraph, load_digraph
from .exactalg import char_poly, lampoly_str
from .families import (EXAMPLE_NAMES, FamilySpec, build_example, build_family,
                       build_lv, build_regular)
from .modrep import (ModuleRep, bar_from_source, linear_char_dims,
                     reversal_identities, theorem_checkers)
from .validator import brute_force_check, is_w_digraph


class UsageError(Exception):
    pass


class StructureError(Exception):
    """The digraph breaks the one-edge-per-label invariant."""


def _load(loader, noun: str, path: str):
    """loader(path), with every way a file can fail turned into a UsageError
    that names the noun ("system" or "digraph")."""
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise UsageError(f"{noun} file not found: {exc.filename}") from exc
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            AttributeError) as exc:
        raise UsageError(f"bad {noun} file {path}: {exc}") from exc


def _load_module_digraph(path: str) -> SLabeledDigraph:
    """A digraph that module computations can act on: one edge per label at
    every vertex."""
    g = _load(load_digraph, "digraph", path)
    problems = g.validate_structure()
    if problems:
        raise StructureError("\n".join(f"violation: {p}" for p in problems))
    return g


def _parse_star(system: CoxeterSystem, text: str | None) -> DiagramAutomorphism:
    if not text or text == "id":
        return DiagramAutomorphism.identity(system)
    mapping = {}
    for part in text.split(","):
        if ":" not in part:
            raise UsageError(f"bad automorphism entry {part!r}; use src:dst")
        src, dst = part.split(":", 1)
        mapping[src.strip()] = dst.strip()
    return DiagramAutomorphism.from_mapping(system, mapping)


def _parse_words(system: CoxeterSystem, text: str):
    try:
        words = [system.element(word) for word in text.split(",") if word != ""]
    except ValueError as exc:
        raise UsageError(f"bad word list {text!r}: {exc}") from exc
    if not words:
        raise UsageError(f"bad word list {text!r}: no word in it")
    return words


def _builder(cmd):
    """A subcommand that builds a digraph and prints it as JSON.  A
    ValueError on the way, from the system, the automorphism or the
    builder, is a usage error."""
    def run(args) -> int:
        try:
            g = cmd(args)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        print(g.to_json_text())
        return 0
    return run


@_builder
def cmd_family(args) -> SLabeledDigraph:
    if args.system:
        system = _load(CoxeterSystem.from_json, "system", args.system)
    elif args.n is not None:
        for name in (args.s, args.t):
            check_generator_name(name)
        system = CoxeterSystem.dihedral(args.n, (args.s, args.t))
    else:
        raise UsageError("family needs --system or --n")
    spec = FamilySpec(args.figure, args.m, args.s, args.t)
    return build_family(system, spec)


@_builder
def cmd_lv(args) -> SLabeledDigraph:
    system = _load(CoxeterSystem.from_json, "system", args.system)
    star = _parse_star(system, args.star)
    return build_lv(system, star, args.length_bound)


@_builder
def cmd_regular(args) -> SLabeledDigraph:
    system = _load(CoxeterSystem.from_json, "system", args.system)
    return build_regular(system, args.length_bound)


@_builder
def cmd_example(args) -> SLabeledDigraph:
    return build_example(args.name)


def _oracle_line(witness) -> str:
    if witness is None:
        return "oracle: ok"
    if witness.kind == "structure":
        return "oracle: rejected (structural violations)"
    return (f"oracle: failing {witness.kind} relation for "
            f"{','.join(witness.generators)} at column {witness.column}")


def cmd_validate(args) -> int:
    if args.oracle and not args.both:
        return cmd_oracle(args)
    g = _load(load_digraph, "digraph", args.digraph)
    verdict = is_w_digraph(g)
    accepted = verdict.is_w_digraph
    if args.explain or verdict.structural_violations:
        print(verdict.describe())
    else:
        print("accepted" if accepted else "rejected")
    if args.both:
        witness = brute_force_check(g)
        print(_oracle_line(witness))
        if (witness is None) != accepted:
            print("DISAGREEMENT between classifier and oracle")
            return 1
    return 0 if accepted else 1


def cmd_oracle(args) -> int:
    g = _load_module_digraph(args.digraph)
    witness = brute_force_check(g)
    print(_oracle_line(witness))
    return 0 if witness is None else 1


def cmd_analyze(args) -> int:
    g = _load_module_digraph(args.digraph)
    analysis = g.analyze()
    dims = linear_char_dims(g)
    if args.format == "json":
        payload = {
            "components": [vars(c) for c in analysis.components],
            "dim_ind": dims.dim_ind,
            "dim_sgn": dims.dim_sgn,
            "violations": [],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for i, c in enumerate(analysis.components):
            print(f"component {i}: {len(c.vertices)} vertices, "
                  f"sources {list(c.sources)}, sinks {list(c.sinks)}, "
                  f"{'acyclic' if c.acyclic else 'cyclic'}")
        print(f"dim ind = {dims.dim_ind} (components {dims.predicted_ind}), "
              f"dim sgn = {dims.dim_sgn} (acyclic {dims.predicted_sgn})")
    return 0


def cmd_character(args) -> int:
    g = _load_module_digraph(args.digraph)
    rep = ModuleRep(g)
    words = _parse_words(g.system, args.words)
    for w in words:
        value = rep.character(w)
        print(f"character(T[{w}]) = {value}")
        if args.charpoly:
            cp = char_poly(rep.rho(w))
            print(f"charpoly(T[{w}]) = {lampoly_str(cp)}")
    return 0


def cmd_identities(args) -> int:
    g = _load_module_digraph(args.digraph)
    words = _parse_words(g.system, args.words)
    all_ok = True
    for report in reversal_identities(g, words):
        bits = [f"word {report.word}:",
                f"twist matrix {'ok' if report.twist_matrix else 'FAIL'}",
                f"trace {'ok' if report.twist_trace else 'FAIL'}"]
        if report.skipped:
            bits.append(f"sign skipped ({report.skipped})")
        else:
            bits.append(f"sign matrix {'ok' if report.sign_matrix else 'FAIL'}")
            bits.append(f"trace {'ok' if report.sign_trace else 'FAIL'}")
            all_ok = all_ok and report.sign_matrix and report.sign_trace
        all_ok = all_ok and report.twist_matrix and report.twist_trace
        print("  ".join(bits))
    return 0 if all_ok else 1


def cmd_bar_op(args) -> int:
    g = _load_module_digraph(args.digraph)
    try:
        sol = bar_from_source(g)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    if sol.consistent:
        print("bar operator: consistent source-fixing solution found")
        return 0
    edge, got, tree = sol.witness
    print(f"bar operator: inconsistent at edge {edge.src} -> {edge.dst} "
          f"[{edge.label}, {edge.style}]")
    i = next(i for i, (a, b) in enumerate(zip(got, tree)) if a != b)
    print(f"first difference at {g.vertices[i]}: along the edge {got[i]}, "
          f"along the tree {tree[i]}")
    return 1


def cmd_theorems(args) -> int:
    g = _load_module_digraph(args.digraph)
    payload = vars(theorem_checkers(g))
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    failed = any(v.get("status") == "fail" for v in payload.values())
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    print(_load(load_digraph, "digraph", args.digraph).to_dot())
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on first use and kept for the process:
    each `parse_args` returns a fresh namespace, and the subcommands'
    functions read the module's names when they run."""
    parser = argparse.ArgumentParser(
        prog="wdigraph",
        description="Exact computation with labeled digraphs for Coxeter "
                    "systems and their Hecke-algebra modules.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="emit a dihedral template digraph")
    p.add_argument("--figure", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", default="s")
    p.add_argument("--t", default="t")
    p.add_argument("--n", type=int, help="build over the dihedral system I2(n)")
    p.add_argument("--system", help="system file to build over")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("lv", help="twisted-involution digraph of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--star", help="diagram automorphism, e.g. r:t,s:s,t:r")
    p.add_argument("--length-bound", type=int)
    p.set_defaults(func=cmd_lv)

    p = sub.add_parser("regular", help="left-regular digraph of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--length-bound", type=int)
    p.set_defaults(func=cmd_regular)

    p = sub.add_parser("example", help="a named example digraph")
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("validate", help="decide validity by classification")
    p.add_argument("digraph")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force relation check instead")
    p.add_argument("--both", action="store_true",
                   help="run both deciders and cross-check")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="brute-force relation check")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("analyze", help="components, sources, sinks, acyclicity")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("character", help="character values at given words")
    p.add_argument("digraph")
    p.add_argument("--words", required=True)
    p.add_argument("--charpoly", action="store_true")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("identities", help="reversal identities at given words")
    p.add_argument("digraph")
    p.add_argument("--words", required=True)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("bar-op", help="source-fixing bar operator propagation")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_bar_op)

    p = sub.add_parser("theorems", help="structure theorem report")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("export-dot", help="emit the digraph in DOT format")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
