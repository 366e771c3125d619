"""Self-test of the benchmark's checks: wrong answers must count as failed.

For each workload a few cheap ops run twice: once against the program as it
is, where none may fail, and once with one or more program functions swapped
for versions that answer wrongly or raise, where every op that reaches a
swapped function must be counted as failed.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from pathlib import Path

from refclock import RefClock
from run import OUT, import_program, run_pass
from tracing import Tracer
from workloads import SETUPS, groups_pipeline


def _flip_verdict(W):
    real = W.validator.is_w_digraph

    def wrong(g):
        verdict = real(g)
        return dataclasses.replace(verdict, is_w_digraph=not verdict.is_w_digraph)
    W.validator.is_w_digraph = wrong


def _oracle_rejects(W):
    real = W.cli.brute_force_check
    W.cli.brute_force_check = lambda g: real(g) or W.validator.RelationWitness(
        "braid", ("r", "s"), "e")


def _corrupt_modules(W):
    ex, modrep = W.exactalg, W.modrep
    real_cp, real_rev, real_dims = (ex.char_poly, modrep.reversal_identities,
                                    modrep.linear_char_dims)

    def char_poly(m):
        cp = real_cp(m)
        return (cp[0] + ex.RF_ONE,) + cp[1:]

    def reversal_identities(g, words):
        return [dataclasses.replace(r, twist_matrix=False)
                for r in real_rev(g, words)]

    def linear_char_dims(g):
        dims = real_dims(g)
        return dataclasses.replace(dims, dim_sgn=dims.dim_sgn + 1)

    def bar_from_source(g):
        raise ValueError("deliberately broken")

    ex.char_poly = char_poly
    modrep.reversal_identities = reversal_identities
    modrep.linear_char_dims = linear_char_dims
    modrep.bar_from_source = bar_from_source


def _first_ops(workload: str, count: int):
    def make(W, work: Path):
        return SETUPS[workload](W, random.Random(1), work, Tracer(False)).ops[:count]
    return make


# workload -> (ops to try, program patch, kinds of op the patch reaches)
CASES = {
    "groups": (lambda W, work: groups_pipeline(W, "A3", work), _oracle_rejects,
               {"validate"}),
    "templates": (_first_ops("templates", 40), _flip_verdict, {"decide"}),
    "modules": (_first_ops("modules", 60), _corrupt_modules,
                {"identities", "character", "linear_char_dims", "bar"}),
}


def self_test() -> int:
    OUT.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=OUT, prefix="selftest-") as tmp:
        for workload, (make_ops, patch, reached) in CASES.items():
            W = import_program()
            ops = make_ops(W, Path(tmp))
            expected = sum(op.kind in reached for op in ops)
            clean, broken = [], []
            run_pass(ops, Tracer(False), RefClock(), [], clean)
            patch(W)
            run_pass(ops, Tracer(False), RefClock(), [], broken)
            passed = not clean and len(broken) == expected and expected > 0
            ok = ok and passed
            print(f"self-test {workload}: {len(ops)} ops, {len(clean)} failed "
                  f"as is, {len(broken)} of {expected} expected failed when "
                  f"broken: {'ok' if passed else 'FAIL'}")
            for problem in (clean + broken)[:3]:
                print(f"  e.g. {problem}")
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1
