"""Closed-loop benchmark of the wdigraph library and CLI.

    python3 bench/run.py --workload {groups,templates,modules} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Run from the repository root; the program is imported from `src/`.  One
caller, single-threaded: each op starts when the previous one returns, and
every answer is checked.  Whole passes over the workload's ops run until
`--seconds` have passed and at least MIN_OPS ops are done.

`--trace 0` prints the end-to-end metrics.  Their times are nominal: each
op's wall time is scaled by the host's speed around it, sampled by a fixed
reference loop (see refclock.py), so that a slow phase of a shared host does
not read as a slow program.  Wall times are printed and recorded beside
them.  `--trace 1` alternates an
untraced and a traced pass instead, ends with a control probe, and prints
the per-layer metrics derived from the spans.  The last line of stdout is
one JSON object; a copy of the result with its metadata (and the spans, when
traced) is written under `bench/out/`.  See bench/README.md for the layer
map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from refclock import RefClock
from tracing import Tracer
from workloads import SETUPS, control_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

LAYERS = ("cli", "coxeter", "families", "digraph", "validator", "modrep",
          "hecke", "exactalg")
SETUP_REPEATS = 7
MIN_OPS = 100           # at least three passes of `groups` (36 ops a pass)

# per-layer metric -> unit; "_s" names are summed span seconds
PER_LAYER = {
    "cli.main_s": "s", "cli.stdout_bytes": "B",
    "coxeter.enumerate_s": "s", "coxeter.twisted_involutions_s": "s",
    "coxeter.element_s": "s", "coxeter.elements": "count",
    "families.build_lv_s": "s", "families.build_regular_s": "s",
    "families.build_family_s": "s",
    "digraph.load_digraph_s": "s", "digraph.to_json_s": "s",
    "digraph.analyze_s": "s", "digraph.equal_path_lengths_check_s": "s",
    "digraph.restrict_s": "s", "digraph.components_s": "s",
    "digraph.vertices": "count", "digraph.edges": "count",
    "validator.is_w_digraph_s": "s", "validator.brute_force_check_s": "s",
    "validator.accept_ratio": "ratio", "validator.decided": "count",
    "modrep.ModuleRep_s": "s", "modrep.rho_s": "s", "modrep.character_s": "s",
    "modrep.dim": "count", "modrep.reversal_identities_s": "s",
    "modrep.linear_char_dims_s": "s", "modrep.bar_from_source_s": "s",
    "modrep.bar_consistent_ratio": "ratio", "modrep.bar_attempts": "count",
    "modrep.theorem_checkers_s": "s",
    "hecke.invert_Tw_s": "s", "hecke.invert_Tw_terms": "count",
    "exactalg.char_poly_s": "s", "exactalg.char_poly_dim": "count",
    "exactalg.solve_simultaneous_eigenspace_s": "s", "exactalg.sigma_s": "s",
    "exactalg.ratfunc_mul_s": "s", "exactalg.ratfunc_add_s": "s",
    "exactalg.poly_gcd_s": "s", "exactalg.ratfunc_ops": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead": "ratio", "trace.spans": "count",
}


def import_program() -> SimpleNamespace:
    """Import every wdigraph module afresh from src/, dropping earlier imports."""
    for name in [m for m in sys.modules
                 if m == "wdigraph" or m.startswith("wdigraph.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"wdigraph.{layer}")
            for layer in LAYERS}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != SRC / "wdigraph":
            raise ImportError(f"{mod.__name__} was imported from "
                              f"{mod.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def run_op(op, tr, clock) -> tuple[float, float, str | None]:
    """Time one op's call, then check its answer; any exception is a failure.
    Returns (wall s, nominal s, problem or None)."""
    if op.own_process:
        gc.collect()
    answer, wall, nominal = clock.time(lambda: op.call(tr))
    if isinstance(answer, Exception):
        return wall, nominal, f"{op.kind}: {type(answer).__name__}: {answer}"
    try:
        return wall, nominal, op.check(answer)
    except Exception as exc:
        return wall, nominal, f"{op.kind} check: {type(exc).__name__}: {exc}"


def run_pass(ops, tr, clock, latencies: list, failures: list):
    """One pass over the ops; appends (wall s, nominal s) per op."""
    for i, op in enumerate(ops):
        tr.op = i
        with tr.span("op." + op.kind):
            wall, nominal, problem = run_op(op, tr, clock)
        latencies.append((wall, nominal))
        if problem:
            failures.append(problem)


def setup(workload: str, seed: int, work: Path, tr, clock):
    """Import the program and build the workload SETUP_REPEATS times; the last
    build is the one measured.  Returns (program, workload, [(wall s,
    nominal s)] per set-up)."""
    times = []
    for k in range(SETUP_REPEATS):
        def build():
            W = import_program()
            return W, SETUPS[workload](
                W, random.Random(seed), work,
                tr if k == SETUP_REPEATS - 1 else Tracer(False))
        built, wall, nominal = clock.time(build)
        if isinstance(built, Exception):
            raise built
        W, wl = built
        times.append((wall, nominal))
    return W, wl, times


def measure(wl, seconds: float, tr, clock) -> dict:
    """Untraced closed loop: whole passes until the time is up."""
    latencies, failures = [], []
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(wl.ops, tr, clock, latencies, failures)
        passes += 1
        if time.perf_counter() - start >= seconds and len(latencies) >= MIN_OPS:
            break
    return {"latencies": latencies, "failures": failures, "passes": passes}


def measure_traced(W, wl, seconds: float, tr, clock, work: Path) -> dict:
    """Pairs of (untraced, traced) passes until the time is up, then the
    control probe."""
    latencies, failures, walls = [], [], []
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < seconds:
        pairs += 1
        tr.enabled = False
        t0 = time.perf_counter()
        run_pass(wl.ops, tr, clock, latencies, failures)
        untraced = time.perf_counter() - t0
        tr.enabled = True
        tr.phase = f"pass{pairs}"
        t0 = time.perf_counter()
        run_pass(wl.ops, tr, clock, latencies, failures)
        traced = time.perf_counter() - t0 - tr.probe_seconds(tr.phase)
        walls.append((untraced, traced))
    tr.phase = "control"
    tr.op = None
    control_probe(W, tr, wl.control, work)
    return {"latencies": latencies, "failures": failures, "passes": 2 * pairs,
            "walls": walls}


def end_to_end(latencies: list, n_ops: int, setup_times: list) -> dict:
    """The end-to-end metrics over per-op seconds, in pass order, and
    per-set-up seconds.  The latency percentiles are taken over the ops of a
    pass, each op at its median over the passes, so that a slow moment in
    one pass moves no percentile."""
    per_op = [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]
    return {
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }


def per_layer(tr, walls: list) -> dict:
    """Layer metrics: setup and control spans once, plus the median over the
    traced passes of each pass's sum."""
    by_phase: dict[str, dict[str, float]] = {}
    for span, own in zip(tr.spans, tr.self_times()):
        sums = by_phase.setdefault(span.phase, {})
        sums["trace.spans"] = sums.get("trace.spans", 0) + 1
        layer = span.name.split(".")[0]
        if layer in LAYERS:
            sums[span.name + "_s"] = sums.get(span.name + "_s", 0.0) + \
                span.end - span.start
            sums[layer + ".self_s"] = sums.get(layer + ".self_s", 0.0) + own
    for phase, counts in tr.counts.items():
        by_phase.setdefault(phase, {}).update(counts)
    passes = [p for p in by_phase if p.startswith("pass")]

    def value(name):
        once = sum(by_phase.get(p, {}).get(name, 0) for p in ("setup", "control"))
        return once + statistics.median(by_phase[p].get(name, 0) for p in passes)

    out = {name: value(name) for name, unit in PER_LAYER.items()
           if unit != "ratio"}
    out["validator.accept_ratio"] = (value("validator.accepted")
                                     / out["validator.decided"])
    out["modrep.bar_consistent_ratio"] = (value("modrep.bar_consistent")
                                          / out["modrep.bar_attempts"])
    out["trace.overhead"] = (sum(t for _, t in walls)
                             / sum(u for u, _ in walls))
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


def metadata(args, run: dict, n_ops: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": run["passes"], "ops_per_pass": n_ops,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_loc": source_loc(),
    }


def git_sha() -> str | None:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "wdigraph").glob("*.py")))


def benchmark(args) -> int:
    tr = Tracer(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    # traced runs time spans in wall seconds: the clock is not started, so
    # it leaves the program uninterrupted and returns wall time as nominal
    clock = RefClock()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp, \
            (contextlib.nullcontext() if args.trace else clock):
        work = Path(tmp)
        W, wl, setup_times = setup(args.workload, args.seed, work, tr, clock)
        if args.trace:
            run = measure_traced(W, wl, args.seconds, tr, clock, work)
            metrics = per_layer(tr, run["walls"])
        else:
            run = measure(wl, args.seconds, tr, clock)
            metrics = end_to_end([n for _, n in run["latencies"]],
                                 len(wl.ops), [n for _, n in setup_times])
            wall = end_to_end([w for w, _ in run["latencies"]], len(wl.ops),
                              [w for w, _ in setup_times])
    attempted, failed = len(run["latencies"]), len(run["failures"])
    meta = metadata(args, run, len(wl.ops))
    meta["speed_samples"] = clock.samples()
    for name, (value, unit) in metrics.items():
        line = f"{name:42s} {value:14.6g} {unit}"
        if not args.trace and name != "peak_rss_mib":
            line += f"  (wall {wall[name][0]:.6g})"
        print(line)
    print(f"{'fail_ratio':42s} {failed / attempted:14.6g} ratio "
          f"({failed}/{attempted})")
    for problem in run["failures"][:10]:
        print(f"FAILED {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"meta": meta, "result": result, "setup_times": setup_times,
              "latencies": run["latencies"],
              "failures": run["failures"]}
    if args.trace:
        record["trace"] = tr.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("groups", "templates", "modules"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that wrong answers are counted as failed")
    args = parser.parse_args(argv)
    if not (SRC / "wdigraph" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'wdigraph'}; run from the "
              f"repository root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
