"""The three benchmark workloads: inputs made from a seed, ops and their checks.

An op is one closed-loop call into the program.  `call` does the work the
user would ask for and returns the answer; `check` returns None when the
answer is right and a message when it is not.  Only `call` is timed.

Every call into the program goes through the module namespace `W` at call
time (`W.validator.is_w_digraph(...)`), so the self-test can swap a function
for one that answers wrongly.  The spans name the layer and public function
they wrap; calls marked `probe=True` repeat, on the same inputs, work that a
larger entry point does internally, and are made only by the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import Tracer

# name -> (Coxeter matrix, |W|, number of involutions = vertices of the
# identity-twisted digraph).  A5 and F4 are left out: their braid orbits pass
# the default orbit bound, so `enumerate` fails with OrbitBoundExceeded after
# 15 s (A5) and 88 s (F4).
GROUPS = {
    "A3": ({"r,s": 3, "s,t": 3}, 24, 10),
    "B3": ({"r,s": 3, "s,t": 4}, 48, 20),
    "H3": ({"r,s": 3, "s,t": 5}, 120, 32),
    "A4": ({"q,r": 3, "r,s": 3, "s,t": 3}, 120, 26),
    "D4": ({"q,s": 3, "r,s": 3, "s,t": 3}, 192, 44),
    "B4": ({"q,r": 3, "r,s": 3, "s,t": 4}, 384, 76),
}
THEOREM_OK = ("pass", "not-applicable")

# rank-three matrices of the `modules` fixtures built here (the rest are the
# program's named examples)
A3 = {"r,s": 3, "s,t": 3}
B3 = {"r,s": 3, "s,t": 4}
MODULE_FIXTURES = ("lv_a3", "lv_a3_flip", "lv_b3", "regular_a3",
                   "h3_nonselfassoc", "b3_no_bar", "affine_a2_cycle")
CYCLIC = "affine_a2_cycle"
# expected outcome of bar propagation: consistent, inconsistent at a vertex,
# or refused because the digraph has no unique source
BAR_EXPECTED = {name: ("consistent", None) for name in MODULE_FIXTURES}
BAR_EXPECTED["b3_no_bar"] = ("inconsistent", "v4")
BAR_EXPECTED[CYCLIC] = ("refused", "source")

GRID_ACCEPTED = 77        # template grid inputs satisfying divisibility


@dataclass
class Op:
    kind: str
    call: Callable[[Tracer], object]
    check: Callable[[object], str | None]
    # the op stands for a command in a process of its own: garbage is
    # collected before it is timed, so it starts from the same heap each time
    own_process: bool = False


@dataclass
class Workload:
    ops: list[Op]          # one pass, in the order the seed chose
    control: object        # small digraph of this workload for the control probe


def system_json(orders: dict) -> dict:
    gens = sorted({g for key in orders for g in key.split(",")})
    return {"generators": gens, "matrix": orders}


def make_system(W, orders: dict):
    return W.coxeter.CoxeterSystem.from_json(system_json(orders))


# -- groups: CLI pipelines, cold Coxeter memo on every call -----------------------------


def run_cli(W, tr: Tracer, argv: list[str]) -> tuple[int, str]:
    """`wdigraph <argv>` in process, stdout captured as the shell would."""
    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = W.cli.main(argv)
    out = buf.getvalue()
    tr.count("cli.stdout_bytes", len(out.encode()))
    return code, out


def _probe_build(W, tr: Tracer, sysfile: str, kind: str):
    """Cold enumeration on a fresh system, then the digraph built on the warm one."""
    fresh = W.coxeter.CoxeterSystem.from_json(sysfile)
    with tr.span("coxeter.enumerate", probe=True):
        tr.count("coxeter.elements", len(fresh.enumerate()))
    star = W.coxeter.DiagramAutomorphism.identity(fresh)
    if kind == "lv":
        with tr.span("coxeter.twisted_involutions", probe=True):
            fresh.twisted_involutions(star)
        with tr.span("families.build_lv", probe=True):
            W.families.build_lv(fresh, star)
    else:
        with tr.span("families.build_regular", probe=True):
            W.families.build_regular(fresh)


def _probe_load(W, tr: Tracer, path: str):
    with tr.span("digraph.load_digraph", probe=True):
        g = W.digraph.load_digraph(path)
    tr.count("digraph.vertices", len(g.vertices))
    tr.count("digraph.edges", len(g.edges))
    return g


def _probe_validate(W, tr: Tracer, g):
    """The classifier and the oracle, and the pieces they are built from."""
    gens = g.system.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            with tr.span("digraph.restrict", probe=True):
                r = g.restrict((gens[i], gens[j]))
            with tr.span("digraph.components", probe=True):
                r.components()
    with tr.span("validator.is_w_digraph", probe=True):
        accepted = W.validator.is_w_digraph(g).is_w_digraph
    tr.count("validator.decided")
    tr.count("validator.accepted", int(accepted))
    with tr.span("modrep.ModuleRep", probe=True):
        tr.count("modrep.dim", W.modrep.ModuleRep(g).n)
    with tr.span("validator.brute_force_check", probe=True):
        W.validator.brute_force_check(g)


def groups_pipeline(W, name: str, work: Path) -> list[Op]:
    """One group's six ops; the first two write the files the rest read."""
    orders, order, n_lv = GROUPS[name]
    sysfile = str(work / f"{name}.system.json")
    Path(sysfile).write_text(json.dumps(system_json(orders)))
    files = {"lv": str(work / f"lv_{name}.json"),
             "regular": str(work / f"regular_{name}.json")}
    expected_vertices = {"lv": n_lv, "regular": order}

    def build(kind):
        def call(tr):
            code, out = run_cli(W, tr, [kind, "--system", sysfile])
            Path(files[kind]).write_text(out)
            if tr.enabled:
                _probe_build(W, tr, sysfile, kind)
                with tr.span("digraph.to_json", probe=True):
                    _probe_load(W, tr, files[kind]).to_json()
            return code, out

        def check(answer):
            code, out = answer
            if code != 0:
                return f"{kind} {name}: exit {code}"
            got = len(json.loads(out)["vertices"])
            if got != expected_vertices[kind]:
                return f"{kind} {name}: {got} vertices, expected " \
                       f"{expected_vertices[kind]}"
            return None
        return Op(kind, call, check, own_process=True)

    def validate(kind):
        def call(tr):
            code, out = run_cli(W, tr, ["validate", files[kind], "--both"])
            if tr.enabled:
                _probe_validate(W, tr, _probe_load(W, tr, files[kind]))
            return code, out

        def check(answer):
            code, out = answer
            lines = out.splitlines()
            if code != 0 or lines != ["accepted", "oracle: ok"]:
                return f"validate {kind} {name}: exit {code}, output {lines}"
            return None
        return Op("validate", call, check, own_process=True)

    def theorems(kind):
        def call(tr):
            code, out = run_cli(W, tr, ["--format", "json", "theorems",
                                        files[kind]])
            if tr.enabled:
                g = _probe_load(W, tr, files[kind])
                with tr.span("coxeter.enumerate", probe=True):
                    tr.count("coxeter.elements", len(g.system.enumerate()))
                with tr.span("modrep.theorem_checkers", probe=True):
                    W.modrep.theorem_checkers(g)
                with tr.span("digraph.analyze", probe=True):
                    g.analyze()
                with tr.span("digraph.equal_path_lengths_check", probe=True):
                    g.equal_path_lengths_check()
            return code, out

        def check(answer):
            code, out = answer
            statuses = {k: v.get("status") for k, v in json.loads(out).items()}
            if code != 0 or any(s not in THEOREM_OK for s in statuses.values()):
                return f"theorems {kind} {name}: exit {code}, {statuses}"
            return None
        return Op("theorems", call, check, own_process=True)

    return [build("lv"), build("regular"), validate("lv"), validate("regular"),
            theorems("lv"), theorems("regular")]


def setup_groups(W, rng: random.Random, work: Path, tr: Tracer) -> Workload:
    """Six groups, each through lv/regular -> validate --both -> theorems.

    The seed orders the groups within a pass; each group's ops keep their
    pipeline order.
    """
    names = list(GROUPS)
    rng.shuffle(names)
    ops = [op for name in names for op in groups_pipeline(W, name, work)]
    a3 = make_system(W, GROUPS["A3"][0])
    control = W.families.build_lv(a3, W.coxeter.DiagramAutomorphism.identity(a3))
    return Workload(ops, control)


# -- templates: many small digraphs decided twice ----------------------------------------------


def random_two_label(rng: random.Random, n_vertices: int, solid: str,
                     dashed: str) -> tuple[list, list]:
    """Vertices and edges of a random 2-regular digraph over labels s and t.

    Each label pairs the vertices by a random perfect matching; each pair
    becomes one edge with a random direction and style.
    """
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for label in ("s", "t"):
        shuffled = list(vertices)
        rng.shuffle(shuffled)
        for k in range(0, n_vertices, 2):
            a, b = shuffled[k], shuffled[k + 1]
            if rng.random() < 0.5:
                a, b = b, a
            style = solid if rng.random() < 0.5 else dashed
            edges.append((a, b, label, style))
    return vertices, edges


def _decide_op(W, g, expected: bool | None, label: str) -> Op:
    def call(tr):
        with tr.span("validator.is_w_digraph"):
            classified = W.validator.is_w_digraph(g).is_w_digraph
        with tr.span("validator.brute_force_check"):
            oracle = W.validator.brute_force_check(g) is None
        if tr.enabled:
            tr.count("validator.decided")
            tr.count("validator.accepted", int(classified))
            tr.count("digraph.vertices", len(g.vertices))
            tr.count("digraph.edges", len(g.edges))
            with tr.span("digraph.restrict", probe=True):
                r = g.restrict(g.system.generators)
            with tr.span("digraph.components", probe=True):
                r.components()
            with tr.span("modrep.ModuleRep", probe=True):
                tr.count("modrep.dim", W.modrep.ModuleRep(g).n)
        return classified, oracle

    def check(answer):
        classified, oracle = answer
        if classified != oracle:
            return f"{label}: classifier {classified}, oracle {oracle}"
        if expected is not None and classified != expected:
            return f"{label}: accepted {classified}, divisibility {expected}"
        return None
    return Op("decide", call, check)


def setup_templates(W, rng: random.Random, work: Path, tr: Tracer) -> Workload:
    """Criterion 1's template grid plus 1,000 seeded random digraphs.

    Grid: figures 1-8, m <= 5, n = 2..10 (234 inputs, 77 accepted).  Random:
    200 digraphs whose sizes cycle through 2, 4, ..., 12 vertices, each over
    I2(n) for n = 2..6.  The seed makes the random digraphs and the op order;
    the sizes are fixed so that the work per pass depends less on the seed.
    """
    dihedral = {n: W.coxeter.CoxeterSystem.dihedral(n) for n in range(2, 11)}
    ops = []
    accepted = 0
    control = None
    for figure in range(1, 9):
        for m in ([1] if figure in (7, 8) else [2, 3, 4, 5]):
            spec = W.families.FamilySpec(figure, m)
            for n in range(2, 11):
                with tr.span("families.build_family"):
                    g = W.families.build_family(dihedral[n], spec)
                expected = W.families.family_divisibility_ok(figure, m, n)
                accepted += expected
                if expected and (control is None
                                 or len(g.vertices) > len(control.vertices)):
                    control = g
                ops.append(_decide_op(W, g, expected,
                                      f"figure {figure} m={m} n={n}"))
    if accepted != GRID_ACCEPTED:
        raise RuntimeError(f"family_divisibility_ok accepts {accepted} grid "
                           f"inputs, expected {GRID_ACCEPTED}")
    solid, dashed = W.digraph.SOLID, W.digraph.DASHED
    for k in range(200):
        nv = 2 * (k % 6 + 1)
        vertices, edges = random_two_label(rng, nv, solid, dashed)
        for n in range(2, 7):
            g = W.digraph.SLabeledDigraph(dihedral[n], vertices, edges)
            ops.append(_decide_op(W, g, None, f"random #{k} n={n}"))
    rng.shuffle(ops)
    return Workload(ops, control)


# -- modules: library calls on warm systems --------------------------------------------------


def _module_fixtures(W, tr: Tracer) -> dict:
    a3, b3 = make_system(W, A3), make_system(W, B3)
    ident = W.coxeter.DiagramAutomorphism.identity
    flip = W.coxeter.DiagramAutomorphism.from_mapping(a3, {"r": "t", "t": "r"})
    out = {}
    with tr.span("families.build_lv"):
        out["lv_a3"] = W.families.build_lv(a3, ident(a3))
        out["lv_a3_flip"] = W.families.build_lv(a3, flip)
        out["lv_b3"] = W.families.build_lv(b3, ident(b3))
    with tr.span("families.build_regular"):
        out["regular_a3"] = W.families.build_regular(a3)
    for name in ("h3_nonselfassoc", "b3_no_bar", CYCLIC):
        out[name] = W.families.build_example(name)
    return out


def _words(W, system, max_length: int) -> list[str]:
    """Canonical words up to a length, from a scratch copy of the system so
    that the fixture's own memo starts cold."""
    scratch = W.coxeter.CoxeterSystem.from_json(system.to_json())
    return [str(w) for w in scratch.enumerate(max_length)]


def _probe_identity_parts(W, tr: Tracer, g, w):
    for x in (w, w.inverse()):
        with tr.span("hecke.invert_Tw", probe=True):
            tr.count("hecke.invert_Tw_terms", len(W.hecke.invert_Tw(x).coeffs))
    with tr.span("modrep.ModuleRep", probe=True):
        rep = W.modrep.ModuleRep(g)
    with tr.span("modrep.rho", probe=True):
        m = rep.rho(w)
    with tr.span("exactalg.sigma", probe=True):
        for row in m.rows:
            for x in row:
                W.exactalg.sigma(x)


def _identity_op(W, name: str, g, word: str) -> Op:
    system = g.system
    cyclic = name == CYCLIC
    # the cycle's sign identity fails at T_rst with the values 2 vs -2
    witness = cyclic and word == "rst"

    def call(tr):
        with tr.span("coxeter.element"):
            w = system.element(word)
        with tr.span("modrep.reversal_identities"):
            report = W.modrep.reversal_identities(g, [w])[0]
        values = None
        if witness:
            ex = W.exactalg
            with tr.span("modrep.ModuleRep"):
                rep, rev = W.modrep.ModuleRep(g), W.modrep.ModuleRep(g.reverse())
            with tr.span("modrep.character"):
                chi_rev = rev.character(w)
            with tr.span("hecke.invert_Tw"):
                inv = W.hecke.invert_Tw(w)
            with tr.span("modrep.rho"):
                sign_side = -(ex.RF_U ** 6) * rep.rho_elt(inv).trace()
            values = (chi_rev, sign_side)
        if tr.enabled:
            _probe_identity_parts(W, tr, g, w)
        return report, values

    def check(answer):
        report, values = answer
        where = f"identities {name} {word}"
        if not (report.twist_matrix and report.twist_trace):
            return f"{where}: twist identity fails"
        if cyclic:
            if report.skipped is None:
                return f"{where}: sign identity not skipped on a cycle"
        elif report.skipped or not (report.sign_matrix and report.sign_trace):
            return f"{where}: sign identity fails ({report.skipped})"
        if witness and values != (W.exactalg.rf(2), W.exactalg.rf(-2)):
            return f"{where}: cycle values {values}, expected 2 vs -2"
        return None
    return Op("identities", call, check)


def _character_op(W, name: str, g, word: str) -> Op:
    system = g.system

    def call(tr):
        with tr.span("coxeter.element"):
            w = system.element(word)
        with tr.span("modrep.ModuleRep"):
            rep = W.modrep.ModuleRep(g)
        with tr.span("modrep.rho"):
            m = rep.rho(w)
        with tr.span("modrep.character"):
            chi = rep.character(w)
        with tr.span("exactalg.char_poly"):
            cp = W.exactalg.char_poly(m)
        tr.count("modrep.dim", rep.n)
        tr.count("exactalg.char_poly_dim", rep.n)
        return w.length, rep.n, chi, cp

    def check(answer):
        length, n, chi, cp = answer
        ex = W.exactalg
        where = f"character {name} {word}"
        if len(cp) != n + 1 or cp[n] != ex.RF_ONE:
            return f"{where}: not monic of degree {n}"
        if cp[n - 1] != -chi:
            return f"{where}: x^{n - 1} coefficient {cp[n - 1]} != -({chi})"
        # det tau_s = (-u^2)^(n/2), so det rho(w) = (-u^2)^(l(w) n/2)
        det = (-(ex.RF_U ** 2)) ** (length * n // 2)
        if cp[0] != (det if n % 2 == 0 else -det):
            return f"{where}: constant term {cp[0]}, expected +-{det}"
        return None
    return Op("character", call, check)


def _linear_char_op(W, name: str, g) -> Op:
    def call(tr):
        with tr.span("modrep.linear_char_dims"):
            dims = W.modrep.linear_char_dims(g)
        if tr.enabled:
            with tr.span("modrep.ModuleRep", probe=True):
                rep = W.modrep.ModuleRep(g)
            mats = [rep.tau_matrix(s) for s in range(g.system.rank())]
            ex = W.exactalg
            for lam in (ex.RF_U ** 2, ex.rf(-1)):
                with tr.span("exactalg.solve_simultaneous_eigenspace",
                             probe=True):
                    ex.solve_simultaneous_eigenspace(mats, [lam] * len(mats),
                                                     dim=rep.n)
        return dims

    def check(dims):
        if (dims.dim_ind, dims.dim_sgn) != (dims.predicted_ind,
                                            dims.predicted_sgn):
            return (f"linear_char_dims {name}: ({dims.dim_ind}, "
                    f"{dims.dim_sgn}) != ({dims.predicted_ind}, "
                    f"{dims.predicted_sgn})")
        return None
    return Op("linear_char_dims", call, check)


def _bar_op(W, name: str, g) -> Op:
    def call(tr):
        try:
            with tr.span("modrep.bar_from_source"):
                sol = W.modrep.bar_from_source(g)
        except ValueError as exc:
            return "refused", str(exc)
        tr.count("modrep.bar_attempts")
        tr.count("modrep.bar_consistent", int(sol.consistent))
        if sol.consistent:
            return "consistent", None
        return "inconsistent", sol.witness[0].dst

    def check(answer):
        outcome, detail = answer
        want, want_detail = BAR_EXPECTED[name]
        if outcome != want or (want_detail or "") not in (detail or ""):
            return f"bar_from_source {name}: {answer}, expected {want} " \
                   f"({want_detail})"
        return None
    return Op("bar", call, check)


def setup_modules(W, rng: random.Random, work: Path, tr: Tracer) -> Workload:
    """Seven fixtures; per fixture: reversal identities per word of length
    <= 3, character and characteristic polynomial per word of length <= 2,
    eigenspace dimensions and bar propagation once.  The seed orders the ops.
    """
    fixtures = _module_fixtures(W, tr)
    ops = []
    for name in MODULE_FIXTURES:
        g = fixtures[name]
        ops.extend(_identity_op(W, name, g, w) for w in _words(W, g.system, 3))
        ops.extend(_character_op(W, name, g, w)
                   for w in _words(W, g.system, 2))
        ops.append(_linear_char_op(W, name, g))
        ops.append(_bar_op(W, name, g))
    rng.shuffle(ops)
    return Workload(ops, fixtures["lv_a3"])


SETUPS = {"groups": setup_groups, "templates": setup_templates,
          "modules": setup_modules}


# -- the control probe and the RatFunc batch ----------------------------------------------------


def control_probe(W, tr: Tracer, g, work: Path):
    """One call to every spanned public function on a small digraph of the
    workload, so that each layer metric is measured on every workload.  It
    is fixed work, the same on every run of a workload."""
    path = work / "control.json"
    path.write_text(json.dumps(g.to_json()))
    run_cli(W, tr, ["analyze", str(path)])
    with tr.span("digraph.load_digraph"):
        h = W.digraph.load_digraph(str(path))
    with tr.span("digraph.to_json"):
        h.to_json()
    system = h.system
    tr.count("digraph.vertices", len(h.vertices))
    tr.count("digraph.edges", len(h.edges))
    with tr.span("coxeter.enumerate"):
        elements = system.enumerate()
    tr.count("coxeter.elements", len(elements))
    star = W.coxeter.DiagramAutomorphism.identity(system)
    with tr.span("coxeter.twisted_involutions"):
        system.twisted_involutions(star)
    with tr.span("coxeter.element"):
        w = system.element(str(next(x for x in elements if x.length == 2)))
    with tr.span("families.build_lv"):
        W.families.build_lv(system, star)
    with tr.span("families.build_regular"):
        W.families.build_regular(system)
    with tr.span("families.build_family"):
        W.families.build_family(W.coxeter.CoxeterSystem.dihedral(3),
                                W.families.FamilySpec(1, 3))
    with tr.span("digraph.analyze"):
        h.analyze()
    with tr.span("digraph.equal_path_lengths_check"):
        h.equal_path_lengths_check()
    _probe_validate(W, tr, h)
    with tr.span("modrep.ModuleRep"):
        rep = W.modrep.ModuleRep(h)
    with tr.span("modrep.rho"):
        m = rep.rho(w)
    with tr.span("modrep.character"):
        rep.character(w)
    with tr.span("modrep.reversal_identities"):
        W.modrep.reversal_identities(h, [w])
    with tr.span("modrep.linear_char_dims"):
        W.modrep.linear_char_dims(h)
    with tr.span("modrep.bar_from_source"):
        sol = W.modrep.bar_from_source(h)
    tr.count("modrep.bar_attempts")
    tr.count("modrep.bar_consistent", int(sol.consistent))
    with tr.span("modrep.theorem_checkers"):
        W.modrep.theorem_checkers(h)
    with tr.span("hecke.invert_Tw"):
        tr.count("hecke.invert_Tw_terms", len(W.hecke.invert_Tw(w).coeffs))
    with tr.span("exactalg.char_poly"):
        W.exactalg.char_poly(m)
    tr.count("exactalg.char_poly_dim", rep.n)
    mats = [rep.tau_matrix(s) for s in range(system.rank())]
    with tr.span("exactalg.solve_simultaneous_eigenspace"):
        W.exactalg.solve_simultaneous_eigenspace(
            mats, [W.exactalg.rf(-1)] * len(mats), dim=rep.n)
    with tr.span("exactalg.sigma"):
        for row in m.rows:
            for x in row:
                W.exactalg.sigma(x)
    ratfunc_batch(W, tr, rep, elements)


def ratfunc_batch(W, tr: Tracer, rep, elements, size: int = 48):
    """Time RatFunc mul/add and Poly gcd over all pairs of a fixed operand set.

    The operands are the nonzero entries of rho(w) for the shortest elements
    w of the control digraph's group, and their inverses, whose denominators
    are not monomials.
    """
    operands = []
    for w in elements:
        for row in rep.rho(w).rows:
            for x in row:
                if not x.is_zero() and x not in operands:
                    operands.append(x)
                    operands.append(x.inverse())
        if len(operands) >= size:
            break
    operands = operands[:size]
    pairs = [(a, b) for a in operands for b in operands]
    with tr.span("exactalg.ratfunc_mul"):
        for a, b in pairs:
            a * b
    with tr.span("exactalg.ratfunc_add"):
        for a, b in pairs:
            a + b
    with tr.span("exactalg.poly_gcd"):
        for a, b in pairs:
            a.num.gcd(b.num)
    tr.count("exactalg.ratfunc_ops", 3 * len(pairs))
