"""The atlas of cycle words: every small alternating cycle, decided twice.

After the structure check, each component of a rank-two restriction is one
alternating cycle, and both deciders settle it from the order n and its
cycle word alone.  So on cycles of at most 2M vertices, under the orders in
`ORDERS`, the classifier and the oracle agree everywhere if and only if
they agree on the cases listed here: every direction and style of the 2m
edges of a 2m-cycle for m <= M, over I2(n).  The one vertex with a loop of
each label, which the structure check rejects, joins the list.

A case is the tuple of (forward, style) of its edges k = 0 .. 2m-1, edge k
joining v_k and v_{k+1} (indices mod 2m), labelled s for even k and t for
odd k, and pointing v_k -> v_{k+1} when forward.  A label-preserving
isomorphism of such cycles is a rotation by two positions or the
reflection v_k -> v_{1-k}, so each case is listed once, as the least tuple
of its orbit.  The tier-1 test runs M = 3 (5,376 cases); M = 4 (62,972
cases) runs with

    PYTHONPATH=src:tests python -c "from test_atlas import atlas; print(atlas(4))"
"""

from itertools import product

from wdigraph.coxeter import CoxeterSystem
from wdigraph.digraph import DASHED, SOLID, SLabeledDigraph, cycle_pairing
from wdigraph.families import (TEMPLATES, FamilySpec, build_family,
                               family_divisibility_ok)
from wdigraph.exactalg import P_ONE, P_ZERO
from wdigraph.modrep import (_TAU_CASES, U2M1, _apply_columns, _cases_at,
                             _exact_bits, _table, _word_apply)
from wdigraph.validator import FamilyMatch, brute_force_check, is_w_digraph

from conftest import edge_pairing

ORDERS = range(2, 9)


def canonical_case(case: tuple) -> tuple:
    """The least case in the orbit of `case` under rotation by two positions
    and the reflection v_k -> v_{1-k}, which sends edge k to edge -k and
    turns it round."""
    size = len(case)
    mirror = tuple((not case[-k][0], case[-k][1]) for k in range(size))
    return min(c[r:] + c[:r] for c in (case, mirror) for r in range(0, size, 2))


def cases(m: int) -> list[tuple]:
    """One case per isomorphism class of 2m-cycles, in tuple order."""
    edge_states = list(product((True, False), (SOLID, DASHED)))
    return [case for case in product(edge_states, repeat=2 * m)
            if canonical_case(case) == case]


def cycle_digraph(system: CoxeterSystem, case: tuple) -> SLabeledDigraph:
    size = len(case)
    names = [f"v{k}" for k in range(size)]
    edges = []
    for k, (forward, style) in enumerate(case):
        tail, head = names[k], names[(k + 1) % size]
        if not forward:
            tail, head = head, tail
        edges.append((tail, head, system.generators[k % 2], style))
    return SLabeledDigraph(system, names, edges)


def case_of(g: SLabeledDigraph) -> tuple:
    """The case of a digraph whose restriction to s and t is one cycle,
    walked from its first vertex along s, t, s, ..."""
    pairing = edge_pairing(g)
    case, v = [], 0
    for k in range(len(g.vertices)):
        v, role, style = pairing[k % 2][v]
        case.append((role == "tail", style))
    assert v == 0, "not one cycle"
    return tuple(case)


def admitted_templates(n: int, m: int) -> dict:
    """canonical case -> figure, for every template on 2m vertices whose
    condition `family_divisibility_ok` admits under the order n."""
    system = CoxeterSystem.dihedral(n)
    admitted = {}
    for figure in TEMPLATES:
        if family_divisibility_ok(figure, m, n):
            g = build_family(system, FamilySpec(figure, m))
            admitted[canonical_case(case_of(g))] = figure
    return admitted


def braid_verdicts(g: SLabeledDigraph, n: int) -> list[bool]:
    """Whether the braid relation of order n holds on each walk position of
    the one alternating cycle of g, on its tables by walk position."""
    (_, word), = g.alternating_cycles(0, 1)
    point = 1 << _exact_bits(n)
    tables = _table(cycle_pairing(word),
                    _cases_at(_TAU_CASES, lambda c: c(point)))
    left = [k % 2 for k in range(n)]
    right = [1 - k % 2 for k in range(n)]
    return [_word_apply(tables, left, {p: 1}, 0)
            == _word_apply(tables, right, {p: 1}, 0) for p in range(len(word))]


def atlas(max_m: int) -> dict:
    """Run every case with m <= max_m, and the loop cases, through both
    deciders over I2(n) for each n in `ORDERS`.  Raises AssertionError at
    the first case where they disagree, where the accepted cases are not
    exactly the admitted templates, or where the classifier names another
    figure than the template's.  Returns the counts, with the cases whose
    braid verdicts differ between the positions of their cycle."""
    summary = {"cases": 0, "accepted": 0, "mixed_braid_verdicts": []}
    for n in ORDERS:
        system = CoxeterSystem.dihedral(n)
        for s_style, t_style in product((SOLID, DASHED), repeat=2):
            g = SLabeledDigraph(system, ["v0"], [("v0", "v0", "s", s_style),
                                                 ("v0", "v0", "t", t_style)])
            verdict = is_w_digraph(g)
            assert not verdict.is_w_digraph, (n, s_style, t_style)
            assert brute_force_check(g) is not None, (n, s_style, t_style)
            summary["cases"] += 1
    for m in range(1, max_m + 1):
        listed = cases(m)
        for n in ORDERS:
            system = CoxeterSystem.dihedral(n)
            accepted = {}
            for case in listed:
                g = cycle_digraph(system, case)
                verdict = is_w_digraph(g)
                assert verdict.is_w_digraph == (brute_force_check(g) is None), \
                    (n, case)
                if verdict.is_w_digraph:
                    (report,) = verdict.pair_reports
                    (match,) = report.components
                    assert isinstance(match, FamilyMatch) and match.m == m
                    accepted[case] = match.figure
                braid = braid_verdicts(g, n)
                if len(set(braid)) > 1:
                    summary["mixed_braid_verdicts"].append((n, case))
                summary["cases"] += 1
            assert accepted == admitted_templates(n, m), (n, m)
            summary["accepted"] += len(accepted)
    return summary


def test_deciders_agree_on_every_cycle_word_up_to_six_vertices():
    """Classifier = oracle on every 2m-cycle with m <= 3 and on the loops,
    over I2(2..8); the accepted cycles are exactly the admitted templates,
    each under its own figure; and every cycle's braid relation holds at
    all of its positions or at none."""
    summary = atlas(3)
    assert summary["mixed_braid_verdicts"] == []


def combination(*terms) -> dict:
    """The sum of c * vec over the (c, vec) in terms, sparse over Z[u]."""
    out = {}
    for c, vec in terms:
        for i, x in vec.items():
            out[i] = out.get(i, P_ZERO) + c * x
    return {i: x for i, x in out.items() if x}


def test_braid_defect_meets_the_quadratic_relation_identity():
    """The premise of the oracle's one-position braid run, over Z[u].  On
    the tables of every cycle word of the tier-1 atlas, let A and B be the
    alternating products of n factors starting with tau_s and with tau_t,
    and D = A - B: then tau_x D + D tau_x' = (u^2-1) D on every unit column,
    for x = s and for x = t, where x' = x for even n and the other
    generator for odd n (the proof is in `brute_force_check`)."""
    top = max(ORDERS)
    checked = failing = 0
    for m in range(1, 4):
        for case in cases(m):
            g = cycle_digraph(CoxeterSystem.dihedral(top), case)
            (_, word), = g.alternating_cycles(0, 1)
            tables = _table(cycle_pairing(word), _TAU_CASES)
            size = len(word)
            # chains[x][p][k]: the alternating product of k factors with
            # tau_x rightmost, so acting first, on e_p
            chains = [[[{p: P_ONE}] for p in range(size)] for x in (0, 1)]
            for x in (0, 1):
                for chain in chains[x]:
                    for k in range(top):
                        chain.append(_apply_columns(tables[(x + k) % 2],
                                                    chain[-1]))
            for n in ORDERS:
                # A has tau_s leftmost, so tau_(n-1 mod 2) rightmost
                d = [combination((P_ONE, chains[(n - 1) % 2][p][n]),
                                 (-P_ONE, chains[n % 2][p][n]))
                     for p in range(size)]
                failing += any(d)
                for x in (0, 1):
                    dual = x if n % 2 == 0 else 1 - x
                    for p, (q, c, e) in enumerate(tables[dual]):
                        # column p of tau_x' is c e_p + e e_q, so the
                        # identity on e_p reads tau_x D e_p + (c - (u^2-1))
                        # D e_p + e D e_q = 0
                        assert not combination(
                            (P_ONE, _apply_columns(tables[x], d[p])),
                            ((c or P_ZERO) - U2M1, d[p]), (e, d[q])), \
                            (case, n, x, p)
                        checked += 1
    assert checked > 60000 and failing > 5000
