"""Two independent deciders for the defining property of a labeled digraph.

The classifier inspects every rank-two restriction: each connected component
must be a 2m-cycle carrying one of the eight templates, with the matching
divisibility condition against the order n(s,t).  Once every vertex meets
one edge per label, each component of the {s,t}-restriction is a single
cycle whose labels alternate.  `SLabeledDigraph.alternating_cycles` walks
them one at a time, straight from the digraph's edge pairing, and both
deciders run over that one decomposition of every finite pair
(`_finite_pairs`): the classifier reads each cycle off the pairing, builds
no digraph, and is linear in the size of the digraph.  The brute-force
oracle instead applies the generator operators and verifies the quadratic
relation and the length-n alternating product identity exactly.  Their
agreement on random inputs is the central soundness test of the whole
library.

The oracle runs on integers, not over Q(u).  Every forward coefficient of
tau_s lies in Z[u], and every column of tau_s has coefficient L1 norm at most
5, so after k applications to a unit column the two sides of a relation
differ entrywise by integer polynomials with coefficients at most 2 * 5^k in
absolute value (for the quadratic relation, k = 2: 25 + 2 * 5 + 1 = 36 <=
50).  Such a polynomial, if nonzero, has no root at u = 2^`_exact_bits(k)`
(the Cauchy-bound proof is in `modrep._exact_bits`), so evaluating both
sides there, with k = 2 for the quadratic relation and k = n(s,t) for the
braid relation, decides each entry's equality exactly.  This is a
coefficient bound, not sampling.

Each relation lives in one small block, and the oracle runs it once per
distinct block.  The quadratic relation on a column reads only the 2x2 block
of its edge, which the (role, style) of the column fixes.  The braid relation
on a column reads only its alternating cycle in the {s,t}-restriction, which
n(s,t) and the cycle word (the (role, style) of the s-edge and of the t-edge
at each position of the walk) fix up to the names of the vertices.  So the
quadratic relation is run once per (role, style) and generator, and the
braid relation once per (n, cycle word, position) that a column needs; every
other column reads the verdict back.  The integer tables are read straight
off the edge pairing by `modrep._table`, each coefficient evaluated at the
point, and words run through `modrep._word_apply`; no `ModuleRep` is built.
The LV and regular digraphs repeat a handful of cycle words over thousands
of components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .digraph import DASHED, SOLID, SLabeledDigraph
from .families import TEMPLATES, family_divisibility_ok
from .modrep import _TAU_CASES, _apply_columns, _exact_bits, _table, _word_apply

# the cycle templates (m >= 2) by their dashed slots
_FIGURE_BY_DASHES = {template.dashes: figure
                     for figure, template in TEMPLATES.items()
                     if template.divisor is not None}


@dataclass(frozen=True)
class FamilyMatch:
    figure: int
    m: int
    orientation_witness: dict  # component vertex -> template vertex name


@dataclass(frozen=True)
class Rejection:
    reason: str


@dataclass(frozen=True)
class PairReport:
    pair: tuple[str, str]
    n: int
    components: tuple  # FamilyMatch or Rejection per component


@dataclass(frozen=True)
class Verdict:
    is_w_digraph: bool
    structural_violations: tuple[str, ...]
    pair_reports: tuple[PairReport, ...]

    def describe(self) -> str:
        lines = []
        if self.structural_violations:
            lines.append("structural violations:")
            lines.extend(f"  {v}" for v in self.structural_violations)
        for pr in self.pair_reports:
            lines.append(f"pair ({pr.pair[0]},{pr.pair[1]}), n = {pr.n}:")
            for comp in pr.components:
                if isinstance(comp, FamilyMatch):
                    verts = ",".join(sorted(comp.orientation_witness))
                    lines.append(f"  figure {comp.figure}, m = {comp.m}"
                                 f"  [{verts}]")
                else:
                    lines.append(f"  rejected: {comp.reason}")
        lines.append("accepted" if self.is_w_digraph else "rejected")
        return "\n".join(lines)


def _arc(first, second, source: int) -> list[tuple[int, str]]:
    """The directed path out of the source whose edges take their labels
    from the pairings first, second, first, ... in turn, as (head, style)
    per edge; it ends at the first vertex it cannot leave, the sink."""
    pairings = (first, second)
    arc = []
    v = source
    while True:
        partner, role, style = pairings[len(arc) % 2][v]
        if role != "tail":
            return arc
        arc.append((partner, style))
        v = partner


def _classify_cycle(names, ps, pt, cycle: list[int], n, pair):
    """Match one alternating cycle of the restriction to `pair` against the
    eight templates.

    Sources and sinks alternate around a cycle, so a single source means a
    single sink, and both arcs out of the source run to it; what is left to
    check is where the sink sits, which edges are dashed, and the
    divisibility condition against n.
    """
    m = len(cycle) // 2
    if m == 1:
        x = cycle[0]
        (y, role, style), (_, t_role, t_style) = ps[x], pt[x]
        if role != t_role:
            return Rejection("the two edges must be parallel, same direction")
        if style != t_style:
            return Rejection("the two parallel edges must share one style")
        src, snk = (x, y) if role == "tail" else (y, x)
        return FamilyMatch(7 if style == SOLID else 8, 1,
                           {names[src]: "a0", names[snk]: "b1"})

    sources = [v for v in cycle if ps[v][1] == pt[v][1] == "tail"]
    if len(sources) != 1:
        return Rejection(f"{len(sources)} sources, need exactly 1")
    src = sources[0]
    # the s-labeled edge out of the source starts the a-arc, the t-labeled
    # one the b-arc
    a_arc, b_arc = _arc(ps, pt, src), _arc(pt, ps, src)
    if len(a_arc) != m:
        # the two lengths in label-name order
        first, second = len(a_arc), len(b_arc)
        if pair[1] < pair[0]:
            first, second = second, first
        return Rejection(f"sink not opposite the source "
                         f"(arc lengths {first}, {second})")

    dash_slots = set()
    for arc, tag in ((a_arc, "left"), (b_arc, "right")):
        for i, (_, style) in enumerate(arc):
            if style == DASHED:
                if i == 0:
                    dash_slots.add(f"{tag}_first")
                elif i == m - 1:
                    dash_slots.add(f"{tag}_last")
                else:
                    return Rejection("dashed edge in the interior of an arc")
    figure = _FIGURE_BY_DASHES.get(frozenset(dash_slots))
    if figure is None:
        return Rejection(f"dash pattern {sorted(dash_slots)} matches no figure")
    if not family_divisibility_ok(figure, m, n):
        divisor = TEMPLATES[figure].divisor(m)
        return Rejection(f"figure {figure} needs {divisor} | n, n = {n}")
    witness = {names[src]: "a0", names[a_arc[-1][0]]: f"b{m}"}
    for i, (v, _) in enumerate(a_arc[:-1]):
        witness[names[v]] = f"a{i + 1}"
    for i, (v, _) in enumerate(b_arc[:-1]):
        witness[names[v]] = f"b{i + 1}"
    return FamilyMatch(figure, m, witness)


def _finite_pairs(digraph: SLabeledDigraph):
    """(i, j, n, pair, cycles) for each pair of generators i < j of finite
    order n = n(s_i, s_j): pair holds their names, and cycles the components
    of the restriction to them from `alternating_cycles`.  Pairs of infinite
    order impose no condition."""
    system = digraph.system
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is not inf:
                yield (i, j, n, (system.generators[i], system.generators[j]),
                       digraph.alternating_cycles(i, j))


def is_w_digraph(digraph: SLabeledDigraph) -> Verdict:
    """The classification decision procedure over all rank-two restrictions.

    The digraph is accepted when every component of every finite rank-two
    restriction matches a template with its divisibility condition.  The
    components of a restriction are classified in the order of their first
    vertices, each as the alternating cycle the digraph walks.
    """
    violations = tuple(digraph.validate_structure())
    if violations:
        return Verdict(False, violations, ())
    names = digraph.vertices
    pairing = digraph.edge_pairing()
    reports = []
    ok = True
    for i, j, n, pair, cycles in _finite_pairs(digraph):
        comps = []
        for cycle in cycles:
            result = _classify_cycle(names, pairing[i], pairing[j], cycle, n,
                                     pair)
            comps.append(result)
            if isinstance(result, Rejection):
                ok = False
        reports.append(PairReport(pair, n, tuple(comps)))
    return Verdict(ok, (), tuple(reports))


# -- the brute-force oracle -------------------------------------------------------------------


@dataclass(frozen=True)
class RelationWitness:
    kind: str          # "structure", "quadratic" or "braid"
    generators: tuple
    column: str        # vertex whose column first differs, or "" for quadratic


def brute_force_check(digraph: SLabeledDigraph):
    """Check the defining operator relations exactly; None means all hold.

    The quadratic relation is checked for every generator and the
    alternating-product identity for every pair with finite order, one unit
    column at a time in vertex order, with an early exit on the first
    difference, so the witness names the first failing column.  Both sides
    are evaluated at the integer 2^`_exact_bits(k)` for k applications (k = 2
    for the quadratic relation, k = n(s,t) for the braid relation), which
    decides the polynomial identity exactly.

    A column whose check is already decided on an equal block reads that
    verdict back.  Why this is exact:
    - tau_s maps a unit column into its s-edge's 2x2 block, whose entries
      `_TAU_CASES` gives from the (role, style) of each end; the other end
      has the other role and the same style.  So the quadratic relation on a
      column depends only on its (role, style), and it is run once per case
      and generator.
    - An alternating word keeps a unit column inside its alternating cycle,
      as `SLabeledDigraph.alternating_cycles` walks it from its first
      vertex.  In walk positions, the s-partner and the t-partner of
      position p are p + 1 and p - 1, one each, by the parity of p, and the
      coefficients at p come from the (role, style) of the s-edge and of
      the t-edge there.  So the restriction of tau_s and tau_t to the cycle,
      in positions, is fixed by n(s,t) and the cycle word, and equality of
      the two sides on a column depends only on them and on the column's
      position, not on vertex names.  The first column that no cycle has
      met starts the next cycle `alternating_cycles` walks, which is keyed
      by (n, word) then, and each (key, position) is run when a column first
      needs it.  Nothing is decided ahead of that column, so a digraph
      rejected at its first column costs one cycle.
    Each run costs the size of its cycle, and a digraph whose cycles repeat
    a few words costs little more than one walk per component.
    """
    violations = digraph.validate_structure()
    if violations:
        return RelationWitness("structure", (), "; ".join(violations))
    pairing = digraph.edge_pairing()
    system = digraph.system
    n_vertices = len(digraph.vertices)
    u = 1 << _exact_bits(2)
    columns = _table(pairing, _TAU_CASES, lambda c: c(u))
    for s in range(system.rank()):
        quadratic = {}   # (role, style) -> whether the relation holds
        for j, (_, role, style) in enumerate(pairing[s]):
            holds = quadratic.get((role, style))
            if holds is None:
                # (tau - u^2)(tau + 1) = 0  <=>  tau^2 = (u^2-1) tau + u^2
                once = _apply_columns(columns[s], {j: 1}, 0)
                expected = {i: (u * u - 1) * c for i, c in once.items()}
                expected[j] = expected.get(j, 0) + u * u
                holds = quadratic[role, style] = (
                    _apply_columns(columns[s], once, 0)
                    == {i: c for i, c in expected.items() if c})
            if not holds:
                return RelationWitness("quadratic", (system.generators[s],),
                                       digraph.vertices[j])
    tables = {}
    braid = {}   # (n, cycle word) -> the verdict per position
    for i, j, n, pair, cycles in _finite_pairs(digraph):
        if n not in tables:
            point = 1 << _exact_bits(n)
            tables[n] = _table(pairing, _TAU_CASES, lambda c: c(point))
        columns = tables[n]
        ps, pt = pairing[i], pairing[j]
        # the two alternating words of n letters; `_word_apply` lets word[0]
        # act first, so it multiplies each word reversed, and reversal keeps
        # this pair of words, so the relation is the same
        left = [(i, j)[k % 2] for k in range(n)]
        right = [(j, i)[k % 2] for k in range(n)]
        block = [None] * n_vertices      # column -> verdicts of its key
        position = [0] * n_vertices
        for col in range(n_vertices):
            if block[col] is None:
                # the first column no cycle has met starts the next cycle
                cycle = next(cycles)
                word = tuple(ps[v][1:] + pt[v][1:] for v in cycle)
                verdicts = braid.get((n, word))
                if verdicts is None:
                    verdicts = braid[n, word] = [None] * len(cycle)
                for p, v in enumerate(cycle):
                    block[v] = verdicts
                    position[v] = p
            verdicts, p = block[col], position[col]
            holds = verdicts[p]
            if holds is None:
                holds = verdicts[p] = (
                    _word_apply(columns, left, {col: 1}, 0)
                    == _word_apply(columns, right, {col: 1}, 0))
            if not holds:
                return RelationWitness("braid", pair, digraph.vertices[col])
    return None
