"""Two independent deciders for the defining property of a labeled digraph.

The classifier inspects every rank-two restriction: each connected component
must be a 2m-cycle carrying one of the eight templates, with the matching
divisibility condition against the order n(s,t).  Once every vertex meets
one edge per label, each component of the {s,t}-restriction is a single
cycle whose labels alternate.  `SLabeledDigraph.alternating_cycles` walks
them straight from the digraph's edge pairing, each with its cycle word,
which fixes it up to the names of its vertices, and
`SLabeledDigraph.cycle_words` keeps one walk per pair as its distinct words,
each with the first vertex of its first cycle; both deciders read that one
keyed decomposition of every finite pair (`_finite_pairs`).  The
classifier decides each word once per pair, in walk positions
(`_decide_word`), and its verdict reads those results alone; the reports,
with a witness per component, are built from them when first read.  It
builds no digraph and is linear in the size of the digraph.  The
brute-force oracle instead applies the generator operators and
verifies the quadratic relation and the length-n alternating product
identity exactly.  Their agreement on random inputs is the central
soundness test of the whole library.

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
quadratic relation is run once per call for each (role, style) (the rule
is in `brute_force_check`), and the braid relation once per (n, cycle
word), at walk position 0, on the `modrep._table` tables of the word's
`digraph.cycle_pairing`: on one cycle its verdicts are all or none (the
proof is in `brute_force_check`), and every other column reads the verdict
back.  The four cases of `modrep._TAU_CASES` are evaluated once per
point, through `modrep._cases_at` as `modrep._table` evaluates them, no
table of the whole digraph is built, and words run through
`modrep._word_apply`; no `ModuleRep` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .digraph import (CODE_ENDS, DASHED, END_CODES, SOLID, WORD_ENDS,
                      WORD_SOURCES, SLabeledDigraph, cycle_pairing)
from .families import TEMPLATES, family_divisibility_ok
from .modrep import (_TAU_CASES, _apply_columns, _cases_at, _exact_bits,
                     _table, _word_apply)

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


class _OnFirstRead:
    """A dataclass field that may be given a function of no arguments in
    place of its value: the function is called when the field is first
    read, and its result kept as the value."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)   # the field has no default
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Verdict:
    is_w_digraph: bool
    structural_violations: tuple[str, ...]
    pair_reports: tuple[PairReport, ...] = _OnFirstRead()

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


def _decide_word(word: bytes, n: int, pair) -> tuple | Rejection:
    """The template match of the alternating cycle of a cycle word under
    the order n of `pair`, decided in walk positions: the `Rejection`, or
    (figure, m, ((position, template vertex name), ...)) in witness order.

    Sources and sinks alternate around a cycle, so a single source means a
    single sink, and both arcs out of the source run to it; what is left to
    check is where the sink sits, which edges are dashed, and the
    divisibility condition against n.  The sources are read off the word
    by one byte translation (`digraph.WORD_SOURCES`), and the a-arc leaves
    the source by its i-edge and the b-arc by its j-edge, each followed
    along the partners and codes of the word's `cycle_pairing`.
    """
    m = len(word) // 2
    if m == 1:
        (role, style), (t_role, t_style) = WORD_ENDS[word[0]]
        if role != t_role:
            return Rejection("the two edges must be parallel, same direction")
        if style != t_style:
            return Rejection("the two parallel edges must share one style")
        src, sink = (0, 1) if role == "tail" else (1, 0)
        return 7 if style == SOLID else 8, 1, ((src, "a0"), (sink, "b1"))

    sources = word.translate(WORD_SOURCES)
    count = sources.count(1)
    if count != 1:
        return Rejection(f"{count} sources, need exactly 1")
    src = sources.index(1)
    # each arc up to the sink as (head position, style) per edge, its
    # labels taken from the two rows in turn
    pairing = cycle_pairing(word)
    arcs = []
    for row, other in (pairing, pairing[::-1]):
        arc, p = [], src
        while row[1][p] & 1:
            p, style = row[0][p], CODE_ENDS[row[1][p]][1]
            arc.append((p, style))
            row, other = other, row
        arcs.append(arc)
    a_arc, b_arc = arcs
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
    return figure, m, ((src, "a0"), (a_arc[-1][0], f"b{m}"),
                       *((p, f"a{i}")
                         for i, (p, _) in enumerate(a_arc[:-1], 1)),
                       *((p, f"b{i}")
                         for i, (p, _) in enumerate(b_arc[:-1], 1)))


def _finite_pairs(digraph: SLabeledDigraph):
    """((i, j), n, pair, words) for each pair of generators i < j of finite
    order n = n(s_i, s_j): pair holds their names, and words the keyed
    decomposition of the restriction to them,
    `SLabeledDigraph.cycle_words`.  Pairs of infinite order impose no
    condition."""
    system = digraph.system
    for i in range(system.rank()):
        for j in range(i + 1, system.rank()):
            n = system.order(i, j)
            if n is not inf:
                yield ((i, j), n, (system.generators[i], system.generators[j]),
                       digraph.cycle_words(i, j))


def is_w_digraph(digraph: SLabeledDigraph) -> Verdict:
    """The classification decision procedure over all rank-two restrictions.

    The digraph is accepted when every component of every finite rank-two
    restriction matches a template with its divisibility condition.  Each
    distinct cycle word of a restriction is decided once, by `_decide_word`,
    and the verdict reads only those results.  The reports, every component
    in the order of its first vertex with its witness, the names at the
    positions of its match, are built from the same results when
    `Verdict.pair_reports` is first read (`_pair_reports`).
    """
    violations = tuple(digraph.validate_structure())
    if violations:
        return Verdict(False, violations, ())
    decided = [(ij, n, pair, {word: _decide_word(word, n, pair)
                              for word in words})
               for ij, n, pair, words in _finite_pairs(digraph)]
    ok = not any(isinstance(result, Rejection)
                 for *_, results in decided for result in results.values())
    return Verdict(ok, (), lambda: _pair_reports(digraph, decided))


def _pair_reports(digraph: SLabeledDigraph, decided) -> tuple[PairReport, ...]:
    """A `PairReport` per ((i, j), n, pair, result per cycle word) in
    decided, its components walked again by `alternating_cycles`."""
    names = digraph.vertices
    reports = []
    for (i, j), n, pair, results in decided:
        comps = []
        for cycle, word in digraph.alternating_cycles(i, j):
            result = results[word]
            if isinstance(result, Rejection):
                comps.append(result)
            else:
                figure, m, named = result
                comps.append(FamilyMatch(figure, m, {names[cycle[q]]: name
                                                     for q, name in named}))
        reports.append(PairReport(pair, n, tuple(comps)))
    return tuple(reports)


# -- the brute-force oracle -------------------------------------------------------------------


@dataclass(frozen=True)
class RelationWitness:
    kind: str          # "structure", "quadratic" or "braid"
    generators: tuple
    # the vertex of the first failing column; for "structure", the
    # violation lines joined by "; "
    column: str


def brute_force_check(digraph: SLabeledDigraph):
    """Check the defining operator relations exactly; None means all hold.

    The quadratic relation is checked for every generator and the
    alternating-product identity for every pair with finite order, on unit
    columns, and the first pair or generator with a difference is reported
    with its first failing column in vertex order as the witness.  Both sides
    are evaluated at the integer 2^`_exact_bits(k)` for k applications (k = 2
    for the quadratic relation, k = n(s,t) for the braid relation), which
    decides the polynomial identity exactly; the four cases of
    `_TAU_CASES` are evaluated once per point, and no table of the whole
    digraph is built.

    Each relation is run once per distinct block, and every column reads
    its verdict back.  Why this is exact:
    - tau_s maps a unit column into its s-edge's 2x2 block, whose entries
      `_TAU_CASES` gives from the (role, style) of each end; `_fill`
      writes partner b and the tail code of the style at a, partner a and
      the head code (one more) at b, and loops are rejected, so the other
      end has the other role and the same style.
      So the quadratic relation on a column depends only on its (role,
      style): it is run once per call for each case, on its block with the
      partner case as positions 0 and 1, and only when a case fails is the
      edge pairing scanned, generators in order and columns in vertex
      order, for the first column of a failing case.
    - An alternating word keeps a unit column inside its alternating cycle,
      as `SLabeledDigraph.alternating_cycles` walks it from its first
      vertex, and the cycle's edge pairing relabeled by walk position is
      `cycle_pairing` of its word.  So the whole-digraph tables of tau_s
      and tau_t at the point for n(s,t), restricted to the cycle and
      relabeled by position, are `_table` of that pairing and the cases at
      that point, and the two sides on a column, read in positions, depend
      only on n(s,t), the word and the column's position, not on vertex
      names.
    - Nor on the position: on one cycle the relation holds at every
      position or at none, for every m and n.  On the span of the cycle,
      let A and B be the two alternating products of n factors, A starting
      with tau_s, D = A - B, and s' = s for even n, s' = t for odd n.  Then
      tau_s B = A tau_s', and the quadratic relation tau^2 = (u^2-1) tau +
      u^2, expanded at the left end of tau_s A and at the right end of
      B tau_s', gives tau_s A - B tau_s' = (u^2-1) D.  Together

          tau_s D + D tau_s' = (u^2-1) D,

      and the same holds with s and t swapped, which swaps A and B.  So
      D e_p = 0 gives D tau_s' e_p = 0, where tau_s' e_p = c e_p + d e_q
      with q the s'-partner of p and d one of 1, u^2, u+1, u^2-u, never 0;
      hence D e_q = 0.  The twin identity reaches the other partner of p,
      and the cycle is connected through the partners, so D vanishes on
      all of its columns or on none.  The quadratic relation is checked on
      every case before the braid loop runs, and a failing case that some
      column has returns its witness first, so the premise holds on every
      block whenever the loop runs; `_exact_bits(n)` decides each entry
      exactly, so the integer verdicts are all or none too.
    So each (n, word) is run once, from position 0, and every other cycle
    with that key reads its verdict back.  The words come in the order of
    their first cycles, each with that cycle's first vertex, its least
    (`SLabeledDigraph.cycle_words`), so the first failing word gives the
    least failing column of its pair.  Each run costs the size of its
    cycle, and a digraph whose cycles repeat a few words costs little more
    than one walk per pair.
    """
    violations = digraph.validate_structure()
    if violations:
        return RelationWitness("structure", (), "; ".join(violations))
    u = 1 << _exact_bits(2)
    cases = _cases_at(_TAU_CASES, lambda c: c(u))
    tau_at = {2: cases}   # k -> the cases at 2^_exact_bits(k)
    failing = set()   # the (role, style) cases whose relation fails
    for (role, style), case in cases.items():
        # (tau - u^2)(tau + 1) = 0  <=>  tau^2 = (u^2-1) tau + u^2, on the
        # block of a column of this case (0) and its partner (1)
        partner = cases["head" if role == "tail" else "tail", style]
        edge_block = ((1,) + case, (0,) + partner)
        once = _apply_columns(edge_block, {0: 1}, 0)
        expected = {p: (u * u - 1) * c for p, c in once.items()}
        expected[0] = expected.get(0, 0) + u * u
        if (_apply_columns(edge_block, once, 0)
                != {p: c for p, c in expected.items() if c}):
            failing.add((role, style))
    if failing:
        failing = [END_CODES[end] for end in failing]
        for s, (_, codes) in zip(digraph.system.generators,
                                 digraph.coded_pairing()):
            cols = [col for col in map(codes.find, failing) if col >= 0]
            if cols:
                return RelationWitness("quadratic", (s,),
                                       digraph.vertices[min(cols)])
    braid = {}   # (n, cycle word) -> whether the relation holds on its cycle
    for _, n, pair, words in _finite_pairs(digraph):
        cases = tau_at.get(n)
        if cases is None:
            point = 1 << _exact_bits(n)
            cases = tau_at[n] = _cases_at(_TAU_CASES, lambda c: c(point))
        # the two alternating words of n letters over a cycle's tables (0
        # the s-table, 1 the t-table); `_word_apply` lets word[0] act
        # first, so it multiplies each word reversed, and reversal keeps
        # this pair of words, so the relation is the same
        left = [k % 2 for k in range(n)]
        right = [1 - k % 2 for k in range(n)]
        for word, first in words.items():
            holds = braid.get((n, word))
            if holds is None:
                tables = _table(cycle_pairing(word), cases)
                holds = braid[n, word] = (
                    _word_apply(tables, left, {0: 1}, 0)
                    == _word_apply(tables, right, {0: 1}, 0))
            if not holds:
                return RelationWitness("braid", pair, digraph.vertices[first])
    return None
