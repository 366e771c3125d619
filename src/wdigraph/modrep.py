"""The module attached to a labeled digraph and everything computed from it.

Each generator acts through a block-structured operator: along its edge
pairing, the tail/head of a solid edge and of a dashed edge see the four
coefficient patterns of the one case table, `_TAU_CASES`,

    solid:   tail -> head;            head -> u^2 tail + (u^2-1) head
    dashed:  tail -> u tail + (u+1) head;
             head -> (u^2-u) tail + (u^2-u-1) head

so each operator has at most two nonzero entries per column, all in Z[u].
Every other table is tau_s - c, read off it by `_shifted(c)`: S_s = tau_s -
(u^2-1) = u^2 tau_s^-1 (so the inverse is u^-2 S_s and rho(T_w)^-1 =
u^(-2 l(w)) S_w with S_w in Z[u] too), S_s - u for the bar propagation, and
u^2 sigma(S_s) for the twist identity, which is tau_s again with tail and
head exchanged: the tau_s table of the reversed digraph.  The Hecke algebra
in `hecke` reads its generators off the same table, as (T_s - c)/d for the
self and partner coefficients (c, d) of each case, and runs them through
the same kernel.
One builder, `_table`, reads a table of per-column coefficients off the
pairing.  The one kernel, `_apply_columns`, maps a sparse vector {index:
nonzero coefficient} to another in time proportional to its support, and
the one word product, `_word_apply`, runs it along a word.  The columns of
rho(T_w) (memoized per element) and of S_w, characters and the bar
propagation are computed over Z[u]; the bar images carry their denominator u^a (u+1)^b as a pair of
exponents.  A value becomes a `RatFunc` only where it leaves the layer:
`rho`, `rho_inv`, `tau_matrix`, `character` and the vectors of a
`BarSolution`.

The same kernel also runs on ints: `_table(pairing, cases, at)` maps every
coefficient through `at`, for example its value at one integer u.  Every
column of the tau_s, S_s and u^2 sigma(S_s) tables has coefficient L1 norm
at most 5, so two products of k such tables agree exactly when they agree
at u = 2^`_exact_bits(k)` (the Cauchy-bound proof is in its docstring).
The oracle in `validator` decides the relations that way.
`reversal_identities` builds no reversed digraph: two lemmas in its
docstring settle both identities factor by factor, the twist identity when
two reduced words of w^-1 coincide and the sign identity when every edge of
w's letters joins ends of opposite source-distance parity, and it evaluates
the products at one such point per word only where they do not.
Dense matrices (`tau_matrix`, `rho`, `rho_inv`, `rho_elt`) are built only
for output such as characteristic polynomials.  The 0-Hecke action
(`zero_hecke_action`) is the same word product on the tau_s table at u = 0.

The linear characters need no arithmetic: `linear_char_dims` finds the
trivial eigenline on every component, and the sign eigenline on every
component whose edges each raise the digraph walk's (net solid, net dashed)
level pair by the unit of their own style (the proof is in its docstring).

Every function here that reads the edge pairing calls
`SLabeledDigraph.coded_pairing` first, so each raises its ValueError, the
first line of `validate_structure`, on a digraph with a loop or a vertex
that does not meet exactly one edge per label, and none computes on one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Sequence

from .coxeter import GroupElement
from .digraph import CODE_ENDS, DASHED, SOLID, Edge, SLabeledDigraph
from .exactalg import (P_ONE, P_U, P_ZERO, RF_ZERO, Poly, RatFunc, RatMatrix,
                       _pack, sigma)

U2 = Poly((0, 0, 1))                    # u^2
U2M1 = Poly((-1, 0, 1))                 # u^2 - 1
U_PLUS_1 = Poly((1, 1))                 # u + 1
U2MU = Poly((0, -1, 1))                 # u^2 - u
U2MUM1 = Poly((-1, -1, 1))              # u^2 - u - 1

# per-column (self, partner) coefficients of tau_s over Z[u], keyed by (role,
# style); a zero self coefficient is None, so the kernel skips it.  This is
# the one place the generator rule is written: every other table here, and
# the Hecke algebra's own generators in `hecke`, are read off it
_TAU_CASES = {
    ("tail", SOLID): (None, P_ONE),
    ("head", SOLID): (U2M1, U2),
    ("tail", DASHED): (P_U, U_PLUS_1),
    ("head", DASHED): (U2MUM1, U2MU),
}


def _shifted(c: Poly) -> dict:
    """The cases of tau_s - c, again over Z[u]."""
    return {key: (((self_c or P_ZERO) - c) or None, partner_c)
            for key, (self_c, partner_c) in _TAU_CASES.items()}


# S_s = tau_s - (u^2-1) = u^2 tau_s^-1, and S_s - u, the numerator of a
# dashed edge's bar step
_S_CASES = _shifted(U2M1)
_S_MINUS_U_CASES = _shifted(U2M1 + P_U)

# u^2 sigma(S_s), entrywise: the S_s coefficients have degree at most 2, so
# each image lies in Z[u] again.  Case by case it is the _TAU_CASES case of
# the other role: the tau_s table of the reversed digraph (lemma 1 of
# `reversal_identities`)
_TWISTED_S_CASES = {key: tuple(None if c is None
                               else (RatFunc(U2) * sigma(RatFunc(c))).num
                               for c in case)
                    for key, case in _S_CASES.items()}

# a sparse vector: index -> nonzero coefficient (a Poly or an int)
SparseVec = dict


class ModuleRep:
    """Generator actions on the free module over a digraph's vertex set."""

    def __init__(self, digraph: SLabeledDigraph):
        self.digraph = digraph
        self.system = digraph.system
        self.n = len(digraph.vertices)
        # _columns[s][i] = (partner, self coefficient or None, partner
        # coefficient) of column i of tau_s over Z[u]
        self._columns = _table(digraph.coded_pairing(), _TAU_CASES)
        self._rho_cache: dict[GroupElement, list[SparseVec]] = {}

    # -- dense output ------------------------------------------------------------------------

    def tau_matrix(self, s) -> RatMatrix:
        return self.rho(self.system.gen(s))

    def _matrix(self, cols: list[SparseVec], den: Poly = P_ONE) -> RatMatrix:
        """The RatMatrix with columns cols over Z[u], each entry over den."""
        return RatMatrix([[RatFunc(col[i], den) if i in col else RF_ZERO
                           for col in cols] for i in range(self.n)])

    # -- the algebra representation ----------------------------------------------------------

    def _rho_columns(self, w: GroupElement) -> list[SparseVec]:
        """The columns of T_w = T_{s_1} ... T_{s_k} over Z[u], w = s_1...s_k
        (s_k acts first), memoized per element."""
        cols = self._rho_cache.get(w)
        if cols is None:
            cols = self._rho_cache[w] = _word_columns(
                self._columns, w.word[::-1], self.n)
        return cols

    def rho(self, w: GroupElement) -> RatMatrix:
        """The matrix of the basis element T_w."""
        return self._matrix(self._rho_columns(w))

    def rho_inv(self, w: GroupElement) -> RatMatrix:
        """The matrix of T_w^-1, u^(-2 l(w)) S_w, where S_w = u^(2 l(w))
        T_w^-1 = S_{s_k} ... S_{s_1} over Z[u], w = s_1...s_k."""
        table = _table(self.digraph.coded_pairing(), _S_CASES)
        return self._matrix(_word_columns(table, w.word, self.n),
                            Poly.monomial(1, 2 * w.length))

    def rho_elt(self, h) -> RatMatrix:
        """Extend rho linearly to a finitely supported combination, a
        `hecke.HeckeElt`."""
        if h.system is not self.system:
            raise ValueError("element from a different system")
        out = RatMatrix.zero(self.n)
        for w, c in h.coeffs.items():
            out = out + self.rho(w).scale(c)
        return out

    def character(self, w: GroupElement) -> RatFunc:
        return RatFunc(_trace(self._rho_columns(w)))


def _table(pairing, cases: dict, at=None) -> list[list[tuple]]:
    """The column table of `cases` over the (partners, codes) rows of an
    edge pairing (`SLabeledDigraph.coded_pairing`, `digraph.cycle_pairing`):
    table[s][i] = (partner, self coefficient or None, partner coefficient)
    of column i, the case read off its code.  With `at`, every coefficient
    c becomes at(c), for example its value at one integer u."""
    if at is not None:
        cases = _cases_at(cases, at)
    by_code = [None, *map(cases.__getitem__, CODE_ENDS[1:])]
    return [[(p,) + by_code[c] for p, c in zip(partners, codes)]
            for partners, codes in pairing]


def _cases_at(cases: dict, at) -> dict:
    """`cases` with every coefficient c mapped to at(c); None stays None."""
    return {key: tuple(None if c is None else at(c) for c in case)
            for key, case in cases.items()}


def _apply_columns(columns, vec: dict, zero=P_ZERO) -> dict:
    """Sum c * (column i) over the entries i: c of vec, dropping cancellations.

    The coefficients are Polys, from a Z[u] `_table`, ints (zero = 0), from
    a `_table` with u specialized to an integer, or RatFuncs (zero =
    RF_ZERO), from the Hecke algebra's regular columns, keyed by group
    element.
    """
    out = {}
    get = out.get
    for i, c in vec.items():
        partner, self_c, partner_c = columns[i]
        if self_c is not None:
            out[i] = get(i, zero) + self_c * c
        out[partner] = get(partner, zero) + partner_c * c
    return {i: c for i, c in out.items() if c}


def _word_apply(table, word, vec: dict, zero=P_ZERO) -> dict:
    """table[word[-1]] ... table[word[0]] applied to vec: word[0] acts
    first."""
    for s in word:
        vec = _apply_columns(table[s], vec, zero)
    return vec


def _exact_bits(k: int, terms: int = 1) -> int:
    """Bits b such that evaluation at u = 2^b decides, exactly, an equality
    between sums of `terms` entries of two products of k column tables whose
    columns all have coefficient L1 norm at most 5.

    The coefficient L1 norm |p|_1 is submultiplicative on Z[u], so the
    largest column norm of a table is submultiplicative under products: each
    entry of a product of k tables, applied to a unit column, is an integer
    polynomial with |p|_1 <= 5^k.  A sum of `terms` such entries on each side
    differs from the other by an integer polynomial whose coefficients are at
    most 2 * terms * 5^k in absolute value.  If it is nonzero, each of its
    roots lies below Cauchy's bound 1 + 2 * terms * 5^k in absolute value;
    2^(3k+2) = 4 * 8^k > 1 + 2 * 5^k, and 2^((terms-1).bit_length()) >= terms,
    so 2^b lies past the bound and the difference does not vanish there.
    This is a coefficient bound, not sampling.  The tau_s, S_s and u^2
    sigma(S_s) tables all have column norm at most 5 (the dashed head column
    of tau_s, u^2-u-1 and u^2-u, attains it).
    """
    return 3 * k + 2 + (terms - 1).bit_length()


def _word_columns(table, word, n: int, one=P_ONE, zero=P_ZERO
                  ) -> list[SparseVec]:
    """`_word_apply` on the n unit columns, over Z[u] or, with one = 1 and
    zero = 0, over the integers of a specialized table."""
    return [_word_apply(table, word, {j: one}, zero) for j in range(n)]


def _trace(cols: list[SparseVec], zero=P_ZERO):
    t = zero
    for j, col in enumerate(cols):
        t = t + col.get(j, zero)
    return t


# -- linear character eigenspaces ---------------------------------------------------------------


@dataclass(frozen=True)
class LinearCharacterDims:
    dim_ind: int
    dim_sgn: int
    predicted_ind: int
    predicted_sgn: int


def linear_char_dims(digraph: SLabeledDigraph) -> LinearCharacterDims:
    """Eigenspace dimensions for the two linear characters, with the
    structural predictions (component count; acyclic component count), read
    off the digraph's one walk and its (solid, dashed) level pairs.

    Each 2x2 block of tau_s (an s-edge x -> y) has the distinct eigenvalues
    u^2 and -1, each with a line of eigenvectors v[y] = r v[x] whose slope
    the block's first row in `_TAU_CASES` fixes (tail_self + r head_partner
    = lam): r = 1 for u^2 (ind), and r = R_solid = -1/u^2 or R_dashed =
    -(u+1)/(u^2-u) for -1 (sgn), by the edge's style.  The digraph passes
    `coded_pairing`'s gate, so tau_s is made of such blocks alone.  A
    simultaneous eigenvector lies on every block's line, so on a connected
    component it is fixed by its value at one vertex, and each character's
    eigenspace has one dimension per component on which the ratios multiply
    to 1 around every circuit.

    - ind: every ratio is 1, so every component carries the line.
    - sgn: the walk reaches v with the value R_solid^a R_dashed^b times the
      root's, (a, b) the net solid and dashed steps, its level pair.  That
      value is (-1)^(a+b) u^-(2a+b) (u+1)^b (u-1)^-b, and u, u+1, u-1 are
      distinct irreducibles, so it is 1 iff a = b = 0.  The circuits that
      each edge off the walk's tree closes with the tree span all circuits,
      and that of an edge x -> y has the net counts level(y) - level(x) -
      the edge's `digraph.LEVEL_STEP`, up to sign.  So the line exists iff
      every edge raises the level pair by the unit of its own style.

    The walk flags each component on which some edge breaks that rule, so
    dim sgn is the count of the unflagged ones.
    """
    digraph.coded_pairing()     # the structure gate
    analysis = digraph.analyze()
    n = analysis.n_components
    return LinearCharacterDims(
        dim_ind=n,
        dim_sgn=n - sum(off_step for off_step, _ in digraph._walk[2]),
        predicted_ind=n,
        predicted_sgn=analysis.n_acyclic,
    )


# -- reversal identities ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    word: str
    twist_matrix: bool | None = None
    twist_trace: bool | None = None
    sign_matrix: bool | None = None
    sign_trace: bool | None = None
    skipped: str | None = None


def _sign_diagonal(digraph: SLabeledDigraph):
    """(-1)^(distance from the component source), as a diagonal sign list;
    None unless every component is acyclic with one source, which then
    reaches all of it."""
    signs = [None] * len(digraph.vertices)
    for comp in digraph.analyze().components:
        if len(comp.sources) != 1 or not comp.acyclic:
            return None
        source = digraph.vertex_index[comp.sources[0]]
        for i, mu in digraph.distances_from(source).items():
            signs[i] = -1 if mu % 2 else 1
    return signs


def reversal_identities(digraph: SLabeledDigraph,
                        words: Sequence[GroupElement]) -> list[IdentityReport]:
    """Check the two matrix-level reversal identities and their traces.

    For each test word w:
      twist: rho_rev(T_w) equals the entrywise u -> -1/u image of
             rho(T_{w^{-1}}^{-1});
      sign:  rho_rev(T_w) equals eps_w u_w (D rho(T_w^{-1}) D)^T with D the
             source-distance sign diagonal (requires acyclicity).

    Both sides lie in Z[u], with no denominator: rho(T_{w^-1})^-1 =
    u^(-2l) S_{w^-1} (l = l(w)), and sigma is a ring map, so its sigma image
    u^(2l) sigma(S_{w^-1}) is the product of the tables u^2 sigma(S_s)
    (`_TWISTED_S_CASES`) along the same word.  On the sign side u_w
    rho(T_w^-1) = u^(2l) u^(-2l) S_w is S_w itself.  With w = s_1...s_k,
    rho_rev(T_w) = tau'_{s_1} ... tau'_{s_k}, tau'_s the tau_s table of the
    reversed digraph.  Two lemmas decide most words with no arithmetic.

    Lemma 1 (the twist side is the reversed tau table).  Reversing an edge
    keeps its style and exchanges its tail and head, so tau'_s reads the
    `_TAU_CASES` case of the other role at each end.  Case by case,
    u^2 sigma(S_s) is exactly that: S_s = tau_s - (u^2-1) has (self,
    partner) coefficients (1-u^2, 1) at a solid tail, (0, u^2) at a solid
    head, (1+u-u^2, u+1) at a dashed tail and (-u, u^2-u) at a dashed head,
    and u^2 sigma maps them to (u^2-1, u^2), (0, 1), (u^2-u-1, u^2-u) and
    (u, u+1), the tau_s cases of a solid head, a solid tail, a dashed head
    and a dashed tail.  So tau'_s = u^2 sigma(S_s) on the pairing of the
    digraph itself, and both sides of the twist identity are products of
    that one table: rho_rev(T_w) along s_k, ..., s_1 (s_k acts first) and
    u^(2l) sigma(S_{w^-1}) along the canonical word of w^-1 (its first
    letter acts first).  Both are reduced words of w^-1; when they are the
    same word, the products are the same matrix.

    Lemma 2 (the sign side matches letter by letter).  D^2 = 1, so
    eps_w D S_w^T D = (-D S_{s_1}^T D) ... (-D S_{s_k}^T D), the same order
    of letters as rho_rev(T_w).  On the 2x2 block of an s-edge x -> y,
    -D S_s^T D has the diagonal entries -S_s[x][x] and -S_s[y][y], which by
    the cases above are tau'_s[x][x] = u^2-1 or u^2-u-1 and tau'_s[y][y] =
    0 or u, by style; and the off-diagonal entries -D_x D_y S_s[y][x] and
    -D_x D_y S_s[x][y], against tau'_s[x][y] = S_s[y][x] and tau'_s[y][x] =
    S_s[x][y], which are nonzero (shifting by a constant keeps the partner
    coefficients).  So the factor of s equals tau'_s exactly when every
    s-edge joins ends of opposite parity, D_x D_y = -1, and when that holds
    for every letter of w the two sides are the same product.

    Equal matrices have equal traces, so a trace is compared only when the
    matrices differ.  A word the lemmas leave open is computed: each side is
    a product of l tables whose columns have coefficient L1 norm at most 5,
    so it is evaluated at the one integer point u = 2^bits, bits =
    `_exact_bits(l, n)`, and compared as ints: the matrices entry by entry,
    the traces as sums of n diagonal entries.  By the bound in
    `_exact_bits` the ints agree exactly when the polynomials do.
    """
    pairing = digraph.coded_pairing()
    signs = _sign_diagonal(digraph)
    n = len(digraph.vertices)
    reports = []
    for w in words:
        report = IdentityReport(word=str(w))
        rev_word, inverse_word = w.word[::-1], w.inverse().word
        lhs = None
        if rev_word == inverse_word:
            report.twist_matrix = report.twist_trace = True
        else:
            lhs = _columns_at(pairing, _TWISTED_S_CASES, rev_word, n)
            report.twist_matrix, report.twist_trace = _compare(
                lhs, _columns_at(pairing, _TWISTED_S_CASES, inverse_word, n))
        if signs is None:
            report.skipped = "sign identity needs acyclic components with sources"
        elif all(signs == [-signs[p] for p in pairing[s][0]]
                 for s in set(w.word)):
            # every edge of every letter joins D = 1 to D = -1
            report.sign_matrix = report.sign_trace = True
        else:
            if lhs is None:
                lhs = _columns_at(pairing, _TWISTED_S_CASES, rev_word, n)
            eps = -1 if w.length % 2 else 1
            # entry (i, j) of S_w lands at (j, i), times eps_w D_i D_j
            flipped: list[SparseVec] = [{} for _ in range(n)]
            for j, col in enumerate(_columns_at(pairing, _S_CASES, w.word, n)):
                for i, c in col.items():
                    flipped[i][j] = c if signs[i] * signs[j] == eps else -c
            report.sign_matrix, report.sign_trace = _compare(lhs, flipped)
        reports.append(report)
    return reports


def _columns_at(pairing, cases: dict, word, n: int) -> list[SparseVec]:
    """`_word_columns` of the `cases` table along word at u = 2^bits, bits =
    `_exact_bits(len(word), n)`, with tables for word's letters alone."""
    at = partial(_pack, bits=_exact_bits(len(word), n))
    letters = sorted(set(word))
    table = dict(zip(letters, _table(map(pairing.__getitem__, letters),
                                     cases, at)))
    return _word_columns(table, word, n, 1, 0)


def _compare(a: list[SparseVec], b: list[SparseVec]) -> tuple[bool, bool]:
    """(matrices equal, traces equal) for two int column lists."""
    if a == b:
        return True, True
    return False, _trace(a, 0) == _trace(b, 0)


# -- the 0-specialization action -----------------------------------------------------------------


def zero_hecke_action(digraph: SLabeledDigraph, w: GroupElement, alpha: str
                      ) -> tuple[int, str]:
    """Apply the degenerate generators along a reduced word of w: the tau_s
    table at u = 0.

    A tail moves to its head with coefficient 1, and a head is negated, so
    the result is always +/- one vertex.
    """
    table = _table(digraph.coded_pairing(), _TAU_CASES, lambda c: c(0))
    vec = _word_apply(table, w.word[::-1], {digraph.vertex_index[alpha]: 1}, 0)
    ((i, sign),) = vec.items()
    return sign, digraph.vertices[i]


# -- bar operator propagation ------------------------------------------------------------------------


@dataclass
class BarSolution:
    images: dict | None
    consistent: bool
    witness: tuple | None = None


def bar_from_source(digraph: SLabeledDigraph) -> BarSolution:
    """Try to build the additive bijection fixing the source.

    The image of the source is itself; along a solid edge the head's image is
    rho(T_s)^{-1} applied to the tail's image, and along a dashed edge it is
    u/(u+1) (rho(T_s)^{-1} - 1/u) applied to it.  Propagation follows a BFS
    spanning tree of the arrow view on vertex indices, stepping from each
    vertex along its out-edges in the edge pairing, generators in label-name
    order (the order of `edges`); a non-tree edge is a pure consistency
    check performed at the moment it is encountered, and the first failing
    edge is the witness.

    Each image is P / (u^a (u+1)^b) with P sparse over Z[u], kept as
    (P, a, b).  Since rho(T_s)^{-1} = u^-2 S_s, a solid edge maps it to
    (S_s P, a+2, b), and since u/(u+1) (u^-2 S_s - u^-1) = (S_s - u) /
    (u(u+1)), a dashed edge maps it to ((S_s - u) P, a+1, b+1).
    """
    pairing = digraph.coded_pairing()
    analysis = digraph.analyze()
    if analysis.n_components != 1:
        raise ValueError("bar propagation needs a connected digraph")
    sources = analysis.components[0].sources
    if len(sources) != 1:
        raise ValueError("bar propagation needs a unique source")
    names = digraph.vertices
    n = len(names)
    steps = {SOLID: (_table(pairing, _S_CASES), 2, 0),
             DASHED: (_table(pairing, _S_MINUS_U_CASES), 1, 1)}
    gens = sorted(digraph.system.index.items())

    source = digraph.vertex_index[sources[0]]
    images = {source: ({source: P_ONE}, 0, 0)}
    queue = deque([source])
    while queue:
        i = queue.popleft()
        vec, a, b = images[i]
        for label, s in gens:
            partners, codes = pairing[s]
            role, style = CODE_ENDS[codes[i]]
            if role == "head":
                continue
            j = partners[i]
            table, da, db = steps[style]
            propagated = (_apply_columns(table[s], vec), a + da, b + db)
            known = images.get(j)
            if known is None:
                images[j] = propagated
                queue.append(j)
            elif not _same_image(propagated, known):
                edge = Edge(names[i], names[j], label, style)
                return BarSolution(images=None, consistent=False,
                                   witness=(edge, _as_ratfuncs(propagated, n),
                                            _as_ratfuncs(known, n)))
    if len(images) != n:
        raise ValueError("not every vertex is reachable from the source")
    return BarSolution(images={names[i]: _as_ratfuncs(x, n)
                               for i, x in images.items()},
                       consistent=True)


def _u_powers(a: int, b: int) -> Poly:
    """u^a (u+1)^b."""
    return Poly.monomial(1, a) * U_PLUS_1 ** b


def _same_image(x: tuple, y: tuple) -> bool:
    """Whether the bar images P / (u^a (u+1)^b) and Q / (u^c (u+1)^d) are
    equal: the same support, and then P = Q if the exponents agree, or else
    P u^c (u+1)^d = Q u^a (u+1)^b with the common powers cancelled."""
    (p, a, b), (q, c, d) = x, y
    if p.keys() != q.keys():
        return False
    if (a, b) == (c, d):
        return p == q
    low_a, low_b = min(a, c), min(b, d)
    p_scale = _u_powers(c - low_a, d - low_b)
    q_scale = _u_powers(a - low_a, b - low_b)
    return all(p[i] * p_scale == q[i] * q_scale for i in p)


def _as_ratfuncs(image: tuple, n: int) -> list[RatFunc]:
    """The bar image (P, a, b) as a dense list of n RatFuncs, each reduced
    with no gcd: u and u+1 are the only irreducible factors of u^a (u+1)^b,
    so an entry is in lowest terms once the powers of u that divide it (at
    most a) and the factors u+1 (at most b, each found as a zero remainder
    of synthetic division at -1) are cancelled."""
    vec, a, b = image
    dens: dict[tuple[int, int], Poly] = {}
    out = [RF_ZERO] * n
    for i, p in vec.items():
        cs = p.coeffs
        shift = 0
        while shift < a and not cs[shift]:
            shift += 1
        cs, a_i, b_i = list(cs[shift:]), a - shift, b
        while b_i and len(cs) > 1:
            q = cs[:]                   # becomes [P(-1), quotient by u+1]
            for k in range(len(q) - 2, -1, -1):
                q[k] -= q[k + 1]
            if q[0]:
                break
            cs, b_i = q[1:], b_i - 1
        den = dens.get((a_i, b_i))
        if den is None:
            den = dens[a_i, b_i] = _u_powers(a_i, b_i)
        out[i] = RatFunc(Poly(cs), den, _canonical=True)
    return out


# -- theorem-level checkers ------------------------------------------------------------------------


@dataclass
class TheoremReport:
    source_sink: dict = field(default_factory=dict)
    index_bound: dict = field(default_factory=dict)
    vertex_bound: dict = field(default_factory=dict)
    equal_lengths: dict = field(default_factory=dict)
    wgraph_obstruction: dict = field(default_factory=dict)


def _restricted_component_counts(digraph: SLabeledDigraph) -> list[int]:
    """counts[mask] = the number of components of `digraph.restrict(J)`, J
    the generators whose bits are set in mask, with no digraph built.  The
    union-find forest of a mask is that of the mask without its top bit,
    copied, joined along the top generator's edges, each read once off
    the edge pairing at its tail.  The masks are grown depth first, so at
    most rank forests are held at once."""
    n = len(digraph.vertices)
    arcs = [[(a, b) for a, b, c in zip(range(n), partners, codes) if c & 1]
            for partners, codes in digraph.coded_pairing()]
    rank = len(arcs)
    counts = [0] * (1 << rank)

    def grow(mask: int, parent: list[int], comps: int) -> None:
        counts[mask] = comps
        for s in range(mask.bit_length(), rank):
            forest, joined = list(parent), comps
            for a, b in arcs[s]:
                while forest[a] != a:
                    forest[a] = a = forest[forest[a]]
                while forest[b] != b:
                    forest[b] = b = forest[forest[b]]
                if a != b:
                    forest[a] = b
                    joined -= 1
            grow(mask | 1 << s, forest, joined)

    grow(0, list(range(n)), n)
    return counts


def theorem_checkers(digraph: SLabeledDigraph) -> TheoremReport:
    """Structured pass/fail/not-applicable report for the structure theorems.

    The bounds |W| and [W : W_J] come from `CoxeterSystem.parabolic_order`
    and its table over every J, `parabolic_orders`, so no group element is
    built and the cost does not grow with |W|.
    The digraph passes `coded_pairing`'s gate first, so a vertex's
    incoming-label set is empty exactly at a source and full exactly at a
    sink, and the obstruction's evidence counts those."""
    digraph.coded_pairing()     # the structure gate
    report = TheoremReport()
    system = digraph.system
    gens = system.generators
    analysis = digraph.analyze()
    finite_order = all(inf not in row for row in system.matrix)
    order_w = system.parabolic_order()
    finite_w = order_w is not inf

    if finite_order:
        per_comp_ok = all(len(c.sources) <= 1 and len(c.sinks) <= 1
                          for c in analysis.components)
        has_src_implies_acyclic = all(
            c.acyclic for c in analysis.components
            if c.sources or c.sinks)
        entry = {"status": "pass" if per_comp_ok and has_src_implies_acyclic
                 else "fail",
                 "unique_per_component": per_comp_ok}
        if finite_w:
            both = all(len(c.sources) == 1 and len(c.sinks) == 1
                       for c in analysis.components)
            entry["finite_has_both"] = both
            entry["acyclic"] = analysis.all_acyclic
            entry["counts_match_components"] = (
                analysis.n_sources == analysis.n_components
                == analysis.n_sinks)
            if not (both and analysis.all_acyclic):
                entry["status"] = "fail"
        report.source_sink = entry
    else:
        report.source_sink = {"status": "not-applicable",
                              "reason": "some order is infinite"}

    if finite_w and analysis.n_components == 1:
        results = {}
        ok = True
        restricted_counts = _restricted_component_counts(digraph)
        for mask, order_j in enumerate(system.parabolic_orders()):
            J = [g for i, g in enumerate(gens) if mask >> i & 1]
            bound = order_w // order_j
            comps = restricted_counts[mask]
            results["".join(J) or "empty"] = (comps, bound)
            ok = ok and comps <= bound
        report.index_bound = {"status": "pass" if ok else "fail",
                              "per_subset": results}
        report.vertex_bound = {
            "status": "pass" if len(digraph.vertices) <= order_w else "fail",
            "vertices": len(digraph.vertices),
            "group_order": order_w,
            "attained": len(digraph.vertices) == order_w}
    else:
        reason = ("infinite group" if not finite_w else "not connected")
        report.index_bound = {"status": "not-applicable", "reason": reason}
        report.vertex_bound = {"status": "not-applicable", "reason": reason}

    counterexample = digraph.equal_path_lengths_check()
    applicable = finite_order and all(c.sources or c.sinks
                                      for c in analysis.components)
    if not applicable:
        report.equal_lengths = {"status": "not-applicable",
                                "counterexample": counterexample}
    elif counterexample is None:
        report.equal_lengths = {"status": "pass"}
    else:
        report.equal_lengths = {"status": "fail",
                                "counterexample": counterexample}

    # obstruction: with finite proper parabolics, a finite connected digraph
    # affording a rational cell-graph module must be acyclic; so a cyclic one
    # cannot afford any.  Every parabolic of a finite W is finite
    proper_finite = finite_w or all(
        system.parabolic_order(gens[:i] + gens[i + 1:]) is not inf
        for i in range(len(gens)))
    connected = analysis.n_components == 1
    if proper_finite and connected and not analysis.all_acyclic:
        dims = linear_char_dims(digraph)
        report.wgraph_obstruction = {
            "status": "fires",
            "message": "no W-graph over the rationals can afford this module",
            "evidence": {
                "sinks": analysis.n_sinks,
                "dim_sgn": dims.dim_sgn,
                "n_in_empty": analysis.n_sources,
                "n_in_full": analysis.n_sinks,
            },
        }
    else:
        report.wgraph_obstruction = {"status": "not-applicable"}
    return report
