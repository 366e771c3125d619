"""The Hecke algebra of a Coxeter system in its standard basis.

Elements are finitely supported maps from group elements to rational
functions.  The algebra is the module of its own left-regular digraph, in
which every edge is solid and runs w -> sw when l(sw) > l(w), so left
multiplication by a generator is `modrep`'s kernel on the columns of that
digraph, with the coefficients of `modrep._TAU_CASES`; products expand the
left factor along canonical reduced words into such multiplications, and no
structure-constant table is ever materialized.  The same kernel gives the
inverses of the generators, the normalized generators realizing dashed
edges, and their inverses.  Also here: inverses of basis elements, the bar
involution, the dihedral element families, and the extraction of a labeled
digraph from a subset of a module that supports one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coxeter import CoxeterSystem, GroupElement, _alternation
from .digraph import SOLID, SLabeledDigraph
from .exactalg import (P_ZERO, Poly, RF_ONE, RF_U, RF_ZERO, RatFunc,
                       matrix_rank, poly_p, ubar)
from .families import TEMPLATES, FamilySpec, family_arc_steps
from .modrep import _TAU_CASES, _apply_columns, _shifted

# the regular columns of (T_s - c)/d, (c, d) the self and partner
# coefficients of tau_s at one (role, style): T_s at (tail, solid), T_s^-1 at
# (head, solid), the generator of a dashed edge at (tail, dashed) and its
# inverse at (head, dashed).  Keyed by that (role, style), then by the role
# of the column; every edge of the regular digraph is solid.
_GENERATORS = {key: {role: tuple(None if x is None else RatFunc(x, d)
                                 for x in _shifted(c or P_ZERO)[(role, SOLID)])
                     for role in ("tail", "head")}
               for key, (c, d) in _TAU_CASES.items()}


class HeckeElt:
    """A finitely supported linear combination of basis elements T_w."""

    __slots__ = ("system", "coeffs")

    def __init__(self, system: CoxeterSystem, coeffs: dict | None = None):
        self.system = system
        clean = {}
        if coeffs:
            for w, c in coeffs.items():
                if w.system is not system:
                    raise ValueError("mixed systems in one element")
                if c.num.coeffs:
                    clean[w] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------------

    @staticmethod
    def T(w: GroupElement) -> "HeckeElt":
        return HeckeElt(w.system, {w: RF_ONE})

    @staticmethod
    def one(system: CoxeterSystem) -> "HeckeElt":
        return HeckeElt(system, {system.identity(): RF_ONE})

    @staticmethod
    def zero(system: CoxeterSystem) -> "HeckeElt":
        return HeckeElt(system, {})

    # -- linear structure -------------------------------------------------------------

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
        return HeckeElt(self.system, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + -other

    def __neg__(self) -> "HeckeElt":
        return HeckeElt(self.system, {w: -c for w, c in self.coeffs.items()})

    def scale(self, c: RatFunc) -> "HeckeElt":
        if not c.num.coeffs:
            return HeckeElt.zero(self.system)
        return HeckeElt(self.system, {w: c * x for w, x in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, HeckeElt) and self.system is other.system
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __getitem__(self, w: GroupElement) -> RatFunc:
        return self.coeffs.get(w, RF_ZERO)

    def support(self) -> list[GroupElement]:
        return sorted(self.coeffs, key=lambda w: w.sort_key())

    # -- multiplication ----------------------------------------------------------------

    def _left_mult(self, s, key=("tail", SOLID)) -> "HeckeElt":
        """Left multiplication by (T_s - c)/d, (c, d) the self and partner
        coefficients of `_TAU_CASES[key]`: T_s by default.  Column w of the
        regular module has the partner sw and is the tail when l(sw) > l(w).
        """
        system = self.system
        si = system._gen_index(s)
        roles = _GENERATORS[key]
        columns = {}
        for w in self.coeffs:
            sw = system.lmult(w.word, si)
            columns[w] = ((GroupElement(system, sw),)
                          + roles["tail" if len(sw) > len(w.word) else "head"])
        return HeckeElt(system, _apply_columns(columns, self.coeffs, RF_ZERO))

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        if self.system is not other.system:
            raise ValueError("mixed systems in a product")
        out = HeckeElt.zero(self.system)
        for w, c in self.coeffs.items():
            term = other
            for s in reversed(w.word):
                term = term._left_mult(s)
            out = out + term.scale(c)
        return out

    # -- printing ----------------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in self.support():
            c = self.coeffs[w]
            cs = str(c)
            if cs == "1":
                parts.append(f"T[{w}]")
            else:
                parts.append(f"({cs})*T[{w}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"HeckeElt({self})"


def invert_Tw(w: GroupElement) -> HeckeElt:
    """The inverse of T_w, expanded along the reversed reduced word."""
    h = HeckeElt.one(w.system)
    for s in w.word:
        h = h._left_mult(s, ("head", SOLID))
    return h


def bar(h: HeckeElt) -> HeckeElt:
    """The ring involution: coefficients through u -> 1/u, T_w -> T_{w^{-1}}^{-1}."""
    out = HeckeElt.zero(h.system)
    for w, c in h.coeffs.items():
        out = out + invert_Tw(w.inverse()).scale(ubar(c))
    return out


class Dihedral:
    """The rank-two slice spanned by two generators with 1 < n(s,t) < infinity.

    Provides the alternating words, the length-graded sums sigma_k, and the
    four element families phi, eta, gamma, delta built from them.
    """

    def __init__(self, system: CoxeterSystem, s, t):
        self.system = system
        self.s = system._gen_index(s)
        self.t = system._gen_index(t)
        n = system.order(self.s, self.t)
        if not 1 < n < float("inf"):
            raise ValueError("need 1 < n(s,t) < infinity")
        self.n = int(n)

    def word_s(self, k: int) -> GroupElement:
        """The alternating word ...sts with k letters, ending in s."""
        self._check_k(k)
        return self.system.element(_alternation(self.s, self.t, k))

    def word_t(self, k: int) -> GroupElement:
        """The alternating word ...tst with k letters, ending in t."""
        self._check_k(k)
        return self.system.element(_alternation(self.t, self.s, k))

    def _check_k(self, k: int):
        if not 0 <= k <= self.n:
            raise ValueError(f"k must lie in 0..{self.n}")

    def sigma(self, k: int) -> HeckeElt:
        """Sum of T_w over the length-k elements of the parabolic."""
        self._check_k(k)
        if k == 0:
            return HeckeElt.one(self.system)
        out = HeckeElt.T(self.word_s(k))
        if self.word_t(k) != self.word_s(k):
            out = out + HeckeElt.T(self.word_t(k))
        return out

    def phi(self, j: int) -> HeckeElt:
        """sum_{i=0..j} p_{j-i} sigma_i."""
        self._check_k(j)
        out = HeckeElt.zero(self.system)
        for i in range(j + 1):
            out = out + self.sigma(i).scale(RatFunc(poly_p(j - i)))
        return out

    def _phi_series(self, j: int, x: RatFunc) -> HeckeElt:
        """phi_j + x phi_{j-1} + x^2 phi_{j-2} + ... + x^j phi_0."""
        self._check_k(j)
        out = HeckeElt.zero(self.system)
        for i in range(j + 1):
            out = out + self.phi(j - i).scale(x ** i)
        return out

    def eta(self, j: int) -> HeckeElt:
        """phi_j + u phi_{j-1} + u^2 phi_{j-2} + ... + u^j phi_0."""
        return self._phi_series(j, RF_U)

    def gamma(self, j: int) -> HeckeElt:
        """phi_j - u phi_{j-1} + u^2 phi_{j-2} -+ ... + (-u)^j phi_0."""
        return self._phi_series(j, -RF_U)

    def delta(self, j: int) -> HeckeElt:
        """(eta_j + gamma_j)/2; the half stays in the rationals."""
        half = RatFunc(Poly((Fraction(1, 2),)))
        return (self.eta(j) + self.gamma(j)).scale(half)


# -- digraph extraction from a supporting subset ------------------------------------------


class SupportsError(Exception):
    """The given subset does not support a labeled digraph."""

    def __init__(self, message, index=None, generator=None):
        super().__init__(message)
        self.index = index
        self.generator = generator


def _as_vectors(X: Sequence[HeckeElt]):
    basis = sorted({w for h in X for w in h.coeffs},
                   key=lambda w: w.sort_key())
    pos = {w: i for i, w in enumerate(basis)}
    vecs = []
    for h in X:
        v = [RF_ZERO] * len(basis)
        for w, c in h.coeffs.items():
            v[pos[w]] = c
        vecs.append(v)
    return vecs


def supports_digraph(X: Sequence[HeckeElt]) -> SLabeledDigraph:
    """Extract the labeled digraph supported by a subset of an algebra module.

    For each member and each generator, exactly one of the four transforms
    T_s x, T_s^{-1} x, circ(s) x, circ(s)^{-1} x must equal another member;
    a solid edge records the T_s and T_s^{-1} cases, a dashed edge the other
    two, oriented so that the transform maps tail to head.  Member i is the
    vertex x<i>.  Raises SupportsError if the subset is dependent or some
    transform count is not exactly one.
    """
    if not X:
        raise SupportsError("empty subset")
    system = X[0].system
    if matrix_rank(_as_vectors(X)) != len(X):
        raise SupportsError("subset is linearly dependent")
    names = [f"x{i}" for i in range(len(X))]
    index_of = {}
    for i, h in enumerate(X):
        if h in index_of:
            raise SupportsError("subset has repeated members")
        index_of[h] = i
    edges = set()
    for i, h in enumerate(X):
        for si in range(system.rank()):
            gname = system.generators[si]
            hits = set()
            for role, style in _TAU_CASES:
                j = index_of.get(h._left_mult(si, (role, style)))
                if j is not None:
                    tail, head = (i, j) if role == "tail" else (j, i)
                    hits.add((names[tail], names[head], gname, style))
            if len(hits) != 1:
                raise SupportsError(
                    f"member {i} has {len(hits)} transforms landing in the "
                    f"subset for generator {gname}", index=i, generator=gname)
            edges |= hits
    return SLabeledDigraph(system, names, edges)


def dihedral_case_basis(system: CoxeterSystem, s, t, figure: int, m: int
                        ) -> list[HeckeElt]:
    """The explicit basis chains supporting the template of each figure 1..6.

    The starting element depends on the figure (T_e, or an eta/gamma/delta
    family element); each arc then applies T or the circ-normalized T along
    the template's label/style sequence.  Returned in template vertex order
    a0..a_{m-1}, b1..bm.
    """
    dd = Dihedral(system, s, t)
    n = dd.n
    template = TEMPLATES.get(figure)
    if template is None or template.divisor is None:
        raise ValueError("chain bases exist for figures 1..6 only")
    expected = template.divisor(m)
    if n != expected:
        raise ValueError(f"figure {figure} with m={m} needs n(s,t)={expected}")
    if figure in (1, 2, 3):
        start = HeckeElt.one(system)
    elif figure == 4:
        start = dd.eta(m - 1)
    elif figure == 5:
        start = dd.gamma(m - 1)
    else:
        start = dd.delta(m - 2)
    sname = system.generators[dd.s]
    tname = system.generators[dd.t]
    spec = FamilySpec(figure, m, sname, tname)
    left_steps, right_steps = family_arc_steps(spec)

    def run(chain_start, steps):
        out = [chain_start]
        for label, style in steps:
            out.append(out[-1]._left_mult(label, ("tail", style)))
        return out

    left = run(start, left_steps)
    right = run(start, right_steps)
    if left[-1] != right[-1]:
        raise SupportsError("the two chains do not close up")
    return left[:-1] + right[1:]
