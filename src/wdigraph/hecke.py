"""The Hecke algebra of a Coxeter system in its standard basis.

Elements are finitely supported maps from group elements to rational
functions.  Products expand the left factor along canonical reduced words
into generator multiplications, using the two-case rule

    T_s T_w = T_{sw}                       if l(sw) > l(w)
    T_s T_w = u^2 T_{sw} + (u^2-1) T_w     if l(sw) < l(w),

so no structure-constant table is ever materialized.  Also here: inverses of
basis elements, the normalized generators realizing dashed edges, the bar
involution, the dihedral element families, and the extraction of a labeled
digraph from a subset of a module that supports one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coxeter import CoxeterSystem, GroupElement
from .digraph import DASHED, SOLID, Edge, SLabeledDigraph
from .exactalg import (Poly, RF_ONE, RF_U, RF_U2, RF_U2M1, RF_U_M2, RF_ZERO,
                       RatFunc, matrix_rank, poly_p, rf, ubar)
from .families import TEMPLATES, FamilySpec, family_arc_steps


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
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc = out.get(w, RF_ZERO)
            out[w] = acc - c
        return HeckeElt(self.system, out)

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, w: GroupElement) -> RatFunc:
        return self.coeffs.get(w, RF_ZERO)

    def support(self) -> list[GroupElement]:
        return sorted(self.coeffs, key=lambda w: w.sort_key())

    # -- multiplication ----------------------------------------------------------------

    def left_mult_gen(self, s) -> "HeckeElt":
        """Left multiplication by the generator basis element for s."""
        system = self.system
        si = system._gen_index(s)
        out: dict[GroupElement, RatFunc] = {}

        def add(w, c):
            acc = out.get(w)
            out[w] = c if acc is None else acc + c

        for w, c in self.coeffs.items():
            sw, delta = system.multiply_by_generator(w, si, "left")
            if delta > 0:
                add(sw, c)
            else:
                add(sw, RF_U2 * c)
                add(w, RF_U2M1 * c)
        return HeckeElt(system, out)

    def left_mult_gen_inverse(self, s) -> "HeckeElt":
        """Left multiplication by the inverse of a generator basis element."""
        # u^{-2} (T_s - (u^2 - 1))
        return (self.left_mult_gen(s) - self.scale(RF_U2M1)).scale(RF_U_M2)

    def left_mult_circ(self, s) -> "HeckeElt":
        """Left multiplication by the normalized generator realizing dashed edges."""
        c = rf(1, [1, 1])  # 1/(u+1)
        return (self.left_mult_gen(s) - self.scale(RF_U)).scale(c)

    def left_mult_circ_inverse(self, s) -> "HeckeElt":
        c = rf(1, [0, -1, 1])  # 1/(u^2-u)
        shift = rf([-1, -1, 1])  # u^2-u-1
        return (self.left_mult_gen(s) - self.scale(shift)).scale(c)

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        if self.system is not other.system:
            raise ValueError("mixed systems in a product")
        out = HeckeElt.zero(self.system)
        for w, c in self.coeffs.items():
            term = other
            for s in reversed(w.word):
                term = term.left_mult_gen(s)
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
        h = h.left_mult_gen_inverse(s)
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
        letters = [(self.s if i % 2 == 0 else self.t) for i in range(k)][::-1]
        return self.system.element(letters)

    def word_t(self, k: int) -> GroupElement:
        self._check_k(k)
        letters = [(self.t if i % 2 == 0 else self.s) for i in range(k)][::-1]
        return self.system.element(letters)

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

    def eta(self, j: int) -> HeckeElt:
        """phi_j + u phi_{j-1} + u^2 phi_{j-2} + ... + u^j phi_0."""
        self._check_k(j)
        out = HeckeElt.zero(self.system)
        for i in range(j + 1):
            out = out + self.phi(j - i).scale(RF_U ** i)
        return out

    def gamma(self, j: int) -> HeckeElt:
        """phi_j - u phi_{j-1} + u^2 phi_{j-2} -+ ... + (-u)^j phi_0."""
        self._check_k(j)
        out = HeckeElt.zero(self.system)
        for i in range(j + 1):
            out = out + self.phi(j - i).scale((-RF_U) ** i)
        return out

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


def supports_digraph(X: Sequence[HeckeElt], names: Sequence[str] | None = None
                     ) -> SLabeledDigraph:
    """Extract the labeled digraph supported by a subset of an algebra module.

    For each member and each generator, exactly one of the four transforms
    T_s x, T_s^{-1} x, circ(s) x, circ(s)^{-1} x must equal another member;
    a solid edge records the T_s and T_s^{-1} cases, a dashed edge the other
    two, oriented so that the transform maps tail to head.  Raises
    SupportsError if the subset is dependent or some transform count is not
    exactly one.
    """
    if not X:
        raise SupportsError("empty subset")
    system = X[0].system
    if matrix_rank(_as_vectors(X)) != len(X):
        raise SupportsError("subset is linearly dependent")
    if names is None:
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
            hits = []
            t_h = h.left_mult_gen(si)
            if t_h in index_of:
                hits.append(Edge(names[i], names[index_of[t_h]], gname, SOLID))
            ti_h = h.left_mult_gen_inverse(si)
            if ti_h in index_of:
                hits.append(Edge(names[index_of[ti_h]], names[i], gname, SOLID))
            c_h = h.left_mult_circ(si)
            if c_h in index_of:
                hits.append(Edge(names[i], names[index_of[c_h]], gname, DASHED))
            ci_h = h.left_mult_circ_inverse(si)
            if ci_h in index_of:
                hits.append(Edge(names[index_of[ci_h]], names[i], gname, DASHED))
            if len(set(hits)) != 1:
                raise SupportsError(
                    f"member {i} has {len(set(hits))} transforms landing in the "
                    f"subset for generator {gname}", index=i, generator=gname)
            edges.add(hits[0])
    return SLabeledDigraph(system, list(names), sorted(edges))


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
            prev = out[-1]
            if style == SOLID:
                out.append(prev.left_mult_gen(label))
            else:
                out.append(prev.left_mult_circ(label))
        return out

    left = run(start, left_steps)
    right = run(start, right_steps)
    if left[-1] != right[-1]:
        raise SupportsError("the two chains do not close up")
    return left[:-1] + right[1:]
