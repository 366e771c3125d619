"""Coxeter systems with exact group-element arithmetic via the word problem.

Elements are stored as ShortLex-minimal reduced words (minimum over the
braid-move orbit, generator order = declaration order).  Canonical forms and
braid orbits are memoized per system, which makes the orbit BFS, the hot loop
of everything downstream, cheap at the scales we care about (|W| up to a few
thousand).

Finiteness is decided by matching the Coxeter diagram's connected components
against the classification of finite irreducible diagrams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf
from typing import Iterable, Sequence

Word = tuple[int, ...]

DEFAULT_ORBIT_BOUND = 200_000


class OrbitBoundExceeded(Exception):
    """A braid-move orbit grew past the configured safety bound."""


class CoxeterSystem:
    """A Coxeter system given by its generator names and Coxeter matrix.

    Off-diagonal orders are integers >= 2 or math.inf; the diagonal is 1.
    The instance owns memo tables for canonical forms and braid orbits, so
    results are deterministic and depend only on the inputs.
    """

    def __init__(self, generators: Sequence[str], orders: dict,
                 orbit_bound: int = DEFAULT_ORBIT_BOUND):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        n = len(self.generators)
        self.index = {g: i for i, g in enumerate(self.generators)}
        self.orbit_bound = orbit_bound
        mat = [[2] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 1
        for key, value in orders.items():
            a, b = key
            i, j = self._gen_index(a), self._gen_index(b)
            if i == j:
                raise ValueError("diagonal entries are fixed at 1")
            v = inf if value in ("inf", inf) else int(value)
            if v is not inf and v < 2:
                raise ValueError(f"order n({a},{b}) must be >= 2 or inf")
            if mat[i][j] != 2 and mat[i][j] != v:
                raise ValueError(f"conflicting orders for ({a},{b})")
            mat[i][j] = mat[j][i] = v
        self.matrix = tuple(tuple(row) for row in mat)
        self._orbits: dict[Word, tuple[Word, ...]] = {(): ((),)}
        self._rmult: dict[tuple[Word, int], Word] = {}
        self._all_elements: list[GroupElement] | None = None
        self._finite: bool | None = None

    # -- construction ------------------------------------------------------------

    @staticmethod
    def dihedral(n, names: Sequence[str] = ("s", "t")) -> "CoxeterSystem":
        return CoxeterSystem(names, {(names[0], names[1]): n})

    @staticmethod
    def from_json(data) -> "CoxeterSystem":
        """Build from the file format {"generators": [...], "matrix": {"r,s": 3}}.

        Pairs missing from "matrix" default to order 2 (no edge in the
        Coxeter diagram); the value "inf" denotes an infinite order.
        """
        if isinstance(data, str):
            with open(data) as fh:
                data = json.load(fh)
        gens = data["generators"]
        orders = {}
        for key, value in data.get("matrix", {}).items():
            a, b = [part.strip() for part in key.split(",")]
            orders[(a, b)] = value
        return CoxeterSystem(gens, orders)

    def to_json(self) -> dict:
        mat = {}
        for i in range(len(self.generators)):
            for j in range(i + 1, len(self.generators)):
                m = self.matrix[i][j]
                mat[f"{self.generators[i]},{self.generators[j]}"] = (
                    "inf" if m is inf else m)
        return {"generators": list(self.generators), "matrix": mat}

    # -- basics ---------------------------------------------------------------------

    def _gen_index(self, g) -> int:
        if isinstance(g, int):
            if not 0 <= g < len(self.generators):
                raise ValueError(f"generator index {g} out of range")
            return g
        try:
            return self.index[g]
        except KeyError:
            raise ValueError(f"unknown generator {g!r}") from None

    def rank(self) -> int:
        return len(self.generators)

    def order(self, s, t):
        """The order n(s,t) of st, an int >= 1 or math.inf."""
        return self.matrix[self._gen_index(s)][self._gen_index(t)]

    def word_from_str(self, text: str) -> Word:
        """Parse a concatenation of single-character generator names; 'e' = empty."""
        if text in ("", "e"):
            return ()
        return tuple(self._gen_index(ch) for ch in text)

    def word_to_str(self, word: Word) -> str:
        return "".join(self.generators[i] for i in word) if word else "e"

    # -- braid orbits and canonical forms ----------------------------------------------

    def braid_orbit(self, word: Word) -> tuple[Word, ...]:
        """All reduced words obtainable from a reduced word by braid moves.

        The closure under single substitutions of an alternating (s,t)-factor
        of length n(s,t) by the opposite alternation; sorted, memoized, and
        guarded by the orbit safety bound.
        """
        word = tuple(word)
        cached = self._orbits.get(word)
        if cached is not None:
            return cached
        seen = {word}
        queue = [word]
        matrix = self.matrix
        bound = self.orbit_bound
        while queue:
            w = queue.pop()
            lw = len(w)
            for i in range(lw - 1):
                s, t = w[i], w[i + 1]
                if s == t:
                    continue
                n = matrix[s][t]
                if n is inf or i + n > lw:
                    continue
                ok = True
                for k in range(2, n):
                    if w[i + k] != (s if k % 2 == 0 else t):
                        ok = False
                        break
                if not ok:
                    continue
                repl = tuple((t if k % 2 == 0 else s) for k in range(n))
                new = w[:i] + repl + w[i + n:]
                if new not in seen:
                    seen.add(new)
                    if len(seen) > bound:
                        raise OrbitBoundExceeded(
                            f"braid orbit exceeded {bound} words")
                    queue.append(new)
        orbit = tuple(sorted(seen))
        for w in orbit:
            self._orbits[w] = orbit
        return orbit

    def _canonical_rmult(self, canon: Word, s: int) -> Word:
        """Canonical word of (element of canon) * s, memoized."""
        key = (canon, s)
        cached = self._rmult.get(key)
        if cached is not None:
            return cached
        result = None
        for w in self.braid_orbit(canon):
            if w and w[-1] == s:
                result = self.braid_orbit(w[:-1])[0]
                break
        if result is None:
            result = self.braid_orbit(canon + (s,))[0]
        self._rmult[key] = result
        return result

    def canonical(self, word: Iterable) -> Word:
        """ShortLex-minimal reduced word of the element spelled by `word`."""
        out: Word = ()
        for letter in word:
            out = self._canonical_rmult(out, self._gen_index(letter))
        return out

    # -- elements -----------------------------------------------------------------------

    def element(self, word="") -> "GroupElement":
        if isinstance(word, str):
            word = self.word_from_str(word)
        return GroupElement(self, self.canonical(word))

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def gen(self, s) -> "GroupElement":
        return GroupElement(self, (self._gen_index(s),))

    def multiply_by_generator(self, w: "GroupElement", s, side: str = "left"):
        """(ws or sw, +1/-1) depending on whether the length rose or fell."""
        si = self._gen_index(s)
        if side == "right":
            new = self._canonical_rmult(w.word, si)
        elif side == "left":
            new = None
            for ww in self.braid_orbit(w.word):
                if ww and ww[0] == si:
                    new = self.braid_orbit(ww[1:])[0]
                    break
            if new is None:
                # no reduced word of w begins with s, so s(w) is reduced
                new = self.braid_orbit((si,) + w.word)[0]
        else:
            raise ValueError("side must be 'left' or 'right'")
        delta = 1 if len(new) > len(w.word) else -1
        return GroupElement(self, new), delta

    def mult(self, x: "GroupElement", y: "GroupElement") -> "GroupElement":
        self._check_element(x)
        self._check_element(y)
        word = x.word
        for s in y.word:
            word = self._canonical_rmult(word, s)
        return GroupElement(self, word)

    def inverse(self, x: "GroupElement") -> "GroupElement":
        return GroupElement(self, self.canonical(x.word[::-1]))

    def _check_element(self, x: "GroupElement"):
        if x.system is not self:
            raise ValueError("element belongs to a different system")

    def left_descents(self, w: "GroupElement") -> set[int]:
        """Generators s with l(sw) < l(w): first letters over the braid orbit."""
        return {word[0] for word in self.braid_orbit(w.word) if word}

    # -- enumeration ------------------------------------------------------------------------

    def enumerate(self, length_bound=None) -> list["GroupElement"]:
        """All elements of length <= bound (or all of W), sorted (length, ShortLex).

        BFS over right multiplication from the identity.  Requesting the whole
        group of an infinite system is an error.
        """
        if length_bound is None:
            if not self.is_finite():
                raise ValueError("cannot enumerate an infinite Coxeter group; "
                                 "pass a length bound")
            if self._all_elements is not None:
                return list(self._all_elements)
        frontier = [()]
        seen = {()}
        out = [()]
        length = 0
        ngens = len(self.generators)
        while frontier:
            if length_bound is not None and length >= length_bound:
                break
            nxt = set()
            for w in frontier:
                for s in range(ngens):
                    new = self._canonical_rmult(w, s)
                    if len(new) > len(w) and new not in seen:
                        seen.add(new)
                        nxt.add(new)
            frontier = sorted(nxt)
            out.extend(frontier)
            length += 1
        elements = [GroupElement(self, w) for w in out]
        if length_bound is None:
            self._all_elements = list(elements)
        return elements

    def longest_element(self) -> "GroupElement":
        if not self.is_finite():
            raise ValueError("infinite Coxeter groups have no longest element")
        return self.enumerate()[-1]

    # -- finiteness via the diagram classification ------------------------------------------

    def is_finite(self) -> bool:
        if self._finite is None:
            self._finite = all(
                _finite_component_type(comp, self.matrix) is not None
                for comp in self._diagram_components())
        return self._finite

    def _diagram_components(self) -> list[list[int]]:
        n = len(self.generators)
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            comp = []
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in range(n):
                    if not seen[w] and self.matrix[v][w] != 2 and v != w:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    # -- Bruhat order -------------------------------------------------------------------------

    def bruhat_leq(self, x: "GroupElement", y: "GroupElement") -> bool:
        """The subword property: some reduced word of x sits inside y's canonical word."""
        self._check_element(x)
        self._check_element(y)
        if len(x.word) > len(y.word):
            return False
        target = y.word
        for candidate in self.braid_orbit(x.word):
            it = iter(target)
            if all(ch in it for ch in candidate):
                return True
        return False

    # -- parabolic subgroups ---------------------------------------------------------------------

    def parabolic_data(self, J: Iterable):
        """(elements of W_J, distinguished right coset representatives X_J)."""
        Jset = {self._gen_index(s) for s in J}
        everything = self.enumerate()
        wj = [w for w in everything if set(w.word) <= Jset]
        xj = [w for w in everything
              if not (self.left_descents(w) & Jset)]
        return wj, xj

    def support(self, w: "GroupElement") -> frozenset[int]:
        return frozenset(w.word)

    # -- twisted involutions / diagram automorphisms ------------------------------------------------

    def twisted_involutions(self, star: "DiagramAutomorphism",
                            length_bound=None) -> list["GroupElement"]:
        """All x with star(x) = x^{-1}, in (length, ShortLex) order."""
        if not star.is_involution():
            raise ValueError("the diagram automorphism must be involutory")
        return [x for x in self.enumerate(length_bound)
                if star.apply(x) == self.inverse(x)]

    def conjugation_automorphism_by_w0(self, star: "DiagramAutomorphism"
                                       ) -> "DiagramAutomorphism":
        """The automorphism s -> w0 * star(s) * w0 of the diagram."""
        w0 = self.longest_element()
        perm = []
        for i in range(len(self.generators)):
            img = self.mult(self.mult(w0, star.apply(self.gen(i))), w0)
            if len(img.word) != 1:
                raise ValueError("conjugation by w0 did not yield a generator")
            perm.append(img.word[0])
        return DiagramAutomorphism(self, tuple(perm))


@dataclass(frozen=True)
class GroupElement:
    """A group element as its canonical (ShortLex-minimal) reduced word."""

    system: CoxeterSystem
    word: Word

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.system is other.system and self.word == other.word)

    def __hash__(self):
        return hash((id(self.system), self.word))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.system.mult(self, other)

    def inverse(self) -> "GroupElement":
        return self.system.inverse(self)

    def sort_key(self):
        return (len(self.word), self.word)

    def __str__(self):
        return self.system.word_to_str(self.word)

    def __repr__(self):
        return f"<{self}>"


class DiagramAutomorphism:
    """A permutation of the generators preserving the Coxeter matrix."""

    def __init__(self, system: CoxeterSystem, perm: Sequence):
        self.system = system
        self.perm = tuple(system._gen_index(p) for p in perm)
        n = len(system.generators)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("not a permutation of the generators")
        for i in range(n):
            for j in range(n):
                if system.matrix[self.perm[i]][self.perm[j]] != system.matrix[i][j]:
                    raise ValueError("permutation does not preserve the Coxeter matrix")

    @staticmethod
    def identity(system: CoxeterSystem) -> "DiagramAutomorphism":
        return DiagramAutomorphism(system, range(len(system.generators)))

    @staticmethod
    def from_mapping(system: CoxeterSystem, mapping: dict) -> "DiagramAutomorphism":
        perm = list(range(len(system.generators)))
        for src, dst in mapping.items():
            perm[system._gen_index(src)] = system._gen_index(dst)
        return DiagramAutomorphism(system, perm)

    def apply(self, x: GroupElement) -> GroupElement:
        return GroupElement(self.system,
                            self.system.canonical(self.perm[s] for s in x.word))

    def apply_gen(self, s: int) -> int:
        return self.perm[s]

    def compose(self, other: "DiagramAutomorphism") -> "DiagramAutomorphism":
        return DiagramAutomorphism(self.system,
                                   [self.perm[p] for p in other.perm])

    def is_involution(self) -> bool:
        return all(self.perm[self.perm[i]] == i for i in range(len(self.perm)))

    def __eq__(self, other):
        return (isinstance(other, DiagramAutomorphism)
                and self.system is other.system and self.perm == other.perm)

    def __repr__(self):
        names = self.system.generators
        return "DiagramAutomorphism(" + ", ".join(
            f"{names[i]}->{names[p]}" for i, p in enumerate(self.perm)) + ")"


# -- the classification of finite irreducible diagrams ---------------------------------------


def _finite_component_type(comp: list[int], matrix) -> str | None:
    """Name of the finite type of one diagram component, or None if infinite."""
    k = len(comp)
    if k == 1:
        return "A1"
    edges = []
    for a in range(k):
        for b in range(a + 1, k):
            m = matrix[comp[a]][comp[b]]
            if m != 2:
                if m is inf:
                    return None
                edges.append((comp[a], comp[b], m))
    if k == 2:
        return f"I2({edges[0][2]})"
    # components of rank >= 3 must be trees
    if len(edges) != k - 1:
        return None
    adjacency = {v: [] for v in comp}
    for a, b, m in edges:
        adjacency[a].append((b, m))
        adjacency[b].append((a, m))
    degrees = sorted(len(adjacency[v]) for v in comp)
    labels = sorted(m for _, _, m in edges)
    if degrees[-1] > 3:
        return None
    branch_nodes = [v for v in comp if len(adjacency[v]) == 3]
    if len(branch_nodes) > 1:
        return None
    if branch_nodes:
        if any(m != 3 for _, _, m in edges):
            return None
        center = branch_nodes[0]
        arms = []
        for start, _ in adjacency[center]:
            length = 1
            prev, cur = center, start
            while len(adjacency[cur]) == 2:
                nxt = [w for w, _ in adjacency[cur] if w != prev][0]
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] != 1:
            return None
        if arms[1] == 1:
            return f"D{k}"
        if arms[1] == 2 and arms[2] in (2, 3, 4):
            return {2: "E6", 3: "E7", 4: "E8"}[arms[2]]
        return None
    # a path: read its edge labels from one end
    ends = [v for v in comp if len(adjacency[v]) == 1]
    prev, cur = None, ends[0]
    path_labels = []
    while True:
        nxts = [(w, m) for w, m in adjacency[cur] if w != prev]
        if not nxts:
            break
        (nxt, m) = nxts[0]
        path_labels.append(m)
        prev, cur = cur, nxt
    if labels == [3] * (k - 1):
        return f"A{k}"
    if labels == [3] * (k - 2) + [4]:
        if path_labels[0] == 4 or path_labels[-1] == 4:
            return f"B{k}"
        if k == 4 and path_labels[1] == 4:
            return "F4"
        return None
    if labels == [3] * (k - 2) + [5]:
        if k == 3 and (path_labels[0] == 5 or path_labels[-1] == 5):
            return "H3"
        if k == 4 and (path_labels[0] == 5 or path_labels[-1] == 5):
            return "H4"
        return None
    return None
