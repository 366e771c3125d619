"""Coxeter systems with exact group-element arithmetic.

Elements are named by their ShortLex-minimal reduced words (generator order =
declaration order).  One memoized primitive, the canonical word of w*s, solves
the word problem one dihedral parabolic W_{s,t} at a time (w = w^J * w_J,
Bjorner-Brenti 2.4) for every Coxeter matrix; products, inverses, descents
and the Bruhat order (lifting property, 2.2.7) are walks of it.

One walk from the identity along the steps that raise length, `up_walk`,
lists W along left multiplication, one length at a time in ShortLex order,
and the twisted involutions along w -> sw or s w s* by a BFS, with the
arrows between them.  The steps use five operations: left and right
multiplication by a generator, the left-descent test, the test s w s* = w
and the canonical word.  When W is finite and every order is at most 6
they act on the matrix of w^-1 on the simple roots, one packed int per
column (`roots`); every other system walks canonical words.

Orders come from the classification of finite irreducible diagrams: |W_J|
(`parabolic_order`) is the product of the closed-form orders of the components
of the Coxeter diagram on J, so finiteness, and a walk's refusal of a
group over MAX_ELEMENTS, are decided before any element is built.  Each
component's type is read off its node degrees and its edges whose label is
not 3 (`_component_order`): a tree with one node of degree 3 and every label
3 is D_k or E6-E8 by the BFS distances to its leaves, and a path is A_k, or
B_k, F4, H3 or H4 by where its one other label sits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, inf, prod
from typing import Iterable, Sequence

from .roots import WalkOps, root_ops

Word = tuple[int, ...]

MAX_ELEMENTS = 100_000  # safety bound on the elements `up_walk` may build


def check_generator_name(g: str) -> None:
    """Raise ValueError unless g can name a generator in files and words.

    A generator name is exactly one character, since element strings and
    vertex ids concatenate names and `word_from_str` reads them back one
    character at a time; it may not be "e" (the identity's name) nor ","
    (the "matrix" key separator and the word-list separator).  The
    constructor does not apply this rule, so that library code may still
    build systems with other names.
    """
    if g == "e":
        raise ValueError('generator name "e" is reserved for the identity')
    if "," in g:
        raise ValueError(f"generator name {g!r} contains ','")
    if len(g) != 1:
        raise ValueError(f"generator name {g!r} is not one character")


class CoxeterSystem:
    """A Coxeter system given by its generator names and Coxeter matrix.

    Off-diagonal orders are integers >= 2 or math.inf; the diagonal is 1.
    The instance owns memo tables for products and right descents, so
    results are deterministic and depend only on the inputs.
    """

    def __init__(self, generators: Sequence[str], orders: dict):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        n = len(self.generators)
        self.index = {g: i for i, g in enumerate(self.generators)}
        mat = [[2] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 1
        for key, value in orders.items():
            a, b = key
            i, j = self._gen_index(a), self._gen_index(b)
            if i == j:
                raise ValueError("diagonal entries are fixed at 1")
            if value in ("inf", inf):
                v = inf
            elif isinstance(value, int) and not isinstance(value, bool):
                v = value
            else:
                raise ValueError(f"order n({a},{b}) must be an integer or "
                                 f"inf, not {value!r}")
            if v is not inf and v < 2:
                raise ValueError(f"order n({a},{b}) must be >= 2 or inf")
            if mat[i][j] != 2 and mat[i][j] != v:
                raise ValueError(f"conflicting orders for ({a},{b})")
            mat[i][j] = mat[j][i] = v
        self.matrix = tuple(tuple(row) for row in mat)
        # the diagram's links as bitmasks: bit b of _links[a] is set when
        # a = b or a and b do not commute
        self._links = tuple(sum(1 << b for b, m in enumerate(row) if m != 2)
                            for row in self.matrix)
        self._products: dict[tuple[Word, int], Word] = {}
        self._descents: dict[tuple[Word, int], bool] = {}
        self._walk_ops: WalkOps | None = None

    # -- construction ------------------------------------------------------------

    @staticmethod
    def dihedral(n, names: Sequence[str] = ("s", "t")) -> "CoxeterSystem":
        return CoxeterSystem(names, {(names[0], names[1]): n})

    @staticmethod
    def from_json(data) -> "CoxeterSystem":
        """Build from the file format {"generators": [...], "matrix": {"r,s": 3}}.

        Pairs missing from "matrix" default to order 2 (no edge in the
        Coxeter diagram); the value "inf" denotes an infinite order.  Every
        generator name must pass `check_generator_name`.
        """
        if isinstance(data, str):
            with open(data) as fh:
                data = json.load(fh)
        gens = data["generators"]
        for g in gens:
            check_generator_name(g)
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
        return "".join(map(self.generators.__getitem__, word)) if word else "e"

    # -- canonical forms ------------------------------------------------------------------

    def _rmult(self, w: Word, s: int) -> Word:
        """Canonical word of w*s for a canonical word w, memoized.

        Going down (t = last letter of w): w = y*w0({s,t}), ws = y*alt(t, s).
        Going up: each right descent r != s of ws has w = y*alt(r, s), and the
        result is the least of w+(s,) and canonical(y*alt(s, r)) + (r,), where
        alt(a, b) alternates for n(a,b)-1 letters ending in a.
        """
        if w and w[-1] == s:
            return w[:-1]
        key = (w, s)
        result = self._products.get(key)
        if result is not None:
            return result
        if self._is_descent(w, s):
            t = w[-1]
            n, y = self._strip(w, t, s)
            result = self._walk(y, _alternation(t, s, n - 1))
        else:
            result = w + (s,)
            for r in range(len(self.generators)):
                if r != s:
                    k, y = self._strip(w, r, s)
                    if k == self.matrix[r][s] - 1:
                        result = min(result,
                                     self._walk(y, _alternation(s, r, k)) + (r,))
        self._products[key] = result
        return result

    def _is_descent(self, w: Word, s: int) -> bool:
        """Whether l(ws) < l(w) for a canonical word w: the {t,s}-part of w,
        t its last letter, is the longest element of W_{s,t}."""
        if not w or w[-1] == s:
            return bool(w)
        key = (w, s)
        result = self._descents.get(key)
        if result is None:
            t = w[-1]
            result = self._strip(w, t, s)[0] == self.matrix[t][s]
            self._descents[key] = result
        return result

    def _strip(self, w: Word, a: int, b: int) -> tuple[int, Word]:
        """(k, y): strip a, b, a, ... off w while the next one is a right descent.
        Unless b alone is a descent of w, y is minimal in its coset y * W_{a,b}."""
        k = 0
        while self._is_descent(w, a):
            w = self._rmult(w, a)
            a, b = b, a
            k += 1
        return k, w

    def _walk(self, w: Word, letters: Iterable[int]) -> Word:
        """Canonical word of w times the letters, one right multiplication each."""
        for s in letters:
            w = self._rmult(w, s)
        return w

    def canonical(self, word: Iterable) -> Word:
        """ShortLex-minimal reduced word of the element spelled by `word`."""
        return self._walk((), (self._gen_index(letter) for letter in word))

    # -- elements -----------------------------------------------------------------------

    def element(self, word="") -> "GroupElement":
        if isinstance(word, str):
            word = self.word_from_str(word)
        return GroupElement(self, self.canonical(word))

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def gen(self, s) -> "GroupElement":
        return GroupElement(self, (self._gen_index(s),))

    def lmult(self, w: Word, s: int) -> Word:
        """Canonical word of s*w for a canonical word w."""
        return self._walk((s,), w)

    def _check_element(self, x: "GroupElement"):
        if x.system is not self:
            raise ValueError("element belongs to a different system")

    # -- enumeration ------------------------------------------------------------------------

    def _ops(self) -> "WalkOps":
        """The representation the walks carry elements in, chosen at the
        first walk: root coordinates when W is finite and every order is at
        most 6, canonical words otherwise."""
        if self._walk_ops is None:
            orders = {m for row in self.matrix for m in row}
            if orders <= {1, 2, 3, 4, 5, 6} and self.is_finite():
                self._walk_ops = root_ops(self.matrix)
            else:
                self._walk_ops = self._word_ops()
        return self._walk_ops

    def _word_ops(self) -> "WalkOps":
        """The walk's operations on canonical words, through `_rmult`; its
        work is the products w*s memoized."""
        lmult = lru_cache(maxsize=1)(self.lmult)    # the descent test, then left
        return WalkOps((), lmult, self._rmult,
                       lambda w, s: len(lmult(w, s)) < len(w),
                       lambda w, s, r: self._rmult(lmult(w, s), r) == w,
                       lambda w: w, self._products.__len__, on_words=True)

    def up_walk(self, star: "DiagramAutomorphism | None" = None,
                length_bound=None) -> tuple[list[Word], list]:
        """(words, arrows): the elements that the steps raising length reach
        from the identity, up to length `length_bound` (all of them when it
        is None), sorted (length, ShortLex), and the arrows (i, j, s, tag)
        taken, each from words[i] to words[j].

        Without a star the steps are w -> sw (tag None), and the walk lists
        W one length at a time, each level in ShortLex order.  ShortLex
        normal forms are suffix-closed (Bjorner-Brenti, Combinatorics of
        Coxeter Groups, 3.4), so t = sw one longer than w has the word
        (s,) + word(w) exactly when s is t's least left descent.  With s
        outer and the level inner, that is when no earlier pass reached t:
        s is a left descent of t, so t's least one is s or some r < s, and
        then the pass of r reached t from rt.  The t kept come by first
        letter, then by the rest of the word, w's: in ShortLex order, each
        once, and each takes the next free position; the arrows into the
        others find them in the next level's index.  No word is read back
        and nothing is sorted.

        With an involutory star the steps are twisted: w -> sw (tag True)
        when s w star(s) = w (`fixes`), else w -> s w star(s), two longer
        (tag False; Richardson-Springer 1990, Hultman 2005).  That walk is
        a BFS: it names each element as it finds it, and its numbers are
        mapped to positions in the sorted words once, at the end.

        Refused before any element is built: a negative bound, all of an
        infinite group, and all of a group of order over MAX_ELEMENTS when
        the walk lists W or walks words.  Otherwise the walk raises once it
        has built over MAX_ELEMENTS elements: words kept, and on words
        over MAX_ELEMENTS * rank products memoized, on roots elements named
        (the twisted walk alone names any).  The level walk checks after
        each pass of one generator over a level.
        """
        if star is not None and not star.is_involution():
            raise ValueError("the diagram automorphism must be involutory")
        if length_bound is not None and length_bound < 0:
            raise ValueError(f"length bound must be >= 0, not {length_bound}")
        too_many = f"more than {MAX_ELEMENTS} elements to enumerate"
        ops = self._ops()
        if length_bound is None:
            order = self.parabolic_order()
            if order is inf:
                raise ValueError("cannot enumerate an infinite Coxeter group; "
                                 "pass a length bound")
            if order > MAX_ELEMENTS and (star is None or ops.on_words):
                raise ValueError(too_many)
            length_bound = inf
        left, descent = ops.left, ops.descent
        rank = len(self.generators)
        budget = ops.built() + MAX_ELEMENTS * (rank if ops.on_words else 1)
        words, arrows = [()], []
        if star is None:
            level, length = [ops.identity], 0   # the last len(level) words
            while level and length < length_bound:
                above, index, start = [], {}, len(words) - len(level)
                for s in range(rank):
                    for i, w in enumerate(level, start):
                        if descent(w, s):
                            continue
                        t = left(w, s)
                        j = index.get(t)
                        if j is None:       # s is t's least left descent
                            index[t] = j = len(words)
                            words.append((s,) + words[i])
                            above.append(t)
                        arrows.append((i, j, s, None))
                    if len(words) > MAX_ELEMENTS or ops.built() > budget:
                        raise ValueError(too_many)
                level, length = above, length + 1
            return words, arrows
        right, fixes, name, perm = ops.right, ops.fixes, ops.name, star.perm
        seen = {ops.identity: 0}        # element -> its number in the walk
        queue = [ops.identity]
        for i, w in enumerate(queue):   # a FIFO queue: it grows behind w
            if len(words[i]) >= length_bound:
                continue                # no step from w stays within the bound
            for s in range(rank):
                if descent(w, s):
                    continue
                target, tag = left(w, s), True
                if not fixes(w, s, perm[s]):
                    target, tag = right(target, perm[s]), False
                j = seen.get(target)
                if j is None:
                    word = name(target)
                    if len(word) > length_bound:
                        continue
                    j = seen[target] = len(words)
                    words.append(word)
                    queue.append(target)
                    if len(seen) > MAX_ELEMENTS:
                        raise ValueError(too_many)
                arrows.append((i, j, s, tag))
            if ops.built() > budget:
                raise ValueError(too_many)
        order = sorted(range(len(words)),
                       key=lambda i: (len(words[i]), words[i]))
        position = sorted(range(len(order)), key=order.__getitem__)  # inverse
        return ([words[i] for i in order],
                [(position[i], position[j], s, tag)
                 for i, j, s, tag in arrows])

    def enumerate(self, length_bound=None) -> list["GroupElement"]:
        """All elements of length <= bound (or all of W), sorted (length,
        ShortLex): the up-walk along left multiplication."""
        words, _ = self.up_walk(None, length_bound)
        return [GroupElement(self, w) for w in words]

    def longest_element(self) -> "GroupElement":
        """w0, named from its walk on the walk's representation."""
        ops, w0 = self._longest_on_ops()
        return GroupElement(self, ops.name(w0))

    def _longest_on_ops(self) -> tuple:
        """(ops, w0 on ops): w0 walked up from the identity by left
        multiplication by the least s that is not a left descent.  Each step
        raises the length by one, and w0 is the one element of which every
        s is a left descent."""
        if not self.is_finite():
            raise ValueError("infinite Coxeter groups have no longest element")
        ops, rank = self._ops(), len(self.generators)
        w = ops.identity
        while True:
            s = next((s for s in range(rank) if not ops.descent(w, s)), None)
            if s is None:
                return ops, w
            w = ops.left(w, s)

    # -- group orders via the diagram classification ------------------------------------------

    def is_finite(self) -> bool:
        return self.parabolic_order() is not inf

    def parabolic_order(self, J: Iterable | None = None) -> int | float:
        """|W_J| (|W| when J is None): the product of the orders of the
        components of the Coxeter diagram on J, or math.inf if one is infinite."""
        if J is None:
            J = range(len(self.generators))
        return self._mask_order(sum({1 << self._gen_index(s) for s in J}), {})

    def parabolic_orders(self) -> list[int | float]:
        """orders[mask] = |W_J| for every J, J the generators whose bits are
        set in mask, each component's order computed once."""
        memo: dict[int, int | float] = {}
        return [self._mask_order(mask, memo)
                for mask in range(1 << len(self.generators))]

    def _mask_order(self, mask: int, memo: dict) -> int | float:
        """|W_J| for J the bits of mask: the components of the diagram on J
        are grown as bitmasks, and each one's `_component_order` is read
        from memo, keyed by its bitmask, or computed into it."""
        rank, links = len(self.generators), self._links
        orders = []
        while mask:
            comp, todo = 0, mask & -mask
            while todo:
                v = todo.bit_length() - 1
                comp |= 1 << v
                todo = (todo | links[v]) & mask & ~comp
            mask &= ~comp
            order = memo.get(comp)
            if order is None:
                order = memo[comp] = _component_order(
                    [b for b in range(rank) if comp >> b & 1], self.matrix)
            orders.append(order)
        return inf if inf in orders else prod(orders)

    # -- Bruhat order -------------------------------------------------------------------------

    def bruhat_leq(self, x: "GroupElement", y: "GroupElement") -> bool:
        """x <= y by the lifting property along y's canonical word: for a right
        descent s of y, x <= y iff xs <= ys when s is a descent of x, else x <= ys."""
        self._check_element(x)
        self._check_element(y)
        xw, yw = x.word, y.word
        while len(xw) <= len(yw) and yw:
            s, yw = yw[-1], yw[:-1]
            if self._is_descent(xw, s):
                xw = self._rmult(xw, s)
        return not xw

    # -- twisted involutions / diagram automorphisms ------------------------------------------------

    def twisted_involutions(self, star: "DiagramAutomorphism",
                            length_bound=None) -> list["GroupElement"]:
        """All x with star(x) = x^{-1}, in (length, ShortLex) order: the
        twisted up-walk."""
        words, _ = self.up_walk(star, length_bound)
        return [GroupElement(self, w) for w in words]

    def conjugation_automorphism_by_w0(self, star: "DiagramAutomorphism"
                                       ) -> "DiagramAutomorphism":
        """The automorphism s -> w0 * star(s) * w0 of the diagram: on the
        walk's representation, t = w0 star(s) w0 is the generator with
        t * w0 = w0 * star(s)."""
        ops, w0 = self._longest_on_ops()
        rank = len(self.generators)
        perm = []
        for s in star.perm:
            image = ops.right(w0, s)
            t = next((t for t in range(rank) if ops.left(w0, t) == image), None)
            if t is None:
                raise ValueError("conjugation by w0 did not yield a generator")
            perm.append(t)
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
        self.system._check_element(other)
        return GroupElement(self.system, self.system._walk(self.word, other.word))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.system, self.system.canonical(self.word[::-1]))

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

    def is_involution(self) -> bool:
        return all(self.perm[self.perm[i]] == i for i in range(len(self.perm)))

    def __eq__(self, other):
        return (isinstance(other, DiagramAutomorphism)
                and self.system is other.system and self.perm == other.perm)

    def __repr__(self):
        names = self.system.generators
        return "DiagramAutomorphism(" + ", ".join(
            f"{names[i]}->{names[p]}" for i, p in enumerate(self.perm)) + ")"


def _alternation(a: int, b: int, length: int) -> Word:
    """The alternating word ... b a of the given length, ending in a."""
    return tuple(a if i % 2 == 0 else b for i in range(length - 1, -1, -1))


# -- the classification of finite irreducible diagrams ---------------------------------------


def _component_order(comp: list[int], matrix):
    """Order of the parabolic subgroup on one connected diagram component, by
    its finite type (Humphreys, Reflection Groups and Coxeter Groups, 2.11),
    or math.inf itself if the type is not finite.  With k nodes:
    - k = 2 is I2(m) (order 2m) for its label m;
    - otherwise the diagram must be a tree, k - 1 edges;
    - a node of degree >= 3 must be the only one, of degree 3, with every
      label 3; the BFS distances from it to the leaves, its arms, are
      (1, 1, k - 3) for D_k and (1, 2, 2..4) for E6-E8;
    - otherwise the tree is a path: A_k when every label is 3 (A1 is the
      one node), else one label other than 3 on it: a 4 on an end edge is
      B_k, a 4 on the middle edge of four nodes is F4, a 5 on an end edge
      of three or four nodes is H3 or H4.
    Anything else, an infinite label included, is infinite."""
    k = len(comp)
    edges = [(a, b, matrix[a][b]) for i, a in enumerate(comp)
             for b in comp[i + 1:] if matrix[a][b] != 2]
    if k == 2:
        m = edges[0][2]
        return inf if m is inf else 2 * m                       # I2(m)
    if len(edges) != k - 1:
        return inf
    degree = dict.fromkeys(comp, 0)
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    other = [(a, b, m) for a, b, m in edges if m != 3]
    branches = [v for v in comp if degree[v] >= 3]
    if branches:
        if len(branches) > 1 or degree[branches[0]] > 3 or other:
            return inf
        queue, distance = branches[:1], {branches[0]: 0}
        for v in queue:                 # a FIFO queue: it grows behind v
            for w in comp:
                if w not in distance and matrix[v][w] != 2:
                    distance[w] = distance[v] + 1
                    queue.append(w)
        arms = sorted(distance[v] for v in comp if degree[v] == 1)
        if arms[:2] == [1, 1]:
            return 2 ** (k - 1) * factorial(k)                  # D_k
        if arms[:2] == [1, 2] and arms[2] <= 4:
            return {2: 51_840, 3: 2_903_040, 4: 696_729_600}[arms[2]]  # E6-E8
        return inf
    if not other:
        return factorial(k + 1)                                 # A_k
    if len(other) > 1:
        return inf
    [(a, b, m)] = other
    end = 1 in (degree[a], degree[b])
    if m == 4 and end:
        return 2 ** k * factorial(k)                            # B_k
    if m == 4 and k == 4:
        return 1_152                                            # F4
    if m == 5 and end and k <= 4:
        return {3: 120, 4: 14_400}[k]                           # H3, H4
    return inf
