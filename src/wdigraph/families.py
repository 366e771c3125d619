"""Constructors for the standard digraph families.

The eight dihedral templates are 2m-vertex cycles with two directed arcs from
the source a0 to the sink bm; the left arc alternates labels s,t,s,... and the
right arc t,s,t,...  Dashes occur only at the four extreme edges (the two out
of the source, the two into the sink) in the per-figure patterns of the
template table below, which also holds each figure's condition on n.

Also here: the twisted-involution digraph attached to an involutory diagram
automorphism and the left-regular digraph on all of W, each the arrows of
one `CoxeterSystem.up_walk` with its tags read as edge styles, and a handful
of named example digraphs used as fixtures throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, NamedTuple

from .coxeter import CoxeterSystem, DiagramAutomorphism
from .digraph import _TAIL_CODES, DASHED, SOLID, SLabeledDigraph, _fill


class Template(NamedTuple):
    dashes: frozenset           # dashed ones among the four extreme edge slots
    divisor: Callable | None    # m -> the divisor of n; None: m = 1, n >= 2


_ALL_SLOTS = frozenset({"left_first", "right_first", "left_last", "right_last"})

TEMPLATES = {
    1: Template(frozenset(), lambda m: m),
    2: Template(frozenset({"left_first", "right_last"}), lambda m: m),
    3: Template(frozenset({"right_first", "left_last"}), lambda m: m),
    4: Template(frozenset({"left_first", "right_first"}), lambda m: 2 * m - 1),
    5: Template(frozenset({"left_last", "right_last"}), lambda m: 2 * m - 1),
    6: Template(_ALL_SLOTS, lambda m: 2 * m - 2),
    7: Template(frozenset(), None),
    8: Template(_ALL_SLOTS, None),
}


@dataclass(frozen=True)
class FamilySpec:
    """Which template to build: figure 1..8, size parameter m, and the two labels."""

    figure: int
    m: int
    s: str = "s"
    t: str = "t"

    def __post_init__(self):
        if self.figure not in TEMPLATES:
            raise ValueError("figure must be 1..8")
        if self.s == self.t:
            raise ValueError("the two labels must differ")
        if TEMPLATES[self.figure].divisor is None:
            if self.m != 1:
                raise ValueError("figures 7 and 8 have m = 1")
        elif self.m < 2:
            raise ValueError("figures 1-6 require m >= 2")


def family_arc_steps(spec: FamilySpec) -> tuple[list, list]:
    """The two arcs as (label, style) step lists from the source to the sink."""
    m, s, t = spec.m, spec.s, spec.t
    dashes = TEMPLATES[spec.figure].dashes
    left = []
    right = []
    for i in range(1, m + 1):
        left_label = s if i % 2 == 1 else t
        right_label = t if i % 2 == 1 else s
        left_style = DASHED if (
            (i == 1 and "left_first" in dashes)
            or (i == m and "left_last" in dashes)) else SOLID
        right_style = DASHED if (
            (i == 1 and "right_first" in dashes)
            or (i == m and "right_last" in dashes)) else SOLID
        left.append((left_label, left_style))
        right.append((right_label, right_style))
    return left, right


def build_family(system: CoxeterSystem, spec: FamilySpec) -> SLabeledDigraph:
    """The 2m-vertex template digraph over the given system."""
    for g in (spec.s, spec.t):
        if g not in system.index:
            raise ValueError(f"generator {g!r} not in the system")
    m = spec.m
    left, right = family_arc_steps(spec)
    left_names = [f"a{i}" for i in range(m)] + [f"b{m}"]
    right_names = ["a0"] + [f"b{i}" for i in range(1, m + 1)]
    edges = [(names[i], names[i + 1], label, style)
             for names, steps in ((left_names, left), (right_names, right))
             for i, (label, style) in enumerate(steps)]
    vertices = [f"a{i}" for i in range(m)] + [f"b{i}" for i in range(1, m + 1)]
    return SLabeledDigraph(system, vertices, edges)


def family_divisibility_ok(figure: int, m: int, n) -> bool:
    """The membership condition relating a template to the dihedral order n."""
    if n is inf:
        return False
    if figure not in TEMPLATES:
        raise ValueError("figure must be 1..8")
    divisor = TEMPLATES[figure].divisor
    if divisor is None:
        return m == 1 and n >= 2
    return m >= 2 and n % divisor(m) == 0


def build_lv(system: CoxeterSystem, star: DiagramAutomorphism,
             length_bound=None) -> SLabeledDigraph:
    """The digraph on twisted involutions x with star(x) = x^{-1}.

    For each vertex w and generator s with l(sw) > l(w): a solid edge
    w -> s w star(s) when sw != w star(s), and a dashed edge w -> sw when
    sw = w star(s); the arrows of the twisted up-walk.
    """
    walk = system.up_walk(star, length_bound)
    return _walk_digraph(system, walk, {True: DASHED, False: SOLID})


def build_regular(system: CoxeterSystem, length_bound=None) -> SLabeledDigraph:
    """The left-Cayley digraph: solid x -> sx whenever that multiplies up;
    the arrows of the up-walk along left multiplication."""
    walk = system.up_walk(None, length_bound)
    return _walk_digraph(system, walk, {None: SOLID})


def _walk_digraph(system: CoxeterSystem, walk, styles: dict) -> SLabeledDigraph:
    """The digraph of an up-walk's (words, arrows): vertex i is words[i],
    named by its word, and each arrow (i, j, s, tag) an edge of style
    styles[tag] from vertex i to vertex j, written straight into the edge
    pairing by `_fill`.  Distinct words have distinct names."""
    words, arrows = walk
    n, rank = len(words), system.rank()
    return SLabeledDigraph._on_rows(
        system, tuple(map(system.word_to_str, words)),
        *_fill(rank, n, arrows, range(n), range(rank),
               {tag: _TAIL_CODES[style] for tag, style in styles.items()}))


# -- named example digraphs --------------------------------------------------------


# name -> (generators, orders, vertices, edges)
_EXAMPLES = {
    # two directed triangles joined by solid spokes; no source, no sink
    "affine_a2_cycle": (
        ["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3, ("r", "t"): 3},
        ["a1", "a2", "a3", "b1", "b2", "b3"],
        [("a1", "a3", "s", SOLID), ("a3", "a2", "t", SOLID),
         ("a2", "a1", "r", SOLID),
         ("a1", "b1", "t", SOLID), ("a2", "b2", "s", SOLID),
         ("a3", "b3", "r", SOLID),
         ("b1", "b3", "s", SOLID), ("b3", "b2", "t", SOLID),
         ("b2", "b1", "r", SOLID)]),
    "b3_no_bar": (
        ["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 4, ("r", "t"): 2},
        [f"v{i}" for i in range(12)],
        [("v0", "v2", "s", SOLID), ("v2", "v4", "r", SOLID),
         ("v2", "v4", "t", SOLID), ("v4", "v6", "s", SOLID),
         ("v0", "v1", "t", SOLID), ("v1", "v3", "s", SOLID),
         ("v3", "v5", "r", SOLID), ("v3", "v5", "t", SOLID),
         ("v5", "v7", "s", SOLID), ("v6", "v7", "t", SOLID),
         ("v0", "v8", "r", SOLID), ("v8", "v9", "t", SOLID),
         ("v1", "v9", "r", SOLID), ("v8", "v10", "s", SOLID),
         ("v10", "v6", "r", SOLID), ("v9", "v11", "s", SOLID),
         ("v10", "v11", "t", SOLID), ("v11", "v7", "r", SOLID)]),
    "h3_nonselfassoc": (
        ["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 5, ("r", "t"): 2},
        ["a1", "a2", "a3", "b1", "b2", "b3"],
        [("a1", "a2", "s", DASHED),
         ("a1", "b1", "r", DASHED), ("a1", "b1", "t", DASHED),
         ("a2", "b2", "r", SOLID), ("b1", "b2", "s", SOLID),
         ("a2", "a3", "t", SOLID), ("b2", "b3", "t", SOLID),
         ("a3", "b3", "r", SOLID), ("a3", "b3", "s", SOLID)]),
    "ex_fig2": (
        ["s", "t"], {("s", "t"): 3},
        [f"g{i}" for i in range(1, 7)],
        [("g1", "g2", "s", DASHED), ("g2", "g3", "t", SOLID),
         ("g3", "g4", "s", SOLID), ("g1", "g6", "t", SOLID),
         ("g6", "g5", "s", SOLID), ("g5", "g4", "t", DASHED)]),
    "ex_fig3": (
        ["r", "s", "t"], {("r", "s"): 3, ("s", "t"): 3, ("r", "t"): 2},
        ["g1", "g2", "g3", "g4"],
        [("g4", "g1", "t", SOLID), ("g3", "g1", "s", SOLID),
         ("g3", "g4", "r", DASHED), ("g2", "g1", "r", DASHED),
         ("g4", "g2", "s", SOLID), ("g3", "g2", "t", SOLID)]),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def build_example(name: str) -> SLabeledDigraph:
    """Named fixture digraphs, embedded as explicit vertex/edge data."""
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}")
    generators, orders, vertices, edges = _EXAMPLES[name]
    return SLabeledDigraph(CoxeterSystem(generators, orders), vertices, edges)
