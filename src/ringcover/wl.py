"""Colour refinement on nodes (k = 1) and on ordered k-tuples (k ≥ 2).

One loop serves every k.  Round 0 colours every node 0 at k = 1, and every
tuple by its atomic type at k ≥ 2 (the pattern of coordinate equalities and
of ordered adjacencies, which pins down the labelled induced subgraph).  Each
round numbers the signature rows ``[old colour | context]`` by sorting them
(:func:`_intern_rows`: deterministic integers, no hashing), and the loop stops
at the first round that adds no class.  k picks only the context columns:

* k = 1: the sorted neighbour colours, padded with −1 to the run's largest
  degree, then the same block over in-neighbours for every graph when any
  graph in the run is directed, so a verdict reads arcs, not the flag.
  As −1 sorts below every colour, padded rows order as the sorted tuples
  do (a prefix first), so the ids are those of sorted signature tuples.
* k ≥ 2: per coordinate j, the id of the multiset of colours met by swapping
  coordinate j through every node.

Verdicts about two graphs need one shared colour table: ids from separate
runs are canonical but incomparable, so every public entry point funnels into
one joint run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .graph_core import Graph

__all__ = [
    "ColorHistogram",
    "DEFAULT_TUPLE_BUDGET",
    "wl1_refine",
    "kwl_refine",
    "wl_compare",
    "wl_distinguish",
]

#: Cap on N^k per graph for tuple refinement; 8000 admits 20 nodes at k=3.
DEFAULT_TUPLE_BUDGET = 8000


@dataclass(frozen=True)
class ColorHistogram:
    """Colour multisets per refinement round.

    ``iterations[t]`` maps colour id → number of carriers after round ``t``
    (round 0 is the initial colouring).  Ids are only meaningful relative to
    the run that produced them; histograms from one joint run share ids and
    may be compared directly.
    """

    k: int
    iterations: tuple[dict[int, int], ...]

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(h) for h in self.iterations)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "class_counts": list(self.class_counts),
            "final_histogram": {
                str(c): m for c, m in sorted(self.iterations[-1].items())
            },
        }


# ---------------------------------------------------------------------------
# shared interning
# ---------------------------------------------------------------------------


def _intern_rows(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Number the rows of several equally-wide matrices with one shared table.

    Ids are consecutive integers in lexicographic row order, so the result is
    independent of how rows are distributed over the inputs.
    """
    stacked = np.vstack(mats)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    out = []
    offset = 0
    for m in mats:
        out.append(inverse[offset : offset + len(m)].copy())
        offset += len(m)
    return out


def _histogram(colors: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(colors, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# one refinement loop; k picks the context columns
# ---------------------------------------------------------------------------


def _neighbour_slots(arcs: list[np.ndarray]) -> list[np.ndarray]:
    """Per graph, each node's neighbour ids (row v of its arc matrix) in an
    ``(n, D)`` array padded with n, D being the run's largest degree."""
    width = max(int(a.sum(axis=1).max()) for a in arcs)
    out = []
    for a in arcs:
        n = len(a)
        rows, cols = np.nonzero(a)
        degree = a.sum(axis=1)
        slots = np.full((n, width), n)
        slots[rows, np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]] = cols
        out.append(slots)
    return out


def _node_context(graphs: list[Graph]):
    """k = 1: each node's neighbour colours, sorted and padded with −1, then
    the same block for in-neighbours when a graph in the run is directed."""
    arcs = [g.adjacency for g in graphs]
    blocks = [_neighbour_slots(arcs)]
    if any(g.directed for g in graphs):
        blocks.append(_neighbour_slots([a.T for a in arcs]))

    def context(colors):
        out = []
        for i, col in enumerate(colors):
            # pad above every colour to sort the padding last, then mark it −1
            high = np.iinfo(col.dtype).max
            padded = np.append(col, high)
            ctx = np.hstack([np.sort(padded[slots[i]], axis=1) for slots in blocks])
            ctx[ctx == high] = -1
            out.append(ctx)
        return out
    return context


def _tuple_context(graphs: list[Graph], k: int):
    """k ≥ 2: per axis j, the id of each tuple's axis-j fiber, i.e. of the
    sorted colours met by swapping coordinate j through every node."""
    shape = (graphs[0].node_count,) * k

    def context(colors):
        cubes = [c.reshape(shape) for c in colors]
        out = [[] for _ in colors]
        for j in range(k):
            # the whole axis-j fiber shares its multiset: intern it once
            rows = [np.moveaxis(np.sort(c, axis=j), j, -1).reshape(-1, shape[0])
                    for c in cubes]
            for cols, ids in zip(out, _intern_rows(rows)):
                fiber = np.expand_dims(ids.reshape(shape[1:]), j)
                cols.append(np.broadcast_to(fiber, shape).ravel())
        return [np.stack(cols, axis=1) for cols in out]
    return context


def _atomic_tuple_colors(graphs: list[Graph], k: int) -> list[np.ndarray]:
    """Initial colours for all N^k ordered tuples: (equality pattern over
    coordinate pairs, adjacency pattern over ordered coordinate pairs)."""
    features = []
    for g in graphs:
        n = g.node_count
        idx = np.indices((n,) * k).reshape(k, -1)  # coordinate values per tuple
        cols = []
        for a, b in combinations(range(k), 2):
            cols.append(idx[a] == idx[b])
        for a, b in permutations(range(k), 2):
            cols.append(g.adjacency[idx[a], idx[b]])
        features.append(np.stack(cols, axis=1).astype(np.int8))
    return _intern_rows(features)


def _refine_joint(graphs: list[Graph], k: int) -> list[list[np.ndarray]]:
    """Colour refinement at level ``k`` run jointly; returns per-graph colour
    arrays (nodes, or tuples in C order) for every round."""
    if k == 1:
        colors = [np.zeros(g.node_count, dtype=np.intp) for g in graphs]
        context = _node_context(graphs)
    else:
        colors = _atomic_tuple_colors(graphs, k)
        context = _tuple_context(graphs, k)
    rounds = [colors]
    for _ in range(max(g.node_count for g in graphs) ** k + 1):
        colors = _intern_rows([np.column_stack([col, ctx])
                               for col, ctx in zip(colors, context(colors))])
        rounds.append(colors)
        if _class_count(colors) == _class_count(rounds[-2]):
            break
    return [[r[i] for r in rounds] for i in range(len(graphs))]


def _class_count(colors: list[np.ndarray]) -> int:
    # interned ids are consecutive from 0 over the whole run
    return int(max(c.max() for c in colors)) + 1


def _check_budget(graphs: list[Graph], k: int) -> None:
    for g in graphs:
        size = g.node_count ** k
        if size > DEFAULT_TUPLE_BUDGET:
            raise ValueError(
                f"tuple refinement needs {size} k-tuples for N={g.node_count}, "
                f"k={k}, exceeding the budget of {DEFAULT_TUPLE_BUDGET}"
            )


def _joint_histograms(graphs: list[Graph], k: int) -> list[ColorHistogram]:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > 1:
        _check_budget(graphs, k)
    return [
        ColorHistogram(k=k, iterations=tuple(_histogram(c) for c in rounds))
        for rounds in _refine_joint(graphs, k)
    ]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def wl1_refine(g: Graph) -> ColorHistogram:
    """Classic node colour refinement of a single graph."""
    return _joint_histograms([g], 1)[0]


def kwl_refine(g: Graph, k: int) -> ColorHistogram:
    """Tuple colour refinement of a single graph (k=1 falls back to nodes)."""
    return _joint_histograms([g], k)[0]


def wl_distinguish(g1: Graph, g2: Graph, k: int) -> bool:
    """True when refinement at level ``k`` separates the two graphs.

    The graphs are refined jointly so colour ids are comparable.  Requires
    equal node counts — on different sizes the question answers itself and a
    caller comparing histograms would silently get nonsense.
    """
    return wl_compare(g1, g2, k)[0]


def wl_compare(g1: Graph, g2: Graph, k: int
               ) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    """The verdict of :func:`wl_distinguish` and both graphs'
    ``kwl_refine(g, k).class_counts``, all from one joint refinement.

    Within one graph, which nodes (or tuples) share a colour in a round
    depends on that graph alone, so the joint run refines each graph as a
    run over it alone would.  It only goes on longer, until no graph splits a
    class; a run over one graph stops at the first round that adds no class,
    so each graph's counts are cut there.
    """
    if g1.node_count != g2.node_count:
        raise ValueError(
            f"refinement compares graphs on equal node counts, got "
            f"{g1.node_count} and {g2.node_count} nodes")
    h1, h2 = _joint_histograms([g1, g2], k)
    rounds = max(len(h1.iterations), len(h2.iterations))
    separated = any(
        h1.iterations[min(t, len(h1.iterations) - 1)]
        != h2.iterations[min(t, len(h2.iterations) - 1)]
        for t in range(rounds))
    return separated, _solo_class_counts(h1), _solo_class_counts(h2)


def _solo_class_counts(h: ColorHistogram) -> tuple[int, ...]:
    counts = h.class_counts
    for t in range(1, len(counts)):
        if counts[t] == counts[t - 1]:
            return counts[: t + 1]
    return counts
