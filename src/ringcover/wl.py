"""Colour refinement on nodes and on k-tuples (k ≤ 3).

Node-level refinement (k=1) is the classic procedure: a node's new colour is
its old colour together with the sorted multiset of neighbour colours.  For
k ≥ 2 the tuple version refines all N^k ordered k-tuples: the j-th
"neighbourhood" of a tuple is the multiset of colours obtained by swapping
coordinate j through every node of the graph, and a tuple's initial colour is
its atomic type — the pattern of coordinate equalities plus the pattern of
ordered adjacencies, which pins down the labelled induced subgraph completely
for k ≤ 3.

Two practical points drive the implementation:

* Verdicts about *two* graphs require refining them **jointly** with one
  shared colour table.  Refining each graph alone yields canonical but
  incomparable colour ids, so every public entry point funnels into the same
  joint routine.
* Colours are interned by sorting and numbering signatures — plain
  deterministic integers, no hashing, so equal multisets can never collide
  and runs are reproducible bit for bit.
"""

from __future__ import annotations

from collections import Counter
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

    @property
    def stable_classes(self) -> int:
        return len(self.iterations[-1])

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
# k = 1: classic node refinement
# ---------------------------------------------------------------------------


def _refine_nodes_joint(graphs: list[Graph]) -> list[list[np.ndarray]]:
    """Classic colour refinement run jointly; returns per-graph colour arrays
    for every round (round 0 = uniform initial colouring)."""
    colors = [np.zeros(g.node_count, dtype=np.int64) for g in graphs]
    rounds = [[c.copy() for c in colors]]
    total_classes = 1
    max_rounds = max(g.node_count for g in graphs) + 1

    for _ in range(max_rounds):
        table: dict[tuple, int] = {}
        new_colors = []
        for g, col in zip(graphs, colors):
            fresh = np.empty_like(col)
            for v in range(g.node_count):
                nbr_part = tuple(sorted(col[u] for u in g.neighbors(v)))
                if g.directed:
                    in_nbrs = tuple(sorted(
                        col[u] for u in np.flatnonzero(g.adjacency[:, v])
                    ))
                    sig = (int(col[v]), nbr_part, in_nbrs)
                else:
                    sig = (int(col[v]), nbr_part)
                fresh[v] = table.setdefault(sig, len(table))
            new_colors.append(fresh)
        # renumber deterministically: ids above came from first-seen order,
        # which depends on node order; remap to sorted-signature order
        order = {old: rank for rank, (sig, old) in
                 enumerate(sorted((s, i) for s, i in table.items()))}
        new_colors = [np.vectorize(order.__getitem__, otypes=[np.int64])(c)
                      for c in new_colors]
        colors = new_colors
        rounds.append([c.copy() for c in colors])
        if len(table) == total_classes:
            break
        total_classes = len(table)
    return [[r[i] for r in rounds] for i in range(len(graphs))]


# ---------------------------------------------------------------------------
# k >= 2: tuple refinement
# ---------------------------------------------------------------------------


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
    interned = _intern_rows(features)
    return [c.astype(np.int64) for c in interned]


def _refine_tuples_joint(graphs: list[Graph], k: int) -> list[list[np.ndarray]]:
    if len({g.node_count for g in graphs}) > 1:
        raise ValueError("joint tuple refinement requires equal node counts")
    shape = [(g.node_count,) * k for g in graphs]
    colors = [c.reshape(s) for c, s in zip(_atomic_tuple_colors(graphs, k), shape)]
    rounds = [[c.ravel().copy() for c in colors]]
    total_classes = int(max(c.max() for c in colors)) + 1
    max_rounds = max(g.node_count for g in graphs) ** k + 1

    for _ in range(max_rounds):
        # per-axis fiber colours: the multiset over swapping coordinate j is
        # shared by the whole axis-j fiber, so sort along the axis and intern
        # each fiber's sorted colour vector once
        fiber_ids = []  # fiber_ids[j][i] = array of shape[i] with axis-j ids
        for j in range(k):
            mats = []
            for col in colors:
                n = col.shape[0]
                mats.append(np.moveaxis(np.sort(col, axis=j), j, -1).reshape(-1, n))
            shared = _intern_rows(mats)
            per_graph = []
            for col, ids in zip(colors, shared):
                n = col.shape[0]
                context_shape = col.shape[:j] + col.shape[j + 1:]
                expanded = np.broadcast_to(
                    ids.reshape(context_shape + (1,)), context_shape + (n,)
                )
                per_graph.append(np.moveaxis(expanded, -1, j))
            fiber_ids.append(per_graph)

        signature_mats = []
        for i, col in enumerate(colors):
            parts = [col.ravel()] + [fiber_ids[j][i].ravel() for j in range(k)]
            signature_mats.append(np.stack(parts, axis=1))
        new_flat = _intern_rows(signature_mats)
        colors = [c.astype(np.int64).reshape(s) for c, s in zip(new_flat, shape)]
        rounds.append([c.ravel().copy() for c in colors])
        classes = int(max(c.max() for c in colors)) + 1
        if classes == total_classes:
            break
        total_classes = classes
    return [[r[i] for r in rounds] for i in range(len(graphs))]


def _check_budget(graphs: list[Graph], k: int, budget: int) -> None:
    for g in graphs:
        size = g.node_count ** k
        if size > budget:
            raise ValueError(
                f"tuple refinement needs {size} k-tuples for N={g.node_count}, "
                f"k={k}, exceeding the budget of {budget}; raise `budget` "
                "explicitly if you really want this"
            )


def _joint_histograms(graphs: list[Graph], k: int, budget: int) -> list[ColorHistogram]:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        per_graph_rounds = _refine_nodes_joint(graphs)
    else:
        _check_budget(graphs, k, budget)
        per_graph_rounds = _refine_tuples_joint(graphs, k)
    return [
        ColorHistogram(k=k, iterations=tuple(_histogram(c) for c in rounds))
        for rounds in per_graph_rounds
    ]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def wl1_refine(g: Graph) -> ColorHistogram:
    """Classic node colour refinement of a single graph."""
    return _joint_histograms([g], 1, DEFAULT_TUPLE_BUDGET)[0]


def kwl_refine(g: Graph, k: int, budget: int = DEFAULT_TUPLE_BUDGET) -> ColorHistogram:
    """Tuple colour refinement of a single graph (k=1 falls back to nodes)."""
    return _joint_histograms([g], k, budget)[0]


def wl_distinguish(g1: Graph, g2: Graph, k: int,
                   budget: int = DEFAULT_TUPLE_BUDGET) -> bool:
    """True when refinement at level ``k`` separates the two graphs.

    The graphs are refined jointly so colour ids are comparable.  Requires
    equal node counts — on different sizes the question answers itself and a
    caller comparing histograms would silently get nonsense.
    """
    return wl_compare(g1, g2, k, budget)[0]


def wl_compare(g1: Graph, g2: Graph, k: int, budget: int = DEFAULT_TUPLE_BUDGET
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
        raise ValueError("wl_distinguish expects graphs on the same node count")
    h1, h2 = _joint_histograms([g1, g2], k, budget)
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
