"""Random-walk estimation of the triangle count at a single node.

The walk never leaves the closed neighbourhood of the target node ``v``: the
subgraph on ``{v} ∪ N(v)``, in which the centre is an ordinary walk node.  Two
statistics are taken over the recorded steps ``X_1 .. X_r``:

* ``Y1`` — over interior steps (2 ≤ k ≤ r−1), the mean of ``a_k · d'(X_k)``,
  where ``a_k`` is 1 exactly when the step closes a triangle through the
  centre: ``X_{k−1} ~ X_{k+1}`` and the centre is one of the three window
  nodes.  Each triangle through the centre can be traversed as a two-step
  path in 6 ordered ways, so under the stationary law ``E[Y1] =
  6·tau0 / D' = 3·tau0 / (d0 + tau0)`` on *every* closed neighbourhood.
  (Dropping the centre-membership test would instead count all triangles of
  the neighbourhood subgraph — inflating the answer by triangles among three
  neighbours, i.e. by the node's 4-cliques; K4 would read 4 instead of 3.)
* ``Y2`` — over all recorded steps, the mean of ``1 / d'(X_k)``, with
  stationary mean ``(d0+1) / (2(d0+tau0))``.

The ratio ``z0 = (d0+1)/6 · Y1/Y2`` therefore converges to ``tau0``, the
number of edges among the neighbours of ``v``.

When the neighbourhood is a tree around ``v`` there are no triangles for the
walk to find; an artificial apex adjacent to everything turns the
neighbourhood into one with centre degree ``d0+1`` and triangle count
``d0 + tau0``, so the estimator runs there and the known offset ``d0`` is
subtracted at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import (
    Graph,
    InducedNeighborhood,
    add_artificial_apex,
    induced_closed_neighborhood,
)

__all__ = [
    "WalkConfig",
    "EstimateResult",
    "simple_random_walk",
    "expected_moments",
    "stationary_moments",
    "estimate_incidence_triangles",
]


@dataclass(frozen=True)
class WalkConfig:
    """Knobs for one estimation run.

    ``steps`` is the number of recorded steps r (≥ 3: the Y1 window needs
    interior steps).  ``augment`` forces the apex on (True) or off (False);
    ``None`` turns it on exactly when the neighbourhood carries no edge among
    the neighbours, the case the plain walk cannot handle.  ``start_policy``
    picks the walk's starting node: ``"uniform"`` over the walk graph or
    ``"degree_proportional"`` (the stationary law).  A burn-in of
    ``max(16, centre degree)`` steps is discarded before recording either
    way, standing in for the assumption that the walk starts at stationarity.
    """

    steps: int
    seed: int = 0
    augment: bool | None = None
    start_policy: str = "uniform"

    def __post_init__(self):
        if self.steps < 3:
            raise ValueError("steps must be at least 3 (Y1 needs interior steps)")
        if self.start_policy not in ("uniform", "degree_proportional"):
            raise ValueError(f"unknown start_policy {self.start_policy!r}")


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one walk: the final estimate plus its raw ingredients.

    ``z0`` is already de-biased when ``augmented`` is set (the apex offset has
    been subtracted).  ``y1``/``y2`` are the raw statistics of the walk that
    was actually run.
    """

    z0: float
    y1: float
    y2: float
    steps_used: int
    augmented: bool


def _neighbor_lists(g: Graph) -> list[tuple[int, ...]]:
    """``g.neighbors(v)`` for every node v, from one pass over the adjacency:
    its nonzeros come row by row, each row's columns ascending."""
    adj = g.adjacency
    cols = np.nonzero(adj)[1].tolist()
    ends = np.cumsum(np.count_nonzero(adj, axis=1)).tolist()
    return [tuple(cols[a:b]) for a, b in zip([0] + ends, ends)]


def simple_random_walk(nb: InducedNeighborhood, start: int, r: int, seed: int) -> list[int]:
    """``r`` uniform steps on the neighbourhood subgraph, starting at ``start``.

    Returns local node ids ``[X_0=start, X_1, .., X_r]``.  Deterministic for a
    given seed.
    """
    g = nb.subgraph
    if not (0 <= start < g.node_count):
        raise ValueError(f"start node {start} out of range")
    if r < 1:
        raise ValueError("r must be at least 1")
    nbrs = _neighbor_lists(g)
    if not nbrs[start]:
        raise ValueError(f"start node {start} is isolated; the walk cannot move")
    return [start] + _walk(nbrs, start, r, random.Random(seed))


def _walk(nbrs: list[tuple[int, ...]], x: int, r: int, rng: random.Random) -> list[int]:
    """``[X_1, .., X_r]`` from ``X_0 = x``, one ``rng.random()`` draw per step."""
    rand = rng.random
    path = [0] * r
    for k in range(r):
        options = nbrs[x]
        x = options[int(rand() * len(options))]
        path[k] = x
    return path


def expected_moments(d0: int, tau0: int) -> tuple[Fraction, Fraction]:
    """Closed-form stationary means of (Y1, Y2) for a closed neighbourhood
    with centre degree ``d0`` and ``tau0`` edges among the neighbours:
    ``(3·tau0/(d0+tau0), (d0+1)/(2·(d0+tau0)))``.

    Returned as exact fractions so the recovery identity
    ``(d0+1)/6 · E[Y1]/E[Y2] == tau0`` can be asserted with no tolerance.
    """
    if d0 < 1:
        raise ValueError("d0 must be at least 1")
    if tau0 < 0 or tau0 > d0 * (d0 - 1) // 2:
        raise ValueError(f"tau0={tau0} impossible for d0={d0}")
    return (
        Fraction(3 * tau0, d0 + tau0),
        Fraction(d0 + 1, 2 * (d0 + tau0)),
    )


def stationary_moments(nb: InducedNeighborhood) -> tuple[Fraction, Fraction]:
    """Exact stationary means of (Y1, Y2) by direct enumeration.

    Independent of :func:`expected_moments`: uses only the walk graph, the
    stationary law π_i = d_i/D′, and the fact that under π the two window
    ends are independent uniform neighbours of the middle node.  Exists so
    the closed forms can be cross-checked on arbitrary neighbourhoods.
    """
    g = nb.subgraph
    adj = g.adjacency
    center = nb.center
    nbrs = _neighbor_lists(g)
    total_degree = sum(len(x) for x in nbrs)
    if total_degree == 0:
        raise ValueError("neighbourhood has no edges; the walk is undefined")

    weighted_hits = 0  # sum over nodes i of #(ordered x,y in N(i)²: triangle x-i-y through centre)
    inv_degree_mass = 0  # number of non-isolated nodes (π_i / d_i sums to n'/D')
    for i in range(g.node_count):
        deg = len(nbrs[i])
        if deg == 0:
            continue
        inv_degree_mass += 1
        hits = 0
        for x in nbrs[i]:
            for y in nbrs[i]:
                if adj[x, y] and (center == i or center == x or center == y):
                    hits += 1
        weighted_hits += hits
    return (
        Fraction(weighted_hits, total_degree),
        Fraction(inv_degree_mass, total_degree),
    )


def estimate_incidence_triangles(g: Graph, v: int, cfg: WalkConfig) -> EstimateResult:
    """Walk-based estimate of the number of triangles through node ``v``."""
    if g.directed:
        raise ValueError("the estimator is defined for undirected graphs")
    d0 = g.degree(v)
    if d0 < 1:
        raise ValueError(f"node {v} is isolated; no neighbourhood to walk")

    nb = induced_closed_neighborhood(g, v)
    internal_edges = nb.subgraph.edge_count - d0  # edges among the neighbours
    augment = cfg.augment if cfg.augment is not None else internal_edges == 0
    if augment:
        nb = add_artificial_apex(nb)

    walk_graph = nb.subgraph
    adj = walk_graph.adjacency
    nbrs = _neighbor_lists(walk_graph)
    degrees = [len(x) for x in nbrs]
    center = nb.center
    center_degree = degrees[center]  # d0, or d0+1 when augmented

    rng = random.Random(cfg.seed)
    if cfg.start_policy == "uniform":
        x = int(rng.random() * walk_graph.node_count)
    else:  # degree_proportional
        total = sum(degrees)
        pick = rng.random() * total
        acc = 0.0
        x = walk_graph.node_count - 1
        for i, d in enumerate(degrees):
            acc += d
            if pick < acc:
                x = i
                break

    burn_in = max(16, center_degree)
    r = cfg.steps
    # Reduce the recorded steps X_1..X_r, the path after the burn-in.
    # np.cumsum adds in path order, so both sums are bit for bit the running
    # sums of a step-by-step loop (a pairwise np.sum would not be).
    steps = np.array(_walk(nbrs, x, burn_in + r, rng)[burn_in:])
    deg = np.array(degrees, dtype=np.float64)
    before, mid, after = steps[:-2], steps[1:-1], steps[2:]
    closes = adj[before, after] & ((before == center) | (mid == center) | (after == center))
    y1 = float(np.cumsum(np.where(closes, deg[mid], 0.0))[-1]) / (r - 2)
    y2 = float(np.cumsum(1.0 / deg[steps])[-1]) / r
    z0 = (center_degree + 1) / 6.0 * y1 / y2
    if augment:
        z0 -= d0
    return EstimateResult(z0=z0, y1=y1, y2=y2, steps_used=r, augmented=augment)
