"""Exact per-node substructure counts: triangles, 4-cliques, wedges, clustering.

``tau[v]`` counts the triangles a node v sits in, which is the same thing as
the number of edges among its neighbours — the quantity every expressivity
argument in this package leans on.  ``incidence_triangles`` works on packed
bit rows (population count of N(u) ∩ N(v)); the ``brute_force_*`` twins
enumerate node tuples directly and exist so tests never compare an
implementation against itself.

The matrix routes (``total_triangles``, ``incidence_triangles_directed``,
``incidence_4cliques``) multiply 0/1 matrices in float64, where BLAS runs,
and still return exact integers: on m nodes every entry of ``A²`` is at most
m, every entry of ``A² ⊙ A`` too, and every partial sum of those entries at
most m³.  Integers up to 2⁵³ are exact in float64, so the counts are exact
while m³ < 2⁵³ (m ≤ 208063); :func:`_require_exact_in_float64` refuses larger
inputs instead of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph_core import Graph

__all__ = [
    "CountVector",
    "incidence_triangles",
    "incidence_triangles_directed",
    "total_triangles",
    "incidence_4cliques",
    "incidence_wedges",
    "clustering_coefficients",
    "brute_force_incidence_triangles",
    "brute_force_incidence_4cliques",
]

#: Largest node count the brute-force enumerators accept (quadruple
#: enumeration is O(N^4); this is a test-oracle budget, not a real limit).
BRUTE_FORCE_BUDGET = 64


@dataclass(frozen=True)
class CountVector:
    """Per-node substructure counts with a tag saying what was counted."""

    kind: str
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if (self.counts < 0).any():
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __getitem__(self, v: int) -> int:
        return int(self.counts[v])

    def __len__(self) -> int:
        return len(self.counts)


def _require_exact_in_float64(n: int) -> None:
    """Refuse a matrix route whose sums could pass 2⁵³ on ``n`` nodes, where
    float64 stops holding every integer."""
    if n**3 >= 2**53:
        raise ValueError(
            f"{n} nodes is too many for exact float64 counting (n³ must stay "
            "below 2**53)")


def _require_undirected(g: Graph, what: str) -> None:
    if g.directed:
        raise ValueError(f"{what} is defined for undirected graphs; "
                         "use incidence_triangles_directed for directed input")


def incidence_triangles(g: Graph) -> CountVector:
    """Triangles through each node: ``tau_v = ½ Σ_u (A²)_{vu} A_{vu}``.

    Computed as half the number of ordered neighbour pairs of ``v`` that are
    themselves adjacent, via bitwise intersection of packed adjacency rows.
    """
    _require_undirected(g, "incidence_triangles")
    adj = g.adjacency
    n = g.node_count
    packed = np.packbits(adj, axis=1)
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nbrs = np.flatnonzero(adj[v])
        if nbrs.size < 2:
            continue
        common = packed[nbrs] & packed[v]
        counts[v] = int(np.bitwise_count(common).sum()) // 2
    return CountVector(kind="triangle", counts=counts)


def incidence_triangles_directed(g: Graph) -> CountVector:
    """Directed triangles through each node: row sums of ``A² ⊙ Aᵀ``.

    Entry v counts directed 3-cycles ``v → a → b → v``; summing over nodes
    gives ``tr(A³)`` exactly (each 3-cycle is seen from its three corners).
    """
    if not g.directed:
        raise ValueError("incidence_triangles_directed needs a directed graph")
    _require_exact_in_float64(g.node_count)
    a = g.adjacency.astype(np.float64)
    closing = (a @ a) * a.T
    return CountVector(kind="directed_triangle",
                       counts=closing.sum(axis=1).astype(np.int64))


def total_triangles(g: Graph) -> int:
    """Number of triangles in the whole graph, ``tr(A³)/6 = Σ(A² ⊙ A)/6``.

    One float64 matmul: ``tr(A³) = Σ_ij (A²)_ij A_ji`` and A is symmetric.
    Exact below 2⁵³ (see the module docstring).  Deliberately computed
    through the matrix product rather than from :func:`incidence_triangles`,
    so the identity ``total = Σ tau_v / 3`` is a genuine two-route
    consistency check.
    """
    _require_undirected(g, "total_triangles")
    _require_exact_in_float64(g.node_count)
    a = g.adjacency.astype(np.float64)
    return int((a @ a * a).sum()) // 6


def incidence_4cliques(g: Graph) -> CountVector:
    """4-cliques through each node: triangles inside the neighbourhood of v,
    ``Σ(S² ⊙ S)/6`` on the neighbourhood's adjacency S in float64."""
    _require_undirected(g, "incidence_4cliques")
    _require_exact_in_float64(g.node_count)
    adj = g.adjacency
    n = g.node_count
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nbrs = np.flatnonzero(adj[v])
        if nbrs.size < 3:
            continue
        sub = adj[np.ix_(nbrs, nbrs)].astype(np.float64)
        counts[v] = int((sub @ sub * sub).sum()) // 6
    return CountVector(kind="four_clique", counts=counts)


def incidence_wedges(g: Graph) -> CountVector:
    """Open neighbour pairs at each node: ``C(d_v, 2) − tau_v``."""
    _require_undirected(g, "incidence_wedges")
    d = g.degrees()
    tau = incidence_triangles(g).counts
    return CountVector(kind="wedge", counts=d * (d - 1) // 2 - tau)


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Local clustering ``c_v = 2·|edges among N(v)| / (d_v (d_v − 1))``.

    Nodes of degree below 2 get 0, which keeps ``tau_v = c_v d_v (d_v−1)/2``
    true everywhere.  The numerator is recounted here from the neighbourhood
    edges instead of reusing ``incidence_triangles``, so the identity linking
    the two is checkable.
    """
    _require_undirected(g, "clustering_coefficients")
    adj = g.adjacency
    n = g.node_count
    out = np.zeros(n, dtype=np.float64)
    for v in range(n):
        nbrs = np.flatnonzero(adj[v])
        d = nbrs.size
        if d < 2:
            continue
        internal = int(adj[np.ix_(nbrs, nbrs)].sum()) // 2
        out[v] = 2.0 * internal / (d * (d - 1))
    return out


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------


def _check_budget(g: Graph) -> None:
    if g.node_count > BRUTE_FORCE_BUDGET:
        raise ValueError(
            f"brute force enumeration limited to {BRUTE_FORCE_BUDGET} nodes, "
            f"got {g.node_count}"
        )


def brute_force_incidence_triangles(g: Graph) -> CountVector:
    """Triangle counts by enumerating all node triples.  Test oracle only."""
    _require_undirected(g, "brute_force_incidence_triangles")
    _check_budget(g)
    adj = g.adjacency
    counts = np.zeros(g.node_count, dtype=np.int64)
    for a, b, c in combinations(range(g.node_count), 3):
        if adj[a, b] and adj[a, c] and adj[b, c]:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return CountVector(kind="triangle", counts=counts)


def brute_force_incidence_4cliques(g: Graph) -> CountVector:
    """4-clique counts by enumerating all node quadruples.  Test oracle only."""
    _require_undirected(g, "brute_force_incidence_4cliques")
    _check_budget(g)
    adj = g.adjacency
    counts = np.zeros(g.node_count, dtype=np.int64)
    for quad in combinations(range(g.node_count), 4):
        if all(adj[x, y] for x, y in combinations(quad, 2)):
            for x in quad:
                counts[x] += 1
    return CountVector(kind="four_clique", counts=counts)
