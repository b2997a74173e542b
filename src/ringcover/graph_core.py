"""Dense graph containers, edge-list I/O, and the generators used everywhere else.

Graphs are small in this library (counting oracles, colour refinement and
neighbourhood walks all live on graphs with at most a few thousand nodes), so
adjacency is stored as a dense boolean matrix.  That makes neighbourhood
extraction, degree queries and the bit-level counting tricks in
:mod:`ringcover.substructure` cheap and keeps every operation deterministic.

Nodes are integers ``0 .. n-1``.  Self-loops are rejected everywhere; an
undirected graph stores a symmetric matrix and reports each edge once with
``i < j``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "InducedNeighborhood",
    "from_edge_list",
    "parse_edge_list_text",
    "format_edge_list_text",
    "read_edge_list",
    "write_edge_list",
    "induced_closed_neighborhood",
    "add_artificial_apex",
    "APEX_SENTINEL",
    "gen_complete",
    "gen_star",
    "gen_cycle",
    "gen_erdos_renyi",
    "gen_random_regular",
    "gen_rooks_4x4",
    "gen_shrikhande",
]

#: ``local_to_global`` entry used for nodes that do not exist in the host
#: graph (currently only the artificial apex added by
#: :func:`add_artificial_apex`).
APEX_SENTINEL = -1

#: fresh pairings :func:`gen_random_regular` tries before giving up
_REGULAR_RESTARTS = 500


class Graph:
    """Immutable graph over nodes ``0 .. n-1`` with dense boolean adjacency.

    Parameters
    ----------
    adjacency:
        Square boolean array.  For undirected graphs it must be symmetric.
        The diagonal must be empty (no self-loops).
    directed:
        Whether ``adjacency[i, j]`` means the arc ``i -> j`` only.
    """

    __slots__ = ("_adj", "_directed")

    def __init__(self, adjacency: np.ndarray, directed: bool = False):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not directed and not np.array_equal(adj, adj.T):
            raise ValueError("undirected graph requires a symmetric adjacency matrix")
        adj = adj.copy()
        adj.setflags(write=False)
        self._adj = adj
        self._directed = bool(directed)

    # -- basic queries ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._adj.shape[0]

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    def _node(self, v: int) -> int:
        """``v`` itself; an id outside ``0..n-1`` is an error, never a
        wrapped index."""
        if not 0 <= v < self.node_count:
            raise ValueError(f"node {v} out of range 0..{self.node_count - 1}")
        return v

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._adj[self._node(i), self._node(j)])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Out-neighbours of ``v`` in ascending node order."""
        return tuple(int(u) for u in np.flatnonzero(self._adj[self._node(v)]))

    def degree(self, v: int) -> int:
        return int(self._adj[self._node(v)].sum())

    def degrees(self) -> np.ndarray:
        """All (out-)degrees as an integer vector."""
        return self._adj.sum(axis=1).astype(np.int64)

    @property
    def edge_count(self) -> int:
        total = int(self._adj.sum())
        return total if self._directed else total // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs; undirected edges appear once with ``i < j``."""
        if self._directed:
            rows, cols = np.nonzero(self._adj)
        else:
            rows, cols = np.nonzero(np.triu(self._adj))
        return ((int(i), int(j)) for i, j in zip(rows, cols))

    def relabel(self, order: Sequence[int]) -> "Graph":
        """Return an isomorphic copy where new node ``k`` is old node ``order[k]``."""
        idx = np.asarray(order, dtype=np.int64)
        if sorted(idx.tolist()) != list(range(self.node_count)):
            raise ValueError("order must be a permutation of all node ids")
        return Graph(self._adj[np.ix_(idx, idx)], directed=self._directed)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self._directed == other._directed
            and np.array_equal(self._adj, other._adj)
        )

    def __hash__(self):  # pragma: no cover - graphs are not meant for dict keys
        return hash((self._directed, self._adj.tobytes()))

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return f"Graph(n={self.node_count}, m={self.edge_count}, {kind})"


@dataclass(frozen=True)
class InducedNeighborhood:
    """Subgraph induced by a node and its neighbours.

    ``subgraph`` is an ordinary :class:`Graph` over local ids; the centre is
    always local id ``0`` and the remaining local ids follow the global
    ascending neighbour order.  ``local_to_global[i]`` maps a local id back to
    the host graph (:data:`APEX_SENTINEL` for nodes that were added
    artificially and have no host counterpart).
    """

    subgraph: Graph
    center: int
    local_to_global: tuple[int, ...] = field(default=())


# ---------------------------------------------------------------------------
# construction / serialization
# ---------------------------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]], directed: bool = False) -> Graph:
    """Build a graph from ``(i, j)`` pairs.

    Endpoints must lie in ``0 .. n-1`` and differ; repeated pairs collapse to a
    single edge.  For undirected graphs each pair is stored symmetrically.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) endpoint out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        adj[i, j] = True
        if not directed:
            adj[j, i] = True
    return Graph(adj, directed=directed)


def parse_edge_list_text(text: str) -> Graph:
    """Parse the plain edge-list format.

    Line 1 is ``N M D`` with ``D`` either ``u`` (undirected) or ``d``
    (directed); the next ``M`` lines each hold one edge ``i j``.  Blank lines
    and ``#`` comments are ignored.
    """
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 3:
        raise ValueError(f"header must be 'N M D', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if head[2] not in ("u", "d"):
        raise ValueError(f"direction flag must be 'u' or 'd', got {head[2]!r}")
    directed = head[2] == "d"
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header promises {m} edges but {len(body)} lines follow")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges, directed=directed)


def format_edge_list_text(g: Graph) -> str:
    flag = "d" if g.directed else "u"
    lines = [f"{g.node_count} {g.edge_count} {flag}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list_text(fh.read())


def write_edge_list(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list_text(g))


# ---------------------------------------------------------------------------
# neighbourhoods
# ---------------------------------------------------------------------------


def induced_closed_neighborhood(g: Graph, v: int) -> InducedNeighborhood:
    """Subgraph induced by ``{v} ∪ N(v)``, with ``v`` relabelled to local 0.

    Only defined for undirected graphs.  The centre is adjacent to every
    other node of the subgraph, so the result is always connected.
    """
    if g.directed:
        raise ValueError("closed neighbourhoods are defined for undirected graphs only")
    members = (v,) + g.neighbors(v)
    idx = np.asarray(members, dtype=np.int64)
    sub = Graph(g.adjacency[np.ix_(idx, idx)])
    return InducedNeighborhood(subgraph=sub, center=0, local_to_global=members)


def add_artificial_apex(nb: InducedNeighborhood) -> InducedNeighborhood:
    """Adjoin one extra node adjacent to everything in the neighbourhood.

    The apex gets the highest local id and maps to :data:`APEX_SENTINEL`.
    Every original node gains exactly one incident edge, and every edge of the
    original subgraph becomes one extra triangle through the apex — which is
    what the walk-based estimator exploits when the untouched neighbourhood
    carries no triangles at all.
    """
    old = nb.subgraph.adjacency
    n = nb.subgraph.node_count
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    adj[:n, :n] = old
    adj[n, :n] = True
    adj[:n, n] = True
    sub = Graph(adj)
    return InducedNeighborhood(
        subgraph=sub,
        center=nb.center,
        local_to_global=nb.local_to_global + (APEX_SENTINEL,),
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_complete(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    if n < 1:
        raise ValueError("n must be at least 1")
    adj = ~np.eye(n, dtype=bool)
    if n == 1:
        adj = np.zeros((1, 1), dtype=bool)
    return Graph(adj)


def gen_star(leaves: int) -> Graph:
    """Star with the given number of leaves; the hub is node 0."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def gen_cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Undirected G(n, p): every unordered pair is an edge independently."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, k=1)
    adj = adj | adj.T
    return Graph(adj)


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random ``d``-regular graph via the pairing (configuration) model.

    Stubs are shuffled and paired; pairs that would create a loop or repeat an
    existing edge are thrown back into the pool and re-shuffled.  If a pool
    stops making progress the attempt restarts from scratch, up to
    ``_REGULAR_RESTARTS`` times.  (Plain accept/reject on whole pairings has a
    success rate around ``exp(-(d²-1)/4)`` and is hopeless already at d=6;
    recycling only the clashing stubs keeps the same flavour at usable speed.
    Exact uniformity over regular graphs is not needed by any consumer here.)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 0 or d >= n:
        raise ValueError(f"degree d={d} impossible on {n} nodes")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d == 0:
        return Graph(np.zeros((n, n), dtype=bool))

    rng = np.random.default_rng(seed)
    for _ in range(_REGULAR_RESTARTS):
        adj = np.zeros((n, n), dtype=bool)
        pool = np.repeat(np.arange(n), d)
        stuck = 0
        while pool.size:
            rng.shuffle(pool)
            leftover = []
            placed = 0
            for a, b in zip(pool[0::2], pool[1::2]):
                a, b = int(a), int(b)
                if a == b or adj[a, b]:
                    leftover.append(a)
                    leftover.append(b)
                else:
                    adj[a, b] = adj[b, a] = True
                    placed += 1
            if placed == 0:
                stuck += 1
                if stuck > 8:
                    break  # dead end; tear the matching down and restart
            else:
                stuck = 0
            pool = np.asarray(leftover, dtype=np.int64)
        if pool.size == 0:
            return Graph(adj)
    raise ValueError(
        f"could not realise a simple {d}-regular graph on {n} nodes "
        f"after {_REGULAR_RESTARTS} restarts"
    )


def _cayley_z4xz4(connection: set[tuple[int, int]]) -> Graph:
    """Cayley graph on Z4 x Z4, node ``4x + y``: ``a`` and ``b`` are adjacent
    when ``b - a`` lies in the connection set (symmetric, without (0, 0))."""
    x, y = np.divmod(np.arange(16), 4)
    diff = (x[None, :] - x[:, None]) % 4 * 4 + (y[None, :] - y[:, None]) % 4
    return Graph(np.isin(diff, [4 * dx + dy for dx, dy in connection]))


def gen_rooks_4x4() -> Graph:
    """Rook's-move graph on a 4x4 board: same row or same column.

    The Cayley graph on Z4 x Z4 with connection set {(a,0), (0,a) : a ≠ 0}.
    Strongly regular with parameters (16, 6, 2, 2); every node lies in
    exactly two 4-cliques (its row and its column).
    """
    return _cayley_z4xz4({(a, 0) for a in (1, 2, 3)} | {(0, a) for a in (1, 2, 3)})


def gen_shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set ±(1,0), ±(0,1), ±(1,1).

    Shares the strongly-regular parameters (16, 6, 2, 2) with the 4x4 rook's
    graph but contains no 4-clique at all — the canonical witness pair for
    anything colour-refinement cannot see.
    """
    return _cayley_z4xz4({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
