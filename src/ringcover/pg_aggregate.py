"""Order-sensitive neighbourhood aggregation driven by the ring group.

A node's neighbours (taken in ascending id order) are laid out on a ring; for
every element of the cyclic group generated by the ring shuffle the sequence
of neighbour features — closed by repeating the first one — is fed through a
sequence aggregator, and the runs are summed together with a self term.
Summing over the whole group is what buys the invariance this module
advertises: reordering the neighbours by any group element permutes the runs
and leaves the total unchanged, and the consecutive pairs consumed across the
group are exactly the ring-coverage pairs of :mod:`ringcover.perm_group`.

Aggregator notes.  ``elman`` is the standard recurrent cell
``y_t = a(U·y_{t−1} + W·h_t + b)`` applied per step.  ``gin_recovery`` is the
degenerate configuration that reproduces a summed linear layer: identity
activation, unit recurrence, and — deliberately — the bias booked once for
the whole sequence rather than per step.  A per-step bias accumulates
``T·b`` over a length-T sequence, so no choice of parameters could match
``W·Σh + b`` across nodes of different degree; booking it once makes the
recovery exact.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .graph_core import Graph
from .perm_group import ring_powers, sigma
from .substructure import incidence_4cliques

__all__ = [
    "SeqAggregator",
    "linear_recurrence",
    "aggregate_node",
    "aggregate_node_merged",
    "gin_layer_reference",
    "readout_graph",
    "distinguish_by_aggregation",
]

_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda z: z,
    "tanh": np.tanh,
}


class SeqAggregator:
    """A deterministic sequence-to-vector fold with zero initial state.

    Construct through one of the classmethods; ``run`` consumes a sequence of
    equally-sized feature vectors and returns one vector.
    """

    def __init__(self, mode: str, **params):
        self.mode = mode
        self.params = params

    @classmethod
    def linear_recurrence(cls, alpha: float) -> "SeqAggregator":
        """state ← α·state + x, returning the final state."""
        return cls("linear_recurrence", alpha=float(alpha))

    @classmethod
    def elman(cls, W: np.ndarray, U: np.ndarray, b: np.ndarray,
              activation: str = "identity") -> "SeqAggregator":
        """Recurrent cell ``y_t = a(U·y_{t−1} + W·h_t + b)`` per step."""
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        W, U, b = np.asarray(W, float), np.asarray(U, float), np.asarray(b, float)
        if U.shape != (W.shape[0], W.shape[0]) or b.shape != (W.shape[0],):
            raise ValueError("elman weight shapes inconsistent")
        return cls("elman", W=W, U=U, b=b, activation=activation)

    @classmethod
    def gin_recovery(cls, W: np.ndarray, b: np.ndarray) -> "SeqAggregator":
        """The summed-linear-layer configuration: ``W·Σ_t h_t + b``.

        Equivalent to the elman cell with unit recurrence, identity
        activation, zero bias — plus ``b`` added once at the end.
        """
        W, b = np.asarray(W, float), np.asarray(b, float)
        if b.shape != (W.shape[0],):
            raise ValueError("bias width must match W rows")
        return cls("gin_recovery", W=W, b=b)

    @property
    def output_width(self) -> int | None:
        """Output width when the weights determine it (None for the scalar
        recurrence, whose width follows the inputs)."""
        if self.mode in ("elman", "gin_recovery"):
            return self.params["W"].shape[0]
        return None

    def run(self, seq: Sequence[np.ndarray]) -> np.ndarray:
        """Fold one sequence; the single-sequence case of :meth:`fold`."""
        items = [np.asarray(x, dtype=float) for x in seq]
        if not items:
            raise ValueError("cannot aggregate an empty sequence")
        width = items[0].shape
        if any(x.shape != width for x in items):
            raise ValueError("sequence items must share one feature width")
        return self.fold(np.stack(items)[None])[0]

    def fold(self, seqs: np.ndarray) -> np.ndarray:
        """Fold a batch of equal-length sequences at once.

        ``seqs`` is ``(G, T, *width)``; row ``k`` of the result is the fold of
        ``seqs[k]``.  One step runs for all G sequences together, so the
        Python loop is over the T steps only.
        """
        if self.mode == "linear_recurrence":
            alpha = self.params["alpha"]
            state = np.zeros_like(seqs[:, 0])
            for t in range(seqs.shape[1]):
                state = alpha * state + seqs[:, t]
            return state
        if self.mode not in ("elman", "gin_recovery"):
            raise ValueError(f"unknown aggregator mode {self.mode!r}")

        W, b = self.params["W"], self.params["b"]
        if seqs.shape[2:] != (W.shape[1],):
            raise ValueError(
                f"{self.mode} expects width {W.shape[1]}, got {seqs.shape[2:]}")
        if self.mode == "gin_recovery":
            return seqs.sum(axis=1) @ W.T + b
        U, act = self.params["U"], _ACTIVATIONS[self.params["activation"]]
        inputs = seqs @ W.T + b  # the W·h_t + b term of every step, up front
        y = np.zeros((seqs.shape[0], W.shape[0]))
        for t in range(seqs.shape[1]):
            y = act(y @ U.T + inputs[:, t])
        return y


def linear_recurrence(seq: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """Fold ``state ← α·state + x`` over the sequence from a zero state."""
    return SeqAggregator.linear_recurrence(alpha).run(seq)


# ---------------------------------------------------------------------------
# node-level aggregation
# ---------------------------------------------------------------------------


def _features_matrix(g: Graph, feats: np.ndarray) -> np.ndarray:
    feats = np.asarray(feats, dtype=float)
    if feats.ndim != 2 or feats.shape[0] != g.node_count:
        raise ValueError(
            f"features must be (node_count, width), got {feats.shape}")
    return feats


def _ingestion_order(g: Graph, v: int, neighbor_order) -> list[int]:
    base = list(g.neighbors(v))
    if neighbor_order is None:
        return base
    candidate = [int(u) for u in neighbor_order]
    if sorted(candidate) != base:
        raise ValueError("neighbor_order must be a permutation of the neighbors")
    return candidate


def _apply_self(w_self, h_v: np.ndarray) -> np.ndarray:
    if np.isscalar(w_self):
        return w_self * h_v
    return np.asarray(w_self, float) @ h_v


def _rings(nbrs: list[int]) -> np.ndarray:
    """The neighbour ids that every group element seats, one ring per row."""
    if not nbrs:
        return np.empty((1, 0), dtype=np.intp)
    return np.asarray(nbrs, dtype=np.intp)[ring_powers(sigma(len(nbrs))) - 1]


def aggregate_node(g: Graph, v: int, feats: np.ndarray, agg: SeqAggregator,
                   w_self, *, neighbor_order: Sequence[int] | None = None) -> np.ndarray:
    """Group-summed ring aggregation at one node.

    For each element ``p`` of the group generated by the ring shuffle on the
    ``n`` neighbours, the run consumes ``(h_{u_{p(1)}}, .., h_{u_{p(n)}},
    h_{u_{p(1)}})`` — the ring closed by repeating its first item — and the
    runs are summed, plus ``w_self·h_v``.  All runs go through one
    :meth:`SeqAggregator.fold`.  An isolated node contributes only the self
    term.  ``neighbor_order`` overrides the ascending ingestion order (it
    must be a permutation of the neighbours); outputs are invariant exactly
    when the override is the ingestion order pre-composed with a group
    element.
    """
    feats = _features_matrix(g, feats)
    nbrs = _ingestion_order(g, v, neighbor_order)
    self_term = _apply_self(w_self, feats[v])
    if not nbrs:
        return self_term
    rings = _rings(nbrs)
    seqs = feats[np.concatenate([rings, rings[:, :1]], axis=1)]
    return agg.fold(seqs).sum(axis=0) + self_term


def aggregate_node_merged(g: Graph, v: int, feats: np.ndarray, agg: SeqAggregator,
                          *, neighbor_order: Sequence[int] | None = None) -> np.ndarray:
    """Ring aggregation with the centre merged into the sequence.

    Each run consumes ``(h_v, h_{u_{p(1)}}, .., h_{u_{p(n)}}, h_v)``; there is
    no separate self term.  An isolated node degenerates to the single run
    ``(h_v, h_v)``.
    """
    feats = _features_matrix(g, feats)
    rings = _rings(_ingestion_order(g, v, neighbor_order))
    seqs = feats[np.pad(rings, ((0, 0), (1, 1)), constant_values=v)]
    return agg.fold(seqs).sum(axis=0)


def gin_layer_reference(g: Graph, v: int, feats: np.ndarray,
                        W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The summed linear layer ``W·(h_v + Σ_{u∈N(v)} h_u) + b``."""
    feats = _features_matrix(g, feats)
    W, b = np.asarray(W, float), np.asarray(b, float)
    acc = feats[v].copy()
    for u in g.neighbors(v):
        acc += feats[u]
    return W @ acc + b


def readout_graph(per_layer_feats: Sequence[np.ndarray],
                  scorers: Sequence[np.ndarray]) -> np.ndarray:
    """Graph-level score ``Σ_k scorer_k · Σ_v h_v^{(k)}``."""
    if len(per_layer_feats) != len(scorers):
        raise ValueError("need exactly one scorer per layer")
    if not per_layer_feats:
        raise ValueError("need at least one layer")
    out = None
    for feats, scorer in zip(per_layer_feats, scorers):
        feats = np.asarray(feats, float)
        scorer = np.asarray(scorer, float)
        if scorer.shape[1] != feats.shape[1]:
            raise ValueError(
                f"scorer width {scorer.shape[1]} != feature width {feats.shape[1]}")
        term = scorer @ feats.sum(axis=0)
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# separating two graphs by forward features
# ---------------------------------------------------------------------------


def _degree_onehot(g: Graph, width: int, clique_channel: bool) -> np.ndarray:
    d = g.degrees()
    base = np.zeros((g.node_count, width), dtype=float)
    base[np.arange(g.node_count), d] = 1.0
    if clique_channel:
        extra = incidence_4cliques(g).counts.astype(float)[:, None]
        base = np.hstack([base, extra])
    return base


def _sorted_rows(x: np.ndarray) -> np.ndarray:
    return x[np.lexsort(x.T[::-1])]


def distinguish_by_aggregation(g1: Graph, g2: Graph,
                               agg: SeqAggregator | None = None,
                               layers: int = 2, *,
                               clique_channel: bool = False,
                               seed: int = 0,
                               atol: float = 1e-9) -> bool:
    """True when forward aggregation separates the two graphs.

    Node features start as one-hot degree (optionally with the per-node
    4-clique count as one extra channel — the engineered witness that tells
    apart pairs colour refinement cannot).  ``layers`` rounds of
    :func:`aggregate_node` are run on both graphs with shared weights — a
    seeded tanh elman cell unless ``agg`` is supplied — and the verdict
    compares the multisets of final node features at tolerance ``atol``.
    """
    if layers < 1:
        raise ValueError("need at least one layer")
    if g1.node_count != g2.node_count:
        return True
    width = int(max(g1.degrees().max(), g2.degrees().max())) + 1
    total_width = width + (1 if clique_channel else 0)

    rng = np.random.default_rng(seed)
    scale = 0.7 / np.sqrt(total_width)
    if agg is None:
        agg = SeqAggregator.elman(
            W=rng.standard_normal((total_width, total_width)) * scale,
            U=rng.standard_normal((total_width, total_width)) * scale,
            b=rng.standard_normal(total_width) * 0.1,
            activation="tanh",
        )
        w_self = rng.standard_normal((total_width, total_width)) * scale
    else:
        w_self = np.eye(total_width)

    outputs = []
    for g in (g1, g2):
        x = _degree_onehot(g, width, clique_channel)
        for _ in range(layers):
            x = np.stack([aggregate_node(g, v, x, agg, w_self)
                          for v in range(g.node_count)])
        outputs.append(x)
    a, b = outputs
    if a.shape != b.shape:
        return True
    return not np.allclose(_sorted_rows(a), _sorted_rows(b), rtol=0.0, atol=atol)
