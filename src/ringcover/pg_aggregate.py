"""Order-sensitive neighbourhood aggregation driven by the ring group.

A node's neighbours (ascending ids unless an order is given) are laid out on
a ring; for every element of the cyclic group generated by the ring shuffle
the sequence of neighbour features — closed by repeating the first one — is
fed through a sequence aggregator, and the runs are summed together with a
self term.  The group sum absorbs the group's own shuffles: reordering the
neighbours by a group element permutes the runs and leaves the total
unchanged, and the consecutive pairs consumed across the group are exactly
the ring-coverage pairs of :mod:`ringcover.perm_group`.  The separation
verdict seats neighbours by their features, so relabelling cannot change it.

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

import operator
from functools import partial
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

_FOLD_FEATURES = 2**20  # cap on the features one fold in _layer gathers


def _linear_fold(alpha: float, seqs: np.ndarray) -> np.ndarray:
    state = np.zeros_like(seqs[:, 0])
    for t in range(seqs.shape[1]):
        state = alpha * state + seqs[:, t]
    return state


def _elman_fold(W, U, b, act, seqs: np.ndarray) -> np.ndarray:
    inputs = seqs @ W.T + b  # the W·h_t + b term of every step, up front
    y = np.zeros((seqs.shape[0], W.shape[0]))
    for t in range(seqs.shape[1]):
        y = act(y @ U.T + inputs[:, t])
    return y


def _gin_fold(W, b, seqs: np.ndarray) -> np.ndarray:
    return seqs.sum(axis=1) @ W.T + b


class SeqAggregator:
    """A deterministic sequence-to-vector fold with zero initial state.

    Construct through a classmethod, which binds the fold and its weights;
    ``output_width`` is None when the width follows the inputs.
    """

    def __init__(self, fold: Callable[[np.ndarray], np.ndarray], W=None):
        self._fold, self._W = fold, W
        self.output_width = None if W is None else W.shape[0]

    @classmethod
    def linear_recurrence(cls, alpha: float) -> "SeqAggregator":
        """state ← α·state + x, returning the final state."""
        return cls(partial(_linear_fold, float(alpha)))

    @classmethod
    def elman(cls, W: np.ndarray, U: np.ndarray, b: np.ndarray,
              activation: str = "identity") -> "SeqAggregator":
        """Recurrent cell ``y_t = a(U·y_{t−1} + W·h_t + b)`` per step."""
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        W, U, b = np.asarray(W, float), np.asarray(U, float), np.asarray(b, float)
        if U.shape != (W.shape[0], W.shape[0]) or b.shape != (W.shape[0],):
            raise ValueError("elman weight shapes inconsistent")
        return cls(partial(_elman_fold, W, U, b, _ACTIVATIONS[activation]), W)

    @classmethod
    def gin_recovery(cls, W: np.ndarray, b: np.ndarray) -> "SeqAggregator":
        """The summed-linear-layer configuration: ``W·Σ_t h_t + b``.

        Equivalent to the elman cell with unit recurrence, identity
        activation, zero bias — plus ``b`` added once at the end.
        """
        W, b = np.asarray(W, float), np.asarray(b, float)
        if b.shape != (W.shape[0],):
            raise ValueError("bias width must match W rows")
        return cls(partial(_gin_fold, W, b), W)

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

        ``seqs`` is ``(R, T, *width)``; row ``k`` of the result is the fold of
        ``seqs[k]``.  One step runs for all R sequences together, so the
        Python loop is over the T steps only.
        """
        if self._W is not None and seqs.shape[2:] != (self._W.shape[1],):
            raise ValueError(f"expected width {self._W.shape[1]}, got {seqs.shape[2:]}")
        return self._fold(seqs)


def linear_recurrence(seq: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """Fold ``state ← α·state + x`` over the sequence from a zero state."""
    return SeqAggregator.linear_recurrence(alpha).run(seq)


# ---------------------------------------------------------------------------
# node-level aggregation
# ---------------------------------------------------------------------------


def _features_matrix(g: Graph, feats: np.ndarray) -> np.ndarray:
    feats = np.asarray(feats, dtype=float)
    if feats.ndim != 2 or feats.shape[0] != g.node_count:
        raise ValueError(f"features must be (node_count, width), got {feats.shape}")
    return feats


def _ingestion_order(g: Graph, v: int, neighbor_order) -> np.ndarray:
    base = list(g.neighbors(v))
    if neighbor_order is not None:
        try:
            order = [operator.index(u) for u in neighbor_order]
        except TypeError:
            raise ValueError("neighbor_order must hold integer node ids") from None
        if sorted(order) != base:
            raise ValueError("neighbor_order must be a permutation of the neighbors")
        base = order
    return np.array(base, dtype=np.intp)


def _ring_sums(feats, nbrs: np.ndarray, agg: SeqAggregator, centres=None) -> np.ndarray:
    """Group-summed runs at B nodes of one degree d; ``nbrs`` is ``(B, d)``.

    Each ring is closed by its first item, or opened and closed by the node's
    entry in ``centres``; all B·G runs go through one :meth:`SeqAggregator.fold`.
    """
    d = nbrs.shape[1]
    seats = ring_powers(sigma(d)) if d else np.zeros((1, 0), dtype=np.intp)
    if centres is None:
        ids = nbrs[:, seats[:, np.r_[:d, 0]] - 1]
    else:  # column 0 holds the centre, seat labels 1..d the neighbours
        ids = np.column_stack([centres, nbrs])[:, np.pad(seats, ((0, 0), (1, 1)))]
    b, group, t = ids.shape
    return agg.fold(feats[ids.reshape(b * group, t)]).reshape(b, group, -1).sum(axis=1)


def aggregate_node(g: Graph, v: int, feats: np.ndarray, agg: SeqAggregator,
                   w_self, *, neighbor_order: Sequence[int] | None = None) -> np.ndarray:
    """Group-summed ring aggregation at one node.

    For each element ``p`` of the group generated by the ring shuffle on the
    ``n`` neighbours, the run consumes ``(h_{u_{p(1)}}, .., h_{u_{p(n)}},
    h_{u_{p(1)}})`` — the ring closed by repeating its first item — and the
    runs are summed, plus ``w_self·h_v``.  All runs go through one
    :meth:`SeqAggregator.fold`.  An isolated node contributes only the self
    term.  ``neighbor_order`` overrides the ascending ingestion order (it
    must be a permutation of the neighbours' integer ids); outputs are
    invariant exactly when the override is the ingestion order pre-composed
    with a group element.
    """
    feats = _features_matrix(g, feats)
    nbrs = _ingestion_order(g, v, neighbor_order)
    h_v = feats[v]
    self_term = w_self * h_v if np.isscalar(w_self) else np.asarray(w_self, float) @ h_v
    if not nbrs.size:
        return self_term
    return _ring_sums(feats, nbrs[None], agg)[0] + self_term


def aggregate_node_merged(g: Graph, v: int, feats: np.ndarray, agg: SeqAggregator,
                          *, neighbor_order: Sequence[int] | None = None) -> np.ndarray:
    """Ring aggregation with the centre merged into the sequence.

    Each run consumes ``(h_v, h_{u_{p(1)}}, .., h_{u_{p(n)}}, h_v)``; there is
    no separate self term.  An isolated node degenerates to the single run
    ``(h_v, h_v)``.
    """
    feats = _features_matrix(g, feats)
    nbrs = _ingestion_order(g, v, neighbor_order)
    return _ring_sums(feats, nbrs[None], agg, centres=[v])[0]


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
        if scorer.ndim != 2 or scorer.shape[1] != feats.shape[-1]:
            raise ValueError(f"scorer must be (k, {feats.shape[-1]}), got {scorer.shape}")
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


def _layer(g: Graph, x: np.ndarray, agg: SeqAggregator, w_self: np.ndarray) -> np.ndarray:
    """:func:`aggregate_node` at every node, nodes of one degree folded together;
    neighbours are seated by their feature rows, ties by id (tied neighbours
    have equal rows, so the layer commutes with relabelling)."""
    rank = np.unique(x, axis=0, return_inverse=True)[1]
    out = x @ w_self.T
    deg = g.degrees()
    for d in np.unique(deg[deg > 0]):
        nodes = np.flatnonzero(deg == d)
        step = max(1, _FOLD_FEATURES // (d * d * x.shape[1]))
        for part in (nodes[lo:lo + step] for lo in range(0, nodes.size, step)):
            nbrs = np.nonzero(g.adjacency[part])[1].reshape(part.size, d)
            nbrs = np.take_along_axis(nbrs, np.argsort(rank[nbrs], axis=1, kind="stable"), 1)
            out[part] += _ring_sums(x, nbrs, agg)
    return out


def distinguish_by_aggregation(g1: Graph, g2: Graph, *, clique_channel: bool = False,
                               seed: int = 0) -> bool:
    """True when forward aggregation separates the two graphs.

    Graphs on different node counts are separated without a forward pass.
    Otherwise node features start as one-hot degree (optionally with the
    per-node 4-clique count as one extra channel — the engineered witness
    that tells apart pairs colour refinement cannot).  :func:`_layer` runs on
    both graphs with shared weights (a seeded tanh elman cell) until the
    features add no class to the joint partition of both graphs; as in colour
    refinement, a class is a distinct row ``[previous class | features]``, and
    the plain verdict is ``wl_distinguish(g1, g2, 1)``.  It compares the final
    feature multisets at tolerance 1e-9, so neither relabelling nor rounding
    changes it: a true split moves rows far more than rounding, so the loop
    never stops early, and bit-different rows of one class only cost layers.
    """
    if g1.node_count != g2.node_count:
        return True
    width = int(max(g1.degrees().max(), g2.degrees().max())) + 1
    total_width = width + (1 if clique_channel else 0)

    rng = np.random.default_rng(seed)
    scale = 0.7 / np.sqrt(total_width)
    W, U = rng.standard_normal((2, total_width, total_width)) * scale
    agg = SeqAggregator.elman(W, U, rng.standard_normal(total_width) * 0.1, activation="tanh")
    w_self = rng.standard_normal((total_width, total_width)) * scale

    xs = [_degree_onehot(g, width, clique_channel) for g in (g1, g2)]
    ids = np.zeros(2 * g1.node_count)
    # classes only split and number at most 2n, so at most 2n layers run; a
    # start with one class runs none, as every layer keeps equal rows equal
    while True:
        rows = np.column_stack([ids, np.vstack(xs)])
        ids, before = np.unique(rows, axis=0, return_inverse=True)[1].ravel(), ids
        if ids.max() == before.max():
            break
        xs = [_layer(g, x, agg, w_self) for g, x in zip((g1, g2), xs)]
    return not np.allclose(*(x[np.lexsort(x.T[::-1])] for x in xs), rtol=0.0, atol=1e-9)
