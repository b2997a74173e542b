"""Sequence aggregators and the ring-ensemble neighborhood layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringcover.graph_core import (
    from_edge_list,
    gen_complete,
    gen_erdos_renyi,
    gen_rooks_4x4,
    gen_shrikhande,
    gen_star,
)
from ringcover.perm_group import act, generate_group, sigma
from ringcover.pg_aggregate import (
    SeqAggregator,
    _degree_onehot,
    _layer,
    aggregate_node,
    aggregate_node_merged,
    distinguish_by_aggregation,
    gin_layer_reference,
    linear_recurrence,
    readout_graph,
)
from ringcover.wl import _refine_joint, wl_compare


def _rng(seed=0):
    return np.random.default_rng(seed)


# --- linear recurrence algebra ----------------------------------------------


def test_three_item_expansions():
    rng = _rng(1)
    b, g = rng.normal(size=3), rng.normal(size=3)
    for alpha in rng.normal(size=10):
        left = linear_recurrence([b, g, b], alpha)
        np.testing.assert_allclose(left, (alpha**2 + 1) * b + alpha * g, atol=1e-12)
        right = linear_recurrence([b, b, g], alpha)
        np.testing.assert_allclose(right, (alpha**2 + alpha) * b + g, atol=1e-12)


def test_alpha_one_forgets_positions():
    rng = _rng(2)
    b, g = rng.normal(size=4), rng.normal(size=4)
    np.testing.assert_allclose(
        linear_recurrence([b, g, b], 1.0), 2 * b + g, atol=1e-12
    )
    np.testing.assert_allclose(
        linear_recurrence([b, b, g], 1.0), 2 * b + g, atol=1e-12
    )


def test_alpha_zero_keeps_only_the_last():
    rng = _rng(3)
    xs = [rng.normal(size=2) for _ in range(5)]
    np.testing.assert_array_equal(linear_recurrence(xs, 0.0), xs[-1])


def test_recurrence_aggregator_object_matches_free_function():
    rng = _rng(4)
    xs = [rng.normal(size=3) for _ in range(4)]
    agg = SeqAggregator.linear_recurrence(alpha=0.7)
    np.testing.assert_array_equal(agg.run(xs), linear_recurrence(xs, 0.7))


# --- elman and the summation recovery ----------------------------------------


def test_elman_identity_config_is_running_sum_plus_bias():
    rng = _rng(5)
    w = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    xs = [rng.normal(size=3) for _ in range(6)]
    agg = SeqAggregator.elman(W=w, U=np.eye(3), b=b, activation="identity")
    out = agg.run(xs)
    # y_t = y_{t-1} + W x_t + b  =>  y_T = W·Σx + T·b
    np.testing.assert_allclose(out, w @ np.sum(xs, axis=0) + len(xs) * b, atol=1e-9)


def test_elman_tanh_small_case_by_hand():
    w = np.array([[0.5]])
    u = np.array([[2.0]])
    b = np.array([0.1])
    agg = SeqAggregator.elman(W=w, U=u, b=b, activation="tanh")
    xs = [np.array([1.0]), np.array([-1.0])]
    y1 = np.tanh(0.5 * 1.0 + 0.1)
    y2 = np.tanh(2.0 * y1 - 0.5 + 0.1)
    np.testing.assert_allclose(agg.run(xs), [y2], atol=1e-12)


def test_elman_shape_validation():
    # a rectangular W is fine (input width need not match state width), but
    # the recurrence U must be square on the state and b must match it
    with pytest.raises(ValueError):
        SeqAggregator.elman(W=np.ones((2, 3)), U=np.eye(3), b=np.zeros(2),
                            activation="identity")
    with pytest.raises(ValueError):
        SeqAggregator.elman(W=np.ones((2, 2)), U=np.eye(2), b=np.zeros(3),
                            activation="identity")
    with pytest.raises(ValueError):
        SeqAggregator.elman(W=np.eye(2), U=np.eye(2), b=np.zeros(2),
                            activation="sigmoidish")


def test_gin_recovery_books_bias_once():
    rng = _rng(6)
    w = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    xs = [rng.normal(size=4) for _ in range(7)]
    gin = SeqAggregator.gin_recovery(W=w, b=b)
    np.testing.assert_allclose(gin.run(xs), w @ np.sum(xs, axis=0) + b, atol=1e-12)


def test_gin_recovery_equals_unbiased_elman_plus_bias():
    rng = _rng(7)
    w = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    xs = [rng.normal(size=3) for _ in range(5)]
    gin = SeqAggregator.gin_recovery(W=w, b=b)
    plain = SeqAggregator.elman(W=w, U=np.eye(3), b=np.zeros(3), activation="identity")
    np.testing.assert_allclose(gin.run(xs), plain.run(xs) + b, atol=1e-12)


def test_run_rejects_ragged_or_empty():
    agg = SeqAggregator.linear_recurrence(alpha=1.0)
    with pytest.raises(ValueError):
        agg.run([])
    with pytest.raises(ValueError):
        agg.run([np.zeros(2), np.zeros(3)])


# --- neighborhood layer -------------------------------------------------------


def _random_setup(seed, n=9, p=0.45, width=5):
    g = gen_erdos_renyi(n, p, seed)
    rng = _rng(seed + 100)
    feats = rng.normal(size=(n, width))
    agg = SeqAggregator.linear_recurrence(alpha=0.6)
    w_self = rng.normal(size=(width, width))
    return g, feats, agg, w_self


def test_group_relabeling_leaves_output_alone():
    for seed in range(12):
        g, feats, agg, w_self = _random_setup(seed)
        for v in range(g.node_count):
            base = aggregate_node(g, v, feats, agg, w_self)
            nbrs = g.neighbors(v)
            n = len(nbrs)
            if n == 0:
                continue
            for p in generate_group(sigma(n)).elements:
                reordered = [nbrs[act(p, t) - 1] for t in range(1, n + 1)]
                out = aggregate_node(
                    g, v, feats, agg, w_self, neighbor_order=reordered
                )
                np.testing.assert_allclose(out, base, atol=1e-12)


def test_arbitrary_reorder_changes_output_in_general():
    # invariance is a property of the ring family, not of any shuffle.  An
    # even-sized ring with a linear recurrence is blind to order (the shuffle
    # group walks every label through every seat), so use an odd ring, where
    # the lead seat is pinned: swapping the lead out must move the answer.
    g = gen_complete(6)  # degree 5 at every node
    rng = _rng(11)
    feats = rng.normal(size=(6, 3))
    agg = SeqAggregator.linear_recurrence(alpha=0.6)
    base = aggregate_node(g, 0, feats, agg, w_self=np.eye(3))
    nbrs = list(g.neighbors(0))
    swapped = [nbrs[1], nbrs[0]] + nbrs[2:]
    moved = aggregate_node(g, 0, feats, agg, w_self=np.eye(3), neighbor_order=swapped)
    assert not np.allclose(base, moved, atol=1e-9)


def test_neighbor_order_must_be_a_permutation_of_integer_ids():
    g = gen_star(3)  # centre 0, leaves 1..3
    feats = np.eye(4)
    agg = SeqAggregator.linear_recurrence(alpha=0.5)
    np.testing.assert_array_equal(
        aggregate_node(g, 0, feats, agg, 1.0, neighbor_order=np.array([3, 1, 2])),
        aggregate_node(g, 0, feats, agg, 1.0, neighbor_order=[3, 1, 2]))
    for bad in ([1, 2], [1, 2, 2], [1, 2, 4], [1.5, 2, 3], [1.0, 2, 3], ["1", 2, 3]):
        with pytest.raises(ValueError):
            aggregate_node(g, 0, feats, agg, 1.0, neighbor_order=bad)
        with pytest.raises(ValueError):
            aggregate_node_merged(g, 0, feats, agg, neighbor_order=bad)


def test_isolated_node_is_self_term_only():
    g = from_edge_list(3, [(0, 1)])
    feats = np.arange(9, dtype=float).reshape(3, 3)
    agg = SeqAggregator.linear_recurrence(alpha=0.5)
    out = aggregate_node(g, 2, feats, agg, w_self=2.0)
    np.testing.assert_array_equal(out, 2.0 * feats[2])


def test_alpha_one_collapse_even_degree():
    # even ring size: every label reaches the lead slot, so the whole layer
    # depends on the neighbor features only through their sum
    g = gen_complete(5)  # degree 4 at every node
    rng = _rng(13)
    feats = rng.normal(size=(5, 3))
    agg = SeqAggregator.linear_recurrence(alpha=1.0)
    out = aggregate_node(g, 0, feats, agg, w_self=0.0)
    group_order = 4
    nbr_sum = feats[1:].sum(axis=0)
    np.testing.assert_allclose(out, (group_order + 1) * nbr_sum, atol=1e-12)
    # and any shuffle of neighbor features is invisible
    shuffled = feats.copy()
    shuffled[1:] = feats[1:][::-1]
    np.testing.assert_allclose(
        aggregate_node(g, 0, shuffled, agg, w_self=0.0), out, atol=1e-12
    )


def test_alpha_one_collapse_odd_degree_keeps_the_lead():
    # odd ring size: label 1 is a fixed point of the family, so the first
    # ingested neighbor keeps an extra vote and shuffles remain visible
    g = gen_complete(6)  # degree 5
    rng = _rng(14)
    feats = rng.normal(size=(6, 3))
    agg = SeqAggregator.linear_recurrence(alpha=1.0)
    out = aggregate_node(g, 0, feats, agg, w_self=0.0)
    nbrs = gen_complete(6).neighbors(0)
    group_order = 4  # |family| for n=5
    nbr_sum = feats[list(nbrs)].sum(axis=0)
    lead = feats[nbrs[0]]
    np.testing.assert_allclose(out, group_order * (nbr_sum + lead), atol=1e-12)


def test_merged_variant_prepends_center():
    g = from_edge_list(3, [(0, 1), (0, 2)])
    feats = np.array([[1.0], [2.0], [3.0]])
    agg = SeqAggregator.linear_recurrence(alpha=1.0)
    # degree 2 -> group is {id, swap}; rings (1,2) and (2,1); each run
    # consumes [h0, ring..., h0], so at alpha=1 both runs sum to 7
    out = aggregate_node_merged(g, 0, feats, agg)
    assert out.shape == (1,)
    assert out[0] == pytest.approx((1 + 2 + 3 + 1) + (1 + 3 + 2 + 1))


def test_gin_route_matches_reference_layer():
    rng = _rng(15)
    for seed in range(10):
        g = gen_erdos_renyi(8, 0.5, seed)
        feats = rng.normal(size=(8, 4))
        w = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        for v in range(8):
            want = gin_layer_reference(g, v, feats, w, b)
            gin = SeqAggregator.gin_recovery(W=w, b=b)
            nbrs = g.neighbors(v)
            seq = [feats[v]] + [feats[u] for u in nbrs]
            got = gin.run(seq)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_readout_combines_layers():
    feats0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    feats1 = np.array([[2.0, 2.0], [0.0, 0.0]])
    s0 = np.array([[1.0, 1.0]])
    s1 = np.array([[1.0, -1.0]])
    out = readout_graph([feats0, feats1], [s0, s1])
    assert out.shape == (1,)
    assert out[0] == pytest.approx((1 + 1) + (2 - 2))


def test_readout_validates_shapes():
    with pytest.raises(ValueError):
        readout_graph([np.zeros((2, 2))], [np.zeros((1, 3))])
    with pytest.raises(ValueError):
        readout_graph([np.zeros((2, 2))], [])
    with pytest.raises(ValueError):
        readout_graph([np.zeros((2, 2))], [np.zeros(2)])


# --- separation ----------------------------------------------------------------


def test_identical_graphs_never_distinguished():
    # the verdict seats each node's neighbours by their features, so equal
    # graphs give equal features; relabelled copies are covered below
    assert not distinguish_by_aggregation(gen_complete(4), gen_complete(4))
    g = gen_erdos_renyi(10, 0.4, seed=8)
    assert not distinguish_by_aggregation(g, g)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), p=st.sampled_from([0.0, 0.2, 0.35, 0.5, 0.8]),
       seed=st.integers(0, 2**32 - 1), clique_channel=st.booleans())
def test_relabelled_copies_never_distinguished(n, p, seed, clique_channel):
    g = gen_erdos_renyi(n, p, seed=seed)
    perm = np.random.default_rng(seed).permutation(n).tolist()
    assert not distinguish_by_aggregation(g, g.relabel(perm),
                                          clique_channel=clique_channel, seed=seed % 7)


def test_degree_blind_pair_needs_the_clique_channel():
    rook, shri = gen_rooks_4x4(), gen_shrikhande()
    assert not distinguish_by_aggregation(rook, shri)
    assert distinguish_by_aggregation(rook, shri, clique_channel=True)


def test_different_degree_sequences_distinguish_plainly():
    assert distinguish_by_aggregation(gen_star(3), gen_complete(4))


def test_different_sizes_trivially_distinguish():
    assert distinguish_by_aggregation(gen_complete(4), gen_complete(5))


def _caterpillar(leaf_at):
    """A 13-node path with one leaf hung on node ``leaf_at``."""
    return from_edge_list(14, [(i, i + 1) for i in range(12)] + [(leaf_at, 13)])


def _degree_preserving_twin(g, seed):
    """``g`` after random double edge swaps: ab, cd -> ad, cb when both new
    edges are absent, so every degree is kept."""
    rng = np.random.default_rng(seed)
    edges = [tuple(e) for e in g.edges()]
    for _ in range(4 * len(edges) if len(edges) > 1 else 0):
        i, j = rng.choice(len(edges), 2, replace=False)
        (a, b), (c, d) = edges[i], edges[j]
        present = set(edges) | {(v, u) for u, v in edges}
        if len({a, b, c, d}) == 4 and (a, d) not in present and (c, b) not in present:
            edges[i], edges[j] = (a, d), (c, b)
    return from_edge_list(g.node_count, edges)


def _random_pair(n, p, seed):
    g = gen_erdos_renyi(n, p, seed=seed)
    return g, _degree_preserving_twin(g, seed)


_PAIRS = st.builds(_random_pair, st.integers(6, 15), st.sampled_from([0.15, 0.25, 0.35, 0.5]),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(pair=_PAIRS, seed=st.integers(0, 6))
@example(pair=(_caterpillar(5), _caterpillar(6)), seed=0)
def test_plain_verdict_is_colour_refinement(pair, seed):
    # layers run to the fixed point, so the plain verdict is 1-WL's, also
    # where two layers are too few (the caterpillar pair needs three)
    g1, g2 = pair
    assert np.array_equal(np.sort(g1.degrees()), np.sort(g2.degrees()))
    assert distinguish_by_aggregation(g1, g2, seed=seed) == wl_compare(g1, g2, 1)[0]


def _same_partition(a, b):
    pairs = np.unique(np.column_stack([a, b]), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


@settings(max_examples=40, deadline=None)
@given(pair=_PAIRS, seed=st.integers(0, 2**32 - 1))
def test_each_layer_is_one_round_of_colour_refinement(pair, seed):
    g1, g2 = pair
    rounds = [np.concatenate(r) for r in zip(*_refine_joint([g1, g2], 1))]
    width = int(g1.degrees().max()) + 1
    rng = np.random.default_rng(seed)
    W, U, w_self = rng.standard_normal((3, width, width)) * 0.7 / np.sqrt(width)
    agg = SeqAggregator.elman(W, U, rng.standard_normal(width) * 0.1, activation="tanh")
    xs = [_degree_onehot(g, width, False) for g in (g1, g2)]
    for t in range(len(rounds) + 1):
        # features before layer t+1 against round t+1 (round 0 is all one colour)
        joint = np.unique(np.vstack(xs), axis=0, return_inverse=True)[1].ravel()
        assert _same_partition(joint, rounds[min(t + 1, len(rounds) - 1)]), t
        xs = [_layer(g, x, agg, w_self) for g, x in zip((g1, g2), xs)]
