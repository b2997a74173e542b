"""The batched and BLAS routes against the loops they replaced.

The library stacks every ring of the group into one array and folds or
tallies them together, counts substructures with float64 matrix products,
and reduces a recorded walk path with numpy.  The reference functions below
are the earlier implementations, kept here as oracles:

* coverage must come out equal, dict by dict in the same insertion order,
  and aggregation equal to ``rtol=1e-12`` (the batched fold adds the same
  terms in another order);
* the counts equal the int64 matrix powers exactly;
* the walk estimate equals the step-by-step running sums field for field,
  on neighbour lists equal to the per-node `Graph.neighbors` queries, and
  so does every walk of a batch run over one walk graph;
* colour refinement gives the colours of the node loop (k = 1) and the tuple
  loop (k ≥ 2) round by round, ids included.
"""

from __future__ import annotations

import random
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcover import pg_aggregate
from ringcover.graph_core import (
    Graph,
    add_artificial_apex,
    from_edge_list,
    gen_complete,
    gen_erdos_renyi,
    gen_star,
    induced_closed_neighborhood,
)
from ringcover.perm_group import (
    Arrangement,
    CoverageReport,
    arrangements,
    coverage_report,
    generate_group,
    sigma,
)
from ringcover.pg_aggregate import (
    SeqAggregator,
    _layer,
    aggregate_node,
    aggregate_node_merged,
)
from ringcover.rw_estimator import (
    EstimateResult,
    WalkConfig,
    _neighbor_lists,
    estimate_incidence_triangles,
    estimate_walks,
)
from ringcover.substructure import (
    incidence_4cliques,
    incidence_triangles_directed,
    total_triangles,
)
from ringcover.wl import _atomic_tuple_colors, _intern_rows, _refine_joint

# ---------------------------------------------------------------------------
# reference routes
# ---------------------------------------------------------------------------


def reference_coverage_report(arrs, n: int) -> CoverageReport:
    """Ring-by-ring coverage tally."""
    mult = np.zeros((n + 1, n + 1), dtype=np.int64)
    covered = np.zeros((n + 1, n + 1), dtype=bool)  # unordered, indexed lo/hi
    covered_after = {}
    running = 0
    block = max((n - 1) // 2, 0)
    block_pair_sets = []
    for idx, arr in enumerate(arrs, start=1):
        pairs = arr.ordered_pairs()
        if pairs:
            a = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
            b = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
            np.add.at(mult, (a, b), 1)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            fresh = ~covered[lo, hi]
            running += len(set(zip(lo[fresh].tolist(), hi[fresh].tolist())))
            covered[lo, hi] = True
        covered_after[idx] = running
        if idx <= block:
            chain = pairs[:-1] if n % 2 == 0 else pairs
            block_pair_sets.append({(min(p), max(p)) for p in chain})

    disjoint = True
    seen = set()
    for s in block_pair_sets:
        if seen & s:
            disjoint = False
            break
        seen |= s
    rows, cols = np.nonzero(mult)
    multiplicity = {(int(i), int(j)): int(mult[i, j]) for i, j in zip(rows, cols)}
    return CoverageReport(n=n, unordered_pairs_covered_after=covered_after,
                          first_block_disjoint=disjoint,
                          ordered_pair_multiplicity=multiplicity)


def reference_run(p: dict, seq) -> np.ndarray:
    """One sequence, one step at a time, one matvec per step.

    ``p`` holds the mode and weights that :func:`_aggregator` drew.
    """
    if p["mode"] == "linear_recurrence":
        state = np.zeros_like(seq[0])
        for x in seq:
            state = p["alpha"] * state + x
        return state
    if p["mode"] == "elman":
        act = np.tanh if p["activation"] == "tanh" else (lambda z: z)
        y = np.zeros(p["W"].shape[0])
        for h in seq:
            y = act(p["U"] @ y + p["W"] @ h + p["b"])
        return y
    acc = np.zeros(p["W"].shape[0])
    for h in seq:
        acc = acc + p["W"] @ h
    return acc + p["b"]


def _reference_order(g, v, neighbor_order):
    return list(g.neighbors(v)) if neighbor_order is None else list(neighbor_order)


def reference_aggregate_node(g, v, feats, params, w_self, *, neighbor_order=None):
    """One run per group element, summed, plus the self term."""
    nbrs = _reference_order(g, v, neighbor_order)
    self_term = w_self @ feats[v]
    if not nbrs:
        return self_term
    n = len(nbrs)
    total = None
    for p in generate_group(sigma(n)):
        ring = [nbrs[p(t) - 1] for t in range(1, n + 1)]
        out = reference_run(params, [feats[u] for u in ring] + [feats[ring[0]]])
        total = out if total is None else total + out
    return total + self_term


def reference_aggregate_node_merged(g, v, feats, params, *, neighbor_order=None):
    """One run per group element with the centre at both ends, summed."""
    nbrs = _reference_order(g, v, neighbor_order)
    h_v = feats[v]
    if not nbrs:
        return reference_run(params, [h_v, h_v])
    n = len(nbrs)
    total = None
    for p in generate_group(sigma(n)):
        seq = [h_v] + [feats[nbrs[p(t) - 1]] for t in range(1, n + 1)] + [h_v]
        out = reference_run(params, seq)
        total = out if total is None else total + out
    return total


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _assert_same_report(got: CoverageReport, want: CoverageReport) -> None:
    assert got == want
    # equal dicts may still differ in insertion order, which JSON output shows
    assert list(got.unordered_pairs_covered_after.items()) == \
        list(want.unordered_pairs_covered_after.items())
    assert list(got.ordered_pair_multiplicity.items()) == \
        list(want.ordered_pair_multiplicity.items())


@pytest.mark.parametrize("n", range(1, 41))
def test_coverage_report_equals_ring_by_ring_tally(n):
    arrs = arrangements(generate_group(sigma(n)))
    _assert_same_report(coverage_report(arrs, n), reference_coverage_report(arrs, n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.permutations(list(range(1, n + 1))), max_size=12))))
def test_coverage_report_on_any_rings(case):
    # arbitrary rings, not only the group's: repeats, clashes in the leading
    # block and empty lists all go through both routes
    n, rings = case
    arrs = [Arrangement(ring=tuple(r)) for r in rings]
    _assert_same_report(coverage_report(arrs, n), reference_coverage_report(arrs, n))


def test_coverage_report_rejects_foreign_labels():
    with pytest.raises(ValueError):
        coverage_report([Arrangement(ring=(0, 1, 2))], 3)
    with pytest.raises(ValueError):
        coverage_report([Arrangement(ring=(1, 2))], 3)
    # labels in range, but one seated twice: its self-pair is no coverage
    with pytest.raises(ValueError):
        coverage_report([Arrangement(ring=(1, 1, 2))], 3)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _aggregator(mode: str, width: int,
                rng: np.random.Generator) -> tuple[SeqAggregator, dict]:
    """A random aggregator of the given mode, and the parameters it was built
    from (the input of :func:`reference_run`)."""
    scale = 0.5 / np.sqrt(width)
    if mode == "linear_recurrence":
        p = dict(mode=mode, alpha=rng.uniform(-1.0, 1.0))
        return SeqAggregator.linear_recurrence(alpha=p["alpha"]), p
    if mode == "gin_recovery":
        p = dict(mode=mode, W=rng.normal(size=(width, width)), b=rng.normal(size=width))
        return SeqAggregator.gin_recovery(W=p["W"], b=p["b"]), p
    p = dict(mode="elman", W=rng.normal(size=(width, width)) * scale,
             U=rng.normal(size=(width, width)) * scale,
             b=rng.normal(size=width) * 0.1, activation=mode.split("-")[1])
    return SeqAggregator.elman(W=p["W"], U=p["U"], b=p["b"],
                               activation=p["activation"]), p


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * max(1.0, float(np.abs(want).max())))


@settings(max_examples=300, deadline=None)
@given(degree=st.integers(0, 12),
       mode=st.sampled_from(["linear_recurrence", "gin_recovery",
                             "elman-identity", "elman-tanh"]),
       width=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_aggregation_equals_per_ring_loops(degree, mode, width, seed, data):
    rng = np.random.default_rng(seed)
    # the last node v has the drawn degree; the others carry random extra edges
    n = degree + 3
    v = n - 1
    extra = [(i, j) for i in range(v) for j in range(i + 1, v) if rng.random() < 0.3]
    g = from_edge_list(n, [(v, u) for u in range(degree)] + extra)
    feats = rng.normal(size=(n, width))
    agg, params = _aggregator(mode, width, rng)
    w_self = rng.normal(size=(width, width))
    order = data.draw(st.none() | st.permutations(list(g.neighbors(v))))

    _assert_close(aggregate_node(g, v, feats, agg, w_self, neighbor_order=order),
                  reference_aggregate_node(g, v, feats, params, w_self,
                                           neighbor_order=order))
    _assert_close(aggregate_node_merged(g, v, feats, agg, neighbor_order=order),
                  reference_aggregate_node_merged(g, v, feats, params,
                                                  neighbor_order=order))


def test_batched_fold_repeats_bit_for_bit():
    # the same inputs give the same bits however often, and in whatever
    # order, the calls are made
    rng = np.random.default_rng(5)
    g = from_edge_list(14, [(0, u) for u in range(1, 14)])
    feats = rng.normal(size=(14, 3))
    agg, _ = _aggregator("elman-tanh", 3, rng)
    w_self = rng.normal(size=(3, 3))
    first = aggregate_node(g, 0, feats, agg, w_self)
    for v in range(1, 14):
        aggregate_node_merged(g, v, feats, agg)
    again = aggregate_node(g, 0, feats, agg, w_self)
    assert first.tobytes() == again.tobytes()


@st.composite
def _layer_inputs(draw):
    """A graph with isolated, degree-1, degree-2 and mixed-degree nodes (fixed
    or random, either direction), and features whose rows often tie."""
    directed = draw(st.booleans())
    if draw(st.booleans()):  # isolated 5 and 6, pendants 0 and 4, degree 2 and 4
        n, edges = 7, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 1)]
        g = from_edge_list(n, edges + [(v, u) for u, v in edges] if directed else edges,
                           directed=directed)
    else:
        n = draw(st.integers(1, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        adj = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.15, 0.3, 0.6, 1.0]))
        if not directed:
            adj = np.triu(adj, 1) | np.triu(adj, 1).T
        np.fill_diagonal(adj, False)
        g = Graph(adj, directed=directed)
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, 2, size=(g.node_count, width)).astype(float)
    else:
        x = rng.normal(size=(g.node_count, width))
    mode = draw(st.sampled_from(["linear_recurrence", "gin_recovery",
                                 "elman-identity", "elman-tanh"]))
    agg, _ = _aggregator(mode, width, rng)
    return g, x, agg, rng.normal(size=(width, width))


@settings(max_examples=300, deadline=None)
@given(_layer_inputs())
def test_layer_equals_aggregate_node_per_node(case):
    # the layer seats each node's neighbours by their feature rows, ties by id:
    # here that order comes from sorting row tuples, node by node
    g, x, agg, w_self = case
    got = _layer(g, x, agg, w_self)
    assert got.shape == x.shape
    for v in range(g.node_count):
        order = sorted(g.neighbors(v), key=lambda u: tuple(x[u]))
        _assert_close(got[v], aggregate_node(g, v, x, agg, w_self, neighbor_order=order))


def test_layer_folds_a_degree_bucket_in_parts(monkeypatch):
    # K9 with 8-wide features: every bucket holds 9 nodes of degree 8; a cap
    # of 2000 features folds them 3 at a time (2000 // (8 * 8 * 8)), and the
    # parts must give what the whole bucket gives
    rng = np.random.default_rng(3)
    g, x = gen_complete(9), rng.normal(size=(9, 8))
    agg, _ = _aggregator("elman-tanh", 8, rng)
    w_self = rng.normal(size=(8, 8))
    whole = _layer(g, x, agg, w_self)
    monkeypatch.setattr(pg_aggregate, "_FOLD_FEATURES", 2000)
    _assert_close(_layer(g, x, agg, w_self), whole)


# ---------------------------------------------------------------------------
# exact counts: float64 BLAS against int64 matrix powers
# ---------------------------------------------------------------------------


def reference_total_triangles(g) -> int:
    a = g.adjacency.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def reference_incidence_triangles_directed(g) -> np.ndarray:
    a = g.adjacency.astype(np.int64)
    return ((a @ a) * a.T).sum(axis=1)


def reference_4cliques_at(g, v: int) -> int:
    """Triangles inside the neighbourhood of v, by an int64 cube."""
    nbrs = np.flatnonzero(g.adjacency[v])
    if nbrs.size < 3:
        return 0
    sub = g.adjacency[np.ix_(nbrs, nbrs)].astype(np.int64)
    return int(np.trace(sub @ sub @ sub)) // 6


@st.composite
def graphs(draw, directed: bool, max_nodes: int = 24, min_nodes: int = 1):
    n = draw(st.integers(min_nodes, max_nodes))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < p
    if not directed:
        adj = np.triu(adj, 1)
        adj = adj | adj.T
    np.fill_diagonal(adj, False)
    return Graph(adj, directed=directed)


@settings(max_examples=200, deadline=None)
@given(graphs(directed=False))
def test_undirected_counts_equal_int64_powers(g):
    assert total_triangles(g) == reference_total_triangles(g)
    want = [reference_4cliques_at(g, v) for v in range(g.node_count)]
    assert incidence_4cliques(g).counts.tolist() == want


@settings(max_examples=200, deadline=None)
@given(graphs(directed=True))
def test_directed_counts_equal_int64_powers(g):
    got = incidence_triangles_directed(g).counts
    assert got.dtype == np.int64
    assert got.tolist() == reference_incidence_triangles_directed(g).tolist()


def test_complete_graph_counts_at_n300():
    # every entry of A² is n−2, its largest for a simple graph
    n = 300
    g = gen_complete(n)
    assert total_triangles(g) == reference_total_triangles(g) == comb(n, 3)
    cliques = incidence_4cliques(g).counts
    assert (cliques == reference_4cliques_at(g, 0)).all()
    assert cliques[0] == comb(n - 1, 3)
    full = Graph(~np.eye(n, dtype=bool), directed=True)
    got = incidence_triangles_directed(full).counts
    assert got.tolist() == reference_incidence_triangles_directed(full).tolist()
    assert (got == (n - 1) * (n - 2)).all()


# ---------------------------------------------------------------------------
# the walk estimator: recorded path reduced with numpy against running sums
# ---------------------------------------------------------------------------


def reference_estimate(g, v: int, cfg: WalkConfig) -> EstimateResult:
    """One draw per step, both statistics summed as the walk goes."""
    d0 = g.degree(v)
    nb = induced_closed_neighborhood(g, v)
    internal_edges = nb.subgraph.edge_count - d0
    augment = cfg.augment if cfg.augment is not None else internal_edges == 0
    if augment:
        nb = add_artificial_apex(nb)
    walk_graph = nb.subgraph
    adj = walk_graph.adjacency
    nbrs = [walk_graph.neighbors(u) for u in range(walk_graph.node_count)]
    degrees = [len(x) for x in nbrs]
    center = nb.center
    center_degree = degrees[center]

    rng = random.Random(cfg.seed)
    if cfg.start_policy == "uniform":
        x = int(rng.random() * walk_graph.node_count)
    else:
        pick = rng.random() * sum(degrees)
        acc = 0.0
        x = walk_graph.node_count - 1
        for i, d in enumerate(degrees):
            acc += d
            if pick < acc:
                x = i
                break
    for _ in range(max(16, center_degree)):
        options = nbrs[x]
        x = options[int(rng.random() * len(options))]

    r = cfg.steps
    y1_sum = 0.0
    y2_sum = 0.0
    prev2 = prev1 = -1
    for k in range(1, r + 1):
        options = nbrs[x]
        x = options[int(rng.random() * len(options))]
        y2_sum += 1.0 / degrees[x]
        if k >= 3 and adj[prev2, x] and (prev1 == center or prev2 == center or x == center):
            y1_sum += degrees[prev1]
        prev2, prev1 = prev1, x

    y1 = y1_sum / (r - 2)
    y2 = y2_sum / r
    z0 = (center_degree + 1) / 6.0 * y1 / y2
    if augment:
        z0 -= d0
    return EstimateResult(z0=z0, y1=y1, y2=y2, steps_used=r, augmented=augment)


PAW = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
WALK_GRAPHS = [(PAW, 0), (PAW, 3), (gen_star(5), 0), (gen_complete(5), 1),
               (gen_erdos_renyi(40, 0.3, seed=4), 7)]


@pytest.mark.parametrize("g,v", WALK_GRAPHS)
@pytest.mark.parametrize("augment", [None, True, False])
@pytest.mark.parametrize("start_policy", ["uniform", "degree_proportional"])
@pytest.mark.parametrize("steps", [3, 4, 257])
def test_walk_estimate_equals_running_sums(g, v, augment, start_policy, steps):
    for seed in range(24):
        cfg = WalkConfig(steps=steps, seed=seed, augment=augment,
                         start_policy=start_policy)
        assert estimate_incidence_triangles(g, v, cfg) == reference_estimate(g, v, cfg)


@settings(max_examples=150, deadline=None)
@given(g=graphs(directed=False, max_nodes=16), data=st.data())
def test_walk_estimate_equals_running_sums_on_any_graph(g, data):
    live = np.flatnonzero(g.degrees())
    if live.size == 0:
        return
    v = int(data.draw(st.sampled_from(live.tolist())))
    cfg = WalkConfig(steps=data.draw(st.integers(3, 40) | st.integers(1000, 5000)),
                     seed=data.draw(st.integers(0, 2**32 - 1)),
                     augment=data.draw(st.sampled_from([None, True, False])),
                     start_policy=data.draw(st.sampled_from(["uniform",
                                                             "degree_proportional"])))
    # long sums of 1/d are where a pairwise reduction would differ in the last bits
    assert estimate_incidence_triangles(g, v, cfg) == reference_estimate(g, v, cfg)


@pytest.mark.parametrize("g,v", WALK_GRAPHS)
@pytest.mark.parametrize("augment", [None, True, False])
@pytest.mark.parametrize("start_policy", ["uniform", "degree_proportional"])
@pytest.mark.parametrize("steps,walks", [(3, 1), (4, 9), (300, 30), (5000, 2)])
def test_walk_batch_equals_one_walk_per_seed(g, v, augment, start_policy, steps, walks):
    # 30 walks of 300 steps are reduced in passes of 13, 13 and 4 walks, and
    # walks of 5000 steps one at a time
    cfg = WalkConfig(steps=steps, seed=11, augment=augment, start_policy=start_policy)
    expected = [reference_estimate(g, v, replace(cfg, seed=11 + i)) for i in range(walks)]
    assert estimate_walks(g, v, cfg, walks) == expected


def test_walk_batch_needs_a_walk():
    with pytest.raises(ValueError, match="walks must be at least 1"):
        estimate_walks(PAW, 0, WalkConfig(steps=10), 0)


@settings(max_examples=150, deadline=None)
@given(directed=st.booleans(), data=st.data())
def test_neighbor_lists_equal_the_per_node_queries(directed, data):
    g = data.draw(graphs(directed=directed))
    assert _neighbor_lists(g) == [g.neighbors(v) for v in range(g.node_count)]


# ---------------------------------------------------------------------------
# colour refinement: one interned loop against the node and tuple loops
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


@st.composite
def joint_runs(draw):
    """k, then 1–3 graphs, each directed or not, on node counts that differ
    only at k = 1."""
    k = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(1, 3))
    nodes = st.integers(1, {1: 14, 2: 8, 3: 5}[k])
    sizes = [draw(nodes) for _ in range(count)] if k == 1 else [draw(nodes)] * count
    return k, [draw(graphs(directed=draw(st.booleans()), min_nodes=n, max_nodes=n))
               for n in sizes]


@settings(max_examples=300, deadline=None)
@given(joint_runs())
def test_refinement_equals_the_node_and_tuple_loops(case):
    k, run = case
    # a directed graph in the run gives every graph its in-neighbour block;
    # the node loop gave it to directed graphs only, so it sees all as directed
    directed = any(g.directed for g in run)
    twins = [Graph(g.adjacency, directed=directed) for g in run]
    want = _refine_nodes_joint(twins) if k == 1 else _refine_tuples_joint(twins, k)
    got = _refine_joint(run, k)
    assert [[c.tolist() for c in rounds] for rounds in got] == \
        [[c.tolist() for c in rounds] for rounds in want]
