"""Color refinement on nodes and tuples.

The interesting pinned facts: refinement never distinguishes isomorphic
graphs, regular graphs stay monochrome at k=1, and the SRG(16,6,2,2) twins
survive every affordable k.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringcover.graph_core import (
    Graph,
    from_edge_list,
    gen_complete,
    gen_cycle,
    gen_erdos_renyi,
    gen_rooks_4x4,
    gen_shrikhande,
    gen_star,
)
from ringcover.wl import (
    DEFAULT_TUPLE_BUDGET,
    _joint_histograms,
    kwl_refine,
    wl1_refine,
    wl_compare,
    wl_distinguish,
)


def _two_triangles():
    return from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def test_star_vs_path_k1():
    star = gen_star(3)  # one degree-3 hub
    path = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert wl_distinguish(star, path, k=1)


def test_regular_graph_is_monochrome_at_k1():
    for g in (gen_complete(6), gen_cycle(9), gen_rooks_4x4()):
        hist = wl1_refine(g)
        assert hist.class_counts[-1] == 1


def test_star_stabilizes_at_two_classes():
    hist = wl1_refine(gen_star(5))
    assert hist.class_counts[-1] == 2


def test_two_triangles_vs_hexagon():
    c6 = gen_cycle(6)
    tt = _two_triangles()
    # both 2-regular: degree refinement is blind, and so is the pair version
    assert not wl_distinguish(tt, c6, k=1)
    assert not wl_distinguish(tt, c6, k=2)
    # triples see the triangles
    assert wl_distinguish(tt, c6, k=3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_srg_twins_survive(k):
    assert not wl_distinguish(gen_rooks_4x4(), gen_shrikhande(), k=k)


@pytest.mark.parametrize("k", [1, 2])
def test_relabeling_never_distinguishes(k):
    rng = np.random.default_rng(4)
    for seed in range(6):
        g = gen_erdos_renyi(9, 0.4, seed)
        order = rng.permutation(9).tolist()
        assert not wl_distinguish(g, g.relabel(order), k=k)


def test_different_degree_multisets_always_separate():
    g1 = gen_erdos_renyi(9, 0.4, seed=1)
    g2 = gen_erdos_renyi(9, 0.4, seed=2)
    if sorted(g1.degrees().tolist()) != sorted(g2.degrees().tolist()):
        assert wl_distinguish(g1, g2, k=1)
    else:  # pragma: no cover - depends on the seeds above
        pytest.skip("seeds happen to share a degree multiset")


def test_class_counts_never_decrease():
    for g in (gen_erdos_renyi(12, 0.3, seed=3), gen_rooks_4x4(), gen_star(4)):
        for k in (1, 2):
            counts = kwl_refine(g, k).class_counts
            assert list(counts) == sorted(counts)


def test_histogram_shape():
    hist = kwl_refine(gen_complete(4), 2)
    assert hist.k == 2
    # 16 ordered pairs, K4 stable from round 0: class 0 holds the 12 adjacent
    # pairs and class 1 the 4 diagonal ones (ids follow the sorted atomic rows)
    assert hist.iterations[-1] == {0: 12, 1: 4}
    d = hist.to_json_dict()
    assert d["k"] == 2
    assert d["class_counts"] == list(hist.class_counts)
    assert sum(d["final_histogram"].values()) == 16


def test_budget_guard():
    with pytest.raises(ValueError):
        kwl_refine(gen_erdos_renyi(21, 0.2, seed=0), 3)  # 21^3 > 8000
    assert DEFAULT_TUPLE_BUDGET == 8000


def test_node_count_mismatch_is_an_error():
    with pytest.raises(ValueError):
        wl_distinguish(gen_complete(4), gen_complete(5), k=1)


def test_k3_sees_what_k1_cannot():
    # C4 + K3 vs C7: both 2-regular with 7 edges, so colour refinement (and
    # its k=2 equal) stays monochrome; only the triangle-aware level tells
    # the lone K3 apart from the cycle
    g1 = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)])
    g2 = gen_cycle(7)
    assert not wl_distinguish(g1, g2, k=1)
    assert not wl_distinguish(g1, g2, k=2)
    assert wl_distinguish(g1, g2, k=3)


@st.composite
def _pairs(draw):
    """k, then two graphs on the same node count, each directed or not."""
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, {1: 12, 2: 9, 3: 6}[k]))
    out = []
    for _ in range(2):
        directed = draw(st.booleans())
        p = draw(st.sampled_from([0.0, 0.2, 0.4, 0.7, 1.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        adj = rng.random((n, n)) < p
        if not directed:
            adj = np.triu(adj, 1)
            adj = adj | adj.T
        np.fill_diagonal(adj, False)
        out.append(Graph(adj, directed=directed))
    return k, out[0], out[1]


@settings(max_examples=150, deadline=None)
@given(_pairs())
def test_compare_counts_equal_solo_refinement(case):
    # the joint run goes on until both graphs are stable; cut where each
    # graph's own run stops, its counts are the solo counts
    k, g1, g2 = case
    verdict, counts_a, counts_b = wl_compare(g1, g2, k)
    assert verdict == wl_distinguish(g1, g2, k)
    assert counts_a == kwl_refine(g1, k).class_counts
    assert counts_b == kwl_refine(g2, k).class_counts


@settings(max_examples=100, deadline=None)
@given(_pairs())
@example((1, gen_cycle(6), gen_cycle(6)))
@example((2, gen_cycle(6), gen_cycle(6)))
@example((3, gen_cycle(6), gen_cycle(6)))
def test_undirected_graph_is_its_directed_twin_at_every_k(case):
    # the verdict reads the arcs, not the directed flag
    k, g, _ = case
    g = Graph(g.adjacency | g.adjacency.T)
    counts = kwl_refine(g, k).class_counts
    assert wl_compare(g, Graph(g.adjacency, directed=True), k) == (False, counts, counts)


def test_compare_cuts_the_graph_that_stabilises_first():
    star, path = gen_star(3), from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    verdict, counts_star, counts_path = wl_compare(star, path, 1)
    assert verdict
    assert counts_star == (1, 2, 2) == kwl_refine(star, 1).class_counts
    assert counts_path == kwl_refine(path, 1).class_counts
    joint_star, _ = _joint_histograms([star, path], 1)
    assert joint_star.class_counts == (1, 2, 2, 2)  # the joint run went on
