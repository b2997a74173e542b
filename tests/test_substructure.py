"""Per-node counts checked against exhaustive enumeration and trace identities."""

from __future__ import annotations

import numpy as np
import pytest

from ringcover.graph_core import (
    from_edge_list,
    gen_complete,
    gen_erdos_renyi,
    gen_random_regular,
    gen_rooks_4x4,
    gen_shrikhande,
    gen_star,
)
from ringcover.substructure import (
    BRUTE_FORCE_BUDGET,
    _require_exact_in_float64,
    brute_force_incidence_4cliques,
    brute_force_incidence_triangles,
    clustering_coefficients,
    incidence_4cliques,
    incidence_triangles,
    incidence_triangles_directed,
    incidence_wedges,
    total_triangles,
)

PAW = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def test_k4_every_node_in_three_triangles():
    assert incidence_triangles(gen_complete(4)).counts.tolist() == [3, 3, 3, 3]


def test_paw_counts():
    assert incidence_triangles(PAW).counts.tolist() == [1, 1, 1, 0]
    assert incidence_4cliques(PAW).counts.tolist() == [0, 0, 0, 0]


def test_star_has_nothing():
    s = gen_star(7)
    assert incidence_triangles(s).total == 0
    assert total_triangles(s) == 0


def test_empty_graph_zeros():
    g = from_edge_list(5, [])
    assert incidence_triangles(g).counts.tolist() == [0] * 5
    assert brute_force_incidence_triangles(g).counts.tolist() == [0] * 5


def test_rooks_vs_shrikhande_4cliques():
    # identical degree/triangle statistics, but only the rook's graph
    # contains 4-cliques (its rows and columns)
    rook, shri = gen_rooks_4x4(), gen_shrikhande()
    assert incidence_triangles(rook).counts.tolist() == incidence_triangles(shri).counts.tolist()
    assert incidence_4cliques(rook).counts.tolist() == [2] * 16
    assert incidence_4cliques(shri).counts.tolist() == [0] * 16


@pytest.mark.parametrize("seed", range(30))
def test_matrix_route_matches_brute_force_er(seed):
    g = gen_erdos_renyi(10, 0.3, seed)
    assert (incidence_triangles(g).counts == brute_force_incidence_triangles(g).counts).all()
    assert (incidence_4cliques(g).counts == brute_force_incidence_4cliques(g).counts).all()


@pytest.mark.parametrize("n,d", [(10, 6), (15, 6), (20, 5), (30, 5)])
def test_matrix_route_matches_brute_force_regular(n, d):
    for seed in range(5):
        g = gen_random_regular(n, d, seed)
        assert (incidence_triangles(g).counts == brute_force_incidence_triangles(g).counts).all()


def test_trace_identity_undirected():
    for seed in range(20):
        g = gen_erdos_renyi(16, 0.35, seed)
        a = g.adjacency.astype(np.int64)
        tr_a3 = int(np.trace(a @ a @ a))
        tau = incidence_triangles(g)
        assert tau.total == tr_a3 // 2
        assert total_triangles(g) * 6 == tr_a3


def test_trace_identity_directed():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        mat = rng.random((n, n)) < 0.4
        np.fill_diagonal(mat, False)
        arcs = [(int(i), int(j)) for i, j in zip(*np.nonzero(mat))]
        g = from_edge_list(n, arcs, directed=True)
        a = g.adjacency.astype(np.int64)
        assert incidence_triangles_directed(g).total == int(np.trace(a @ a @ a))


def test_directed_rejects_undirected_input():
    with pytest.raises(ValueError):
        incidence_triangles_directed(gen_complete(4))
    with pytest.raises(ValueError):
        incidence_triangles(from_edge_list(3, [(0, 1)], directed=True))


def test_wedges_complement_triangles():
    for seed in (1, 2, 3):
        g = gen_erdos_renyi(15, 0.4, seed)
        tau = incidence_triangles(g).counts
        wedges = incidence_wedges(g).counts
        d = g.degrees()
        assert (wedges + tau == d * (d - 1) // 2).all()


def test_clustering_identity():
    for seed in range(10):
        g = gen_erdos_renyi(14, 0.35, seed)
        c = clustering_coefficients(g)
        tau = incidence_triangles(g).counts
        d = g.degrees().astype(float)
        np.testing.assert_allclose(c * d * (d - 1) / 2.0, tau, atol=1e-12)


def test_clustering_is_zero_for_low_degree():
    g = from_edge_list(3, [(0, 1)])
    assert clustering_coefficients(g).tolist() == [0.0, 0.0, 0.0]


def test_brute_force_budget_guard():
    big = gen_erdos_renyi(BRUTE_FORCE_BUDGET + 1, 0.01, seed=0)
    with pytest.raises(ValueError):
        brute_force_incidence_triangles(big)


def test_count_vector_api():
    cv = incidence_triangles(gen_complete(5))
    assert cv.kind == "triangle"
    assert len(cv) == 5
    assert cv[2] == 6
    assert cv.total == 30


def test_float64_exactness_bound():
    # 208063³ < 2⁵³ <= 208064³; no graph of that size is built
    for n in (1, 2000, 208062, 208063):
        _require_exact_in_float64(n)
    for n in (208064, 208065, 10**6):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            _require_exact_in_float64(n)
