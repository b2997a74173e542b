"""Graph container, parsing round-trips, and the built-in generators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcover.graph_core import (
    Graph,
    add_artificial_apex,
    from_edge_list,
    gen_complete,
    gen_cycle,
    gen_erdos_renyi,
    gen_random_regular,
    gen_rooks_4x4,
    gen_shrikhande,
    gen_star,
    induced_closed_neighborhood,
    parse_edge_list_text,
    format_edge_list_text,
)


def test_basic_accessors():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert g.node_count == 4
    assert not g.directed
    assert g.edge_count == 4
    assert g.neighbors(2) == (0, 1, 3)
    assert g.degree(0) == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 3)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3)]


@pytest.mark.parametrize("bad", [-1, 4, 99])
def test_node_ids_outside_the_graph_are_rejected(bad):
    # a negative id must not wrap around to the last node
    g = gen_star(3)
    with pytest.raises(ValueError, match="out of range"):
        g.degree(bad)
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(bad)
    with pytest.raises(ValueError, match="out of range"):
        g.has_edge(0, bad)


def test_directed_edges_are_one_way():
    g = from_edge_list(3, [(0, 1), (1, 2)], directed=True)
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert g.degree(0) == 1  # out-degree
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize("bad", [(0, 0), (0, 5), (-1, 2)])
def test_invalid_edges_rejected(bad):
    with pytest.raises(ValueError):
        from_edge_list(4, [bad])


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph(np.ones((3, 3), dtype=bool))  # self-loops on diagonal
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        Graph(asym)  # undirected requires symmetry
    Graph(asym, directed=True)  # but fine one-way


def test_relabel_is_an_isomorphism():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    order = [3, 0, 4, 1, 2]
    h = g.relabel(order)
    pos = {old: new for new, old in enumerate(order)}
    for u, v in itertools.combinations(range(5), 2):
        assert g.has_edge(u, v) == h.has_edge(pos[u], pos[v])
    assert h.edge_count == g.edge_count


# --- text format ----------------------------------------------------------


def test_parse_header_and_comments():
    text = "# a remark\n3 2 u\n0 1\n1 2\n"
    g = parse_edge_list_text(text)
    assert g.node_count == 3 and g.edge_count == 2 and not g.directed


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        parse_edge_list_text("3 2 u\n0 1\n")


edge_lists = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=20,
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(edge_lists, st.booleans())
def test_text_roundtrip(spec, directed):
    n, edges = spec
    g = from_edge_list(n, edges, directed=directed)
    assert parse_edge_list_text(format_edge_list_text(g)) == g


# --- neighborhoods --------------------------------------------------------


def test_closed_neighborhood_of_triangle_node():
    # paw: triangle 0-1-2 with pendant 3 hanging off node 0
    g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    nb = induced_closed_neighborhood(g, 1)
    assert nb.local_to_global == (1, 0, 2)
    assert nb.center == 0
    assert nb.subgraph.edge_count == 3  # the triangle, pendant excluded


def test_closed_neighborhood_center_sees_everyone():
    g = gen_erdos_renyi(14, 0.35, seed=9)
    for v in range(14):
        if g.degree(v) == 0:
            continue
        nb = induced_closed_neighborhood(g, v)
        assert nb.subgraph.degree(nb.center) == nb.subgraph.node_count - 1


def test_apex_attaches_to_all():
    g = gen_star(4)
    nb = induced_closed_neighborhood(g, 0)
    aug = add_artificial_apex(nb)
    apex = aug.subgraph.node_count - 1
    assert aug.subgraph.node_count == nb.subgraph.node_count + 1
    assert aug.subgraph.degree(apex) == nb.subgraph.node_count
    assert aug.local_to_global[apex] == -1  # sentinel: not a real node
    assert aug.center == nb.center


# --- generators -----------------------------------------------------------


def test_complete_and_star_and_cycle_shapes():
    k5 = gen_complete(5)
    assert k5.edge_count == 10 and all(k5.degree(v) == 4 for v in range(5))
    s6 = gen_star(6)
    assert s6.node_count == 7 and s6.degree(0) == 6
    assert all(s6.degree(v) == 1 for v in range(1, 7))
    c8 = gen_cycle(8)
    assert c8.edge_count == 8 and all(c8.degree(v) == 2 for v in range(8))


def test_er_seeded_and_plausible():
    a = gen_erdos_renyi(30, 0.3, seed=5)
    b = gen_erdos_renyi(30, 0.3, seed=5)
    c = gen_erdos_renyi(30, 0.3, seed=6)
    assert a == b
    assert a != c
    # 435 candidate edges at p=0.3: expect ~130, allow a wide berth
    assert 60 <= a.edge_count <= 220


def test_random_regular_degrees():
    for n, d, seed in [(10, 6, 0), (15, 6, 1), (20, 5, 2), (30, 5, 3)]:
        g = gen_random_regular(n, d, seed)
        assert (g.degrees() == d).all(), (n, d)


def test_random_regular_k4_is_forced():
    assert gen_random_regular(4, 3, seed=11) == gen_complete(4)


def test_random_regular_rejects_odd_sum():
    with pytest.raises(ValueError):
        gen_random_regular(5, 3, seed=0)


def _common_neighbor_profile(g):
    adj = g.adjacency.astype(np.int64)
    common = adj @ adj
    lam = {common[u, v] for u, v in g.edges()}
    mu = {
        common[u, v]
        for u in range(g.node_count)
        for v in range(u + 1, g.node_count)
        if not g.has_edge(u, v)
    }
    return lam, mu


@pytest.mark.parametrize("make", [gen_rooks_4x4, gen_shrikhande])
def test_srg_16_6_2_2_parameters(make):
    g = make()
    assert g.node_count == 16
    assert (g.degrees() == 6).all()
    lam, mu = _common_neighbor_profile(g)
    assert lam == {2} and mu == {2}


def _board_rule(adjacent) -> np.ndarray:
    """16 x 16 adjacency of the 4 x 4 board, node ``4x + y``, by a pair rule."""
    return np.array([[a != b and adjacent(divmod(a, 4), divmod(b, 4)) for b in range(16)]
                     for a in range(16)])


def test_rook_and_shrikhande_follow_their_rules():
    # the generators build both as Cayley graphs on Z4 x Z4; rebuild them
    # pair by pair from the rules that define them
    rook = _board_rule(lambda a, b: a[0] == b[0] or a[1] == b[1])
    shri_diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shri = _board_rule(lambda a, b: ((b[0] - a[0]) % 4, (b[1] - a[1]) % 4) in shri_diffs)
    assert np.array_equal(gen_rooks_4x4().adjacency, rook)
    assert np.array_equal(gen_shrikhande().adjacency, shri)


def test_the_two_srgs_are_not_isomorphic_by_local_structure():
    # Shrikhande's neighborhoods are 6-cycles; Rook's split into two triangles.
    rook = gen_rooks_4x4()
    shri = gen_shrikhande()

    def nb_edge_count(g, v):
        return induced_closed_neighborhood(g, v).subgraph.edge_count - g.degree(v)

    assert {nb_edge_count(rook, v) for v in range(16)} == {6}
    assert {nb_edge_count(shri, v) for v in range(16)} == {6}
    # same local edge counts -- telling them apart is the 4-clique/WL tests' job
