"""Permutations, the ring-visiting family, and its pair-coverage bookkeeping.

Frozen images below were worked out by hand from the construction rule
(even n: single cycle 1→3→5→…→n→…→4→2; odd n: same shape on 2..n with 1
fixed) before the implementation existed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcover.perm_group import (
    Arrangement,
    Permutation,
    act,
    arrangements,
    compose,
    coverage_report,
    generate_group,
    order,
    ring_powers,
    sigma,
    sigma_group_order,
)

FROZEN_SIGMA = {
    1: (1,),
    2: (2, 1),
    3: (1, 3, 2),
    4: (3, 1, 4, 2),
    5: (1, 4, 2, 5, 3),
    6: (3, 1, 5, 2, 6, 4),
    7: (1, 4, 2, 6, 3, 7, 5),
    8: (3, 1, 5, 2, 7, 4, 8, 6),
}


@pytest.mark.parametrize("n,image", sorted(FROZEN_SIGMA.items()))
def test_sigma_frozen_images(n, image):
    assert sigma(n).image == image


def test_sigma_squared_on_five_labels():
    s = sigma(5)
    assert compose(s, s).image == (1, 5, 4, 3, 2)


def test_identity_and_inverse():
    s = sigma(6)
    assert compose(s, s.inverse()).is_identity()
    assert compose(s.inverse(), s).is_identity()
    assert Permutation.identity(6)(4) == 4


def test_cycles_of_sigma7():
    s = sigma(7)
    assert s.cycles() == [(1,), (2, 4, 6, 7, 5, 3)]


@pytest.mark.parametrize("n", range(1, 41))
def test_group_order_law(n):
    want = 1 if n == 1 else (n if n % 2 == 0 else n - 1)
    assert sigma_group_order(n) == want
    assert len(generate_group(sigma(n)).elements) == want
    assert order(sigma(n)) == want


perms = st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


@settings(max_examples=200, deadline=None)
@given(perms)
def test_order_matches_brute_iteration(image):
    p = Permutation(tuple(image))
    k = order(p)
    q = p
    steps = 1
    while not q.is_identity():
        q = compose(p, q)
        steps += 1
    assert k == steps


@settings(max_examples=200, deadline=None)
@given(perms)
def test_ring_powers_are_the_powers_in_order(image):
    p = Permutation(tuple(image))
    q = Permutation.identity(len(image))
    for row in ring_powers(p).tolist():
        assert tuple(row) == q.image
        q = compose(p, q)
    assert q.is_identity()


@settings(max_examples=150, deadline=None)
@given(perms, st.data())
def test_action_axioms(image, data):
    n = len(image)
    p = Permutation(tuple(image))
    q = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    i = data.draw(st.integers(1, n))
    assert act(Permutation.identity(n), i) == i
    assert act(compose(p, q), i) == act(p, act(q, i))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 12])
def test_generated_group_is_closed_with_inverses(n):
    elems = set(generate_group(sigma(n)).elements)
    assert Permutation.identity(n) in elems
    for p in elems:
        assert p.inverse() in elems
        for q in elems:
            assert compose(p, q) in elems


@settings(max_examples=100, deadline=None)
@given(perms)
def test_group_stores_the_read_only_powers(image):
    g = Permutation(tuple(image))
    group = generate_group(g)
    assert np.array_equal(group.rings, ring_powers(g))
    assert not group.rings.flags.writeable
    with pytest.raises(ValueError):
        group.rings[0, 0] = 1
    want = tuple(Permutation(tuple(row)) for row in ring_powers(g).tolist())
    assert group.elements == want
    assert tuple(group) == want and len(group) == len(want)


def test_groups_compare_by_their_generator():
    a, b = generate_group(sigma(7)), generate_group(sigma(7))
    assert a.rings is not b.rings
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != generate_group(sigma(8))


def test_group_and_coverage_build_no_permutation(monkeypatch):
    g = sigma(12)
    built = []
    check = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__",
                        lambda self: (built.append(self.image), check(self)))
    group = generate_group(g)
    rep = coverage_report(arrangements(group), 12)
    assert built == []
    assert rep.all_pairs_covered_after() == 6
    # reading ``elements`` does build them, so the spy is live
    assert len(group.elements) == len(built) == 12


def test_order_is_lcm_of_cycle_lengths():
    p = Permutation((2, 1, 4, 5, 3, 7, 6))  # 2-cycle, 3-cycle, 2-cycle
    assert order(p) == math.lcm(2, 3, 2) == 6


# --- arrangements & coverage ----------------------------------------------


def test_arrangement_pairs_close_the_ring():
    arrs = arrangements(generate_group(sigma(4)))
    assert arrs[0].ring == (1, 2, 3, 4)  # the identity comes first
    assert arrs[1].ring == sigma(4).image
    assert set(arrs[1].ordered_pairs()) == {(3, 1), (1, 4), (4, 2), (2, 3)}


def test_coverage_n4_frozen():
    rep = coverage_report(arrangements(generate_group(sigma(4))), 4)
    assert rep.total_unordered_pairs == 6
    assert rep.unordered_pairs_covered_after[1] == 4
    assert rep.unordered_pairs_covered_after[2] == 6
    assert rep.first_block_disjoint
    doubles = {p for p, m in rep.ordered_pair_multiplicity.items() if m == 2}
    assert doubles == {(1, 4), (4, 1), (2, 3), (3, 2)}
    assert all(m in (1, 2) for m in rep.ordered_pair_multiplicity.values())


def test_coverage_n5_every_ordered_pair_once():
    rep = coverage_report(arrangements(generate_group(sigma(5))), 5)
    assert set(rep.ordered_pair_multiplicity.values()) == {1}
    assert len(rep.ordered_pair_multiplicity) == 5 * 4


@pytest.mark.parametrize("n", range(2, 30))
def test_coverage_law_small(n):
    arrs = arrangements(generate_group(sigma(n)))
    rep = coverage_report(arrs, n)
    assert rep.first_block_disjoint
    assert rep.all_pairs_covered_after() == max(1, n // 2)
    # the first block really is disjoint: recount by hand (for even n the
    # ring-closing pair sits outside the chain and is exempt)
    block = arrs[: (n - 1) // 2]
    seen = set()
    for a in block:
        chain = a.ordered_pairs()[:-1] if n % 2 == 0 else a.ordered_pairs()
        pairs = {frozenset(p) for p in chain}
        assert not (pairs & seen)
        seen |= pairs
    # and for even n the wrap pairs are exactly what gets duplicated: each one
    # reappears as a chain pair of some other arrangement in the full group
    if n % 2 == 0 and n >= 4:
        chain_pairs = {
            frozenset(p) for a in arrs for p in a.ordered_pairs()[:-1]
        }
        for a in arrs:
            assert frozenset(a.ordered_pairs()[-1]) in chain_pairs


@pytest.mark.parametrize("n", [3, 4, 7, 10, 13])
def test_rings_are_label_permutations(n):
    for a in arrangements(generate_group(sigma(n))):
        assert sorted(a.ring) == list(range(1, n + 1))
        assert len(a.ordered_pairs()) == n
        assert all(x != y for x, y in a.ordered_pairs())


def test_coverage_json_shape():
    rep = coverage_report(arrangements(generate_group(sigma(6))), 6)
    d = rep.to_json_dict()
    assert d["n"] == 6
    assert isinstance(d["ordered_pair_multiplicity"], dict)
    assert all("-" in key for key in d["ordered_pair_multiplicity"])


def test_permutation_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        Permutation((1.0, 2, 3))
    assert Permutation((np.int64(2), np.int32(1))).image == (2, 1)


def test_coverage_rejects_non_integer_labels():
    # a cast to int64 would truncate 1.7 and report the ring (1, 2, 3)
    with pytest.raises(ValueError, match="integers"):
        coverage_report([Arrangement(ring=(1.7, 2, 3))], 3)
