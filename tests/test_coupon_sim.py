"""Covering-time expectations and the permutation-draw simulator.

Two independent closed-form routes (alternating-sign sum and tail sum) are
cross-checked against each other, tiny cases against hand arithmetic, and the
simulator against the closed forms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ringcover.coupon_sim import (
    coupon_expectation_classic,
    kcoupon_expectation,
    pg_cover_count,
    sample_cover_times,
    savings_ratio,
    simulate_cover_complete,
)
from ringcover.perm_group import arrangements, coverage_report, generate_group, sigma


def test_classic_expectation_is_m_times_harmonic():
    for m in range(1, 12):
        h = sum(1 / i for i in range(1, m + 1))
        assert coupon_expectation_classic(m) == pytest.approx(m * h, rel=1e-15)
    assert coupon_expectation_classic(1) == 1.0


def test_kcoupon_hand_values():
    # draw 1 of 2 each round: geometric warm-up, E = 1 + 2 = 3
    assert kcoupon_expectation(2, 1) == 3.0
    # draw 2 of 3: miss one specific coupon with prob 1/3 per round
    assert kcoupon_expectation(3, 2) == 2.5
    # drawing everything at once always finishes in one round
    for m in (1, 2, 7, 40):
        assert kcoupon_expectation(m, m) == 1.0


def test_kcoupon_reduces_to_classic():
    for m in (2, 3, 5, 8, 13):
        assert kcoupon_expectation(m, 1) == pytest.approx(
            coupon_expectation_classic(m), rel=1e-12
        )


def test_kcoupon_validates():
    with pytest.raises(ValueError):
        kcoupon_expectation(3, 0)
    with pytest.raises(ValueError):
        kcoupon_expectation(3, 4)


def test_kcoupon_routes_agree():
    # both methods apply when k is large enough for the tail bound
    for m, k in [(300, 60), (500, 45), (1000, 120), (2500, 2499)]:
        a = kcoupon_expectation(m, k, method="alternating")
        t = kcoupon_expectation(m, k, method="tail")
        assert a == pytest.approx(t, rel=1e-10), (m, k)


def test_kcoupon_huge_m_uses_tail():
    # n=1000 covering problem: m = C(1000,2), k = 999
    m, k = 1000 * 999 // 2, 999
    val = kcoupon_expectation(m, k)
    # (m/k)(ln m + gamma) is the right scale
    scale = m / k * (math.log(m) + 0.5772156649)
    assert 0.9 * scale < val < 1.1 * scale


def test_kcoupon_monotone_in_k():
    vals = [kcoupon_expectation(50, k) for k in (1, 2, 5, 10, 25, 50)]
    assert vals == sorted(vals, reverse=True)


# --- the simulator ----------------------------------------------------------


def test_single_pair_graph_always_covers_in_one():
    res = simulate_cover_complete(2, directed=False, trials=50, seed=0)
    assert res.mean_cover_time == 1.0
    assert res.stddev == 0.0


def test_directed_two_nodes_matches_kcoupon():
    # each drawn ordering contributes one of the two arcs, uniformly
    res = simulate_cover_complete(2, directed=True, trials=4000, seed=1)
    assert res.mean_cover_time == pytest.approx(3.0, rel=0.08)


def test_sample_cover_times_deterministic():
    a = sample_cover_times(12, directed=False, trials=40, seed=9)
    b = sample_cover_times(12, directed=False, trials=40, seed=9)
    assert (a == b).all()


def test_trials_are_independent_of_batching():
    # trial t is seeded as (seed, t), so a longer run must extend a short one
    short = sample_cover_times(10, directed=False, trials=15, seed=3)
    long = sample_cover_times(10, directed=False, trials=45, seed=3)
    assert (long[:15] == short).all()


def test_simulated_mean_tracks_closed_form():
    for n in (5, 8, 12):
        res = simulate_cover_complete(n, directed=False, trials=3000, seed=n)
        expect = kcoupon_expectation(n * (n - 1) // 2, n - 1)
        assert res.mean_cover_time == pytest.approx(expect, rel=0.06), n


def test_directed_simulation_tracks_closed_form():
    res = simulate_cover_complete(6, directed=True, trials=3000, seed=2)
    expect = kcoupon_expectation(6 * 5, 5)
    assert res.mean_cover_time == pytest.approx(expect, rel=0.06)


def test_cover_time_lower_bound():
    times = sample_cover_times(9, directed=False, trials=200, seed=4)
    assert times.min() >= math.ceil((9 - 1) / 2)


def test_result_serialization():
    res = simulate_cover_complete(5, directed=False, trials=10, seed=0)
    d = res.to_json_dict()
    assert d["n"] == 5 and d["trials"] == 10 and not d["directed"]
    assert isinstance(d["mean_cover_time"], float)


def test_work_counters_stay_out_of_the_json():
    res = simulate_cover_complete(30, directed=False, trials=20, seed=3)
    assert res.whole_orderings > 0 and res.tail_orderings > 0
    assert res.whole_orderings + res.tail_orderings >= res.mean_cover_time * 20
    assert "whole_orderings" not in res.to_json_dict()
    assert "tail_orderings" not in res.to_json_dict()


def test_pair_ids_must_fit_in_int32():
    with pytest.raises(ValueError, match="46340"):
        sample_cover_times(46341, directed=False, trials=1, seed=0)


# --- structured-order comparison --------------------------------------------


def test_pg_cover_count_undirected_matches_coverage_report():
    for n in range(2, 24):
        arrs = arrangements(generate_group(sigma(n)))
        rep = coverage_report(arrs, n)
        assert pg_cover_count(n, directed=False) == rep.all_pairs_covered_after()


def test_pg_cover_count_directed_is_the_group_size():
    assert pg_cover_count(1, directed=True) == 1
    assert pg_cover_count(2, directed=True) == 2
    assert pg_cover_count(6, directed=True) == 6
    assert pg_cover_count(7, directed=True) == 6
    assert pg_cover_count(100, directed=True) == 100


def test_savings_ratio_small_n():
    # n=10: random draws need ~22 rounds, the structured family needs 5
    ratio = savings_ratio(10, trials=600, seed=5)
    assert 3.3 <= ratio <= 5.7


def test_savings_ratio_requires_enough_nodes():
    with pytest.raises(ValueError):
        savings_ratio(3, trials=10, seed=0)
