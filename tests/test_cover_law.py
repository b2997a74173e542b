"""The exact law of the covering time at small n, and the sampler against it.

Every ordering of n labels seats n−1 pairs (its neighbours; arcs u→v when
directed).  For a set S of pairs let q(S) be the share of the n! orderings
that seat no pair of S.  Orderings are drawn independently, so inclusion–
exclusion over the pairs still missing after s draws gives

    Pr(T > s) = Σ_{∅≠S} (−1)^{|S|+1} q(S)^s,   E[T] = Σ_{∅≠S} (−1)^{|S|+1} / (1 − q(S)).

q(S) for every S comes from one subset-sum (zeta) transform over the pair
sets the orderings seat (Björklund, Husfeldt, Kaski and Koivisto, "Fourier
meets Möbius: fast subset convolution", STOC 2007).  Grouping the sum by the
value of q(S) leaves at most n! terms, so the law is exact in `Fraction`.
Restricting S to the subsets of a set U gives the law of the time to seat
every pair of U, which is what the sampler's tail phase draws.

The law is checked against a second route, a Markov chain over covered pair
sets, and then the sampler's histogram against the law by a chi-square test
at fixed seeds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ringcover import coupon_sim
from ringcover.coupon_sim import (
    MAX_SIMULATED_N,
    kcoupon_expectation,
    sample_cover_times,
    simulate_cover_complete,
)


def all_pairs(n: int, directed: bool) -> list[tuple[int, int]]:
    if directed:
        return list(itertools.permutations(range(n), 2))
    return list(itertools.combinations(range(n), 2))


def seat_masks(n: int, directed: bool, pairs: list[tuple[int, int]]) -> list[int]:
    """For each of the n! orderings, the bitmask over ``pairs`` it seats."""
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    masks = []
    for order in itertools.permutations(range(n)):
        mask = 0
        for a, b in zip(order, order[1:]):
            mask |= bit.get((a, b) if directed else (min(a, b), max(a, b)), 0)
        masks.append(mask)
    return masks


def law_terms(masks: list[int], width: int) -> dict[int, int]:
    """{j: c_j} with q(S) = j/N and c_j = Σ_{S≠∅, q(S)=j/N} (−1)^{|S|+1},
    over the subsets S of the ``width`` pairs the masks index."""
    size = 1 << width
    inside = np.bincount(np.array(masks, dtype=np.int64), minlength=size)
    for b in range(width):  # zeta: inside[X] = #orderings whose mask ⊆ X
        view = inside.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    subsets = np.arange(size)
    avoid = inside[(size - 1) ^ subsets]  # #orderings seating no pair of S
    odd = np.zeros(size, dtype=np.int64)
    for b in range(width):
        odd ^= (subsets >> b) & 1
    sign = 2 * odd - 1  # (−1)^{|S|+1}
    j, c = np.unique(avoid[1:], return_inverse=True)
    coeff = np.bincount(c, weights=sign[1:]).astype(np.int64)
    return {int(a): int(b) for a, b in zip(j, coeff) if b}


class CoverLaw:
    """The exact law of the time until every pair of ``pairs`` is seated."""

    def __init__(self, n: int, directed: bool, pairs: list[tuple[int, int]] | None = None):
        pairs = all_pairs(n, directed) if pairs is None else pairs
        masks = seat_masks(n, directed, pairs)
        self.total = len(masks)
        self.terms = law_terms(masks, len(pairs))

    def mean(self) -> Fraction:
        return sum((Fraction(c * self.total, self.total - j) for j, c in self.terms.items()),
                   Fraction(0))

    def survival(self, s: int) -> Fraction:
        return sum((c * Fraction(j, self.total) ** s for j, c in self.terms.items()),
                   Fraction(0))


def chain_mean_and_survival(n: int, directed: bool, horizon: int) -> tuple[Fraction, list[Fraction]]:
    """Second route: the Markov chain whose state is the set of pairs covered
    so far.  The mean is the hitting time of the full set, solved from the
    fullest states down; the survival Pr(T > s), s < horizon, comes from
    pushing the state distribution forward one draw at a time."""
    pairs = all_pairs(n, directed)
    full = (1 << len(pairs)) - 1
    seats: dict[int, int] = {}
    for mask in seat_masks(n, directed, pairs):
        seats[mask] = seats.get(mask, 0) + 1
    total = math.factorial(n)

    hit: dict[int, Fraction] = {full: Fraction(0)}

    def expected(state: int) -> Fraction:
        if state not in hit:
            stay = sum(c for m, c in seats.items() if m | state == state)
            moves = sum((c * expected(state | m) for m, c in seats.items()
                         if m | state != state), Fraction(0))
            hit[state] = (total + moves) / (total - stay)
        return hit[state]

    survival = []
    dist = {0: 1}  # state -> number of draw sequences, out of total^s
    for s in range(horizon):
        survival.append(1 - Fraction(dist.get(full, 0), total ** s))
        step: dict[int, int] = {}
        for state, ways in dist.items():
            for m, c in seats.items():
                step[state | m] = step.get(state | m, 0) + ways * c
        dist = step
    return expected(0), survival


def chi_square_p(observed: np.ndarray, expected: np.ndarray) -> float:
    """Upper tail of Pearson's statistic, by the Wilson–Hilferty cube-root
    normal approximation of the chi-square law."""
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = len(observed) - 1
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


def histogram_p(times: np.ndarray, law: CoverLaw, min_expected: float = 20.0) -> float:
    """Chi-square p-value of the observed times against ``law``, with
    neighbouring values pooled until each bin expects ``min_expected``."""
    trials = len(times)
    top = int(times.max()) + 1
    survival = [float(law.survival(s)) for s in range(top + 1)]
    probs = [survival[s - 1] - survival[s] for s in range(1, top + 1)]
    counts = np.bincount(times, minlength=top + 1)[1:]
    observed, expected = [], []
    acc_o = acc_e = 0.0
    for s in range(top):
        acc_o += counts[s]
        acc_e += probs[s] * trials
        if acc_e >= min_expected:
            observed.append(acc_o)
            expected.append(acc_e)
            acc_o = acc_e = 0.0
    observed[-1] += acc_o  # the leftover tail, then everything beyond the top
    expected[-1] += acc_e + survival[top] * trials
    return chi_square_p(np.array(observed), np.array(expected))


# --- the exact law and its second routes ----------------------------------------


def test_exact_means_at_small_n():
    assert CoverLaw(2, False).mean() == 1
    assert CoverLaw(2, True).mean() == 3  # one of two arcs per draw
    assert CoverLaw(3, False).mean() == Fraction(5, 2)
    assert CoverLaw(4, False).mean() == Fraction(461, 110)
    assert CoverLaw(5, False).mean() == Fraction(312289765, 48996486)


def test_n3_equals_the_kcoupon_value():
    # each ordering of 3 labels seats a uniform 2-subset of the 3 pairs
    assert CoverLaw(3, False).mean() == Fraction(kcoupon_expectation(3, 2))


@pytest.mark.parametrize("n,directed", [(3, False), (4, False), (5, False), (3, True), (4, True)])
def test_law_matches_the_markov_chain(n, directed):
    law = CoverLaw(n, directed)
    mean, survival = chain_mean_and_survival(n, directed, horizon=12)
    assert law.mean() == mean
    assert [law.survival(s) for s in range(12)] == survival


def test_subset_law_of_a_single_pair_is_geometric():
    # a given pair of n labels is seated by 2(n−1)!/n! = 2/n of the orderings
    law = CoverLaw(6, False, [(1, 4)])
    assert law.mean() == 3
    assert law.survival(5) == Fraction(2, 3) ** 5


# --- the sampler against the law --------------------------------------------------

#: p-value below which a histogram is rejected, fixed before any run
ALPHA = 1e-3


@pytest.mark.parametrize("n,directed,seed", [(4, False, 41), (5, False, 51), (6, False, 61),
                                             (3, True, 31), (4, True, 42)])
def test_sampled_histogram_follows_the_exact_law(n, directed, seed):
    trials = 20_000
    times = sample_cover_times(n, directed, trials, seed)
    assert histogram_p(times, CoverLaw(n, directed)) > ALPHA
    res = simulate_cover_complete(n, directed, trials, seed)
    assert res.mean_cover_time == times.mean()
    assert res.whole_orderings + res.tail_orderings >= times.sum()
    if n >= 4:  # below n = 4 no state leaves at most n/4 pairs uncovered
        assert res.tail_orderings > 0


@pytest.mark.parametrize("n,directed,pairs,block", [
    (8, False, [(0, 1), (1, 2), (0, 2)], 3),
    (7, False, [(0, 1), (2, 3), (4, 6), (1, 5)], 5),
    (6, True, [(0, 1), (1, 0), (1, 2)], 4),
    (5, True, [(0, 4), (3, 2)], 16),
])
def test_tail_phase_follows_the_exact_subset_law(n, directed, pairs, block):
    law = CoverLaw(n, directed, pairs)
    pu = np.array([p[0] for p in pairs])
    pv = np.array([p[1] for p in pairs])
    pos = np.empty((n, block), dtype=np.int32)
    trials = 20_000
    times = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        rng = np.random.default_rng((n, t))
        times[t], drawn = coupon_sim._tail_phase(n, directed, rng, pu, pv, pos)
        assert drawn % block == 0 and drawn - block < times[t] <= drawn
    assert histogram_p(times, law) > ALPHA
    assert abs(times.mean() - float(law.mean())) < 4 * times.std() / math.sqrt(trials)


@pytest.mark.parametrize("n,rows,seed", [(4, 24_000, 4), (5, 48_000, 5)])
def test_shuffled_rows_are_uniform_over_all_orderings(n, rows, seed):
    # 48k rows of 5 labels span two key chunks
    block = np.empty((rows, n), dtype=np.int32)
    coupon_sim._shuffle_rows(np.random.default_rng(seed), block, coupon_sim._key_labels(n))
    code = block.astype(np.int64) @ n ** np.arange(n)
    index = {sum(p * n**i for i, p in enumerate(order)): j
             for j, order in enumerate(itertools.permutations(range(n)))}
    assert set(np.unique(code).tolist()) <= index.keys()
    counts = np.bincount([index[c] for c in code.tolist()], minlength=len(index))
    assert chi_square_p(counts, np.full(len(index), rows / len(index))) > ALPHA


class ScriptedBits:
    """A stand-in generator whose ``bit_generator.random_raw`` returns the
    given words, one fresh array per call as numpy's does (the caller keys
    it in place), and records the sizes asked for."""

    def __init__(self, *words: np.ndarray):
        self.words = list(words)
        self.sizes: list[int] = []
        self.bit_generator = self

    def random_raw(self, size: int) -> np.ndarray:
        self.sizes.append(size)
        return self.words.pop(0).view(np.uint64).copy()


def test_a_row_with_tied_keys_is_redrawn():
    def keys(*high):  # random parts above the two label bits, junk below
        return (np.array(high, dtype=np.uint32) << 2) | 3

    # row 0 ties its labels 0 and 3, whose low bits differ in every place;
    # kept as drawn it would read [2, 0, 3, 1]
    bits = ScriptedBits(keys(5, 7, 1, 5, 4, 3, 2, 1), keys(4, 2, 1, 3))
    block = np.empty((2, 4), dtype=np.int32)
    coupon_sim._shuffle_rows(bits, block, coupon_sim._key_labels(4))
    assert bits.sizes == [4, 2] and not bits.words
    assert block.tolist() == [[2, 1, 3, 0], [3, 2, 1, 0]]


@pytest.mark.parametrize("n,rows", [(1024, 3), (1025, 300), (MAX_SIMULATED_N, 5)])
def test_every_shuffled_row_is_an_ordering(n, rows):
    labels = coupon_sim._key_labels(n)
    assert labels.dtype == (np.uint32 if n <= 1024 else np.uint64)
    block = np.empty((rows, n), dtype=np.int32)
    coupon_sim._shuffle_rows(np.random.default_rng(n), block, labels)
    assert (np.sort(block, axis=1) == np.arange(n)).all()


def test_a_trial_above_the_uint32_keys():
    # n = 1100 keys its orderings in uint64 words; T is at least m/(n−1)
    times = sample_cover_times(1100, False, 1, seed=3)
    assert 550 <= times[0] < 4 * 550 * math.log(1100 * 1099 // 2)
    assert times.tolist() == sample_cover_times(1100, False, 1, seed=3).tolist()


def test_trial_does_not_depend_on_the_trials_before_it():
    # any partition of the trial range gives the same numbers
    for n, directed in [(5, False), (40, False), (12, True)]:
        times = sample_cover_times(n, directed, 8, seed=7)
        alone = [coupon_sim._cover_times(n, directed, 7, range(t, t + 1))[0][0]
                 for t in range(8)]
        assert alone == times.tolist()


def test_batched_first_blocks_equal_trials_run_alone(monkeypatch):
    # n = 2..33 spans both routes, and the switch at a batch width of 2
    # (undirected n = 26 | 27, directed n = 18 | 19); a zero budget runs
    # every trial alone, first block included
    ranges = [range(40), range(5, 9), range(37, 38)]
    cases = [(n, directed, trials) for n in range(2, 34) for directed in (False, True)
             for trials in ranges]
    batched = [coupon_sim._cover_times(n, directed, 3, trials) for n, directed, trials in cases]
    monkeypatch.setattr(coupon_sim, "BATCH_KEY_BUDGET", 0)
    for (n, directed, trials), (times, whole, tail) in zip(cases, batched):
        alone, whole_alone, tail_alone = coupon_sim._cover_times(n, directed, 3, trials)
        assert times.tolist() == alone.tolist(), (n, directed, trials)
        assert (whole, tail) == (whole_alone, tail_alone), (n, directed, trials)


def test_batched_first_blocks_redraw_a_tied_row_as_alone(monkeypatch):
    def keys(*high):  # three labels: random parts above two label bits
        return (np.array(high, dtype=np.uint32) << 2) | 3

    order = {(0, 1, 2): (1, 2, 3), (1, 2, 0): (3, 1, 2), (2, 0, 1): (2, 3, 1)}
    tie = (5, 9, 5)  # labels 0 and 2 tie

    def block(*rows):
        return np.concatenate([keys(*(tie if r is None else order[r])) for r in rows])

    # n = 3 draws blocks of 8 and then 16 orderings.  Trial 0 ties its first
    # row, which is redrawn to 1 2 0; with 0 1 2 at row 5 it is covered at 6.
    # Trial 1 seats 0 1 2 alone for a whole block and 2 0 1 at row 3 after it.
    words = [
        (block(None, *[(1, 2, 0)] * 4, (0, 1, 2), *[(1, 2, 0)] * 2), keys(3, 1, 2, 0)),
        (block(*[(0, 1, 2)] * 8), block(*[(0, 1, 2)] * 3, (2, 0, 1), *[(0, 1, 2)] * 12)),
    ]
    runs = {}
    for budget in (coupon_sim.BATCH_KEY_BUDGET, 0):
        monkeypatch.setattr(coupon_sim, "BATCH_KEY_BUDGET", budget)
        stubs = [ScriptedBits(*w) for w in words]
        monkeypatch.setattr(np.random, "default_rng", lambda key: stubs[key[1]])
        times, whole, tail = coupon_sim._cover_times(3, False, 0, range(2))
        assert not any(stub.words for stub in stubs)
        runs[budget] = times.tolist(), whole, tail, [stub.sizes for stub in stubs]
    assert runs[0] == runs[coupon_sim.BATCH_KEY_BUDGET]
    assert runs[0] == ([6, 12], 8 + 24, 0, [[12, 2], [12, 24]])
