"""Coupon-collector mathematics and covering simulations for complete graphs.

Two questions live here.  First, the k-coupon collector: drawing a uniform
k-subset of m coupons per round, how many rounds until every coupon has
appeared?  The closed form is the inclusion–exclusion sum

    E[X] = Σ_{i=1..m} (−1)^{i+1} · C(m,i) / (1 − C(m−i,k)/C(m,k)),

whose terms reach astronomical magnitudes while the result stays near
(m/k)·ln m — naive floating point dies long before the m ≈ 5·10⁵ needed for
1000-node sweeps.  Terms are therefore evaluated in exact scaled-integer
arithmetic, and for very large m the expectation is instead accumulated as
Σ_s Pr(X > s) over the narrow window of s where the survival probability is
neither 1 nor 0 (outside it, negative association of the per-coupon events
bounds Pr(X ≤ s) ≤ exp(−m·q₁ˢ), certifying the plateau).

Second, the simulation: each round draws a uniform random ordering of n nodes
and its n−1 consecutive pairs are added as edges (or arcs) of K_n; the count
of rounds until full coverage is the covering time.  Those draws are
correlated within a round, so the k-coupon value with k = n−1 is only a
numerically-supported stand-in, which is exactly how it is treated by the
consistency checks.

A trial runs in two phases.  It draws whole orderings in blocks, with pair
ids ``u·n + v`` in int32 (hence n ≤ 46340) and one coverage count per block,
until a block boundary leaves at most n/4 pairs uncovered.  A whole ordering
is drawn by sorting random keys that carry the labels in their low bits,
redrawing a row whose random bits tie; the keys of a kept row are
exchangeable, so its ordering is uniform (`_shuffle_rows` gives the
argument), at ~7 µs per ordering at n = 1000.  From then on the trial draws
only the positions of the labels those pairs touch, which is exact in
distribution (`_cover_time_one` gives the argument) and costs a few µs per
ordering.  Trial t is seeded as ``(seed, t)``, and every buffer it reads is
reset or overwritten first, so it depends on nothing else.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .perm_group import sigma_group_order

__all__ = [
    "SimulationResult",
    "coupon_expectation_classic",
    "kcoupon_expectation",
    "sample_cover_times",
    "simulate_cover_complete",
    "pg_cover_count",
    "savings_ratio",
]

#: Above this m the alternating closed form switches to the tail-sum route.
ALTERNATING_LIMIT = 3000

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class SimulationResult:
    n: int
    directed: bool
    trials: int
    mean_cover_time: float
    stddev: float
    seed: int
    #: work counters, summed over the trials: orderings shuffled whole, and
    #: orderings of which only the tail phase's labels were placed.  Both
    #: count every row drawn, so they add up to at least the trials' total
    #: covering time.
    whole_orderings: int
    tail_orderings: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "directed": self.directed,
            "trials": self.trials,
            "mean_cover_time": self.mean_cover_time,
            "stddev": self.stddev,
            "seed": self.seed,
        }


def coupon_expectation_classic(m: int) -> float:
    """Classic single-coupon expectation ``m · H(m)``."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return m * math.fsum(1.0 / i for i in range(1, m + 1))


# ---------------------------------------------------------------------------
# k-coupon closed form
# ---------------------------------------------------------------------------


def _kcoupon_alternating(m: int, k: int) -> float:
    """Exact evaluation of the alternating sum in scaled integers.

    Every term is an integer-rational; with the scale set beyond the largest
    binomial the floor divisions lose less than one part in 10²⁰ combined.
    """
    digits = len(str(math.comb(m, m // 2))) + 25
    scale = 10 ** digits
    cmk = math.comb(m, k)
    acc = 0
    cmi = 1  # C(m, i), updated incrementally
    cmik = math.comb(m - 1, k)  # C(m-i, k), updated incrementally
    for i in range(1, m + 1):
        cmi = cmi * (m - i + 1) // i
        term = cmi * cmk * scale // (cmk - cmik)
        acc += term if i % 2 == 1 else -term
        # advance C(m-i, k) -> C(m-i-1, k); zero once the top index drops below k
        top = m - i - 1
        cmik = cmik * (top - k + 1) // (top + 1) if top >= k else 0
    return float(Fraction(acc, scale))


def _kcoupon_tail_sum(m: int, k: int) -> float:
    """E[X] = Σ_{s≥0} Pr(X > s), evaluated only where it is informative.

    For s with m·q₁ˢ ≥ 40, negative association of the "coupon i still
    missing" indicators gives Pr(X ≤ s) ≤ (1−q₁ˢ)^m ≤ exp(−m·q₁ˢ) ≤ 1e−17,
    so Pr(X > s) is taken as 1.  Past m·q₁ˢ ≤ 1e−18 the union bound kills the
    survival probability and the remaining mass (≤ 1e−18·m/k draws) is
    dropped.  In between, the inclusion–exclusion survival series is summed
    in 190-bit fixed point with per-s incremental updates of the powers.
    """
    shift = 190
    cmk = math.comb(m, k)
    log_q1 = math.log(m - k) - math.log(m)  # q1 = (m-k)/m

    s_low = 0
    if m * math.exp(log_q1) >= 40.0:  # otherwise even s=1 is in the window
        s_low = int(math.floor(math.log(m / 40.0) / -log_q1))
        s_low = max(s_low, 0)

    # choose how many series terms matter: b_i(s) ≤ λ^i / i! with λ = m q1^s ≤ 40·q1⁻¹-ish
    lam = m * math.exp(log_q1 * (s_low + 1))
    lam = max(lam, 1e-30)
    i_max = 1
    log_term = math.log(lam)
    log_bound = log_term
    while log_bound > math.log(1e-30) and i_max < min(m, 500):
        i_max += 1
        log_bound += math.log(lam) - math.log(i_max)
    i_max = min(max(i_max + 8, 8), m)

    # per-draw miss ratios q_i = C(m−i,k)/C(m,k) and whole terms
    # P_i = C(m,i)·q_i^{s_start}, all scaled by 2^shift.  The term is always
    # assembled from a 60-digit decimal power, whose precision is relative
    # (or from an exact rational floor when s_start = 1), so that a huge
    # C(m,i) never amplifies a fixed-point flooring error.
    s_start = s_low + 1
    unit = 1 << shift
    q_scaled: list[int] = []
    powers: list[int] = []
    cmi = 1
    cmik = cmk
    with localcontext() as ctx:
        ctx.prec = 60
        for i in range(1, i_max + 1):
            cmi = cmi * (m - i + 1) // i
            cmik = cmik * (m - i + 1 - k) // (m - i + 1) if m - i + 1 > k else 0
            if cmik == 0:
                break  # q_i = 0: this and every later term vanish identically
            q_scaled.append((cmik << shift) // cmk)
            if s_start == 1:
                powers.append((cmi * cmik << shift) // cmk)
            else:
                powers.append(int(cmi * (Decimal(cmik) / cmk) ** s_start * unit))

    total_scaled = 0
    survival_cut = unit // 10**19  # truncate once Pr(X>s) is below 1e-19
    while True:
        while powers and powers[-1] == 0:  # dead terms stay dead
            powers.pop()
            q_scaled.pop()
        survival = 0
        for i, p in enumerate(powers, start=1):
            survival += p if i % 2 == 1 else -p
        if survival <= survival_cut:
            break
        survival = min(survival, unit)  # clamp fixed-point jitter at Pr ≤ 1
        total_scaled += survival
        for idx, q in enumerate(q_scaled):
            powers[idx] = (powers[idx] * q) >> shift
    return (s_low + 1) + float(Fraction(total_scaled, unit))


def kcoupon_expectation(m: int, k: int, method: str = "auto") -> float:
    """Expected draws of uniform k-subsets until all m coupons are seen.

    ``method`` is ``"auto"`` (alternating sum up to m = 3000, tail-sum
    beyond), or explicitly ``"alternating"`` / ``"tail"`` — the two routes are
    independent and exist to cross-check each other.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (1 <= k <= m):
        raise ValueError(f"k must lie in 1..m, got k={k}, m={m}")
    if k == m:
        return 1.0
    if method == "auto":
        method = "alternating" if m <= ALTERNATING_LIMIT else "tail"
    if method == "alternating":
        return _kcoupon_alternating(m, k)
    if method == "tail":
        return _kcoupon_tail_sum(m, k)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# covering simulation
# ---------------------------------------------------------------------------

#: Above this n the pair id ``u·n + v`` no longer fits in int32.
MAX_SIMULATED_N = 46340

_NO_ROWS = np.empty(0, dtype=np.intp)


def _tail_phase(n: int, directed: bool, rng: np.random.Generator,
                pu: np.ndarray, pv: np.ndarray, pos: np.ndarray) -> tuple[int, int]:
    """Orderings drawn until every pair ``(pu[i], pv[i])`` has been seated,
    and the rows drawn to find out (the last block runs past that point).

    Only the positions of the k labels that the pairs touch are drawn: a
    partial Fisher–Yates over the first k slots of each column of ``pos``,
    an ``(n, block)`` buffer that is reset here so that the draws depend on
    ``rng`` alone.  The swap partner of slot i is uniform on [i, n): drawn
    uniform on [0, n) and redrawn while below i, which keeps it exact and
    takes few redraws while k ≤ n/2.  A pair is seated when its labels sit
    next to each other (u directly before v when directed).  Pairs seated
    in a block are dropped, and the labels with them, at the block boundary.
    """
    block = pos.shape[1]
    pos[:] = np.arange(n, dtype=pos.dtype)[:, None]
    flat = pos.reshape(-1)
    col = np.arange(block)
    slot = np.empty(n, dtype=np.intp)
    draws = 0
    while True:
        touched = np.zeros(n, dtype=bool)
        touched[pu] = touched[pv] = True
        k = np.count_nonzero(touched)
        slot[touched] = np.arange(k)
        swap = rng.integers(0, n, size=(k, block))
        slots, cols = np.nonzero(swap < np.arange(k)[:, None])
        while slots.size:
            swap[slots, cols] = rng.integers(0, n, size=slots.size)
            still = swap[slots, cols] < slots
            slots, cols = slots[still], cols[still]
        swap *= block
        swap += col
        for i, src in enumerate(swap):
            chosen = flat[src]
            flat[src] = pos[i]
            pos[i] = chosen
        gap = pos[slot[pv]] - pos[slot[pu]]
        seated = gap == 1 if directed else np.abs(gap) == 1
        hit = seated.any(axis=1)
        if hit.all():
            return draws + int(seated.argmax(axis=1).max()) + 1, draws + block
        pu, pv = pu[~hit], pv[~hit]
        draws += block


def _key_labels(n: int) -> np.ndarray:
    """The labels 0 … n−1 in the word that `_shuffle_rows` keys them in:
    uint32 up to n = 1024, uint64 above."""
    return np.arange(n, dtype=np.uint32 if n <= 1024 else np.uint64)


def _shuffle_rows(rng: np.random.Generator, rows: np.ndarray, labels: np.ndarray) -> None:
    """Overwrite every row of ``rows``, an ``(r, n)`` int block, with an
    independent uniform ordering of 0 … n−1; ``labels`` is `_key_labels(n)`.

    Each label gets a key: iid random bits in the high part of a word and
    the label itself in the low ⌈log₂ n⌉ bits.  Sorting a row of keys sorts
    its labels by their random bits, and a mask reads the labels back.  A
    row in which two keys share their random bits is redrawn with fresh
    bits.

    Why this is exact: the random parts of a kept row are iid and
    conditioned on being distinct, so they are exchangeable, and every
    order of them, hence of the labels, is equally likely.  Whether a row
    is kept depends on its own bits alone, so the rows stay iid.  With
    uint32 words up to n = 1024 the keys have at least 22 random bits, and
    about 11% of rows are redrawn at n = 1000; with uint64 words above they
    have at least 48 up to `MAX_SIMULATED_N`, so a redraw is rare.  The
    block is keyed in chunks of about 2¹⁷ labels, which keeps the keys
    small beside the block.
    """
    n = len(labels)
    mask = labels.dtype.type((1 << (n - 1).bit_length()) - 1)
    raw = rng.bit_generator.random_raw
    step = max(1, 2**17 // n)
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        chunk[:], redo = _keyed_orderings(raw, len(chunk), labels, mask)
        while redo.size:
            chunk[redo], tied = _keyed_orderings(raw, redo.size, labels, mask)
            redo = redo[tied]


def _keyed_orderings(raw: Callable[[int], np.ndarray], count: int, labels: np.ndarray,
                     mask: np.integer) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows of ``labels``, each sorted by fresh random keys drawn
    from ``raw``, and the indices of the rows in which two keys tied."""
    n = len(labels)
    keys = raw(-(-count * n * labels.itemsize // 8)).view(labels.dtype)
    keys = keys[: count * n].reshape(count, n)
    keys &= ~mask
    keys |= labels
    keys.sort(axis=1)
    # keys with equal random bits sort next to each other; one count over
    # the block comes first, as at small n a tie is rare
    close = (keys[:, 1:] ^ keys[:, :-1]) <= mask
    tied = np.flatnonzero(close.any(axis=1)) if np.count_nonzero(close) else _NO_ROWS
    keys &= mask
    return keys, tied


def _rows_to_cover(ids: np.ndarray, covered: np.ndarray) -> int:
    """Fewest leading rows of ``ids`` whose pairs complete ``covered``, which
    all rows together do; bisection, so the rows are scattered about once."""
    lo, hi = 0, len(ids)  # rows[:lo] leave a pair uncovered, rows[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = covered.copy()
        trial[ids[lo:mid]] = True
        if np.count_nonzero(trial) == trial.size:
            hi = mid
        else:
            lo, covered = mid, trial
    return hi


def _cover_time_one(n: int, directed: bool, rng: np.random.Generator,
                    perm_buf: np.ndarray, ids_buf: np.ndarray, first_block: int,
                    next_block: int, covered: np.ndarray, blank: np.ndarray,
                    labels: np.ndarray) -> tuple[int, int, int]:
    """Covering time of one trial, with the rows drawn whole and the rows
    drawn in the tail phase.

    ``covered`` is indexed by pair id ``u·n + v`` and starts as ``blank``,
    which marks the ids that name no pair as covered already, so the trial
    is done when every entry is set.  Whole orderings are shuffled, one
    block at a time, until a block boundary leaves at most n/4 pairs
    uncovered; those pairs touch at most n/2 labels K, and from then on
    `_tail_phase` draws only the positions of K.

    Why the tail phase leaves the law of T unchanged:

    - The orderings are iid uniform (`_shuffle_rows` argues this for the
      sorted keys of the whole phase).  The switch is decided at a block
      boundary from the orderings drawn so far, so it is a stopping time,
      and the orderings after it are still iid uniform and independent of
      those before it.
    - After the switch, T depends on an ordering only through which of the
      uncovered pairs it seats.  Both ends of each such pair lie in K, so
      that is a function of the positions of K alone.
    - Restricted to K, a uniform permutation of n labels is a uniform
      injection K → {0, …, n−1}.  A partial Fisher–Yates over |K| slots
      draws exactly that, from any arrangement fixed before its draws.
    - Shrinking K at a block boundary is the same argument again, and rows
      of the last block past the covering ordering are never looked at.
    """
    np.copyto(covered, blank)
    uncovered = n * (n - 1) if directed else n * (n - 1) // 2
    draws = 0
    block = first_block
    while 4 * uncovered > n:
        rows = perm_buf[:block]
        _shuffle_rows(rng, rows, labels)
        a, b = rows[:, :-1], rows[:, 1:]
        ids = ids_buf[:block]
        if directed:
            np.multiply(a, n, out=ids)
        else:  # min·n + max = min·(n−1) + a + b
            np.minimum(a, b, out=ids)
            ids *= n - 1
            ids += a
        ids += b
        snapshot = covered.copy()
        covered[ids] = True
        left = covered.size - np.count_nonzero(covered)
        if left == 0:
            return draws + _rows_to_cover(ids, snapshot), draws + block, 0
        uncovered = left
        draws += block
        block = next_block
    pu, pv = np.divmod(np.flatnonzero(~covered), n)
    pos = perm_buf.reshape(-1)[: n * next_block].reshape(n, next_block)
    extra, tail = _tail_phase(n, directed, rng, pu, pv, pos)
    return draws + extra, draws, tail


def _blank_coverage(n: int, directed: bool) -> np.ndarray:
    """Pair-id table with every id that names no pair marked covered: the
    diagonal, and for unordered pairs also every id u·n + v with u > v."""
    grid = np.eye(n, dtype=bool)
    if not directed:
        grid |= np.tri(n, k=-1, dtype=bool)
    return grid.reshape(-1)


def _cover_times(n: int, directed: bool, seed: int,
                 trial_ids: range) -> tuple[np.ndarray, int, int]:
    """Covering times of the trials ``trial_ids``, with the orderings drawn
    whole and in the tail summed over them.  Trial t is seeded as
    ``(seed, t)`` and starts from reset buffers."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_SIMULATED_N:
        raise ValueError(f"n must be at most {MAX_SIMULATED_N}, got {n}")
    if len(trial_ids) < 1:
        raise ValueError("trials must be at least 1")
    m = n * (n - 1) // 2 if not directed else n * (n - 1)
    expected = (m / (n - 1)) * (math.log(m) + _EULER_GAMMA)
    first_block = max(8, min(int(expected * 0.9) + 4, max(4_000_000 // n, 64)))
    next_block = max(16, int(expected * 0.15) + 4)
    perm_buf = np.empty((max(first_block, next_block), n), dtype=np.int32)
    ids_buf = np.empty((perm_buf.shape[0], n - 1), dtype=np.int32)
    blank = _blank_coverage(n, directed)
    covered = np.empty_like(blank)
    labels = _key_labels(n)
    times = np.empty(len(trial_ids), dtype=np.int64)
    whole = tail = 0
    for i, t in enumerate(trial_ids):
        rng = np.random.default_rng((seed, t))
        times[i], w, d = _cover_time_one(n, directed, rng, perm_buf, ids_buf,
                                         first_block, next_block, covered, blank, labels)
        whole += w
        tail += d
    return times, whole, tail


def sample_cover_times(n: int, directed: bool, trials: int, seed: int) -> np.ndarray:
    """Covering times for all trials.  Trial ``t`` depends only on
    ``(seed, t)``, so any partition of the trial range reproduces the same
    numbers — reductions over them are order-insensitive by construction."""
    return _cover_times(n, directed, seed, range(trials))[0]


def simulate_cover_complete(n: int, directed: bool, trials: int, seed: int) -> SimulationResult:
    """Monte-Carlo covering of K_n by random node orderings.

    Each trial counts how many orderings were drawn before the union of their
    consecutive pairs (arcs when directed) covers every pair of nodes.
    """
    times, whole, tail = _cover_times(n, directed, seed, range(trials))
    mean = float(times.mean())
    stddev = float(times.std(ddof=1)) if trials > 1 else 0.0
    return SimulationResult(
        n=n,
        directed=directed,
        trials=trials,
        mean_cover_time=mean,
        stddev=stddev,
        seed=seed,
        whole_orderings=whole,
        tail_orderings=tail,
    )


def pg_cover_count(n: int, directed: bool) -> int:
    """Arrangements the cyclic-group construction spends on full coverage:
    ``⌊n/2⌋`` rings for unordered pairs (1 for n ≤ 3), and the whole group
    (:func:`~ringcover.perm_group.sigma_group_order`) for ordered pairs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sigma_group_order(n) if directed else max(1, n // 2)


def savings_ratio(n: int, trials: int, seed: int) -> float:
    """How many times more draws random orderings need than the group does,
    on the undirected covering problem."""
    if n < 4:
        raise ValueError("savings_ratio needs n >= 4")
    sim = simulate_cover_complete(n, directed=False, trials=trials, seed=seed)
    return sim.mean_cover_time / pg_cover_count(n, directed=False)
