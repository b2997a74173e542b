"""Output checks for the benchmark workloads, and the reference routes they use.

Every check is a pure function that returns a list of problems (empty when
the output is right).  Each one tests an output of the program against a
second route written here, or against a property the method must have; none
compares a value with what it was computed from, reads the clock, or reads
state left by an earlier run.  ``test_checks.py`` feeds each check a
perturbed output and shows that it fails.

The statistical checks use bands wide enough that a correct program fails
them with negligible probability at any seed; README.md derives each band.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Relative tolerance for floating-point outputs that a second route
#: computes in a different order (sums over at most a few thousand terms).
REL_TOL = 1e-9

#: Half-width of the band for a mean, in standard errors.
MEAN_BAND_SE = 6.0

#: Half-width of the band for the walk estimate, in empirical standard
#: errors; wider than MEAN_BAND_SE because the standard error is itself
#: estimated from the walks (Student t with R-1 degrees of freedom).
WALK_BAND_SE = 8.0


def close(a, b, rel: float = REL_TOL) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * (1.0 + np.abs(b))))


# ---------------------------------------------------------------------------
# the ring shuffle, written from its definition
# ---------------------------------------------------------------------------


def sigma_image(n: int) -> np.ndarray:
    """The ring shuffle on labels 1..n as an array: ``image[i - 1]`` is where
    label i goes.

    Even n: one cycle through the odd labels ascending, then n, then the
    even labels descending.  Odd n: label 1 is fixed and the cycle runs
    through the even labels ascending, then n, then the odd labels down to 3.
    """
    image = np.arange(1, n + 1)
    if n >= 2:
        if n % 2 == 0:
            cycle = list(range(1, n, 2)) + [n] + list(range(n - 2, 1, -2))
        else:
            cycle = list(range(2, n, 2)) + [n] + list(range(n - 2, 2, -2))
        for here, there in zip(cycle, cycle[1:] + cycle[:1]):
            image[here - 1] = there
    return image


def ring_powers(n: int) -> np.ndarray:
    """All distinct powers of the shuffle as a (G, n) array of 1-based labels,
    identity first; row k is the ring that the k-th power seats."""
    g = sigma_image(n)
    rows = [np.arange(1, n + 1)]
    while True:
        nxt = g[rows[-1] - 1]
        if np.array_equal(nxt, rows[0]):
            return np.array(rows)
        rows.append(nxt)


def group_order(n: int) -> int:
    """Closed-form size of the shuffle's group: 1, n for even n, n-1 for odd."""
    return 1 if n == 1 else (n if n % 2 == 0 else n - 1)


# ---------------------------------------------------------------------------
# ring-layer
# ---------------------------------------------------------------------------


def coverage_problems(n: int, group_size: int, expected_size: int,
                      rings: list, report) -> list[str]:
    """The coverage law at ring size n, and the report recomputed from the rings.

    ``rings`` are the program's arrangements and ``report`` its coverage
    report of them.  The law: the group has the closed-form size, every
    unordered pair is covered after exactly floor(n/2) rings, the leading
    floor((n-1)/2) rings use disjoint pairs (even n: the closing hop left
    out), all n(n-1) ordered pairs occur, each exactly once when n is odd.
    """
    out = []
    tag = f"n={n}"
    if group_size != expected_size:
        out.append(f"{tag}: group size {group_size}, closed form {expected_size}")
    if report.all_pairs_covered_after() != n // 2:
        out.append(f"{tag}: all pairs covered after "
                   f"{report.all_pairs_covered_after()}, law says {n // 2}")
    if not report.first_block_disjoint:
        out.append(f"{tag}: leading block not disjoint")
    mult = report.ordered_pair_multiplicity
    every = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b}
    if set(mult) != every:
        out.append(f"{tag}: {len(every - set(mult))} ordered pairs never covered")
    if n % 2 == 1 and set(mult.values()) != {1}:
        out.append(f"{tag}: odd n but an ordered pair repeats")

    # second route: tally the same rings with numpy
    arr = np.asarray(rings, dtype=np.int64)
    a, b = arr, np.roll(arr, -1, axis=1)
    ids = a * (n + 1) + b
    counts = np.bincount(ids.ravel(), minlength=(n + 1) ** 2)
    tally = {(int(i) // (n + 1), int(i) % (n + 1)): int(counts[i])
             for i in np.flatnonzero(counts)}
    if tally != mult:
        out.append(f"{tag}: ordered pair multiplicity differs from a recount")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    seen: set = set()
    recount = {}
    for k in range(arr.shape[0]):
        seen.update(zip(lo[k].tolist(), hi[k].tolist()))
        recount[k + 1] = len(seen)
    if recount != dict(report.unordered_pairs_covered_after):
        out.append(f"{tag}: prefix coverage differs from a recount")
    pairs = []
    for row in arr[: (n - 1) // 2].tolist():
        hops = list(zip(row, row[1:])) + ([] if n % 2 == 0 else [(row[-1], row[0])])
        pairs += [frozenset(h) for h in hops]
    if len(set(pairs)) != len(pairs):
        out.append(f"{tag}: recount finds the leading block not disjoint")
    return out


def elman_fold(seqs: np.ndarray, W, U, b) -> np.ndarray:
    """tanh Elman cell from a zero state over a batch of sequences
    (batch, T, width); returns the final states (batch, out)."""
    y = np.zeros((seqs.shape[0], W.shape[0]))
    for t in range(seqs.shape[1]):
        y = np.tanh(y @ U.T + seqs[:, t] @ W.T + b)
    return y


def reference_aggregate(nbrs, feats, v: int, W, U, b, w_self=None,
                        merged: bool = False) -> np.ndarray:
    """Group-summed ring aggregation at v, from the definition.

    Each power of the shuffle seats the neighbours (ascending ids) on a ring,
    the ring is closed by repeating its first item (merged: wrapped by the
    centre at both ends instead), fed through the tanh cell, and the runs
    are summed; the plain form adds ``w_self @ h_v``.
    """
    nbrs = np.asarray(nbrs, dtype=np.int64)
    h_v = feats[v]
    if nbrs.size == 0:
        if merged:
            return elman_fold(np.stack([h_v, h_v])[None], W, U, b)[0]
        return w_self @ h_v
    rings = nbrs[ring_powers(nbrs.size) - 1]
    seats = feats[rings]
    if merged:
        ends = np.broadcast_to(h_v, (rings.shape[0], 1, h_v.size))
        seqs = np.concatenate([ends, seats, ends], axis=1)
        return elman_fold(seqs, W, U, b).sum(axis=0)
    seqs = np.concatenate([seats, seats[:, :1]], axis=1)
    return elman_fold(seqs, W, U, b).sum(axis=0) + w_self @ h_v


def gin_closed_form(nbrs, feats, v: int, W, b, w_self) -> np.ndarray:
    """Closed form of the group-summed gin_recovery layer at v.

    Every ring holds each neighbour once, so G rings contribute G·S (S the
    neighbour sum) plus the repeated first seats.  For even n the shuffle is
    one n-cycle, so over the group the first seat visits every neighbour
    once; for odd n label 1 is fixed and the first seat is always the first
    neighbour.  The bias is booked once per ring.
    """
    h_v = feats[v]
    if len(nbrs) == 0:
        return w_self @ h_v
    n = len(nbrs)
    G = group_order(n)
    S = feats[list(nbrs)].sum(axis=0)
    first = S if n % 2 == 0 else G * feats[nbrs[0]]
    return W @ (G * S + first) + G * b + w_self @ h_v


def k4_by_edges(adj: np.ndarray) -> int:
    """Number of 4-cliques, counted edge by edge: each edge sees the edges
    among its endpoints' common neighbours; a 4-clique is seen from each of
    its 6 edges, twice as an ordered pair."""
    adj = np.asarray(adj, dtype=bool)
    rows, cols = np.nonzero(np.triu(adj, k=1))
    total = 0
    for u, v in zip(rows.tolist(), cols.tolist()):
        common = np.flatnonzero(adj[u] & adj[v])
        if common.size >= 2:
            total += int(adj[np.ix_(common, common)].sum())
    return total // 12


def four_clique_problems(label: str, counts, k4: int) -> list[str]:
    """Each 4-clique is counted at its 4 nodes; ``k4`` comes from k4_by_edges."""
    total = int(np.sum(counts))
    if total != 4 * k4:
        return [f"{label}: sum of 4-clique counts {total} != 4 * {k4} edge-counted 4-cliques"]
    return []


# ---------------------------------------------------------------------------
# cover-time
# ---------------------------------------------------------------------------


def cover_bound(n: int, directed: bool) -> int:
    """Fewest orderings that can cover K_n: ceil(m / (n-1))."""
    m = n * (n - 1) if directed else n * (n - 1) // 2
    return -(-m // (n - 1))


def cover_times_problems(n: int, times) -> list[str]:
    """Undirected trials: none can cover K_n in fewer than ceil(n/2) orderings."""
    low = cover_bound(n, False)
    bad = int(np.sum(np.asarray(times) < low))
    if bad:
        return [f"n={n}: {bad} trials below the bound {low}"]
    return []


def n3_mean_problems(times) -> list[str]:
    """At n=3 the first ordering covers 2 of 3 pairs and each later one
    covers the last pair with probability 2/3, so X-1 is geometric with
    p=2/3: E[X]=2.5, Var[X]=0.75."""
    t = np.asarray(times, dtype=float)
    se = math.sqrt(0.75 / t.size)
    mean = float(t.mean())
    if abs(mean - 2.5) > MEAN_BAND_SE * se:
        return [f"n=3: mean cover time {mean:.4f} outside 2.5 +- {MEAN_BAND_SE * se:.4f}"]
    return []


def simulation_problems(n: int, directed: bool, trials: int, res) -> list[str]:
    """A simulation summary: the right problem, and a mean no trial could undercut."""
    out = []
    if (res.n, res.directed, res.trials) != (n, directed, trials):
        out.append(f"n={n}: result describes n={res.n}, directed={res.directed}, "
                   f"trials={res.trials}")
    if not res.mean_cover_time >= cover_bound(n, directed):
        out.append(f"n={n} directed={directed}: mean {res.mean_cover_time} below the bound "
                   f"{cover_bound(n, directed)}")
    if not (res.stddev >= 0.0 and math.isfinite(res.stddev)):
        out.append(f"n={n} directed={directed}: stddev {res.stddev}")
    return out


def routes_problems(m: int, k: int, alternating: float, tail: float) -> list[str]:
    if not math.isclose(alternating, tail, rel_tol=1e-10):
        return [f"kcoupon({m},{k}): alternating {alternating!r} != tail {tail!r}"]
    return []


def classic_problems(m: int, k1: float, classic: float) -> list[str]:
    if not math.isclose(k1, classic, rel_tol=1e-12):
        return [f"kcoupon({m},1) = {k1!r} != classic {classic!r}"]
    return []


# ---------------------------------------------------------------------------
# count-large
# ---------------------------------------------------------------------------


def triangle_total_problems(label: str, tau, total: int) -> list[str]:
    if int(np.sum(tau)) != 3 * int(total):
        return [f"{label}: sum of triangle counts {int(np.sum(tau))} != 3 * {total}"]
    return []


def clustering_problems(label: str, tau, clustering, degrees) -> list[str]:
    d = np.asarray(degrees, dtype=float)
    implied = np.asarray(clustering, float) * d * (d - 1) / 2.0
    if not close(implied, np.asarray(tau, float)):
        return [f"{label}: clustering * d(d-1)/2 disagrees with triangle counts"]
    return []


def wedge_problems(label: str, wedges, clustering, degrees) -> list[str]:
    d = np.asarray(degrees, dtype=float)
    implied = d * (d - 1) / 2.0 * (1.0 - np.asarray(clustering, float))
    if not close(implied, np.asarray(wedges, float)):
        return [f"{label}: wedges disagree with C(d,2) * (1 - clustering)"]
    return []


def one_class_problems(label: str, class_counts) -> list[str]:
    if set(class_counts) != {1}:
        return [f"{label}: regular graph refined into {list(class_counts)} classes"]
    return []


def relabel_problems(label: str, hist, hist_relabelled) -> list[str]:
    out = []
    if tuple(hist.class_counts) != tuple(hist_relabelled.class_counts):
        out.append(f"{label}: class counts {hist.class_counts} change to "
                   f"{hist_relabelled.class_counts} on relabelling")
    if sorted(hist.iterations[-1].values()) != sorted(hist_relabelled.iterations[-1].values()):
        out.append(f"{label}: stable class sizes change on relabelling")
    return out


def walk_band(z_values) -> tuple[float, float]:
    """Mean of R independent walk estimates and the band half-width
    WALK_BAND_SE empirical standard errors (floored for equal estimates)."""
    z = np.asarray(z_values, dtype=float)
    mean = float(z.mean())
    se = float(z.std(ddof=1)) / math.sqrt(z.size)
    return mean, WALK_BAND_SE * se + 1e-9 * (1.0 + abs(mean))


def walk_problems(label: str, tau: int, z_values) -> list[str]:
    mean, half = walk_band(z_values)
    if abs(mean - tau) > half:
        return [f"{label}: mean walk estimate {mean:.4f} outside {tau} +- {half:.4f}"]
    return []


def diag_cube(adj: np.ndarray) -> np.ndarray:
    """Diagonal of A^3 in int64.  numpy's integer matmul runs on the calling
    thread; a multithreaded BLAS call here would leave worker threads spinning
    into the next timed round."""
    a = np.asarray(adj, dtype=np.int64)
    return np.einsum("ij,ji->i", a @ a, a)


def equal_problems(label: str, got, expect) -> list[str]:
    got, expect = np.asarray(got), np.asarray(expect)
    if got.shape != expect.shape:
        return [f"{label}: shape {got.shape} != {expect.shape}"]
    diff = np.flatnonzero(got != expect)
    if diff.size:
        return [f"{label}: {diff.size} entries differ, first at index {int(diff[0])}"]
    return []


# ---------------------------------------------------------------------------
# cli-small
# ---------------------------------------------------------------------------


def cli_values(label: str, how: str, code: int, stdout: str, stderr: str):
    """Parse a successful invocation's stdout: the JSON payload, or the CSV
    rows (header first).  Returns (values, problems)."""
    if code != 0:
        return None, [f"{label}: exit {code}, stderr {stderr.strip()!r}"]
    if how == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            return None, [f"{label}: stdout is not a rectangular CSV table"]
        return rows, []
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"{label}: stdout is not JSON ({exc})"]


def counts_of(values) -> list[float]:
    """Per-node counts from a ``count`` payload or its CSV rows."""
    if isinstance(values, dict):
        return [float(c) for c in values["result"]["counts"]]
    if values[0] != ["node", "count"]:
        raise ValueError(f"unexpected CSV header {values[0]}")
    return [float(c) for _node, c in values[1:]]


def cli_error_problems(label: str, code: int, stdout: str, stderr: str) -> list[str]:
    """A malformed input must end with exit 1, nothing on stdout and one
    ``error:`` line on stderr."""
    lines = stderr.splitlines()
    if code == 1 and stdout == "" and len(lines) == 1 and lines[0].startswith("error: "):
        return []
    return [f"{label}: expected exit 1 with one error line, got exit {code}, "
            f"stdout {len(stdout)} chars, stderr {stderr.strip()[:120]!r}"]


def count_problems(label: str, kind: str, values, adj) -> list[str]:
    """Per-node counts from the CLI against numpy adjacency algebra."""
    values = counts_of(values)
    a = np.asarray(adj, dtype=bool)
    d = a.sum(axis=1).astype(float)
    cube = diag_cube(a)
    if kind == "directed-triangle":
        expect = cube
    elif kind == "triangle":
        expect = cube / 2
    elif kind == "wedge":
        expect = d * (d - 1) / 2 - cube / 2
    elif kind == "clustering":
        expect = np.divide(cube, d * (d - 1), out=np.zeros_like(d), where=d > 1)
    elif kind == "4clique":
        return four_clique_problems(label, values, k4_by_edges(a))
    else:
        return [f"{label}: unknown kind {kind}"]
    if not close(values, expect):
        return [f"{label}: {kind} counts disagree with diag(A^3)"]
    return []


def estimate_cli_problems(label: str, payload, adj, node: int) -> list[str]:
    """The walk estimates of ``estimate`` against the exact count at the node."""
    res = payload["result"]
    if len(res["runs"]) != res["seeds"]:
        return [f"{label}: {len(res['runs'])} runs for {res['seeds']} seeds"]
    tau = int(diag_cube(adj)[node]) // 2
    return walk_problems(label, tau, [r["z0"] for r in res["runs"]])


def wl_verdict_problems(label: str, payload, expect: bool) -> list[str]:
    got = payload["result"]["distinguished"]
    if got is not expect:
        return [f"{label}: distinguished={got}, expected {expect}"]
    return []


def cover_cli_problems(label: str, n: int, payload) -> list[str]:
    res = payload["result"]
    out = []
    if res["all_pairs_covered_after"] != n // 2:
        out.append(f"{label}: covered after {res['all_pairs_covered_after']}, law says {n // 2}")
    if len(res["unordered_pairs_covered_after"]) != group_order(n):
        out.append(f"{label}: {len(res['unordered_pairs_covered_after'])} prefixes for a "
                   f"group of {group_order(n)}")
    return out


def rings_cli_problems(label: str, n: int, payload) -> list[str]:
    rings = payload["result"]["rings"]
    if rings != ring_powers(n).tolist():
        return [f"{label}: rings differ from the powers of the shuffle"]
    return []


def coupon_cli_problems(label: str, directed: bool, payload) -> list[str]:
    out = []
    for row in payload["result"]["rows"]:
        n = row["n"]
        if row["mean"] < cover_bound(n, directed):
            out.append(f"{label}: n={n} mean {row['mean']} below bound {cover_bound(n, directed)}")
        expect = group_order(n) if directed else max(1, n // 2)
        if row["pg_count"] != expect:
            out.append(f"{label}: n={n} pg_count {row['pg_count']} != {expect}")
    return out
