"""Each benchmark check passes on the program's real output and fails when
that output is perturbed.

    python3 -m pytest bench/test_checks.py -q

One round of every workload is run once per module (about ten seconds in
all); each test then changes one part of a copy of the round's output and
asserts that the workload's check reports it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402
import ringcover as rc  # noqa: E402
import workloads  # noqa: E402
from harness import Context  # noqa: E402

SEED = 7


def _round(name, tmp_path_factory):
    ctx = Context(False, tmp_path_factory.mktemp(name))
    wl = workloads.WORKLOADS[name]()
    wl.setup(ctx, SEED)
    ctx.begin("round")
    out = wl.job(ctx)
    ctx.end()
    return wl, out, ctx


def _fails(wl, out, fragment: str) -> None:
    problems = wl.check(out)
    assert any(fragment in p for p in problems), (fragment, problems[:5])


# ---------------------------------------------------------------------------
# reference routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_shuffle_from_definition_matches_the_program(n):
    rings = [list(a.ring) for a in rc.arrangements(rc.generate_group(rc.sigma(n)))]
    assert ck.ring_powers(n).tolist() == rings
    assert ck.group_order(n) == len(rings)


def test_k4_by_edges_on_known_graphs():
    assert ck.k4_by_edges(rc.gen_rooks_4x4().adjacency) == 8
    assert ck.k4_by_edges(rc.gen_shrikhande().adjacency) == 0
    assert ck.k4_by_edges(rc.gen_complete(6).adjacency) == 15


def test_n3_band_accepts_the_exact_law_and_rejects_a_shifted_mean():
    rng = np.random.default_rng(0)
    exact = 1 + rng.geometric(2 / 3, size=4000)
    assert ck.n3_mean_problems(exact) == []
    band = ck.MEAN_BAND_SE * np.sqrt(0.75 / 4000)
    shifted = np.full(4000, 2)
    shifted[: int(np.ceil((0.5 + band) * 4000)) + 1] = 3  # mean just above 2.5 + band
    assert ck.n3_mean_problems(shifted)
    shifted[: int(0.5 * 4000)] = 3
    shifted[int(0.5 * 4000):] = 2  # mean exactly 2.5
    assert ck.n3_mean_problems(shifted) == []


def test_walk_band_rejects_a_mean_just_outside():
    z = np.random.default_rng(1).normal(10.0, 2.0, size=32)
    mean, half = ck.walk_band(z)
    assert ck.walk_problems("x", round(mean), z) == []
    assert ck.walk_problems("x", 0, z - mean + 1e-6 + half) != []  # mean = half + 1e-6
    assert ck.walk_problems("x", 0, z - mean + 0.99 * half) == []


def test_cli_error_shape():
    assert ck.cli_error_problems("x", 1, "", "error: bad\n") == []
    assert ck.cli_error_problems("x", 0, "", "error: bad\n")
    assert ck.cli_error_problems("x", 1, "out", "error: bad\n")
    assert ck.cli_error_problems("x", 1, "", "error: bad\nerror: twice\n")
    assert ck.cli_error_problems("x", 1, "", "Traceback (most recent call last):\n")


# ---------------------------------------------------------------------------
# ring-layer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    return _round("ring-layer", tmp_path_factory)


def test_ring_layer_passes(ring):
    wl, out, _ = ring
    assert wl.check(out) == []


def _with_coverage(out, i, **changes):
    cov = list(out["coverage"])
    n, size, order, arrs, report = cov[i]
    size = changes.pop("size", size)
    cov[i] = (n, size, order, arrs, dataclasses.replace(report, **changes))
    return dict(out, coverage=cov)


def test_ring_layer_coverage_perturbations(ring):
    wl, out, _ = ring
    n, _, _, _, report = out["coverage"][5]
    mult = dict(report.ordered_pair_multiplicity)
    mult.pop(next(iter(mult)))
    _fails(wl, _with_coverage(out, 5, ordered_pair_multiplicity=mult), "never covered")
    _fails(wl, _with_coverage(out, 5, size=n + 3), "group size")
    _fails(wl, _with_coverage(out, 5, first_block_disjoint=False), "not disjoint")
    after = dict(report.unordered_pairs_covered_after)
    after[n // 2] -= 1
    _fails(wl, _with_coverage(out, 5, unordered_pairs_covered_after=after), "covered after")
    odd = next(i for i, c in enumerate(out["coverage"]) if c[0] % 2 == 1)
    mult = dict(out["coverage"][odd][4].ordered_pair_multiplicity)
    mult[next(iter(mult))] = 2
    _fails(wl, _with_coverage(out, odd, ordered_pair_multiplicity=mult), "repeats")


def _nudged(rows, v, by=1e-6):
    rows = list(rows)
    rows[v] = rows[v] + by
    return rows


def test_ring_layer_aggregation_perturbations(ring):
    wl, out, _ = ring
    v = wl.reorders[0][0]
    _fails(wl, dict(out, plain=_nudged(out["plain"], v)), "reference fold")
    _fails(wl, dict(out, merged=_nudged(out["merged"], v)), "aggregate_node_merged")
    _fails(wl, dict(out, gin=_nudged(out["gin"], 3)), "closed form")
    _fails(wl, dict(out, moved=_nudged(out["moved"], 0)), "reordered")


def test_ring_layer_pair_perturbations(ring):
    wl, out, _ = ring
    counts = out["cliques"][0].counts.copy()
    counts[0] += 1
    cliques = [rc.CountVector("four_clique", counts), out["cliques"][1]]
    _fails(wl, dict(out, cliques=cliques), "4-clique counts")
    _fails(wl, dict(out, separated=False), "did not separate")
    _fails(wl, dict(out, verdicts=dict(out["verdicts"]) | {3: True}), "k=3 refinement separated")
    a, b = out["hists"][2]
    fake = rc.ColorHistogram(k=2, iterations=b.iterations + ({0: 1, 1: 255},))
    _fails(wl, dict(out, hists=dict(out["hists"]) | {2: [a, fake]}), "class counts")
    one = rc.ColorHistogram(k=1, iterations=({0: 8, 1: 8},))
    _fails(wl, dict(out, hists=dict(out["hists"]) | {1: [one, one]}), "classes")


# ---------------------------------------------------------------------------
# cover-time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cover(tmp_path_factory):
    return _round("cover-time", tmp_path_factory)


def test_cover_time_passes(cover):
    wl, out, _ = cover
    assert wl.check(out) == []


def test_cover_time_perturbations(cover):
    wl, out, _ = cover
    samples = list(out["samples"])
    n, times = samples[1]
    low = times.copy()
    low[0] = ck.cover_bound(n, False) - 1
    samples[1] = (n, low)
    _fails(wl, dict(out, samples=samples), "below the bound")

    samples = list(out["samples"])
    size = samples[0][1].size
    moved = np.full(size, 2)
    band = ck.MEAN_BAND_SE * np.sqrt(0.75 / size)
    moved[: int(np.ceil((0.5 + band) * size)) + 1] = 3  # mean just above 2.5 + band
    samples[0] = (3, moved)
    _fails(wl, dict(out, samples=samples), "mean cover time")

    runs = list(out["runs"])
    n, directed, trials, res = runs[0]
    runs[0] = (n, directed, trials, dataclasses.replace(res, mean_cover_time=1.0))
    _fails(wl, dict(out, runs=runs), "below the bound")
    runs[0] = (n, directed, trials, dataclasses.replace(res, trials=trials + 1))
    _fails(wl, dict(out, runs=runs), "result describes")

    _fails(wl, dict(out, ratio=0.9), "savings_ratio")
    routes = list(out["routes"])
    m, k, a, t = routes[0]
    routes[0] = (m, k, a, t * (1 + 1e-8))
    _fails(wl, dict(out, routes=routes), "alternating")
    classic = list(out["classic"])
    m, k1, c = classic[2]
    classic[2] = (m, k1 * (1 + 1e-10), c)
    _fails(wl, dict(out, classic=classic), "classic")
    pg = list(out["pg"])
    n, size, report, und, dird = pg[0]
    pg[0] = (n, size, report, und + 1, dird)
    _fails(wl, dict(out, pg=pg), "coverage report says")
    pg[0] = (n, size, report, und, dird + 1)
    _fails(wl, dict(out, pg=pg), "group has")


# ---------------------------------------------------------------------------
# count-large
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def count(tmp_path_factory):
    return _round("count-large", tmp_path_factory)


def test_count_large_passes(count):
    wl, out, _ = count
    assert wl.check(out) == []


def _graph_result(out, label, **changes):
    return dict(out, **{label: dict(out[label], **changes)})


def test_count_large_perturbations(count):
    wl, out, _ = count
    tau = out["er"]["tau"].copy()
    tau[3] += 1
    perturbed = _graph_result(out, "er", tau=tau)
    _fails(wl, perturbed, "triangles vs diag")
    _fails(wl, perturbed, "!= 3 *")
    _fails(wl, perturbed, "clustering * d(d-1)/2")
    _fails(wl, _graph_result(out, "er", total=out["er"]["total"] + 1), "!= 3 *")
    clu = out["regular"]["clustering"].copy()
    clu[0] += 1e-6
    _fails(wl, _graph_result(out, "regular", clustering=clu), "clustering")
    wedges = out["er"]["wedges"].copy()
    wedges[0] -= 1
    _fails(wl, _graph_result(out, "er", wedges=wedges), "wedges")
    k4 = out["regular"]["k4"].copy()
    k4[0] += 1
    _fails(wl, _graph_result(out, "regular", k4=k4), "4-clique")
    two = rc.ColorHistogram(k=1, iterations=({0: 1000}, {0: 500, 1: 500}))
    _fails(wl, _graph_result(out, "regular", wl=two), "regular graph refined")
    h = out["relabelled_wl"]
    fake = rc.ColorHistogram(k=1, iterations=h.iterations[:-1] + ({0: 999, 1: 1},))
    _fails(wl, dict(out, relabelled_wl=fake), "on relabelling")
    directed = out["directed"].copy()
    directed[1] += 1
    _fails(wl, dict(out, directed=directed), "directed triangles")
    small = list(out["small"])
    small[1] = small[1].copy()
    small[1][0] += 1
    _fails(wl, dict(out, small=tuple(small)), "small triangles vs brute force")


def test_count_large_walk_band(count):
    wl, out, _ = count
    _label, g, v, _ = wl.walks[0]
    tau = int(ck.diag_cube(g.adjacency)[v]) // 2
    z = np.asarray(out["walks"][0])
    _, half = ck.walk_band(z)
    walks = list(out["walks"])
    walks[0] = (z - z.mean() + tau + 0.99 * half).tolist()
    assert wl.check(dict(out, walks=walks)) == []
    walks[0] = (z - z.mean() + tau + 1.01 * half).tolist()
    _fails(wl, dict(out, walks=walks), "mean walk estimate")


# ---------------------------------------------------------------------------
# cli-small
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clirun(tmp_path_factory):
    return _round("cli-small", tmp_path_factory)


def _case(wl, *argv_prefix):
    return next(i for i, (argv, _, _) in enumerate(wl.cases)
                if argv[: len(argv_prefix)] == list(argv_prefix))


def _with_run(out, i, first, second=None):
    runs = list(out["runs"])
    runs[i] = (first, first if second is None else second)
    return dict(out, runs=runs)


def _edited_json(run, edit):
    code, stdout, stderr = run
    payload = json.loads(stdout)
    edit(payload["result"])
    return code, json.dumps(payload, sort_keys=True, indent=2) + "\n", stderr


def test_cli_small_passes_and_counts_only_the_two_faults(clirun):
    wl, out, ctx = clirun
    assert wl.check(out) == []
    assert ctx.failed == 4  # two faulty argvs, each run twice
    assert ctx.attempted == 2 * len(wl.cases) + len(wl.files)


def test_cli_small_perturbations(clirun):
    wl, out, _ = clirun
    i = _case(wl, "count", "--in")
    first = out["runs"][i][0]
    _fails(wl, _with_run(out, i, first, (first[0], first[1] + " ", first[2])), "differ")
    _fails(wl, _with_run(out, i, (0, "{not json", "")), "not JSON")

    def bump(result):
        result["counts"][0] += 1

    _fails(wl, _with_run(out, i, _edited_json(first, bump)), "disagree with diag")
    _fails(wl, _with_run(out, i, _edited_json(first, bump)), "--in and --gen")

    j = next(i for i, (_, how, _) in enumerate(wl.cases) if how == "csv")
    code, stdout, stderr = out["runs"][j][0]
    _fails(wl, _with_run(out, j, (code, stdout.replace("\n0,", "\n0,0,", 1), stderr)),
           "rectangular")

    k3 = next(i for i, (argv, _, _) in enumerate(wl.cases) if argv[0] == "wl" and argv[-1] == "3")
    flip = _edited_json(out["runs"][k3][0], lambda r: r.update(distinguished=False))
    _fails(wl, _with_run(out, k3, flip), "distinguished=False")

    est = _case(wl, "estimate", "--gen", "complete:4", "--node", "0", "--r", "1000")
    _fails(wl, _with_run(out, est, _edited_json(
        out["runs"][est][0], lambda r: [run.update(z0=run["z0"] + 1.0) for run in r["runs"]])),
        "mean walk estimate")

    cov = _case(wl, "cover")
    _fails(wl, _with_run(out, cov, _edited_json(
        out["runs"][cov][0], lambda r: r.update(all_pairs_covered_after=1))), "covered after")
    coup = _case(wl, "coupon", "--n", "4:12:4")
    _fails(wl, _with_run(out, coup, _edited_json(
        out["runs"][coup][0], lambda r: r["rows"][0].update(mean=1.0))), "below bound")

    bad = _case(wl, "count", "--gen", "bogus:3")
    _fails(wl, _with_run(out, bad, (0, "", "")), "expected exit 1")
    _fails(wl, _with_run(out, bad, (1, "", "error: one\nerror: two\n")), "expected exit 1")

    graphs = dict(out["graphs"], er=rc.gen_complete(3))
    _fails(wl, dict(out, graphs=graphs), "read back as a different graph")
