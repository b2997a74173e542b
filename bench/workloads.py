"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as set-up),
runs one fixed round of calls into the program in ``job`` (timed), and
checks that round's outputs in ``check`` (not timed; references that depend
only on the inputs are computed on the first check and reused).  Every call
into the program goes through ``ctx.call`` under the name of the layer it
exercises, so that it is counted and, in a traced run, recorded as a span.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from pathlib import Path

import numpy as np

import checks as ck
import ringcover as rc
from ringcover import cli


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=k)]


def _degree_sequence_edges(degrees, rng: np.random.Generator, swaps_per_edge: int = 10):
    """Edges of a simple graph with exactly the given degrees: Havel-Hakimi,
    then random double-edge swaps, which keep every degree and rewire the
    graph.  Fixing the degrees fixes the aggregation work, whatever the seed."""
    left = {v: int(d) for v, d in enumerate(degrees)}
    edges = set()
    while any(left.values()):
        v = max(left, key=lambda u: (left[u], -u))
        need, left[v] = left[v], 0
        targets = sorted((u for u in left if left[u] > 0), key=lambda u: (-left[u], u))[:need]
        if len(targets) < need:
            raise ValueError("degree sequence is not graphical")
        for u in targets:
            left[u] -= 1
            edges.add((min(u, v), max(u, v)))
    present, edges = edges, sorted(edges)
    picks = rng.integers(0, len(edges), size=(swaps_per_edge * len(edges), 2))
    flips = rng.random(len(picks)) < 0.5
    for (i, j), flip in zip(picks.tolist(), flips.tolist()):
        (a, b), (c, d) = edges[i], edges[j]
        if flip:
            c, d = d, c
        e1, e2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and e1 not in present and e2 not in present:
            present -= {edges[i], edges[j]}
            present |= {e1, e2}
            edges[i], edges[j] = e1, e2
    return edges


class Workload:
    """Reference values that depend only on a run's inputs are computed on
    the first check that needs them and reused by later rounds."""

    def __init__(self):
        self.refs: dict = {}

    def _cached(self, key, fn, *args, **kwargs):
        if key not in self.refs:
            self.refs[key] = fn(*args, **kwargs)
        return self.refs[key]


class RingLayer(Workload):
    """The paper's path: the coverage law, whole-graph ring aggregation on a
    graph with degrees from about 10 to about 60, and the rook/Shrikhande
    pair under aggregation and k = 1..3 refinement."""

    SIZES = range(4, 73)
    NODES = 80
    WIDTH = 6
    SAMPLED = 6

    def setup(self, ctx, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        n = self.NODES
        degrees = np.rint(np.linspace(10, 60, n)).astype(int)
        degrees[-1] -= degrees.sum() % 2
        edges = _degree_sequence_edges(rng.permutation(degrees), rng)
        self.g = ctx.call("graph_core.generate", rc.from_edge_list, n, edges)
        self.rook = ctx.call("graph_core.generate", rc.gen_rooks_4x4)
        self.shri = ctx.call("graph_core.generate", rc.gen_shrikhande)

        w = self.WIDTH
        scale = 0.5 / math.sqrt(w)
        self.x = rng.normal(size=(n, w))
        self.W, self.U = rng.normal(size=(w, w)) * scale, rng.normal(size=(w, w)) * scale
        self.b = rng.normal(size=w) * 0.1
        self.w_self = rng.normal(size=(w, w)) * scale
        self.Wg, self.bg = rng.normal(size=(w, w)), rng.normal(size=w)
        self.elman = rc.SeqAggregator.elman(self.W, self.U, self.b, activation="tanh")
        self.gin = rc.SeqAggregator.gin_recovery(self.Wg, self.bg)
        self.dist_seed = int(rng.integers(0, 2**31))

        adj = np.array(self.g.adjacency)
        self.nbrs = [np.flatnonzero(row) for row in adj]
        deg = adj.sum(axis=1)
        self.ring_items = sum(ck.group_order(d) * (d + 1) if d else 0 for d in deg)
        self.merged_items = sum(ck.group_order(d) * (d + 2) if d else 2 for d in deg)
        movable = np.flatnonzero(deg >= 2)
        picks = [movable[np.argmin(deg[movable])], movable[np.argmax(deg[movable])]]
        rest = np.setdiff1d(movable, picks)
        picks += rng.choice(rest, size=self.SAMPLED - 2, replace=False).tolist()
        # reorder each sampled node's neighbours by a non-identity group element
        self.reorders = []
        for v in map(int, picks):
            rings = self.nbrs[v][ck.ring_powers(deg[v]) - 1]
            self.reorders.append((v, rings[int(rng.integers(1, len(rings)))].tolist()))

    def job(self, ctx) -> dict:
        coverage = []
        for n in self.SIZES:
            gen = ctx.call("perm_group.generate_group", rc.sigma, n)
            group = ctx.call("perm_group.generate_group", rc.generate_group, gen)
            arrs = ctx.call("perm_group.coverage_report", rc.arrangements, group)
            report = ctx.call("perm_group.coverage_report", rc.coverage_report, arrs, n)
            order = ctx.call("perm_group.generate_group", rc.sigma_group_order, n)
            ctx.count("perm_group.rings", len(group))
            coverage.append((n, len(group), order, arrs, report))

        g, x, agg = self.g, self.x, "pg_aggregate.aggregate_node"
        nodes = range(g.node_count)
        plain = [ctx.call(agg, rc.aggregate_node, g, v, x, self.elman, self.w_self) for v in nodes]
        merged = [ctx.call(agg, rc.aggregate_node_merged, g, v, x, self.elman) for v in nodes]
        gin = [ctx.call(agg, rc.aggregate_node, g, v, x, self.gin, self.w_self) for v in nodes]
        moved = [ctx.call(agg, rc.aggregate_node, g, v, x, self.elman, self.w_self,
                          neighbor_order=order) for v, order in self.reorders]
        ctx.count("pg_aggregate.ring_items", 2 * self.ring_items + self.merged_items + sum(
            ck.group_order(len(order)) * (len(order) + 1) for _, order in self.reorders))

        cliques = [ctx.call("substructure.incidence_4cliques", rc.incidence_4cliques, h)
                   for h in (self.rook, self.shri)]
        separated = ctx.call("pg_aggregate.distinguish", rc.distinguish_by_aggregation,
                             self.rook, self.shri, clique_channel=True, seed=self.dist_seed)
        verdicts, hists = {}, {}
        for k in (1, 2, 3):
            stem = "wl.wl1" if k == 1 else "wl.kwl"
            verdicts[k] = ctx.call(stem, rc.wl_distinguish, self.rook, self.shri, k)
            hists[k] = [ctx.call(stem, rc.kwl_refine, h, k) for h in (self.rook, self.shri)]
            for h in hists[k]:
                ctx.count("wl.rounds", len(h.iterations) - 1)
                ctx.count("wl.tuple_colourings", (len(h.iterations) - 1) * 16**k)
        return {"coverage": coverage, "plain": plain, "merged": merged, "gin": gin,
                "moved": moved, "cliques": cliques, "separated": separated,
                "verdicts": verdicts, "hists": hists}

    def _reference(self, key, v, fn, *args, **kwargs):
        return self._cached((key, v), fn, self.nbrs[v], self.x, v, *args, **kwargs)

    def check(self, out: dict) -> list[str]:
        problems = []
        for n, size, order, arrs, report in out["coverage"]:
            problems += ck.coverage_problems(n, size, order, [a.ring for a in arrs], report)
        for v, _ in self.reorders:
            ref = self._reference("plain", v, ck.reference_aggregate, self.W, self.U, self.b,
                                  self.w_self)
            if not ck.close(out["plain"][v], ref):
                problems.append(f"aggregate_node at node {v} differs from the reference fold")
            ref = self._reference("merged", v, ck.reference_aggregate, self.W, self.U, self.b,
                                  merged=True)
            if not ck.close(out["merged"][v], ref):
                problems.append(f"aggregate_node_merged at node {v} differs from the "
                                "reference fold")
        for v in range(self.g.node_count):
            ref = self._reference("gin", v, ck.gin_closed_form, self.Wg, self.bg, self.w_self)
            if not ck.close(out["gin"][v], ref):
                problems.append(f"gin_recovery layer at node {v} differs from its closed form")
        for (v, _), got in zip(self.reorders, out["moved"]):
            if not ck.close(got, out["plain"][v]):
                problems.append(f"node {v}: output changed when neighbours were reordered "
                                "by a group element")
        for label, h, counts in zip(("rook", "shrikhande"), (self.rook, self.shri), out["cliques"]):
            k4 = self._cached(("k4", label), ck.k4_by_edges, h.adjacency)
            problems += ck.four_clique_problems(label, counts.counts, k4)
        if out["separated"] is not True:
            problems.append("4-clique channel did not separate rook/Shrikhande")
        for k, verdict in out["verdicts"].items():
            if verdict is not False:
                problems.append(f"k={k} refinement separated rook/Shrikhande")
            a, b = out["hists"][k]
            if a.class_counts != b.class_counts:
                problems.append(f"k={k}: class counts {a.class_counts} != {b.class_counts}")
        for h in out["hists"][1]:
            problems += ck.one_class_problems("rook/Shrikhande k=1", h.class_counts)
        return problems


class CoverTime(Workload):
    """The covering-time analysis: sampled cover times, simulations at
    several n up to 1000, a directed sweep, the savings ratio, and the
    k-coupon closed form on both routes."""

    SAMPLES = ((3, 4000), (10, 400), (30, 60))
    SIMULATE = ((20, 200), (60, 40), (150, 12))
    #: n, trials and library seed of the n=1000 simulation.  It is most of a
    #: round and its cost follows the cover times drawn (about 9% per trial
    #: from seed to seed), so its seed is fixed: every run does the same work
    #: there, and wall_s measures the program rather than the draw.
    LARGE = (1000, 4, 1000)
    DIRECTED = tuple(range(4, 33, 4))
    DIRECTED_TRIALS = 40
    SAVINGS = (60, 60)
    KCOUPON_PAIRS = ((300, 60), (500, 45), (1000, 120), (2500, 2499))
    CLASSIC_M = (2, 3, 5, 8, 13, 40)
    PG_SIZES = range(4, 25)

    def setup(self, ctx, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.sample_seeds = _seeds(rng, len(self.SAMPLES))
        self.sim_seeds = _seeds(rng, len(self.SIMULATE))
        self.dir_seeds = _seeds(rng, len(self.DIRECTED))
        (self.savings_seed,) = _seeds(rng, 1)

    def job(self, ctx) -> dict:
        sim = "coupon_sim.simulate"
        samples = []
        for (n, trials), s in zip(self.SAMPLES, self.sample_seeds):
            times = ctx.call(sim, rc.sample_cover_times, n, False, trials, s)
            ctx.count("coupon_sim.orderings", int(times.sum()))
            samples.append((n, times))
        runs = []
        seeded = [(n, trials, s) for (n, trials), s in zip(self.SIMULATE, self.sim_seeds)]
        for n, trials, s in seeded + [self.LARGE]:
            res = ctx.call(sim, rc.simulate_cover_complete, n, False, trials, s)
            runs.append((n, False, trials, res))
        trials = self.DIRECTED_TRIALS
        for n, s in zip(self.DIRECTED, self.dir_seeds):
            res = ctx.call(sim, rc.simulate_cover_complete, n, True, trials, s)
            runs.append((n, True, trials, res))
        for _n, _d, trials, res in runs:
            ctx.count("coupon_sim.orderings", round(res.mean_cover_time * trials))
        n, trials = self.SAVINGS
        ratio = ctx.call(sim, rc.savings_ratio, n, trials, self.savings_seed)
        ctx.count("coupon_sim.orderings", round(ratio * (n // 2) * trials))

        kc = "coupon_sim.kcoupon"
        routes = [(m, k, ctx.call(kc, rc.kcoupon_expectation, m, k, "alternating"),
                   ctx.call(kc, rc.kcoupon_expectation, m, k, "tail"))
                  for m, k in self.KCOUPON_PAIRS]
        classic = [(m, ctx.call(kc, rc.kcoupon_expectation, m, 1),
                    ctx.call(kc, rc.coupon_expectation_classic, m)) for m in self.CLASSIC_M]

        pg = []
        for n in self.PG_SIZES:
            group = ctx.call("perm_group.generate_group", rc.generate_group,
                             ctx.call("perm_group.generate_group", rc.sigma, n))
            ctx.count("perm_group.rings", len(group))
            arrs = ctx.call("perm_group.coverage_report", rc.arrangements, group)
            report = ctx.call("perm_group.coverage_report", rc.coverage_report, arrs, n)
            pg.append((n, len(group), report,
                       ctx.call("coupon_sim.pg_cover_count", rc.pg_cover_count, n, False),
                       ctx.call("coupon_sim.pg_cover_count", rc.pg_cover_count, n, True)))
        return {"samples": samples, "runs": runs, "ratio": ratio, "routes": routes,
                "classic": classic, "pg": pg}

    def check(self, out: dict) -> list[str]:
        problems = []
        for n, times in out["samples"]:
            problems += ck.cover_times_problems(n, times)
            if n == 3:
                problems += ck.n3_mean_problems(times)
        for n, directed, trials, res in out["runs"]:
            problems += ck.simulation_problems(n, directed, trials, res)
        n, _ = self.SAVINGS
        if out["ratio"] < ck.cover_bound(n, False) / (n // 2):
            problems.append(f"savings_ratio({n}) = {out['ratio']} below the cover bound")
        for m, k, alternating, tail in out["routes"]:
            problems += ck.routes_problems(m, k, alternating, tail)
        for m, k1, classic in out["classic"]:
            problems += ck.classic_problems(m, k1, classic)
        for n, size, report, undirected, directed in out["pg"]:
            if undirected != report.all_pairs_covered_after():
                problems.append(f"pg_cover_count({n}) = {undirected}, coverage report says "
                                f"{report.all_pairs_covered_after()}")
            if directed != size:
                problems.append(f"directed pg_cover_count({n}) = {directed}, group has {size}")
        return problems


class CountLarge(Workload):
    """Exact and sampled counting on graphs of 800 nodes: every substructure
    counter, 1-WL refinement and walk estimates at a fixed set of nodes.
    (At 1000 nodes a round is one 2.4 s integer matmul whose time swings by
    up to 1.7x from call to call on a shared host; see README.md.)"""

    NODES = 800
    P = 0.05
    DEGREE = 12
    DIRECTED = (400, 0.02)
    SMALL = (30, 0.4)
    WALK_NODES = (("er", 0), ("er", 1), ("er", 2), ("er", 3), ("regular", 0), ("regular", 1))
    WALKS = 32
    STEPS = 3000

    def setup(self, ctx, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        s_er, s_reg, s_small = _seeds(rng, 3)
        gen = "graph_core.generate"
        self.er = ctx.call(gen, rc.gen_erdos_renyi, self.NODES, self.P, s_er)
        self.reg = ctx.call(gen, rc.gen_random_regular, self.NODES, self.DEGREE, s_reg)
        self.relabelled = ctx.call(gen, self.er.relabel, rng.permutation(self.NODES).tolist())
        n, p = self.DIRECTED
        arcs = rng.random((n, n)) < p
        np.fill_diagonal(arcs, False)
        self.directed = ctx.call(gen, rc.Graph, arcs, directed=True)
        self.small = ctx.call(gen, rc.gen_erdos_renyi, *self.SMALL, s_small)
        graphs = {"er": self.er, "regular": self.reg}
        self.walks = [(label, graphs[label], v, [rc.WalkConfig(steps=self.STEPS, seed=s)
                                                 for s in _seeds(rng, self.WALKS)])
                      for label, v in self.WALK_NODES]

    def job(self, ctx) -> dict:
        tri, tot, k4 = ("substructure.incidence_triangles", "substructure.total_triangles",
                        "substructure.incidence_4cliques")
        clu = "substructure.clustering"
        out = {}
        for label, g in (("er", self.er), ("regular", self.reg)):
            out[label] = {
                "tau": ctx.call(tri, rc.incidence_triangles, g).counts,
                "k4": ctx.call(k4, rc.incidence_4cliques, g).counts,
                "wedges": ctx.call(tri, rc.incidence_wedges, g).counts,
                "clustering": ctx.call(clu, rc.clustering_coefficients, g),
                "wl": ctx.call("wl.wl1", rc.wl1_refine, g),
            }
        out["er"]["total"] = ctx.call(tot, rc.total_triangles, self.er)
        out["relabelled_wl"] = ctx.call("wl.wl1", rc.wl1_refine, self.relabelled)
        out["directed"] = ctx.call(tri, rc.incidence_triangles_directed, self.directed).counts
        bf = "substructure.brute_force"
        out["small"] = (ctx.call(tri, rc.incidence_triangles, self.small).counts,
                        ctx.call(bf, rc.brute_force_incidence_triangles, self.small).counts,
                        ctx.call(k4, rc.incidence_4cliques, self.small).counts,
                        ctx.call(bf, rc.brute_force_incidence_4cliques, self.small).counts)
        for h in (out["er"]["wl"], out["regular"]["wl"], out["relabelled_wl"]):
            ctx.count("wl.rounds", len(h.iterations) - 1)
            ctx.count("wl.tuple_colourings", (len(h.iterations) - 1) * self.NODES)
        est = "rw_estimator.estimate"
        out["walks"] = [[ctx.call(est, rc.estimate_incidence_triangles, g, v, cfg).z0
                         for cfg in cfgs] for _label, g, v, cfgs in self.walks]
        ctx.count("rw_estimator.steps", len(self.walks) * self.WALKS * self.STEPS)
        return out

    def check(self, out: dict) -> list[str]:
        problems = []
        for label, g in (("er", self.er), ("regular", self.reg)):
            res, adj = out[label], g.adjacency
            deg = adj.sum(axis=1)
            cube = self._cached(("cube", label), ck.diag_cube, adj)
            problems += ck.equal_problems(f"{label} triangles vs diag(A^3)/2", res["tau"], cube / 2)
            problems += ck.clustering_problems(label, res["tau"], res["clustering"], deg)
            problems += ck.wedge_problems(label, res["wedges"], res["clustering"], deg)
            k4 = self._cached(("k4", label), ck.k4_by_edges, adj)
            problems += ck.four_clique_problems(label, res["k4"], k4)
        problems += ck.triangle_total_problems("er", out["er"]["tau"], out["er"]["total"])
        problems += ck.one_class_problems("regular", out["regular"]["wl"].class_counts)
        problems += ck.relabel_problems("er", out["er"]["wl"], out["relabelled_wl"])
        problems += ck.equal_problems(
            "directed triangles vs diag(A^3)", out["directed"],
            self._cached("dcube", ck.diag_cube, self.directed.adjacency))
        fast3, brute3, fast4, brute4 = out["small"]
        problems += ck.equal_problems("small triangles vs brute force", fast3, brute3)
        problems += ck.equal_problems("small 4-cliques vs brute force", fast4, brute4)
        for (label, g, v, _), z in zip(self.walks, out["walks"]):
            tau = int(self._cached(("cube", label), ck.diag_cube, g.adjacency)[v]) // 2
            problems += ck.walk_problems(f"{label} node {v}", tau, z)
        return problems


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliSmall(Workload):
    """Many short in-process ``ringcover.cli.main`` calls: all six
    subcommands on small generated graphs and edge-list files, plus
    malformed inputs.  Every argv runs twice per round."""

    ER = (24, 0.3)
    REGULAR = (20, 4)

    def setup(self, ctx, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        s_er, s_reg, s_cli = _seeds(rng, 3)
        gen = "graph_core.generate"
        er = ctx.call(gen, rc.gen_erdos_renyi, *self.ER, s_er)
        reg = ctx.call(gen, rc.gen_random_regular, *self.REGULAR, s_reg)
        two_k3 = ctx.call(gen, rc.from_edge_list, 6,
                          [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        arcs = rng.random((12, 12)) < 0.3
        np.fill_diagonal(arcs, False)
        dg = ctx.call(gen, rc.Graph, arcs, directed=True)
        k4 = ctx.call(gen, rc.gen_complete, 4)

        d = ctx.tmpdir
        self.files = {}
        for name, g in (("er", er), ("regular", reg), ("twok3", two_k3), ("directed", dg)):
            path = d / f"{name}.txt"
            ctx.call("graph_core.write", rc.write_edge_list, g, path)
            self.files[name] = (path, g)
        (d / "bad_header.txt").write_text("3 2 x\n0 1\n1 2\n")
        (d / "short.txt").write_text("4 3 u\n0 1\n1 2\n")
        (d / "out_of_range.txt").write_text("3 2 u\n0 1\n1 7\n")

        f = {name: str(path) for name, (path, _) in self.files.items()}
        a_er, a_reg, a_dir = er.adjacency, reg.adjacency, dg.adjacency
        est_node = int(np.argmax(a_er.sum(axis=1)))
        cover_n, rings_n = (int(v) for v in rng.integers(5, 13, size=2))
        seed_s = str(s_cli)
        er_gen = f"er:{self.ER[0]}:{self.ER[1]}"
        reg_gen = f"regular:{self.REGULAR[0]}:{self.REGULAR[1]}"

        def counts(kind, adj):
            return lambda label, values: ck.count_problems(label, kind, values, adj)

        # --in and --gen over the same graph must give the same counts
        er_in = ["count", "--in", f["er"], "--kind", "triangle"]
        er_by_gen = ["count", "--gen", er_gen, "--seed", str(s_er), "--kind", "triangle"]
        reg_in = ["count", "--in", f["regular"], "--kind", "triangle", "--out", "csv"]
        reg_by_gen = ["count", "--gen", reg_gen, "--seed", str(s_reg), "--kind", "triangle",
                      "--out", "csv"]
        # (argv, stdout format, checker of the parsed stdout); "error" cases
        # must end with exit 1 and one error line
        self.cases = [
            (er_in, "json", counts("triangle", a_er)),
            (er_by_gen, "json", counts("triangle", a_er)),
            (["count", "--in", f["er"], "--kind", "4clique"], "json", counts("4clique", a_er)),
            (["count", "--in", f["er"], "--kind", "wedge"], "json", counts("wedge", a_er)),
            (["count", "--in", f["er"], "--kind", "clustering"], "json",
             counts("clustering", a_er)),
            (reg_in, "csv", counts("triangle", a_reg)),
            (reg_by_gen, "csv", counts("triangle", a_reg)),
            (["count", "--in", f["directed"], "--kind", "directed-triangle"], "json",
             counts("directed-triangle", a_dir)),
            (["cover", "--n", str(cover_n)], "json",
             lambda label, pay: ck.cover_cli_problems(label, cover_n, pay)),
            (["cover", "--n", str(rings_n), "--emit", "arrangements"], "json",
             lambda label, pay: ck.rings_cli_problems(label, rings_n, pay)),
            (["wl", "--a", "cycle:6", "--b", f["twok3"], "--k", "1"], "json",
             lambda label, pay: ck.wl_verdict_problems(label, pay, False)),
            (["wl", "--a", "cycle:6", "--b", f["twok3"], "--k", "2"], "json",
             lambda label, pay: ck.wl_verdict_problems(label, pay, False)),
            (["wl", "--a", "cycle:6", "--b", f["twok3"], "--k", "3"], "json",
             lambda label, pay: ck.wl_verdict_problems(label, pay, True)),
            (["wl", "--a", "rooks", "--b", "shrikhande", "--k", "2"], "json",
             lambda label, pay: ck.wl_verdict_problems(label, pay, False)),
            (["estimate", "--gen", "complete:4", "--node", "0", "--r", "1000", "--seeds", "32",
              "--seed", seed_s], "json",
             lambda label, pay: ck.estimate_cli_problems(label, pay, k4.adjacency, 0)),
            (["estimate", "--in", f["er"], "--node", str(est_node), "--r", "1000", "--seeds", "32",
              "--seed", seed_s], "json",
             lambda label, pay: ck.estimate_cli_problems(label, pay, a_er, est_node)),
            (["coupon", "--n", "4:12:4", "--trials", "40", "--seed", seed_s], "json",
             lambda label, pay: ck.coupon_cli_problems(label, False, pay)),
            (["coupon", "--n", "3:5", "--directed", "--trials", "40", "--seed", seed_s], "json",
             lambda label, pay: ck.coupon_cli_problems(label, True, pay)),
            (["distinguish", "--a", "rooks", "--b", "shrikhande", "--seed", seed_s], "json",
             lambda label, pay: ck.wl_verdict_problems(label, pay, True)),
            (["distinguish", "--a", "cycle:6", "--b", f["twok3"], "--seed", seed_s], "json",
             lambda label, pay: ck.wl_verdict_problems(label, pay, False)),
            (["count", "--gen", "bogus:3", "--kind", "triangle"], "error", None),
            (["count", "--in", str(d / "missing.txt"), "--kind", "triangle"], "error", None),
            (["count", "--in", str(d / "bad_header.txt"), "--kind", "triangle"], "error", None),
            (["count", "--in", str(d / "short.txt"), "--kind", "triangle"], "error", None),
            (["count", "--in", str(d / "out_of_range.txt"), "--kind", "triangle"], "error", None),
            (["count", "--gen", "er:10:1.5", "--kind", "triangle"], "error", None),
            (["count", "--gen", "star:3", "--in", f["er"], "--kind", "triangle"], "error", None),
            (["cover", "--n", "0"], "error", None),
            (["coupon", "--n", "3:x"], "error", None),
            (["wl", "--a", "rooks", "--b", "cycle:6"], "error", None),
            (["estimate", "--gen", "star:3", "--node", "0", "--r", "2"], "error", None),
            # faults of the program: each fails on every run today
            (["estimate", "--gen", "star:3", "--node", "9", "--r", "100"], "error", None),
            (["estimate", "--gen", "complete:4", "--node", "0", "--r", "100", "--seeds", "0"],
             "error", None),
        ]
        argvs = [argv for argv, _, _ in self.cases]
        self.same_counts = [(argvs.index(er_in), argvs.index(er_by_gen)),
                            (argvs.index(reg_in), argvs.index(reg_by_gen))]

    def _invoke(self, ctx, argv):
        ctx.count("cli.invocations", 1)
        try:
            code, out, err = ctx.call(f"cli.{argv[0]}", _run_cli, argv)
        except (Exception, SystemExit) as exc:  # escaped main(): a failed operation
            ctx.failed += 1
            return exc
        ctx.count("cli.stdout_bytes", len(out.encode()))
        return code, out, err

    def job(self, ctx) -> dict:
        graphs = {name: ctx.call("graph_core.edge_list_io", rc.read_edge_list, path)
                  for name, (path, _) in self.files.items()}
        runs = [(self._invoke(ctx, argv), self._invoke(ctx, argv)) for argv, _, _ in self.cases]
        return {"graphs": graphs, "runs": runs}

    def check(self, out: dict) -> list[str]:
        problems = []
        for name, g in out["graphs"].items():
            if g != self.files[name][1]:
                problems.append(f"{name}.txt read back as a different graph")
        parsed = []
        for (argv, how, checker), (first, second) in zip(self.cases, out["runs"]):
            label = " ".join(Path(a).name if os.sep in a else a for a in argv)
            if isinstance(first, BaseException) or isinstance(second, BaseException):
                parsed.append(None)  # counted as a failed operation, not checked
                continue
            if first != second:
                problems.append(f"{label}: two runs of the same argv differ")
            code, stdout, stderr = first
            if how == "error":
                problems += ck.cli_error_problems(label, code, stdout, stderr)
                parsed.append(None)
                continue
            values, errs = ck.cli_values(label, how, code, stdout, stderr)
            problems += errs
            if not errs:
                problems += checker(label, values)
            parsed.append(values)
        for i, j in self.same_counts:
            a, b = parsed[i], parsed[j]
            if a is not None and b is not None and ck.counts_of(a) != ck.counts_of(b):
                problems.append("--in and --gen give different counts for "
                                f"{' '.join(self.cases[j][0][:3])}")
        return problems


WORKLOADS = {
    "ring-layer": RingLayer,
    "cover-time": CoverTime,
    "count-large": CountLarge,
    "cli-small": CliSmall,
}
