"""Command-line front end: every experiment as a reproducible subcommand.

Data goes to stdout (JSON or CSV), diagnostics to stderr, exit code 0 iff
nothing failed.  All randomness flows from ``--seed``, so invocations are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .coupon_sim import kcoupon_expectation, pg_cover_count, simulate_cover_complete
from .graph_core import (
    Graph,
    gen_complete,
    gen_cycle,
    gen_erdos_renyi,
    gen_random_regular,
    gen_rooks_4x4,
    gen_shrikhande,
    gen_star,
    read_edge_list,
)
from .perm_group import arrangements, coverage_report, generate_group, sigma
from .pg_aggregate import distinguish_by_aggregation
from .rw_estimator import WalkConfig, estimate_incidence_triangles
from .substructure import (
    clustering_coefficients,
    incidence_4cliques,
    incidence_triangles,
    incidence_triangles_directed,
    incidence_wedges,
)
from .wl import wl_compare


#: generator name -> (parameter count, builder from the parameters and the seed)
_GENERATORS = {
    "complete": (1, lambda p, seed: gen_complete(int(p[0]))),
    "star": (1, lambda p, seed: gen_star(int(p[0]))),
    "cycle": (1, lambda p, seed: gen_cycle(int(p[0]))),
    "er": (2, lambda p, seed: gen_erdos_renyi(int(p[0]), float(p[1]), seed)),
    "regular": (2, lambda p, seed: gen_random_regular(int(p[0]), int(p[1]), seed)),
    "rooks": (0, lambda p, seed: gen_rooks_4x4()),
    "shrikhande": (0, lambda p, seed: gen_shrikhande()),
}


def _parse_generator(spec: str, seed: int) -> Graph:
    name, *params = spec.split(":")
    if name not in _GENERATORS:
        raise ValueError(
            f"unknown generator {name!r}; expected complete:n, star:n, cycle:n, "
            "er:n:p, regular:n:d, rooks, or shrikhande")
    n_params, build = _GENERATORS[name]
    if len(params) != n_params:
        raise ValueError(
            f"generator {name!r} takes {n_params} parameter(s), got {len(params)}")
    return build(params, seed)


def _load_graph(path: str | None, gen: str | None, seed: int) -> Graph:
    """The graph from an edge-list file or from a generator spec, exactly
    one of which is given."""
    if (path is None) == (gen is None):
        raise ValueError("provide exactly one of --in / --gen")
    if path is not None:
        return read_edge_list(path)
    return _parse_generator(gen, seed)


def _load_pair(ns: argparse.Namespace) -> tuple[Graph, Graph]:
    """``--a`` and ``--b``: each names a generator when its name before the
    first ``:`` is one, and an edge-list file otherwise."""
    def one(spec: str) -> Graph:
        is_gen = spec.split(":", 1)[0] in _GENERATORS
        return _load_graph(None if is_gen else spec, spec if is_gen else None, ns.seed)
    return one(ns.a), one(ns.b)


def _emit(ns: argparse.Namespace, result: dict, csv_header: list[str],
          csv_rows: list[list]) -> None:
    if ns.out == "json":
        payload = {
            "tool_version": __version__,
            "command": ns.command,
            "seed": ns.seed,
            "args": {k: v for k, v in vars(ns).items()
                     if k not in ("func", "out", "command")},
            "result": result,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


#: ``count --kind`` -> per-node values of the graph
_COUNTERS = {
    "triangle": lambda g: incidence_triangles(g).counts,
    "4clique": lambda g: incidence_4cliques(g).counts,
    "wedge": lambda g: incidence_wedges(g).counts,
    "clustering": clustering_coefficients,
    "directed-triangle": lambda g: incidence_triangles_directed(g).counts,
}


def _cmd_count(ns: argparse.Namespace) -> int:
    g = _load_graph(ns.infile, ns.gen, ns.seed)
    values = _COUNTERS[ns.kind](g).tolist()
    _emit(ns, {"kind": ns.kind, "counts": values},
          ["node", "count"], [[v, c] for v, c in enumerate(values)])
    return 0


def _cmd_cover(ns: argparse.Namespace) -> int:
    group = generate_group(sigma(ns.n))
    if ns.emit == "arrangements":
        rings = group.rings.tolist()
        _emit(ns, {"n": ns.n, "rings": rings}, ["arrangement", "ring"],
              [[i, " ".join(map(str, r))] for i, r in enumerate(rings)])
        return 0
    report = coverage_report(arrangements(group), ns.n)
    rep = report.to_json_dict()
    rep["all_pairs_covered_after"] = report.all_pairs_covered_after()
    _emit(ns, rep,
          ["prefix", "unordered_pairs_covered"],
          [[b, c] for b, c in sorted(report.unordered_pairs_covered_after.items())])
    return 0


def _cmd_wl(ns: argparse.Namespace) -> int:
    g1, g2 = _load_pair(ns)
    verdict, counts_a, counts_b = wl_compare(g1, g2, ns.k)
    result = {
        "k": ns.k,
        "distinguished": verdict,
        "class_counts_a": list(counts_a),
        "class_counts_b": list(counts_b),
    }
    _emit(ns, result, ["k", "distinguished"], [[ns.k, verdict]])
    return 0


def _cmd_estimate(ns: argparse.Namespace) -> int:
    if ns.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {ns.seeds}")
    g = _load_graph(ns.infile, ns.gen, ns.seed)
    augment = {"auto": None, "on": True, "off": False}[ns.augment]
    rows = []
    for i in range(ns.seeds):
        cfg = WalkConfig(steps=ns.r, seed=ns.seed + i, augment=augment,
                         start_policy=ns.start)
        res = estimate_incidence_triangles(g, ns.node, cfg)
        rows.append([ns.seed + i, res.z0, res.y1, res.y2, res.augmented])
    mean_z0 = sum(r[1] for r in rows) / len(rows)
    result = {
        "node": ns.node,
        "r": ns.r,
        "seeds": ns.seeds,
        "mean_z0": mean_z0,
        "runs": [{"seed": r[0], "z0": r[1], "y1": r[2], "y2": r[3],
                  "augmented": r[4]} for r in rows],
    }
    _emit(ns, result, ["seed", "z0", "y1", "y2", "augmented"], rows)
    return 0


def _parse_range(text: str) -> list[int]:
    usage = f"bad range {text!r}; use n, lo:hi, or lo:hi:step"
    try:
        parts = [int(x) for x in text.split(":")]
    except ValueError:
        raise ValueError(usage) from None
    if len(parts) > 3:
        raise ValueError(usage)
    lo, hi, step = parts[0], parts[-1], 1
    if len(parts) == 3:
        hi, step = parts[1], parts[2]
    if step < 1:
        raise ValueError(f"bad range {text!r}: the step must be at least 1")
    values = list(range(lo, hi + 1, step))
    if not values:
        raise ValueError(f"empty range {text!r}: lo must not exceed hi")
    return values


def _cmd_coupon(ns: argparse.Namespace) -> int:
    rows = []
    for n in _parse_range(ns.n):
        sim = simulate_cover_complete(n, ns.directed, ns.trials, ns.seed)
        m = n * (n - 1) if ns.directed else n * (n - 1) // 2
        closed = kcoupon_expectation(m, n - 1)
        count = pg_cover_count(n, ns.directed)
        rows.append([n, "directed" if ns.directed else "undirected", ns.trials,
                     sim.mean_cover_time, sim.stddev, closed, count,
                     sim.mean_cover_time / count])
    header = ["n", "mode", "trials", "mean", "stddev", "closed_form",
              "pg_count", "ratio"]
    result = {"rows": [dict(zip(header, r)) for r in rows]}
    _emit(ns, result, header, rows)
    return 0


def _cmd_distinguish(ns: argparse.Namespace) -> int:
    g1, g2 = _load_pair(ns)
    witness = None
    plain = distinguish_by_aggregation(g1, g2, layers=ns.layers, seed=ns.seed,
                                       clique_channel=False)
    if plain:
        distinguished = True
        witness = "size" if g1.node_count != g2.node_count else "degree"
    elif ns.witness != "none":
        with_clique = distinguish_by_aggregation(g1, g2, layers=ns.layers,
                                                 seed=ns.seed, clique_channel=True)
        distinguished = with_clique
        witness = "4clique" if with_clique else None
    else:
        distinguished = False
    result = {"distinguished": distinguished, "witness": witness,
              "layers": ns.layers}
    _emit(ns, result, ["distinguished", "witness"], [[distinguished, witness]])
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ringcover",
        description="ring coverage, substructure counts, colour refinement, "
                    "walk estimation and covering simulations on small graphs",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, gen_input=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", choices=("json", "csv"), default="json")
        if gen_input:
            p.add_argument("--in", dest="infile", metavar="FILE",
                           help="edge-list file (header 'N M D')")
            p.add_argument("--gen", metavar="SPEC",
                           help="generator spec, e.g. complete:4, er:20:0.3")

    p = sub.add_parser("count", help="per-node substructure counts")
    common(p)
    p.add_argument("--kind", required=True, choices=tuple(_COUNTERS))
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("cover", help="ring arrangements and pair coverage")
    common(p, gen_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("report", "arrangements"), default="report")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("wl", help="colour-refinement verdict on two graphs")
    common(p, gen_input=False)
    p.add_argument("--a", required=True, help="generator spec or edge-list file")
    p.add_argument("--b", required=True, help="generator spec or edge-list file")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_wl)

    p = sub.add_parser("estimate", help="walk-based triangle estimate at a node")
    common(p)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="recorded steps per walk")
    p.add_argument("--seeds", type=int, default=1, help="number of walks")
    p.add_argument("--augment", choices=("auto", "on", "off"), default="auto")
    p.add_argument("--start", choices=("uniform", "degree_proportional"),
                   default="uniform")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("coupon", help="covering-time simulation sweep")
    common(p, gen_input=False)
    p.add_argument("--n", required=True, help="n, lo:hi, or lo:hi:step")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_coupon)

    p = sub.add_parser("distinguish", help="separate two graphs by aggregation")
    common(p, gen_input=False)
    p.add_argument("--a", required=True, help="generator spec or edge-list file")
    p.add_argument("--b", required=True, help="generator spec or edge-list file")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--witness", choices=("auto", "none"), default="auto",
                   help="auto: add the 4-clique channel when degrees alone fail")
    p.set_defaults(func=_cmd_distinguish)

    return top


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: numpy refuses at once an array that can never fit,
        # e.g. the dense adjacency of a file whose header promises 10⁹ nodes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
