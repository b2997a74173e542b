"""Run one workload in this process: set-up, timed rounds, checks, metrics.

Started by run.py, which passes the monotonic time at which it launched this
interpreter (``--t0``) so that set-up time includes interpreter start and
``import ringcover``.  The workload repeats whole rounds of the same calls
until ``--seconds`` have passed; every round's outputs are checked.  The
last stdout line is the result JSON.  With ``--trace 1`` each call into the
program is recorded as a span, the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json`` at the end, and the result
holds the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Per-layer rates: metric -> (count metric, time metrics it is divided by).
RATES = {
    "perm_group.rings_per_s": (
        "perm_group.rings", ("perm_group.generate_group_s", "perm_group.coverage_report_s")),
    "pg_aggregate.ring_items_per_s": (
        "pg_aggregate.ring_items", ("pg_aggregate.aggregate_node_s",)),
    "rw_estimator.steps_per_s": ("rw_estimator.steps", ("rw_estimator.estimate_s",)),
    "coupon_sim.orderings_per_s": ("coupon_sim.orderings", ("coupon_sim.simulate_s",)),
}

#: Per-layer times taken from the set-up spans rather than from the rounds.
SETUP_TIMES = {"graph_core.generate_s"}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Context:
    """Everything a workload touches: calls into the program, counters, spans.

    Only calls made inside a round count as attempted operations, so that
    ``failed / attempted`` is the same in every run however many rounds fit.
    A span is ``[stem, function, start, end, parent, op]``; ``parent`` is the
    index of the enclosing set-up or round span, ``op`` the operation number.
    """

    def __init__(self, trace: bool, tmpdir: Path):
        self.trace = trace
        self.tmpdir = tmpdir
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.parent: int | None = None
        self.in_round = False

    def call(self, stem: str, fn, *args, **kwargs):
        if self.in_round:
            self.attempted += 1
        if not self.trace:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([stem, fn.__name__, start, time.perf_counter(),
                               self.parent, self.attempted])

    def count(self, key: str, amount: float) -> None:
        if self.trace:
            self.counts[key] += amount

    def begin(self, name: str) -> None:
        self.parent = len(self.spans)
        self.spans.append([name, None, time.perf_counter(), None, None, None])
        self.in_round = name == "round"

    def end(self) -> None:
        self.spans[self.parent][3] = time.perf_counter()
        self.in_round = False


def layer_metrics(ctx: Context, specs: list[dict], rounds: int) -> dict:
    """Per-layer metrics from the spans and counters of a traced run.

    A time is the fewest seconds any round spent in spans of that stem
    (set-up spans for SETUP_TIMES); a count is per round; a rate is the
    count per round over the summed times it names.
    """
    per_round = {i: Counter() for i, s in enumerate(ctx.spans) if s[0] == "round"}
    setup: Counter = Counter()
    for stem, _fn, start, end, parent, _op in ctx.spans:
        if parent is not None:
            per_round.get(parent, setup)[stem] += end - start

    def seconds(name: str) -> float:
        stem = name[: -len("_s")]
        return setup[stem] if name in SETUP_TIMES else min(c[stem] for c in per_round.values())

    out = {}
    for spec in specs:
        name = spec["name"]
        if name in RATES:
            count, times = RATES[name]
            busy = sum(seconds(t) for t in times)
            value = ctx.counts[count] / rounds / busy if busy > 0 else 0.0
        elif spec["unit"] == "s":
            value = seconds(name)
        else:
            value = ctx.counts[name] / rounds
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the interpreter was launched")
    ns = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ringcover

    if SRC not in Path(ringcover.__file__).resolve().parents:
        print(f"error: imported ringcover from {ringcover.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[ns.workload]()

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"run-{ns.workload}-", dir=OUT_DIR))
    try:
        ctx = Context(bool(ns.trace), tmpdir)
        ctx.begin("setup")
        workload.setup(ctx, ns.seed)
        ctx.end()
        setup_s = time.monotonic() - ns.t0

        walls, cpus, problems = [], [], []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < ns.seconds:
            ctx.begin("round")
            c0, w0 = cpu_seconds(), time.perf_counter()
            out = workload.job(ctx)
            w1, c1 = time.perf_counter(), cpu_seconds()
            ctx.end()
            walls.append(w1 - w0)
            cpus.append(c1 - c0)
            try:
                problems += workload.check(out)
            except Exception as exc:  # an output of the wrong shape is a wrong output
                traceback.print_exc()
                problems.append(f"check raised {exc!r}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # The fastest round: on a shared host, interference only ever adds time,
    # and it comes in phases lasting seconds (see README.md).
    wall_s = min(walls)
    problems = list(dict.fromkeys(problems))  # every round repeats the same job
    for p in problems:
        print(f"[{ns.workload} seed={ns.seed}] check failed: {p}", file=sys.stderr)
    print(f"[{ns.workload} seed={ns.seed}] {len(walls)} rounds, wall_s {wall_s:.4f}, "
          f"trace={ns.trace}", file=sys.stderr)

    if ns.trace:
        metrics = layer_metrics(ctx, spec["per_layer"], len(walls))
        trace = {
            "workload": ns.workload, "seed": ns.seed, "rounds": len(walls),
            "wall_s": wall_s, "setup_s": setup_s,
            "fields": ["name", "function", "start", "end", "parent", "op"],
            "spans": ctx.spans,
        }
        (OUT_DIR / f"trace-{ns.workload}-seed{ns.seed}.json").write_text(json.dumps(trace))
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "cpu_s": min(cpus),
            "peak_rss_mb": max(own, kids) / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": not problems, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}
    record = dict(result, round_wall_s=walls, round_cpu_s=cpus, problems=problems)
    (OUT_DIR / f"result-{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
