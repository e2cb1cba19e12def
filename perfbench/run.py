"""End-to-end benchmark of the chiplet-NPU sweep, memo-server and design
search paths.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client, run serially in this
process.  A run sets the workload up several times (``setup_s`` is the
median), then executes whole passes over the seed's op list until
``--seconds`` have passed and enough ops ran for ``op_p90_ms`` to have
ten samples beyond it.  Only the op itself is timed; the state reset
before it and the correctness check after it are not.  Times are scaled
to a reference host speed measured next to every op (see ``measure.py``);
the wall-clock figures go to stderr.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half traced, prints the per-layer metrics, and
writes every span to ``results/perfbench/trace-<workload>-seed<n>.json``.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from measure import (REFERENCE_S, host_scale, peak_rss_mb, percentile,
                     reference_s)
from spans import OP_SPAN, Tracer, per_op_totals

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "results" / "perfbench"
SETUP_REPEATS = 5
#: ops per timed run: p90 then has 10 samples beyond it.
MIN_OPS = 100

WORKLOADS = ("sweep-cold", "sweep-warm-remote", "design-search")
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: span name -> per-op self-time metric (ms).
SPAN_MS = {
    "workloads.build": "workloads.build_ms",
    "cost.seed": "cost.seed_ms",
    "cost.builds_request": "cost.builds_request_ms",
    "cost.price_batch": "cost.price_batch_ms",
    "core.match": "core.match_ms",
    "core.plan_group": "core.plan_group_ms",
    "core.shard_step": "core.shard_step_ms",
    "core.place": "core.place_ms",
    "core.summary": "core.summary_ms",
    "core.trunk_dse": "core.trunk_dse_ms",
    "sweep.run_scenario": "sweep.run_scenario_ms",
    "store.attach": "store.attach_ms",
    "store.flush": "store.flush_ms",
    "serve.client_post": "serve.client_post_ms",
    "sweep.merge": "sweep.merge_ms",
    "sweep.rows_json": "sweep.rows_json_ms",
    "design.proxy": "design.proxy_ms",
    "design.pareto": "design.pareto_ms",
    "design.materialize": "design.materialize_ms",
    "op": "op.remainder_ms",
}
#: span name -> per-op call-count metric.
SPAN_CALLS = {
    "workloads.build": "workloads.build_calls",
    "core.plan_group": "core.plan_group_calls",
    "core.shard_step": "core.shard_step_calls",
    "core.place": "core.place_calls",
    "serve.client_post": "serve.client_post_calls",
}
#: per-op means of deterministic counters.
COUNTERS = (
    "cost.seeded_pairs",
    "cost.evaluate_hits",
    "cost.evaluate_misses",
    "cost.priced_pairs",
    "core.plan_hits",
    "core.plan_misses",
    "core.plan_store_hits",
    "store.entries_loaded",
)
#: ratio metric -> (numerator counter, counters summed as denominator).
RATIOS = {
    "core.plan_hit_ratio": ("core.plan_hits",
                            ("core.plan_hits", "core.plan_misses")),
    "store.used_ratio": ("core.plan_store_hits", ("store.entries_loaded",)),
    "design.materialized_ratio": ("design.materialized",
                                  ("design.candidates",)),
}

PER_LAYER = {
    **{metric: "ms" for metric in SPAN_MS.values()},
    **{metric: "count" for metric in SPAN_CALLS.values()},
    **{name: "count" for name in COUNTERS},
    **{name: "ratio" for name in RATIOS},
    "serve.batch_get_p50_ms": "ms",
    "serve.batch_get_p90_ms": "ms",
    "op.mean_ms": "ms",
    "op.accounted_ratio": "ratio",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "host.reference_ms": "ms",
    "wall.ops_per_s": "1/s",
}


@dataclass
class Loop:
    """Outcome of one measured loop."""

    #: (op id, wall seconds) of every op that passed its check.
    passed: list[tuple[int, float]] = field(default_factory=list)
    #: op id -> host-speed scale of every attempted op.
    scale: dict[int, float] = field(default_factory=dict)
    #: every reference-kernel timing of the loop, in seconds.
    references_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def scaled_s(self) -> list[float]:
        """Passed ops' times at the reference host speed."""
        return [wall * self.scale[op] for op, wall in self.passed]

    def ops_per_s(self) -> float:
        return len(self.passed) / sum(self.scaled_s())

    def wall_ops_per_s(self) -> float:
        return len(self.passed) / sum(wall for _, wall in self.passed)


def run_loop(workload, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Whole passes over ``workload.ops`` until both ``seconds`` and
    ``min_ops`` are reached; failed ops are counted, not timed.

    The reference kernel runs before every op and once after the last,
    so each op is bracketed by two host-speed readings.
    """
    import suites  # imports the program: main() puts src/ on the path


    loop = Loop()
    clock = time.perf_counter
    start = clock()
    op_id = 0
    loop.references_s.append(reference_s())
    while clock() - start < seconds or loop.attempted < min_ops:
        for index in range(len(workload.ops)):
            suites.cold_state()
            before = suites.public_counters()
            try:
                began = clock()
                if tracer is None:
                    output = workload.run_op(index)
                else:
                    with tracer.op(op_id):
                        output = workload.run_op(index)
                elapsed = clock() - began
                if tracer is not None:
                    after = suites.public_counters()
                    for name, value in after.items():
                        tracer.count(name, value - before[name], op=op_id)
                    for name, value in workload.counters(output).items():
                        tracer.count(name, value, op=op_id)
                workload.check(index, output)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                loop.failed += 1
            else:
                loop.passed.append((op_id, elapsed))
            loop.references_s.append(reference_s())
            loop.scale[op_id] = host_scale(*loop.references_s[-2:])
            loop.attempted += 1
            op_id += 1
    return loop


def end_to_end_metrics(loop: Loop, setups_s: list[float]) -> dict:
    """``setups_s`` are wall times: a set-up spans other processes and
    too few reference readings, so it is scaled by the run's median
    reference instead of per set-up."""
    scaled = loop.scaled_s()
    setup_scale = REFERENCE_S / statistics.median(loop.references_s)
    values = {
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": percentile(scaled, 50) * 1e3,
        "op_p90_ms": percentile(scaled, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups_s) * setup_scale,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer, untraced: Loop, traced: Loop,
                      server_samples_ms: list[float]) -> dict:
    totals = {op: names for op, names in per_op_totals(tracer.spans).items()
              if op >= 0}
    ops = len(totals)
    values: dict[str, float] = {}
    for span, metric in SPAN_MS.items():
        values[metric] = sum(names.get(span, (0.0, 0))[0] * traced.scale[op]
                             for op, names in totals.items()) * 1e3 / ops
    for span, metric in SPAN_CALLS.items():
        values[metric] = sum(names.get(span, (0.0, 0))[1]
                             for names in totals.values()) / ops
    summed: dict[str, float] = {}
    for counters in tracer.counters.values():
        for name, value in counters.items():
            summed[name] = summed.get(name, 0.0) + value
    for name in COUNTERS:
        values[name] = summed.get(name, 0.0) / ops
    for metric, (numerator, denominator) in RATIOS.items():
        base = sum(summed.get(name, 0.0) for name in denominator)
        values[metric] = summed.get(numerator, 0.0) / base if base else 0.0
    op_spans = [s for s in tracer.spans if s.name == OP_SPAN and s.op >= 0]
    op_total_s = sum(s.end - s.start for s in op_spans)
    spanned_s = sum(sum(t for t, _ in names.values())
                    for names in totals.values())
    values["op.mean_ms"] = sum((s.end - s.start) * traced.scale[s.op]
                               for s in op_spans) * 1e3 / ops
    values["op.accounted_ratio"] = spanned_s / op_total_s
    values["serve.batch_get_p50_ms"] = (
        percentile(server_samples_ms, 50) if server_samples_ms else 0.0)
    values["serve.batch_get_p90_ms"] = (
        percentile(server_samples_ms, 90) if server_samples_ms else 0.0)
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    values["trace.traced_ops_per_s"] = traced.ops_per_s()
    values["trace.overhead_ratio"] = (untraced.ops_per_s()
                                      / traced.ops_per_s())
    values["host.reference_ms"] = statistics.median(
        untraced.references_s + traced.references_s) * 1e3
    values["wall.ops_per_s"] = untraced.wall_ops_per_s()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def write_trace(tracer, workload: str, seed: int) -> pathlib.Path:
    origin = tracer.spans[0].start if tracer.spans else 0.0
    records = []
    for span in tracer.spans:
        record = span.to_dict()
        record["start"] = (span.start - origin) * 1e3
        record["end"] = (span.end - origin) * 1e3
        records.append(record)
    path = RESULTS_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "unit": "ms",
         "spans": records}) + "\n")
    return path


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import suites  # noqa: E402 - the program is importable only from here

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                            dir=RESULTS_DIR))
    workload = suites.WORKLOADS[args.workload](
        args.seed, run_dir, trace=bool(args.trace))
    try:
        setups_s = []
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            if repeat:
                workload.close()
            began = time.perf_counter()
            suites.import_program()
            workload.setup()
            setups_s.append(time.perf_counter() - began)
        if not args.trace:
            loop = run_loop(workload, args.seconds, MIN_OPS)
            attempted, failed = loop.attempted, loop.failed
            metrics = end_to_end_metrics(loop, setups_s)
            wall_p50_s = percentile([w for _, w in loop.passed], 50)
            print(f"wall clock: {loop.wall_ops_per_s():.3f} ops/s, "
                  f"p50 {wall_p50_s * 1e3:.1f} ms, host reference "
                  f"kernel median "
                  f"{statistics.median(loop.references_s) * 1e3:.2f} ms",
                  file=sys.stderr)
        else:
            half = args.seconds / 2
            untraced = run_loop(workload, half, MIN_OPS // 2)
            tracer = Tracer()
            with suites.layer_patches(tracer):
                traced = run_loop(workload, half, MIN_OPS // 2, tracer)
            samples = workload.batch_get_samples_ms()
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            metrics = per_layer_metrics(tracer, untraced, traced, samples)
            print(f"trace written to {write_trace(tracer, args.workload, args.seed)}",
                  file=sys.stderr)
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
