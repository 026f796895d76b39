"""kstab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ladder|corpus|surfaces \
        --seed N --seconds S --trace 0|1

Calls the workload untraced until one more call would take the summed
call time past S seconds, with set-up probes in fresh processes between
the calls, then checks every output (outside the timed section).
With ``--trace 1`` it then runs one more call with spans installed on
kstab's public functions and reports per-layer numbers instead of the
end-to-end ones; the spans are written to ``perfbench/out/``.

The second-to-last line of stdout is a report with the seed, the
generated parameters and ``failed_ratio``; the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
PROBES_PER_CALL = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# Spans reported as <name>.calls, <name>.self_s and <name>.total_s.
SPAN_METRICS = (
    "series.band_universe",
    "series.band_divisor",
    "series.compute_band",
    "series.series_sum",
    "zariski.effective_threshold",
    "zariski.decompose_parametric",
    "zariski.decompose_at",
    "zariski.validate_partition",
    "zariski.oracle_check",
    "geometry.integrate_polygon",
    "geometry.polygon_clip",
    "geometry.quadratic_min_on_polygon",
    "lattice.solve_gram",
    "lattice.is_negative_definite",
    "invariants.decompose_family",
    "invariants.s_curve",
    "invariants.s_point",
    "invariants.f_term",
    "scenarios.load_scenario",
    "scenarios.scenario_from_dict",
    "scenarios.run_expectations",
    "cli.main",
)
# decompose_at calls split by the span that made them.
DECOMPOSE_AT_CALLERS = {
    "discovery": "zariski.decompose_parametric",
    "sweep": "zariski.effective_threshold",
    "oracle": "zariski.oracle_check",
}
# Expectation ops of the corpus, each reported as scenarios.op.<op>.self_s.
SCENARIO_OPS = (
    "beta", "beta_lower_bound", "chamber_count", "chamber_pairing",
    "chamber_supports", "continuity", "delta_min", "f_term",
    "fiber_delta_bound", "oracle", "pair",
    "point_base", "quartic_fiber_bound", "s_curve", "s_curve_sum",
    "s_point", "s_threefold", "series_partial", "series_term",
    "series_threshold", "threshold",
)
COUNTERS = ("poly.Polynomial2.constructed", "poly.AffineForm.constructed")


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: spans.Tracer, overhead_s: float, untraced_wall: float) -> dict:
    """Every per-layer metric, 0 for layers the workload does not reach."""
    stats = tracer.aggregate()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
    out = {}
    for name in SPAN_METRICS:
        entry = stats.get(name, empty)
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.self_s"] = (entry["self_s"], "s")
        out[f"{name}.total_s"] = (entry["total_s"], "s")
    selfs = tracer.self_times()
    at_id = tracer.name_id("zariski.decompose_at")
    by_caller = {caller: [0, 0.0] for caller in DECOMPOSE_AT_CALLERS.values()}
    for idx, nid in enumerate(tracer.span_name):
        if nid == at_id:
            slot = by_caller.get(tracer.parent_name(idx))
            if slot is not None:
                slot[0] += 1
                slot[1] += selfs[idx]
    for label, caller in DECOMPOSE_AT_CALLERS.items():
        calls, self_s = by_caller[caller]
        out[f"zariski.decompose_at.{label}.calls"] = (calls, "count")
        out[f"zariski.decompose_at.{label}.self_s"] = (self_s, "s")
    bands = stats.get("series.compute_band", empty)["durations"]
    out["series.band_p50_ms"] = (percentile(bands, 50) * 1e3, "ms")
    out["series.band_p90_ms"] = (percentile(bands, 90) * 1e3, "ms")
    out["series.distinct_band_ratio"] = (
        ratio(len(set(tracer.band_keys)), len(tracer.band_keys)), "ratio")
    out["zariski.chambers"] = (tracer.chambers_placed, "count")
    out["zariski.samples_per_chamber"] = (
        ratio(by_caller["zariski.decompose_parametric"][0], tracer.chambers_placed), "ratio")
    scenario_s = stats.get("scenarios.run_expectations", empty)["durations"]
    out["scenarios.scenario_p50_ms"] = (percentile(scenario_s, 50) * 1e3, "ms")
    out["scenarios.scenario_p90_ms"] = (percentile(scenario_s, 90) * 1e3, "ms")
    for op in SCENARIO_OPS:
        out[f"scenarios.op.{op}.self_s"] = (stats.get(f"scenarios.op.{op}", empty)["self_s"], "s")
    for key in COUNTERS:
        out[key] = (tracer.counters.get(key, 0), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_ratio"] = (ratio(overhead_s, untraced_wall), "ratio")
    out["trace.spans"] = (len(tracer.span_start), "count")
    return out


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process, waited for."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, state, seconds: float, probe=None):
    """Untraced calls until their total would pass ``seconds`` with one more.

    Each output is checked right after its call, outside the timed section,
    and then dropped, so that peak memory does not grow with the number of
    calls.  ``probe()``, when given, runs PROBES_PER_CALL times before each
    call, so that set-up is sampled across the whole run: the host's speed
    drifts over seconds, and probes taken at one moment share one phase.
    Returns (call walls, (attempted, failed), probe results).
    """
    walls, probes = [], []
    attempted = failed = 0
    while True:
        if probe is not None:
            probes.extend(probe() for _ in range(PROBES_PER_CALL))
        start = time.perf_counter()
        output = workload.iteration(state)
        walls.append(time.perf_counter() - start)
        checked = workload.check(state, output)
        del output
        attempted += checked[0]
        failed += checked[1]
        if sum(walls) + statistics.median(walls) > seconds:
            return walls, (attempted, failed), probes


def traced_iteration(workload, params: dict):
    """Set-up plus one call with spans installed: (tracer, output, call seconds)."""
    tracer = spans.Tracer()
    with tracer:
        state = workload.setup(params)
        start = time.perf_counter()
        output = workload.iteration(state)
        wall = time.perf_counter() - start
    return tracer, output, wall


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(report, result) for one run."""
    workload = workloads.WORKLOADS[name]
    params = workload.params(seed)
    state = workload.setup(params)
    probe = None if trace else functools.partial(probe_setup, name, seed)
    walls, (attempted, failed), setup_times = measure(workload, state, seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(walls)
    report = {"workload": name, "seed": seed, "trace": int(trace), "params": params,
              "iteration_walls_s": walls}
    if trace:
        tracer, output, traced_wall = traced_iteration(workload, params)
        checked = workload.check(state, output)
        attempted += checked[0]
        failed += checked[1]
        metrics = per_layer_metrics(tracer, traced_wall - wall_s, wall_s)
        trace_file = HERE / "out" / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(trace_file)
        report["spans_file"] = str(trace_file.relative_to(HERE.parent))
    else:
        items_per_s = workload.items(state) * len(walls) / sum(walls)
        values = {"setup_s": statistics.median(setup_times), "wall_s": wall_s,
                  "items_per_s": items_per_s, "peak_rss_mb": peak_rss_mb}
        metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
        report["setup_probes_s"] = setup_times
        report[workload.rate_name] = items_per_s
        if "scenario_seconds" in state:
            scenario_s = state["scenario_seconds"]
            report["scenario_samples"] = len(scenario_s)
            report["scenario_p50_ms"] = percentile(scenario_s, 50) * 1e3
            report["scenario_p90_ms"] = percentile(scenario_s, 90) * 1e3
    report["failed_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.use_source_tree()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
