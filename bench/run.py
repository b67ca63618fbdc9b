"""hidpas benchmark: train-detector, detect-stream and plan-forecast.

    python3 bench/run.py --workload detect-stream --seed 1 --seconds 30 --trace 0

Every invocation generates its inputs from --seed (bench/gen.py) and runs
only the workload's own command-line paths, one process at a time, each in
a fresh process with no extra threads:

    train-detector  learn-detector
    detect-stream   detect, with a detector trained first (untimed)
    plan-forecast   learn-plan, then forecast with the learned models

A run makes ROUNDS rounds, and each round starts one process per path. The
process sets up, then repeats the path's pass for its share of --seconds.
End-to-end metrics, each over the whole run:

    setup_s      median set-up time of the processes that load the models
                 (for train-detector, that load the program): process spawn
                 to the first timed operation
    peak_rss_mb  median high-water resident set of a path's processes; for
                 plan-forecast, the larger of its two paths
    job_p90_s    90th percentile of the pass times; for plan-forecast, the
                 sum of the percentiles of its two paths

The figures the paths are known by (train_s, detect_records_per_s, batch and
forecast latencies, accuracy and hit rate) are printed beside them, with
their bases.

With --trace 1 one round runs, and each of its processes makes a warm-up
pass, then set-up and a pass untraced, then the same traced; the per-layer
metrics come from the traced half and the spans are written to bench/out/.
The last line of standard output is the result as one JSON object; the
lines before it list each metric with its unit. Exits 1 when an output
fails a correctness check, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@dataclass(frozen=True)
class Workload:
    steps: tuple[str, ...]  # timed paths, in this order in every round
    setup_step: str  # the path whose set-up time is setup_s
    inputs: tuple[str, ...] = ()  # paths run once first, untimed, for the steps' inputs
    shares: tuple[float, ...] = (1.0,)  # each timed path's share of --seconds


WORKLOADS = {
    "train-detector": Workload(("train",), "train"),
    "detect-stream": Workload(("detect",), "detect", inputs=("train",)),
    # a learn-plan pass takes about six times a replay pass
    "plan-forecast": Workload(("learn", "forecast"), "forecast", shares=(0.8, 0.2)),
}
ROUNDS = 4  # fresh processes per timed path; setup_s is their median
STEP_TIMEOUT_S = 150

# Failure kinds that make the run incorrect (exit 1): the checks the
# acceptance suite enforces. Every other kind is counted in `failed`:
# operations the program skipped or degraded. N <= P <= Pi breaches are not
# failures: the engine does not guarantee the bracket after propagation
# (tests/test_possibility.py reports them, not asserts), so they are printed
# with their base, and counted per layer as possibility.sandwich_breaches.
CHECK_FAILURES = ("oracle_mismatch", "model_round_trip", "nondeterministic_output")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "job_p90_s": "s"}

# Per-layer metric -> (unit, span names summed, field): field is total_s,
# self_s or calls of the named spans.
SPAN_METRICS = {
    "features.load_kdd_s": ("s", ("features.load_kdd",), "total_s"),
    "features.gini_rank_s": ("s", ("features.gini_rank",), "total_s"),
    "features.discretize_s": ("s", ("features.build_rules", "features.to_discrete_dataset"),
                              "total_s"),
    "learning.k2_search_s": ("s", ("learning.k2_search",), "total_s"),
    "learning.count_statistics_calls": ("count", ("learning.count_statistics",), "calls"),
    "learning.fit_cpts_s": ("s", ("learning.fit_cpts",), "total_s"),
    "jtree.build_s": ("s", ("jtree.build_tree_for_net",), "total_s"),
    "possibility.transform_s": ("s", ("possibility.transformed_factors",), "total_s"),
    "jtree.calibrate_sum_product_s": ("s", ("jtree.calibrate_sum_product",), "total_s"),
    "jtree.calibrate_max_min_s": ("s", ("jtree.calibrate_max_min",), "total_s"),
    "jtree.calibrations": ("count", ("jtree.calibrate_sum_product",
                                     "jtree.calibrate_max_min"), "calls"),
    "jtree.marginal_s": ("s", ("jtree.marginal",), "total_s"),
    "possibility.query_self_s": ("s", ("possibility.query",), "self_s"),
    "possibility.queries": ("count", ("possibility.query",), "calls"),
    "detection.load_stream_s": ("s", ("detection.load_stream",), "total_s"),
    "detection.classify_self_s": ("s", ("detection.classify_connection",), "self_s"),
    "detection.write_alerts_s": ("s", ("detection.write_alerts_csv",), "total_s"),
    "detection.records": ("count", ("detection.classify_connection",), "calls"),
    "prediction.load_alert_log_s": ("s", ("prediction.load_alert_log",), "total_s"),
    "prediction.aggregate_s": ("s", ("prediction.aggregate_alerts",), "total_s"),
    "prediction.transactions_s": ("s", ("prediction.build_transactions",), "total_s"),
    "prediction.train_plan_s": ("s", ("prediction.train_plan_model",), "total_s"),
    "prediction.train_classifier_s": ("s", ("prediction.train_alert_classifier",), "total_s"),
    "prediction.classify_alert_self_s": ("s", ("prediction.classify_alert",), "self_s"),
    "prediction.predict_self_s": ("s", ("prediction.predict_attacks",), "self_s"),
    "agents.ipa_step_self_s": ("s", ("agents.ipa_step",), "self_s"),
    "agents.messages": ("count", ("agents.ipa_step",), "calls"),
    "model_io.save_s": ("s", ("model_io.save_detector", "model_io.save_plan",
                              "model_io.save_classifier"), "total_s"),
    "model_io.load_s": ("s", ("model_io.load_detector", "model_io.load_plan",
                              "model_io.load_classifier"), "total_s"),
}
# Per-layer metric -> counter recorded by the tracer or the log counter.
COUNT_METRICS = (
    "features.rows_read", "features.rows_skipped", "possibility.targets",
    "possibility.sandwich_breaches", "detection.alerts", "detection.prior_fallbacks",
    "detection.low_confidence", "prediction.hyper_alerts", "prediction.slots",
    "agents.predictions_emitted", "agents.predictions_skipped",
)
OTHER_LAYER_UNITS = {
    "learning.plan_edge_recall": "ratio", "detect_accuracy": "ratio",
    "jtree.max_cluster_vars": "count", "jtree.table_entries": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_s": "s", "failed_share": "ratio", "forecast_hit_rate": "ratio",
}


class BenchError(RuntimeError):
    """A step process failed; no result can be reported."""


def _spawn(step: str, args, data: str, work: str, index: int, extra: list[str],
           budget: float, trace: bool) -> dict:
    out = os.path.join(work, f"{step}-{index}.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "steps.py"), step, "--data", data,
           "--work", work, "--out", out, "--spawned-at", repr(spawned_at),
           "--seed", str(args.seed), "--round", str(index), "--budget", repr(budget)] + extra
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"step {step} ran past {STEP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"step {step} exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _inputs_for(step: str, results: dict[str, list[dict]]) -> list[str]:
    if step == "detect":
        return ["--model", results["train"][0]["reps"][0]["model"]]
    if step == "forecast":
        learned = results["learn"][0]["reps"][0]
        return ["--plan", learned["plan"], "--classifier", learned["classifier"]]
    return []


def run_steps(args, spec: Workload, data: str, work: str) -> dict[str, list[dict]]:
    """The untimed inputs, then rounds of the timed paths, one process each.

    Interleaving the rounds spreads each path's samples over the whole run,
    so a few seconds of machine slowdown cannot own one metric.
    """
    results: dict[str, list[dict]] = {step: [] for step in spec.inputs + spec.steps}
    for step in spec.inputs:
        results[step].append(_spawn(step, args, data, work, 0, _inputs_for(step, results),
                                    0.0, False))
    rounds = 1 if args.trace else ROUNDS
    spent = dict.fromkeys(spec.steps, 0.0)
    for index in range(rounds):
        for step, share in zip(spec.steps, spec.shares):
            t0 = time.perf_counter()
            results[step].append(_spawn(step, args, data, work, index, _inputs_for(step, results),
                                        args.seconds * share / rounds, bool(args.trace)))
            spent[step] += time.perf_counter() - t0
    for step in spec.steps:
        passes = sum(len(r["reps"]) for r in results[step])
        print(f"step {step}: {rounds} process(es), {passes} passes, {spent[step]:.2f} s")
    return results


def _reps(results: list[dict]) -> list[dict]:
    return [rep for r in results for rep in r["reps"]]


def _pooled(results: list[dict], key: str) -> list:
    return [x for rep in _reps(results) for x in rep[key]]


def _median_pass(results: list[dict]) -> float:
    return statistics.median(rep["pass_s"] for rep in _reps(results))


# On the shared 2-vCPU host of bench/baseline.json, speed moves between two
# levels about 1.5x apart every few seconds, and the share of time at each
# level changes from run to run and drifts over minutes. The median pass
# follows that share: over five seeds it moved by 19-32% (quartile distance
# over median). The 90th percentile sits at the slow level, which every run
# visits, and moved by 7-12%.
def _p90_pass(results: list[dict]) -> float:
    return _percentile([rep["pass_s"] for rep in _reps(results)], 90)


def end_to_end(spec: Workload, results: dict[str, list[dict]]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results[spec.setup_step]),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in results[step])
                           for step in spec.steps),
        "job_p90_s": sum(_p90_pass(results[step]) for step in spec.steps),
    }


def path_figures(spec: Workload, results: dict[str, list[dict]]
                 ) -> dict[str, tuple[float, str, str]]:
    """The figures each timed path is known by: name -> (value, unit, base)."""
    out = {}
    for step in spec.steps:
        rs = results[step]
        reps = _reps(rs)
        if step == "train":
            out["train_s"] = (_median_pass(rs), "s", f"median of {len(reps)} passes")
        elif step == "detect":
            records = sum(rep["records"] for rep in reps)
            batches = _pooled(rs, "batch_s")
            out["detect_records_per_s"] = (
                records / sum(rep["pass_s"] for rep in reps), "1/s", f"{records} records")
            for q in (50, 95, 99):
                out[f"detect_batch_p{q}_ms"] = (_percentile(batches, q) * 1000, "ms",
                                                f"of {len(batches)} batches")
            out["detect_accuracy"] = (rs[0]["guards"]["detect_accuracy"], "ratio",
                                      f"of {reps[0]['records']} records")
        elif step == "learn":
            out["learn_plan_s"] = (_median_pass(rs), "s", f"median of {len(reps)} passes")
        elif step == "forecast":
            latencies = _pooled(rs, "forecast_s")
            alerts = sum(rep["alerts"] for rep in reps)
            out["ipa_alerts_per_s"] = (
                alerts / sum(rep["pass_s"] for rep in reps), "1/s", f"{alerts} alerts")
            for q in (50, 95):
                out[f"forecast_p{q}_ms"] = (_percentile(latencies, q) * 1000, "ms",
                                            f"of {len(latencies)} forecasts")
            guards = rs[0]["guards"]
            out["forecast_hit_rate"] = (guards["forecast_hit_rate"], "ratio",
                                        f"of {guards['forecast_predictions']} predictions")
    return out


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def _guard(results: dict[str, list[dict]], step: str, name: str) -> float:
    """A quality guard of one path, or 0 when the workload does not run it."""
    return results[step][0]["guards"][name] if step in results else 0.0


def per_layer(spec: Workload, results: dict[str, list[dict]]) -> dict[str, float]:
    """Layer figures of the traced processes; 0 for layers the workload skips."""
    traces = [r["trace"] for step in spec.steps for r in results[step]]
    timed = {step: results[step] for step in spec.steps}
    summary: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for t in traces:
        for name, row in t["summary"].items():
            acc = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
    out = {name: sum(summary.get(s, {}).get(field, 0) for s in spans)
           for name, (_, spans, field) in SPAN_METRICS.items()}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    out["learning.plan_edge_recall"] = _guard(timed, "learn", "learning.plan_edge_recall")
    out["detect_accuracy"] = _guard(timed, "detect", "detect_accuracy")
    out["forecast_hit_rate"] = _guard(timed, "forecast", "forecast_hit_rate")
    out["jtree.max_cluster_vars"] = max(t["max_cluster_vars"] for t in traces)
    out["jtree.table_entries"] = sum(t["table_entries"] for t in traces)
    out["trace.overhead_share"] = (sum(t["traced_s"] for t in traces)
                                   / sum(t["untraced_s"] for t in traces))
    out["trace.unattributed_s"] = sum(t["unattributed_s"] for t in traces)
    return out


def _units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    units = {name: spec[0] for name, spec in SPAN_METRICS.items()}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(OTHER_LAYER_UNITS)
    return units


def check_outputs(results: dict[str, list[dict]]
                  ) -> tuple[int, dict[str, int], dict[str, list[int]]]:
    """Attempted operations, failures by kind and interval breaches by kind
    ([breaching, checked]), across every process."""
    attempted = 0
    failures: dict[str, int] = {}
    breaches: dict[str, list[int]] = {}
    for step, rs in results.items():
        attempted += sum(r["attempted"] for r in rs) + 1
        for r in rs:
            for kind, n in r["failures"].items():
                failures[kind] = failures.get(kind, 0) + n
            for kind, (n, checked) in r["breaches"].items():
                row = breaches.setdefault(kind, [0, 0])
                row[0] += n
                row[1] += checked
        if len({r["digest"] for r in rs}) != 1:  # outputs differ between processes
            failures["nondeterministic_output"] = failures.get("nondeterministic_output", 0) + 1
    return attempted, failures, breaches


def write_trace(args, spec: Workload, results: dict[str, list[dict]]) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    steps = []
    for step in spec.steps:
        for r in results[step]:
            t = r["trace"]
            steps.append({"step": step, "traced_s": t["traced_s"],
                          "unattributed_s": t["unattributed_s"], "summary": t["summary"],
                          **t["spans"]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "steps": steps}, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; figures are not comparable")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    # On SIGTERM unwind like an error, so the running step process is killed
    # and waited for and the working directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "hidpas", "__init__.py")):
        print(f"error: no hidpas sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gen

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    data = os.path.join(work, "data")
    try:
        t0 = time.perf_counter()
        gen.write_dataset(args.seed, data, gen.TINY if args.tiny else gen.GenParams())
        print(f"generated inputs for seed {args.seed} in {time.perf_counter() - t0:.2f} s")
        try:
            results = run_steps(args, spec, data, work)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures, breaches = check_outputs(results)
    failed = sum(failures.values())
    correct = not any(failures.get(kind) for kind in CHECK_FAILURES)
    print(f"failed_share {failed / attempted:.6g} ratio  ({failed} of {attempted} "
          f"operations: {failures or 'none'})")
    for kind, (n, checked) in sorted(breaches.items()):
        print(f"{kind} {n / checked if checked else 0.0:.6g} ratio  ({n} of {checked} "
              f"outputs breach N <= P <= Pi; reported, not failed)")
    if args.trace:
        values = per_layer(spec, results)
        values["failed_share"] = failed / attempted
        print(f"spans written to {os.path.relpath(write_trace(args, spec, results), ROOT)}")
    else:
        values = end_to_end(spec, results)
        for name, (value, unit, base) in path_figures(spec, results).items():
            print(f"{name} {value:.6g} {unit}  ({base}; printed, not compared)")
    units = _units(bool(args.trace))
    for name, value in values.items():
        if name != "failed_share":  # printed above with its base
            print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
