"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload sweep_lowres --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ``src/`` next to ``bench/``.
The workload's passes repeat while another fits in ``--seconds`` (at least
two for a sweep, so its CSVs can be compared).  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate and
it carries the per-layer metrics instead.  End-to-end times are scaled to
a nominal host speed by a reference kernel timed between steps (see
speedref.py); the unscaled values are printed beside them.  The full result
(provenance, per-pass figures, every gate failure) is written to
``.bench_build/quantmimo-bench/<workload>-seed<n>-trace<t>/result.json``,
and the spans of a traced run to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per BLAS pool, set before numpy loads and inherited by the
# set-up probes.  numpy and scipy each bundle an OpenBLAS whose default pool
# has nproc threads: three threads on two cores.  The workloads' matrix
# products are small; on sweep_lowres a second BLAS thread left the wall
# time unchanged, added 60% CPU time (spinning) and made timings noisier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import speedref  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_build" / "quantmimo-bench"
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 120
# per-layer stats that count work, so repeat exactly; the rest are times
COUNT_STATS = {"calls", "entries", "samples", "trials", "infeasible", "bytes", "useful_ratio"}


def measure_setup(workload, seed):
    """(set-up seconds, reference seconds) of SETUP_RUNS fresh processes each.

    Set-up is the time from process start to ready; each is paired with a
    fresh interpreter importing numpy and scipy, timed just after it.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append((float(done.stdout.split()[-1]) - start, speedref.import_s()))
    return samples


def run_passes(workload, out_dir, seconds, trace, probe=None):
    """Untraced passes, and with trace every second pass traced.

    A pass starts only if one as long as the last ends within ``seconds``,
    so that a run takes about ``seconds`` whatever the length of a pass.
    """
    untraced, traced = [], []
    min_passes = 2 if trace else workload.min_passes
    start = now = time.perf_counter()
    index, last_pass = 0, 0.0
    while index < min_passes or now - start + last_pass <= seconds:
        if trace and index % 2 == 1:
            tracer = Tracer()
            with tracer.installed(), tracer.span("bench.pass"):
                traced.append((workload.run_pass(out_dir, index), tracer))
        else:
            untraced.append(workload.run_pass(out_dir, index, probe))
        index += 1
        last_pass, now = time.perf_counter() - now, time.perf_counter()
    return untraced, traced


def step_medians(passes, scale):
    """key -> (median wall time, median CPU time) of that step over the run.

    scale(segment) is the factor each timing of a step is multiplied by.
    """
    samples = {}
    for p in passes:
        for segment in p.segments:
            factor = scale(segment)
            samples.setdefault(segment.key, []).append((factor * segment.wall_s, factor * segment.cpu_s))
    return {key: tuple(statistics.median(column) for column in zip(*pairs)) for key, pairs in samples.items()}


def end_to_end_values(setup_s, passes, scale):
    """The end-to-end metrics; every step's time is multiplied by scale(step).

    Each step (a sweep point, the CSV write, an oracle call) counts with the
    median of its repeats in the run; wall_s and cpu_s add those up over one
    pass, and the percentiles are over operations.  Sweep latencies form two
    clusters (ul points take about twice as long as dl), and a median pooled
    over all of them sits in the gap between the clusters, where it moved by
    18% from run to run.
    """
    typical = step_medians(passes, scale)
    steps = passes[0].segments
    wall = sum(typical[s.key][0] for s in steps)
    operations = [typical[key][0] for key in dict.fromkeys(s.key for s in steps if s.operation)]
    p50, p90 = np.percentile(operations, [50, 90])
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": sum(typical[s.key][1] for s in steps),
        "points_per_s": passes[0].points / wall,
        "trials_per_s": passes[0].trials / wall,
        "point_p50_s": float(p50),
        "point_p90_s": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_value(summary, layer, stat):
    """One per-layer figure of one traced pass, from the tracer summary."""
    if layer.endswith(".module"):
        prefix = layer[: -len("module")]
        return sum(s["self_s"] for name, s in summary.items() if name.startswith(prefix))
    stats = summary.get(layer, {})
    if stat == "ns_per_entry":
        return 1e9 * stats["self_s"] / stats["entries"] if stats.get("entries") else 0.0
    if stat == "useful_ratio":
        return stats["useful"] / stats["calls"] if stats.get("calls") else 0.0
    if stat == "infeasible":
        return stats.get("errors", 0)
    return stats.get(stat, 0)


def per_layer_values(names, untraced, traced):
    """Counts from the first traced pass, times as medians over traced passes."""
    per_pass = []
    for _, tracer in traced:
        summary = tracer.summary()
        wall = summary.pop("bench.pass")["total_s"]
        values = {}
        for name in names:
            layer, stat = name.rsplit(".", 1)
            if name == "trace.overhead_ratio":
                values[name] = wall / statistics.median([p.wall_s for p in untraced])
            elif name == "trace.self_coverage":
                values[name] = sum(s["self_s"] for s in summary.values()) / wall
            else:
                values[name] = _layer_value(summary, layer, stat)
        per_pass.append(values)
    counted = {n for n in names if n.rsplit(".", 1)[1] in COUNT_STATS}
    out = {n: (per_pass[0][n] if n in counted else statistics.median([v[n] for v in per_pass])) for n in names}
    counts_repeat = all(v[n] == per_pass[0][n] for v in per_pass for n in counted)
    return out, counts_repeat


def _git_describe():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"], capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    task_dir = Path("/proc/self/task")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "git_describe": _git_describe(),
        "workload": workload.name,
        "seed": seed,
        **workload.describe(),
    }


def main(argv=None):
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot load the library: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed)
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # a traced run takes no speed probe: its time would fall in the spans
    probe = None if args.trace else speedref.SpeedProbe()
    untraced, traced = run_passes(workload, out_dir, args.seconds, args.trace, probe)

    every_pass = untraced + [result for result, _ in traced]
    reference = gate.load_reference()[args.workload]
    if workload.kind == "sweep":
        outcome = gate.check_sweep(
            [p.output for p in every_pass], [p.csv_path.read_bytes() for p in every_pass], reference
        )
    else:
        outcome = gate.check_oracle([p.output for p in every_pass], reference, workloads.ORACLE_TOLERANCE)

    names = [m["name"] for m in metric_specs]
    counts_repeat = None
    if args.trace:
        values, counts_repeat = per_layer_values(names, untraced, traced)
        with open(out_dir / "spans.jsonl", "w") as fh:
            for index, (_, tracer) in enumerate(traced):
                tracer.write_jsonl(fh, traced_pass=index)
    else:
        # set-up time is scaled by its median ratio to the reference import
        setup_s = speedref.IMPORT_NOMINAL_S * statistics.median(own / ref for own, ref in setup)
        values = end_to_end_values(setup_s, untraced, lambda step: probe.scale(step.start, step.start + step.wall_s))
        raw = end_to_end_values(statistics.median(own for own, _ in setup), untraced, lambda step: 1.0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    timed_steps = sum(s.operation for p in untraced for s in p.segments)

    detail = {
        "provenance": provenance(workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_and_import_s_samples": setup,
        "speed_probe_s_samples": list(zip(probe.times, probe.samples)) if probe else None,
        "speed_scale": probe.scale() if probe else None,
        "unscaled_metrics": None if args.trace else raw,
        "passes": [
            {"traced": i >= len(untraced), "wall_s": p.wall_s, "cpu_s": p.cpu_s, "points": p.points, "trials": p.trials,
             "steps": [[s.key, s.start, s.wall_s, s.cpu_s] for s in p.segments]}
            for i, p in enumerate(every_pass)
        ],
        "operation_samples": timed_steps,
        "failed_frac": outcome.failed / outcome.attempted,
        "gate_failures": outcome.failures,
        "gate_info": outcome.info,
        "counts_repeat_across_traced_passes": counts_repeat,
        "metrics": metrics,
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
        fh.write("\n")

    print(f"{args.workload} seed {args.seed}: {len(every_pass)} passes, {outcome.attempted - outcome.failed}"
          f"/{outcome.attempted} operations correct, results in {out_dir.relative_to(ROOT)}")
    for name, metric in metrics.items():
        unscaled = f"   ({detail['unscaled_metrics'][name]:.6g} unscaled)" if not args.trace else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{unscaled}")
    if not args.trace:
        print(f"  times scaled to the nominal speed step by step, by {detail['speed_scale']:.4f} over the run"
              f" ({len(probe.samples)} kernel timings)")
        print(f"  {'failed_frac':<44} {detail['failed_frac']:>14.6g} 1  ({outcome.failed} of {outcome.attempted})")
        print(f"  operation timings: {timed_steps} (median of each step kept); set-up samples: {len(setup)}")
    for key, value in outcome.info.items():
        if key != "curves":
            print(f"  {key}: {json.dumps(value)}")
    for line in outcome.failures[:20]:
        print(f"gate failure: {line}", file=sys.stderr)
    print("provenance " + json.dumps(detail["provenance"], default=str))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
