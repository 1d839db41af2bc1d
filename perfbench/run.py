"""Run one qkd3 benchmark workload and print its metrics.

    python3 perfbench/run.py --workload soundness --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics; the lines before it
print the figures for a reader, wall-clock ones included.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(see README.md).

This process only orchestrates.  The work runs in fresh interpreters
started from this file with --child: SETUP_SAMPLES - 1 that only import
qkd3 and run one warm-up item (set-up time), then one that also runs the
timed loop.  qkd3 is imported from src/ of the same checkout; without it
the benchmark exits with code 2 and prints no result.
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
import tempfile
from pathlib import Path
from time import monotonic, perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("soundness", "witness", "sweeps", "simulate")

SETUP_SAMPLES = 5
SETUP_PROBES = 5
SPAN_SUM_TOL = 1e-6  # relative; float rounding over ~1e5 spans stays far below
RUN_BUDGET_S = 175.0
# The end-to-end metrics: name -> (unit, key in a harness.measure summary).
END_TO_END = {
    "setup_s": ("s", None),
    "wall_s": ("s", "pass_s"),
    "items_per_s": ("1/s", "items_per_s"),
    "item_p50_ms": ("ms", "item_p50_ms"),
    "item_p95_ms": ("ms", "item_p95_ms"),
    "peak_rss_mib": ("MiB", None),
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (
        ("calls_per_call", "calls/call"),
        ("ns_per_round", "ns/round"),
        ("bytes_per_round", "B/round"),
        ("_us", "us"),
        ("_frac", "fraction"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    """Environment for workload processes: qkd3 from src/, one thread per BLAS."""
    env = dict(os.environ)
    env.pop("QKD3_THREADS", None)  # the CLI then uses os.cpu_count() threads
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------- child side


def _setup(workload_name: str, seed: int, workdir: Path):
    """Import qkd3 and run one warm-up item; return the workload and the
    set-up time: {"setup_s": wall time at the nominal host speed,
    "setup_wall_s": raw wall time, "setup_cpu_s": CPU time}."""
    wall, cpu = perf_counter(), process_time()
    import qkd3
    import workloads

    if not Path(qkd3.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"qkd3 imported from {qkd3.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    item = workload.warm_up_item()
    if not workload.check(item, workload.run(item)):
        sys.exit(f"{workload_name}: warm-up item {item!r} failed its check")
    wall, cpu = perf_counter() - wall, process_time() - cpu
    from harness import host_scale, probe

    # Probes before the set-up would import numpy ahead of qkd3 and take
    # that import out of the set-up time, so the probes follow it.
    speed = statistics.median(probe() for _ in range(SETUP_PROBES))
    times = {"setup_s": wall * host_scale(speed, speed), "setup_wall_s": wall, "setup_cpu_s": cpu}
    return workload, times


def _trace(workload) -> dict:
    """Traced and untraced runs of the same passes, alternating which goes first."""
    from harness import Tally, Timings, run_pass
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    traced, untraced = Tally(), Tally()
    traced_wall = traced_cpu = untraced_cpu = 0.0
    for k in range(workload.trace_passes):
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if not with_trace:
                untraced_cpu += run_pass(workload, k, untraced, Timings())[1]
                continue
            tracer.install()
            try:
                wall, cpu = run_pass(
                    workload, k, traced, Timings(), lambda i: setattr(tracer, "item", i)
                )
            finally:
                tracer.uninstall()
            traced_wall += wall
            traced_cpu += cpu
    metrics = layer_metrics(tracer.spans)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.remainder_s"] = traced_wall - metrics["trace.layer_s"]
    # With one thread no two spans overlap, so the self times must add up
    # to the time inside top-level spans; a gap means a span whose parent is
    # missing or does not contain it.  Sweeps run rows on the CLI's worker
    # threads in parallel, where spans overlap.
    gap = metrics["trace.self_sum_s"] - metrics["trace.layer_s"]
    span_errors = []
    if not workload.overlapping_spans and abs(gap) > SPAN_SUM_TOL * metrics["trace.layer_s"]:
        span_errors.append(f"layer self times sum to {gap:+.3g} s more than the layer spans")
    metrics["trace.overhead_frac"] = traced_cpu / untraced_cpu - 1.0
    metrics["trace.items"] = traced.attempted
    metrics["epbound.exact_bound.witness_defect_frac"] = traced.defect_frac
    probe = getattr(workload, "alloc_bytes_per_round", None)
    metrics["simulate.run_protocol.alloc_bytes_per_round"] = probe() if probe else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
    return {
        "metrics": metrics,
        "attempted": traced.attempted + untraced.attempted,
        "failed": traced.failed + untraced.failed,
        "defects": traced.defects + untraced.defects,
        "examples": traced.examples + untraced.examples,
        "span_errors": span_errors,
    }


def child_main(args) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as tmp:
        workload, setup = _setup(args.workload, args.seed, Path(tmp))
        if args.child == "setup":
            print(json.dumps(setup))
            return 0
        if args.trace:
            result = _trace(workload)
        else:
            from harness import measure

            m = measure(workload, args.seconds)
            tally = m.pop("tally")
            result = {
                "metrics": m,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "defects": tally.defects,
                "examples": tally.examples,
                "span_errors": [],
            }
    import numpy

    result.update(setup)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "QKD3_THREADS": os.environ.get("QKD3_THREADS", "unset"),
    }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------- orchestrator side


def _run_child(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} process did not finish within the run budget")
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(res: dict, setups: list) -> dict:
    """Print the raw wall-clock and CPU figures; return the bounded metrics."""
    m, attempted = res["metrics"], res["attempted"]
    probes = sorted(m["probes"])
    print(f"loop {m['loop_s']:.2f} s: {attempted} items in {m['passes']} passes; "
          f"{m['scaled']['beyond_p95']} item latencies beyond p95; host probe "
          f"{probes[0] * 1e3:.2f} / {statistics.median(probes) * 1e3:.2f} / "
          f"{probes[-1] * 1e3:.2f} ms (min / median / max)")
    print(f"  {'failed_frac':<20} {res['failed'] / attempted:>14.6g} fraction")
    print(f"  {'defect_frac':<20} {res['defects'] / attempted:>14.6g} fraction")
    print(f"  {'':<20} {'raw wall clock':>14} {'CPU time':>14}   (printed, not bounded)")
    print(f"  {'setup_s':<20} {statistics.median(r['setup_wall_s'] for r in setups):>14.6g} "
          f"{statistics.median(r['setup_cpu_s'] for r in setups):>14.6g} s")
    for name, (unit, key) in END_TO_END.items():
        if key is not None:
            print(f"  {name:<20} {m['wall'][key]:>14.6g} {m['cpu'][key]:>14.6g} {unit}")
    print(f"bounded: wall clock scaled to the nominal host speed; setup_s median over "
          f"{len(setups)} interpreters:")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    for name, (_, key) in END_TO_END.items():
        if key is not None:
            values[name] = m["scaled"][key]
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.child:
        return child_main(args)

    if not (SRC / "qkd3" / "__init__.py").is_file():
        print(f"qkd3 sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_BUDGET_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_run_child(args, "setup", deadline))
    res = _run_child(args, "measure", deadline)
    setups.append(res)

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["span_errors"]
    for example in res["examples"] + res["span_errors"]:
        print(f"failure: {example}", file=sys.stderr)
    machine = " ".join(f"{k}={v}" for k, v in res["machine"].items())
    print(f"qkd3 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} items failed; "
          f"{res['defects']} more show the known witness defect) correct={correct}")

    if args.trace:
        m = res["metrics"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(m.items())}
        print(f"traced wall {m['trace.wall_s']:.4f} s = layer spans "
              f"{m['trace.layer_s']:.4f} s + remainder {m['trace.remainder_s']:.4f} s; "
              f"layer self times sum to {m['trace.self_sum_s']:.4f} s; "
              f"CPU overhead {m['trace.overhead_frac']:+.4f}")
    else:
        metrics = _end_to_end(res, setups)
    for name, entry in metrics.items():
        print(f"  {name:<55} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
