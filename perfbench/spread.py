"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--json out.json] [--against earlier.json]

Every workload of BENCHMARK.json runs once per seed, one run at a time,
for the run length fixed there.  For every workload and end-to-end metric
this prints the median over the runs, the quartiles (statistics.quantiles,
n=4) and the spread, which is the interquartile distance as a share of the
median, next to the bound fixed in BENCHMARK.json.  With --against, it
also prints each median's ratio to the median in an earlier --json file,
and whether that ratio is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worsening(better: str, median: float, earlier: float) -> float:
    """Share by which median is worse than earlier (negative when better)."""
    ratio = median / earlier
    return ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write the summaries to this file")
    parser.add_argument("--against", help="an earlier --json file to compare medians with")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    report = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
        },
        "seeds": args.seeds,
        "seconds": spec["run_seconds"],
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, spec["run_seconds"]) for s in parse_seeds(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        values = {name: [r["metrics"][name]["value"] for r in runs] for name in metrics}
        summaries = {name: summarize(v) for name, v in values.items()}
        for name, s in summaries.items():
            if earlier is not None:
                before = earlier[workload]["metrics"][name]["median"]
                s["ratio_to_earlier"] = s["median"] / before
                s["worse_by"] = worsening(metrics[name]["better"], s["median"], before)
        report[workload] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "failed_frac": failed / attempted,
            "values": values,
            "metrics": summaries,
        }
        print(f"{workload}: {len(runs)} runs, correct={report[workload]['correct']}, "
              f"failed_frac={failed / attempted:.6g}")
        for name, s in summaries.items():
            bound = metrics[name]["bound"]
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            line = (f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
            if "worse_by" in s:
                verdict = "WORSE THAN BOUND" if s["worse_by"] > bound else "within bound"
                line += f"; vs earlier x{s['ratio_to_earlier']:.4f} ({verdict})"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
