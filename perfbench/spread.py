"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a heatcalc checkout::

    python3 perfbench/spread.py --seeds 10                 # every workload
    python3 perfbench/spread.py --workload certify --seeds 5 --out spread.json

Each seed is one run of ``perfbench/run.py --trace 0`` with the
``run_seconds`` of BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  A change may only be claimed against a baseline when its
median moves by more than this spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = one_run(name, seed, spec["run_seconds"])
            results.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary[name] = {
            metric: summarize([r["metrics"][metric]["value"] for r in results], bound)
            for metric, bound in bounds.items()
        }
        summary[name]["all_correct"] = all(r["correct"] for r in results)
        for metric, s in summary[name].items():
            if metric == "all_correct":
                continue
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
