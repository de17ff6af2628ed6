"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads classify_stream oracle_audit --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and the
``run_seconds`` of BENCHMARK.json, one run at a time, then prints for each
workload and end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median
next to the metric's bound.  With ``--log``, each run's report and result
lines are appended to that file, so one set of runs can be compared with a
later one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--log", type=Path)
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *_, report, line = done.stdout.splitlines()
            result = json.loads(line)
            if args.log:
                with args.log.open("a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "report": json.loads(report)["report"],
                                          "result": result}) + "\n")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"  {workload:16s} {metric['name']:16s} median={median:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                  f"bound={metric['bound']} spread/bound={spread / metric['bound']:.3f}")
    print(f"largest spread/bound, setup_s excluded: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
