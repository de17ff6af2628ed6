"""Benchmark of the cyclic-leibniz library: seeded workloads, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload classify_stream --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``classify_stream`` -- parse, normalize, orbit and isomorphic, in process;
* ``oracle_audit``    -- build, Leibniz and Cayley-Hamilton checks, the
  linear-solve law and the generator search, in process;
* ``cli_cold``        -- one ``python -m cyclic_leibniz`` process per op.

BENCHMARK.json lists only the two in-process workloads.  ``cli_cold`` is
run by hand: almost all of its time is interpreter start and imports, whose
speed drifts by a quarter over minutes on a shared host, too much for its
figures to agree between two sets of runs.

Each measurement runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` the set-up is repeated in SETUP_RUNS fresh processes, half of
the extra ones before the timed loop and half after it so that they see more
of the host's slow and fast stretches, and ``setup_s`` is their median; the
end-to-end metrics come from an untraced closed loop of ``--seconds``.  With
``--trace 1`` an untraced loop and a traced loop share the ``--seconds``;
the per-layer metrics come from the traced loop, and the two loops'
ops_per_s give the tracing overhead.  A traced in-process run then makes
cold CLI calls for a few seconds, which give the ``cli.*`` layer metrics.

``ops_per_s`` is ops attempted per second of op time, so input generation
and output checks between ops do not count.  ``latency_tail_ms`` is the
highest percentile with at least ten samples beyond it, taken as the median
over up to ten consecutive blocks of the run; the report line names that
percentile, the ops per block and the sample count.

Standard output ends with two lines: a JSON report naming the machine, the
inputs, the sample count behind each percentile, ``failed_ratio`` and the
failures by kind; then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An op whose output shows one of the library's known numerical defects
(``KNOWN_DEFECT_KINDS`` in workloads.py) is a finding about the library, not
a broken op: it is counted in the report's ``failed_ratio``,
``known_defect_ops`` and failures by kind, and in the per-layer failure
counts of a traced run.  The result line's ``attempted`` counts every
checked op of the run, and ``failed`` the ones that failed in any other
way; ``correct`` is false when there is one.  Known defects strike a seeded
share of the inputs, so their count grows with however many ops a timed run
gets through; kept out of ``failed``, they leave it 0 on every run of
correct code.

Exit status is 0 when a result was printed, 2 when the checkout holds no
``src/cyclic_leibniz`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("classify_stream", "oracle_audit", "cli_cold")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170


def spawn_worker(args, workdir: Path, setup_only: bool) -> dict:
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    done = subprocess.run(
        [*argv, "--started", repr(started)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(summary: dict, setup_s: float) -> dict:
    return {
        "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
        "latency_tail_ms": {"value": summary["latency_tail_ms"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(layers: dict) -> dict:
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    return {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cyclic_leibniz" / "__init__.py").is_file():
        print(f"error: no package to measure at {ROOT / 'src' / 'cyclic_leibniz'}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        extra = 0 if args.trace else SETUP_RUNS - 1
        setups = [spawn_worker(args, workdir, setup_only=True)["setup_s"]
                  for _ in range(extra // 2)]
        result = spawn_worker(args, workdir, setup_only=False)
        setups += [spawn_worker(args, workdir, setup_only=True)["setup_s"]
                   for _ in range(extra - extra // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    setups.append(result["setup_s"])
    summary = result["traced"] if args.trace else result["untraced"]
    loops = [result[k] for k in ("untraced", "traced", "cli_sample") if k in result]
    failed = sum(loop["unexpected_failures"] for loop in loops)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
        },
        "commit": git_commit(),
        "loop": "closed, single-threaded, one process",
        "inputs": {"generator": "random.Random(seed)", "seed": args.seed,
                   "n_mix": result["n_mix"]},
        "ops": summary["attempted"],
        "failed_ratio": {"value": summary["failed"] / summary["attempted"],
                         "unit": "ratio"},
        "latency_p50_ms": {"value": summary["latency_p50_ms"],
                           "samples": summary["samples"]},
        "latency_tail_ms": {"value": summary["latency_tail_ms"],
                            "percentile": summary["tail_percentile"],
                            "samples_beyond": summary["tail_samples_beyond"],
                            "ops_per_block": summary["tail_block_ops"],
                            "samples": summary["samples"]},
        "setup_s": {"value": statistics.median(setups), "samples": setups},
        "known_defect_ops": summary["failed"] - summary["unexpected_failures"],
        "failures_by_kind": summary["failures_by_kind"],
        "failures_by_n": summary["failures_by_n"],
        "unexpected_failures": summary["unexpected_failures"],
    }
    print(json.dumps({"report": report}))
    metrics = (per_layer(result["layers"]) if args.trace
               else end_to_end(summary, statistics.median(setups)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(loop["attempted"] for loop in loops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
