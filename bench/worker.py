"""One benchmark process: set up a workload, run its closed loop, print a summary.

``run.py`` starts this file in a fresh interpreter for every measurement so
that set-up time includes the interpreter start and the package import.
The op loop is single-threaded and closed: the next op starts only after the
previous one has returned and been checked.  Only the op itself is timed;
input generation and output checks happen between timed spans.

The last line of standard output is one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cyclic_leibniz import NotAGeneratorError  # noqa: E402
from workloads import (  # noqa: E402
    CliCold,
    LAYER_FUNCTIONS,
    N_MIX,
    ROTATION,
    WORKLOADS,
    cli_env,
    cli_runner,
    KNOWN_DEFECT_KINDS,
)

# Layers whose mean call time is also reported per op dimension.
PER_N_LAYERS = (
    "classification.normalize",
    "classification.orbit",
    "classification.isomorphic",
    "algebra.verify_leibniz",
    "algebra.cayley_hamilton_residual",
    "oracle.law_by_linear_solve",
    "oracle.iso_by_search",
)

# Per-layer failure counters and the failure kind each one counts.
FAILURE_COUNTERS = {
    "oracle.not_a_generator": "not_a_generator",
    "oracle.generator_rejected": "generator_rejected",
    "oracle.disagreements": "disagreement",
    "oracle.law_deviations": "law_deviation",
    "algebra.cayley_exceeded": "cayley_exceeded",
}

# Count of work done at a layer boundary, computed from the call's arguments.
WORK = {
    "classification.orbit": (("classification.orbit_members", lambda gamma: len(gamma) + 1),),
    "algebra.verify_leibniz": (
        ("algebra.leibniz_macs", lambda A: 3 * A.n**5),
        ("algebra.table_bytes", lambda A: 16 * A.n**3),
    ),
}

# Child interpreters that split a CLI call's wall time into start, imports
# and work; each is timed like an op but not counted as one.
BASELINES = {
    "interpreter": ["-c", "pass"],
    "numpy": ["-c", "import numpy"],
    "package": ["-c", "import cyclic_leibniz.cli"],
}
BASELINE_ROUNDS_MIN = 5

# The in-process workloads call no CLI, so their traced run ends with this
# many seconds of cold CLI calls over documents of the same seed, which give
# the cli.* layer metrics.
CLI_SAMPLE_SECONDS = 8.0

TAIL_BEYOND = 10
TAIL_BLOCKS = 10
TAIL_BLOCK_MIN = 100


class Tracer:
    """Call counts, busy time and work counts per layer and per op dimension.

    Every traced call is a span whose parent is the op in progress; the op's
    dimension ``n`` is the attribute spans of one op share.  Spans are folded
    into sums as they end, so memory stays flat however long the run.
    """

    def __init__(self):
        self.n = None
        self.busy = defaultdict(lambda: [0, 0.0])  # (layer, n) -> [calls, seconds]
        self.work = Counter()

    def wrap(self, layer, fn):
        counters = WORK.get(layer, ())

        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                entry = self.busy[(layer, self.n)]
                entry[0] += 1
                entry[1] += elapsed
                for name, count in counters:
                    self.work[name] += count(args[0])

        return traced


def make_calls(tracer: Tracer | None) -> SimpleNamespace:
    calls = {}
    for layer, fn in LAYER_FUNCTIONS.items():
        calls[layer.rsplit(".", 1)[1]] = tracer.wrap(layer, fn) if tracer else fn
    calls["cli"] = cli_runner(ROOT)
    return SimpleNamespace(**calls)


def failure_kind(exc: BaseException) -> str:
    if isinstance(exc, NotAGeneratorError):
        return "not_a_generator"
    return f"exception.{type(exc).__name__}"


def time_baselines(timings: dict[str, list[float]]) -> None:
    for name, argv in BASELINES.items():
        start = perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, check=True,
                       env=cli_env(), capture_output=True, timeout=60)
        timings[name].append(perf_counter() - start)


class Samples:
    """Latency and tag of every op; dimension and kinds of the failed ones.

    Latencies sit in a flat array, which the garbage collector does not
    traverse, so the record of a long run adds next to nothing to the
    collections that the measured ops trigger.
    """

    def __init__(self):
        self.seconds = array("d")
        self.tags = []  # the CLI subcommand of each op, else None
        self.failures = []  # (n, kinds) of each failed op

    def add(self, seconds: float, n: int, tag, kinds) -> None:
        self.seconds.append(seconds)
        self.tags.append(tag)
        if kinds:
            self.failures.append((n, tuple(kinds)))

    def __len__(self) -> int:
        return len(self.seconds)


def measure(workload, calls, seconds, tracer=None, baselines=None):
    """Run ops until ``seconds`` of wall time have passed.

    Returns (ready, samples) where ``ready`` is the monotonic clock when the
    first op's inputs were ready.  With ``baselines`` set, one round of
    baseline processes runs after every ``workload.baseline_every`` ops.
    """
    stream = workload.inputs()
    inp = next(stream)
    ready = time.monotonic()
    samples = Samples()
    shown = set()
    deadline = perf_counter() + seconds
    while True:
        if tracer:
            tracer.n = inp["n"]
        start = perf_counter()
        try:
            out = workload.run(inp, calls)
        except Exception as exc:  # a failed op is counted, never fatal
            elapsed = perf_counter() - start
            kinds = [failure_kind(exc)]
            if kinds[0] not in shown:
                shown.add(kinds[0])
                traceback.print_exc(file=sys.stderr)
        else:
            elapsed = perf_counter() - start
            kinds = workload.check(inp, out)
        samples.add(elapsed, inp["n"], inp.get("sub"), kinds)
        if baselines is not None and len(samples) % workload.baseline_every == 0:
            time_baselines(baselines)
        if perf_counter() >= deadline:
            return ready, samples
        inp = next(stream)


def tail(latencies) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    The run is cut into up to TAIL_BLOCKS consecutive blocks of at least
    TAIL_BLOCK_MIN ops; the result is the median over blocks of each block's
    tail, so a burst of host stalls in one stretch of the run does not set
    it.  Returns (value, percentile, ops per block).
    """
    count = len(latencies)
    blocks = max(1, min(TAIL_BLOCKS, count // TAIL_BLOCK_MIN))
    size = count // blocks
    if size <= TAIL_BEYOND:
        return max(latencies), 100.0, size
    values = [
        sorted(latencies[b * size:(b + 1) * size])[size - TAIL_BEYOND - 1]
        for b in range(blocks)
    ]
    return statistics.median(values), 100.0 * (size - TAIL_BEYOND) / size, size


def summarize(samples: Samples) -> dict:
    latencies = samples.seconds
    by_kind = Counter(kind for _, kinds in samples.failures for kind in kinds)
    by_n = Counter(n for n, _ in samples.failures)
    unexpected = sum(
        1 for _, kinds in samples.failures if not KNOWN_DEFECT_KINDS.issuperset(kinds)
    )
    tail_s, tail_percentile, block = tail(latencies)
    return {
        "attempted": len(samples),
        "failed": len(samples.failures),
        "unexpected_failures": unexpected,
        "ops_per_s": len(samples) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": TAIL_BEYOND if block > TAIL_BEYOND else 0,
        "tail_block_ops": block,
        "samples": len(samples),
        "failures_by_kind": dict(sorted(by_kind.items())),
        "failures_by_n": {str(n): c for n, c in sorted(by_n.items())},
    }


def layer_metrics(tracer: Tracer, samples, cli_samples, baselines, untraced,
                  traced) -> dict:
    metrics = {}
    op_seconds = sum(samples.seconds)
    for layer in LAYER_FUNCTIONS:
        calls = sum(tracer.busy[(layer, n)][0] for n in N_MIX)
        busy = sum(tracer.busy[(layer, n)][1] for n in N_MIX)
        metrics[f"{layer}.mean_us"] = 1e6 * busy / calls if calls else 0.0
        metrics[f"{layer}.busy_share"] = busy / op_seconds
        if layer in PER_N_LAYERS:
            for n in N_MIX:
                n_calls, n_busy = tracer.busy[(layer, n)]
                metrics[f"{layer}.mean_us.n{n}"] = 1e6 * n_busy / n_calls if n_calls else 0.0
    for counters in WORK.values():
        for name, _ in counters:
            metrics[name] = tracer.work[name]
    kinds = traced["failures_by_kind"]
    for name, kind in FAILURE_COUNTERS.items():
        metrics[name] = kinds.get(kind, 0)

    medians = {name: statistics.median(t) for name, t in baselines.items()}
    metrics["cli.interpreter_ms"] = 1e3 * medians["interpreter"]
    metrics["cli.import_numpy_ms"] = 1e3 * (medians["numpy"] - medians["interpreter"])
    metrics["cli.import_package_ms"] = 1e3 * (medians["package"] - medians["numpy"])
    cli_ops = [t for t, tag in zip(cli_samples.seconds, cli_samples.tags) if tag]
    metrics["cli.work_ms"] = (
        1e3 * (statistics.median(cli_ops) - medians["package"]) if cli_ops else 0.0
    )
    for sub in ROTATION:
        times = [t for t, tag in zip(cli_samples.seconds, cli_samples.tags)
                 if tag == sub]
        metrics[f"cli.{sub}.p50_ms"] = 1e3 * statistics.median(times) if times else 0.0

    metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
    metrics["trace.overhead_share"] = 1 - traced["ops_per_s"] / untraced["ops_per_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="monotonic clock of the parent just before it spawned us")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"numpy": np.__version__, "n_mix": N_MIX}
    if args.setup_only:
        next(workload.inputs())
        result["setup_s"] = time.monotonic() - args.started
        print(json.dumps(result))
        return 0

    # A traced run splits its time between an untraced and a traced loop.
    seconds = args.seconds / 2 if args.trace else args.seconds
    ready, samples = measure(workload, make_calls(None), seconds)
    result["setup_s"] = ready - args.started
    result["untraced"] = summarize(samples)
    if args.trace:
        tracer = Tracer()
        baselines = defaultdict(list)
        _, samples = measure(
            workload, make_calls(tracer), seconds, tracer,
            baselines if workload.baseline_every else None,
        )
        result["traced"] = summarize(samples)
        cli_samples = samples
        if not isinstance(workload, CliCold):
            _, cli_samples = measure(
                CliCold(args.seed, args.workdir), make_calls(None),
                CLI_SAMPLE_SECONDS, baselines=baselines,
            )
            result["cli_sample"] = summarize(cli_samples)
        while len(baselines["interpreter"]) < BASELINE_ROUNDS_MIN:
            time_baselines(baselines)
        result["layers"] = layer_metrics(
            tracer, samples, cli_samples, baselines, result["untraced"],
            result["traced"],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
