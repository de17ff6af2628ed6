"""Smoke test of the benchmark: short runs of every workload, both modes.

    python3 -m pytest -q bench/smoke_test.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that no op fails in an unexpected way, that the output checks reject
wrong outputs, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from cyclic_leibniz import format_complex  # noqa: E402
from run import WORKLOADS  # noqa: E402
from worker import make_calls  # noqa: E402
from workloads import (  # noqa: E402
    CliCold,
    ClassifyStream,
    OracleAudit,
    expected_isomorphic,
)


def run_bench(workload: str, trace: int, root: Path = ROOT, seconds: float = 1.0):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report_line
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    report = json.loads(report_line)["report"]
    assert report["failed_ratio"]["unit"] == "ratio"
    assert report["failed_ratio"]["value"] == (
        report["known_defect_ops"] + report["unexpected_failures"]
    ) / report["ops"]
    assert report["unexpected_failures"] == result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload != "cli_cold":
        # The cold CLI calls after the traced loop reach every subcommand.
        assert all(m["value"] > 0 for name, m in result["metrics"].items()
                   if name.startswith("cli.") and name.endswith(".p50_ms"))


def test_every_layer_metric_is_mapped_once():
    table = json.loads((BENCH / "layer_map.json").read_text())["map"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed_ratio"}
    for metric in SPEC["per_layer"]:
        keys = [k for k in table if fnmatch.fnmatchcase(metric["name"], k)]
        assert len(keys) == 1, (metric["name"], keys)
    for entry in table.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("classify_stream", 0, root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def first_inputs(workload, count, workdir=None):
    stream = workload(3, workdir).inputs()
    return [next(stream) for _ in range(count)]


def test_classify_check_flags_wrong_verdict():
    for inp in first_inputs(ClassifyStream, 20):
        out = ClassifyStream.run(inp, make_calls(None))
        assert ClassifyStream.check(inp, out) == []
        form, members, verdict = out
        wrong = "iso_false_negative" if verdict else "iso_false_positive"
        assert ClassifyStream.check(inp, (form, members, not verdict)) == [wrong]


def test_expected_isomorphic_rule():
    a, b = 0.5 + 0j, 1.5j
    assert expected_isomorphic((0j, 0j), (0j, 0j))
    assert expected_isomorphic((0j, a, 0j), (0j, b, 0j))
    assert not expected_isomorphic((0j, a, a), (0j, b, 0j))
    assert not expected_isomorphic((a, 0j, 0j), (0j, b, 0j))


def test_oracle_check_flags_rejection_and_disagreement():
    for inp in first_inputs(OracleAudit, 20):
        if inp["n"] >= 12:
            continue
        A, leibniz, cayley, law, searched = OracleAudit.run(inp, make_calls(None))
        assert OracleAudit.check(inp, (A, leibniz, cayley, law, searched)) == []
        assert OracleAudit.check(inp, (A, leibniz, cayley, None, not searched)) == [
            "generator_rejected", "disagreement"
        ]
        assert OracleAudit.check(inp, (A, leibniz, cayley, law + 1e-3, searched)) == [
            "law_deviation"
        ]


def test_cli_check_flags_wrong_exit_and_output(tmp_path):
    for inp in first_inputs(CliCold, 6, tmp_path):
        assert CliCold.check(inp, (inp["exit"] + 1, "")) == [
            f"{inp['sub']}.exit{inp['exit'] + 1}"
        ]
        assert CliCold.check(inp, (inp["exit"], "tolerance: 1e-09\n")) == [
            f"{inp['sub']}.output"
        ]
    mul = first_inputs(CliCold, 6, tmp_path)[5]
    assert mul["sub"] == "mul"
    right = "product: (" + ", ".join(format_complex(v) for v in mul["product"]) + ")"
    assert CliCold.check(mul, (0, right)) == []
    wrong = "product: (" + ", ".join(format_complex(v + 1) for v in mul["product"]) + ")"
    assert CliCold.check(mul, (0, wrong)) == ["mul.output"]
