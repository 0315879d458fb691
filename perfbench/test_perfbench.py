"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

from semhetnet import harness, solver  # noqa: E402  (run.py puts src/ on the path)
from semhetnet.config import ScenarioConfig  # noqa: E402
from semhetnet.solver import Allocation  # noqa: E402


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit_and_direction(workload, trace, capsys):
    originals = (solver.two_stage, harness.build_scenario, bench.FeasibleSets.mask)
    assert bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], scale=0.1) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   and f"{m['better']} is better" in line for line in lines)
    assert (solver.two_stage, harness.build_scenario, bench.FeasibleSets.mask) == originals


def test_gate_counts_over_budget_allocation_as_failed(monkeypatch):
    cell = bench.Cell(ScenarioConfig(num_users=30), 1)
    run_method = harness.run_method

    def over_budget(scenario, method, **kwargs):
        out = run_method(scenario, method, **kwargs)
        if method != "two-stage":
            return out
        return harness.MethodOutcome(method=method, association=out.association,
                                     allocation=Allocation(n=out.allocation.n * 1.5),
                                     report=out.report)

    clean = bench.run_pass([cell], bench.random.Random(0), {}, bench.RefClock())
    assert clean.attempted == 3 and clean.problems == []
    monkeypatch.setattr(harness, "run_method", over_budget)
    bad = bench.run_pass([cell], bench.random.Random(0), {}, bench.RefClock())
    assert bad.attempted == 3
    assert any("two-stage: budget overshoot" in p for p in bad.problems)


def test_gate_counts_failed_validate_check(monkeypatch):
    cell = bench.Cell(ScenarioConfig(num_users=20), 1, validate=ScenarioConfig(num_users=20))
    monkeypatch.setattr(harness, "validate", lambda config: [
        harness.Check("quantile_accuracy", True, "ok"), harness.Check("oracle_gap", False, "low",
                                                                      {"ratios": [0.5]})])
    result = bench.run_pass([cell], bench.random.Random(0), {}, bench.RefClock())
    assert result.attempted == 3 + 2
    assert len(result.problems) == 1 and "oracle_gap" in result.problems[0]
