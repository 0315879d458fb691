import dataclasses
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semhetnet import harness, solver
from semhetnet.cli import main as cli_main
from semhetnet.config import (MAX_DOMAINS, MAX_STATIONS, MAX_USERS, ScenarioConfig, SweepSpec,
                              config_from_dict, load_config)
from semhetnet.errors import ConfigError, SolverError
from semhetnet.harness import (RESULTS_FIELDS, SWEEP_FIELDS, apply_sweep_value,
                               build_scenario, rows_to_csv_bytes, run_scenario, sweep,
                               validate)
from semhetnet.seeding import substream


DESK = dict(scenario_id="desk", num_users=30, seeds=[1], methods=["two-stage"])


def test_default_config_is_valid():
    cfg = ScenarioConfig()
    assert cfg.alpha == 0.95 and cfg.tau == 0.5 and cfg.sigma == 0.1
    assert cfg.num_users == 200 and cfg.bandwidth_budget_hz == 2e6


def test_config_rejects_bad_ranges():
    with pytest.raises(ConfigError, match="alpha"):
        ScenarioConfig(alpha=1.2)
    with pytest.raises(ConfigError, match="tau"):
        ScenarioConfig(tau=0.0)
    with pytest.raises(ConfigError, match="sigma"):
        ScenarioConfig(sigma=-0.1)
    with pytest.raises(ConfigError, match="bit_rate_threshold"):
        ScenarioConfig(bit_rate_threshold_bps=0.0)
    with pytest.raises(ConfigError, match="kb_per_bs"):
        ScenarioConfig(kb_per_bs=9, num_domains=4)
    with pytest.raises(ConfigError, match="num_users"):
        ScenarioConfig(num_users=MAX_USERS + 1)
    with pytest.raises(ConfigError, match="tier counts"):
        ScenarioConfig(num_macro=1, num_pico=0, num_femto=MAX_STATIONS)
    with pytest.raises(ConfigError, match="num_domains"):
        ScenarioConfig(num_domains=MAX_DOMAINS + 1)
    with pytest.raises(ConfigError, match="region_radius_m"):
        ScenarioConfig(region_radius_m=10**400)  # beyond every float
    ScenarioConfig(num_users=MAX_USERS, num_macro=0, num_pico=0, num_femto=MAX_STATIONS,
                   num_domains=MAX_DOMAINS)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
def test_config_checks_every_field_against_its_annotation(name):
    # a bool is no number, list or string, and a string is no bool
    wrong = "true" if name == "baseline_respects_kb" else True
    with pytest.raises(ConfigError, match=f"config field '{name}' must be"):
        ScenarioConfig(**{name: wrong})


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict({"mystery": 1})


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError, match="unknown method"):
        ScenarioConfig(methods=("two-stage", "genie"))


@pytest.mark.parametrize("fields, match", [
    ({"methods": []}, "one or more methods"),
    ({"methods": ["two-stage", "max-sinr-wf", "two-stage"]}, "'methods' lists an entry twice"),
    ({"seeds": [1, 2, 1]}, "'seeds' lists an entry twice"),
], ids=["methods-empty", "methods-repeated", "seeds-repeated"])
def test_config_rejects_empty_or_repeated_lists(fields, match):
    # an empty list solved nothing and wrote a header-only results.csv; a
    # repeated entry solved its cell twice and wrote duplicate rows
    with pytest.raises(ConfigError, match=match):
        config_from_dict({**DESK, **fields})


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "num_users": 10,\n  oops\n}')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(str(path))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, "sweep": {"variable": "alpha", "values": [0.6, 0.9]}}))
    cfg = load_config(str(path))
    assert cfg.num_users == 30
    assert cfg.sweep.variable == "alpha"
    assert cfg.sweep.values == (0.6, 0.9)


def test_seed_substreams_are_independent():
    a = substream(1, "bs-placement").random(4)
    b = substream(1, "mu-placement").random(4)
    c = substream(1, "bs-placement").random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_run_scenario_empty_network(tmp_path):
    cfg = config_from_dict({**DESK, "num_users": 0, "methods": list(ScenarioConfig().methods)})
    rows, outcomes, reports = run_scenario(cfg, out_dir=str(tmp_path))
    assert len(rows) == 3
    for row in rows:
        assert row["expected_stm"] == 0.0
        assert row["bit_throughput"] == 0.0
        assert row["unserved"] == 0
    assert (tmp_path / "results.csv").exists()


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = config_from_dict({**DESK, "methods": list(ScenarioConfig().methods)})
    rows, outcomes, reports = run_scenario(cfg, out_dir=str(tmp_path))
    assert len(rows) == 3
    text = (tmp_path / "results.csv").read_text().splitlines()
    assert text[0] == ",".join(RESULTS_FIELDS)
    assert len(text) == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert report[0]["methods"][0]["method"] == "two-stage"
    assert "per_bs_load_hz" in report[0]["methods"][0]
    assert not list(tmp_path.glob("trace_seed*.csv"))  # the stage table is the record
    for entry in report[0]["methods"]:
        residuals = entry["kkt_residuals"]
        if entry["method"] == "two-stage":
            stage = entry["relaxed_stage"]
            assert set(stage) == {"newton_steps", "finish_rounds", "exit", "tied_users"}
            assert stage["exit"] == "tol" and stage["newton_steps"] == entry["iterations"]
            assert stage["finish_rounds"] >= 1 and stage["tied_users"] >= 0
            assert residuals["relaxed_duality_gap"] >= 0.0 and residuals["allocation_rel"] >= 0.0
        else:  # the baselines measure neither residual
            assert entry["relaxed_stage"] is None
            assert residuals == {"relaxed_duality_gap": None, "allocation_rel": None}


def test_report_lists_admission_evictions(tmp_path):
    cfg = config_from_dict({**DESK, "bandwidth_budget_hz": 5e4,
                            "methods": list(ScenarioConfig().methods)})
    rows, outcomes, reports = run_scenario(cfg, out_dir=str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == reports
    for entry in report[0]["methods"]:
        evicted = outcomes[1][entry["method"]].evicted
        assert entry["admission_evicted"] == list(evicted)
        assert set(evicted) <= set(entry["unserved"])
        if entry["method"] != "two-stage":
            assert evicted == ()
    assert outcomes[1]["two-stage"].evicted  # these budgets force admission to block users


def test_sweep_holds_bs_placement_fixed():
    cfg = config_from_dict({**DESK})
    tops = {}
    for m in (10, 40):
        scen = build_scenario(apply_sweep_value(cfg, "num_mus", m), 1)
        tops[m] = scen.topology.bs_xy
    assert np.array_equal(tops[10], tops[40])


def test_apply_sweep_num_bss_mapping():
    cfg = ScenarioConfig()
    small = apply_sweep_value(cfg, "num_bss", 16)
    assert (small.num_pico, small.num_femto) == (5, 10)
    tiny = apply_sweep_value(cfg, "num_bss", 4)
    assert tiny.num_pico + tiny.num_femto == 3


def test_sweep_rows_and_determinism(tmp_path):
    cfg = config_from_dict({**DESK, "seeds": [1, 2]})
    rows1 = sweep(cfg, "num_mus", (10, 20), out_dir=str(tmp_path))
    rows2 = sweep(cfg, "num_mus", (10, 20))
    assert rows_to_csv_bytes(SWEEP_FIELDS, rows1) == rows_to_csv_bytes(SWEEP_FIELDS, rows2)
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == ",".join(SWEEP_FIELDS)
    assert len(rows1) == 2 * 2 * 1  # values x seeds x methods


def test_sweep_requires_spec():
    cfg = config_from_dict({**DESK})
    with pytest.raises(ConfigError, match="sweep"):
        sweep(cfg)


def test_sweep_arguments_fall_back_to_the_config_spec_one_by_one():
    # A variable passed alone runs at the spec's values, and values passed
    # alone at the spec's variable; the spec's variable never overrides the
    # one passed
    cfg = config_from_dict({**DESK, "num_users": 10,
                            "sweep": {"variable": "alpha", "values": [0.6, 0.9]}})
    rows = sweep(cfg, variable="tau")
    assert [(r["variable"], r["value"]) for r in rows] == [("tau", 0.6), ("tau", 0.9)]
    rows = sweep(cfg, values=(0.7,))
    assert [(r["variable"], r["value"]) for r in rows] == [("alpha", 0.7)]


@pytest.mark.parametrize("variable, values, whole", [
    ("num_mus", (20.7, 30), False),
    ("num_bss", (7.9,), False),
    ("num_mus", (-0.5,), False),
    ("num_mus", (20, 30.0), True),
    ("num_bss", (16.0,), True),
    ("alpha", (0.6, 0.9), True),
])
def test_sweep_counts_must_be_whole_numbers(variable, values, whole):
    # a fractional user or station count would be truncated (20.7 runs 20
    # users) while the sweep's value column keeps 20.7
    if whole:
        assert SweepSpec(variable, values).values == tuple(values)
    else:
        with pytest.raises(ConfigError, match="whole numbers"):
            SweepSpec(variable, values)


def test_cli_gen_solve_sweep_validate(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario_id": "cli", "num_users": 25, "seeds": [3],
        "sweep": {"variable": "tau", "values": [0.4, 0.6]},
    }))
    out = tmp_path / "out"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "topology.json").exists()
    assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out),
                     "--methods", "two-stage,max-sinr-even"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two methods
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()


def test_cli_seed_override(tmp_path):
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**DESK, "seeds": [5]}))
    assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "9"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "9" for r in rows)


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 2.0}')
    assert cli_main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("config, extra", [
    # the relaxed stage has no settings: a barrier block is an unknown field
    ({"barrier": {"mu": 1.0}}, []),
    ({"barrier": {"r_min": -1.0}}, []),
    ({"barrier": {"mu": 0.5}}, []),
    ({"barrier": {"mu": "x"}}, []),
    ({"barrier": {"tol": float("nan")}}, []),
    ({"barrier": {"max_inner": 2.5}}, []),
    ({"seeds": ["a"]}, []),
    # seeds are integers >= 0 in a list, and methods a list: no coercion
    ({"seeds": [-3]}, []),
    ({}, ["solve", "--seed", "-1"]),
    ({"seeds": [1.5]}, []),
    ({"seeds": ["7"]}, []),
    ({"seeds": [True]}, []),
    ({"seeds": 7}, []),
    ({"methods": "two-stage"}, []),
    ({"seeds": [1, 1]}, []),
    ({"num_users": 2.5}, []),
    ({"sweep": {"variable": "num_mus"}}, []),
    ({"sweep": {"variable": "alpha", "values": ["a"]}}, ["sweep"]),
    (None, []),  # the --config file does not exist
    ({}, ["sweep", "--variable", "num_mus", "--values", "20,x"]),
    # float fields and sweep values must be finite (JSON Infinity, NaN, 1e400)
    ({"region_radius_m": float("inf")}, []),
    ({"region_radius_m": 10**400}, []),  # an integer too large for a float
    ({"macro_power_dbm": float("inf")}, []),
    ({"femto_power_dbm": float("nan")}, []),
    ({"msg_per_bit": float("inf")}, []),
    ({"bit_rate_threshold_bps": float("inf")}, []),
    ({"sigma": float("inf")}, []),
    ({"bandwidth_budget_hz": float("inf")}, []),
    ({"noise_power_dbm": -float("inf")}, []),
    ({}, ["sweep", "--variable", "num_mus", "--values", "20,inf"]),
    ({}, ["sweep", "--variable", "num_mus", "--values", "20,nan"]),
    ({}, ["sweep", "--variable", "num_bss", "--values", "20,inf"]),
    ({}, ["sweep", "--variable", "num_bss", "--values", "20,nan"]),
    # user and station counts are whole numbers
    ({}, ["sweep", "--variable", "num_mus", "--values", "20.7,30"]),
    ({}, ["sweep", "--variable", "num_bss", "--values", "7.9"]),
    # integer counts are bounded (config.MAX_USERS, MAX_STATIONS, MAX_DOMAINS)
    ({"num_users": 10**25}, []),
    ({"num_domains": 10**20}, []),
    # every field has its declared JSON type: a bool is no number, and a
    # string or number no bool
    ({"baseline_respects_kb": "false"}, []),
    ({"baseline_respects_kb": 1}, []),
    ({"num_users": True}, []),
    ({"num_macro": True}, []),
    ({"kb_per_bs": True}, []),
    ({"sigma": True}, []),
    ({"scenario_id": None}, []),
    ({"scenario_id": 5}, []),
    # sweep values are numbers, each listed once, as seeds and methods are
    ({"sweep": {"variable": "num_mus", "values": [True, 2]}}, ["sweep"]),
    ({"sweep": {"variable": "num_mus", "values": [20, 20]}}, ["sweep"]),
], ids=["mu-1", "r_min-negative", "mu-below-1", "mu-string", "tol-nan", "max_inner-float",
        "seed-string", "seed-negative", "seed-flag-negative", "seed-float", "seed-digit-string",
        "seed-bool", "seeds-not-list", "methods-string", "seeds-repeated", "users-not-integer",
        "sweep-without-values", "sweep-value-string", "missing-file", "values-not-numbers",
        "radius-inf", "radius-huge-int", "macro-power-inf", "femto-power-nan", "msg_per_bit-inf",
        "threshold-inf", "sigma-inf", "budget-inf", "noise-minus-inf", "num_mus-inf",
        "num_mus-nan", "num_bss-inf", "num_bss-nan", "num_mus-fractional", "num_bss-fractional",
        "users-huge", "domains-huge", "baseline_respects_kb-string", "baseline_respects_kb-int",
        "num_users-bool", "num_macro-bool", "kb_per_bs-bool", "sigma-bool", "scenario_id-null",
        "scenario_id-number", "sweep-value-bool", "sweep-value-repeated"])
def test_cli_malformed_input_exits_2(tmp_path, monkeypatch, config, extra):
    def no_solve(*args, **kwargs):
        raise AssertionError("malformed input must be rejected before any solve")

    monkeypatch.setattr(harness, "build_scenario", no_solve)
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(json.dumps({**DESK, **config}))
    argv = extra or ["solve"]
    assert cli_main(argv + ["--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_cli_solve_has_no_trace_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["solve", "--trace", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"femto_power_dbm": -300},  # the femto tier switched off
    {"macro_power_dbm": 400},  # interference overflows: an infinite SINR
    {"region_radius_m": 1e9},
    {"noise_power_dbm": 300},
], ids=["femto-off", "macro-overflow", "radius-huge", "noise-huge"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_link_without_spectral_efficiency_exits_2(tmp_path, capsys, config):
    # log2(1 + SINR) rounds to 0 (or is not finite) on some link, so its n^T
    # is infinite: the scenario is rejected as a config error naming the link
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, **config}))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "of user 0 at BS" in capsys.readouterr().err


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def tier_power_dbm(lo, hi):
    """A tier's power, and one time in ten -300 dBm: the tier switched off."""
    return st.tuples(st.integers(0, 9), st.floats(lo, hi)).map(
        lambda t: -300.0 if t[0] == 0 else t[1])


@st.composite
def scenario_configs(draw):
    num_domains = round(draw(log_uniform(1, 12)))
    return ScenarioConfig(
        num_users=draw(st.integers(0, 40)),
        num_macro=draw(st.integers(0, 2)),
        num_pico=draw(st.integers(0, 4)),
        num_femto=draw(st.integers(0, 4)),
        region_radius_m=draw(log_uniform(10.0, 1e4)),
        macro_power_dbm=draw(tier_power_dbm(20.0, 50.0)),
        pico_power_dbm=draw(tier_power_dbm(10.0, 40.0)),
        femto_power_dbm=draw(tier_power_dbm(0.0, 30.0)),
        noise_power_dbm=draw(st.floats(-140.0, -60.0)),
        bandwidth_budget_hz=draw(log_uniform(1e3, 1e8)),
        num_domains=num_domains,
        kb_per_bs=round(draw(log_uniform(1, num_domains))),
        needs_per_mu=round(draw(log_uniform(1, num_domains))),
        tau=draw(log_uniform(1e-3, 0.999)),
        sigma=draw(log_uniform(1e-4, 2.0)),
        alpha=1.0 - draw(log_uniform(1e-4, 0.99)),
    )


@settings(max_examples=300, deadline=None)
@given(scenario_configs())
@example(ScenarioConfig(num_users=20, femto_power_dbm=-300.0))
@example(ScenarioConfig(num_users=20, macro_power_dbm=400.0))
@example(ScenarioConfig(num_users=20, region_radius_m=1e9))
@example(ScenarioConfig(num_users=20, noise_power_dbm=300.0))
@example(ScenarioConfig(num_users=60, bandwidth_budget_hz=1e-20))  # drains stations to empty
@example(ScenarioConfig(num_users=20, bandwidth_budget_hz=1e200))  # rates whose squares overflow
@example(ScenarioConfig(num_users=20, bandwidth_budget_hz=1e300))
@example(ScenarioConfig(num_users=20, msg_per_bit=1e300))
@example(ScenarioConfig(num_users=20, msg_per_bit=1e-300))  # floor rates whose squares vanish
@example(ScenarioConfig(num_users=20, bit_rate_threshold_bps=1e-200))
def test_config_fuzz_raises_only_documented_errors_and_stays_feasible(config):
    # the errors the CLI maps to exit codes 2 and 4; anything else exits 1.
    # Every reported Fbar is finite
    try:
        _, outcomes, _ = run_scenario(config)
    except (ConfigError, SolverError):
        return
    for seed, per_method in outcomes.items():
        check = harness.solution_feasibility(build_scenario(config, seed),
                                             list(per_method.values()))
        assert check.passed, check.detail
        assert all(math.isfinite(out.report.fbar) for out in per_method.values())


def test_cli_budgets_that_fit_no_user_solve_with_every_user_unserved(tmp_path):
    # No n^T fits a 100 Hz budget: every method leaves every user unserved,
    # and the solve exits 0, since infeasible budgets are no error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, "bandwidth_budget_hz": 100,
                                "methods": list(ScenarioConfig().methods)}))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for entry in report[0]["methods"]:
        assert entry["served"] == 0 and entry["unserved"] == list(range(DESK["num_users"]))
        assert entry["relaxed_stage"] is None
    assert report[0]["methods"][0]["admission_evicted"] == []  # blocked up front


def test_cli_budgets_below_float_residues_solve_with_every_user_unserved(tmp_path):
    # A 1e-20 Hz budget is below the float residue a drained station's load
    # keeps once its last user leaves: repair empties every station and the
    # solve exits 0 with every user unserved
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, "num_users": 60, "bandwidth_budget_hz": 1e-20,
                                "seeds": [1, 2, 3, 4, 5],
                                "methods": list(ScenarioConfig().methods)}))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    for run in json.loads((tmp_path / "report.json").read_text()):
        for entry in run["methods"]:
            assert entry["served"] == 0 and entry["unserved"] == list(range(60))


@pytest.mark.parametrize("config, names", [
    ({"bandwidth_budget_hz": 1e200}, "bandwidth budget"),
    ({"bandwidth_budget_hz": 1e300}, "bandwidth budget"),
    ({"msg_per_bit": 1e300}, "msg_per_bit"),
    ({"msg_per_bit": 1e-300}, "msg_per_bit"),
    ({"bit_rate_threshold_bps": 1e-200}, "bit_rate_threshold_bps"),
], ids=["budget-1e200", "budget-1e300", "kappa-1e300", "kappa-1e-300", "threshold-1e-200"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_rates_the_objective_cannot_square_exit_2(tmp_path, capsys, config, names):
    # Fbar sums squared rates: a floor rate whose square underflows, or best
    # rates whose squares sum to an overflow, is a config error naming the
    # quantity, not an infinite Fbar or a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, **config, "methods": list(ScenarioConfig().methods)}))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert names in capsys.readouterr().err


def test_cli_huge_message_rates_solve_feasibly(tmp_path):
    # message rates near 1e16 exceed 2**53; the relaxed stage reads only
    # n^T and the budgets, so they cannot upset it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, "msg_per_bit": 1e12,
                                "methods": list(ScenarioConfig().methods)}))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    cfg = load_config(str(path))
    _, outcomes, _ = run_scenario(cfg)
    check = harness.solution_feasibility(build_scenario(cfg, 1), list(outcomes[1].values()))
    assert check.passed, check.detail


def test_cli_relaxed_stage_out_of_iterations_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "_MAX_NEWTON", 0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(DESK))
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 4
    assert "did not converge within 0 Newton steps" in capsys.readouterr().err


def test_cli_finish_at_its_round_cap_exits_4(tmp_path, monkeypatch, capsys):
    # M = 200 seed 2 needs 9 finish rounds: a finish capped at one raises
    # SolverError naming the cap, and the solve exits 4
    monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
    with pytest.raises(SolverError, match="did not certify within 1 rounds"):
        solver.two_stage(build_scenario(ScenarioConfig(), 2).instance)
    assert cli_main(["solve", "--seed", "2", "--methods", "two-stage",
                     "--out", str(tmp_path)]) == 4
    assert "did not certify within 1 rounds" in capsys.readouterr().err


def test_validate_all_pass_on_desk_config():
    cfg = config_from_dict({**DESK, "methods": list(ScenarioConfig().methods)})
    # the Monte Carlo checks stream their draws through fixed-size buffers:
    # materialized in full, the clamping draws alone take 10 MB
    tracemalloc.start()
    try:
        checks = validate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert {c.name for c in checks} == {
        "quantile_accuracy", "gradient_finite_difference", "eta_clamp_frequency",
        "confidence_calibration", "oracle_gap", "solution_feasibility",
    }
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_validate_at_median_confidence():
    # alpha = 0.5 makes q = 0 and the bound collapse onto the mean
    cfg = config_from_dict({**DESK, "alpha": 0.5, "methods": list(ScenarioConfig().methods)})
    checks = {c.name: c for c in validate(cfg)}
    assert checks["quantile_accuracy"].passed
    cal = checks["confidence_calibration"]
    assert cal.passed and abs(cal.data["probability"] - 0.5) < 0.01


def test_validate_risk_free_sigma_zero():
    cfg = config_from_dict({**DESK, "sigma": 0.0, "methods": list(ScenarioConfig().methods)})
    checks = {c.name: c for c in validate(cfg)}
    assert checks["eta_clamp_frequency"].passed
    cal = checks["confidence_calibration"]
    assert cal.passed and cal.data["probability"] == 1.0


def test_validate_reports_too_few_oracle_instances(tmp_path):
    # sigma * q is so large that no tiny instance has a positive oracle Fbar:
    # the check fails after a bounded number of draws instead of looping
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, "sigma": 0.5, "alpha": 0.9999}))
    t0 = time.perf_counter()
    assert cli_main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 1
    elapsed = time.perf_counter() - t0
    checks = json.loads((tmp_path / "validate.json").read_text())
    assert [c["name"] for c in checks if not c["passed"]] == ["oracle_gap"]
    gap = next(c for c in checks if c["name"] == "oracle_gap")
    assert gap["data"]["ratios"] == []
    assert f"0 of {harness.ORACLE_DRAWS} random instances" in gap["detail"]
    assert elapsed < 60.0
