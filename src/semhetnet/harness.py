"""Scenario orchestration: single runs, parameter sweeps, and the
invariant-validation suite. CSV output is deterministic byte for byte."""

import csv
import io
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, solver
from .config import ScenarioConfig, SweepSpec
from .errors import ConfigError
from .objective import (DeterministicObjective, chance_check, confidence_bound, rate_gradient,
                        std_normal_cdf, std_normal_quantile)
from .seeding import substream
from .semantics import (ETA_CLAMP_EPS, FeasibleSets, assign_knowledge, eta_blocks,
                        feasible_bs_sets)
from .topology import compute_sinr, generate_topology

RESULTS_FIELDS = ("scenario", "seed", "method", "alpha", "tau", "sigma", "num_users",
                  "expected_stm", "fbar", "bit_throughput", "unserved")
SWEEP_FIELDS = ("variable", "value", "seed", "method", "expected_stm", "fbar", "unserved")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything derived from (config, seed) before any method runs."""

    config: ScenarioConfig
    seed: int
    topology: object
    gamma: np.ndarray  # users x BSs SINR
    instance: solver.UaInstance


@dataclass(frozen=True, eq=False)
class MethodOutcome:
    method: str
    association: solver.Association
    allocation: solver.Allocation
    report: metrics.PerformanceReport
    relaxed: solver.RelaxedAssociation = None  # None for the baselines
    evicted: tuple = ()


def build_scenario(config, seed):
    topology = generate_topology(config, seed)
    gamma = compute_sinr(topology)
    kb, needs = assign_knowledge(config, topology, seed)
    instance = solver.make_instance(
        gamma, feasible_bs_sets(kb, needs), config.msg_per_bit, topology.budgets,
        config.bit_rate_threshold_bps, config.tau, config.sigma, config.alpha,
    )
    return Scenario(config=config, seed=seed, topology=topology, gamma=gamma, instance=instance)


def run_method(scenario, method):
    cfg = scenario.config
    inst = scenario.instance
    if method == "two-stage":
        sol = solver.two_stage(inst)
        assoc, alloc, relaxed, evicted = sol.association, sol.allocation, sol.relaxed, sol.evicted
    elif method in ("max-sinr-wf", "max-sinr-even"):
        assoc = solver.baseline_max_sinr(scenario.gamma, inst,
                                         restrict_to_feasible=cfg.baseline_respects_kb)
        mode = "waterfill" if method == "max-sinr-wf" else "even"
        alloc = solver.baseline_ba(assoc, inst, scenario.gamma, mode)
        relaxed, evicted = None, ()
    else:
        raise ConfigError(f"unknown method {method!r}")
    report = metrics.build_report(assoc, alloc, inst, scenario.gamma)
    return MethodOutcome(method=method, association=assoc, allocation=alloc, report=report,
                         relaxed=relaxed, evicted=evicted)


def _result_row(config, seed, outcome):
    rep = outcome.report
    return {
        "scenario": config.scenario_id,
        "seed": seed,
        "method": outcome.method,
        "alpha": config.alpha,
        "tau": config.tau,
        "sigma": config.sigma,
        "num_users": config.num_users,
        "expected_stm": rep.expected_stm,
        "fbar": rep.fbar,
        "bit_throughput": rep.bit_throughput,
        "unserved": rep.unserved,
    }


def _method_report(scenario, outcome):
    alloc_loads = np.einsum("ml,ml->l", outcome.association.x, outcome.allocation.n)
    rep, relaxed = outcome.report, outcome.relaxed
    return {
        "method": outcome.method,
        "expected_stm": rep.expected_stm,
        "fbar": rep.fbar,
        "bit_throughput": rep.bit_throughput,
        "served": rep.served,
        "unserved": list(outcome.association.unserved),
        "admission_evicted": list(outcome.evicted),
        "per_bs_load_hz": [float(v) for v in alloc_loads],
        "iterations": relaxed.iterations if relaxed else 0,
        "relaxed_stage": (dict(zip(("newton_steps", "finish_rounds", "exit", "tied_users"),
                                   relaxed.stage))
                          if relaxed and relaxed.stage else None),
        "kkt_residuals": {
            "relaxed_duality_gap": relaxed.gap if relaxed else None,
            "allocation_rel": outcome.allocation.kkt_residual,
        },
    }


def run_scenario(config, out_dir=None):
    """Run every configured (seed, method) cell and optionally write artifacts.

    Returns (rows, outcomes, reports): CSV-ready row dicts in deterministic
    (seed, method) order, the raw MethodOutcome objects, and the per-seed
    report documents.
    """
    rows = []
    outcomes = {}
    reports = []
    for seed in config.seeds:
        scenario = build_scenario(config, seed)
        per_method = {}
        for method in config.methods:
            outcome = run_method(scenario, method)
            per_method[method] = outcome
            rows.append(_result_row(config, seed, outcome))
        outcomes[seed] = per_method
        reports.append({
            "scenario": config.scenario_id,
            "seed": seed,
            "alpha": config.alpha,
            "tau": config.tau,
            "sigma": config.sigma,
            "num_users": config.num_users,
            "num_bs": scenario.topology.num_bs,
            "methods": [_method_report(scenario, per_method[m]) for m in config.methods],
        })
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "results.csv"), RESULTS_FIELDS, rows)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
    return rows, outcomes, reports


def _write_csv(path, fields, rows):
    with open(path, "wb") as fh:
        fh.write(rows_to_csv_bytes(fields, rows))


def rows_to_csv_bytes(fields, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def apply_sweep_value(config, variable, value):
    if variable == "num_mus":
        return config.replace(num_users=int(value))
    if variable == "alpha":
        return config.replace(alpha=float(value))
    if variable == "tau":
        return config.replace(tau=float(value))
    if variable == "num_bss":
        small = int(value) - config.num_macro
        if small < 0:
            raise ConfigError("num_bss below the macro count")
        pico = round(small / 3)
        return config.replace(num_pico=pico, num_femto=small - pico)
    raise ConfigError(f"unsupported sweep variable {variable!r}")


def sweep(config, variable=None, values=None, out_dir=None):
    """Repeat run_scenario per value, holding everything else fixed.

    `variable` and `values` each default to config.sweep's. Emits
    long-format rows; identical config and seeds produce byte-identical CSV
    output.
    """
    if variable is None and config.sweep:
        variable = config.sweep.variable
    if values is None and config.sweep:
        values = config.sweep.values
    if variable is None or values is None:
        raise ConfigError("no sweep spec: pass variable/values or set config.sweep")
    SweepSpec(variable=variable, values=tuple(values))  # range checks
    rows = []
    for value in values:
        cell_rows, _, _ = run_scenario(apply_sweep_value(config, variable, value))
        rows.extend({"variable": variable, "value": value, **{k: r[k] for k in SWEEP_FIELDS[2:]}}
                    for r in cell_rows)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_FIELDS, rows)
    return rows


@dataclass
class Check:
    name: str
    passed: bool
    detail: str
    data: dict = None

    def __post_init__(self):
        self.passed = bool(self.passed)


def _tiny_random_instance(rng, tau, sigma, alpha):
    """Small synthetic association problem for oracle-gap measurements."""
    l = int(rng.integers(2, 4))
    m = int(rng.integers(3, 7))
    gamma = 10 ** rng.uniform(-0.3, 0.9, size=(m, l))
    links = np.zeros((m, l), dtype=bool)
    for i in range(m):
        links[i, rng.choice(l, size=int(rng.integers(1, l + 1)), replace=False)] = True
    per_bs_users, spread = max(1.0, m / l), rng.uniform(1.2, 2.5)
    inst = solver.make_instance(gamma, FeasibleSets(links), 1.0 / 1600.0, np.ones(l), 1e4,
                                tau, sigma, alpha)
    # budgets scale with the mean n^T, known once the instance is built
    return replace(inst, budgets=np.full(l, float(inst.n_t.mean() * per_bs_users * spread)))


ORACLE_INSTANCES = 50  # ratios the oracle_gap check needs
ORACLE_DRAWS = 1000  # random instances it may draw to find them


def _no_positive_fbar(inst):
    """True when sigma * q > tau * sqrt(M) for the instance's M users: as
    ||s|| >= sum(s) / sqrt(M), every split then has
    Fbar <= (tau - sigma * q / sqrt(M)) * sum(s) <= 0."""
    obj = inst.objective
    return obj.sigma * obj.q > obj.tau * np.sqrt(inst.n_t.shape[0])


def oracle_gap_distribution(tau, sigma, alpha):
    """Two-stage Fbar relative to the exact oracle optimum on ORACLE_INSTANCES
    tiny random instances with a positive oracle Fbar, drawn in a fixed order.

    The oracle splits each association exactly, so every ratio is at most 1
    up to rounding. Stops after ORACLE_DRAWS draws, so fewer ratios come back
    when the oracle Fbar is rarely positive (a large sigma * q). Draws where
    no split can be positive (`_no_positive_fbar`) skip the oracle.
    """
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(ORACLE_DRAWS):
        if len(ratios) == ORACLE_INSTANCES:
            break
        inst = _tiny_random_instance(rng, tau, sigma, alpha)
        if _no_positive_fbar(inst):
            continue
        oracle = metrics.oracle_enumerate(inst)
        if oracle.fbar <= 0:
            continue
        sol = solver.two_stage(inst)
        ratios.append(metrics.instance_fbar(sol.association, sol.allocation, inst) / oracle.fbar)
    return ratios


def gradient_fd_error(obj, rates, rng, probes):
    """Largest relative gap between `rate_gradient` at the rates and a central
    difference (h = 1e-6) of `confidence_bound` over `probes` entries drawn
    from rng, at obj's tau, sigma and q."""
    g = rate_gradient(rates, obj.tau, obj.sigma, obj.q)
    h = 1e-6
    worst = 0.0
    for _ in range(probes):
        i = int(rng.integers(rates.size))
        sp, sm = rates.copy(), rates.copy()
        sp[i] += h
        sm[i] -= h
        fd = (confidence_bound(sp, obj.tau, obj.sigma, obj.q)
              - confidence_bound(sm, obj.tau, obj.sigma, obj.q)) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-12))
    return worst


def solution_feasibility(scenario, outcomes):
    """Worst constraint violations over the outcomes of methods on one scenario.

    Feasible-set membership is skipped for knowledge-oblivious baselines.
    """
    worst_assoc, worst_budget, worst_eq = 0, 0.0, 0.0
    for out in outcomes:
        viol = metrics.feasibility_violations(
            out.association, out.allocation, scenario.instance,
            check_feasible_membership=(out.method == "two-stage"
                                       or scenario.config.baseline_respects_kb),
        )
        worst_assoc = max(worst_assoc, viol["association_defects"])
        worst_budget = max(worst_budget, viol["budget_overshoot_rel"])
        worst_eq = max(worst_eq, viol["full_allocation_gap_rel"])
    ok = worst_assoc == 0 and worst_budget <= 1e-9 and worst_eq <= 1e-9
    return Check(
        "solution_feasibility", ok,
        f"association defects {worst_assoc}, budget overshoot {worst_budget:.1e}, "
        f"allocation gap {worst_eq:.1e}",
        {"association_defects": worst_assoc, "budget_overshoot_rel": worst_budget,
         "full_allocation_gap_rel": worst_eq},
    )


def validate(config):
    """Run the invariant suite and return machine-readable check results."""
    checks = []
    alphas = sorted({0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, config.alpha})
    worst = max(abs(std_normal_cdf(std_normal_quantile(a)) - a) for a in alphas)
    checks.append(Check(
        "quantile_accuracy", worst < 1e-10, f"max |Phi(q)-alpha| = {worst:.3e}",
        {"max_abs_error": worst},
    ))

    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(20):
        xi = rng.uniform(0.0, 10.0, size=(6, 4))
        obj = DeterministicObjective.for_confidence(config.tau, config.sigma, config.alpha, xi)
        x = rng.random((6, 4))
        x /= x.sum(axis=1, keepdims=True)
        worst_rel = max(worst_rel, gradient_fd_error(obj, np.einsum("ml,ml->m", x, xi), rng, 6))
    checks.append(Check(
        "gradient_finite_difference", worst_rel < 1e-6,
        f"max relative error = {worst_rel:.3e}", {"max_rel_error": worst_rel},
    ))

    if config.sigma > 0:
        draws = 1_000_000
        blocks = eta_blocks(substream(11, "eta"), config.tau, config.sigma, draws)
        clamped = sum(int(np.count_nonzero((e <= ETA_CLAMP_EPS) | (e >= 1 - ETA_CLAMP_EPS)))
                      for e in blocks) / draws
        expected = std_normal_cdf(-config.tau / config.sigma) + 1.0 - std_normal_cdf(
            (1.0 - config.tau) / config.sigma
        )
        se = np.sqrt(max(expected * (1 - expected), 1e-12) / draws)
        ok = abs(clamped - expected) < 5 * se + 1e-6
        detail = f"clamped fraction {clamped:.2e} vs Gaussian tails {expected:.2e}"
    else:
        clamped, expected, ok, detail = 0.0, 0.0, True, "sigma = 0: no clamping"
    checks.append(Check("eta_clamp_frequency", ok, detail,
                        {"clamped": clamped, "expected": expected}))

    cal_cfg = config.replace(num_users=min(config.num_users, 80))
    scenario = build_scenario(cal_cfg, config.seeds[0])
    outcome = run_method(scenario, "two-stage")
    if cal_cfg.num_users == 0:
        checks.append(Check("confidence_calibration", True, "no users: vacuous", {}))
    else:
        trials = 100_000
        prob = chance_check(outcome.report.per_mu_message_rate, outcome.report.fbar,
                            cal_cfg.tau, cal_cfg.sigma, trials, seed=13)
        if cal_cfg.sigma == 0:
            ok = prob == 1.0
            detail = f"sigma=0: Pr = {prob}"
        else:
            margin = 4.0 * np.sqrt(cal_cfg.alpha * (1 - cal_cfg.alpha) / trials)
            ok = abs(prob - cal_cfg.alpha) <= margin
            detail = f"Pr{{F >= Fbar}} = {prob:.4f} vs alpha = {cal_cfg.alpha}"
        checks.append(Check("confidence_calibration", ok, detail,
                            {"probability": prob, "alpha": cal_cfg.alpha}))

    ratios = oracle_gap_distribution(config.tau, config.sigma, config.alpha)
    if len(ratios) < ORACLE_INSTANCES:
        frac_ok = frac_opt = None
        ok = False
        detail = (f"{len(ratios)} of {ORACLE_DRAWS} random instances have a positive "
                  f"oracle Fbar, fewer than the {ORACLE_INSTANCES} needed")
    else:
        frac_ok = float(np.mean([r >= 0.85 for r in ratios]))
        frac_opt = float(np.mean([r >= 1 - 1e-9 for r in ratios]))
        ok = frac_ok >= 0.9
        detail = (f"Fbar ratio >= 0.85 in {frac_ok:.0%} of instances, optimal in "
                  f"{frac_opt:.0%} (min {min(ratios):.3f})")
    checks.append(Check(
        "oracle_gap", ok, detail,
        {"ratios": [float(r) for r in ratios], "fraction_above_0.85": frac_ok,
         "fraction_optimal": frac_opt},
    ))

    checks.append(solution_feasibility(scenario, [
        outcome if method == "two-stage" else run_method(scenario, method)
        for method in config.methods
    ]))
    return checks
