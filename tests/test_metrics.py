import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_instance
from semhetnet import harness
from semhetnet.config import ScenarioConfig
from semhetnet.metrics import (bit_throughput, build_report, confidence_bound,
                               feasibility_violations, instance_fbar, instance_message_rates,
                               oracle_enumerate)
from semhetnet.objective import std_normal_quantile
from semhetnet.semantics import FeasibleSets
from semhetnet.solver import (Allocation, Association, allocate_residual,
                              make_instance as build_instance, two_stage, usable_links)


def _instance(gamma, kappa):
    """Every link usable, n^T sized for 1 kbit/s."""
    m, l = gamma.shape
    return build_instance(gamma, FeasibleSets(np.ones((m, l), dtype=bool)), kappa,
                          np.full(l, 1e6), 1e3, 0.5, 0.1, 0.95)


def _simple_solution():
    """1 user, 1 BS, 1 MHz at gamma 3 (2 Mbit/s), kappa 1e-3."""
    assoc = Association(x=np.array([[1]], dtype=np.int8))
    alloc = Allocation(n=np.array([[1e6]]))
    gamma = np.array([[3.0]])
    return assoc, alloc, _instance(gamma, np.array([1e-3])), gamma


def test_expected_stm_composed_example():
    report = build_report(*_simple_solution())
    assert report.expected_stm == pytest.approx(1000.0)


def test_expected_stm_zero_when_unserved():
    assoc = Association(x=np.zeros((3, 2), dtype=np.int8), unserved=(0, 1, 2))
    alloc = Allocation(n=np.zeros((3, 2)))
    gamma = np.ones((3, 2))
    report = build_report(assoc, alloc, _instance(gamma, 1e-3), gamma)
    assert report.expected_stm == 0.0


def test_report_rates_are_perfect_matching_rates():
    # kappa * n * log2(1 + gamma) = 1e-3 * 1e6 * 2; expected_stm is tau times their sum
    report = build_report(*_simple_solution())
    assert report.per_mu_message_rate == pytest.approx([2000.0])
    assert report.expected_stm == 0.5 * report.per_mu_message_rate.sum()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_report_uses_the_instance_rates(seed):
    cfg = ScenarioConfig(num_users=30)
    scenario = harness.build_scenario(cfg, seed)
    inst = scenario.instance
    for method in cfg.methods:
        out = harness.run_method(scenario, method)
        rates = instance_message_rates(out.association, out.allocation, inst)
        assert out.report.per_mu_message_rate.tobytes() == rates.tobytes()
        assert out.report.fbar == instance_fbar(out.association, out.allocation, inst)


def test_bit_throughput_values():
    assoc, alloc, _, gamma = _simple_solution()
    assert bit_throughput(assoc, alloc, gamma) == pytest.approx(2e6)
    doubled = Allocation(n=alloc.n * 2)
    assert bit_throughput(assoc, doubled, gamma) == pytest.approx(4e6)


def test_confidence_bound_below_expected_when_alpha_above_half():
    s = np.array([10.0, 20.0, 5.0])
    q = std_normal_quantile(0.95)
    assert confidence_bound(s, 0.5, 0.1, q) <= 0.5 * s.sum()


def test_oracle_refuses_large_instances():
    inst = make_instance(xi=np.ones((9, 2)), n_t=np.full((9, 2), 10.0),
                         budgets=[1e3] * 2, sets=[(0, 1)] * 9)
    with pytest.raises(ValueError):
        oracle_enumerate(inst)
    inst = make_instance(xi=np.ones((2, 5)), n_t=np.full((2, 5), 10.0),
                         budgets=[1e3] * 5, sets=[tuple(range(5))] * 2)
    with pytest.raises(ValueError):
        oracle_enumerate(inst)


def test_oracle_picks_better_link():
    # BS 0 carries twice the message rate per Hz
    inst = make_instance(xi=np.array([[2.0, 1.0]]), n_t=np.array([[100.0, 100.0]]),
                         budgets=[1e3, 1e3], sets=[(0, 1)])
    best = oracle_enumerate(inst)
    assert list(best.association.x[0]) == [1, 0]
    assert best.allocation.n[0, 0] == pytest.approx(1e3)


def test_oracle_symmetric_instance():
    inst = make_instance(xi=np.array([[2.0, 2.0], [2.0, 2.0]]),
                         n_t=np.full((2, 2), 100.0), budgets=[500.0, 500.0],
                         sets=[(0, 1)] * 2)
    best = oracle_enumerate(inst)
    # a symmetric optimum: both users served, one per BS or both on one
    assert best.association.x.sum() == 2
    assert best.fbar > 0


def test_oracle_serves_everyone_when_feasible():
    inst = make_instance(xi=np.array([[5.0, 0.1], [0.1, 5.0], [1.0, 1.0]]),
                         n_t=np.full((3, 2), 100.0), budgets=[400.0, 400.0],
                         sets=[(0, 1)] * 3)
    best = oracle_enumerate(inst)
    assert best.association.unserved == ()


def test_oracle_blocking_fallback_when_infeasible():
    inst = make_instance(xi=np.ones((2, 1)), n_t=np.array([[800.0], [900.0]]),
                         budgets=[1000.0], sets=[(0,), (0,)])
    best = oracle_enumerate(inst)
    assert len(best.association.unserved) == 1


def test_oracle_dominates_two_stage(rng):
    for trial in range(8):
        m, l = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        xi = rng.uniform(0.5, 5.0, size=(m, l))
        n_t = rng.uniform(20.0, 90.0, size=(m, l))
        sets = [tuple(sorted(rng.choice(l, size=int(rng.integers(1, l + 1)),
                                        replace=False).tolist())) for _ in range(m)]
        budgets = np.full(l, float(n_t.mean() * max(1.0, m / l) * 2.5))
        inst = make_instance(xi=xi, n_t=n_t, budgets=budgets, sets=sets)
        sol = two_stage(inst)
        f_two = instance_fbar(sol.association, sol.allocation, inst)
        assert oracle_enumerate(inst).fbar >= f_two - 1e-9 * max(1.0, abs(f_two))


@pytest.mark.parametrize("sigma, alpha", [(0.1, 0.55), (0.1, 0.95), (0.1, 0.3), (0.0, 0.95)])
def test_oracle_solution_reproduces_its_fbar_and_is_feasible(sigma, alpha):
    # validate's oracle_gap generator, blocking fallbacks included
    rng = np.random.default_rng(2024)
    for _ in range(100):
        inst = harness._tiny_random_instance(rng, 0.5, sigma, alpha)
        oracle = oracle_enumerate(inst)
        assoc, alloc = oracle.association, oracle.allocation
        assert instance_fbar(assoc, alloc, inst) == pytest.approx(oracle.fbar, rel=1e-12,
                                                                  abs=1e-9)
        viol = feasibility_violations(assoc, alloc, inst)
        assert viol["association_defects"] == 0
        assert viol["budget_overshoot_rel"] <= 1e-9
        assert viol["full_allocation_gap_rel"] <= 1e-9


@pytest.mark.parametrize("sigma, skips", [(0.5, 100), (0.3, 49)])
def test_oracle_finds_no_positive_fbar_where_oracle_gap_skips_it(sigma, skips):
    # validate's oracle_gap generator at alpha 0.9999: where sigma * q > tau * sqrt(M),
    # oracle_gap_distribution skips the oracle, as no split's Fbar is positive
    rng = np.random.default_rng(2024)
    skipped = 0
    for _ in range(100):
        inst = harness._tiny_random_instance(rng, 0.5, sigma, 0.9999)
        if harness._no_positive_fbar(inst):
            skipped += 1
            assert oracle_enumerate(inst).fbar <= 0
    assert skipped == skips


def test_oracle_and_two_stage_refuse_a_zero_rate_on_a_feasible_link():
    # user 0 can only use BS 0, where its rate per Hz is 0; sigma * q > 0
    inst = make_instance(xi=[[0.0, 1.0], [2.0, 1.0]], n_t=np.full((2, 2), 10.0),
                         budgets=[100.0, 100.0], sets=[(0,), (0, 1)])
    with pytest.raises(ValueError) as oracle_error:
        oracle_enumerate(inst)
    with pytest.raises(ValueError) as two_stage_error:
        two_stage(inst)
    assert str(oracle_error.value) == str(two_stage_error.value)
    assert "positive rates" in str(oracle_error.value)


def _brute_force_oracle(inst):
    """Best Fbar over every feasible association, unpruned: split by
    allocate_residual for sigma * q > 0 and at every vertex (each BS's whole
    room on one of its users) otherwise; with a per-user unserved option when
    no all-served association fits."""
    m, l = inst.n_t.shape
    sq = inst.objective.sigma * inst.objective.q
    options = [list(np.flatnonzero(row)) for row in inst.mask()]
    best = -np.inf
    for opts in (options, [opt + [l] for opt in options]):
        for combo in itertools.product(*opts):
            x = (np.array(combo)[:, None] == np.arange(l)).astype(np.int8)
            floors = x * inst.n_t
            if np.any(floors.sum(axis=0) > inst.budgets * (1 + 1e-12)):
                continue
            assoc = Association(x=x)
            if sq > 0:
                best = max(best, instance_fbar(assoc, allocate_residual(assoc, inst), inst))
                continue
            room = inst.budgets - floors.sum(axis=0)
            groups = [np.flatnonzero(x[:, j]) for j in range(l) if x[:, j].any() and room[j] > 0]
            for vertex in itertools.product(*groups):
                n = floors.copy()
                for i in vertex:
                    n[i] += x[i] * room
                best = max(best, instance_fbar(assoc, Allocation(n=n), inst))
        if best > -np.inf:
            return best


@pytest.mark.parametrize("sigma, alpha", [(0.1, 0.3), (0.1, 0.55), (0.1, 0.95), (0.0, 0.95),
                                          (0.5, 0.9999)])
def test_oracle_matches_an_unpruned_brute_force(sigma, alpha):
    # validate's oracle_gap generator, blocking fallbacks included
    rng = np.random.default_rng(2024)
    for _ in range(30):
        inst = harness._tiny_random_instance(rng, 0.5, sigma, alpha)
        assert oracle_enumerate(inst).fbar == pytest.approx(_brute_force_oracle(inst), rel=1e-12)


def _varied_instance(rng, sigma, alpha):
    """A tiny instance whose floor rates xi^T and floors n^T vary per link,
    unlike validate's generator, where xi^T is the same on every link. Rates
    per Hz xi^T / n^T stay within a factor 2, so a user with a big floor rate
    can beat a better rate per Hz to a BS's room where Fbar is convex."""
    m, l = int(rng.integers(2, 7)), int(rng.integers(2, 4))
    xi = 10 ** rng.uniform(0.0, 2.0, size=(m, l))
    n_t = xi / rng.uniform(1.0, 2.0, size=(m, l))
    sets = [tuple(rng.choice(l, size=int(rng.integers(1, l + 1)), replace=False).tolist())
            for _ in range(m)]
    budgets = np.full(l, float(n_t.mean() * max(1.0, m / l) * rng.uniform(1.2, 2.5)))
    return make_instance(xi=xi, n_t=n_t, budgets=budgets, sets=sets, sigma=sigma, alpha=alpha)


@pytest.mark.parametrize("sigma, alpha", [(0.1, 0.3), (0.5, 0.3), (0.5, 0.05)])
def test_oracle_matches_a_brute_force_with_varied_floor_rates(sigma, alpha):
    # sigma * q < 0: the best vertex is often not the best-rate one here
    rng = np.random.default_rng(99)
    for _ in range(30):
        inst = _varied_instance(rng, sigma, alpha)
        assert oracle_enumerate(inst).fbar == pytest.approx(_brute_force_oracle(inst), rel=1e-12)


def test_oracle_takes_the_best_vertex_where_fbar_is_convex():
    # alpha < 0.5 makes Fbar = tau * sum(s) + |sigma * q| * ||s|| convex in the
    # split. User 0 has the better rate per Hz (1.1 against 1), but the 10 Hz of
    # room raise ||s|| more on user 1, whose floor rate is 100 against 1
    inst = make_instance(xi=np.array([[1.0], [100.0]]), n_t=np.array([[1 / 1.1], [100.0]]),
                         budgets=[1 / 1.1 + 110.0], sets=[(0,), (0,)], sigma=0.5, alpha=0.05)
    best = oracle_enumerate(inst)
    assert best.allocation.n[:, 0] == pytest.approx([1 / 1.1, 110.0])
    q = std_normal_quantile(0.05)
    assert best.fbar == pytest.approx(confidence_bound(np.array([1.0, 110.0]), 0.5, 0.5, q))


@pytest.mark.parametrize("alpha", [0.95, 0.3])
def test_oracle_solves_the_largest_instance_it_accepts(alpha):
    # 8 users x 4 BSs with every link usable: 4^8 associations
    gamma = 10 ** np.random.default_rng(5).uniform(-0.3, 0.9, size=(8, 4))
    inst = build_instance(gamma, FeasibleSets(np.ones((8, 4), dtype=bool)), 1 / 1600,
                          np.ones(4), 1e4, 0.5, 0.1, alpha)
    inst = replace(inst, budgets=np.full(4, 3.6 * inst.n_t.mean()))
    assert usable_links(inst).all()
    start = time.perf_counter()
    oracle = oracle_enumerate(inst)
    assert time.perf_counter() - start < 2.0
    assoc, alloc = oracle.association, oracle.allocation
    assert assoc.unserved == ()
    assert instance_fbar(assoc, alloc, inst) == pytest.approx(oracle.fbar, rel=1e-12)
    viol = feasibility_violations(assoc, alloc, inst)
    assert viol["association_defects"] == 0
    assert viol["budget_overshoot_rel"] <= 1e-9
    assert viol["full_allocation_gap_rel"] <= 1e-9
    sol = two_stage(inst)
    f_two = instance_fbar(sol.association, sol.allocation, inst)
    assert oracle.fbar >= f_two - 1e-9 * abs(f_two)


def test_feasibility_violations_clean_solution(rng):
    xi = rng.uniform(0.5, 4.0, size=(5, 2))
    n_t = rng.uniform(10.0, 40.0, size=(5, 2))
    inst = make_instance(xi=xi, n_t=n_t, budgets=[200.0, 200.0], sets=[(0, 1)] * 5)
    sol = two_stage(inst)
    viol = feasibility_violations(sol.association, sol.allocation, inst)
    assert viol["association_defects"] == 0
    assert viol["budget_overshoot_rel"] <= 1e-9
    assert viol["full_allocation_gap_rel"] <= 1e-9


def test_residual_allocation_respects_thresholds(rng):
    xi = rng.uniform(0.5, 4.0, size=(6, 2))
    n_t = rng.uniform(10.0, 50.0, size=(6, 2))
    inst = make_instance(xi=xi, n_t=n_t, budgets=[400.0, 400.0], sets=[(0, 1)] * 6)
    sol = two_stage(inst)
    served = sol.association.x.astype(bool)
    assert np.all(sol.allocation.n[served] >= inst.n_t[served] * (1 - 1e-9))
