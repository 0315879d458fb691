import copy
import hashlib
import itertools
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_instance
from semhetnet import solver as solver_module
from semhetnet.config import ScenarioConfig
from semhetnet.errors import ConfigError, SolverError
from semhetnet.harness import build_scenario
from semhetnet.metrics import feasibility_violations, instance_fbar
from semhetnet.objective import objective_value
from semhetnet.solver import (Allocation, Association, RelaxedAssociation, _admit,
                              _SubsetStarts, _water_fill,
                              allocate_residual, baseline_ba, baseline_max_sinr,
                              make_instance as build_instance, repair_overload, round_association,
                              solve_relaxed_ua, two_stage, usable_links)


# ------------------------------------------------------------- make_instance

def test_make_instance_bandwidth_floor_hits_threshold(rng):
    from semhetnet.semantics import FeasibleSets
    gamma = rng.uniform(0.2, 50.0, size=(4, 3))
    fs = FeasibleSets(np.ones((4, 3), dtype=bool))
    inst = build_instance(gamma, fs, 1.0 / 1600.0, np.full(3, 2e6), 1e4, 0.5, 0.1, 0.95)
    rates = inst.n_t * np.log2(1.0 + gamma)
    assert np.allclose(rates, 1e4, rtol=1e-12)
    assert np.allclose(inst.objective.xi_t, 1e4 / 1600.0, rtol=1e-12)


@pytest.mark.parametrize("bad, value", [
    ((1, 2), 1e-30),  # log2(1 + gamma) rounds to 0: n^T would be infinite
    ((0, 1), np.inf),
    ((2, 0), np.nan),
], ids=["underflow", "inf", "nan"])
def test_make_instance_rejects_links_without_spectral_efficiency(bad, value):
    from semhetnet.semantics import FeasibleSets
    gamma = np.full((3, 3), 2.0)
    gamma[bad] = value
    gamma[2, 2] = 0.0  # a later bad link: the message names the first one
    with pytest.raises(ConfigError, match=rf"user {bad[0]} at BS {bad[1]}\b"):
        build_instance(gamma, FeasibleSets(np.ones((3, 3), dtype=bool)), 1.0, np.ones(3), 1e4,
                       0.5, 0.1, 0.95)


def test_xi_is_constant_along_rows_so_the_relaxed_stage_ignores_the_objective():
    # The relaxed stage's premise: n^T is sized to the bit-rate threshold, so
    # xi^T_ij = kappa_i * threshold on every link (to a few ulps), Fbar is
    # constant on the relaxed set, and the analytic centre of the load
    # polytope is as good a relaxed solution as any. If xi^T comes to vary
    # along a row, the relaxed stage must look at Fbar again.
    from semhetnet.harness import _tiny_random_instance
    eps = np.finfo(float).eps
    cases = [(build_scenario(ScenarioConfig(num_users=m), seed).instance,
              ScenarioConfig().msg_per_bit * 1e4)
             for m, seed in ((200, 1), (200, 2), (1000, 1))]
    rng = np.random.default_rng(2024)
    cases += [(_tiny_random_instance(rng, 0.5, 0.1, 0.95), 1e4 / 1600.0) for _ in range(50)]
    for inst, rate in cases:
        assert np.all(np.abs(inst.objective.xi_t / rate - 1.0) <= 4 * eps)

    # so x_star is the same bytes whatever the confidence level and kappa
    base = ScenarioConfig(num_users=200)
    want = two_stage(build_scenario(base, 2).instance).relaxed.x_star.tobytes()
    for alpha, sigma, scale in itertools.product((0.3, 0.55, 0.95), (0.0, 0.3), (1.0, 1e6)):
        cfg = base.replace(alpha=alpha, sigma=sigma, msg_per_bit=base.msg_per_bit * scale)
        assert two_stage(build_scenario(cfg, 2).instance).relaxed.x_star.tobytes() == want


# ------------------------------------------------------------- relaxed solve

def relaxed_args(inst):
    """solve_relaxed_ua's arguments for all of inst's users: their mask, n^T
    and the budgets."""
    return inst.mask(), inst.n_t, inst.budgets


def has_interior_start(inst):
    """Whether _SubsetStarts finds a strictly interior point for all of
    inst's users (enough for one to exist, but not needed)."""
    return _SubsetStarts(inst.mask(), inst.n_t, inst.budgets).start() is None


def test_forced_association_single_feasible_bs():
    inst = make_instance(xi=[[5.0, 1.0]], n_t=[[100.0, 100.0]], budgets=[1e3, 1e3],
                         sets=[(0,)])
    res = solve_relaxed_ua(*relaxed_args(inst))
    assert res.x_star[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert res.x_star[0, 1] == 0.0


def test_symmetric_instance_matches_enumeration():
    # two identical users, two identical BSs, ample budgets
    inst = make_instance(xi=[[4.0, 4.0], [4.0, 4.0]], n_t=[[10.0, 10.0]] * 2,
                         budgets=[1e3, 1e3], sets=[(0, 1), (0, 1)])
    res = solve_relaxed_ua(*relaxed_args(inst))
    candidates = []
    for x in (
        np.array([[1.0, 0.0], [0.0, 1.0]]),   # split
        np.array([[0.0, 1.0], [1.0, 0.0]]),   # swapped
        np.array([[1.0, 0.0], [1.0, 0.0]]),   # paired
        np.array([[0.5, 0.5], [0.5, 0.5]]),   # even mix
    ):
        candidates.append(objective_value(inst.objective, x))
    assert objective_value(inst.objective, res.x_star) == pytest.approx(max(candidates), abs=1e-6)


def analytic_centre_gap(inst, x):
    """n_ij / slack_j over its row's minimum on the mask, minus 1: KKT for
    the maximizer of phi puts x_ij > 0 only where the gap is 0."""
    ratio = np.where(inst.mask(), inst.n_t / (inst.budgets - (x * inst.n_t).sum(axis=0)), np.inf)
    return ratio / ratio.min(axis=1, keepdims=True) - 1.0


def test_relaxed_solution_is_the_analytic_centre():
    # KKT for the maximizer of phi over the row simplices: mass only where
    # n_ij / slack_j is (to 1e-7) its row's smallest, whatever xi^T is; on
    # hand-built cases whose xi^T varies along rows and on random cases
    cases = [make_instance(xi=[[3.0, 1.0], [1.0, 3.0], [2.0, 2.5]], n_t=np.full((3, 2), 50.0),
                           budgets=[200.0, 200.0], sets=[(0, 1)] * 3),
             make_instance(xi=[[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]],
                           n_t=[[50.0, 10.0], [20.0, 50.0], [30.0, 40.0]], budgets=[60.0, 70.0],
                           sets=[(0, 1)] * 3)]
    cases += [random_relaxed_case(np.random.default_rng(seed)) for seed in range(40)]
    checked = 0
    for inst in cases:
        if not has_interior_start(inst):
            continue
        res = solve_relaxed_ua(*relaxed_args(inst))
        gap = analytic_centre_gap(inst, res.x_star)
        assert np.all(gap[res.x_star > 1e-7] <= 1e-7)
        assert np.all((res.x_star * inst.n_t).sum(axis=0) < inst.budgets)
        checked += 1
    assert checked >= 35


def test_tight_budget_keeps_mass_interior():
    # budget on BS A equals one minimum share; both users prefer A
    inst = make_instance(xi=[[2.0, 1.0], [2.0, 1.0]], n_t=[[100.0, 100.0]] * 2,
                         budgets=[100.0, 1e4], sets=[(0, 1), (0, 1)])
    res = solve_relaxed_ua(*relaxed_args(inst))
    mass_on_a = res.x_star[:, 0].sum()
    assert mass_on_a < 1.0


def test_row_sums_and_budget_feasible(rng):
    xi = rng.uniform(0.5, 4.0, size=(6, 3))
    n_t = rng.uniform(10.0, 60.0, size=(6, 3))
    inst = make_instance(xi=xi, n_t=n_t, budgets=[150.0, 150.0, 150.0],
                         sets=[tuple(range(3))] * 6)
    res = solve_relaxed_ua(*relaxed_args(inst))
    assert np.allclose(res.x_star.sum(axis=1), 1.0, atol=1e-9)
    loads = (res.x_star * n_t).sum(axis=0)
    assert np.all(loads <= inst.budgets + 1e-9)


def test_infeasible_instance_names_budget():
    # The only link needs 500 Hz of a 100 Hz budget: no start exists, the
    # packing names BS 0, and two_stage leaves the user unserved, no error
    inst = make_instance(xi=[[1.0]], n_t=[[500.0]], budgets=[100.0], sets=[(0,)])
    assert _SubsetStarts(inst.mask(), inst.n_t, inst.budgets).start() == [0]
    sol = two_stage(inst)
    assert sol.association.unserved == (0,) and sol.evicted == ()


def test_start_names_a_bs_one_ulp_under_budget():
    # Three 0.3 Hz users sum to one ulp under BS 0's 0.9 Hz: the packing
    # overloads nothing, yet no blend keeps 1e-12 of the budget, so the
    # failing pass names BS 0 rather than no BS
    starts = _SubsetStarts(np.ones((3, 1), bool), np.full((3, 1), 0.3), np.array([0.9]))
    assert starts.start() == [0]


def test_packing_overloads_a_bs_whose_running_load_reaches_its_budget():
    # Users 0 and 1 fill BS 0 exactly, to 0.5 + 0.5 = 1.0: the pass stops at
    # user 1 where BS 0 is dry and watched, and packs every user otherwise,
    # leaving BS 0 no room
    links = [[(0, 0.5)], [(0, 0.5)], [(1, 0.25)]]
    budgets = np.array([1.0, 1.0])
    assert solver_module._greedy_pack([0, 1, 2], links, budgets, ([True, False], [True, True])) \
        == (None, [0])
    assert solver_module._greedy_pack([0, 1, 2], links, budgets, ([False, True], [True, True])) \
        == ([0.0, 0.75], None)


@pytest.mark.parametrize("mask, n_t, budgets", [
    (np.ones((2, 2), bool), np.full((2, 2), 50.0), np.full(3, 100.0)),  # one BS too many
    (np.ones((3, 2), bool), np.full((2, 2), 50.0), np.full(2, 100.0)),  # one row too many
    (np.ones((2, 1), bool), np.full((2, 1), 50.0), np.array([100.0])),  # fills BS 0 exactly
    # user 1 leaves 10 Hz on BS 0, and BS 1 holds at most 2/3 of user 0
    (np.array([[True, True], [True, False]]), np.array([[60.0, 60.0], [50.0, 50.0]]),
     np.array([60.0, 40.0])),
    # the budgets hold exactly the split 0.4 / 0.6, so the smoothed dual is
    # bounded and only the finish's tied prices prove there is no room
    (np.ones((1, 2), bool), np.array([[50.0, 50.0]]), np.array([20.0, 30.0])),
], ids=["extra-bs", "extra-user", "no-slack", "overloaded", "boundary"])
def test_relaxed_solve_rejects_rows_without_an_interior_point(mask, n_t, budgets):
    # Shapes that do not describe one instance, and rows whose loads cannot
    # stay strictly under the budgets, raise ValueError: the dual is then
    # unbounded, and prices that prove it (sum_j lam_j N_j <= sum_i min_j
    # lam_j n^T_ij) come up on the way
    with pytest.raises(ValueError):
        solve_relaxed_ua(mask, n_t, budgets)
    # with twice the budgets each has an interior point, and a certified centre
    if mask.shape == n_t.shape and budgets.shape == n_t.shape[1:]:
        res = solve_relaxed_ua(mask, n_t, 2.0 * budgets)
        assert res.stage[2] == "tol" and 0.0 <= res.gap <= 1e-9


def test_relaxed_solve_rejects_a_row_without_a_usable_link():
    with pytest.raises(ValueError, match="no usable link"):
        solve_relaxed_ua(np.array([[True], [False]]), np.ones((2, 1)), np.array([10.0]))


def admitted_instances(config, seeds):
    """solve_relaxed_ua's arguments for each scenario seed: the admitted
    users' usable links and n^T, and the budgets, as two_stage passes them."""
    subs = {}
    for seed in seeds:
        inst = build_scenario(config, seed).instance
        usable = usable_links(inst)
        rows = np.flatnonzero(_admit(usable, inst.n_t, inst.budgets)[0])
        subs[seed] = usable[rows], inst.n_t[rows], inst.budgets
    return subs


@pytest.fixture(scope="module")
def admitted_congested():
    """The admitted users' instances of the cells with 5e4 Hz budgets and
    M = 240, scenario seeds 1-3, where admission blocks users."""
    return admitted_instances(ScenarioConfig(bandwidth_budget_hz=5e4, num_users=240), (1, 2, 3))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxed_solve_ignores_links_off_the_mask(admitted_congested, seed):
    # The solve reads n^T only on the mask: n^T inflated off it leaves the
    # result unchanged to the last bit
    mask, n_t, budgets = admitted_congested[seed]
    got, want = (solve_relaxed_ua(mask, n, budgets) for n in (np.where(mask, n_t, 1e6 * n_t), n_t))
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.prices.tobytes() == want.prices.tobytes()
    assert (got.gap, got.stage) == (want.gap, want.stage)


def test_w_monotone_within_stage(monkeypatch):
    # No damped Newton step may raise the smoothed dual D_mu the stage
    # minimizes: D_mu at each point where the stage solves for a Newton
    # direction is no higher than at the one before
    mask, n_t, budgets = admitted_instances(ScenarioConfig(num_users=200), (3,))[3]
    events = []
    dual, solve = solver_module._smoothed_dual, np.linalg.solve

    def recording_dual(*args):
        out = dual(*args)
        events.append(out[0])
        return out

    def recording_solve(a, b):
        events.append(None)
        return solve(a, b)

    monkeypatch.setattr(solver_module, "_smoothed_dual", recording_dual)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    res = solve_relaxed_ua(mask, n_t, budgets)
    iterates = [a for a, b in zip(events, events[1:]) if a is not None and b is None]
    steps = list(zip(iterates, iterates[1:]))
    assert len(steps) == res.iterations > 0
    assert all(b <= a for a, b in steps)


def random_relaxed_case(r):
    """Up to 8 users on up to 4 BSs, with budgets from below the uniform
    start's loads (admission territory) to ample."""
    m, l = int(r.integers(1, 9)), int(r.integers(1, 5))
    mask = r.random((m, l)) < 0.6
    mask[np.arange(m), r.integers(l, size=m)] = True
    n_t = r.uniform(10.0, 100.0, size=(m, l))
    uniform_loads = ((mask / mask.sum(axis=1)[:, None]) * n_t).sum(axis=0)
    budgets = np.maximum(uniform_loads, 1.0) * r.choice([0.8, 1.0001, 1.01, 1.2, 3.0], size=l,
                                                        p=[0.1, 0.3, 0.2, 0.2, 0.2])
    return make_instance(xi=r.uniform(0.5, 4.0, size=(m, l)), n_t=n_t, budgets=budgets,
                         sets=[np.flatnonzero(row) for row in mask],
                         sigma=float(r.uniform(0.0, 0.4)))


def relaxed_dual(mask, n_t, budgets, prices):
    """D(prices) = sum_j (lam_j N_j - log lam_j - 1) - sum_i min_j lam_j n^T_ij."""
    cheapest = np.where(mask, prices * n_t, np.inf).min(axis=1)
    return float((prices * budgets - np.log(prices) - 1.0).sum() - cheapest.sum())


def assert_certified(mask, n_t, budgets, res):
    """res is a feasible, strictly interior point with exit "tol", whose gap
    is at most 1e-9 max(1, |phi|) and matches D(prices) - phi(x_star);
    returns phi(x_star)."""
    x = res.x_star
    assert np.all(x[~mask] == 0.0) and np.all(x >= 0.0)
    assert np.allclose(x.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    slack = budgets - (x * n_t).sum(axis=0)
    assert np.all(slack > 0.0)
    phi = float(np.log(slack).sum())
    assert res.stage[2] == "tol" and res.iterations == res.stage[0]
    assert 0.0 <= res.gap <= 1e-9 * max(1.0, abs(phi))
    # D and phi summed directly, to within their rounding: sum_j lam_j N_j is
    # the largest term
    scale = max(1.0, abs(phi), float((res.prices * budgets).sum()))
    assert relaxed_dual(mask, n_t, budgets, res.prices) - phi == pytest.approx(
        res.gap, abs=1e-12 * scale)
    return phi


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_relaxed_solve_fuzz_certifies_the_analytic_centre(seed):
    # Random cases, from below the uniform start's loads to ample budgets:
    # either a certified centre, or ValueError where no strictly interior
    # point exists (never where admission finds one); no SolverError
    inst = random_relaxed_case(np.random.default_rng(seed))
    args = relaxed_args(inst)
    try:
        res = solve_relaxed_ua(*args)
    except ValueError:
        assert not has_interior_start(inst)
        return
    assert_certified(*args, res)
    assert np.all(analytic_centre_gap(inst, res.x_star)[res.x_star > 0.0] <= 1e-9)


@pytest.mark.parametrize("seed", [2, 7])
def test_relaxed_solve_certifies_the_slow_m200_cells(seed):
    # The two cells that took the old projected-gradient stage the most
    # iterations: the dual solve certifies them, with tied users
    inst = build_scenario(ScenarioConfig(num_users=200), seed).instance
    usable = usable_links(inst)
    rows = np.flatnonzero(_admit(usable, inst.n_t, inst.budgets)[0])
    args = usable[rows], inst.n_t[rows], inst.budgets
    res = solve_relaxed_ua(*args)
    assert_certified(*args, res)
    assert res.stage[3] > 0


@pytest.mark.parametrize("num_users, num_pico, num_femto, seed, phi, assoc_sha256", [
    (497, 5, 10, 629226, 215.37721663441056,
     "58fc351acb35690d4c480df174bbebce94ba2135aff0acab31707d93924ed44a"),
    (547, 5, 7, 408924, 177.85464233789872,
     "918176c0fbb44172cd43ce0f1feac5f836f8e7506a9e166d63578ca1b3241882"),
    (391, 5, 10, 81262, 220.00073534887463,
     "483ac051ed71a96cc8ff17a21dc548b2c91762cd27c00d9011a40eba9d74cc6f"),
    (479, 5, 10, 692827, 218.41963034228047,
     "cd2ab98c8d394d75ca4a8d1432ee75e940fa2915b351ebba301f9383c673bb96"),
    (371, 5, 10, 302158, 214.3932046637118,
     "05979daa43d7d62c7c655758d738316e09ff5468345df61280f7c5d07df6025f"),
    (703, 1, 6, 74322, 106.9746162556317,
     "b5170e7ef8a58a639a499bff3db197e76f15ac7b169bebb0d493155cfc567555"),
], ids=["m497", "m547", "m391", "m479", "m371", "m703"])
def test_two_stage_certifies_the_hard_cases(num_users, num_pico, num_femto, seed, phi,
                                            assoc_sha256):
    # Cells whose tied users close cycles of tied links, or whose finish
    # needs several add/drop rounds: each certifies its centre, phi is no
    # lower than the projected-gradient stage's (the phi given here), and
    # the association is the one that stage rounded to
    inst = build_scenario(ScenarioConfig(num_users=num_users, num_pico=num_pico,
                                         num_femto=num_femto), seed).instance
    sol = two_stage(inst)
    rows = sol.relaxed.x_star.any(axis=1)
    args = usable_links(inst)[rows], inst.n_t[rows], inst.budgets
    sub = replace(sol.relaxed, x_star=sol.relaxed.x_star[rows])
    assert assert_certified(*args, sub) >= phi - 1e-12 * abs(phi)
    assert hashlib.sha256(sol.association.x.tobytes()).hexdigest() == assoc_sha256


@pytest.mark.parametrize("num_users, num_pico, num_femto, num_domains, kb_per_bs, budget, seed", [
    (762, 5, 8, 3, 2, 9341504.749575555, 39605),
    (477, 1, 10, 2, 1, 9164068.32485028, 476010),
    (415, 7, 7, 5, 3, 9203600.209961236, 947792),
], ids=["m762", "m477", "m415"])
def test_two_stage_finish_certifies_where_many_users_tie(num_users, num_pico, num_femto,
                                                         num_domains, kb_per_bs, budget, seed):
    # Cells where a finish that lets in every cheaper link at once moves
    # about one tied user per round and spends all its rounds at every
    # smoothing: one link per round certifies each centre
    inst = build_scenario(ScenarioConfig(num_users=num_users, num_pico=num_pico,
                                         num_femto=num_femto, num_domains=num_domains,
                                         kb_per_bs=kb_per_bs, bandwidth_budget_hz=budget),
                          seed).instance
    sol = two_stage(inst)
    rows = sol.relaxed.x_star.any(axis=1)
    args = usable_links(inst)[rows], inst.n_t[rows], inst.budgets
    assert_certified(*args, replace(sol.relaxed, x_star=sol.relaxed.x_star[rows]))


@pytest.mark.parametrize("num_users, num_pico, num_femto, num_domains, kb_per_bs, budget, seed, "
                         "stage, assoc_sha256, alloc_sha256", [
    (660, 8, 16, 2, 1, 2931965.355226997, 955943, (19, 41, "tol", 18),
     "65a468507e040294d108295d4f48bec6317de7ad8a83ad5b9e8d5b73f2ec1aa6",
     "bc122390811b998b6dcca8c8dcfa228241e83cf014b72dca31af03d954815f4b"),
    (754, 8, 3, 2, 2, 3193340.9762307806, 986587, (6, 35, "tol", 5),
     "b31c5248292fa4fffb8a6e4bddaa5f6f8e7adc7240ddb6440610f2d47bad8008",
     "6a53497a2afc8bb97b8511c65bbe9b1d823c1e77fb68302223e7c62606d53dcb"),
], ids=["m660", "m754"])
def test_relaxed_solve_certifies_in_one_stage_where_the_ladder_climbed(
        num_users, num_pico, num_femto, num_domains, kb_per_bs, budget, seed, stage,
        assoc_sha256, alloc_sha256):
    # The two configs of 10,000 fuzzed ones whose finish at mu = 1e-2 needs
    # more than 30 rounds: one stage and its finish certify them, with the
    # association and allocation a second, smoother stage gave
    inst = build_scenario(ScenarioConfig(num_users=num_users, num_pico=num_pico,
                                         num_femto=num_femto, num_domains=num_domains,
                                         kb_per_bs=kb_per_bs, bandwidth_budget_hz=budget),
                          seed).instance
    sol = two_stage(inst)
    assert sol.relaxed.stage == stage
    assert [hashlib.sha256(a.tobytes()).hexdigest()
            for a in (sol.association.x, sol.allocation.n)] == [assoc_sha256, alloc_sha256]


@pytest.mark.parametrize("num_users, budget, seed", [
    (60, 1e20, 3), (184, 8.573657961264772e19, 187674), (26, 4.4183509946100246e131, 807940),
], ids=["m60", "m184", "m26"])
def test_relaxed_solve_certifies_where_tied_loads_fall_below_budget_rounding(num_users, budget,
                                                                             seed):
    # Budgets so large that n^T / N is below the rounding of 1: the finish's
    # least-squares solve loses its load rows, and only a solve with each
    # row rescaled drops the links the mu = 1e-2 window ties
    inst = build_scenario(ScenarioConfig(num_users=num_users, bandwidth_budget_hz=budget),
                          seed).instance
    sol = two_stage(inst)
    rows = sol.relaxed.x_star.any(axis=1)
    args = usable_links(inst)[rows], inst.n_t[rows], inst.budgets
    assert_certified(*args, replace(sol.relaxed, x_star=sol.relaxed.x_star[rows]))


# ------------------------------------------------------------------ rounding

def test_round_picks_argmax():
    inst = make_instance(xi=[[1.0, 1.0, 1.0]], n_t=[[10.0] * 3], budgets=[100.0] * 3,
                         sets=[(0, 1, 2)])
    xs = RelaxedAssociation(np.array([[0.2, 0.7, 0.1]]))
    assoc = round_association(xs, inst)
    assert list(assoc.x[0]) == [0, 1, 0]


def test_round_tie_breaks_to_the_lower_index():
    # xi^T plays no part: it is the same on every link of a generated
    # instance, so ordering by it would order by rounding noise
    for xi in ([[1.0, 1.0, 1.0]], [[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]]):
        inst = make_instance(xi=xi, n_t=[[10.0] * 3], budgets=[100.0] * 3, sets=[(0, 1, 2)])
        assoc = round_association(RelaxedAssociation(np.array([[0.2, 0.4, 0.4]])), inst)
        assert list(assoc.x[0]) == [0, 1, 0]


def loop_round_association(x_star, mask):
    """Per-user rounding loop, the reference for the vectorized rule."""
    m, l = x_star.shape
    x = np.zeros((m, l), dtype=np.int8)
    unserved = []
    for i in range(m):
        js = np.flatnonzero(mask[i])
        w = x_star[i, js]
        if w.max() <= 0.0:
            unserved.append(i)
            continue
        x[i, int(js[w == w.max()].min())] = 1
    return x, tuple(unserved)


def loop_max_sinr(gamma, cand):
    """Per-user strongest-BS loop, the reference for the vectorized baseline."""
    x = np.zeros(gamma.shape, dtype=np.int8)
    for i in range(gamma.shape[0]):
        js = np.flatnonzero(cand[i])
        g = gamma[i, js]
        x[i, int(js[g == g.max()].min())] = 1
    return x


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_vectorized_rounding_and_max_sinr_match_loops(seed):
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 9)), int(r.integers(1, 5))
    mask = r.random((m, l)) < 0.6
    mask[np.arange(m), r.integers(l, size=m)] = True
    # few distinct values, so weight and SINR ties are common; xi^T varies
    # along rows, and rounding must not read it
    x_star = r.choice([-0.5, 0.0, 0.25, 0.5], size=(m, l))
    x_star[r.random(m) < 0.2] = 0.0  # users blocked before the relaxed solve
    xi = r.choice([1.0, 2.0], size=(m, l))
    inst = make_instance(xi=xi, n_t=np.full((m, l), 10.0), budgets=[1e3] * l,
                         sets=[np.flatnonzero(row) for row in mask])
    assoc = round_association(RelaxedAssociation(x_star), inst)
    want_x, want_unserved = loop_round_association(x_star, mask)
    assert np.array_equal(assoc.x, want_x) and assoc.x.dtype == want_x.dtype
    assert assoc.unserved == want_unserved

    gamma = r.choice([0.5, 1.0, 3.0], size=(m, l))
    for restrict in (False, True):
        cand = mask if restrict else np.ones((m, l), dtype=bool)
        got = baseline_max_sinr(gamma, inst, restrict_to_feasible=restrict)
        assert np.array_equal(got.x, loop_max_sinr(gamma, cand))  # budgets never bind here


def test_round_binary_input_unchanged():
    inst = make_instance(xi=[[1.0, 1.0]], n_t=[[10.0, 10.0]], budgets=[100.0] * 2,
                         sets=[(0, 1)])
    xs = RelaxedAssociation(np.array([[0.0, 1.0]]))
    assoc = round_association(xs, inst)
    assert list(assoc.x[0]) == [0, 1]


# -------------------------------------------------------------------- repair

def test_repair_noop_when_feasible():
    inst = make_instance(xi=np.ones((2, 2)), n_t=np.full((2, 2), 10.0),
                         budgets=[100.0, 100.0], sets=[(0, 1)] * 2)
    x = np.array([[1, 0], [0, 1]], dtype=np.int8)
    xs = RelaxedAssociation(np.array([[0.9, 0.1], [0.2, 0.8]]))
    repaired = repair_overload(Association(x=x), xs, inst)
    assert np.array_equal(repaired.x, x)
    assert repaired.unserved == ()


def test_repair_moves_largest_consumer_by_weights():
    # three users, 1 MHz each, on BS A with a 2 MHz budget; B is empty
    n_t = np.full((3, 2), 1e6)
    inst = make_instance(xi=np.ones((3, 2)), n_t=n_t, budgets=[2e6, 2e6],
                         sets=[(0, 1)] * 3)
    x = np.array([[1, 0], [1, 0], [1, 0]], dtype=np.int8)
    xs = RelaxedAssociation(np.array([[0.6, 0.4]] * 3))
    repaired = repair_overload(Association(x=x), xs, inst)
    # equal demands: the largest index moves
    assert np.array_equal(repaired.x, np.array([[1, 0], [1, 0], [0, 1]]))
    assert repaired.unserved == ()
    loads = (repaired.x * n_t).sum(axis=0)
    assert np.all(loads <= inst.budgets)


def test_repair_blocks_without_alternative():
    inst = make_instance(xi=np.ones((2, 1)), n_t=np.full((2, 1), 800.0),
                         budgets=[1000.0], sets=[(0,), (0,)])
    x = np.array([[1], [1]], dtype=np.int8)
    xs = RelaxedAssociation(np.array([[1.0], [1.0]]))
    repaired = repair_overload(Association(x=x), xs, inst)
    assert repaired.unserved == (1,)
    assert repaired.x[1, 0] == 0 and repaired.x[0, 0] == 1


def reference_repair_budget(x, weights, inst, cand_mask, unserved=()):
    """The repair rule on numpy arrays, one eviction at a time: of the BSs
    whose excess exceeds their tol, the most overloaded (first on ties)
    evicts its largest-n^T user (largest index on ties), who lands on the
    highest-weight candidate whose excess stays within tol (lower BS on
    ties) or is blocked. A BS left without users carries no load."""
    n_t, budgets = inst.n_t, inst.budgets
    x = np.asarray(x, dtype=np.int8).copy()
    blocked = set(int(i) for i in unserved)
    loads = np.einsum("ml,ml->l", x, n_t)
    tol = 1e-12 * np.maximum(budgets, 1.0)
    while True:
        excess = loads - budgets
        over = excess > tol
        if not over.any():
            break
        j = int(np.argmax(np.where(over, excess, -np.inf)))
        users = np.flatnonzero(x[:, j])
        nv = n_t[users, j]
        i = int(users[nv == nv.max()].max())
        x[i, j] = 0
        loads[j] = loads[j] - n_t[i, j] if x[:, j].any() else 0.0
        ks = np.flatnonzero(cand_mask[i])
        ks = ks[ks != j]
        placed = False
        for k in ks[np.lexsort((ks, -weights[i, ks]))]:
            k = int(k)
            if (loads[k] + n_t[i, k]) - budgets[k] <= tol[k]:
                x[i, k] = 1
                loads[k] += n_t[i, k]
                placed = True
                break
        if not placed:
            blocked.add(i)
    return Association(x=x, unserved=tuple(sorted(blocked)))


def assert_same_association(got, want):
    assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
    assert got.unserved == want.unserved


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_repair_matches_reference_loop_where_budgets_bind(seed):
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 30)), int(r.integers(1, 6))
    mask = r.random((m, l)) < 0.5
    mask[np.arange(m), r.integers(l, size=m)] = True
    # few distinct n^T and weights, so ties are common; a budget of 0.5 fits
    # nobody, so some users find every candidate full
    n_t = r.choice([1.0, 2.0, 3.0], size=(m, l))
    budgets = r.choice([0.5, 2.0, 5.0, 12.0], size=l)
    inst = make_instance(xi=np.ones((m, l)), n_t=n_t, budgets=budgets,
                         sets=[np.flatnonzero(row) for row in mask])
    gamma = r.choice([0.5, 1.0, 3.0], size=(m, l))
    for restrict in (False, True):
        cand = mask if restrict else np.ones((m, l), dtype=bool)
        assert_same_association(baseline_max_sinr(gamma, inst, restrict_to_feasible=restrict),
                                reference_repair_budget(loop_max_sinr(gamma, cand), gamma,
                                                        inst, cand))
    # two-stage repair, with users blocked before it (all-zero relaxed rows)
    x_star = r.choice([0.0, 0.25, 0.5], size=(m, l)) * mask
    x_star[r.random(m) < 0.3] = 0.0
    xs = RelaxedAssociation(x_star)
    assoc = round_association(xs, inst)
    assert_same_association(repair_overload(assoc, xs, inst),
                            reference_repair_budget(assoc.x, x_star, inst, mask,
                                                    unserved=assoc.unserved))


def test_repair_evicts_again_from_a_drained_bs_a_user_landed_on():
    # BS 1 is drained first (user 0 is blocked); user 1 then leaves BS 0, but
    # its n^T = fl(1 + 1e-12) on BS 1 would leave an excess above tol there,
    # though it fits fl(1 + tol): it does not land on BS 1 and is blocked too
    inst = make_instance(xi=np.ones((2, 2)), n_t=[[9.0, 2.0], [1.5, 1.0 + 1e-12]],
                         budgets=[1.0, 1.0], sets=[(1,), (0, 1)])
    xs = RelaxedAssociation(np.array([[0.0, 1.0], [1.0, 0.5]]))
    assoc = Association(x=np.array([[0, 1], [1, 0]], dtype=np.int8))
    repaired = repair_overload(assoc, xs, inst)
    assert_same_association(repaired, reference_repair_budget(assoc.x, xs.x_star, inst,
                                                              inst.mask()))
    assert repaired.unserved == (0, 1) and not repaired.x.any()


def test_repair_never_lands_a_user_where_the_drain_evicts_a_hungrier_one():
    # User 0 leaves BS 0 for BS 1, where 0.75 + n^T is exactly fl(1 + 1e-12):
    # within budget + tol after rounding, but 1.00009e-12 above the budget,
    # more than tol. Landing it there would drain BS 1 again and block user
    # 1, its hungrier user, which has no other station. It goes to BS 2.
    inst = make_instance(xi=np.ones((2, 3)),
                         n_t=[[2.0, 0.25 + 1.000088900582341e-12, 1.0], [5.0, 0.75, 5.0]],
                         budgets=[1.0, 1.0, 10.0], sets=[(0, 1, 2), (1,)])
    assert 0.75 + inst.n_t[0, 1] == 1.0 + 1e-12
    xs = RelaxedAssociation(np.array([[0.2, 0.5, 0.3], [0.0, 1.0, 0.0]]))
    assoc = Association(x=np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int8))
    repaired = repair_overload(assoc, xs, inst)
    assert_same_association(repaired, reference_repair_budget(assoc.x, xs.x_star, inst,
                                                              inst.mask()))
    assert repaired.unserved == () and repaired.x.tolist() == [[0, 0, 1], [0, 1, 0]]


def test_repair_drains_a_small_budget_bs_while_a_larger_excess_is_within_tol():
    # BS 0 is over by 5e-6, within its tol of 1e-5; BS 1 is over by 1e-6,
    # above its tol of 1e-12 (a relative 1e-6). BS 1 is drained, and user 1
    # moves to BS 2, where it fits
    inst = make_instance(xi=np.ones((2, 3)), n_t=[[1e7 + 5e-6, 5.0, 5.0], [5.0, 1.0 + 1e-6, 1.0]],
                         budgets=[1e7, 1.0, 10.0], sets=[(0,), (1, 2)])
    xs = RelaxedAssociation(np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.4]]))
    assoc = Association(x=np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int8))
    repaired = repair_overload(assoc, xs, inst)
    assert_same_association(repaired, reference_repair_budget(assoc.x, xs.x_star, inst,
                                                              inst.mask()))
    assert repaired.unserved == () and repaired.x.tolist() == [[1, 0, 0], [0, 0, 1]]
    excess = np.einsum("ml,ml->l", repaired.x, inst.n_t) - inst.budgets
    assert (excess <= 1e-12 * np.maximum(inst.budgets, 1.0)).all()


@pytest.mark.parametrize("m", [2000, 3000])
def test_max_sinr_repair_matches_reference_loop_at_scale(m):
    scenario = build_scenario(ScenarioConfig(num_users=m), 1)
    inst, gamma = scenario.instance, scenario.gamma
    for restrict in (False, True):
        cand = inst.mask() if restrict else np.ones(gamma.shape, dtype=bool)
        assert_same_association(baseline_max_sinr(gamma, inst, restrict_to_feasible=restrict),
                                reference_repair_budget(loop_max_sinr(gamma, cand), gamma,
                                                        inst, cand))


# -------------------------------------------------------------- residual BA

def test_single_user_gets_entire_budget():
    inst = make_instance(xi=[[2.0, 1.0]], n_t=[[100.0, 100.0]], budgets=[1e4, 5e3],
                         sets=[(0, 1)])
    assoc = Association(x=np.array([[1, 0]], dtype=np.int8))
    alloc = allocate_residual(assoc, inst)
    assert alloc.n[0, 0] == pytest.approx(1e4)


def test_sigma_zero_residual_goes_to_best_rate():
    # c = xi / n_t: user 1 has the best rate per Hz
    xi = np.array([[1.0], [3.0], [2.0]])
    n_t = np.array([[100.0], [100.0], [100.0]])
    inst = make_instance(xi=xi, n_t=n_t, budgets=[1000.0], sets=[(0,)] * 3,
                         sigma=0.0)
    assoc = Association(x=np.ones((3, 1), dtype=np.int8))
    alloc = allocate_residual(assoc, inst)
    assert alloc.n[1, 0] == pytest.approx(800.0, rel=1e-6)
    assert alloc.n[0, 0] == pytest.approx(100.0, rel=1e-6)
    assert alloc.n[2, 0] == pytest.approx(100.0, rel=1e-6)


def grid_best_two_user_split(inst, assoc, points=200001):
    """1-D grid-search oracle over the residual share of user 0."""
    users = np.flatnonzero(assoc.x[:, 0])
    c = inst.rate_per_hz()[users, 0]
    floors = inst.n_t[users, 0]
    budget = inst.budgets[0]
    residual = budget - floors.sum()
    best_val, best_m0 = -np.inf, None
    tau, sq = inst.objective.tau, inst.objective.sigma * inst.objective.q
    for m0 in np.linspace(0.0, residual, points):
        s = c * (floors + np.array([m0, residual - m0]))
        val = tau * s.sum() - sq * np.linalg.norm(s)
        if val > best_val:
            best_val, best_m0 = val, m0
    return best_val, best_m0


def test_residual_interior_split_matches_grid_oracle():
    # strong risk aversion forces an interior split
    xi = np.array([[2.0], [1.9]])
    n_t = np.array([[100.0], [100.0]])
    inst = make_instance(xi=xi, n_t=n_t, budgets=[2000.0], sets=[(0,), (0,)],
                         tau=0.5, sigma=0.5, alpha=0.95)
    assoc = Association(x=np.ones((2, 1), dtype=np.int8))
    alloc = allocate_residual(assoc, inst)
    _, best_m0 = grid_best_two_user_split(inst, assoc)
    got_m0 = alloc.n[0, 0] - 100.0
    assert got_m0 == pytest.approx(best_m0, abs=1e-4 * 2000.0)
    assert 0.0 < got_m0 < 1800.0  # genuinely interior
    assert alloc.n[:, 0].sum() == pytest.approx(2000.0, rel=1e-12)


def test_residual_not_worse_than_even_split(rng):
    for _ in range(10):
        m = int(rng.integers(2, 6))
        xi = rng.uniform(0.5, 5.0, size=(m, 1))
        n_t = rng.uniform(50.0, 150.0, size=(m, 1))
        budget = float(n_t.sum() * rng.uniform(1.1, 3.0))
        inst = make_instance(xi=xi, n_t=n_t, budgets=[budget], sets=[(0,)] * m,
                             sigma=rng.uniform(0.0, 0.4))
        assoc = Association(x=np.ones((m, 1), dtype=np.int8))
        alloc = allocate_residual(assoc, inst)
        residual = budget - n_t.sum()
        even = n_t[:, 0] + residual / m
        even_alloc = Allocation(n=even[:, None])
        assert instance_fbar(assoc, alloc, inst) >= instance_fbar(assoc, even_alloc, inst) - 1e-9
        assert alloc.n[:, 0].sum() == pytest.approx(budget, rel=1e-9)
        assert np.all(alloc.n[:, 0] >= n_t[:, 0] - 1e-9 * budget)


KKT_RTOL = 1e-8  # the bound the allocation's global KKT residual must meet


def test_sigma_zero_tie_goes_to_lowest_index():
    xi = np.array([[1.0], [3.0], [3.0]])
    inst = make_instance(xi=xi, n_t=np.full((3, 1), 100.0), budgets=[1000.0],
                         sets=[(0,)] * 3, sigma=0.0)
    alloc = allocate_residual(Association(x=np.ones((3, 1), dtype=np.int8)), inst)
    assert list(alloc.n[:, 0]) == [100.0, 800.0, 100.0]
    assert alloc.kkt_residual <= KKT_RTOL


def reference_simplex_projection(v, support):
    """Slow single-row projection onto the simplex on `support`."""
    idx = np.flatnonzero(support)
    u = np.sort(v[idx])[::-1]
    cs = np.cumsum(u)
    rho = max(k for k in range(1, idx.size + 1) if u[k - 1] - (cs[k - 1] - 1.0) / k > 0)
    theta = (cs[rho - 1] - 1.0) / rho
    out = np.zeros_like(v)
    out[idx] = np.maximum(v[idx] - theta, 0.0)
    return out


def reference_residual_pga(cv, floors, budget, tau, sq, tol, max_iter=5000):
    """Projected gradient ascent on one BS with its own (per-BS) norm: the
    former allocation, kept as the reference the global split must beat."""
    residual = budget - floors.sum()
    if residual <= 0:
        return np.zeros_like(cv)
    m = np.full(cv.size, residual / cv.size)
    support = np.ones(cv.size, dtype=bool)

    def project(v):  # onto {m >= 0, sum m = residual}
        return residual * reference_simplex_projection(v / residual, support)

    def value(m):
        s = cv * (floors + m)
        return float(tau * s.sum() - sq * np.linalg.norm(s))

    def gradient(m):
        s = cv * (floors + m)
        nrm = float(np.linalg.norm(s))
        return tau * cv if nrm <= 0 else cv * (tau - sq * s / nrm)

    f_cur = value(m)
    step = residual
    for _ in range(max_iter):
        g = gradient(m)
        gmax = float(np.abs(g).max())
        if gmax <= 0:
            break
        probe = project(m + (residual / gmax) * g)
        if float(np.abs(probe - m).max()) <= tol:
            break
        step = min(step * 2.0, 1e3 * residual)
        accepted = False
        while step > 1e-18 * residual:
            cand = project(m + step * g)
            f_new = value(cand)
            if f_new >= f_cur + 1e-4 * float(np.dot(g, cand - m)) and f_new >= f_cur:
                m, f_cur = cand, f_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return m


def per_bs_pga_allocation(assoc, inst):
    c = inst.rate_per_hz()
    sq = inst.objective.sigma * inst.objective.q
    n = np.zeros_like(inst.n_t)
    for j in range(inst.num_bs):
        users = np.flatnonzero(assoc.x[:, j])
        if users.size == 1:
            n[users[0], j] = inst.budgets[j]
        elif users.size:
            floors = inst.n_t[users, j]
            n[users, j] = floors + reference_residual_pga(
                c[users, j], floors, inst.budgets[j], inst.objective.tau, sq,
                tol=KKT_RTOL * inst.budgets[j])
    return Allocation(n=n)


def random_allocation_case(r, sigma, alpha):
    """Users spread over a few BSs (some empty, some with no room left)."""
    m, l = int(r.integers(2, 9)), int(r.integers(1, 5))
    bs = r.integers(l, size=m)
    x = np.zeros((m, l), dtype=np.int8)
    x[np.arange(m), bs] = 1
    n_t = r.uniform(10.0, 100.0, size=(m, l))
    floor_sum = np.bincount(bs, n_t[np.arange(m), bs], l)
    scale = np.where(r.random(l) < 0.15, 1.0, r.uniform(1.0, 4.0, size=l))
    budgets = np.where(floor_sum > 0, floor_sum * scale, 50.0)
    inst = make_instance(xi=r.uniform(0.2, 5.0, size=(m, l)), n_t=n_t, budgets=budgets,
                         sets=[(j,) for j in bs], sigma=sigma, alpha=alpha)
    return inst, Association(x=x)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.5), st.floats(0.5, 0.99))
def test_residual_fuzz_global_kkt_and_beats_per_bs_pga(seed, sigma, alpha):
    inst, assoc = random_allocation_case(np.random.default_rng(seed), sigma, alpha)
    alloc = allocate_residual(assoc, inst)
    assert alloc.kkt_residual <= KKT_RTOL
    fbar = instance_fbar(assoc, alloc, inst)
    scale = 1e-12 * max(1.0, abs(fbar))
    assert fbar >= instance_fbar(assoc, per_bs_pga_allocation(assoc, inst), inst) - scale
    users, bs = np.nonzero(assoc.x)
    sizes = np.bincount(bs, minlength=inst.num_bs)
    room = inst.budgets - np.bincount(bs, inst.n_t[users, bs], inst.num_bs)
    even = np.zeros_like(inst.n_t)
    even[users, bs] = inst.n_t[users, bs] + np.maximum(room[bs], 0.0) / sizes[bs]
    assert fbar >= instance_fbar(assoc, Allocation(n=even), inst) - scale
    n = alloc.n[users, bs]
    assert np.all(n >= inst.n_t[users, bs] - 1e-12 * inst.budgets[bs])
    assert np.all(alloc.n[assoc.x == 0] == 0.0)
    loads = np.bincount(bs, n, inst.num_bs)
    active = (sizes > 0) & (room > 0)
    assert np.all(np.abs(loads - inst.budgets)[active] <= 1e-12 * inst.budgets[active])
    assert np.all(n[room[bs] <= 0] == inst.n_t[users, bs][room[bs] <= 0])


def test_residual_uses_global_norm_across_bss():
    # BS 1's lone, fast user enters the norm that BS 0's split trades against
    xi = np.array([[2.0, 0.0], [1.9, 0.0], [0.0, 10.0]])
    inst = make_instance(xi=xi, n_t=np.full((3, 2), 100.0), budgets=[2000.0, 2000.0],
                         sets=[(0,), (0,), (1,)], tau=0.5, sigma=0.5, alpha=0.95)
    assoc = Association(x=np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8))
    alloc = allocate_residual(assoc, inst)
    c = inst.rate_per_hz()
    tau, sq = inst.objective.tau, inst.objective.sigma * inst.objective.q
    m0 = np.linspace(0.0, 1800.0, 200001)
    s0, s1, s2 = c[0, 0] * (100.0 + m0), c[1, 0] * (1900.0 - m0), c[2, 1] * 2000.0
    global_best = m0[np.argmax(tau * (s0 + s1 + s2) - sq * np.sqrt(s0**2 + s1**2 + s2**2))]
    per_bs_best = m0[np.argmax(tau * (s0 + s1) - sq * np.sqrt(s0**2 + s1**2))]
    assert abs(global_best - per_bs_best) > 100.0  # the two norms disagree clearly
    assert alloc.n[0, 0] - 100.0 == pytest.approx(global_best, abs=1e-4 * 2000.0)
    assert alloc.n[2, 1] == 2000.0
    assert alloc.kkt_residual <= KKT_RTOL


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.49))
def test_residual_below_median_confidence_is_a_best_response_vertex(seed, alpha):
    # alpha < 0.5 makes Fbar convex: each BS hands its residual to one user,
    # and no single BS gains by handing it to another (checked by enumeration)
    r = np.random.default_rng(seed)
    m = int(r.integers(2, 4))
    bs = r.integers(2, size=m)
    x = np.zeros((m, 2), dtype=np.int8)
    x[np.arange(m), bs] = 1
    n_t = 10.0 ** r.uniform(0.0, 2.0, size=(m, 2))
    budgets = np.bincount(bs, n_t[np.arange(m), bs], 2) * r.uniform(1.2, 4.0, size=2) + 1.0
    # close rates per Hz on spread floors: handing the residual to a big
    # user often beats the best rate, as the norm term rewards concentration
    inst = make_instance(xi=r.uniform(0.5, 1.0, size=(m, 2)) * n_t, n_t=n_t, budgets=budgets,
                         sets=[(j,) for j in bs], sigma=float(r.uniform(0.05, 0.5)),
                         alpha=alpha)
    assoc = Association(x=x)
    alloc = allocate_residual(assoc, inst)
    fbar = instance_fbar(assoc, alloc, inst)
    for j in range(2):
        users = np.flatnonzero(bs == j)
        if users.size == 0:
            continue
        above = alloc.n[users, j] - n_t[users, j] > 1e-9 * budgets[j]
        assert above.sum() == 1  # a vertex
        for i in users:
            moved = alloc.n.copy()
            moved[users, j] = n_t[users, j]
            moved[i, j] = budgets[j] - n_t[users, j].sum() + n_t[i, j]
            assert instance_fbar(assoc, Allocation(n=moved), inst) <= fbar + 1e-12 * abs(fbar)
    assert alloc.kkt_residual <= KKT_RTOL


# ----------------------------------------------------------------- baselines

def test_max_sinr_association_picks_strongest():
    gamma = np.array([[1.0, 5.0, 2.0]])
    inst = make_instance(xi=np.ones((1, 3)), n_t=np.full((1, 3), 10.0),
                         budgets=[100.0] * 3, sets=[(0,)])  # feasible set ignored by default
    assoc = baseline_max_sinr(gamma, inst)
    assert list(assoc.x[0]) == [0, 1, 0]


def test_max_sinr_tie_takes_lowest_index():
    gamma = np.array([[2.0, 2.0]])
    inst = make_instance(xi=np.ones((1, 2)), n_t=np.full((1, 2), 10.0),
                         budgets=[100.0] * 2, sets=[(0, 1)])
    assoc = baseline_max_sinr(gamma, inst)
    assert list(assoc.x[0]) == [1, 0]


def test_max_sinr_respects_feasible_sets_when_asked():
    gamma = np.array([[1.0, 5.0]])
    inst = make_instance(xi=np.ones((1, 2)), n_t=np.full((1, 2), 10.0),
                         budgets=[100.0] * 2, sets=[(0,)])
    assoc = baseline_max_sinr(gamma, inst, restrict_to_feasible=True)
    assert list(assoc.x[0]) == [1, 0]


def test_max_sinr_overload_spills_to_next_strongest():
    gamma = np.array([[9.0, 3.0], [8.0, 4.0], [7.0, 5.0]])
    n_t = np.full((3, 2), 600.0)
    inst = make_instance(xi=np.ones((3, 2)), n_t=n_t, budgets=[1000.0, 2000.0],
                         sets=[(0, 1)] * 3)
    assoc = baseline_max_sinr(gamma, inst)
    loads = (assoc.x * n_t).sum(axis=0)
    assert np.all(loads <= inst.budgets)
    assert assoc.x[:, 0].sum() == 1 and assoc.x[:, 1].sum() == 2
    assert assoc.unserved == ()


def test_even_allocation_splits_budget():
    inst = make_instance(xi=np.ones((4, 1)), n_t=np.full((4, 1), 100.0),
                         budgets=[2e6], sets=[(0,)] * 4)
    assoc = Association(x=np.ones((4, 1), dtype=np.int8))
    alloc = baseline_ba(assoc, inst, np.full((4, 1), 3.0), mode="even")
    assert np.allclose(alloc.n[:, 0], 0.5e6)


def test_waterfill_symmetric_users_split_evenly():
    inst = make_instance(xi=np.ones((3, 1)), n_t=np.full((3, 1), 100.0),
                         budgets=[9000.0], sets=[(0,)] * 3)
    assoc = Association(x=np.ones((3, 1), dtype=np.int8))
    alloc = baseline_ba(assoc, inst, np.full((3, 1), 4.0), mode="waterfill")
    assert np.allclose(alloc.n[:, 0], 3000.0, rtol=1e-9)


def waterfill_grid_oracle(ghat, floors, total, points=200001):
    def utility(n):
        return np.sum(n * np.log2(1.0 + ghat / n))
    best_val, best_n0 = -np.inf, None
    for n0 in np.linspace(floors[0], total - floors[1], points):
        val = utility(np.array([n0, total - n0]))
        if val > best_val:
            best_val, best_n0 = val, n0
    return best_n0


def test_waterfill_two_users_matches_grid_oracle():
    gamma = np.array([[8.0], [0.5]])
    n_t = np.array([[200.0], [900.0]])
    inst = make_instance(xi=np.ones((2, 1)), n_t=n_t, budgets=[10000.0], sets=[(0,)] * 2)
    assoc = Association(x=np.ones((2, 1), dtype=np.int8))
    alloc = baseline_ba(assoc, inst, gamma, mode="waterfill")
    ghat = gamma[:, 0] * n_t[:, 0]
    best_n0 = waterfill_grid_oracle(ghat, n_t[:, 0], 10000.0)
    assert alloc.n[0, 0] == pytest.approx(best_n0, abs=1e-4 * 10000.0)
    assert alloc.n[:, 0].sum() == pytest.approx(10000.0, rel=1e-12)
    assert np.all(alloc.n[:, 0] >= n_t[:, 0] * (1 - 1e-9))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_water_fill_is_one_level_per_segment(seed):
    r = np.random.default_rng(seed)
    size, l = int(r.integers(1, 30)), int(r.integers(1, 6))
    seg = r.integers(l, size=size)
    floors = r.uniform(0.0, 10.0, size=size)
    bp = r.choice([-1.0, 0.0, 2.0], size=size) if r.random() < 0.3 else r.normal(0.0, 5.0, size)
    q = 10.0 ** r.uniform(-3.0, 3.0, size=size)
    totals = np.bincount(seg, floors, l) + r.uniform(0.01, 50.0, size=l)
    n = _water_fill(seg, floors, bp, q, totals)
    present = np.bincount(seg, minlength=l) > 0
    assert np.allclose(np.bincount(seg, n, l)[present], totals[present], rtol=1e-12, atol=0.0)
    assert np.all(n >= floors)
    above = n > floors
    level = np.where(above, bp + (n - floors) / q, np.nan)
    for j in np.flatnonzero(present):
        lv = level[(seg == j) & above]
        assert lv.size  # the total exceeds the floors, so someone is above
        assert np.ptp(lv) <= 1e-9 * (1.0 + np.abs(lv).max())
        assert np.all(bp[(seg == j) & ~above] >= lv.max() - 1e-9 * (1.0 + np.abs(lv).max()))


def reference_waterfill(ghat, floors, total):
    """Former per-BS water-filling by bisection on the scale z (1e-9 relative)."""
    if floors.size == 1:
        return np.array([total])
    if total - floors.sum() <= 0:
        return floors.copy()

    def supply(z):
        return float(np.maximum(floors, ghat / z).sum())

    z_lo = z_hi = 1.0
    while supply(z_hi) > total:
        z_hi *= 2.0
    while supply(z_lo) < total:
        z_lo *= 0.5
    while z_hi - z_lo > 1e-9 * z_lo:
        mid = 0.5 * (z_lo + z_hi)
        if supply(mid) > total:
            z_lo = mid
        else:
            z_hi = mid
    alloc = np.maximum(floors, ghat / (0.5 * (z_lo + z_hi)))
    headroom = alloc - floors
    delta = total - alloc.sum()
    if headroom.sum() > 0:
        alloc += delta * headroom / headroom.sum()
    else:
        alloc += delta / alloc.size
    return alloc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_waterfill_matches_per_bs_bisection(seed):
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 12)), int(r.integers(1, 5))
    bs = r.integers(l, size=m)
    x = np.zeros((m, l), dtype=np.int8)
    x[np.arange(m), bs] = 1
    n_t = r.uniform(10.0, 100.0, size=(m, l))
    floor_sum = np.bincount(bs, n_t[np.arange(m), bs], l)
    budgets = np.where(floor_sum > 0, floor_sum * r.uniform(1.0, 4.0, size=l), 50.0)
    gamma = 10.0 ** r.uniform(-1.0, 2.0, size=(m, l))
    inst = make_instance(xi=np.ones((m, l)), n_t=n_t, budgets=budgets, sets=[(j,) for j in bs])
    alloc = baseline_ba(Association(x=x), inst, gamma, mode="waterfill")
    for j in range(l):
        users = np.flatnonzero(bs == j)
        if users.size:
            want = reference_waterfill(gamma[users, j] * n_t[users, j], n_t[users, j], budgets[j])
            assert np.allclose(alloc.n[users, j], want, rtol=1e-7, atol=0.0)
            assert alloc.n[users, j].sum() == pytest.approx(budgets[j], rel=1e-12)


def test_baseline_ba_unknown_mode():
    inst = make_instance(xi=np.ones((1, 1)), n_t=np.full((1, 1), 10.0), budgets=[100.0],
                         sets=[(0,)])
    assoc = Association(x=np.ones((1, 1), dtype=np.int8))
    with pytest.raises(ValueError):
        baseline_ba(assoc, inst, np.ones((1, 1)), mode="zigzag")


# ------------------------------------------------------------------ pipeline

def test_two_stage_pre_blocks_impossible_users():
    # user 1 has no link whose minimum fits in any budget
    inst = make_instance(xi=np.ones((2, 2)), n_t=np.array([[50.0, 60.0], [5e3, 7e3]]),
                         budgets=[1e3, 1e3], sets=[(0, 1), (0, 1)])
    sol = two_stage(inst)
    assert sol.association.unserved == (1,)
    assert sol.association.x[0].sum() == 1
    assert not usable_links(inst)[1].any()


def test_two_stage_without_admitted_users():
    # no link fits in a budget: the relaxed solve gets no user and no start
    inst = make_instance(xi=np.ones((2, 1)), n_t=np.full((2, 1), 5e3), budgets=[1e3],
                         sets=[(0,)] * 2)
    sol = two_stage(inst)
    assert sol.association.unserved == (0, 1)
    assert sol.relaxed.x_star.tobytes() == np.zeros((2, 1)).tobytes()
    assert (sol.relaxed.iterations, sol.relaxed.stage) == (0, None)


def test_two_stage_deterministic(rng):
    xi = rng.uniform(0.5, 4.0, size=(8, 3))
    n_t = rng.uniform(20.0, 80.0, size=(8, 3))
    inst = make_instance(xi=xi, n_t=n_t, budgets=[250.0, 220.0, 240.0],
                         sets=[tuple(range(3))] * 8)
    a = two_stage(inst)
    b = two_stage(inst)
    assert np.array_equal(a.association.x, b.association.x)
    assert np.array_equal(a.allocation.n, b.allocation.n)
    assert a.association.unserved == b.association.unserved


@pytest.mark.parametrize("seed", range(1, 9))
def test_two_stage_association_survives_a_tighter_relaxed_solve(monkeypatch, seed):
    # The rounded association does not hang on the relaxed solve's last
    # digits: smoothed stages run to a far smaller Newton decrement, and the
    # finish lets in links that undercut a support by any margin at all,
    # and the centre rounds to the same association
    inst = build_scenario(ScenarioConfig(num_users=200), seed).instance
    default = two_stage(inst).association
    monkeypatch.setattr(solver_module, "_STAGE_TOL", 1e-12)
    monkeypatch.setattr(solver_module, "_COST_TOL", 0.0)
    tight = two_stage(inst).association
    assert default.x.tobytes() == tight.x.tobytes()
    assert default.unserved == tight.unserved


def test_two_stage_full_budget_use_on_active_bs(rng):
    xi = rng.uniform(0.5, 4.0, size=(6, 2))
    n_t = rng.uniform(10.0, 50.0, size=(6, 2))
    inst = make_instance(xi=xi, n_t=n_t, budgets=[400.0, 400.0], sets=[(0, 1)] * 6)
    sol = two_stage(inst)
    loads = (sol.association.x * sol.allocation.n).sum(axis=0)
    active = sol.association.x.sum(axis=0) > 0
    assert np.allclose(loads[active], inst.budgets[active], rtol=1e-9)


# ----------------------------------------------------------------- admission

def array_greedy_pack(mask, n_t, budgets):
    """The greedy packing on numpy rows, hungriest rows first: the packed
    rows and their running loads."""
    demand = np.where(mask, n_t, np.inf).min(axis=1)
    order = np.argsort(-demand, kind="stable")
    x_greedy = np.zeros(mask.shape)
    loads = np.zeros_like(budgets)
    for i in order:
        js = np.flatnonzero(mask[i])
        spare = budgets[js] - loads[js] - n_t[i, js]
        j = js[int(np.argmax(spare))]
        x_greedy[i, j] = 1.0
        loads[j] += n_t[i, j]
    return x_greedy, loads


def array_interior_start(mask, n_t, budgets, loads_unif=None):
    """The interior-point test with the greedy packing on numpy rows, the
    reference for the scalar packing loop: None where the uniform rows (per-BS
    loads `loads_unif`, by default summed here) or a blend of them with the
    packing keep every BS's relative slack positive, else the BSs the
    packing's running loads overload, else those within 1e-12 of a budget.
    Slacks are linear in the blend, so the blends are tested on them."""
    if loads_unif is None:
        loads_unif = np.einsum("ml,ml->l", mask / mask.sum(axis=1)[:, None], n_t)
    slack_unif = (budgets - loads_unif) / budgets
    if slack_unif.min() > 1e-9:
        return None
    _, loads = array_greedy_pack(mask, n_t, budgets)
    slack = (budgets - loads) / budgets
    for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
        if (theta * slack_unif + (1.0 - theta) * slack).min() > 1e-12:
            return None
    tight = 0.0 if np.any(slack <= 0) else 1e-12
    return [int(j) for j in np.flatnonzero(slack <= tight)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(1066)  # a budget between a BS's running load and its row-order sum
def test_interior_start_packing_matches_array_loop(seed):
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 13)), int(r.integers(1, 5))
    mask = r.random((m, l)) < 0.6
    mask[np.arange(m), r.integers(l, size=m)] = True
    if r.random() < 0.5:  # ties in demand and in spare room, exact or up to rounding
        n_t = r.choice([0.1, 0.2, 0.3], size=(m, l))
        budgets = r.choice([0.3, 0.6, 0.9], size=l) * max(1.0, m // l)
    else:
        n_t = r.uniform(10.0, 100.0, size=(m, l))
        budgets = r.uniform(10.0, 100.0, size=l) * max(1.0, m / l)
    if r.random() < 0.5:
        # budgets a few ulps from the packing's loads, running or summed in
        # row order, which can fall on either side of each other
        x_greedy, loads = array_greedy_pack(mask, n_t, budgets)
        if r.random() < 0.5:
            loads = np.einsum("ml,ml->l", x_greedy, n_t)
        near = (r.random(l) < 0.7) & (loads > 0)
        budgets = np.where(near, loads + r.integers(-3, 4, size=l) * np.spacing(loads), budgets)
    want = array_interior_start(mask, n_t, budgets)
    packed = []
    pack = solver_module._greedy_pack

    def spy(*args):
        room, over = pack(*args)
        packed.append(room is not None)  # the pass packed every row
        return room, over

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_greedy_pack", spy)
        overloaded = _SubsetStarts(mask, n_t, budgets).start()
    if overloaded is None:
        assert want is None
    elif packed[0]:
        # the full pass names what the reference names: the BSs without
        # slack, else those that keep at most 1e-12 of their budget, never none
        assert overloaded == want and want
    else:  # a pass that stops early names the BSs overloaded so far
        assert overloaded and set(overloaded) <= set(want)


def restart_loop_two_stage(inst):
    """Admission by one full array-level pass per eviction.

    The reference for two_stage's admission: each pass of the frozen
    `array_interior_start` that ends overloaded blocks the user with the
    largest minimum usable n^T (ties to the largest index) touching an
    overloaded BS. The uniform loads are summed once and then kept by
    subtracting each blocked user's uniform row. The relaxed problem of the
    users left is then solved once.
    """
    usable = usable_links(inst)
    admissible = usable.any(axis=1)
    rows = np.flatnonzero(admissible)
    x_unif = np.zeros(usable.shape)
    x_unif[rows] = usable[rows] / usable[rows].sum(axis=1)[:, None]
    loads = np.einsum("ml,ml->l", x_unif[rows], inst.n_t[rows])
    x_star = np.zeros_like(inst.n_t)
    evicted = []
    while rows.size:
        result = array_interior_start(usable[rows], inst.n_t[rows], inst.budgets, loads)
        if result is None:
            x_star[rows] = solve_relaxed_ua(usable[rows], inst.n_t[rows], inst.budgets).x_star
            break
        touching = rows[usable[rows][:, result].any(axis=1)]
        demand = np.where(usable[touching], inst.n_t[touching], np.inf).min(axis=1)
        victim = int(touching[demand == demand.max()].max())
        admissible[victim] = False
        evicted.append(victim)
        loads = loads - x_unif[victim] * inst.n_t[victim]
        rows = np.flatnonzero(admissible)
    relaxed = RelaxedAssociation(x_star)
    x, unserved = loop_round_association(x_star, inst.mask())
    assoc = repair_overload(Association(x=x, unserved=unserved), relaxed, inst)
    return x_star, assoc, tuple(evicted)


def assert_matches_restart_loop(inst):
    sol = two_stage(inst)
    x_star, assoc, evicted = restart_loop_two_stage(inst)
    assert sol.relaxed.x_star.tobytes() == x_star.tobytes()
    assert sol.association.x.tobytes() == assoc.x.tobytes()
    assert sol.association.unserved == assoc.unserved
    assert sol.evicted == evicted
    return sol


@contextmanager
def admission_batches(batched=True):
    """Within it, admission decides in batches every pass it can: at any
    number of live users and from the first pass that stops early on."""
    with pytest.MonkeyPatch.context() as mp:
        if batched:
            mp.setattr(solver_module, "_BATCH_MIN_ROWS", 0)
            mp.setattr(solver_module, "_BATCH_AFTER", 1)
        yield


def and_batched(argnames, cases, ids):
    """Parametrize over `cases` as given, then again with a last argument
    `batched` set: the same ids, and these ids with "-batched"."""
    return pytest.mark.parametrize(
        argnames + ", batched", [(*case, False) for case in cases] + [(*case, True) for case in cases],
        ids=ids + [f"{i}-batched" for i in ids])


TIGHT_BUDGET_CELLS = [(seed, num_users) for seed in (1, 2, 3) for num_users in (120, 240)]


@and_batched("seed, num_users", TIGHT_BUDGET_CELLS, [f"{s}-{m}" for s, m in TIGHT_BUDGET_CELLS])
def test_admission_matches_restart_loop_on_tight_budgets(num_users, seed, batched):
    inst = build_scenario(ScenarioConfig(bandwidth_budget_hz=5e4, num_users=num_users),
                          seed).instance
    with admission_batches(batched):
        sol = assert_matches_restart_loop(inst)
    assert sol.evicted  # the budgets are tight enough to need admission


def random_admission_case(r):
    """Up to 60 users on up to 6 BSs, with many tied demands. Half the
    budgets are a partial sum of their users' n^T, in descending-demand or
    in row order, so running packing loads can land on them exactly or
    within rounding."""
    m, l = int(r.integers(1, 61)), int(r.integers(1, 7))
    kind = r.integers(3)
    if kind == 0:  # sums are exact
        n_t = r.choice([20.0, 30.0, 40.0, 60.0], size=(m, l))
    elif kind == 1:  # sums round, differently by order
        n_t = r.choice([0.1, 0.2, 0.3, 0.7], size=(m, l))
    else:
        n_t = r.uniform(10.0, 100.0, size=(m, l))
    mask = r.random((m, l)) < 0.6
    mask[np.arange(m), r.integers(l, size=m)] = True
    budgets = r.uniform(0.2, 0.8, size=l) * n_t.mean() * max(1.0, m / l)
    demand = np.where(mask, n_t, np.inf).min(axis=1)
    for j in range(l):
        users = np.flatnonzero(mask[:, j])
        if users.size and r.random() < 0.5:
            if r.random() < 0.5:
                users = users[np.argsort(-demand[users], kind="stable")]
            total = 0.0
            for i in users[:int(r.integers(1, users.size + 1))].tolist():
                total += float(n_t[i, j])
            budgets[j] = total
    return make_instance(xi=r.uniform(0.5, 4.0, size=(m, l)), n_t=n_t, budgets=budgets,
                         sets=[np.flatnonzero(row) for row in mask],
                         sigma=float(r.uniform(0.0, 0.4)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_admission_stops_failing_passes_early(monkeypatch, seed):
    inst = build_scenario(ScenarioConfig(bandwidth_budget_hz=5e4, num_users=240), seed).instance
    pack = solver_module._greedy_pack
    passes = {"packed": 0, "full": 0}

    def spy(*args):
        room, over = pack(*args)
        passes["packed"] += 1
        passes["full"] += room is not None  # the pass packed every user
        return room, over

    monkeypatch.setattr(solver_module, "_greedy_pack", spy)
    _, evicted = _admit(usable_links(inst), inst.n_t, inst.budgets)
    assert passes["full"] < passes["packed"] <= len(evicted) + 1


def assert_admission_evicts(n_t, sets, budgets, evicted, batched):
    inst = make_instance(xi=np.ones(np.shape(n_t)), n_t=n_t, budgets=budgets, sets=sets)
    with admission_batches(batched):
        assert assert_matches_restart_loop(inst).evicted == evicted


@and_batched("n_t, sets, budgets, evicted", [
    # Packed in demand order (users 1, 3, 0), BS 0's running load reaches its
    # budget, 1.1, exactly; its row-order sum, 1.0999999999999999, stays
    # below. A running load at the budget overloads BS 0, which the uniform
    # rows overload too and the hungriest user, user 1, uses: the first pass
    # stops there and blocks user 1. Read from the row-order sum, the full
    # pass would name BS 1 alone and block user 2 first.
    ([[0.1, 1.0], [0.7, 1.0], [0.3, 0.1], [0.3, 1.0]], [(0,), (0,), (0, 1), (0,)],
     [1.1, 0.1], (1,)),
    # The mirror image: packed in demand order (BS 0 takes users 0, 2, 1),
    # its running load, 0.9999999999999999, stays below its budget, while
    # its row-order sum reaches 1.0. So the first two passes name BS 1 alone
    # and block users 5 and 4; the third names BS 0, on which no blend keeps
    # 1e-12 of the budget, and blocks user 0. Read from the row-order sum,
    # the first pass would name BS 0 with BS 1 and block user 0 first.
    ([[0.7, 1.0], [0.1, 1.0], [0.2, 1.0], [1.0, 0.5], [1.0, 0.5], [1.0, 0.5]],
     [(0,), (0,), (0,), (1,), (1,), (1,)], [1.0, 1.0], (5, 4, 0)),
    # Users 0 and 2 tie on demand. Packing users 0, 2 and 1 overloads BS 0,
    # which user 0 touches and user 2 does not. BS 1 ends exactly full, so
    # the full pass names it too and the rule takes the larger index, user
    # 2: a certificate for the head of the demand order, user 0, would
    # block user 0.
    ([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]], [(0,), (0,), (1,)], [2.0, 2.0], (2, 0)),
    # Once user 3 is blocked, packing users 1, 0 and 2 overloads BS 1, which
    # the hungriest user, user 1, touches. But the uniform start leaves BS 1
    # slack, so a blend of the two is strictly interior and the pass
    # succeeds: the victim alone does not prove that a pass fails.
    ([[3.0, 2.0], [3.0, 3.0], [1.0, 2.0], [1.0, 3.0]], [(0, 1), (0, 1), (1,), (1,)],
     [3.0, 6.0], (3,)),
], ["rounding-margin", "rounding-margin-below", "tie-to-largest-index", "blend-succeeds"])
def test_admission_early_stop_edge_cases(n_t, sets, budgets, evicted, batched):
    assert_admission_evicts(n_t, sets, budgets, evicted, batched)


@and_batched("n_t, sets, budgets, evicted", [
    # Once user 1 is blocked, the kept uniform load on BS 0, 0.6499999999999999
    # - 0.3, is one ulp under the live users' row-order sum, 0.35. The budget
    # puts the relative slack of the kept load above 1e-9 and that of the sum
    # below it; the kept load decides, so the uniform rows are interior.
    ([[0.3, 0.2], [0.3, 1.3], [0.1, 1.1], [0.2, 0.1]], [(0, 1), (0,), (0,), (0, 1)],
     [0.35000000034999995, 0.4], (1,)),
    # The same users with a budget 8 ulps larger: both slacks exceed 1e-9.
    ([[0.3, 0.2], [0.3, 1.3], [0.1, 1.1], [0.2, 0.1]], [(0, 1), (0,), (0,), (0, 1)],
     [0.3500000003500004, 0.4], (1,)),
    # Once user 2 is blocked, the kept uniform load on BS 0, 0.8999999999999999
    # - 0.3, is 0.5999999999999999, one ulp under the live users' row-order
    # sum, 0.6, and the budget again separates their slacks at 1e-9. Here no
    # blend would help: read from the sum, the packing overloads BS 0 and the
    # pass blocks user 1 too.
    ([[0.2, 0.7], [0.3, 0.3], [0.3, 0.2], [0.2, 0.2], [0.1, 0.1], [0.2, 0.2]],
     [(0,), (0, 1), (0,), (1,), (0, 1), (0,)], [0.6000000005999999, 0.5], (2,)),
    # Once user 2 is blocked, the kept uniform load on BS 0, 0.5 - 0.2, is
    # 0.3, under the budget 0.30000000000000004 that the live users' sum,
    # 0.1 + 0.2, reaches: BS 0 is not dry, so the pass packs both users. Its
    # running load reaches the budget, so it names BS 0 and blocks user 1.
    ([[0.1], [0.2], [0.2]], [(0,), (0,), (0,)], [0.30000000000000004], (2, 1)),
    # The same users with a budget 3 ulps larger: the packing overloads
    # nothing, but no blend keeps 1e-12 of BS 0's budget.
    ([[0.1], [0.2], [0.2]], [(0,), (0,), (0,)], [0.3000000000000002], (2, 1)),
], ["at-1e-9", "above-1e-9", "kept-decides-at-1e-9", "at-0", "above-0"])
def test_admission_uniform_loads_near_thresholds(n_t, sets, budgets, evicted, batched):
    assert_admission_evicts(n_t, sets, budgets, evicted, batched)


def early_stop_run(starts, size):
    """The victims of the next passes, up to `size` of them, for as long as
    each `start` pass stops early: what `proven_victims` must return."""
    starts = copy.deepcopy(starts)
    victims = []
    while len(victims) < size:
        overloaded = starts.start()
        if overloaded is None or not starts.stopped_early:
            break
        victims.append(starts.victim(overloaded))
        starts.remove(victims[-1])
    return victims


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_batch_proves_exactly_the_passes_that_stop_early(seed):
    inst = random_admission_case(np.random.default_rng(seed))
    usable = usable_links(inst)
    users = np.flatnonzero(usable.any(axis=1))
    starts = _SubsetStarts(usable[users], inst.n_t[users], inst.budgets)
    overloaded = starts.start()
    while overloaded is not None:
        starts.remove(starts.victim(overloaded))
        inside, loads = starts.inside.copy(), starts.loads
        for size in (1, 3, 64):
            assert starts.proven_victims(size) == early_stop_run(starts, size)
        assert np.array_equal(starts.inside, inside) and starts.loads is loads
        overloaded = starts.start()


@pytest.mark.parametrize("num_users, evictions, evicted_sha256", [
    (2000, 366, "7872fb3ca0200ff4a7aada558752a5391257f40ba76363c94f8da25bba83e251"),
    (3000, 876, "b4466c269355fd766937c9c1e3cf683efd2d65e17086839f22a4284a7048a260"),
], ids=["m2000", "m3000"])
def test_admission_where_it_batches_by_default(monkeypatch, num_users, evictions, evicted_sha256):
    # Seed 1 at the default config, where batches decide most passes. The
    # digests are those of one scalar pass per eviction.
    proven = []
    batch = _SubsetStarts.proven_victims

    def spy(self, size):
        victims = batch(self, size)
        proven.extend(victims)
        return victims

    monkeypatch.setattr(_SubsetStarts, "proven_victims", spy)
    inst = build_scenario(ScenarioConfig(num_users=num_users), 1).instance
    _, evicted = _admit(usable_links(inst), inst.n_t, inst.budgets)
    assert len(evicted) == evictions and len(proven) > evictions // 2
    assert hashlib.sha256(np.asarray(evicted, dtype=np.int64).tobytes()).hexdigest() == evicted_sha256


def test_two_stage_bytes_at_m2000():
    # Seed 1 at the default config: 1606 admitted users, far more than any
    # randomized relaxed-stage test draws. These bytes, like the M = 200
    # ones, are the same under one BLAS thread and under two.
    sol = two_stage(build_scenario(ScenarioConfig(num_users=2000), 1).instance)
    assert sol.relaxed.stage == (5, 3, "tol", 10)
    arrays = (sol.relaxed.x_star, sol.association.x, sol.allocation.n)
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == [
        "38378b6f121aef13a826573b8a3eed61172575be62f0a8e0dfe65e19e5f6a4f4",
        "93f4b46162114789db5cc282b6916bfa8b4769e18ee360d565c219022b3443e4",
        "59769cac5dd9906fee57c0cb1ac18bc4a4aee16ebc89cd5a24b356ee9534241a",
    ]


def test_two_stage_bytes_at_m200():
    # Seeds 1-8 at M = 200, the uncongested benchmark cells: one digest per
    # output over the eight cells.
    digests = [hashlib.sha256() for _ in range(3)]
    stages = []
    for seed in range(1, 9):
        sol = two_stage(build_scenario(ScenarioConfig(num_users=200), seed).instance)
        stages.append(sol.relaxed.stage)
        for h, a in zip(digests, (sol.relaxed.x_star, sol.association.x, sol.allocation.n)):
            h.update(a.tobytes())
    assert stages == [(5, 2, "tol", 3), (10, 9, "tol", 8), (6, 2, "tol", 3), (8, 2, "tol", 3),
                      (8, 2, "tol", 5), (8, 2, "tol", 1), (9, 3, "tol", 5), (5, 2, "tol", 2)]
    assert [h.hexdigest() for h in digests] == [
        "bf2980a48345ff12bc064e3e8b67110b655e3a9cb5717061ef0ab5e7b92e0d3c",
        "2a7c11daeb70dae7491fdda9e2ca15915d154760c4dcabbc0269849d378616b3",
        "42812f7192b39de11123902e0789a87d59d64ce4039338a957f0d33980026d03",
    ]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
# users with equal n^T ratios, whose cheapest links overfill a station until
# the finish raises its price and ties one of them off it
@example(20)
def test_admission_fuzz_matches_restart_loop_and_stays_feasible(seed):
    inst = random_admission_case(np.random.default_rng(seed))
    sol = assert_matches_restart_loop(inst)
    viol = feasibility_violations(sol.association, sol.allocation, inst)
    assert viol["association_defects"] == 0
    assert viol["budget_overshoot_rel"] <= 1e-9
    assert viol["full_allocation_gap_rel"] <= 1e-9
    assert set(sol.evicted) <= set(sol.association.unserved)
    with admission_batches():
        assert assert_matches_restart_loop(inst).evicted == sol.evicted
