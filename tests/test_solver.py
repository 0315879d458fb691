import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_instance
from semhetnet import solver as solver_module
from semhetnet.config import ScenarioConfig
from semhetnet.errors import ConfigError, InfeasibleError, SolverError
from semhetnet.harness import build_scenario
from semhetnet.metrics import feasibility_violations, instance_fbar
from semhetnet.objective import objective_gradient, objective_value
from semhetnet.solver import (Allocation, Association, BarrierParams, RelaxedAssociation, _admit,
                              _restricted_instance, _simplex_projector, _SubsetStarts, _water_fill,
                              allocate_residual, baseline_ba, baseline_max_sinr,
                              make_instance as build_instance, repair_overload, round_association,
                              solve_relaxed_ua, two_stage, usable_links)


# ---------------------------------------------------------------- projection

def reference_simplex_projection(v, support):
    """Slow single-row projection used as an oracle."""
    idx = np.flatnonzero(support)
    u = np.sort(v[idx])[::-1]
    cs = np.cumsum(u)
    rho = max(k for k in range(1, idx.size + 1) if u[k - 1] - (cs[k - 1] - 1.0) / k > 0)
    theta = (cs[rho - 1] - 1.0) / rho
    out = np.zeros_like(v)
    out[idx] = np.maximum(v[idx] - theta, 0.0)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_matches_reference(seed):
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 6)), int(r.integers(1, 6))
    v = r.normal(0.0, 3.0, size=(m, l))
    mask = r.random((m, l)) < 0.6
    for i in range(m):
        if not mask[i].any():
            mask[i, int(r.integers(l))] = True
    got = _simplex_projector(mask)(v)
    want = np.vstack([reference_simplex_projection(v[i], mask[i]) for i in range(m)])
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got.sum(axis=1), 1.0)
    assert np.all(got >= 0.0)
    assert np.all(got[~mask] == 0.0)


def test_projection_idempotent_on_feasible_points():
    x = np.array([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
    mask = np.array([[True, True, False], [True, True, True]])
    assert np.allclose(_simplex_projector(mask)(x), x, atol=1e-12)


def reference_rows_projection(v, mask):
    """The row projection with its mask constants rebuilt on every call and
    the padding zeroed before the cumulative sum: the bit-for-bit reference
    for _simplex_projector."""
    v = np.asarray(v, dtype=float)
    m, l = v.shape
    if m == 0:
        return v.copy()
    sentinel = -1e300
    w = np.where(mask, v, sentinel)
    u = -np.sort(-w, axis=1)
    finite = u > sentinel / 2
    cs = np.cumsum(np.where(finite, u, 0.0), axis=1)
    k = np.arange(1, l + 1)
    cond = (u * k > cs - 1.0) & finite
    rho = cond.sum(axis=1)
    if np.any(rho == 0):
        raise ValueError("projection row with empty support")
    theta = (cs[np.arange(m), rho - 1] - 1.0) / rho
    x = np.maximum(v - theta[:, None], 0.0)
    x[~np.asarray(mask, bool)] = 0.0
    return x


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_bits_match_reference(seed):
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 9)), int(r.integers(1, 7))
    mask = r.random((m, l)) < 0.5
    mask[np.arange(m), r.integers(l, size=m)] = True  # some rows keep a single entry
    if r.random() < 0.5:  # few distinct values: ties within and across rows
        v = r.choice([-1.0, 0.0, 0.25, 0.5, 1.0], size=(m, l))
    else:
        v = r.normal(0.0, 10.0 ** r.uniform(-3.0, 3.0), size=(m, l))
    assert _simplex_projector(mask)(v).tobytes() == reference_rows_projection(v, mask).tobytes()


def test_projection_rejects_empty_support():
    with pytest.raises(ValueError, match="empty support"):
        _simplex_projector(np.array([[True, False], [False, False]]))(np.zeros((2, 2)))
    assert _simplex_projector(np.zeros((0, 3), bool))(np.zeros((0, 3))).shape == (0, 3)


def test_projection_precision_loss_is_a_solver_error():
    # beyond 2**53, u_1 - 1 rounds to u_1, so no entry passes the support test
    with pytest.raises(SolverError, match="rounding"):
        _simplex_projector(np.ones((1, 2), dtype=bool))(np.array([[1e17, 1e17]]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_path_is_monotone(seed):
    # Calamai & More (1987), Lemma 2.2: for x in the feasible set,
    # ||P(x + t g) - x|| is nondecreasing in t and ||P(x + t g) - x|| / t is
    # nonincreasing; solve_relaxed_ua's first-trial bound on pg rests on both.
    r = np.random.default_rng(seed)
    m, l = int(r.integers(1, 7)), int(r.integers(1, 6))
    mask = r.random((m, l)) < 0.6
    mask[np.arange(m), r.integers(l, size=m)] = True
    project = _simplex_projector(mask)
    x = project(r.normal(size=(m, l)))
    g = r.normal(0.0, 10.0 ** r.uniform(-2.0, 2.0), size=(m, l))
    ts = np.sort(10.0 ** r.uniform(-4.0, 4.0, size=12))
    dist = np.array([np.linalg.norm(project(x + t * g) - x) for t in ts])
    # the rounding bound solve_relaxed_ua allows for each computed distance
    err = (l + 1) * np.sqrt(l) * np.finfo(float).eps * (np.sqrt(m) + ts * np.linalg.norm(g))
    assert np.all(np.diff(dist) >= -(err[1:] + err[:-1]))
    assert np.all(np.diff(dist / ts) <= (err / ts)[1:] + (err / ts)[:-1])


# ------------------------------------------------------------- make_instance

def test_make_instance_bandwidth_floor_hits_threshold(rng):
    from semhetnet.semantics import DEFAULT_MSG_PER_BIT, FeasibleSets
    gamma = rng.uniform(0.2, 50.0, size=(4, 3))
    fs = FeasibleSets(np.ones((4, 3), dtype=bool))
    inst = build_instance(gamma, fs, DEFAULT_MSG_PER_BIT, np.full(3, 2e6), 1e4, 0.5, 0.1, 0.95)
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


# ------------------------------------------------------------- relaxed solve

def test_forced_association_single_feasible_bs():
    inst = make_instance(xi=[[5.0, 1.0]], n_t=[[100.0, 100.0]], budgets=[1e3, 1e3],
                         sets=[(0,)])
    res = solve_relaxed_ua(inst)
    assert res.x_star[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert res.x_star[0, 1] == 0.0


def test_symmetric_instance_matches_enumeration():
    # two identical users, two identical BSs, ample budgets
    inst = make_instance(xi=[[4.0, 4.0], [4.0, 4.0]], n_t=[[10.0, 10.0]] * 2,
                         budgets=[1e3, 1e3], sets=[(0, 1), (0, 1)])
    res = solve_relaxed_ua(inst)
    candidates = []
    for x in (
        np.array([[1.0, 0.0], [0.0, 1.0]]),   # split
        np.array([[0.0, 1.0], [1.0, 0.0]]),   # swapped
        np.array([[1.0, 0.0], [1.0, 0.0]]),   # paired
        np.array([[0.5, 0.5], [0.5, 0.5]]),   # even mix
    ):
        candidates.append(objective_value(inst.objective, x))
    assert objective_value(inst.objective, res.x_star) == pytest.approx(max(candidates), abs=1e-6)


def test_relaxed_solution_upper_bounds_binary_optimum(rng):
    xi = np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.5]])
    n_t = np.full((3, 2), 50.0)
    inst = make_instance(xi=xi, n_t=n_t, budgets=[200.0, 200.0],
                         sets=[(0, 1)] * 3)
    res = solve_relaxed_ua(inst)
    relaxed_value = objective_value(inst.objective, res.x_star)
    best_binary = -np.inf
    for combo in itertools.product((0, 1), repeat=3):
        x = np.zeros((3, 2))
        x[np.arange(3), combo] = 1.0
        if np.any((x * n_t).sum(axis=0) > inst.budgets):
            continue
        best_binary = max(best_binary, objective_value(inst.objective, x))
    assert relaxed_value >= best_binary - 1e-6
    # sandwich: the rounded-and-repaired association cannot beat the relaxed bound
    rounded = repair_overload(round_association(res, inst), res, inst)
    assert objective_value(inst.objective, rounded.x.astype(float)) <= relaxed_value + 1e-6


def test_tight_budget_keeps_mass_interior():
    # budget on BS A equals one minimum share; both users prefer A
    inst = make_instance(xi=[[2.0, 1.0], [2.0, 1.0]], n_t=[[100.0, 100.0]] * 2,
                         budgets=[100.0, 1e4], sets=[(0, 1), (0, 1)])
    res = solve_relaxed_ua(inst)
    mass_on_a = res.x_star[:, 0].sum()
    assert mass_on_a <= 1.0 + 1e-9
    assert mass_on_a >= 0.5


def test_w_monotone_within_stage():
    inst = make_instance(xi=[[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]],
                         n_t=np.full((3, 2), 50.0), budgets=[120.0, 120.0],
                         sets=[(0, 1)] * 3)
    res = solve_relaxed_ua(inst, record_trace=True)
    by_stage = {}
    for r, it, w, pg in res.trace:
        by_stage.setdefault(r, []).append(w)
    for r, ws in by_stage.items():
        assert all(b >= a - 1e-9 for a, b in zip(ws, ws[1:]))


def test_row_sums_and_budget_feasible(rng):
    xi = rng.uniform(0.5, 4.0, size=(6, 3))
    n_t = rng.uniform(10.0, 60.0, size=(6, 3))
    inst = make_instance(xi=xi, n_t=n_t, budgets=[150.0, 150.0, 150.0],
                         sets=[tuple(range(3))] * 6)
    res = solve_relaxed_ua(inst)
    assert np.allclose(res.x_star.sum(axis=1), 1.0, atol=1e-9)
    loads = (res.x_star * n_t).sum(axis=0)
    assert np.all(loads <= inst.budgets + 1e-9)


def test_infeasible_instance_names_budget():
    inst = make_instance(xi=[[1.0]], n_t=[[500.0]], budgets=[100.0], sets=[(0,)])
    with pytest.raises(InfeasibleError) as exc:
        solve_relaxed_ua(inst)
    assert 0 in exc.value.overloaded


def test_empty_instance():
    inst = make_instance(xi=np.zeros((0, 2)), n_t=np.zeros((0, 2)), budgets=[10.0, 10.0],
                         sets=[])
    res = solve_relaxed_ua(inst)
    assert res.x_star.shape == (0, 2)


@pytest.mark.parametrize("start", [
    np.full((2, 3), 0.5),  # one column too many
    np.full((3, 2), 0.5),  # one row too many
    np.array([[1.0, 0.0], [1.0, 0.0]]),  # fills BS 0's budget exactly
    np.array([[0.5, 0.5], [2.0, 0.0]]),  # loads BS 0 with 110 Hz of 100
], ids=["extra-bs", "extra-user", "no-slack", "overloaded"])
def test_relaxed_solve_rejects_a_start_that_is_not_strictly_interior(start):
    inst = make_instance(xi=np.ones((2, 2)), n_t=[[60.0, 60.0], [40.0, 40.0]],
                         budgets=[100.0, 100.0], sets=[(0, 1)] * 2)
    with pytest.raises(ValueError, match="not strictly interior"):
        solve_relaxed_ua(inst, start=start)
    # a start with slack on every budget is where the solve begins
    inside = solve_relaxed_ua(inst, barrier=BarrierParams(max_inner=1, r0=1.0, r_min=1.0,
                                                          tol=1e9), start=np.full((2, 2), 0.5))
    assert inside.x_star.tobytes() == np.full((2, 2), 0.5).tobytes()


def reference_relaxed_loop(inst, barrier=None, record_trace=False, start=None):
    """The barrier loop that projects for pg at every iteration and evaluates
    W and its gradient from x alone, recording each stage's (r, iterations,
    backtracks, exit): the bit-for-bit reference for solve_relaxed_ua. A
    trial is accepted by the same nonmonotone (GLL) test: its W is at least
    the smallest of the stage's last 10 accepted W plus 1e-4 times the gain."""
    barrier = barrier or BarrierParams()
    obj = inst.objective
    mask = inst.mask()
    n_t, budgets = inst.n_t, inst.budgets
    x = _SubsetStarts(mask, n_t, budgets).start() if start is None else start

    def w_of(x, r):
        slack = budgets - np.einsum("ml,ml->l", x, n_t)
        if np.any(slack <= 0.0):
            return -np.inf
        return objective_value(obj, x) + r * float(np.log(slack).sum())

    def grad_of(x, r):
        slack = budgets - np.einsum("ml,ml->l", x, n_t)
        return objective_gradient(obj, x) - r * (n_t / slack[None, :])

    r = barrier.r0 if barrier.r0 is not None else max(1.0, abs(objective_value(obj, x)))
    step = 1.0
    total_iters = 0
    pg = np.inf
    trace, stages = [], []
    while True:
        w_cur = w_of(x, r)
        g = grad_of(x, r)
        w_window = w_cur
        recent = [w_cur]
        exit, backtracks = None, 0
        for it in range(barrier.max_inner):
            pg = float(np.linalg.norm(reference_rows_projection(x + g, mask) - x))
            if record_trace:
                trace.append((r, it, w_cur, pg))
            if pg <= barrier.tol:
                exit = "tol"
                break
            if it and it % 25 == 0:
                if w_cur - w_window <= barrier.stall_rtol * (1.0 + abs(w_cur)):
                    exit = "stall"
                    break
                w_window = w_cur
            accepted = False
            trial = step
            while trial >= 1e-18:
                xn = reference_rows_projection(x + trial * g, mask)
                w_new = w_of(xn, r)
                gain = float(np.vdot(g, xn - x))
                if np.isfinite(w_new) and w_new >= min(recent[-10:]) + 1e-4 * gain:
                    accepted = True
                    break
                trial *= 0.5
                backtracks += 1
            if not accepted:
                exit = "no_step"
                break
            g_new = grad_of(xn, r)
            dx = xn - x
            dg = g_new - g
            curv = -float(np.vdot(dx, dg))
            if curv > 0:
                step = min(max(float(np.vdot(dx, dx)) / curv, 1e-12), 1e8)
            else:
                step = min(trial * 2.0, 1e8)
            x, w_cur, g = xn, w_new, g_new
            recent.append(w_cur)
            total_iters += 1
        if exit is None:
            raise SolverError(
                f"barrier stage r={r:g} did not converge within {barrier.max_inner} "
                f"iterations (projected-gradient norm {pg:g})",
                trace=trace,
            )
        stages.append((r, it, backtracks, exit))
        if r <= barrier.r_min * (1.0 + 1e-12):
            break
        r = max(r / barrier.mu, barrier.r_min)
    return RelaxedAssociation(x, iterations=total_iters, pg_norm=pg, trace=tuple(trace),
                              stages=tuple(stages))


def assert_matches_reference_loop(inst, barrier=None, record_trace=False, start=None):
    """solve_relaxed_ua and the reference loop agree bit for bit, on the
    result or on the exception raised; returns the result (None on error)."""
    try:
        want = reference_relaxed_loop(inst, barrier, record_trace, start)
    except (InfeasibleError, SolverError) as err:
        with pytest.raises(type(err)) as got:
            solve_relaxed_ua(inst, barrier, record_trace, start=start)
        assert str(got.value) == str(err)
        assert getattr(got.value, "trace", None) == getattr(err, "trace", None)
        return None
    got = solve_relaxed_ua(inst, barrier, record_trace, start=start)
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert (got.iterations, got.pg_norm, got.stages) == (want.iterations, want.pg_norm, want.stages)
    assert got.trace == want.trace
    return got


def admitted_instances(config, seeds):
    """The admitted users' instance of each scenario seed and the start
    admission found for it, as two_stage hands them to solve_relaxed_ua."""
    subs = {}
    for seed in seeds:
        inst = build_scenario(config, seed).instance
        usable = usable_links(inst)
        admitted, _, start = _admit(usable, inst.n_t, inst.budgets)
        subs[seed] = _restricted_instance(inst, usable, np.flatnonzero(admitted)), start
    return subs


@pytest.fixture(scope="module")
def admitted_m200():
    """The admitted users' instances of M = 200, scenario seeds 1, 3 and 6."""
    return admitted_instances(ScenarioConfig(num_users=200), (1, 3, 6))


@pytest.fixture(scope="module")
def admitted_congested():
    """The admitted users' instances of the cells with 5e4 Hz budgets and
    M = 240, scenario seeds 1-3, where admission blocks users."""
    return admitted_instances(ScenarioConfig(bandwidth_budget_hz=5e4, num_users=240), (1, 2, 3))


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("seed", [1, 3, 6])
def test_relaxed_solve_matches_reference_loop_at_m200(admitted_m200, seed, record_trace):
    sub, start = admitted_m200[seed]
    got = assert_matches_reference_loop(sub, record_trace=record_trace, start=start)
    assert got.iterations > 0
    assert sum(stage[1] for stage in got.stages) == got.iterations


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxed_solve_matches_reference_loop_on_congested_cells(admitted_congested, seed,
                                                                 record_trace):
    sub, start = admitted_congested[seed]
    got = assert_matches_reference_loop(sub, record_trace=record_trace, start=start)
    assert got.iterations > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pg_skip_test_ignores_links_off_the_mask(admitted_congested, monkeypatch, seed):
    # The projector reads nothing off the mask, so neither may the test that
    # skips pg projections: xi^T and n^T inflated there leave the projector
    # calls and the result unchanged, and both solves project less often
    # than the reference loop.
    sub, start = admitted_congested[seed]
    off = ~sub.mask()
    xi = sub.objective.xi_t
    inflated = replace(sub, objective=replace(sub.objective, xi_t=np.where(off, 1e6 * xi, xi)),
                       n_t=np.where(off, 1e6 * sub.n_t, sub.n_t))
    calls = []
    projector = solver_module._simplex_projector

    def counting_projector(mask):
        project = projector(mask)

        def counted(v):
            calls[-1] += 1
            return project(v)
        return counted

    monkeypatch.setattr(solver_module, "_simplex_projector", counting_projector)
    results = []
    for inst in (sub, inflated):
        calls.append(0)
        results.append(solve_relaxed_ua(inst, start=start))
    assert results[0].x_star.tobytes() == results[1].x_star.tobytes()
    assert calls[0] == calls[1]

    reference_calls = [0]
    reference_projection = reference_rows_projection

    def counting_reference(v, mask):
        reference_calls[0] += 1
        return reference_projection(v, mask)

    monkeypatch.setitem(globals(), "reference_rows_projection", counting_reference)
    reference_relaxed_loop(sub, start=start)
    assert calls[0] < reference_calls[0]


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_stage_that_starts_converged_projects_once(admitted_m200, monkeypatch, seed):
    # Restarted from its own solution at its final r, the solve meets tol at
    # the stage's first pg and projects no line-search trial
    sub, start = admitted_m200[seed]
    first = solve_relaxed_ua(sub, start=start)
    r = first.stages[-1][0]
    calls = [0]
    projector = solver_module._simplex_projector

    def counting_projector(mask):
        project = projector(mask)

        def counted(v):
            calls[0] += 1
            return project(v)
        return counted

    monkeypatch.setattr(solver_module, "_simplex_projector", counting_projector)
    again = solve_relaxed_ua(sub, BarrierParams(r0=r, r_min=r), start=first.x_star)
    assert again.stages == ((r, 0, 0, "tol"),)
    assert calls[0] == 1
    assert again.x_star.tobytes() == first.x_star.tobytes()


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1e-6, 1e-12, 0.0]),
       st.sampled_from([1e-6, 1e3]), st.sampled_from([20000, 40]), st.booleans())
# Cases where the stopping test goes wrong if pg is skipped without a rounding
# margin, with lb over step < 1, or at a stall, a no-step exit or the last
# allowed iteration.
@example(0, 0.0, 1e3, 40, False)
@example(46, 1e-12, 1e-6, 20000, False)
@example(13, 1e-12, 1e3, 20000, False)
@example(1, 0.0, 1e3, 20000, False)
@example(7, 1e-6, 1e3, 40, False)
def test_relaxed_solve_fuzz_matches_reference_loop(seed, tol, r_min, max_inner, record_trace):
    # r_min = 1e3 leaves one stage, so its exit sets pg_norm; tol = 0 leaves
    # only the stall and no-step exits; max_inner = 40 often runs out and
    # raises SolverError with the pg of the last iteration
    barrier = BarrierParams(tol=tol, r_min=r_min, max_inner=max_inner)
    inst = random_relaxed_case(np.random.default_rng(seed))
    assert_matches_reference_loop(inst, barrier, record_trace)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_relaxed_trace_keeps_the_nonmonotone_acceptance(seed):
    # Within a stage, each accepted W is at least the smallest of the up to 10
    # accepted before it (the GLL test, whose gain is nonnegative), and so at
    # least the stage's first W
    inst = random_relaxed_case(np.random.default_rng(seed))
    try:
        res = solve_relaxed_ua(inst, record_trace=True)
    except InfeasibleError:
        return
    stages = []
    for r, it, w, pg in res.trace:
        if it == 0:
            stages.append([])
        stages[-1].append(w)
    assert len(stages) == len(res.stages)
    for ws in stages:
        for k in range(1, len(ws)):
            assert ws[k] >= min(ws[max(0, k - 10):k]) - 1e-9
            assert ws[k] >= ws[0] - 1e-9


# ------------------------------------------------------------------ rounding

def test_round_picks_argmax():
    inst = make_instance(xi=[[1.0, 1.0, 1.0]], n_t=[[10.0] * 3], budgets=[100.0] * 3,
                         sets=[(0, 1, 2)])
    xs = RelaxedAssociation(np.array([[0.2, 0.7, 0.1]]))
    assoc = round_association(xs, inst)
    assert list(assoc.x[0]) == [0, 1, 0]


def test_round_tie_breaks_by_xi_then_index():
    inst_equal = make_instance(xi=[[1.0, 1.0]], n_t=[[10.0, 10.0]], budgets=[100.0] * 2,
                               sets=[(0, 1)])
    assoc = round_association(RelaxedAssociation(np.array([[0.5, 0.5]])), inst_equal)
    assert list(assoc.x[0]) == [1, 0]  # equal xi: lower index wins
    inst_xi = make_instance(xi=[[1.0, 2.0]], n_t=[[10.0, 10.0]], budgets=[100.0] * 2,
                            sets=[(0, 1)])
    assoc = round_association(RelaxedAssociation(np.array([[0.5, 0.5]])), inst_xi)
    assert list(assoc.x[0]) == [0, 1]  # higher xi wins the tie


def loop_round_association(x_star, mask, xi):
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
        best = js[w == w.max()]
        if best.size > 1:
            xv = xi[i, best]
            best = best[xv == xv.max()]
        x[i, int(best.min())] = 1
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
    # few distinct values, so weight, xi and SINR ties are common
    x_star = r.choice([-0.5, 0.0, 0.25, 0.5], size=(m, l))
    x_star[r.random(m) < 0.2] = 0.0  # users blocked before the relaxed solve
    xi = r.choice([1.0, 2.0], size=(m, l))
    inst = make_instance(xi=xi, n_t=np.full((m, l), 10.0), budgets=[1e3] * l,
                         sets=[np.flatnonzero(row) for row in mask])
    assoc = round_association(RelaxedAssociation(x_star), inst)
    want_x, want_unserved = loop_round_association(x_star, mask, xi)
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
    sol = two_stage(inst, record_trace=True)
    assert sol.association.unserved == (0, 1)
    assert sol.relaxed.x_star.tobytes() == np.zeros((2, 1)).tobytes()
    assert (sol.relaxed.iterations, sol.relaxed.stages, sol.relaxed.trace) == (0, (), ())


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


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_two_stage_association_survives_a_tighter_relaxed_solve(seed):
    # The rounded association does not hang on the relaxed solve's last
    # digits: a tighter tol with no stall exit rounds to the same one
    inst = build_scenario(ScenarioConfig(num_users=200), seed).instance
    default = two_stage(inst).association
    tight = two_stage(inst, BarrierParams(stall_rtol=0.0, tol=1e-7)).association
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

def array_interior_start(mask, n_t, budgets):
    """Interior start with the greedy packing on numpy rows, the reference
    for the scalar packing loop."""
    sizes = mask.sum(axis=1)
    x_unif = mask / sizes[:, None]

    def min_rel_slack(x):
        slack = budgets - np.einsum("ml,ml->l", x, n_t)
        return float((slack / budgets).min())

    if min_rel_slack(x_unif) > 1e-9:
        return x_unif
    demand = np.where(mask, n_t, np.inf).min(axis=1)
    order = np.argsort(-demand, kind="stable")
    x_greedy = np.zeros_like(x_unif)
    loads = np.zeros_like(budgets)
    for i in order:
        js = np.flatnonzero(mask[i])
        spare = budgets[js] - loads[js] - n_t[i, js]
        j = js[int(np.argmax(spare))]
        x_greedy[i, j] = 1.0
        loads[j] += n_t[i, j]
    for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
        x = theta * x_unif + (1.0 - theta) * x_greedy
        if min_rel_slack(x) > 1e-12:
            return x
    slack = budgets - np.einsum("ml,ml->l", x_greedy, n_t)
    return [int(j) for j in np.flatnonzero(slack <= 0)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
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
    want = array_interior_start(mask, n_t, budgets)
    try:
        got = _SubsetStarts(mask, n_t, budgets).start()
    except InfeasibleError as err:
        assert list(err.overloaded) == want
    else:
        assert isinstance(want, np.ndarray) and got.tobytes() == want.tobytes()


def restart_loop_two_stage(inst, barrier=None):
    """Admission by one full array-level pass per eviction.

    The reference for two_stage's admission: each pass of the frozen
    `array_interior_start` that ends overloaded blocks the user with the
    largest minimum usable n^T (ties to the largest index) touching an
    overloaded BS. The relaxed problem is then solved once, from the start
    of the first pass that succeeds.
    """
    usable = usable_links(inst)
    admissible = usable.any(axis=1)
    x_star = np.zeros_like(inst.n_t)
    evicted = []
    start = None
    while np.any(admissible):
        rows = np.flatnonzero(admissible)
        result = array_interior_start(usable[rows], inst.n_t[rows], inst.budgets)
        if isinstance(result, np.ndarray):
            start = result
            sub = _restricted_instance(inst, usable, rows)
            x_star[rows] = solve_relaxed_ua(sub, barrier=barrier, start=start).x_star
            break
        over = np.zeros(inst.num_bs, dtype=bool)
        over[result] = True
        touching = rows[usable[rows][:, over].any(axis=1)] if over.any() else rows
        if touching.size == 0:
            touching = rows
        demand = np.where(usable[touching], inst.n_t[touching], np.inf).min(axis=1)
        victim = int(touching[demand == demand.max()].max())
        admissible[victim] = False
        evicted.append(victim)
    relaxed = RelaxedAssociation(x_star)
    x, unserved = loop_round_association(x_star, inst.mask(), inst.objective.xi_t)
    assoc = repair_overload(Association(x=x, unserved=unserved), relaxed, inst)
    return x_star, assoc, tuple(evicted), start


def assert_matches_restart_loop(inst, barrier=None):
    sol = two_stage(inst, barrier=barrier)
    x_star, assoc, evicted, start = restart_loop_two_stage(inst, barrier=barrier)
    assert sol.relaxed.x_star.tobytes() == x_star.tobytes()
    assert sol.association.x.tobytes() == assoc.x.tobytes()
    assert sol.association.unserved == assoc.unserved
    assert sol.evicted == evicted
    # the start admission hands to the relaxed solve is the reference's
    _, _, got = _admit(usable_links(inst), inst.n_t, inst.budgets)
    assert (got is None) == (start is None)
    if start is not None:
        assert got.tobytes() == start.tobytes()
    return sol


@pytest.mark.parametrize("num_users", [120, 240])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_admission_matches_restart_loop_on_tight_budgets(num_users, seed):
    inst = build_scenario(ScenarioConfig(bandwidth_budget_hz=5e4, num_users=num_users),
                          seed).instance
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
        passes["packed"] += 1
        cols = pack(*args)
        passes["full"] += 1  # reached only when the pass packed every user
        return cols

    monkeypatch.setattr(solver_module, "_greedy_pack", spy)
    _, evicted, _ = _admit(usable_links(inst), inst.n_t, inst.budgets)
    assert passes["full"] < passes["packed"] <= len(evicted) + 1


@pytest.mark.parametrize("n_t, sets, budgets, evicted", [
    # Packed in demand order (users 1, 3, 0), BS 0's running load reaches
    # 1.1 exactly; its row-order sum, 1.0999999999999999, stays below. The
    # full pass names BS 1 alone, so user 2 goes first: a certificate
    # without a rounding margin would block user 1.
    ([[0.1, 1.0], [0.7, 1.0], [0.3, 0.1], [0.3, 1.0]], [(0,), (0,), (0, 1), (0,)],
     [1.1, 0.1], (2, 1)),
    # Users 0 and 2 tie on demand. Packing users 0, 2 and 1 proves BS 0
    # overloaded, which user 0 touches and user 2 does not. BS 1 ends exactly
    # full, so the full pass names it too and the rule takes the larger
    # index, user 2: a certificate for the head of the demand order, user 0,
    # would block user 0.
    ([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]], [(0,), (0,), (1,)], [2.0, 2.0], (2, 0)),
    # Once user 3 is blocked, packing users 1, 0 and 2 overloads BS 1, which
    # the hungriest user, user 1, touches. But the uniform start leaves BS 1
    # slack, so a blend of the two is strictly interior and the pass
    # succeeds: the victim alone does not prove that a pass fails.
    ([[3.0, 2.0], [3.0, 3.0], [1.0, 2.0], [1.0, 3.0]], [(0, 1), (0, 1), (1,), (1,)],
     [3.0, 6.0], (3,)),
], ids=["rounding-margin", "tie-to-largest-index", "blend-succeeds"])
def test_admission_early_stop_edge_cases(n_t, sets, budgets, evicted):
    inst = make_instance(xi=np.ones(np.shape(n_t)), n_t=n_t, budgets=budgets, sets=sets)
    assert assert_matches_restart_loop(inst).evicted == evicted


@pytest.mark.parametrize("n_t, sets, budgets, evicted", [
    # Once user 1 is blocked, the live users' uniform load on BS 0 sums to
    # 0.35, while the maintained load, 0.65 - 0.3, is one ulp lower. The
    # budget puts the relative slack of the sum at 1e-9, which fails the
    # uniform test, and that of the maintained load above it: the maintained
    # loads alone would return the uniform start where the reference's
    # start is a blend.
    ([[0.3, 0.2], [0.3, 1.3], [0.1, 1.1], [0.2, 0.1]], [(0, 1), (0,), (0,), (0, 1)],
     [0.35000000034999995, 0.4], (1,)),
    # The same users with a budget 8 ulps larger: the sum's relative slack
    # now exceeds 1e-9 by less than the loads' error bound, so the uniform
    # start is the reference's; the bound's lower end alone would reject it.
    ([[0.3, 0.2], [0.3, 1.3], [0.1, 1.1], [0.2, 0.1]], [(0, 1), (0,), (0,), (0, 1)],
     [0.3500000003500004, 0.4], (1,)),
    # Once user 2 is blocked, the live users' load, 0.1 + 0.2, is the budget
    # 0.30000000000000004, while the maintained load, 0.5 - 0.2, is 0.3: only
    # the sum leaves BS 0 without slack, a dry BS for the early-stop proof.
    ([[0.1], [0.2], [0.2]], [(0,), (0,), (0,)], [0.30000000000000004], (2, 1)),
    # The same users with a budget 3 ulps larger: the sum leaves BS 0 a
    # little slack, less than the loads' error bound, so BS 0 is not dry.
    ([[0.1], [0.2], [0.2]], [(0,), (0,), (0,)], [0.3000000000000002], (2, 1)),
], ids=["at-1e-9", "above-1e-9", "at-0", "above-0"])
def test_admission_uniform_loads_near_thresholds(monkeypatch, n_t, sets, budgets, evicted):
    inst = make_instance(xi=np.ones(np.shape(n_t)), n_t=n_t, budgets=budgets, sets=sets)
    usable = usable_links(inst)
    pack = solver_module._greedy_pack

    def spy(order, links, budgets, proof=None):
        # the dry BSs of an early-stop proof are those of the summed loads
        rows = np.sort(order)
        x_unif = usable[rows] / usable[rows].sum(axis=1)[:, None]
        slack = (budgets - np.einsum("ml,ml->l", x_unif, inst.n_t[rows])) / budgets
        assert proof is None or proof[0] == (slack <= 0).tolist()
        return pack(order, links, budgets, proof)

    monkeypatch.setattr(solver_module, "_greedy_pack", spy)
    assert assert_matches_restart_loop(inst).evicted == evicted


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_admission_fuzz_matches_restart_loop_and_stays_feasible(seed):
    inst = random_admission_case(np.random.default_rng(seed))
    # a loose barrier schedule: the relaxed solve's precision is not under test
    sol = assert_matches_restart_loop(inst, BarrierParams(tol=1e-3, r_min=1e-2, mu=100.0))
    viol = feasibility_violations(sol.association, sol.allocation, inst)
    assert viol["association_defects"] == 0
    assert viol["budget_overshoot_rel"] <= 1e-9
    assert viol["full_allocation_gap_rel"] <= 1e-9
    assert set(sol.evicted) <= set(sol.association.unserved)
