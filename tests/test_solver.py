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
from semhetnet.harness import build_scenario, oracle_gap_distribution
from semhetnet.metrics import feasibility_violations, instance_fbar
from semhetnet.objective import DeterministicObjective, objective_gradient, objective_value
from semhetnet.solver import (Allocation, Association, RelaxedAssociation, _admit,
                              _simplex_projector, _SubsetStarts, _water_fill,
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
    for _simplex_projector. A row without support raises ValueError where the
    mask row is empty and SolverError otherwise (lost to rounding)."""
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
        if np.asarray(mask, bool).any(axis=1).all():
            raise SolverError("projection lost a row's support to rounding")
        raise ValueError("projection row with empty support")
    theta = (cs[np.arange(m), rho - 1] - 1.0) / rho
    x = np.maximum(v - theta[:, None], 0.0)
    x[~np.asarray(mask, bool)] = 0.0
    return x


def projection_bytes_or_error(project, v):
    try:
        return project(v).tobytes()
    except (ValueError, SolverError) as err:
        return type(err)


def put_rows_at_the_vertex_margin(r, v, mask):
    """Give some rows (half of them with every entry on the mask) a top entry
    t, up to 1e15.5, near 2**50 or (in some draws) beyond 2**53 in magnitude,
    and a second one a few ulps either side of the vertex test's margin
    1 + mu (1 + |t|) below it, or of 1 below it; the rest all tie with the
    second, or lie lower. Within the margin, rounding in the cumulative sums
    of such rows can count a second entry."""
    l = mask.shape[1]
    mu = 4.0 * l * l * np.finfo(float).eps
    rows = np.flatnonzero(r.random(len(v)) < 0.5)
    beyond = rows[:int(r.random() < 0.25)]  # a row whose support rounds away: SolverError
    for i in rows:
        if r.random() < 0.5:
            mask[i] = True
        on = r.permutation(np.flatnonzero(mask[i]))
        if i in beyond:
            mag = 10.0 ** r.uniform(16.0, 17.5)
        elif r.random() < 0.2:
            mag = 2.0**50 + 0.25 * float(r.integers(-3, 4))  # 0.25 is an ulp there
        else:
            mag = 10.0 ** r.uniform(-3.0, 15.5)
        t = r.choice([-1.0, 1.0]) * mag
        second = t - (1.0 + (mu if i in beyond else r.choice([0.0, mu])) * (1.0 + abs(t)))
        for _ in range(int(r.integers(0, 4))):
            second = np.nextafter(second, r.choice([-np.inf, np.inf]))
        v[i, on[0]] = t
        if on.size > 1:
            v[i, on[1]] = second
            below = r.choice([1e-3, 1.0, 10.0 ** r.uniform(-3.0, 17.5)], size=on.size - 2)
            v[i, on[2:]] = second - below * (r.random() < 0.5)  # all tied in half the rows


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_bits_match_reference(seed):
    r = np.random.default_rng(seed)
    many = solver_module._VERTEX_MIN_ROWS  # from here on rows take the vertex test
    m = int(r.integers(1, 9)) if r.random() < 0.4 else int(r.integers(many, 2 * many))
    l = int(r.integers(1, 7 if m < many else 17))
    mask = r.random((m, l)) < 0.5
    mask[np.arange(m), r.integers(l, size=m)] = True  # some rows keep a single entry
    if r.random() < 0.5:  # few distinct values: ties within and across rows
        v = r.choice([-1.0, 0.0, 0.25, 0.5, 1.0], size=(m, l))
    else:
        v = r.normal(0.0, 10.0 ** r.uniform(-3.0, 3.0), size=(m, l))
    if m >= many:
        put_rows_at_the_vertex_margin(r, v, mask)
    if r.random() < 0.5:  # -0.0 on and off the mask
        v[r.random((m, l)) < 0.3] = -0.0
    if r.random() < 0.5:  # entries off the mask up to 1e250 in magnitude, of either sign
        huge = r.choice([-1.0, 1.0], size=(m, l)) * 10.0 ** r.uniform(0.0, 250.0, size=(m, l))
        v = np.where(mask, v, huge)
    for i in np.flatnonzero(r.random(m) < 0.3):  # top entries that sum to exactly 1: theta = 0
        on = r.permutation(np.flatnonzero(mask[i]))
        top = on[:int(r.integers(1, on.size + 1))]
        cuts = np.sort(r.choice(np.arange(1, 16), size=top.size - 1, replace=False))
        v[i, on] = r.choice([-0.0, 0.0, -0.5], size=on.size)
        v[i, top] = np.diff(np.r_[0, cuts, 16]) / 16.0  # dyadic: every partial sum is exact
    assert (projection_bytes_or_error(_simplex_projector(mask), v)
            == projection_bytes_or_error(lambda v: reference_rows_projection(v, mask), v))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_paths_agree_on_the_same_rows(seed):
    # the same rows, projected alone (below the vertex test's row count) and
    # stacked above it (with the test), give the same bytes or the same error
    r = np.random.default_rng(seed)
    many = solver_module._VERTEX_MIN_ROWS
    m, l = int(r.integers(1, 9)), int(r.integers(1, 7))
    mask = r.random((m, l)) < 0.5
    mask[np.arange(m), r.integers(l, size=m)] = True
    v = r.normal(0.0, 10.0 ** r.uniform(-3.0, 3.0), size=(m, l))
    put_rows_at_the_vertex_margin(r, v, mask)
    reps = -(-many // m)
    alone = projection_bytes_or_error(_simplex_projector(mask), v)
    stacked = projection_bytes_or_error(_simplex_projector(np.tile(mask, (reps, 1))),
                                        np.tile(v, (reps, 1)))
    assert stacked == (alone * reps if isinstance(alone, bytes) else alone)


def test_projection_rejects_empty_support():
    with pytest.raises(ValueError, match="empty support"):
        _simplex_projector(np.array([[True, False], [False, False]]))(np.zeros((2, 2)))
    assert _simplex_projector(np.zeros((0, 3), bool))(np.zeros((0, 3))).shape == (0, 3)


def test_projection_precision_loss_is_a_solver_error():
    # beyond 2**53, u_1 - 1 rounds to u_1, so no entry passes the support
    # test, however far the second entry lies below: with and without the
    # vertex test
    for v in ([1e17, 1e17], [1e17, 0.0]):
        for rows in (1, solver_module._VERTEX_MIN_ROWS):
            with pytest.raises(SolverError, match="rounding"):
                _simplex_projector(np.ones((rows, 2), dtype=bool))(np.tile(v, (rows, 1)))


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
    """solve_relaxed_ua's arguments for all of inst's users: their mask,
    n^T and budgets, and the interior start _SubsetStarts finds for them
    (None where it finds none)."""
    mask = inst.mask()
    start, _ = _SubsetStarts(mask, inst.n_t, inst.budgets).start()
    return mask, inst.n_t, inst.budgets, start


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
        args = relaxed_args(inst)
        if args[3] is None:  # no strictly interior point
            continue
        res = solve_relaxed_ua(*args)
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


def test_w_monotone_within_stage(admitted_m200):
    # The gradient steps' acceptance is nonmonotone (see
    # test_relaxed_trace_keeps_the_nonmonotone_acceptance), but no Newton
    # step may lower phi: checked on the trace of the reference loop, which
    # the solve matches bit for bit
    _, trace = assert_matches_reference_loop(*admitted_m200[3])
    newton = [(a[1], b[1]) for a, b in zip(trace, trace[1:]) if b[3] > a[3]]
    assert newton and all(b >= a for a, b in newton)


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
    assert _SubsetStarts(inst.mask(), inst.n_t, inst.budgets).start() == (None, [0])
    sol = two_stage(inst)
    assert sol.association.unserved == (0,) and sol.evicted == ()


def test_start_names_a_bs_one_ulp_under_budget():
    # Three 0.3 Hz users sum to one ulp under BS 0's 0.9 Hz: the packing
    # overloads nothing, yet no blend keeps 1e-12 of the budget, so the
    # failing pass names BS 0 rather than no BS
    starts = _SubsetStarts(np.ones((3, 1), bool), np.full((3, 1), 0.3), np.array([0.9]))
    assert starts.start() == (None, [0])


@pytest.mark.parametrize("start", [
    np.full((2, 3), 0.5),  # one column too many
    np.full((3, 2), 0.5),  # one row too many
    np.array([[1.0, 0.0], [1.0, 0.0]]),  # fills BS 0's budget exactly
    np.array([[0.5, 0.5], [2.0, 0.0]]),  # loads BS 0 with 110 Hz of 100
], ids=["extra-bs", "extra-user", "no-slack", "overloaded"])
def test_relaxed_solve_rejects_a_start_that_is_not_strictly_interior(monkeypatch, start):
    inst = make_instance(xi=np.ones((2, 2)), n_t=[[60.0, 60.0], [40.0, 40.0]],
                         budgets=[100.0, 100.0], sets=[(0, 1)] * 2)
    args = inst.mask(), inst.n_t, inst.budgets
    with pytest.raises(ValueError, match="not strictly interior"):
        solve_relaxed_ua(*args, start)
    # a start with slack on every budget is where the solve begins
    monkeypatch.setattr(solver_module, "_TOL", 1e9)
    inside = solve_relaxed_ua(*args, np.full((2, 2), 0.5))
    assert inside.x_star.tobytes() == np.full((2, 2), 0.5).tobytes()


def reference_relaxed_loop(mask, n_t, budgets, start):
    """The loop that projects for pg at every iteration and evaluates phi and
    its gradient from x alone, recording its (iterations, backtracks, exit,
    Newton steps): the bit-for-bit reference for solve_relaxed_ua, with its
    tol, iteration cap and stall test read from the solver module. A trial
    is accepted by the same nonmonotone (GLL) test: its phi is at least the
    smallest of the last 10 accepted phi plus 1e-4 times the gain. Once the
    support is the same at two checks, it takes Newton steps along
    solver._newton_direction, each accepted at the first of t = t0, t0/2,
    ... (t0 the largest power of 1/2 with t0 max|d| <= 1, and t at least
    1e-18; at most 9 trials with a finite phi) whose gain is positive and
    whose phi is at least the current phi plus 1e-4 times the gain, until
    one is rejected. The support is compared at iteration 25 with the start,
    and from then on at every iteration with the previous one's. Returns the
    result and the trace: (iteration, phi, pg, Newton steps so far) at every
    pg test."""
    tol, max_inner = solver_module._TOL, solver_module._MAX_INNER
    stall_rtol = solver_module._STALL_RTOL
    x = start

    def phi_of(x):
        slack = budgets - np.einsum("ml,ml->l", x, n_t)
        if np.any(slack <= 0.0):
            return -np.inf
        return float(np.log(slack).sum())

    def grad_of(x):
        slack = budgets - np.einsum("ml,ml->l", x, n_t)
        return -n_t / slack[None, :]

    def newton_step(x, g, w_cur):
        slack = budgets - np.einsum("ml,ml->l", x, n_t)
        d = solver_module._newton_direction(n_t, slack, mask, x, g)
        if d is None or float(np.vdot(g, d)) <= 0.0:
            return None, 0, 0
        t, halvings, finite = 1.0, 0, 0
        while t * np.abs(d).max() > 1.0:
            t *= 0.5
        while t >= 1e-18 and finite < 9:
            xn = reference_rows_projection(x + t * d, mask)
            w_new = phi_of(xn)
            gain = float(np.vdot(g, xn - x))
            if gain > 0.0 and np.isfinite(w_new) and w_new >= w_cur + 1e-4 * gain:
                return xn, t, halvings
            t *= 0.5
            halvings += 1
            finite += np.isfinite(w_new)
        return None, 0, halvings

    step = 1.0
    pg = np.inf
    trace = []
    w_cur = phi_of(x)
    g = grad_of(x)
    w_window = w_cur
    support = x > 0.0
    newton = False
    recent = [w_cur]
    exit, backtracks, newton_steps = None, 0, 0
    for it in range(max_inner):
        pg = float(np.linalg.norm(reference_rows_projection(x + g, mask) - x))
        trace.append((it, w_cur, pg, newton_steps))
        if pg <= tol:
            exit = "tol"
            break
        if it and it % 25 == 0:
            if w_cur - w_window <= stall_rtol * (1.0 + abs(w_cur)):
                exit = "stall"
                break
            w_window = w_cur
        if it >= 25:
            if np.array_equal(x > 0.0, support):
                newton = True
            support = x > 0.0
        accepted = False
        if newton:
            xn, trial, halvings = newton_step(x, g, w_cur)
            backtracks += halvings
            accepted = newton = xn is not None
            newton_steps += accepted
        if not accepted:
            trial = step
            while trial >= 1e-18:
                xn = reference_rows_projection(x + trial * g, mask)
                w_new = phi_of(xn)
                gain = float(np.vdot(g, xn - x))
                if np.isfinite(w_new) and w_new >= min(recent[-10:]) + 1e-4 * gain:
                    accepted = True
                    break
                trial *= 0.5
                backtracks += 1
        if not accepted:
            exit = "no_step"
            break
        w_new = phi_of(xn)
        g_new = grad_of(xn)
        dx = xn - x
        dg = g_new - g
        curv = -float(np.vdot(dx, dg))
        if curv > 0:
            step = min(max(float(np.vdot(dx, dx)) / curv, 1e-12), 1e8)
        else:
            step = min(trial * 2.0, 1e8)
        x, w_cur, g = xn, w_new, g_new
        recent.append(w_cur)
    if exit is None:
        raise SolverError(f"relaxed stage did not converge within {max_inner} iterations "
                          f"(projected-gradient norm {pg:g})")
    return RelaxedAssociation(x, iterations=it, pg_norm=pg,
                              stage=(it, backtracks, exit, newton_steps)), tuple(trace)


def assert_matches_reference_loop(*args):
    """solve_relaxed_ua(*args) and the reference loop agree bit for bit, on
    the result or on the SolverError raised; returns the result and the
    reference's trace (None and None on error)."""
    try:
        want, trace = reference_relaxed_loop(*args)
    except SolverError as err:
        with pytest.raises(SolverError) as got:
            solve_relaxed_ua(*args)
        assert str(got.value) == str(err)
        return None, None
    got = solve_relaxed_ua(*args)
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert (got.iterations, got.pg_norm, got.stage) == (want.iterations, want.pg_norm, want.stage)
    return got, trace


def admitted_instances(config, seeds):
    """solve_relaxed_ua's arguments for each scenario seed: the admitted
    users' usable links and n^T, the budgets and admission's start, as
    two_stage passes them."""
    subs = {}
    for seed in seeds:
        inst = build_scenario(config, seed).instance
        usable = usable_links(inst)
        admitted, _, start = _admit(usable, inst.n_t, inst.budgets)
        rows = np.flatnonzero(admitted)
        subs[seed] = usable[rows], inst.n_t[rows], inst.budgets, start
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


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_relaxed_solve_matches_reference_loop_at_m200(admitted_m200, seed):
    got, _ = assert_matches_reference_loop(*admitted_m200[seed])
    assert got.iterations > 0
    assert got.stage[0] == got.iterations


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxed_solve_matches_reference_loop_on_congested_cells(admitted_congested, seed):
    got, _ = assert_matches_reference_loop(*admitted_congested[seed])
    assert got.iterations > 0


def count_projections(monkeypatch):
    """Wrap solver._simplex_projector so that every projection adds 1 to the
    last entry of the returned list; append 0 to it to start a count."""
    calls = []
    projector = solver_module._simplex_projector

    def counting_projector(mask):
        project = projector(mask)

        def counted(v):
            calls[-1] += 1
            return project(v)
        return counted

    monkeypatch.setattr(solver_module, "_simplex_projector", counting_projector)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pg_skip_test_ignores_links_off_the_mask(admitted_congested, monkeypatch, seed):
    # The projector reads nothing off the mask, so neither may the test that
    # skips pg projections: n^T inflated there leaves the projector calls
    # and the result unchanged, and both solves project less often than the
    # reference loop.
    mask, n_t, budgets, start = admitted_congested[seed]
    inflated = np.where(mask, n_t, 1e6 * n_t)
    calls = count_projections(monkeypatch)
    results = []
    for n in (n_t, inflated):
        calls.append(0)
        results.append(solve_relaxed_ua(mask, n, budgets, start))
    assert results[0].x_star.tobytes() == results[1].x_star.tobytes()
    assert calls[0] == calls[1]

    reference_calls = [0]
    reference_projection = reference_rows_projection

    def counting_reference(v, mask):
        reference_calls[0] += 1
        return reference_projection(v, mask)

    monkeypatch.setitem(globals(), "reference_rows_projection", counting_reference)
    reference_relaxed_loop(mask, n_t, budgets, start)
    assert calls[0] < reference_calls[0]


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_stage_that_starts_converged_projects_once(admitted_m200, monkeypatch, seed):
    # Restarted from its own solution, the solve meets tol at its first pg
    # and projects no line-search trial
    mask, n_t, budgets, start = admitted_m200[seed]
    first = solve_relaxed_ua(mask, n_t, budgets, start)
    calls = count_projections(monkeypatch)
    calls.append(0)
    again = solve_relaxed_ua(mask, n_t, budgets, first.x_star)
    assert again.stage == (0, 0, "tol", 0)
    assert calls == [1]
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
@given(st.integers(0, 2**31 - 1), st.sampled_from([1e-9, 1e-12, 0.0]), st.sampled_from([20000, 40]))
# Cases where the stopping test goes wrong if pg is skipped without a rounding
# margin, with lb over step < 1, at a stall or no-step exit, or at the last
# allowed iteration.
@example(31, 0.0, 20000)
@example(312, 1e-12, 20000)
@example(1185, 1e-9, 20000)
@example(43, 1e-9, 40)
def test_relaxed_solve_fuzz_matches_reference_loop(seed, tol, max_inner):
    # tol = 0 leaves only the stall and no-step exits; max_inner = 40 often
    # runs out and raises SolverError with the pg of the last iteration
    args = relaxed_args(random_relaxed_case(np.random.default_rng(seed)))
    if args[3] is None:  # no strictly interior point
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_TOL", tol)
        mp.setattr(solver_module, "_MAX_INNER", max_inner)
        assert_matches_reference_loop(*args)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_relaxed_trace_keeps_the_nonmonotone_acceptance(seed):
    # Each accepted phi is at least the smallest of the up to 10 accepted
    # before it (the GLL test, whose gain is nonnegative), and so at least
    # the first phi: checked on the trace of the reference loop, which the
    # solve matches bit for bit
    args = relaxed_args(random_relaxed_case(np.random.default_rng(seed)))
    if args[3] is None:  # no strictly interior point
        return
    res, trace = assert_matches_reference_loop(*args)
    ws = [w for it, w, pg, newton in trace]
    assert len(ws) == res.iterations + 1
    for k in range(1, len(ws)):
        assert ws[k] >= min(ws[max(0, k - 10):k]) - 1e-9
        assert ws[k] >= ws[0] - 1e-9


def at_confidence(inst, sigma, alpha):
    """inst with its objective at another sigma and alpha."""
    obj = inst.objective
    return replace(inst, objective=DeterministicObjective.for_confidence(obj.tau, sigma, alpha,
                                                                         obj.xi_t))


def dense_newton_direction(inst, mask, x, g):
    """The direction of solver._newton_direction from the explicit reduced
    Hessian: the face and pivots as there (entries up to 1e-12 count as
    zero), a null-space basis Z whose columns are e_ij - e_ip, -Z^T (d^2 phi) Z
    built in full and shifted by 1e-12 of its largest diagonal entry, and
    np.linalg.solve. Returns the direction and the condition number of the
    shifted matrix."""
    n_t = inst.n_t
    m, l = x.shape
    positive = x > 1e-12
    best = np.where(positive, g, -np.inf).max(axis=1)
    free = positive | (mask & (g > best[:, None]))
    pivot = x.argmax(axis=1)
    free[np.arange(m), pivot] = False
    ri, rj = np.nonzero(free)
    if not ri.size:
        return None, 1.0
    z = np.zeros((m * l, ri.size))
    z[ri * l + rj, np.arange(ri.size)] = 1.0
    z[ri * l + pivot[ri], np.arange(ri.size)] = -1.0
    slack = inst.budgets - np.einsum("ml,ml->l", x, n_t)
    loads = np.zeros((m * l, l))  # d load_j / d x_ij = n_ij
    loads[np.arange(m * l), np.tile(np.arange(l), m)] = n_t.ravel()
    hess = (loads / slack) @ (loads / slack).T  # -d^2 phi = L S^-2 L^T
    reduced = z.T @ hess @ z
    reduced += 1e-12 * np.abs(np.diag(reduced)).max() * np.eye(ri.size)
    d = z @ np.linalg.solve(reduced, z.T @ g.ravel())
    return d.reshape(m, l), np.linalg.cond(reduced)


def phi_gradient(inst, x):
    slack = inst.budgets - np.einsum("ml,ml->l", x, inst.n_t)
    return -inst.n_t / slack


def newton_direction(inst, mask, x, g):
    """solver._newton_direction at x, given x's slack."""
    slack = inst.budgets - np.einsum("ml,ml->l", x, inst.n_t)
    return solver_module._newton_direction(inst.n_t, slack, mask, x, g)


@pytest.mark.parametrize("sigma, alpha", [(None, 0.95), (0.0, 0.95), (0.3, 0.3)])
def test_newton_direction_matches_a_dense_reduced_hessian_solve(sigma, alpha):
    # At the start and at the solution of random cases, the structured solve
    # equals the dense one wherever the dense one is itself good to 1e-9
    # (condition below 1e6). The right-hand side is phi's gradient, and phi's
    # gradient plus the Fbar gradient at sigma and alpha, which varies along
    # rows and so moves the face (sigma = 0 leaves tau xi; alpha < 0.5 makes
    # sigma q negative)
    compared = 0
    for seed in range(40):
        inst = random_relaxed_case(np.random.default_rng(seed))
        inst = at_confidence(inst, inst.objective.sigma if sigma is None else sigma, alpha)
        args = relaxed_args(inst)
        if args[3] is None:  # no strictly interior point
            continue
        mask = args[0]
        try:
            points = (args[3], solve_relaxed_ua(*args).x_star)
        except SolverError:
            continue
        for x in points:
            g_phi = phi_gradient(inst, x)
            for g in (g_phi, g_phi + objective_gradient(inst.objective, x)):
                want, cond = dense_newton_direction(inst, mask, x, g)
                got = newton_direction(inst, mask, x, g)
                if want is None:
                    assert got is None
                elif cond < 1e6:
                    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
                    compared += 1
    assert compared >= 30


@pytest.mark.parametrize("seed", [7, 13, 21])  # random cases that take Newton steps
def test_newton_direction_that_does_not_ascend_hands_back_to_gradient_steps(monkeypatch, seed):
    # phi's reduced Hessian is positive definite once shifted, so every
    # Newton direction ascends. A direction turned so that it never ascends
    # costs nothing: the solve rejects it as the reference loop does, and is
    # then the one with gradient steps alone, taking no Newton step
    args = relaxed_args(random_relaxed_case(np.random.default_rng(seed)))
    direction = solver_module._newton_direction
    gains = []

    def spy(n_t, slack, mask, x, g):
        d = direction(n_t, slack, mask, x, g)
        gains.append(None if d is None else float(np.vdot(g, d)))
        return d

    monkeypatch.setattr(solver_module, "_newton_direction", spy)
    got, _ = assert_matches_reference_loop(*args)
    assert got.stage[3] > 0
    assert all(gain > 0.0 for gain in gains if gain is not None)

    def never_ascends(*args):
        d = spy(*args)
        return d if d is None or float(np.vdot(args[4], d)) <= 0.0 else -d

    monkeypatch.setattr(solver_module, "_newton_direction", never_ascends)
    turned, _ = assert_matches_reference_loop(*args)
    monkeypatch.setattr(solver_module, "_newton_direction", lambda *args: None)
    plain = solve_relaxed_ua(*args)
    assert turned.x_star.tobytes() == plain.x_star.tobytes()
    assert turned.stage == plain.stage
    assert plain.stage[3] == 0


@pytest.mark.parametrize("seed", [2, 7])
def test_every_barrier_stage_ends_at_tol_on_the_slow_m200_cells(seed):
    # These cells' relaxed stage used to stall far from tol; it now finishes
    # on its face by Newton steps
    relaxed = two_stage(build_scenario(ScenarioConfig(num_users=200), seed).instance).relaxed
    assert relaxed.stage[2] == "tol"
    assert relaxed.stage[3] > 0
    assert relaxed.pg_norm <= solver_module._TOL


def test_newton_finish_halves_the_projections_on_the_slow_m200_cells(monkeypatch):
    # Projections two_stage makes on M = 200 seeds 2, 4 and 7 with a face
    # that counts rounding dust as positive, a first Newton trial at t = 1,
    # halvings down to the step floor and the support compared every 25
    # iterations: 555, 381 and 426. Together they now take at most half.
    before = [555, 381, 426]
    calls = count_projections(monkeypatch)
    for seed in (2, 4, 7):
        calls.append(0)
        two_stage(build_scenario(ScenarioConfig(num_users=200), seed).instance)
    assert all(got < want for got, want in zip(calls, before))
    assert 2 * sum(calls) <= sum(before)


@pytest.mark.parametrize("seed, most", [(3, 50), (4, 60), (7, 85)])
def test_newton_finish_takes_over_once_the_support_holds(seed, most):
    # From iteration 25 on the support is compared with the previous
    # iteration's, so the Newton finish starts one iteration after the
    # support settles. Compared every 5 iterations instead, these cells took
    # 76, 121 and 107 iterations.
    relaxed = two_stage(build_scenario(ScenarioConfig(num_users=200), seed).instance).relaxed
    assert relaxed.stage[2] == "tol"
    assert relaxed.stage[0] <= most


def test_a_rejected_newton_step_is_not_retried_on_every_other_iteration(monkeypatch):
    # A rejected Newton step hands back to a gradient step, and Newton runs
    # again once the support holds for an iteration, so a direction that
    # keeps failing could cost up to 9 trials every other iteration. On
    # M = 200 seeds 1-8 and on the oracle-gap draws validate runs, no solve
    # is refused a Newton step more than once, and the draws that reach
    # iteration 25 keep their records. The first is a 4-user draw whose one
    # Newton step, at iteration 26, is rejected after 9 trials; compared
    # every 5 iterations, it made 5 backtracks.
    tried, records = [], []
    direction, solve = solver_module._newton_direction, solver_module.solve_relaxed_ua

    def counted(*args):
        tried[-1] += 1
        return direction(*args)

    def recorded(*args):
        tried.append(0)
        relaxed = solve(*args)
        records.append((relaxed.stage, tried[-1] - relaxed.stage[3]))
        return relaxed

    monkeypatch.setattr(solver_module, "_newton_direction", counted)
    monkeypatch.setattr(solver_module, "solve_relaxed_ua", recorded)
    for seed in range(1, 9):
        two_stage(build_scenario(ScenarioConfig(num_users=200), seed).instance)
    assert len(records) == 8
    config = ScenarioConfig()
    oracle_gap_distribution(config.tau, config.sigma, config.alpha)
    assert max(refused for _, refused in records) <= 1
    assert sorted(stage for stage, _ in records[8:] if stage[0] >= 25) == [
        (27, 14, "tol", 0), (29, 10, "tol", 3), (31, 20, "tol", 5)]


def test_newton_face_treats_rounding_dust_as_zero():
    # Entries of 1e-17 whose gradient does not beat their row's best positive
    # entry stay off the face: the direction is the one with them at 0
    compared = 0
    for seed in range(20):
        inst = random_relaxed_case(np.random.default_rng(seed))
        args = relaxed_args(inst)
        if args[3] is None:  # no strictly interior point
            continue
        try:
            x = solve_relaxed_ua(*args).x_star
        except SolverError:
            continue
        mask = inst.mask()
        g = phi_gradient(inst, x)
        best = np.where(x > 0.0, g, -np.inf).max(axis=1)
        dust = mask & (x == 0.0) & (g <= best[:, None])
        if not dust.any():
            continue
        want = newton_direction(inst, mask, x, g)
        got = newton_direction(inst, mask, np.where(dust, 1e-17, x), g)
        if want is None:
            assert got is None
            continue
        assert not got[dust].any()
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        compared += 1
    assert compared >= 5


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
    ties) or is blocked."""
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
        loads[j] -= n_t[i, j]
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
    # digits: a tighter tol with no stall exit rounds to the same one
    inst = build_scenario(ScenarioConfig(num_users=200), seed).instance
    default = two_stage(inst).association
    monkeypatch.setattr(solver_module, "_TOL", 1e-11)
    monkeypatch.setattr(solver_module, "_STALL_RTOL", 0.0)
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
    x_greedy, _ = array_greedy_pack(mask, n_t, budgets)
    for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
        x = theta * x_unif + (1.0 - theta) * x_greedy
        if min_rel_slack(x) > 1e-12:
            return x
    slack = budgets - np.einsum("ml,ml->l", x_greedy, n_t)
    if np.any(slack <= 0):
        return [int(j) for j in np.flatnonzero(slack <= 0)]
    return [int(j) for j in np.flatnonzero(slack / budgets <= 1e-12)]


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
        cols, over = pack(*args)
        packed.append(cols is not None)  # the pass packed every row
        return cols, over

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_greedy_pack", spy)
        got, overloaded = _SubsetStarts(mask, n_t, budgets).start()
    if got is not None:
        assert overloaded is None
        assert isinstance(want, np.ndarray) and got.tobytes() == want.tobytes()
    elif packed[0]:
        # the full pass names what the reference names: the BSs without
        # slack, else those that keep at most 1e-12 of their budget, never none
        assert overloaded == want and want
    else:  # a pass that stops early names the BSs proven so far
        assert overloaded and set(overloaded) <= set(want)


def restart_loop_two_stage(inst):
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
            x_star[rows] = solve_relaxed_ua(usable[rows], inst.n_t[rows], inst.budgets,
                                            start).x_star
            break
        touching = rows[usable[rows][:, result].any(axis=1)]
        demand = np.where(usable[touching], inst.n_t[touching], np.inf).min(axis=1)
        victim = int(touching[demand == demand.max()].max())
        admissible[victim] = False
        evicted.append(victim)
    relaxed = RelaxedAssociation(x_star)
    x, unserved = loop_round_association(x_star, inst.mask())
    assoc = repair_overload(Association(x=x, unserved=unserved), relaxed, inst)
    return x_star, assoc, tuple(evicted), start


def assert_matches_restart_loop(inst):
    sol = two_stage(inst)
    x_star, assoc, evicted, start = restart_loop_two_stage(inst)
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
        cols, over = pack(*args)
        passes["packed"] += 1
        passes["full"] += cols is not None  # the pass packed every user
        return cols, over

    monkeypatch.setattr(solver_module, "_greedy_pack", spy)
    _, evicted, _ = _admit(usable_links(inst), inst.n_t, inst.budgets)
    assert passes["full"] < passes["packed"] <= len(evicted) + 1


@and_batched("n_t, sets, budgets, evicted", [
    # Packed in demand order (users 1, 3, 0), BS 0's running load reaches
    # 1.1 exactly; its row-order sum, 1.0999999999999999, stays below. The
    # full pass names BS 1 alone, so user 2 goes first: a certificate
    # without a rounding margin would block user 1.
    ([[0.1, 1.0], [0.7, 1.0], [0.3, 0.1], [0.3, 1.0]], [(0,), (0,), (0, 1), (0,)],
     [1.1, 0.1], (2, 1)),
    # The mirror image: packed in demand order (BS 0 takes users 0, 2, 1),
    # its running load, 0.9999999999999999, stays below its budget, while its
    # row-order sum reaches 1.0. The full pass names BS 0 with BS 1, so the
    # hungriest user, user 0, goes first: a verdict read from the running
    # loads alone would name BS 1 alone and block user 5.
    ([[0.7, 1.0], [0.1, 1.0], [0.2, 1.0], [1.0, 0.5], [1.0, 0.5], [1.0, 0.5]],
     [(0,), (0,), (0,), (1,), (1,), (1,)], [1.0, 1.0], (0, 5, 4)),
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
], ["rounding-margin", "rounding-margin-below", "tie-to-largest-index", "blend-succeeds"])
def test_admission_early_stop_edge_cases(n_t, sets, budgets, evicted, batched):
    inst = make_instance(xi=np.ones(np.shape(n_t)), n_t=n_t, budgets=budgets, sets=sets)
    with admission_batches(batched):
        assert assert_matches_restart_loop(inst).evicted == evicted


@pytest.mark.parametrize("n_t, sets, budgets, overloaded, rebuilt", [
    # the first pass of the rounding-margin case: BS 0's running load is its
    # budget, inside the margin band, so the pass sums its packed rows
    ([[0.1, 1.0], [0.7, 1.0], [0.3, 0.1], [0.3, 1.0]], [(0,), (0,), (0, 1), (0,)],
     [1.1, 0.1], [1], True),
    # ... and of its mirror image, whose running load is one ulp below
    ([[0.7, 1.0], [0.1, 1.0], [0.2, 1.0], [1.0, 0.5], [1.0, 0.5], [1.0, 0.5]],
     [(0,), (0,), (0,), (1,), (1,), (1,)], [1.0, 1.0], [0, 1], True),
    # Users 1-3 load BS 0 to 3.0 of 2.5 and the hungriest, user 0, loads
    # BS 1 to 5.0 of 10.0: both clear of the band, and BS 0 has no uniform
    # slack, so the running loads decide the full pass without any sum
    ([[1.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [(1,), (0,), (0,), (0,)],
     [2.5, 10.0], [0], False),
], ids=["rounding-margin", "rounding-margin-below", "clear-of-band"])
def test_full_pass_sums_its_rows_only_inside_the_margin_band(monkeypatch, n_t, sets, budgets,
                                                             overloaded, rebuilt):
    inst = make_instance(xi=np.ones(np.shape(n_t)), n_t=n_t, budgets=budgets, sets=sets)
    usable = usable_links(inst)
    starts = _SubsetStarts(usable, inst.n_t, inst.budgets)
    sums = []
    loads = solver_module._loads

    def spy(x, n_t):
        sums.append(x.shape)
        return loads(x, n_t)

    monkeypatch.setattr(solver_module, "_loads", spy)
    start, got = starts.start()
    assert start is None and not starts.stopped_early
    assert got == overloaded == array_interior_start(usable, inst.n_t, inst.budgets)
    assert bool(sums) == rebuilt


@and_batched("n_t, sets, budgets, evicted", [
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
], ["at-1e-9", "above-1e-9", "at-0", "above-0"])
def test_admission_uniform_loads_near_thresholds(monkeypatch, n_t, sets, budgets, evicted,
                                                 batched):
    inst = make_instance(xi=np.ones(np.shape(n_t)), n_t=n_t, budgets=budgets, sets=sets)
    usable = usable_links(inst)
    pack = solver_module._greedy_pack
    upcoming = _SubsetStarts.upcoming

    def summed_dry(rows):
        # the dry BSs of an early-stop proof are those of the summed loads
        x_unif = usable[rows] / usable[rows].sum(axis=1)[:, None]
        slack = (inst.budgets - np.einsum("ml,ml->l", x_unif, inst.n_t[rows])) / inst.budgets
        return (slack <= 0).tolist()

    def spy(order, links, budgets, proof):
        assert proof[0] == summed_dry(np.sort(order))
        return pack(order, links, budgets, proof)

    batch_passes = []

    def upcoming_spy(self, size):
        # so are those of each pass a batch names, on its own live users
        victims, dry, counts = upcoming(self, size)
        for k, (pass_dry, count) in enumerate(zip(dry, counts)):
            rows = np.setdiff1d(self.rows(), victims[:k])
            assert pass_dry.tolist() == summed_dry(rows) and count == rows.size
        batch_passes.append(len(victims))
        return victims, dry, counts

    monkeypatch.setattr(solver_module, "_greedy_pack", spy)
    monkeypatch.setattr(_SubsetStarts, "upcoming", upcoming_spy)
    with admission_batches(batched):
        assert assert_matches_restart_loop(inst).evicted == evicted
    # batched, a batch names the second pass in every case but above-1e-9
    assert (sum(batch_passes) > 0) == (batched and budgets != [0.3500000003500004, 0.4])


def early_stop_run(starts, size):
    """The victims of the next passes, up to `size` of them, for as long as
    each `start` pass stops early: what `proven_victims` must return."""
    starts = copy.deepcopy(starts)
    victims = []
    while len(victims) < size:
        start, overloaded = starts.start()
        if start is not None or not starts.stopped_early:
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
    start, overloaded = starts.start()
    while start is None:
        starts.remove(starts.victim(overloaded))
        rows, loads = starts.rows(), starts.loads
        for size in (1, 3, 64):
            assert starts.proven_victims(size) == early_stop_run(starts, size)
        assert np.array_equal(starts.rows(), rows) and starts.loads is loads
        start, overloaded = starts.start()


def test_batch_proves_each_pass_with_its_own_margin():
    # Once user 0 is blocked, a batch's second pass packs users 2 and 3 alone.
    # Their running load, 0.6 + 0.400000001000001, lands exactly on
    # N * (1 + delta) for 2 live users, so that pass stops early at its last
    # row. The margin for the first pass's 3 live users is 2 ulps higher.
    starts = _SubsetStarts(np.ones((4, 1), bool), np.array([[0.9], [0.8], [0.6], [0.400000001000001]]),
                           np.array([1.0]))
    _, overloaded = starts.start()
    starts.remove(starts.victim(overloaded))
    assert starts.proven_victims(4) == early_stop_run(starts, 4) == [1, 2]


@pytest.mark.parametrize("num_users, evictions, evicted_sha256, start_sha256", [
    (2000, 366, "7872fb3ca0200ff4a7aada558752a5391257f40ba76363c94f8da25bba83e251",
     "3f4f7528cab91dcc8ed3cb0389c1dff16fa5417e6a247cbb7be062c890e158ab"),
    (3000, 876, "b4466c269355fd766937c9c1e3cf683efd2d65e17086839f22a4284a7048a260",
     "fd932bd821c1ebf012f91b2b8ce3f5b5745c86b4bc0f127cdd8fd3b075753b0d"),
], ids=["m2000", "m3000"])
def test_admission_where_it_batches_by_default(monkeypatch, num_users, evictions, evicted_sha256,
                                               start_sha256):
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
    _, evicted, start = _admit(usable_links(inst), inst.n_t, inst.budgets)
    assert len(evicted) == evictions and len(proven) > evictions // 2
    assert hashlib.sha256(np.asarray(evicted, dtype=np.int64).tobytes()).hexdigest() == evicted_sha256
    assert hashlib.sha256(start.tobytes()).hexdigest() == start_sha256


def test_two_stage_bytes_at_m2000():
    # Seed 1 at the default config: the relaxed stage projects 1606 admitted
    # users' rows, far more than any randomized projection test draws.
    sol = two_stage(build_scenario(ScenarioConfig(num_users=2000), 1).instance)
    assert sol.relaxed.stage == (68, 21, "tol", 6)
    arrays = (sol.relaxed.x_star, sol.association.x, sol.allocation.n)
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == [
        "c5c5981ca2abd73995668aebc3d3849029ef20e14a20478fe098c5b60b360b8d",
        "93f4b46162114789db5cc282b6916bfa8b4769e18ee360d565c219022b3443e4",
        "59769cac5dd9906fee57c0cb1ac18bc4a4aee16ebc89cd5a24b356ee9534241a",
    ]


def test_two_stage_bytes_at_m200():
    # Seeds 1-8 at M = 200, the uncongested benchmark cells: one digest per
    # output over the eight cells. Unlike the M = 2000 pin, these bytes are
    # the same under one BLAS thread and under two.
    digests = [hashlib.sha256() for _ in range(3)]
    stages = []
    for seed in range(1, 9):
        sol = two_stage(build_scenario(ScenarioConfig(num_users=200), seed).instance)
        stages.append(sol.relaxed.stage)
        for h, a in zip(digests, (sol.relaxed.x_star, sol.association.x, sol.allocation.n)):
            h.update(a.tobytes())
    assert stages == [(24, 0, "tol", 0), (64, 18, "tol", 20), (40, 9, "tol", 14),
                      (42, 19, "tol", 16), (35, 2, "tol", 5), (30, 12, "tol", 2),
                      (72, 14, "tol", 21), (36, 18, "tol", 5)]
    assert [h.hexdigest() for h in digests] == [
        "0bf173bb48298ffdbf93c2047888e607348f7d5a0b71c21250bab8293c6b13b6",
        "2a7c11daeb70dae7491fdda9e2ca15915d154760c4dcabbc0269849d378616b3",
        "42812f7192b39de11123902e0789a87d59d64ce4039338a957f0d33980026d03",
    ]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
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
