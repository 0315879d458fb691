"""Association and bandwidth-allocation machinery.

Stage two of the pipeline: maximize the barrier-augmented objective
W(x, r) = Fbar(x) + r * sum_j log(N_j - sum_i x_ij * n^T_ij) over the
product of per-user simplices, then round, repair budget overloads, and
split each base station's residual bandwidth. Two max-SINR baselines share
the repair step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError
from .objective import DeterministicObjective, objective_gradient, objective_value
from .semantics import FeasibleSets
from .topology import bit_rate

_ARMIJO = 1e-4
_STEP_FLOOR = 1e-18


@dataclass(frozen=True, eq=False)
class UaInstance:
    """One association problem: objective constants, feasible sets, budgets,
    and the fixed minimum bandwidth n^T per link."""

    objective: DeterministicObjective
    feasible: FeasibleSets
    budgets: np.ndarray
    n_t: np.ndarray

    def __post_init__(self):
        budgets = np.asarray(self.budgets, dtype=float)
        n_t = np.asarray(self.n_t, dtype=float)
        if n_t.shape != self.objective.xi_t.shape:
            raise ValueError("n_t shape must match the objective")
        if budgets.shape != (n_t.shape[1],):
            raise ValueError("budgets must have one entry per BS")
        if np.any(budgets <= 0):
            raise ValueError("budgets must be positive")
        if np.any(n_t <= 0):
            raise ValueError("minimum bandwidths must be positive")
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "n_t", n_t)

    @property
    def num_users(self):
        return self.n_t.shape[0]

    @property
    def num_bs(self):
        return self.n_t.shape[1]

    def mask(self):
        return self.feasible.mask()

    def rate_per_hz(self):
        """Message rate per allocated Hz on each link (xi^T / n^T)."""
        return self.objective.xi_t / self.n_t


def make_instance(channel, feasible, profile, budgets, bit_rate_threshold, tau, sigma, alpha):
    """Build a UaInstance with n^T_ij sized to hit the bit-rate threshold."""
    gamma = channel.gamma
    se = np.log2(1.0 + gamma)
    n_t = float(bit_rate_threshold) / se
    xi_t = profile.msg_per_bit[:, None] * bit_rate(n_t, gamma)
    obj = DeterministicObjective.for_confidence(tau, sigma, alpha, xi_t)
    return UaInstance(objective=obj, feasible=feasible, budgets=np.asarray(budgets, float), n_t=n_t)


@dataclass
class BarrierParams:
    r0: float = None  # None -> max(1, |Fbar| at the start point)
    mu: float = 10.0
    r_min: float = 1e-6
    tol: float = 1e-6
    max_inner: int = 20000
    # A stage also ends once a 25-iteration window improves W by less than
    # stall_rtol * (1 + |W|); the final pg norm is reported either way.
    stall_rtol: float = 1e-10


@dataclass(frozen=True, eq=False)
class RelaxedAssociation:
    """Interior solution of the relaxed association problem."""

    x_star: np.ndarray
    iterations: int = 0
    pg_norm: float = 0.0
    trace: tuple = ()


@dataclass(frozen=True, eq=False)
class Association:
    """Binary association; unserved users have all-zero rows."""

    x: np.ndarray
    unserved: tuple = ()

    @property
    def served(self):
        return int(self.x.sum())


@dataclass(frozen=True, eq=False)
class Allocation:
    """Bandwidth per served link (n^T plus residual); zero elsewhere."""

    n: np.ndarray
    kkt_residual: float = 0.0


def project_rows_to_simplex(v, mask):
    """Project each row of v onto {x >= 0, sum x = 1} supported on mask.

    Vectorized over rows; entries outside the mask come back as zero.
    """
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


def _project_simplex(v, total):
    """Euclidean projection of a vector onto {m >= 0, sum m = total}."""
    if total <= 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cs = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    rho = np.nonzero(u * k > cs - total)[0][-1] + 1
    theta = (cs[rho - 1] - total) / rho
    return np.maximum(v - theta, 0.0)


def _loads(x, n_t):
    return np.einsum("ml,ml->l", x, n_t)


def _link_lists(mask, n_t):
    """Each row's (BS, n^T) pairs on the mask, as Python lists for scalar loops."""
    rows, cols = np.nonzero(mask)
    pairs = list(zip(cols.tolist(), n_t[rows, cols].tolist()))
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [pairs[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _interior_start(mask, n_t, budgets, links=None):
    """Strictly interior start: uniform rows, else a blend with a greedy packing.

    `links` holds each row's `_link_lists` entry; it is built from the mask
    when omitted and the uniform start fails.
    """
    sizes = mask.sum(axis=1)
    if np.any(sizes == 0):
        raise InfeasibleError("user with empty feasible set")
    x_unif = mask / sizes[:, None]

    def min_rel_slack(x):
        slack = budgets - _loads(x, n_t)
        return float((slack / budgets).min())

    if min_rel_slack(x_unif) > 1e-9:
        return x_unif

    # Pack the hardest users first onto the BS with the most room left
    # (first maximum on ties).
    if links is None:
        links = _link_lists(mask, n_t)
    demand = np.where(mask, n_t, np.inf).min(axis=1)
    order = np.argsort(-demand, kind="stable")
    b = budgets.tolist()
    loads = [0.0] * len(b)
    cols = []
    for i in order.tolist():
        best = None
        for j, n in links[i]:
            spare = b[j] - loads[j] - n
            if best is None or spare > best_spare:
                best, best_spare, best_n = j, spare, n
        cols.append(best)
        loads[best] += best_n
    x_greedy = np.zeros_like(x_unif)
    x_greedy[order, cols] = 1.0

    for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
        x = theta * x_unif + (1.0 - theta) * x_greedy
        if min_rel_slack(x) > 1e-12:
            return x
    slack = budgets - _loads(x_greedy, n_t)
    overloaded = [int(j) for j in np.flatnonzero(slack <= 0)]
    raise InfeasibleError(
        f"no strictly interior association; overloaded budgets at BS {overloaded}",
        overloaded=overloaded,
    )


def solve_relaxed_ua(inst, barrier=None, record_trace=False):
    """Barrier-method solve of the relaxed association problem.

    Projected gradient ascent with backtracking maximizes W(x, r) for a
    decreasing barrier schedule r0, r0/mu, ..., r_min. Each stage ends at
    projected-gradient norm <= tol, after a 25-iteration window that gains
    too little (see BarrierParams.stall_rtol), or when no step is accepted;
    the norm reached at the final r is returned in pg_norm.

    Raises
    ------
    InfeasibleError
        If no strictly interior point exists.
    SolverError
        If an inner stage exhausts its iteration budget.
    """
    barrier = barrier or BarrierParams()
    obj = inst.objective
    mask = inst.mask()
    n_t, budgets = inst.n_t, inst.budgets
    m = inst.num_users
    if m == 0:
        return RelaxedAssociation(np.zeros((0, inst.num_bs)))

    x = _interior_start(mask, n_t, budgets)

    def w_of(x, r):
        slack = budgets - _loads(x, n_t)
        if np.any(slack <= 0.0):
            return -np.inf
        return objective_value(obj, x) + r * float(np.log(slack).sum())

    def grad_of(x, r):
        slack = budgets - _loads(x, n_t)
        return objective_gradient(obj, x) - r * (n_t / slack[None, :])

    r = barrier.r0 if barrier.r0 is not None else max(1.0, abs(objective_value(obj, x)))
    step = 1.0
    total_iters = 0
    pg = np.inf
    trace = []
    window = 25
    while True:
        w_cur = w_of(x, r)
        g = grad_of(x, r)
        w_window = w_cur
        converged = False
        for it in range(barrier.max_inner):
            pg = float(np.linalg.norm(project_rows_to_simplex(x + g, mask) - x))
            if record_trace:
                trace.append((r, it, w_cur, pg))
            if pg <= barrier.tol:
                converged = True
                break
            if it and it % window == 0:
                if w_cur - w_window <= barrier.stall_rtol * (1.0 + abs(w_cur)):
                    converged = True  # ascent has flattened out at this stage
                    break
                w_window = w_cur
            accepted = False
            trial = step
            while trial >= _STEP_FLOOR:
                xn = project_rows_to_simplex(x + trial * g, mask)
                w_new = w_of(xn, r)
                gain = float(np.vdot(g, xn - x))
                if np.isfinite(w_new) and w_new >= w_cur + _ARMIJO * gain and w_new >= w_cur:
                    accepted = True
                    break
                trial *= 0.5
            if not accepted:
                converged = True  # no ascent direction left at machine precision
                break
            g_new = grad_of(xn, r)
            dx = xn - x
            dg = g_new - g
            curv = -float(np.vdot(dx, dg))
            if curv > 0:  # spectral (Barzilai-Borwein) step for the next iterate
                step = min(max(float(np.vdot(dx, dx)) / curv, 1e-12), 1e8)
            else:
                step = min(trial * 2.0, 1e8)
            x, w_cur, g = xn, w_new, g_new
            total_iters += 1
        if not converged:
            raise SolverError(
                f"barrier stage r={r:g} did not converge within {barrier.max_inner} "
                f"iterations (projected-gradient norm {pg:g})",
                trace=trace,
            )
        if r <= barrier.r_min * (1.0 + 1e-12):
            break
        r = max(r / barrier.mu, barrier.r_min)
    return RelaxedAssociation(x, iterations=total_iters, pg_norm=pg, trace=tuple(trace))


def round_association(xs, inst):
    """Per-user argmax of the relaxed weights over the feasible set.

    Ties break toward higher xi^T, then toward the lower BS index. The
    result may violate budgets and must go through `repair_overload`.
    All-zero rows (users blocked before the relaxed solve) stay unserved.
    """
    mask = inst.mask()
    w = np.where(mask, xs.x_star, -np.inf)
    w_max = w.max(axis=1, keepdims=True)
    top = w == w_max
    xv = np.where(top, inst.objective.xi_t, -np.inf)
    best = np.argmax(top & (xv == xv.max(axis=1, keepdims=True)), axis=1)
    served = w_max[:, 0] > 0.0
    x = np.zeros(mask.shape, dtype=np.int8)
    x[served, best[served]] = 1
    return Association(x=x, unserved=tuple(np.flatnonzero(~served).tolist()))


def _repair_budget(x, weights, inst, cand_mask, unserved=()):
    """Move users off overloaded BSs until every budget holds.

    Always drains the BS with the largest excess first, evicting its most
    bandwidth-hungry user, who lands on the highest-weight candidate with
    room, or becomes unserved when none exists.
    """
    n_t, budgets = inst.n_t, inst.budgets
    xi = inst.objective.xi_t
    x = np.asarray(x, dtype=np.int8).copy()
    blocked = set(int(i) for i in unserved)
    loads = _loads(x, n_t)
    tol = 1e-12 * np.maximum(budgets, 1.0)
    while True:
        excess = loads - budgets
        j = int(np.argmax(excess))
        if excess[j] <= tol[j]:
            break
        users = np.flatnonzero(x[:, j])
        nv = n_t[users, j]
        i = int(users[nv == nv.max()].max())  # largest demand, ties -> largest index
        x[i, j] = 0
        loads[j] -= n_t[i, j]
        ks = np.flatnonzero(cand_mask[i])
        ks = ks[ks != j]
        order = np.lexsort((ks, -xi[i, ks], -weights[i, ks]))
        placed = False
        for k in ks[order]:
            k = int(k)
            if loads[k] + n_t[i, k] <= budgets[k] + tol[k]:
                x[i, k] = 1
                loads[k] += n_t[i, k]
                placed = True
                break
        if not placed:
            blocked.add(i)
    return Association(x=x, unserved=tuple(sorted(blocked)))


def repair_overload(assoc, xs, inst):
    """Budget repair driven by the relaxed weights (the two-stage rule)."""
    return _repair_budget(assoc.x, xs.x_star, inst, inst.mask(), unserved=assoc.unserved)


def _residual_pga(cv, floors, budget, tau, sq, tol, max_iter=5000):
    """Maximize tau*sum(s) - sq*||s|| with s = cv*(floors+m) over the
    residual simplex sum(m) = budget - sum(floors), m >= 0."""
    residual = budget - floors.sum()
    if residual <= 0:
        return np.zeros_like(cv), 0.0
    m = np.full(cv.size, residual / cv.size)

    def value(m):
        s = cv * (floors + m)
        return float(tau * s.sum() - sq * np.linalg.norm(s))

    def gradient(m):
        s = cv * (floors + m)
        nrm = float(np.linalg.norm(s))
        if nrm <= 0:
            return tau * cv
        return cv * (tau - sq * s / nrm)

    f_cur = value(m)
    step = residual
    res = np.inf
    for _ in range(max_iter):
        g = gradient(m)
        gmax = float(np.abs(g).max())
        if gmax <= 0:
            res = 0.0
            break
        probe = _project_simplex(m + (residual / gmax) * g, residual)
        res = float(np.abs(probe - m).max())
        if res <= tol:
            break
        step = min(step * 2.0, 1e3 * residual)
        accepted = False
        while step > _STEP_FLOOR * residual:
            cand = _project_simplex(m + step * g, residual)
            f_new = value(cand)
            gain = float(np.dot(g, cand - m))
            if f_new >= f_cur + _ARMIJO * gain and f_new >= f_cur:
                m, f_cur = cand, f_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return m, res


def allocate_residual(assoc, inst, kkt_rtol=1e-8):
    """Optimal split of each BS's leftover bandwidth among its users.

    Starting from an even split, projected gradient ascent on the per-BS
    confidence objective runs until its KKT residual falls to kkt_rtol * N_j
    or no step is accepted. The worst reached residual relative to N_j is
    returned in kkt_residual.
    """
    n_t, budgets = inst.n_t, inst.budgets
    c = inst.rate_per_hz()
    tau = inst.objective.tau
    sq = inst.objective.sigma * inst.objective.q
    n = np.zeros_like(n_t)
    worst = 0.0
    for j in range(inst.num_bs):
        users = np.flatnonzero(assoc.x[:, j])
        if users.size == 0:
            continue
        if users.size == 1:
            n[users[0], j] = budgets[j]
            continue
        floors = n_t[users, j]
        m, res = _residual_pga(c[users, j], floors, budgets[j], tau, sq, tol=kkt_rtol * budgets[j])
        n[users, j] = floors + m
        worst = max(worst, res / budgets[j])
    return Allocation(n=n, kkt_residual=worst)


def usable_links(inst):
    """Feasible links a binary association could actually carry (n^T <= N_j)."""
    return inst.mask() & (inst.n_t <= inst.budgets[None, :] * (1.0 + 1e-12))


def _restricted_instance(inst, usable, rows):
    obj = inst.objective
    sub_obj = DeterministicObjective(
        tau=obj.tau, sigma=obj.sigma, q=obj.q, xi_t=obj.xi_t[rows], eps_norm=obj.eps_norm
    )
    return UaInstance(
        objective=sub_obj,
        feasible=FeasibleSets(usable[rows]),
        budgets=inst.budgets,
        n_t=inst.n_t[rows],
    )


def _admit(usable, n_t, budgets):
    """Users the relaxed problem can hold with a strictly interior point.

    Starts from every user with a usable link. While the greedy packing of
    `_interior_start` overloads a budget, blocks the most bandwidth-hungry
    user (largest minimum usable n^T, ties to the largest index) touching an
    overloaded BS. Returns the admitted-user mask and the blocked users in
    eviction order.
    """
    admitted = usable.any(axis=1)
    evicted = []
    links = None
    while np.any(admitted):
        rows = np.flatnonzero(admitted)
        try:
            _interior_start(usable[rows], n_t[rows], budgets,
                            None if links is None else [links[i] for i in rows.tolist()])
            break
        except InfeasibleError as err:
            if links is None:
                links = _link_lists(usable, n_t)
            over = np.zeros(budgets.size, dtype=bool)
            over[list(err.overloaded)] = True
            touching = rows[usable[rows][:, over].any(axis=1)] if over.any() else rows
            if touching.size == 0:
                touching = rows
            demand = np.where(usable[touching], n_t[touching], np.inf).min(axis=1)
            victim = int(touching[demand == demand.max()].max())
            admitted[victim] = False
            evicted.append(victim)
    return admitted, tuple(evicted)


def two_stage(inst, barrier=None, record_trace=False):
    """Admission, relaxed solve, rounding, repair, and residual allocation.

    Users without a single feasible link that fits inside a budget can never
    be served by a binary association; they are blocked up front and the
    relaxed problem runs on the remaining users over their usable links.
    If the remaining users admit no strictly interior point, admission
    blocks the most bandwidth-hungry user touching an overloaded budget, one
    at a time, until one exists (the same eviction rule the repair step
    applies after rounding); the relaxed problem is then solved once. The
    users blocked at admission are returned in `evicted`, in order.
    """
    usable = usable_links(inst)
    admitted, evicted = _admit(usable, inst.n_t, inst.budgets)
    rows = np.flatnonzero(admitted)
    x_star = np.zeros_like(inst.n_t)
    if rows.size:
        sub = solve_relaxed_ua(_restricted_instance(inst, usable, rows),
                               barrier=barrier, record_trace=record_trace)
        x_star[rows] = sub.x_star
        relaxed = RelaxedAssociation(x_star, sub.iterations, sub.pg_norm, sub.trace)
    else:
        relaxed = RelaxedAssociation(x_star)
    assoc = repair_overload(round_association(relaxed, inst), relaxed, inst)
    alloc = allocate_residual(assoc, inst)
    return TwoStageSolution(relaxed=relaxed, association=assoc, allocation=alloc,
                            evicted=evicted)


@dataclass(frozen=True, eq=False)
class TwoStageSolution:
    relaxed: RelaxedAssociation
    association: Association
    allocation: Allocation
    evicted: tuple = ()  # users blocked at admission, in eviction order


def baseline_max_sinr(channel, feasible, inst, restrict_to_feasible=False):
    """Associate every user with its strongest BS, then repair budgets.

    By default the argmax runs over all base stations (knowledge-oblivious
    benchmark); set restrict_to_feasible to confine it to the feasible sets.
    """
    gamma = channel.gamma
    cand = feasible.mask() if restrict_to_feasible else np.ones(gamma.shape, dtype=bool)
    x = np.zeros(gamma.shape, dtype=np.int8)
    x[np.arange(gamma.shape[0]), np.argmax(np.where(cand, gamma, -np.inf), axis=1)] = 1
    return _repair_budget(x, gamma, inst, cand)


def _waterfill(ghat, floors, total):
    """Bandwidth water-filling for u(n) = n * log2(1 + ghat / n) with floors.

    All users share one marginal-utility shape, so the common water level
    reduces to a single scale z with n_i = max(floor_i, ghat_i / z); z is
    found by bisection to 1e-9 relative accuracy and the free allocations
    are rescaled for an exact budget match.
    """
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


def baseline_ba(assoc, inst, channel, mode="even"):
    """Classical per-BS bandwidth allocation: 'even' or 'waterfill'."""
    if mode not in ("even", "waterfill"):
        raise ValueError(f"unknown allocation mode {mode!r}")
    gamma = channel.gamma
    n_t, budgets = inst.n_t, inst.budgets
    n = np.zeros_like(n_t)
    for j in range(inst.num_bs):
        users = np.flatnonzero(assoc.x[:, j])
        if users.size == 0:
            continue
        if mode == "even":
            n[users, j] = budgets[j] / users.size
        else:
            ghat = gamma[users, j] * n_t[users, j]
            n[users, j] = _waterfill(ghat, n_t[users, j], budgets[j])
    return Allocation(n=n)
