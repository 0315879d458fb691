"""Association and bandwidth-allocation machinery.

Stage two of the pipeline: maximize the barrier-augmented objective
W(x, r) = Fbar(x) + r * sum_j log(N_j - sum_i x_ij * n^T_ij) over the
product of per-user simplices, then round, repair budget overloads, and
split each base station's residual bandwidth. Two max-SINR baselines share
the repair step.
"""

import math
import numbers
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InfeasibleError, SolverError
from .objective import DeterministicObjective, confidence_bound, gradient_from_rates
from .semantics import FeasibleSets
from .topology import bit_rate

_ARMIJO = 1e-4
_GLL_MEMORY = 10  # accepted W values the line search compares against
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


def make_instance(gamma, feasible, msg_per_bit, budgets, bit_rate_threshold, tau, sigma, alpha):
    """Build a UaInstance with n^T_ij sized to hit the bit-rate threshold.

    msg_per_bit is the bit-to-message coefficient kappa: one value for every
    user or one per user (rows of gamma). Raises ConfigError unless
    0 < log2(1 + gamma) < inf on every link, so that every n^T is finite.
    """
    kappa = np.broadcast_to(np.asarray(msg_per_bit, dtype=float), gamma.shape[:1])
    if not np.all(kappa > 0):
        raise ConfigError("msg_per_bit coefficients must be positive")
    se = np.log2(1.0 + gamma)
    bad = np.argwhere(~((se > 0.0) & (se < np.inf)))
    if bad.size:
        i, j = bad[0].tolist()
        raise ConfigError(f"SINR {float(gamma[i, j]):g} of user {i} at BS {j} gives no finite, "
                          "positive spectral efficiency log2(1 + SINR)")
    n_t = float(bit_rate_threshold) / se
    xi_t = kappa[:, None] * bit_rate(n_t, gamma)
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

    def __post_init__(self):
        # Each test is positive so that NaN fails it; mu <= 1 or r_min <= 0
        # would never end the barrier schedule.
        checks = (
            ("r0", self.r0 is None or _finite(self.r0) and self.r0 > 0),
            ("mu", _finite(self.mu) and self.mu > 1),
            ("r_min", _finite(self.r_min) and self.r_min > 0),
            ("tol", _finite(self.tol) and self.tol >= 0),
            ("max_inner", isinstance(self.max_inner, numbers.Integral)
             and _finite(self.max_inner) and self.max_inner >= 1),
            ("stall_rtol", _finite(self.stall_rtol) and self.stall_rtol >= 0),
        )
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"barrier field {name!r} is out of range: "
                                  f"{getattr(self, name)!r}")


def _finite(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True, eq=False)
class RelaxedAssociation:
    """Interior solution of the relaxed association problem.

    `stages` holds one (r, iterations, backtracks, exit) record per barrier
    stage; exit is "tol", "stall" or "no_step" (see `solve_relaxed_ua`).
    """

    x_star: np.ndarray
    iterations: int = 0
    pg_norm: float = 0.0
    trace: tuple = ()
    stages: tuple = ()


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
    """Bandwidth per served link (n^T plus residual); zero elsewhere.

    kkt_residual is None for splits that do not measure one (the baselines).
    """

    n: np.ndarray
    kkt_residual: float = None


def _simplex_projector(mask):
    """Row-wise projection onto {x >= 0, sum x = 1} supported on mask, its
    constants built once. Entries off the mask come back as zero; it raises
    ValueError for an empty mask row, and SolverError if a row's support is
    lost to rounding (entries beyond 2**53 in magnitude).

    Each row is sorted in descending order with the entries off the mask
    last, at -1e300: their cumulative sums stay hugely negative, so they
    never count among the rho entries above the threshold, and the sums over
    the real entries come first, in the same order as an unpadded row.
    """
    mask = np.asarray(mask, dtype=bool)
    off = ~mask
    k = np.arange(1.0, mask.shape[1] + 1.0)
    rows = np.arange(mask.shape[0])

    def project(v):
        u = np.negative(v)
        np.putmask(u, off, 1e300)
        u.sort(axis=1)
        np.negative(u, out=u)
        cs = np.cumsum(u, axis=1)
        cs -= 1.0
        u *= k
        rho = (u > cs).sum(axis=1)
        if not rho.all():
            if mask.any(axis=1).all():  # entries beyond 2**53 rounded the support away
                raise SolverError("projection lost a row's support to rounding; "
                                  "message rates are too large for float64")
            raise ValueError("projection row with empty support")
        x = v - (cs[rows, rho - 1] / rho)[:, None]
        np.maximum(x, 0.0, out=x)
        np.putmask(x, off, 0.0)
        return x

    return project


def _loads(x, n_t):
    return np.einsum("ml,ml->l", x, n_t)


def _link_lists(mask, n_t):
    """Each row's (BS, n^T) pairs on the mask, as Python lists for scalar loops."""
    rows, cols = np.nonzero(mask)
    pairs = list(zip(cols.tolist(), n_t[rows, cols].tolist()))
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [pairs[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _greedy_pack(order, links, budgets, proof=None):
    """Greedy packing: each row in `order` goes to the BS with the most room
    left (first maximum on ties). Returns each row's BS, in `order`.

    With proof = (dry, watched), two boolean lists over the BSs, a failing
    pass may stop early. Loads only grow, so a running load of at least
    N_j * (1 + margin) proves that BS j ends the pass overloaded: the margin
    exceeds the gap between these running sums and `_loads`, each within
    about m * eps of the exact sum. Once a proven BS is `dry` and a proven BS
    is `watched`, raises InfeasibleError naming the BSs proven so far.
    """
    num_bs = len(budgets)
    dry, watched = proof or ([False] * num_bs, [False] * num_bs)
    margin = 1e-9 + 2.0 * len(order) * np.finfo(float).eps
    full = (budgets * (1.0 + margin)).tolist() if proof else [math.inf] * num_bs
    b = budgets.tolist()
    loads = [0.0] * num_bs
    room = b[:]  # b[j] - loads[j], kept for each BS
    fails = hits = False
    cols = []
    for i in order:
        best = None
        for j, n in links[i]:
            spare = room[j] - n
            if best is None or spare > best_spare:
                best, best_spare, best_n = j, spare, n
        cols.append(best)
        loads[best] += best_n
        room[best] = b[best] - loads[best]
        if loads[best] >= full[best]:
            fails = fails or dry[best]
            hits = hits or watched[best]
            if fails and hits:
                over = [j for j in range(num_bs) if loads[j] >= full[j]]
                raise InfeasibleError(f"greedy packing overloads budgets at BS {over}",
                                      overloaded=over)
    return cols


class _SubsetStarts:
    """Interior starts for one problem's rows as rows are removed.

    The uniform rows and their per-BS loads are built once; removing a row
    subtracts its uniform loads. The packing constants (each row's links and
    minimum n^T, and the live rows in descending-demand order, ties to the
    lower row) are built when a uniform start first fails.
    """

    def __init__(self, mask, n_t, budgets):
        sizes = mask.sum(axis=1)
        if np.any(sizes == 0):
            raise InfeasibleError("user with empty feasible set")
        self.mask, self.n_t, self.budgets = mask, n_t, budgets
        self.x_unif = mask / sizes[:, None]
        self.inside = np.ones(mask.shape[0], dtype=bool)
        self.loads = _loads(self.x_unif, n_t)
        self.load_err = None  # exact loads until a row is removed
        self.links = self.demand = self.live = None

    def rows(self):
        return np.flatnonzero(self.inside)

    def remove(self, row):
        if self.load_err is None:
            # _loads sums m products to within (m + 1) eps / 2 times their
            # exact total T_j, in any order. The maintained loads carry that
            # error once, each of at most m subtractions adds at most about
            # eps * T_j, and _loads on the live rows carries it once more:
            # 4 (m + 2) eps times the first loads bounds the gap, with room
            # for rounding lo and hi (see `uniform_slack`).
            self.load_err = self.loads * (4.0 * (self.mask.shape[0] + 2) * np.finfo(float).eps)
        self.inside[row] = False
        self.live.remove(row)
        self.loads = self.loads - self.x_unif[row] * self.n_t[row]

    def hungriest(self):
        """The live row with the largest minimum n^T, ties to the last row:
        the end of the leading tie group of the demand order."""
        live, demand = self.live, self.demand
        k = 0
        while k + 1 < len(live) and demand[live[k + 1]] == demand[live[0]]:
            k += 1
        return live[k]

    def victim(self, overloaded):
        """The live row the admission rule blocks after a pass that names
        `overloaded`: the hungriest row touching one of those BSs (ties to
        the last row), or the hungriest row if none touches one."""
        hungriest = self.hungriest()
        if self.mask[hungriest, list(overloaded)].any():
            return hungriest
        touching = np.flatnonzero(self.inside & self.mask[:, list(overloaded)].any(axis=1))
        if touching.size == 0:
            return hungriest
        demand = self.demand[touching]
        return int(touching[demand == demand.max()].max())

    def uniform_slack(self):
        """Relative slack of the live uniform rows' loads per BS, as
        `_loads` on those rows gives it, or bounds with the same signs and
        the same verdict on min > 1e-9.

        lo and hi take the maintained loads plus and minus their error bound;
        the slack from `_loads` lies between them, since rounded arithmetic
        is monotone. Only where the bound straddles 0 or 1e-9 are the live
        rows summed again.
        """
        b = self.budgets
        if self.load_err is None:
            return (b - self.loads) / b
        lo = (b - (self.loads + self.load_err)) / b
        if lo.min() > 1e-9:
            return lo
        hi = (b - (self.loads - self.load_err)) / b
        if hi.min() <= 1e-9 and np.array_equal(lo <= 0, hi <= 0):
            return lo
        rows = self.rows()
        return (b - _loads(self.x_unif.take(rows, axis=0), self.n_t.take(rows, axis=0))) / b

    def start(self, stop_early=False):
        """Strictly interior start for the live rows: uniform rows, else a
        blend with a greedy packing that puts the hungriest rows first.
        Raises InfeasibleError naming the BSs the packing overloads.

        With stop_early, a failing pass ends as soon as its partial packing
        proves two things: some BS ends without slack in both the uniform
        start and the packing (so no blend can help), and some BS usable by
        the hungriest row (largest minimum n^T, ties to the last row) ends
        overloaded. `overloaded` then lists only the BSs proven so far.
        """
        budgets = self.budgets
        slack_unif = self.uniform_slack()
        if slack_unif.min() > 1e-9:
            return self.x_unif.take(self.rows(), axis=0)
        if self.live is None:
            self.links = _link_lists(self.mask, self.n_t)
            self.demand = np.where(self.mask, self.n_t, np.inf).min(axis=1)
            order = np.argsort(-self.demand, kind="stable")
            self.live = order[self.inside[order]].tolist()
        proof = None
        if stop_early:
            proof = ((slack_unif <= 0).tolist(), self.mask[self.hungriest()].tolist())
        cols = _greedy_pack(self.live, self.links, budgets, proof)

        # take copies the same rows as fancy indexing, a few times faster
        rows = self.rows()
        x_unif, n_t = self.x_unif.take(rows, axis=0), self.n_t.take(rows, axis=0)

        def rel_slack(x):
            return (budgets - _loads(x, n_t)) / budgets

        x_greedy = np.zeros_like(x_unif)
        x_greedy[np.searchsorted(rows, self.live), cols] = 1.0
        slack_greedy = rel_slack(x_greedy)
        # Loads are linear in x: a BS that both ends leave without slack has
        # none in any blend, so skip the blends.
        if not np.any((slack_greedy <= 0) & (slack_unif <= 0)):
            for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
                x = theta * x_unif + (1.0 - theta) * x_greedy
                if rel_slack(x).min() > 1e-12:
                    return x
        overloaded = [int(j) for j in np.flatnonzero(slack_greedy <= 0)]
        raise InfeasibleError(
            f"no strictly interior association; overloaded budgets at BS {overloaded}",
            overloaded=overloaded,
        )


def solve_relaxed_ua(inst, barrier=None, record_trace=False, *, start=None):
    """Barrier-method solve of the relaxed association problem.

    Spectral projected gradient ascent maximizes W(x, r) for a decreasing
    barrier schedule r0, r0/mu, ..., r_min. Its backtracking search is the
    nonmonotone one of Grippo, Lampariello & Lucidi (1986): a trial x_new
    is accepted once W(x_new) >= min(recent) + 1e-4 * g.(x_new - x), where
    `recent` holds the stage's last 10 accepted W, its starting W included.
    A stage ends with exit "tol" once the projected-gradient norm
    pg = ||P(x + g) - x|| is at most tol, "stall" after a 25-iteration
    window that gains too little (see BarrierParams.stall_rtol), or
    "no_step" when no step is accepted. `stages` records each stage's r,
    iterations, backtracks and exit; pg_norm is the exact norm at the end of
    the final stage.

    pg is computed only when it may be at most tol. For x feasible,
    ||P(x + t g) - x|| is nondecreasing in t and ||P(x + t g) - x|| / t is
    nonincreasing (Calamai & More 1987, Lemma 2.2), so the line search's
    first trial gives lb = ||P(x + step g) - x|| / max(1, step) <= pg. While
    lb exceeds tol by more than a bound on the rounding of both norms,
    pg > tol is certain and its projection is skipped. pg is computed at a
    stage's first iteration (before the trial, so a stage that starts
    converged projects once), at every stall or no-step exit, at the last
    allowed iteration and, with record_trace, at every iteration, so the
    iterates, pg_norm and the trace are those of testing pg <= tol at every
    iteration.

    The solve begins at `start` (two_stage passes admission's), or else at
    the one `_SubsetStarts` finds. A start of the wrong shape or without
    slack on some budget raises ValueError.

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
    if start is not None:
        x = np.asarray(start, dtype=float)
        if x.shape != n_t.shape or np.any(budgets - _loads(x, n_t) <= 0.0):
            raise ValueError(f"start of shape {x.shape} is not strictly interior to an "
                             f"instance of shape {n_t.shape}")
    if m == 0:
        return RelaxedAssociation(np.zeros((0, inst.num_bs)))
    if start is None:
        x = _SubsetStarts(mask, n_t, budgets).start()
    project = _simplex_projector(mask)
    # The gradient is built as 0 off the mask, where x stays 0 and the
    # projector reads nothing, so ||g|| below covers only its inputs; dx is
    # 0 there too, so the steps and iterates are those of the full gradient.
    xi_on, n_on = np.where(mask, obj.xi_t, 0.0), np.where(mask, n_t, 0.0)
    # lb and pg are each computed to within (l + 1) sqrt(l) eps / 2 times
    # ||g|| + sqrt(m): a projected entry is off by at most (l + 1) eps / 2
    # times its row's largest input, and ||x + t g|| / max(1, t) <= ||g|| +
    # sqrt(m) on the simplices. The margin over tol is twice their sum.
    rounding = 2.0 * (inst.num_bs + 1) * np.sqrt(inst.num_bs) * np.finfo(float).eps
    root_m = np.sqrt(m)

    def fbar(x):
        y = np.einsum("ml,ml->m", x, obj.xi_t)
        return confidence_bound(y, obj.tau, obj.sigma, obj.q), y

    def evaluate(x, r):
        """W(x, r), and the slack and per-user rates the gradient reuses."""
        slack = budgets - _loads(x, n_t)
        if np.any(slack <= 0.0):
            return -np.inf, slack, None
        f, y = fbar(x)
        return f + r * float(np.log(slack).sum()), slack, y

    def grad_of(slack, y, r):
        return gradient_from_rates(obj, y, xi_on) - r * (n_on / slack[None, :])

    def pg_of(x, g):
        return float(np.linalg.norm(project(x + g) - x))

    r = barrier.r0 if barrier.r0 is not None else max(1.0, abs(fbar(x)[0]))
    tol = barrier.tol
    step = 1.0
    total_iters = 0
    pg = np.inf
    trace = []
    stages = []
    window = 25
    while True:
        w_cur, slack, y = evaluate(x, r)
        g = grad_of(slack, y, r)
        w_window = w_cur
        recent = deque([w_cur], maxlen=_GLL_MEMORY)
        backtracks = 0
        reason = None
        for it in range(barrier.max_inner):
            # At a stage's start, with record_trace and at the last allowed
            # iteration, pg comes before the trial, which a tol exit skips:
            # a stage that starts converged projects once
            exact = not it or record_trace or it == barrier.max_inner - 1
            xn = None
            if not exact:
                xn = project(x + step * g)  # the line search's first trial
                dx = xn - x
                lb = float(np.linalg.norm(dx)) / max(1.0, step)
                exact = lb <= tol + rounding * (float(np.linalg.norm(g)) + root_m)
            if exact:
                pg = pg_of(x, g)
                if record_trace:
                    trace.append((r, it, w_cur, pg))
                if pg <= tol:
                    reason = "tol"
                    break
            if it and it % window == 0:
                if w_cur - w_window <= barrier.stall_rtol * (1.0 + abs(w_cur)):
                    reason = "stall"  # ascent has flattened out at this stage
                    break
                w_window = w_cur
            if xn is None:
                xn = project(x + step * g)
                dx = xn - x
            trial = step
            w_ref = min(recent)  # nonmonotone (GLL) reference value
            while True:
                w_new, slack, y = evaluate(xn, r)
                gain = float(np.vdot(g, dx))
                if np.isfinite(w_new) and w_new >= w_ref + _ARMIJO * gain:
                    break
                backtracks += 1
                trial *= 0.5
                if trial < _STEP_FLOOR:
                    reason = "no_step"  # no ascent direction left at machine precision
                    break
                xn = project(x + trial * g)
                dx = xn - x
            if reason:
                break
            g_new = grad_of(slack, y, r)
            dg = g_new - g
            curv = -float(np.vdot(dx, dg))
            if curv > 0:  # spectral (Barzilai-Borwein) step for the next iterate
                step = min(max(float(np.vdot(dx, dx)) / curv, 1e-12), 1e8)
            else:
                step = min(trial * 2.0, 1e8)
            x, w_cur, g = xn, w_new, g_new
            recent.append(w_cur)
        if reason is None:
            raise SolverError(
                f"barrier stage r={r:g} did not converge within {barrier.max_inner} "
                f"iterations (projected-gradient norm {pg:g})",
                trace=trace,
            )
        if not exact:
            pg = pg_of(x, g)
        total_iters += it
        stages.append((r, it, backtracks, reason))
        if r <= barrier.r_min * (1.0 + 1e-12):
            break
        r = max(r / barrier.mu, barrier.r_min)
    return RelaxedAssociation(x, iterations=total_iters, pg_norm=pg, trace=tuple(trace),
                              stages=tuple(stages))


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


def _water_fill(seg, floors, bp, q, totals):
    """n_i = f_i + q_i * max(0, w_j - bp_i), with each segment j's level w_j
    set so that its entries sum to totals[j].

    Exact, without iteration: a segment's sum is piecewise linear and
    nondecreasing in w_j, with a breakpoint bp_i per entry. One sort by
    (segment, breakpoint) and segmented cumulative sums give the sum at
    every breakpoint; the level solves the linear piece that reaches the
    total. Breakpoints are measured from each segment's lowest, which keeps
    the sums accurate when q is large. Needs q > 0; a segment whose floors
    already reach its total keeps them.
    """
    order = np.argsort(bp)
    order = order[np.argsort(seg[order], kind="stable")]  # by segment, then breakpoint
    seg, f, q, bp = seg[order], floors[order], q[order], bp[order]
    count = np.bincount(seg, minlength=totals.size)
    start = np.cumsum(count) - count  # each segment's first entry
    b = bp - bp[start[seg]]
    qb = q * b
    # Sums over the earlier entries of the same segment, one padded row per
    # segment so that no sum runs across segments.
    pos = np.arange(seg.size) - start[seg]
    rows = np.zeros((2, totals.size, int(count.max()) + 1))
    rows[:, seg, pos + 1] = q, qb
    q_before, qb_before = np.cumsum(rows, axis=2)[:, seg, pos]
    floor_sum = np.bincount(seg, f, totals.size)
    supply = floor_sum[seg] + b * q_before - qb_before  # at each entry's own breakpoint
    active = np.bincount(seg, supply <= totals[seg], totals.size).astype(int)
    segs = np.flatnonzero(count)
    last = start[segs] + np.maximum(active[segs], 1) - 1  # the last entry above its floor
    level = np.zeros(totals.size)
    level[segs] = ((totals[segs] - floor_sum[segs] + qb_before[last] + qb[last])
                   / (q_before[last] + q[last]))
    n = np.empty_like(f)
    n[order] = f + q * np.maximum(level[seg] - b, 0.0)
    return n


def _fill_budgets(n, floors, seg, totals):
    """Scale each segment's headroom n - floors to fill its total exactly (an
    even split where it has none). A segment whose floors already reach its
    total keeps them; a lone entry takes the whole total."""
    head = n - floors
    room = np.maximum(totals - np.bincount(seg, floors, totals.size), 0.0)
    used = np.bincount(seg, head, totals.size)
    size = np.bincount(seg, minlength=totals.size)
    share = np.where(used[seg] > 0, head / np.where(used > 0, used, 1.0)[seg], 1.0 / size[seg])
    return np.where(size[seg] == 1, totals[seg], floors + room[seg] * share)


def _global_norm_split(seg, c, floors, totals, tau, sq):
    """argmax of tau * sum(s) - sq * ||s|| (sq > 0) over s = c * n, n >= floors
    and per-segment sums at totals (segments whose floors reach their total
    keep them).

    With ||s|| = min_t (||s||^2 / 2t + t / 2), a fixed t leaves one separable
    quadratic per segment, solved by a water level with
    n_i = max(f_i, (t / sq) * (tau * c_i - lambda_j) / c_i^2). The best value
    over s is concave in t with slope sign(||s(t)|| - t), so t is bisected on
    that sign inside [||s at floors||, ||s at totals||] until both ends have
    the same users above their floors. On such a piece the KKT conditions
    are affine in t, so s(t) is affine and ||s(t)|| = t is a quadratic.
    """
    c2 = c * c

    def split(t):
        h = sq / t  # the curvature of the quadratic at this t
        n = _water_fill(seg, floors, h * c2 * floors - tau * c, 1.0 / (h * c2), totals)
        return n, n > floors

    def norm(n):
        return float(np.sqrt(((c * n) ** 2).sum()))

    lo, hi = norm(floors), norm(np.maximum(floors, totals[seg]))
    (n_lo, up_lo), (n_hi, up_hi) = split(lo), split(hi)
    while not np.array_equal(up_lo, up_hi):
        t = 0.5 * (lo + hi)
        if not lo < t < hi:
            return n_lo
        n, up = split(t)
        if norm(n) >= t:
            lo, n_lo, up_lo = t, n, up
        else:
            hi, n_hi, up_hi = t, n, up
    if hi <= lo:
        return n_lo
    # ||s_lo + d * u||^2 - (lo + u)^2 = a u^2 + b u + c0 falls through zero on [0, hi - lo]
    s_lo, d = c * n_lo, c * (n_hi - n_lo) / (hi - lo)
    a = float(d @ d) - 1.0
    b = 2.0 * (float(s_lo @ d) - lo)
    c0 = float(s_lo @ s_lo) - lo * lo
    root = np.sqrt(max(b * b - 4.0 * a * c0, 0.0)) - b
    u = min(max(2.0 * c0 / root, 0.0), hi - lo) if root > 0 else 0.0
    return split(lo + u)[0]


def _best_response_vertices(seg, c, floors, room, pick, obj):
    """For sigma * q < 0 Fbar is convex, so its maximum over the split lies at
    a vertex: each segment's whole room on one user. Starting from `pick`
    (one position per segment with room), best-response passes over the
    segments switch a segment to the user that raises Fbar most, while that
    is a strict gain."""
    s = c * floors
    s[pick] += c[pick] * room[seg[pick]]
    changed = True
    while changed:
        changed = False
        for k, cur in enumerate(pick.tolist()):
            idx = np.flatnonzero(seg == seg[cur])
            base = s.copy()
            base[idx] = c[idx] * floors[idx]
            trial = c[idx] * (floors[idx] + room[seg[cur]])
            value = []
            for i, r in zip(idx.tolist(), trial.tolist()):
                base[i] = r
                value.append(confidence_bound(base, obj.tau, obj.sigma, obj.q))
                base[i] = c[i] * floors[i]
            best = int(np.argmax(value))
            if value[best] > value[int(np.searchsorted(idx, cur))]:
                pick[k] = idx[best]
                base[idx[best]] = trial[best]
                s = base
                changed = True
    return pick


def allocate_residual(assoc, inst):
    """Split of every BS's leftover bandwidth that maximizes Fbar over all users.

    Each served user keeps at least its n^T on its BS and every BS hands out
    its whole budget N_j; a BS whose floors fill its budget keeps the floors.
    The objective tau * sum(s) - sigma * q * ||s||_2 couples the BSs only
    through the global norm. For sigma * q > 0 it is concave and solved
    exactly (see `_global_norm_split`). Where sigma * q is at most machine
    epsilon times tau, the norm term is below the rounding of tau * sum(s),
    and each BS gives its residual to its best rate per Hz (ties to the
    lowest user index). For sigma * q < 0 (alpha < 0.5) the optimum lies at
    a vertex, found by best-response passes from there. Budgets are then
    matched exactly on the headroom.

    kkt_residual is the global KKT residual: on each BS, the largest move of
    the projected step m -> P(m + (r_j / gmax_j) * g) of the residual split
    m, with the global-norm gradient g_i = c_i * (tau - sigma * q * s_i /
    ||s||), relative to N_j; the worst BS is reported. Raises ValueError if
    sigma * q > 0 and a served link has no positive rate.
    """
    n_t, budgets = inst.n_t, inst.budgets
    tau = inst.objective.tau
    sq = inst.objective.sigma * inst.objective.q
    users, bs = np.nonzero(assoc.x)
    c = inst.rate_per_hz()[users, bs]
    floors = n_t[users, bs]
    room = budgets - np.bincount(bs, floors, budgets.size)
    free = room[bs] > 0
    n = floors.copy()
    if free.any() and sq > np.finfo(float).eps * tau:
        if np.any(c <= 0):
            raise ValueError("allocate_residual needs positive rates on served links")
        n = _global_norm_split(bs, c, floors, budgets, tau, sq)
    elif free.any():
        order = np.lexsort((-c, bs))  # each BS's best rate per Hz first, ties in user order
        pick = order[free[order] & (np.diff(bs[order], prepend=-1) != 0)]
        if sq < 0:
            pick = _best_response_vertices(bs, c, floors, room, pick, inst.objective)
        n[pick] += room[bs[pick]]
    n = _fill_budgets(n, floors, bs, budgets)

    s = c * n
    norm = float(np.sqrt((s * s).sum()))
    g = (c * (tau - sq * s / norm) if norm > 0 else tau * c)[free]
    seg, m = bs[free], (n - floors)[free]
    gmax = np.zeros(budgets.size)
    np.maximum.at(gmax, seg, np.abs(g))
    step = np.divide(room, gmax, out=np.zeros_like(room), where=gmax > 0)
    v = m + step[seg] * g
    probe = _water_fill(seg, np.zeros_like(v), -v, np.ones_like(v), room)
    kkt = float((np.abs(probe - m) / budgets[seg]).max()) if seg.size else 0.0
    alloc = np.zeros_like(n_t)
    alloc[users, bs] = n
    return Allocation(n=alloc, kkt_residual=kkt)


def usable_links(inst):
    """Feasible links a binary association could actually carry (n^T <= N_j)."""
    return inst.mask() & (inst.n_t <= inst.budgets[None, :] * (1.0 + 1e-12))


def _restricted_instance(inst, usable, rows):
    """The instance of users `rows` over their `usable` links."""
    return replace(inst, objective=replace(inst.objective, xi_t=inst.objective.xi_t[rows]),
                   feasible=FeasibleSets(usable[rows]), n_t=inst.n_t[rows])


def _admit(usable, n_t, budgets):
    """Users the relaxed problem can hold with a strictly interior point.

    Starts from every user with a usable link. While the greedy packing of
    `_SubsetStarts.start` overloads a budget, blocks the most bandwidth-hungry
    user (largest minimum usable n^T, ties to the largest index) touching an
    overloaded BS. Returns the admitted-user mask, the blocked users in
    eviction order, and the admitted users' interior start (None if no
    user is admitted).

    A failing pass stops once its partial packing proves that the pass
    fails and that the hungriest admitted user touches a BS the full pass
    would name overloaded (see `_SubsetStarts.start`): the rule then blocks
    that user, as it would after the full pass.
    """
    admitted = usable.any(axis=1)
    users = np.flatnonzero(admitted)
    starts = _SubsetStarts(usable[users], n_t[users], budgets)
    evicted = []
    start = None
    while len(evicted) < users.size:
        try:
            start = starts.start(stop_early=True)
            break
        except InfeasibleError as err:
            victim = starts.victim(err.overloaded)
            starts.remove(victim)
            evicted.append(int(users[victim]))
    admitted[evicted] = False
    return admitted, tuple(evicted), start


def two_stage(inst, barrier=None, record_trace=False):
    """Admission, relaxed solve, rounding, repair, and residual allocation.

    Users without a single feasible link that fits inside a budget can never
    be served by a binary association; they are blocked up front and the
    relaxed problem runs on the remaining users over their usable links.
    If the remaining users admit no strictly interior point, admission
    blocks, one at a time until one exists, the user with the largest
    minimum usable n^T among those touching a BS the greedy packing
    overloads (repair, after rounding, instead moves the user with the
    largest n^T off the most overloaded BS). The relaxed problem is then
    solved once, from admission's start. The users blocked at admission
    are returned in `evicted`, in order.
    """
    usable = usable_links(inst)
    admitted, evicted, start = _admit(usable, inst.n_t, inst.budgets)
    rows = np.flatnonzero(admitted)
    sub = solve_relaxed_ua(_restricted_instance(inst, usable, rows), barrier=barrier,
                           record_trace=record_trace, start=start)
    x_star = np.zeros_like(inst.n_t)
    x_star[rows] = sub.x_star
    relaxed = replace(sub, x_star=x_star)
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


def baseline_max_sinr(gamma, inst, restrict_to_feasible=False):
    """Associate every user with its strongest BS, then repair budgets.

    By default the argmax runs over all base stations (knowledge-oblivious
    benchmark); set restrict_to_feasible to confine it to inst's feasible sets.
    """
    cand = inst.mask() if restrict_to_feasible else np.ones(gamma.shape, dtype=bool)
    x = np.zeros(gamma.shape, dtype=np.int8)
    x[np.arange(gamma.shape[0]), np.argmax(np.where(cand, gamma, -np.inf), axis=1)] = 1
    return _repair_budget(x, gamma, inst, cand)


def baseline_ba(assoc, inst, gamma, mode="even"):
    """Classical per-BS bandwidth allocation: 'even' or 'waterfill'.

    Water-filling maximizes sum_i n_i * log2(1 + ghat_i / n_i) with
    ghat = gamma * n^T and n_i >= n^T_i on each BS. All users share one
    marginal-utility shape, so a BS's water level is one scale w with
    n_i = max(n^T_i, ghat_i * w), found exactly by `_water_fill`.
    """
    if mode not in ("even", "waterfill"):
        raise ValueError(f"unknown allocation mode {mode!r}")
    n_t, budgets = inst.n_t, inst.budgets
    users, bs = np.nonzero(assoc.x)
    n = np.zeros_like(n_t)
    if mode == "even":
        n[users, bs] = budgets[bs] / np.bincount(bs, minlength=budgets.size)[bs]
    else:
        floors = n_t[users, bs]
        ghat = gamma[users, bs] * floors
        split = _water_fill(bs, floors, floors / ghat, ghat, budgets)
        n[users, bs] = _fill_budgets(split, floors, bs, budgets)
    return Allocation(n=n)
