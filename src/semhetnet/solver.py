"""Association and bandwidth-allocation machinery.

Stage two of the pipeline: find the analytic centre of the load polytope,
the maximizer of phi(x) = sum_j log(N_j - sum_i x_ij * n^T_ij) over the
product of per-user simplices, through its dual in one price per base
station; then round, repair budget overloads, and split each base
station's residual bandwidth. Two max-SINR baselines share the repair step.
"""

import math
from copy import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SolverError
from .objective import DeterministicObjective, confidence_bound, rate_gradient
from .semantics import FeasibleSets
from .topology import bit_rate

_MU = 1e-2  # the power-mean smoothing of the relaxed stage's Newton solve
_STAGE_TOL = 0.1  # the Newton solve ends at a squared Newton decrement of this times _MU
_TIE_WINDOW = 3.0  # log-cost gaps up to this many _MU make a link a finish's tie candidate
_COST_TOL = 1e-13  # relative cost differences the finish counts as ties
_MAX_ROUNDS = 100  # add/drop rounds after which the finish raises SolverError
_MAX_NEWTON = 500  # Newton steps after which the relaxed stage raises SolverError

# Admission decides runs of failing passes in lockstep batches
# (`_SubsetStarts.proven_victims`, `_admit`) only while at least
# _BATCH_MIN_ROWS rows are live: below it a batch sweep costs more than the
# scalar passes it replaces (measured crossover between M = 1500 and 1750).
_BATCH_MIN_ROWS = 1536
_BATCH_AFTER = 2  # passes in a row that must stop early before a batch
_BATCH_FIRST = 16  # passes in a run's first batch; whole proven batches double it
_BATCH_MAX = 128  # passes in a batch at most
_BATCH_CHECK = 8  # rows a batch sweep packs between two tests of its passes


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
    0 < log2(1 + gamma) < inf on every link, so that every n^T is finite,
    and unless Fbar's sum of squared rates holds every rate: a floor rate
    (kappa times the threshold) squares to a normal float, and the users'
    best rates (rate per Hz times the budget) to a finite sum.
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
    with np.errstate(over="ignore"):
        xi_t = kappa[:, None] * bit_rate(n_t, gamma)
        best = np.square((xi_t / n_t * budgets).max(axis=1, initial=0.0)).sum()
    floor = xi_t.min(initial=np.inf)
    if not floor >= math.sqrt(np.finfo(float).tiny):
        raise ConfigError(f"msg_per_bit times bit_rate_threshold_bps gives a floor rate of "
                          f"{floor:g} msg/s, whose square underflows")
    if not np.isfinite(best):
        raise ConfigError("msg_per_bit times log2(1 + SINR) times the bandwidth budget gives "
                          "best rates whose squares sum past the largest float")
    obj = DeterministicObjective.for_confidence(tau, sigma, alpha, xi_t)
    return UaInstance(objective=obj, feasible=feasible, budgets=np.asarray(budgets, float), n_t=n_t)


@dataclass(frozen=True, eq=False)
class RelaxedAssociation:
    """Solution of the relaxed association problem: the analytic centre x_star
    (untied rows one-hot, exact zeros off each row's support), its prices
    (one per BS) and the duality gap D(prices) - phi(x_star) that certifies
    it (see `solve_relaxed_ua`).

    iterations counts the Newton steps. `stage` is the solve's
    (newton_steps, finish_rounds, exit, tied_users) record, or None where no
    solve ran; a returned solve always has exit "tol".
    """

    x_star: np.ndarray
    iterations: int = 0
    prices: np.ndarray = None
    gap: float = 0.0
    stage: tuple = None


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


def _loads(x, n_t):
    return np.einsum("ml,ml->l", x, n_t)


def _link_lists(mask, n_t):
    """Each row's (BS, n^T) pairs on the mask, as Python lists for scalar loops."""
    rows, cols = mask.nonzero()
    pairs = list(zip(cols.tolist(), n_t[rows, cols].tolist()))
    ends = mask.sum(axis=1).cumsum().tolist()
    return [pairs[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _greedy_pack(order, links, budgets, proof):
    """Greedy packing: each row in `order` goes to the BS with the most room
    left (first maximum on ties). Returns (room, None), each BS's budget less
    its running load as a list, once every row is packed, or (None, the BSs
    overloaded so far) once the pass stops.

    A BS is overloaded once its running load reaches its budget (room <= 0);
    loads only grow, so it ends the pass overloaded. proof = (dry, watched)
    are two boolean lists over the BSs: the pass stops once an overloaded BS
    is `dry` and an overloaded BS is `watched`.
    """
    dry, watched = proof
    b = budgets.tolist()
    loads = [0.0] * len(b)
    room = b[:]  # b[j] - loads[j], kept for each BS
    fails = hits = False
    for i in order:
        best = None
        for j, n in links[i]:
            spare = room[j] - n
            if best is None or spare > best_spare:
                best, best_spare, best_n = j, spare, n
        loads[best] += best_n
        room[best] = b[best] - loads[best]
        if room[best] <= 0.0:
            fails = fails or dry[best]
            hits = hits or watched[best]
            if fails and hits:
                return None, [j for j, r in enumerate(room) if r <= 0.0]
    return room, None


class _SubsetStarts:
    """Interior-point tests for one problem's rows as rows are removed.

    The uniform rows' per-BS loads are summed once; removing a row subtracts
    its uniform loads. The packing constants (each row's links and minimum
    n^T, and the live rows in descending-demand order, ties to the lower
    row) are built when a uniform test first fails. `start` packs one pass;
    `proven_victims` packs a run of passes in lockstep and returns the
    victims of those that stop early.
    """

    def __init__(self, mask, n_t, budgets):
        self.mask, self.n_t, self.budgets = mask, n_t, budgets
        self.x_unif = mask / mask.sum(axis=1)[:, None]
        self.inside = np.ones(mask.shape[0], dtype=bool)
        self.loads = _loads(self.x_unif, n_t)
        self.links = self.demand = self.live = None
        self.stopped_early = False  # whether the last `start` pass stopped early

    def remove(self, row):
        self.inside[row] = False
        self.live.remove(row)
        self.loads = self.loads - self.x_unif[row] * self.n_t[row]

    def uniform_slack(self):
        """Relative slack of the live uniform rows' loads per BS."""
        return (self.budgets - self.loads) / self.budgets

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
        the last row). Some live row touches one: each carries load."""
        hungriest = self.hungriest()
        if self.mask[hungriest, list(overloaded)].any():
            return hungriest
        touching = np.flatnonzero(self.inside & self.mask[:, list(overloaded)].any(axis=1))
        demand = self.demand[touching]
        return int(touching[demand == demand.max()].max())

    def upcoming(self, size):
        """The proof inputs of the next `size` passes, each as `start` would
        build it if every pass before it stopped early: replays
        `uniform_slack`, `hungriest` and `remove` on a copy of this state.
        Returns each pass's victim (its hungriest row) and dry BSs, and ends
        before a pass whose uniform rows are interior.
        """
        replay = copy(self)
        replay.inside, replay.live = self.inside.copy(), self.live[:]
        victims, dry = [], []
        while len(victims) < size:
            slack = replay.uniform_slack()
            if slack.min() > 1e-9:
                break
            dry.append(slack <= 0)
            victims.append(replay.hungriest())
            replay.remove(victims[-1])
        return victims, dry

    def proven_victims(self, size):
        """Victims of the next passes that a lockstep packing proves stop early.

        Pass k of the `upcoming` ones packs the live rows less the k victims
        before it. One sweep over the live rows in demand order packs each
        row in every pass that holds it, as `_greedy_pack` would: onto the
        BS with the most room left, ties to the lower index. Loads only
        grow, so a pass stops early exactly when its loads reach the budget
        of a dry BS and of a BS its victim can use; passes retire once they
        are proven. Returns the victims of the leading proven passes, in
        eviction order. The first pass not proven is left to `start`.
        """
        victims, dry = self.upcoming(size)
        if not victims:
            return victims
        b, rows = self.budgets, self.live
        cost = np.where(self.mask, self.n_t, np.inf)  # a row's n^T, +inf off its links
        # a pass is proven once its loads reach full_dry and full_watched
        full_dry = np.where(dry, b, np.inf)
        full_watched = np.where(self.mask[victims], b, np.inf)
        passes = np.arange(len(victims))  # the unproven passes, in order
        loads = np.zeros(full_dry.shape)
        buf = np.empty_like(loads)
        base = passes * b.size  # each unproven pass's offset in loads.ravel()
        last = {v: k for k, v in enumerate(victims)}  # row v_k is in passes 0..k only
        proven = np.zeros(len(victims) + 1, dtype=bool)
        for t, i in enumerate(rows, 1):
            n = cost[i]
            k = last.get(i)
            c = passes.size if k is None else int(np.searchsorted(passes, k, side="right"))
            spare = np.subtract(b, loads[:c], out=buf[:c])
            spare -= n
            best = spare.argmax(axis=1)
            loads.ravel()[base[:c] + best] += n[best]
            if t % _BATCH_CHECK == 0 or t == len(rows):
                done = (loads >= full_dry).any(axis=1) & (loads >= full_watched).any(axis=1)
                if done.any():
                    proven[passes[done]] = True
                    keep = ~done
                    passes, loads = passes[keep], loads[keep]
                    full_dry, full_watched = full_dry[keep], full_watched[keep]
                    buf, base = buf[:passes.size], base[:passes.size]
                    if not passes.size:
                        break
        return victims[:int(proven.argmin())]

    def start(self):
        """None where the live rows have a strictly interior point: the
        uniform rows, or a blend of them with a greedy packing that puts the
        hungriest rows first. Otherwise the BSs the packing overloads, else
        those it leaves within 1e-12 of their budget: never none, and each
        carries load.

        Loads are linear in the blend, so each blend theta is tested on the
        relative slacks theta * s_unif + (1 - theta) * s_greedy, with
        s_greedy from the packing's running loads. A failing pass ends as
        soon as its packing proves two things: some BS ends without slack in
        both the uniform rows and the packing (so no blend can help), and
        some BS usable by the hungriest row (largest minimum n^T, ties to
        the last row) ends overloaded. It then names only the BSs overloaded
        so far. A pass the proof does not stop packs every row.
        """
        budgets = self.budgets
        slack_unif = self.uniform_slack()
        if slack_unif.min() > 1e-9:
            return None
        if self.live is None:
            self.links = _link_lists(self.mask, self.n_t)
            self.demand = np.where(self.mask, self.n_t, np.inf).min(axis=1)
            order = (-self.demand).argsort(kind="stable")
            self.live = order[self.inside[order]].tolist()
        proof = ((slack_unif <= 0).tolist(), self.mask[self.hungriest()].tolist())
        room, overloaded = _greedy_pack(self.live, self.links, budgets, proof)
        self.stopped_early = room is None
        if room is None:
            return overloaded
        slack_greedy = np.array(room) / budgets
        for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
            if (theta * slack_unif + (1.0 - theta) * slack_greedy).min() > 1e-12:
                return None
        # the BSs the packing overloads, else those the pure packing fails on
        tight = 0.0 if (slack_greedy <= 0).any() else 1e-12
        return (slack_greedy <= tight).nonzero()[0].tolist()


def _smoothed_dual(lam, scaled, budgets):
    """D_mu at prices lam, with `scaled` = log n^T / _MU (+inf off the mask):
    returns D_mu and each row's power mean f, weights e and their sum s (see
    `_smoothed_stage`), or raises the ValueError described there."""
    log_lam = np.log(lam)
    la = scaled + log_lam * (1.0 / _MU)
    low = la.min(axis=1)
    e = np.exp(low[:, None] - la)  # 0 off the mask, where log_n is +inf
    s = e.sum(axis=1)
    lowest = _MU * low  # the log of each row's minimum cost
    f = np.exp(lowest - _MU * np.log(s))
    linear = float(np.add.reduce(lam * budgets))
    if math.isfinite(linear) and linear <= float(np.add.reduce(np.exp(lowest))):
        raise ValueError("the relaxed problem has no strictly interior point")
    d = linear - float(np.add.reduce(log_lam)) - budgets.size - float(np.add.reduce(f))
    return d, f, e, s


def _smoothed_stage(lam, log_n, budgets):
    """Damped Newton on the smoothed dual D_mu (mu = _MU) from lam; returns
    the last iterate and the Newton steps taken.

    D_mu replaces each row's minimum cost min_j a_ij (a_ij = lam_j n^T_ij)
    in D by its power mean f_i = (sum_j a_ij^(-1/mu))^(-mu), within a factor
    L^-mu below it. With e_ij = (a_ij / min_j a_ij)^(-1/mu), s_i = sum_j e_ij
    and w_i = e_i / s_i, the relative Newton step delta solves
    (I + (1 + 1/mu) sum_i f_i (diag w_i - w_i w_i^T)) delta = lam * grad,
    where rows with one-hot weights (s_i = 1) add nothing and stay out. The
    stage moves to lam * exp(-t delta), t halving from 1 until D_mu falls by
    1e-4 t times the squared decrement, and ends once that decrement is at
    most _STAGE_TOL * mu or no step descends.

    Raises ValueError once an iterate proves that no strictly interior point
    exists: sum_j lam_j N_j <= sum_i min_j a_ij, whereas an interior x has
    sum_i min_j a_ij <= sum_j lam_j loads_j(x) < sum_j lam_j N_j.
    """
    l = budgets.size
    scaled = log_n * (1.0 / _MU)
    curv = 1.0 + 1.0 / _MU
    d, f, e, s = _smoothed_dual(lam, scaled, budgets)
    for steps in range(_MAX_NEWTON + 1):
        c = f / s
        grad = lam * budgets - 1.0 - np.einsum("i,ij->j", c, e)
        rows = (s > 1.0).nonzero()[0]
        er, cr = e[rows], c[rows]
        hess = np.einsum("ij,ik->jk", er * (cr / s[rows])[:, None], er)
        hess *= -curv
        hess.flat[::l + 1] += curv * np.einsum("i,ij->j", cr, er) + 1.0
        delta = np.linalg.solve(hess, grad)
        dec = float(np.add.reduce(grad * delta))
        if not dec > _STAGE_TOL * _MU:
            return lam, steps
        if steps == _MAX_NEWTON:
            raise SolverError(f"relaxed stage did not converge within {_MAX_NEWTON} Newton steps")
        t = 1.0
        while True:
            # a trial whose prices overflow or vanish has no finite D_mu and
            # fails the test
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                trial = lam * np.exp(-t * delta)
                d_new, f_new, e_new, s_new = _smoothed_dual(trial, scaled, budgets)
            if d_new <= d - 1e-4 * t * dec:
                break
            t *= 0.5
            if t < 1e-10:
                return lam, steps
        lam, d, f, e, s = trial, d_new, f_new, e_new, s_new


def _tree_path(links, skip, start, goals):
    """The path from BS `start` to a BS in `goals` through the tied users
    other than `skip`, as (user, from BS, to BS) triples, or None."""
    users_at = {}
    for v, bss in links.items():
        if v != skip:
            for j in bss:
                users_at.setdefault(j, []).append(v)
    prev = {start: None}
    queue = [start]
    for j in queue:
        if j in goals:
            path = []
            while prev[j] is not None:
                v, p = prev[j]
                path.append((v, p, j))
                j = p
            return path[::-1]
        for v in users_at.get(j, ()):
            for k in links[v]:
                if k not in prev:
                    prev[k] = (v, j)
                    queue.append(k)
    return None


def _initial_ties(gaps, prim, window):
    """The tied users' BSs for a finish's first round, each user's cheapest
    first: candidate links (log-cost gap to the row's cheapest at most
    `window`) by increasing gap, each kept while the tied links stay a
    forest, as a union-find over the BSs checks."""
    ci, cj = (gaps <= window).nonzero()
    order = np.argsort(gaps[ci, cj], kind="stable")
    parent = list(range(gaps.shape[1]))

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    links = {}
    for i, j in zip(ci[order].tolist(), cj[order].tolist()):
        a, b = find(j), find(prim[i])
        if a != b:
            parent[a] = b
            links.setdefault(i, [prim[i]]).append(j)
    return links


def _forest_prices(links, log_n, room, u):
    """Log-prices that solve a finish's square system on each component of
    the tied forest, and the components where none exists.

    `room` is N minus the untied users' loads; a BS no tied user touches has
    lam_j = 1 / room_j. On a component C the ties fix the price ratios r_j,
    and weighting its load equations by the prices leaves sum_j lam_j room_j
    - |C| = sum_i c_i (c_i a tied user's cost), linear in their common
    scale. A component whose scale is not positive by more than _COST_TOL of
    sum_j r_j room_j keeps its prices u and comes back as its BSs and r.
    """
    alone = room > 0.0
    u = np.where(alone, -np.log(np.where(alone, room, 1.0)), u)
    room = room.tolist()
    users_at = {}
    for v, bss in links.items():
        for j in bss:
            users_at.setdefault(j, []).append(v)
    short = [([j], [1.0]) for j in (~alone).nonzero()[0].tolist() if j not in users_at]
    done, reached = set(), set()
    for root in users_at:
        if root in done:
            continue
        ratio, queue, cost = {root: 0.0}, [root], 0.0
        for j in queue:
            for v in users_at[j]:
                if v not in reached:
                    reached.add(v)
                    c = ratio[j] + log_n[v, j]
                    cost += math.exp(c)
                    for k in links[v]:
                        if k not in ratio:
                            ratio[k] = c - log_n[v, k]
                            queue.append(k)
        done.update(queue)
        r = [math.exp(ratio[j]) for j in queue]
        weighted = sum(rj * room[j] for rj, j in zip(r, queue))
        scale = weighted - cost
        if scale > _COST_TOL * weighted:
            shift = math.log(len(queue) / scale)
            u[queue] = [ratio[j] + shift for j in queue]
        else:
            short.append((queue, r))
    return u, short


def _exact_centre(lam, mask, log_n, n_t, budgets):
    """The exact finish after the smoothed stage at prices lam.

    Untied users sit on their cheapest links; the tied ones start as
    `_initial_ties` picks them. Each round solves "loads = N - 1/lam, each
    tied row sums to 1, a tied user's links cost the same": the prices in
    closed form (`_forest_prices`), then the tied weights, a linear system,
    by least squares (again with each row scaled to a largest coefficient
    of 1 where a solve short of full rank lost the loads below the rounding
    of their budgets). A component too full for its users proves that no
    strictly interior point exists (ValueError), or has its prices raised
    until one of its users ties with a link off it. Otherwise the round
    drops every link whose weight went negative, or else lets in one link:
    the cheapest link of the user whose support it undercuts the most (the
    first such user on ties), if by more than _COST_TOL. A link that closes
    a cycle of tied links enters by a ratio test.

    Then D(lam) - phi(x) = sum_j h(lam_j slack_j) + sum_ij x_ij (a_ij -
    min_j a_ij), with h(z) = z - 1 - log z and a_ij = lam_j n^T_ij, is a sum
    of nonnegative terms. Returns (x, prices, gap, rounds, tied users) where
    every slack is positive and gap <= 1e-9 * max(1, |phi|), else raises
    SolverError naming the failed check (or _MAX_ROUNDS, or a full component).
    """
    m, l = n_t.shape
    idx = np.arange(m)
    la = log_n + np.log(lam)
    prim = la.argmin(axis=1)
    gaps = la - la.min(axis=1)[:, None]
    gaps[idx, prim] = np.inf
    links = _initial_ties(gaps, prim.tolist(), _TIE_WINDOW * _MU)
    weight = {}  # tied users' weights by (user, BS), as the last round solved them
    u = np.log(lam)

    def tie(i, k):
        bss = links.get(i, [int(prim[i])])
        weight.setdefault((i, bss[0]), 1.0)
        links[i] = bss + [k]
        weight[i, k] = 0.0

    def untie(i, j):
        links[i].remove(j)
        del weight[i, j]
        prim[i] = links[i][0]
        if len(links[i]) == 1:
            del links[i], weight[i, prim[i]]

    for rounds in range(1, _MAX_ROUNDS + 1):
        tied = np.zeros(m, dtype=bool)
        tied[list(links)] = True
        fixed = np.bincount(prim, np.where(tied, 0.0, n_t[idx, prim]), l)
        u, short = _forest_prices(links, log_n, budgets - fixed, u)
        for bss, r in short:
            # prices r on the component and 0 elsewhere prove it (see
            # `_smoothed_stage`), up to _COST_TOL
            d = np.zeros(l)
            d[bss] = r
            cost = np.where(mask, n_t * d, np.inf)
            if (float(np.add.reduce(d * budgets))
                    <= (1.0 + _COST_TOL) * float(np.add.reduce(cost.min(axis=1)))):
                raise ValueError("the relaxed problem has no strictly interior point")
            # else some user on it has a link off it: raise its prices
            on = (d[prim] > 0.0).nonzero()[0]
            away = np.where(mask[on] & (d == 0.0), np.exp(u) * n_t[on], np.inf)
            rise = away.min(axis=1) / cost[on, prim[on]]
            if not np.isfinite(rise).any():
                raise SolverError("relaxed finish: a full component has no link off it")
            tie(int(on[rise.argmin()]), int(away[rise.argmin()].argmin()))
        if short:
            continue
        edges = [(i, j, t) for t, (i, bss) in enumerate(links.items()) for j in bss]
        ei, ej, eu = np.array(edges, dtype=int).reshape(-1, 3).T
        system = np.zeros((l + len(links), ej.size))
        system[ej, np.arange(ej.size)] = n_t[ei, ej] / budgets[ej]
        system[l + eu, np.arange(ej.size)] = 1.0
        target = np.concatenate((1.0 - (fixed + np.exp(-u)) / budgets, np.ones(len(links))))
        x, _, rank, _ = np.linalg.lstsq(system, target, rcond=None)
        if rank < ej.size:  # loads below their budgets' rounding: rows rescaled to max 1
            peak = system.max(axis=1)
            peak[peak == 0.0] = 1.0
            x = np.linalg.lstsq(system / peak[:, None], target / peak, rcond=None)[0]
        weight.update(zip(zip(ei.tolist(), ej.tolist()), x.tolist()))

        # drop every link whose weight went negative, else let in the
        # cheapest link of the user whose support it undercuts the most
        neg = (x < 0.0).nonzero()[0].tolist()
        for e in neg:
            untie(int(ei[e]), int(ej[e]))
        if neg:
            continue
        la = log_n + u
        lowest = la.min(axis=1)
        excess = la[idx, prim] - lowest
        i = int(excess.argmax())
        if not excess[i] > _COST_TOL:
            break
        k = int(la[i].argmin())
        path = _tree_path(links, i, k, set(links.get(i, [prim[i]])))
        tie(i, k)
        if path is not None:
            # a cycle: push weight onto the new link, keeping each row sum and
            # each load on the cycle but its last BS's (a ratio test)
            push = {(i, k): 1.0}
            change = float(n_t[i, k])
            for v, p, j in path:
                push[v, p] = -change / n_t[v, p]
                push[v, j] = change / n_t[v, p]
                change = n_t[v, j] * push[v, j]
            push[i, path[-1][2]] = -1.0
            ratio, leave = min((weight[e] / -d, n) for n, (e, d) in enumerate(push.items())
                               if d < 0.0)
            for e, d in push.items():
                weight[e] += ratio * d
            untie(*list(push)[leave])
    else:
        raise SolverError(f"relaxed finish did not certify within {_MAX_ROUNDS} rounds")

    free = (~tied).nonzero()[0]
    x_star = np.zeros((m, l))
    x_star[free, prim[free]] = 1.0
    x_star[ei, ej] = x
    slack = budgets - _loads(x_star, n_t)
    if not (slack > 0.0).all():
        raise SolverError("relaxed finish left a slack that is not positive")
    prices = np.exp(u)
    z = prices * slack
    cheapest = np.exp(lowest)
    gap = (float(np.add.reduce(np.maximum(z - 1.0 - np.log(z), 0.0)))
           + float(np.add.reduce(np.exp(la[free, prim[free]]) - cheapest[free]))
           + float(np.add.reduce(x * (np.exp(la[ei, ej]) - cheapest[ei]))))
    if not gap <= 1e-9 * max(1.0, abs(float(np.add.reduce(np.log(slack))))):
        raise SolverError(f"relaxed finish left a duality gap of {gap:.3g} > 1e-9 max(1, |phi|)")
    return x_star, prices, gap, rounds, len(links)


def solve_relaxed_ua(mask, n_t, budgets):
    """The relaxed association problem of admission's users (their usable
    links `mask` and n^T, and the BSs' budgets N), solved as the analytic
    centre of their load polytope through its dual in one price per BS.

    `make_instance` sizes n^T to the bit-rate threshold, so xi^T_ij is
    kappa_i times the threshold on every link and Fbar is constant on the
    relaxed set. The stage therefore maximizes phi(x) = sum_j log(N_j -
    l_j(x)), l_j(x) = sum_i x_ij n^T_ij, over the row simplices on the mask:
    the analytic centre (Boyd & Vandenberghe, Convex Optimization, s. 8.5),
    the log-load association of Ye et al. (IEEE TWC 2013). phi depends on x
    only through the L loads, and its Lagrange dual in prices lam > 0,
        D(lam) = sum_j (lam_j N_j - log lam_j - 1) - sum_i min_j lam_j n^T_ij,
    is strictly convex, at least phi(x) for every feasible x, and equal to
    it exactly at the centre, where lam_j = 1 / slack_j and each user's
    weight sits on its cheapest links (ch. 5 there).

    Damped Newton runs on D with each row minimum smoothed by a power mean
    (`_smoothed_stage`) from D's minimizer along the ray through 1/N; an
    exact finish (`_exact_centre`) then fixes the untied users on their
    cheapest links and solves for the tied ones. `stage` is (Newton steps,
    finish rounds, "tol", tied users). Every sum over users is numpy's own
    reduction, never BLAS, so the bytes do not depend on the BLAS thread
    count.

    Raises ValueError for inputs of mismatched shapes or rows that admit no
    strictly interior point (a row without a usable link, or prices that
    prove it), and SolverError at _MAX_NEWTON Newton steps or when the
    finish does not certify.
    """
    mask = np.asarray(mask, dtype=bool)
    n_t = np.asarray(n_t, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if mask.shape != n_t.shape or budgets.shape != n_t.shape[1:]:
        raise ValueError(f"mask {mask.shape}, n_t {n_t.shape} and budgets {budgets.shape} "
                         "do not describe one instance")
    if not mask.any(axis=1).all():
        raise ValueError("the relaxed problem has no strictly interior point: "
                         "a row has no usable link")
    log_n = np.log(np.where(mask, n_t, np.inf))
    # D's minimizer along the ray through 1/N, where 1/N itself does not
    # prove that no interior point exists (see `_smoothed_stage`)
    used = float(np.add.reduce(np.exp(log_n - np.log(budgets)).min(axis=1)))
    if not used < budgets.size:
        raise ValueError("the relaxed problem has no strictly interior point")
    lam, steps = _smoothed_stage(budgets.size / (budgets.size - used) / budgets, log_n, budgets)
    x, prices, gap, rounds, tied = _exact_centre(lam, mask, log_n, n_t, budgets)
    return RelaxedAssociation(x, iterations=steps, prices=prices, gap=gap,
                              stage=(steps, rounds, "tol", tied))


def round_association(xs, inst):
    """Per-user argmax of the relaxed weights over the feasible set.

    Ties break toward the lower BS index. The result may violate budgets
    and must go through `repair_overload`. All-zero rows (users blocked
    before the relaxed solve) stay unserved.
    """
    mask = inst.mask()
    w = np.where(mask, xs.x_star, -np.inf)
    best = w.argmax(axis=1)
    served = w.max(axis=1) > 0.0
    x = np.zeros(mask.shape, dtype=np.int8)
    x[served, best[served]] = 1
    return Association(x=x, unserved=tuple((~served).nonzero()[0].tolist()))


def _repair_budget(x, weights, inst, cand_mask, unserved=()):
    """Move users off overloaded BSs until every budget holds.

    While some BS's excess loads - budget exceeds its tol, drains the one
    of those with the largest excess (the first on ties), evicting its most
    bandwidth-hungry user, who lands on the highest-weight candidate with
    room (ties to the lower BS index), or becomes unserved when none exists.
    A tol scales with its budget, so a BS with a small budget may be over
    while a larger excess elsewhere is within its own tol.

    Loads, budgets and n^T are Python floats here, so an eviction costs
    O(L) list work and no scan of the users. A drained BS orders its users
    once, by (n^T, index), and pops the hungriest from the end. A user lands
    only where the BS's excess (loads + n^T) - budget stays within tol, the
    test the drain stops at, so a BS a user lands on is never drained again
    and its order needs no update. An evicted user's candidates are ordered
    when it is evicted.
    """
    n_t = inst.n_t
    x = np.asarray(x, dtype=np.int8).copy()
    blocked = set(int(i) for i in unserved)
    loads = _loads(x, n_t)
    excess = (loads - inst.budgets).tolist()
    loads, budgets = loads.tolist(), inst.budgets.tolist()
    tol = (1e-12 * np.maximum(inst.budgets, 1.0)).tolist()
    queues = {}  # drained BS -> its users as (n^T, index), ascending
    while True:
        over = [j for j, (e, t) in enumerate(zip(excess, tol)) if e > t]
        if not over:
            break
        j = max(over, key=excess.__getitem__)  # the first largest
        if j not in queues:
            users = np.flatnonzero(x[:, j])
            queues[j] = sorted(zip(n_t[users, j].tolist(), users.tolist()))
        demand, i = queues[j].pop()
        x[i, j] = 0
        loads[j] = loads[j] - demand if queues[j] else 0.0  # an empty BS carries no load
        excess[j] = loads[j] - budgets[j]
        need = n_t[i].tolist()
        for k in np.argsort(-weights[i], kind="stable").tolist():  # ties -> lower BS
            if k != j and cand_mask[i, k] and (loads[k] + need[k]) - budgets[k] <= tol[k]:
                x[i, k] = 1
                loads[k] += need[k]
                excess[k] = loads[k] - budgets[k]
                break
        else:
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
    order = bp.argsort()
    order = order[seg[order].argsort(kind="stable")]  # by segment, then breakpoint
    seg, f, q, bp = seg[order], floors[order], q[order], bp[order]
    count = np.bincount(seg, minlength=totals.size)
    start = count.cumsum() - count  # each segment's first entry
    b = bp - bp[start[seg]]
    qb = q * b
    # Sums over the earlier entries of the same segment, one padded row per
    # segment so that no sum runs across segments.
    pos = np.arange(seg.size) - start[seg]
    rows = np.zeros((2, totals.size, int(count.max()) + 1))
    rows[:, seg, pos + 1] = q, qb
    q_before, qb_before = rows.cumsum(axis=2)[:, seg, pos]
    floor_sum = np.bincount(seg, f, totals.size)
    supply = floor_sum[seg] + b * q_before - qb_before  # at each entry's own breakpoint
    active = np.bincount(seg, supply <= totals[seg], totals.size).astype(int)
    segs = count.nonzero()[0]
    last = start[segs] + np.maximum(active[segs], 1) - 1  # the last entry above its floor
    level = np.zeros(totals.size)
    level[segs] = ((totals[segs] - floor_sum[segs] + qb_before[last] + qb[last])
                   / (q_before[last] + q[last]))
    n = np.empty(f.shape)
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
        return math.sqrt(((c * n) ** 2).sum())

    lo, hi = norm(floors), norm(np.maximum(floors, totals[seg]))
    (n_lo, up_lo), (n_hi, up_hi) = split(lo), split(hi)
    while not (up_lo == up_hi).all():
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
    root = math.sqrt(max(b * b - 4.0 * a * c0, 0.0)) - b
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
    m, with g_i = c_i times the `rate_gradient` of the rates s, relative to
    N_j; the worst BS is reported. Raises ValueError if
    sigma * q > 0 and a served link has no positive rate.
    """
    n_t, budgets, obj = inst.n_t, inst.budgets, inst.objective
    tau, sq = obj.tau, obj.sigma * obj.q
    users, bs = assoc.x.nonzero()
    c = inst.rate_per_hz()[users, bs]
    floors = n_t[users, bs]
    room = budgets - np.bincount(bs, floors, budgets.size)
    free = room[bs] > 0
    n = floors.copy()
    if free.any() and sq > np.finfo(float).eps * tau:
        if (c <= 0).any():
            raise ValueError("allocate_residual needs positive rates on served links")
        n = _global_norm_split(bs, c, floors, budgets, tau, sq)
    elif free.any():
        order = np.lexsort((-c, bs))  # each BS's best rate per Hz first, ties in user order
        pick = order[free[order] & (np.diff(bs[order], prepend=-1) != 0)]
        if sq < 0:
            pick = _best_response_vertices(bs, c, floors, room, pick, obj)
        n[pick] += room[bs[pick]]
    n = _fill_budgets(n, floors, bs, budgets)

    g = (c * rate_gradient(c * n, tau, obj.sigma, obj.q))[free]
    seg, m = bs[free], (n - floors)[free]
    gmax = np.zeros(budgets.size)
    np.maximum.at(gmax, seg, np.abs(g))
    step = np.divide(room, gmax, out=np.zeros(room.shape), where=gmax > 0)
    v = m + step[seg] * g
    probe = _water_fill(seg, np.zeros(v.shape), -v, np.ones(v.shape), room)
    kkt = float((np.abs(probe - m) / budgets[seg]).max()) if seg.size else 0.0
    alloc = np.zeros_like(n_t)
    alloc[users, bs] = n
    return Allocation(n=alloc, kkt_residual=kkt)


def usable_links(inst):
    """Feasible links a binary association could actually carry (n^T <= N_j)."""
    return inst.mask() & (inst.n_t <= inst.budgets[None, :] * (1.0 + 1e-12))


def _admit(usable, n_t, budgets):
    """Users the relaxed problem can hold with a strictly interior point.

    Starts from every user with a usable link. While `_SubsetStarts.start`
    finds no strictly interior point, blocks the most bandwidth-hungry user
    (largest minimum usable n^T, ties to the largest index) touching a BS it
    names overloaded. Returns the admitted-user mask and the blocked users
    in eviction order.

    A failing pass stops once its partial packing proves that the pass
    fails and that the hungriest admitted user touches a BS the full pass
    would name overloaded (see `_SubsetStarts.start`): the rule then blocks
    that user, as it would after the full pass.

    Such a pass blocks the hungriest user whatever else it packs. So once
    _BATCH_AFTER passes in a row have stopped early, and while at least
    _BATCH_MIN_ROWS users are live, the next passes go to
    `_SubsetStarts.proven_victims` in batches: the users it proves are
    blocked without a pass of their own, and the first pass it cannot prove
    runs through `start`. A batch whose passes are all proven doubles the
    next one, from _BATCH_FIRST up to _BATCH_MAX. A lone early stop among
    full passes does not start a batch: the batch's first pass would be a
    full one, and its sweep would pack every live user for nothing. The
    evictions are those of one `start` pass per eviction.
    """
    admitted = usable.any(axis=1)
    users = admitted.nonzero()[0]
    starts = _SubsetStarts(usable[users], n_t[users], budgets)
    evicted = []
    batch = streak = 0  # next batch size (0: a scalar pass); early stops in a row
    while len(evicted) < users.size:
        if batch and len(starts.live) >= _BATCH_MIN_ROWS:
            proven = starts.proven_victims(batch)
            for victim in proven:
                starts.remove(victim)
                evicted.append(int(users[victim]))
            if len(proven) == batch:
                batch = min(2 * batch, _BATCH_MAX)
                continue
        overloaded = starts.start()
        if overloaded is None:
            break
        victim = starts.victim(overloaded)
        starts.remove(victim)
        evicted.append(int(users[victim]))
        streak = streak + 1 if starts.stopped_early else 0
        batch = _BATCH_FIRST if streak >= _BATCH_AFTER else 0
    admitted[evicted] = False
    return admitted, tuple(evicted)


def two_stage(inst):
    """Admission, relaxed solve, rounding, repair, and residual allocation.

    Users without a single feasible link that fits inside a budget can never
    be served by a binary association; they are blocked up front and the
    relaxed problem runs on the remaining users over their usable links.
    Until admission's test (`_SubsetStarts.start`) finds a strictly
    interior point for the remaining users, it blocks, one at a time, the
    user with the largest minimum usable n^T among those touching a BS the
    greedy packing's running loads overload (repair, after rounding,
    instead moves the user with the largest n^T off the most overloaded
    BS). The relaxed problem of the admitted users is then solved once;
    where admission admits nobody, no solve runs and every user is
    unserved. The users blocked at admission are returned in `evicted`, in
    order.
    """
    usable = usable_links(inst)
    admitted, evicted = _admit(usable, inst.n_t, inst.budgets)
    rows = admitted.nonzero()[0]
    x_star = np.zeros_like(inst.n_t)
    relaxed = RelaxedAssociation(x_star)
    if rows.size:
        sub = solve_relaxed_ua(usable[rows], inst.n_t[rows], inst.budgets)
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
