"""Association and bandwidth-allocation machinery.

Stage two of the pipeline: find the analytic centre of the load polytope,
the maximizer of phi(x) = sum_j log(N_j - sum_i x_ij * n^T_ij) over the
product of per-user simplices, then round, repair budget overloads, and
split each base station's residual bandwidth. Two max-SINR baselines share
the repair step.
"""

import math
from collections import deque
from copy import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SolverError
from .objective import DeterministicObjective, confidence_bound, rate_gradient
from .semantics import FeasibleSets
from .topology import bit_rate

_ARMIJO = 1e-4
_GLL_MEMORY = 10  # accepted phi values the line search compares against
_STEP_FLOOR = 1e-18
_EPS_ACTIVE = 1e-12  # entries this small count as at their bound in a Newton face
_NEWTON_HALVINGS = 8  # halvings of a Newton step inside the budgets before gradient steps resume
_TOL = 1e-9  # projected-gradient norm at which the relaxed stage ends
_MAX_INNER = 20000  # iterations after which the relaxed stage raises SolverError
# The stage also ends once a 25-iteration window improves phi by less than
# _STALL_RTOL * (1 + |phi|); the final pg norm is reported either way.
_STALL_RTOL = 1e-10
# The simplex projector tests each row for a vertex solution only from this
# many rows on: below it the test costs more than the cumulative sums it
# saves (measured crossover between 96 and 200 rows, see `_simplex_projector`).
_VERTEX_MIN_ROWS = 128

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


@dataclass(frozen=True, eq=False)
class RelaxedAssociation:
    """Interior solution of the relaxed association problem.

    `stage` is the solve's (iterations, backtracks, exit, newton) record, or
    None where no solve ran; exit is "tol", "stall" or "no_step", and newton
    counts the Newton steps, which the iterations include (see
    `solve_relaxed_ua`).
    """

    x_star: np.ndarray
    iterations: int = 0
    pg_norm: float = 0.0
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


def _simplex_projector(mask):
    """Row-wise projection onto {x >= 0, sum x = 1} supported on mask, its
    constants built once. Entries off the mask come back as zero; it raises
    ValueError for an empty mask row, and SolverError if a row's support is
    lost to rounding (entries beyond 2**53 in magnitude).

    Each row is sorted in descending order with the entries off the mask
    last, at -1e300: their cumulative sums stay hugely negative, so they
    never count among the rho entries above the threshold, and the sums over
    the real entries come first, in the same order as an unpadded row.

    The padding is one subtraction, pad - v, from a constant that is 0 on
    the mask and 1e300 off it; off-mask entries up to about 1e284 in
    magnitude round to 1e300 there. After np.maximum(x, 0.0), which turns
    -0.0 into +0.0, a product with the mask clears the entries off it.
    Neither branches on the mask, unlike np.putmask, whose copy under a
    large random mask costs several times more per row than both together.
    The weights k and the mask are multiplied in as full M x L float arrays,
    so neither product broadcasts a row or casts a boolean.

    From _VERTEX_MIN_ROWS rows on (and L >= 2), a row whose sorted entries
    u_1 >= u_2 >= ... pass the vertex test
        u_1 - u_2 >= 1 + mu (1 + |u_1|),  |u_1| < 2**50,  mu = 4 L^2 eps
    (eps = 2**-52) takes theta = fl(u_1 - 1) directly, and only the other
    rows go through the cumulative sums. The sums give such a row rho = 1
    and that same theta, bit for bit:
    - k = 1 counts, since fl(u_1 - 1) < u_1 for |u_1| < 2**50;
    - k >= 2 does not. Exactly, D = (cs_k - 1) - k u_k = sum_{j<k} (u_j -
      u_k) - 1 >= G - 1 with G = u_1 - u_k >= u_1 - u_2. Every |u_j| (j <=
      k) is at most max(|u_1|, |u_k|) <= |u_1| + G, so the running sum cs_k
      is off by at most c (|u_1| + G), with c = k gamma_{k-1}, about
      L (L - 1) eps / 2 at most (Higham, Accuracy and Stability of Numerical
      Algorithms, s. 4.2). The test, itself rounded, still proves u_1 - u_2
      >= 1 + mu/2 (1 + |u_1|), and mu/2 = 2 L^2 eps >= 2c / (1 - c) makes D
      larger than that error. So fl(cs_k) - 1 >= k u_k exactly, and since
      rounding is monotone, fl(fl(cs_k) - 1) >= fl(k u_k).
    The argument needs no sum to overflow, which holds for the padding (L
    times 1e300 is finite). A NaN top or second entry fails the test, and a
    NaN further down fails every comparison on both paths. With mu = 0, or
    without the cap on |u_1|, some rows would get another theta, or no
    SolverError (the projection tests draw such rows). Below
    _VERTEX_MIN_ROWS rows the test's fixed cost per call outweighs the sums
    it saves, and every row goes through them.
    """
    mask = np.asarray(mask, dtype=bool)
    m, l = mask.shape
    pad = np.where(mask, 0.0, 1e300)
    keep = mask.astype(float)
    k = np.tile(np.arange(1.0, l + 1.0), (m, 1))
    last = np.arange(m) * l - 1  # before each row's first entry, flat
    vertex_test = m >= _VERTEX_MIN_ROWS and l >= 2
    mu = 4.0 * l * l * np.finfo(float).eps

    def threshold(u):
        """theta of rows u of pad - v, sorted in ascending order (u is reused)."""
        n = len(u)
        np.negative(u, out=u)
        # numpy's own kernel: np.cumsum's Python wrapper costs a few us per call
        cs = np.add.accumulate(u, axis=1)
        cs -= 1.0
        u *= k[:n]
        rho = (u > cs).sum(axis=1)
        if not rho.all():
            if mask.any(axis=1).all():  # entries beyond 2**53 rounded the support away
                raise SolverError("projection lost a row's support to rounding; "
                                  "message rates are too large for float64")
            raise ValueError("projection row with empty support")
        return cs.take(last[:n] + rho) / rho

    def project(v):
        u = pad - v
        u.sort(axis=1)
        if vertex_test:
            theta = -1.0 - u[:, 0]  # fl(u_1 - 1)
            top = np.abs(u[:, 0])
            rest = (~((u[:, 1] - u[:, 0] >= 1.0 + mu * (1.0 + top))
                      & (top < 2.0**50))).nonzero()[0]
            if rest.size:
                theta[rest] = threshold(u[rest])
        else:
            theta = threshold(u)
        x = v - theta[:, None]
        np.maximum(x, 0.0, out=x)
        x *= keep
        return x

    return project


def _loads(x, n_t):
    return np.einsum("ml,ml->l", x, n_t)


def _link_lists(mask, n_t):
    """Each row's (BS, n^T) pairs on the mask, as Python lists for scalar loops."""
    rows, cols = mask.nonzero()
    pairs = list(zip(cols.tolist(), n_t[rows, cols].tolist()))
    ends = mask.sum(axis=1).cumsum().tolist()
    return [pairs[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _proven_overload(budgets, count, side=1.0):
    """Running loads at which a packing of `count` rows proves each BS ends
    overloaded: N_j * (1 + margin), where the margin exceeds the gap between
    running sums and `_loads`, each within about m * eps of the exact sum.
    With side=-1.0, N_j * (1 - margin): a final running load at or below it
    proves that `_loads` leaves the BS slack. `count` may be a column of
    counts, one row of thresholds per pass."""
    return budgets * (1.0 + side * (1e-9 + 2.0 * count * np.finfo(float).eps))


def _greedy_pack(order, links, budgets, proof):
    """Greedy packing: each row in `order` goes to the BS with the most room
    left (first maximum on ties). Returns (cols, loads), each row's BS in
    `order` and the running per-BS loads as a list, or (None, the BSs
    proven overloaded so far) once the pass stops.

    proof = (dry, watched) are two boolean lists over the BSs. Loads only
    grow, so a running load at `_proven_overload` proves that BS j ends the
    pass overloaded. The pass stops once a proven BS is `dry` and a proven
    BS is `watched`; otherwise it packs every row.
    """
    num_bs = len(budgets)
    dry, watched = proof
    full = _proven_overload(budgets, len(order)).tolist()
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
                return None, [j for j in range(num_bs) if loads[j] >= full[j]]
    return cols, loads


class _SubsetStarts:
    """Interior starts for one problem's rows as rows are removed.

    The uniform rows and their per-BS loads are built once; removing a row
    subtracts its uniform loads. The packing constants (each row's links and
    minimum n^T, and the live rows in descending-demand order, ties to the
    lower row) are built when a uniform start first fails. `start` packs one
    pass; `proven_victims` packs a run of passes in lockstep and returns the
    victims of those it proves stop early.
    """

    def __init__(self, mask, n_t, budgets):
        self.mask, self.n_t, self.budgets = mask, n_t, budgets
        self.x_unif = mask / mask.sum(axis=1)[:, None]
        self.inside = np.ones(mask.shape[0], dtype=bool)
        self.loads = _loads(self.x_unif, n_t)
        self.load_err = None  # exact loads until a row is removed
        self.links = self.demand = self.live = None
        self.stopped_early = False  # whether the last `start` pass stopped early

    def rows(self):
        return self.inside.nonzero()[0]

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
        the last row). Some live row touches one: each carries load."""
        hungriest = self.hungriest()
        if self.mask[hungriest, list(overloaded)].any():
            return hungriest
        touching = np.flatnonzero(self.inside & self.mask[:, list(overloaded)].any(axis=1))
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
        if hi.min() <= 1e-9 and ((lo <= 0) == (hi <= 0)).all():
            return lo
        rows = self.rows()
        return (b - _loads(self.x_unif.take(rows, axis=0), self.n_t.take(rows, axis=0))) / b

    def upcoming(self, size):
        """The proof inputs of the next `size` passes, each as `start` would
        build it if every pass before it stopped early: replays
        `uniform_slack`, `hungriest` and `remove` on a copy of this state.
        Returns each pass's victim (its hungriest row), dry BSs and live-row
        count, and ends before a pass whose uniform start succeeds.
        """
        replay = copy(self)
        replay.inside, replay.live = self.inside.copy(), self.live[:]
        victims, dry, counts = [], [], []
        while len(victims) < size:
            slack = replay.uniform_slack()
            if slack.min() > 1e-9:
                break
            dry.append(slack <= 0)
            counts.append(len(replay.live))
            victims.append(replay.hungriest())
            replay.remove(victims[-1])
        return victims, dry, counts

    def proven_victims(self, size):
        """Victims of the next passes that a lockstep packing proves stop early.

        Pass k of the `upcoming` ones packs the live rows less the k victims
        before it. One sweep over the live rows in demand order packs each
        row in every pass that holds it, as `_greedy_pack` would: onto the
        BS with the most room left, ties to the lower index. Loads only
        grow, so a pass stops early exactly when its loads reach
        `_proven_overload` on a dry BS and on a BS its victim can use; passes
        retire once they are proven. Returns the victims of the leading
        proven passes, in eviction order. The first pass not proven is left
        to `start`.
        """
        victims, dry, counts = self.upcoming(size)
        if not victims:
            return victims
        b, rows = self.budgets, self.live
        cost = np.where(self.mask, self.n_t, np.inf)  # a row's n^T, +inf off its links
        full = _proven_overload(b, np.array(counts)[:, None])
        # a pass is proven once its loads reach full_dry and full_watched
        full_dry = np.where(dry, full, np.inf)
        full_watched = np.where(self.mask[victims], full, np.inf)
        passes = np.arange(len(victims))  # the unproven passes, in order
        loads = np.zeros(full.shape)
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
        """Strictly interior start for the live rows: uniform rows, else a
        blend with a greedy packing that puts the hungriest rows first.
        Returns (x, None), or (None, overloaded) with the BSs the packing
        overloads, else those it leaves within 1e-12 of their budget, when
        no blend is strictly interior: never none, and each carries load.

        A failing pass ends as soon as its partial packing proves two things:
        some BS ends without slack in both the uniform start and the packing
        (so no blend can help), and some BS usable by the hungriest row
        (largest minimum n^T, ties to the last row) ends overloaded.
        `overloaded` then lists only the BSs proven so far. A pass the proof
        does not stop packs every row.

        A full pass reads its verdict from the packing's running loads R
        when every BS has R_j outside N_j * (1 -+ margin) (see
        `_proven_overload`): `_loads` on the packed rows then leaves the BSs
        with R_j above the band overloaded and the others slack, so where
        one of those overloaded BSs also lacks uniform slack, no blend can
        help and the pass names exactly the BSs above the band. Any other
        full pass builds the packed rows as arrays and tests the blends.
        """
        budgets = self.budgets
        slack_unif = self.uniform_slack()
        if slack_unif.min() > 1e-9:
            return self.x_unif.take(self.rows(), axis=0), None
        if self.live is None:
            self.links = _link_lists(self.mask, self.n_t)
            self.demand = np.where(self.mask, self.n_t, np.inf).min(axis=1)
            order = (-self.demand).argsort(kind="stable")
            self.live = order[self.inside[order]].tolist()
        proof = ((slack_unif <= 0).tolist(), self.mask[self.hungriest()].tolist())
        cols, out = _greedy_pack(self.live, self.links, budgets, proof)
        self.stopped_early = cols is None
        if cols is None:
            return None, out  # the BSs proven overloaded so far
        running = np.array(out)
        over = running >= _proven_overload(budgets, len(cols))
        under = running <= _proven_overload(budgets, len(cols), -1.0)
        if (over | under).all() and (over & (slack_unif <= 0)).any():
            return None, over.nonzero()[0].tolist()

        # take copies the same rows as fancy indexing, a few times faster
        rows = self.rows()
        x_unif, n_t = self.x_unif.take(rows, axis=0), self.n_t.take(rows, axis=0)

        def rel_slack(x):
            return (budgets - _loads(x, n_t)) / budgets

        x_greedy = np.zeros(x_unif.shape)
        x_greedy[np.searchsorted(rows, self.live), cols] = 1.0
        slack_greedy = rel_slack(x_greedy)
        # Loads are linear in x: a BS that both ends leave without slack has
        # none in any blend, so skip the blends.
        if not ((slack_greedy <= 0) & (slack_unif <= 0)).any():
            for theta in (0.5, 0.25, 0.1, 0.01, 1e-3, 1e-4, 0.0):
                x = theta * x_unif + (1.0 - theta) * x_greedy
                if rel_slack(x).min() > 1e-12:
                    return x, None
        # the BSs the packing overloads, else those the pure packing fails on
        tight = 0.0 if (slack_greedy <= 0).any() else 1e-12
        return None, (slack_greedy <= tight).nonzero()[0].tolist()


def _newton_direction(n_t, slack, mask, x, g):
    """Projected Newton direction (Bertsekas 1982) of phi at x, on x's face.

    The face frees x's positive entries, and the zero entries on the mask
    whose gradient exceeds that of their row's best positive entry. Entries
    up to 1e-12 count as zero (Bertsekas's epsilon-active set): rounding
    dust of 1e-17 left in the face would otherwise cut the accepted step to
    t of about 1e-17 instead of letting the projection clip it. Each row
    pivots on its largest entry, which absorbs the change of the row's other
    free entries, so the row sums stay 1. On these reduced entries (i, j) the
    Hessian of -phi is Bz S^-2 Bz^T, with S = diag(slack) and Bz the change
    of the loads, whose rows are n_ij e_j - n_ip e_p (p the pivot). Shifted
    by 1e-12 times its largest diagonal entry, it is solved by Woodbury on
    its L load columns, then refined twice against the exact product, which
    the shift's small size otherwise leaves short of full precision. No
    matrix has more than L columns.

    `slack` is budgets - `_loads(x, n_t)`, the per-BS slack at x that the
    caller's phi evaluation already computed. Returns the direction, zero
    off the face, or None when the face has no reduced entry or the solve
    is not finite.
    """
    positive = x > _EPS_ACTIVE
    best = np.where(positive, g, -np.inf).max(axis=1)
    free = positive | (mask & (g > best[:, None]))
    pivot = x.argmax(axis=1)
    free[np.arange(x.shape[0]), pivot] = False
    ri, rj = free.nonzero()  # the reduced entries, row by row
    if not ri.size:
        return None
    pj = pivot[ri]
    bz = np.zeros((ri.size, x.shape[1]))  # Bz S^-1
    k = np.arange(ri.size)
    bz[k, rj] = n_t[ri, rj] / slack[rj]
    bz[k, pj] = -n_t[ri, pj] / slack[pj]
    shift = 1e-12 * float((bz * bz).sum(axis=1).max())
    # (shift I + V V^T)^-1 = (I - V (shift I + V^T V)^-1 V^T) / shift
    cap = shift * np.eye(bz.shape[1]) + bz.T @ bz

    def solve(b):
        return (b - bz @ np.linalg.solve(cap, bz.T @ b)) / shift

    gr = g[ri, rj] - g[ri, pj]
    with np.errstate(all="ignore"):
        try:
            dr = solve(gr)
            for _ in range(2):
                dr += solve(gr - shift * dr - bz @ (bz.T @ dr))
        except np.linalg.LinAlgError:  # an exactly singular L x L system
            return None
    if not np.isfinite(dr).all():
        return None
    d = np.zeros(x.shape)
    d[ri, rj] = dr
    firsts = np.concatenate(([True], ri[1:] != ri[:-1])).nonzero()[0]
    rows = ri[firsts]
    d[rows, pivot[rows]] = -np.add.reduceat(dr, firsts)
    return d


def solve_relaxed_ua(mask, n_t, budgets, start):
    """The relaxed association problem of admission's users, solved as the
    analytic centre of their load polytope.

    mask, n_t and start are admission's users' usable links, n^T and
    strictly interior start (see `_admit`), and budgets the BSs' N_j.

    `make_instance` sizes n^T to the bit-rate threshold, so xi^T_ij is
    kappa_i times the threshold on every link, and Fbar is constant on the
    relaxed set. The relaxed stage therefore maximizes the log-load
    potential phi(x) = sum_j log(N_j - sum_i x_ij n^T_ij) over the product
    of row simplices on the mask: the analytic centre (Boyd & Vandenberghe,
    Convex Optimization, s. 8.5), which leaves each BS room in the sense of
    log-load association (Ye et al., IEEE TWC 2013).

    Spectral projected gradient ascent maximizes phi. Its backtracking
    search is the nonmonotone one of Grippo, Lampariello & Lucidi (1986): a
    trial x_new is accepted once phi(x_new) >= min(recent) + 1e-4 *
    g.(x_new - x), where `recent` holds the last 10 accepted phi, the
    starting phi included. The solve ends with exit "tol" once the
    projected-gradient norm pg = ||P(x + g) - x|| is at most _TOL, "stall"
    after a 25-iteration window that gains too little (see _STALL_RTOL), or
    "no_step" when no step is accepted. `stage` records the iterations,
    backtracks, exit and Newton steps; pg_norm is the exact norm at the end.

    The support {x > 0} is first checked at iteration 25, against the
    start's, and from then on at every iteration, against the previous
    iteration's. Once it matches, the solve finishes on that face by
    projected Newton steps (see `_newton_direction`, whose face counts
    entries up to 1e-12 as zero): P(x + t d) for the first t in t0, t0/2,
    ... whose phi is at least the current phi plus 1e-4 times its positive
    gain, t0 being the largest power of 1/2 with t0 max|d| <= 1. Each
    accepted step is an iteration; a rejected one (9 trials inside the
    budgets fail, or t would fall below the step floor) hands back to the
    gradient steps until the support holds for an iteration again. The
    first check stays at iteration 25: small solves mostly end before it,
    and on them a Newton step costs more than a gradient step.

    pg is computed only when it may be at most _TOL. For x feasible,
    ||P(x + t g) - x|| is nondecreasing in t and ||P(x + t g) - x|| / t is
    nonincreasing (Calamai & More 1987, Lemma 2.2), so the line search's
    first trial gives lb = ||P(x + step g) - x|| / max(1, step) <= pg. While
    lb exceeds _TOL by more than a bound on the rounding of both norms,
    pg > _TOL is certain and its projection is skipped. pg is computed at
    the first iteration (before the trial, so a solve that starts converged
    projects once), at every Newton step, at every stall or no-step exit and
    at the last allowed iteration, so the iterates and pg_norm are those of
    testing pg <= _TOL at every iteration.

    Raises ValueError for a start of the wrong shape or without slack on
    some budget, and SolverError if the solve runs out of iterations
    (_MAX_INNER).
    """

    def evaluate(x):
        """phi(x), and the slack the gradient reuses."""
        slack = budgets - _loads(x, n_t)
        if (slack <= 0.0).any():
            return -math.inf, slack
        return float(np.log(slack).sum()), slack

    x = np.asarray(start, dtype=float)
    w_cur, slack = evaluate(x) if x.shape == n_t.shape else (-math.inf, None)
    if w_cur == -math.inf:
        raise ValueError(f"start of shape {x.shape} is not strictly interior to an "
                         f"instance of shape {n_t.shape}")
    m, l = n_t.shape
    project = _simplex_projector(mask)
    # The gradient is built as 0 off the mask, where x stays 0 and the
    # projector reads nothing, so ||g|| below covers only its inputs; dx is
    # 0 there too, so the steps and iterates are those of the full gradient.
    neg_n = -np.where(mask, n_t, 0.0)  # the gradient's numerator, negated once
    # lb and pg are each computed to within (l + 1) sqrt(l) eps / 2 times
    # ||g|| + sqrt(m): a projected entry is off by at most (l + 1) eps / 2
    # times its row's largest input, and ||x + t g|| / max(1, t) <= ||g|| +
    # sqrt(m) on the simplices. The margin over _TOL is twice their sum.
    rounding = 2.0 * (l + 1) * np.sqrt(l) * np.finfo(float).eps
    root_m = np.sqrt(m)

    def grad_of(slack):
        return neg_n / slack

    def pg_of(x, g):
        d = project(x + g) - x
        return math.sqrt(np.vdot(d, d))

    def newton_trial(x, g, w_cur, slack):
        """P(x + t d) for the Newton direction d at x, whose slack is given,
        and the first t in t0, t0/2, ... that passes the monotone Armijo
        test, with its phi and slack, or None if none does; and the number
        of rejected trials.
        t0 is the largest power of 1/2 with t0 max|d| <= 1, so no entry of
        the first trial moves further than a simplex's diameter. The search
        gives up at the step floor, or once 9 trials inside the budgets
        (t0 and 8 halvings) have failed. Trials outside the budgets do not
        count: near a tight budget the projection's clipping can move load
        onto it, and only a much shorter step is a point of phi's domain."""
        d = _newton_direction(n_t, slack, mask, x, g)
        if d is None or not float(np.vdot(g, d)) > 0.0:
            return None, 0
        frac, exp = math.frexp(float(np.abs(d).max()))
        t = math.ldexp(1.0, -max(0, exp - (frac == 0.5)))
        halvings = misses = 0
        while t >= _STEP_FLOOR and misses <= _NEWTON_HALVINGS:
            xn = project(x + t * d)
            w_new, slack = evaluate(xn)
            gain = float(np.vdot(g, xn - x))
            if gain > 0.0 and math.isfinite(w_new) and w_new >= w_cur + _ARMIJO * gain:
                return (xn, t, w_new, slack), halvings
            t *= 0.5
            halvings += 1
            misses += math.isfinite(w_new)
        return None, halvings

    g = grad_of(slack)
    w_window = w_cur
    support = x > 0.0
    newton = False
    recent = deque([w_cur], maxlen=_GLL_MEMORY)
    step = 1.0
    pg = np.inf
    backtracks = newton_steps = 0
    reason = None
    window = 25
    for it in range(_MAX_INNER):
        # At the first iteration, in Newton steps and at the last allowed
        # iteration, pg comes before the trial, which a tol exit skips: a
        # solve that starts converged projects once
        exact = not it or newton or it == _MAX_INNER - 1
        xn = None
        if not exact:
            xn = project(x + step * g)  # the line search's first trial
            dx = xn - x
            lb = math.sqrt(np.vdot(dx, dx)) / max(1.0, step)
            exact = lb <= _TOL + rounding * (math.sqrt(np.vdot(g, g)) + root_m)
        if exact:
            pg = pg_of(x, g)
            if pg <= _TOL:
                reason = "tol"
                break
        if it and it % window == 0:
            if w_cur - w_window <= _STALL_RTOL * (1.0 + abs(w_cur)):
                reason = "stall"  # ascent has flattened out
                break
            w_window = w_cur
        if it >= window:
            # the support held since the last iteration: finish on its face
            now = x > 0.0
            newton = newton or (now == support).all()
            support = now
        if newton:
            accepted, halvings = newton_trial(x, g, w_cur, slack)
            backtracks += halvings
            newton = accepted is not None
        if newton:
            newton_steps += 1
            xn, trial, w_new, slack = accepted
            dx = xn - x
        else:
            if xn is None:
                xn = project(x + step * g)
                dx = xn - x
            trial = step
            w_ref = min(recent)  # nonmonotone (GLL) reference value
            while True:
                w_new, slack = evaluate(xn)
                gain = float(np.vdot(g, dx))
                if math.isfinite(w_new) and w_new >= w_ref + _ARMIJO * gain:
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
        g_new = grad_of(slack)
        dg = g_new - g
        curv = -float(np.vdot(dx, dg))
        if curv > 0:  # spectral (Barzilai-Borwein) step for the next iterate
            step = min(max(float(np.vdot(dx, dx)) / curv, 1e-12), 1e8)
        else:
            step = min(trial * 2.0, 1e8)
        x, w_cur, g = xn, w_new, g_new
        recent.append(w_cur)
    if reason is None:
        raise SolverError(f"relaxed stage did not converge within {_MAX_INNER} iterations "
                          f"(projected-gradient norm {pg:g})")
    if not exact:
        pg = pg_of(x, g)
    return RelaxedAssociation(x, iterations=it, pg_norm=pg,
                              stage=(it, backtracks, reason, newton_steps))


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
        loads[j] -= demand
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
    finds no strictly interior start, blocks the most bandwidth-hungry user
    (largest minimum usable n^T, ties to the largest index) touching a BS it
    names overloaded. Returns the admitted-user mask, the blocked users in
    eviction order, and the admitted users' interior start (None if no
    user is admitted).

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
    evictions and the start are those of one `start` pass per eviction.
    """
    admitted = usable.any(axis=1)
    users = admitted.nonzero()[0]
    starts = _SubsetStarts(usable[users], n_t[users], budgets)
    evicted = []
    start = None
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
        start, overloaded = starts.start()
        if start is not None:
            break
        victim = starts.victim(overloaded)
        starts.remove(victim)
        evicted.append(int(users[victim]))
        streak = streak + 1 if starts.stopped_early else 0
        batch = _BATCH_FIRST if streak >= _BATCH_AFTER else 0
    admitted[evicted] = False
    return admitted, tuple(evicted), start


def two_stage(inst):
    """Admission, relaxed solve, rounding, repair, and residual allocation.

    Users without a single feasible link that fits inside a budget can never
    be served by a binary association; they are blocked up front and the
    relaxed problem runs on the remaining users over their usable links.
    If the remaining users admit no strictly interior point, admission
    blocks, one at a time until one exists, the user with the largest
    minimum usable n^T among those touching a BS the greedy packing
    overloads (repair, after rounding, instead moves the user with the
    largest n^T off the most overloaded BS). The relaxed problem is then
    solved once, from admission's start; where admission admits nobody, no
    solve runs and every user is unserved. The users blocked at admission
    are returned in `evicted`, in order.
    """
    usable = usable_links(inst)
    admitted, evicted, start = _admit(usable, inst.n_t, inst.budgets)
    rows = admitted.nonzero()[0]
    x_star = np.zeros_like(inst.n_t)
    relaxed = RelaxedAssociation(x_star)
    if rows.size:
        sub = solve_relaxed_ua(usable[rows], inst.n_t[rows], inst.budgets, start)
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
