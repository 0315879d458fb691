"""Network-level performance metrics and a brute-force oracle for tiny
instances."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import confidence_bound
from .solver import Allocation, Association

_ORACLE_MAX_USERS = 8
_ORACLE_MAX_BS = 4
_ORACLE_MAX_COMBOS = 3_000_000


@dataclass(frozen=True, eq=False)
class PerformanceReport:
    expected_stm: float
    fbar: float
    bit_throughput: float
    served: int
    unserved: int
    per_mu_message_rate: np.ndarray


def bit_throughput(assoc, alloc, gamma):
    """Total delivered bit-rate over all served links."""
    return float(np.einsum("ml,ml->", assoc.x * alloc.n, np.log2(1.0 + gamma)))


def instance_message_rates(assoc, alloc, inst):
    """Per-user message rates s_i = sum_j x_ij n_ij xi^T_ij / n^T_ij."""
    return np.einsum("ml,ml->m", assoc.x * alloc.n, inst.rate_per_hz())


def instance_fbar(assoc, alloc, inst):
    obj = inst.objective
    return confidence_bound(instance_message_rates(assoc, alloc, inst), obj.tau, obj.sigma, obj.q)


def build_report(assoc, alloc, inst, gamma):
    """Network metrics of a solution; its rates and Fbar are those of `inst`."""
    s = instance_message_rates(assoc, alloc, inst)
    obj = inst.objective
    return PerformanceReport(
        expected_stm=float(obj.tau * s.sum()),
        fbar=confidence_bound(s, obj.tau, obj.sigma, obj.q),
        bit_throughput=bit_throughput(assoc, alloc, gamma),
        served=assoc.served,
        unserved=len(assoc.unserved),
        per_mu_message_rate=s,
    )


def feasibility_violations(assoc, alloc, inst, check_feasible_membership=True):
    """Largest constraint violations of a solution, for assertions and reports.

    Returns a dict with the single-association defect count, the worst
    budget overshoot relative to N_j, and the worst mismatch of the
    full-allocation equality on active BSs relative to N_j. Membership in
    the feasible sets is skipped for the knowledge-oblivious baselines.
    """
    x = assoc.x
    row_sums = x.sum(axis=1)
    served = np.ones(x.shape[0], dtype=bool)
    if assoc.unserved:
        served[list(assoc.unserved)] = False
    bad_rows = int((row_sums[served] != 1).sum() + (row_sums[~served] != 0).sum())
    if check_feasible_membership and x.size:
        bad_rows += int((x.astype(bool) & ~inst.mask())[served].sum())
    loads = np.einsum("ml,ml->l", x, alloc.n)
    over = np.max((loads - inst.budgets) / inst.budgets) if loads.size else 0.0
    active = x.sum(axis=0) > 0
    if np.any(active):
        eq_gap = np.max(np.abs(loads[active] - inst.budgets[active]) / inst.budgets[active])
    else:
        eq_gap = 0.0
    return {
        "association_defects": bad_rows,
        "budget_overshoot_rel": float(max(over, 0.0)),
        "full_allocation_gap_rel": float(eq_gap),
    }


@dataclass(frozen=True, eq=False)
class OracleSolution:
    association: object
    allocation: object
    fbar: float


def _compositions(units, parts):
    """All tuples of `parts` nonnegative ints summing to `units` (lexicographic)."""
    if parts == 1:
        yield (units,)
        return
    for head in range(units, -1, -1):
        for rest in _compositions(units - head, parts - 1):
            yield (head,) + rest


def oracle_enumerate(inst):
    """Exhaustive search over associations and quantized residual splits.

    Enumerates every all-served binary association over the feasible sets;
    each BS's leftover bandwidth is split on a grid of roughly
    max(min n^T on the feasible links, median budget / 6) Hz. When budgets
    admit no all-served association at all, the search is repeated with a
    per-user unserved option so a best blocking solution is still returned.
    Refuses instances beyond 8 users x 4 BSs, and grids beyond
    _ORACLE_MAX_COMBOS points.
    """
    m, l = inst.n_t.shape
    if m > _ORACLE_MAX_USERS or l > _ORACLE_MAX_BS:
        raise ValueError(
            f"oracle refuses instances beyond {_ORACLE_MAX_USERS} users x {_ORACLE_MAX_BS} BSs"
        )
    mask = inst.mask()
    quantum = max(float(inst.n_t[mask].min()), float(np.median(inst.budgets) / 6.0))
    options = [tuple(np.flatnonzero(row).tolist()) for row in mask]
    result = _oracle_search(inst, options, quantum)
    if result is None:
        result = _oracle_search(inst, [opt + (None,) for opt in options], quantum)
    return result


def _oracle_search(inst, options, quantum):
    m, l = inst.n_t.shape
    c = inst.rate_per_hz()
    obj = inst.objective
    sq = obj.sigma * obj.q
    budgets = inst.budgets

    # per (BS, its users): budget verdict; bandwidth rows, sum s and sum s^2 on its grid
    fits, grids = {}, {}
    best_f = -np.inf
    best_combo = None
    for combo in itertools.product(*options):
        users_of = [[] for _ in range(l)]
        for i, j in enumerate(combo):
            if j is not None:
                users_of[j].append(i)
        keys = [(j, tuple(users)) for j, users in enumerate(users_of) if users]
        for j, users in keys:
            if (j, users) not in fits:
                fits[j, users] = inst.n_t[list(users), j].sum() <= budgets[j] * (1 + 1e-12)
        if not all(fits[key] for key in keys):
            continue
        s1 = np.zeros(1)
        s2 = np.zeros(1)
        for j, users in keys:
            if (j, users) not in grids:
                n_opts = _bs_bandwidth_options(inst, list(users), j, quantum)
                s_opts = n_opts * c[list(users), j]
                grids[j, users] = (n_opts, s_opts.sum(axis=1), (s_opts**2).sum(axis=1))
            _, g1, g2 = grids[j, users]
            if s1.size * g1.size > _ORACLE_MAX_COMBOS:
                raise ValueError("oracle grid too fine")
            s1 = (s1[:, None] + g1[None, :]).ravel()
            s2 = (s2[:, None] + g2[None, :]).ravel()
        f = obj.tau * s1 - sq * np.sqrt(s2)
        idx = int(np.argmax(f))
        if f[idx] > best_f:
            best_f, best_combo, best_keys, best_idx = float(f[idx]), combo, keys, idx

    if best_combo is None:
        return None
    x = np.zeros((m, l), dtype=np.int8)
    n = np.zeros((m, l))
    for i, j in enumerate(best_combo):
        if j is not None:
            x[i, j] = 1
    picks = np.unravel_index(best_idx, [grids[key][0].shape[0] for key in best_keys])
    for (j, users), pick in zip(best_keys, picks):
        n[list(users), j] = grids[j, users][0][pick]
    assoc = Association(x=x, unserved=tuple(i for i, j in enumerate(best_combo) if j is None))
    return OracleSolution(association=assoc, allocation=Allocation(n=n), fbar=best_f)


def _bs_bandwidth_options(inst, users, j, quantum):
    floors = inst.n_t[users, j]
    residual = inst.budgets[j] - floors.sum()
    if residual <= 1e-12 * inst.budgets[j]:
        return floors[None, :].copy()
    units = max(1, int(round(residual / quantum)))
    if math.comb(units + len(users) - 1, len(users) - 1) > _ORACLE_MAX_COMBOS:
        raise ValueError("oracle grid too fine")
    comps = np.array(list(_compositions(units, len(users))), dtype=float)
    return floors[None, :] + residual * comps / units
