"""Network-level performance metrics and a brute-force oracle for tiny
instances."""

import itertools
from dataclasses import dataclass

import numpy as np

from .objective import confidence_bound
from .solver import Allocation, Association, allocate_residual

_ORACLE_MAX_USERS = 8
_ORACLE_MAX_BS = 4


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


def oracle_enumerate(inst):
    """Exhaustive search over associations, each with its exact residual split.

    Enumerates every all-served association over the feasible sets that fits
    the budgets; if none does, every one with a per-user unserved option, so
    a best blocking solution is still returned. Each BS's leftover bandwidth
    is split exactly: by `allocate_residual` where Fbar is concave in the
    split (sigma * q > 0), else at the best vertex (each BS's whole room on
    one user). An upper bound per association skips the splits that cannot
    win. Refuses instances beyond 8 users x 4 BSs. Where sigma * q > 0 it
    needs a positive rate per Hz on every feasible link, as `two_stage` does:
    `allocate_residual` raises ValueError on a split that serves a zero rate.
    """
    m, l = inst.n_t.shape
    if m > _ORACLE_MAX_USERS or l > _ORACLE_MAX_BS:
        raise ValueError(
            f"oracle refuses instances beyond {_ORACLE_MAX_USERS} users x {_ORACLE_MAX_BS} BSs"
        )
    options = [np.flatnonzero(row) for row in inst.mask()]
    result = _oracle_search(inst, options)
    if result is None:  # BS index l stands for "unserved"
        result = _oracle_search(inst, [np.append(opt, l) for opt in options])
    return result


def _oracle_search(inst, options):
    m, l = inst.n_t.shape
    obj = inst.objective
    tau, sq = obj.tau, obj.sigma * obj.q
    # every association as each user's BS, in itertools.product order
    picks = np.indices([opt.size for opt in options], dtype=np.int8).reshape(m, -1)
    bs = np.array([opt[k] for opt, k in zip(options, picks)], dtype=np.int8).reshape(picks.shape).T
    users = np.arange(m)
    floors = np.hstack([inst.n_t, np.zeros((m, 1))])[users, bs]
    on = bs[:, :, None] == np.arange(l)
    load = np.einsum("kij,ki->kj", on, floors)
    fits = np.all(load <= inst.budgets * (1 + 1e-12), axis=1)
    if not fits.any():
        return None
    bs, floors, on = bs[fits], floors[fits], on[fits]
    has = on.any(axis=1)  # the BSs that carry a user
    room = np.where(has, np.maximum(inst.budgets - load[fits], 0.0), 0.0)
    rate = np.hstack([inst.rate_per_hz(), np.zeros((m, 1))])[users, bs]
    # the best-rate split: each BS's room to its first user with the best rate per Hz
    first = np.where(on, rate[..., None], -1.0).argmax(axis=1)
    n0 = floors + np.einsum("kij,kj->ki", users[:, None] == first[:, None, :], room)
    s_floor, s0 = rate * floors, rate * n0

    def linear_max(u):  # max over the split of tau*sum(s) - sq*u.s/||u||, >= Fbar if sq > 0
        norm = np.sqrt((u * u).sum(axis=-1, keepdims=True))
        w = tau - sq * u / np.maximum(norm, np.finfo(float).tiny)  # a zero u stays zero
        wr = w * rate
        gain = np.stack([np.where(on[..., j], wr, -np.inf).max(axis=-1) for j in range(l)], -1)
        return (w * s_floor).sum(axis=-1) + (room * np.where(has, gain, 0.0)).sum(axis=-1)

    f0 = confidence_bound(s0, tau, obj.sigma, obj.q)
    k = int(np.argmax(f0))
    best_f, winner = f0[k], (bs[k], n0[k])
    if sq > 0:
        # sum(s) <= sum(s0) and ||s|| >= ||s at the floors|| rule out most
        # associations; the rest take the least bound along s0, the floors and
        # the even split
        keep = tau * s0.sum(axis=1) - sq * np.sqrt((s_floor * s_floor).sum(axis=1)) > best_f
        if not keep.all():
            bs, floors, on, has, room, rate, s_floor, s0 = (
                a[keep] for a in (bs, floors, on, has, room, rate, s_floor, s0))
        even = rate * (floors + np.einsum("kij,kj->ki", on, room / np.maximum(on.sum(axis=1), 1)))
        bound = linear_max(np.stack([s0, s_floor, even])).min(axis=0)
    else:  # ||s|| <= ||s at the floors|| + sum_j room_j * (best rate per Hz on j)
        extra = s0.sum(axis=1) - s_floor.sum(axis=1)
        bound = tau * s0.sum(axis=1) - sq * (np.sqrt((s_floor * s_floor).sum(axis=1)) + extra)
    while bound.size:
        k = int(np.argmax(bound))
        if bound[k] <= best_f:
            break
        bound[k] = -np.inf
        if sq > 0:  # Fbar is concave in the split: the exact split
            n = allocate_residual(Association(x=on[k].astype(np.int8)), inst).n.sum(axis=1)
        else:  # Fbar is convex in the split: its best vertex
            groups = [np.flatnonzero(on[k, :, j]) for j in range(l) if room[k, j] > 0]
            picked = np.array([np.isin(users, v) for v in itertools.product(*groups)])
            vertices = floors[k] + picked * (on[k] * room[k]).sum(axis=1)
            values = confidence_bound(rate[k] * vertices, tau, obj.sigma, obj.q)
            n = vertices[int(np.argmax(values))]
        f = confidence_bound(rate[k] * n, tau, obj.sigma, obj.q)
        if f > best_f:
            best_f, winner = f, (bs[k], n)
        if sq > 0 and bound.max() > best_f:  # the split's direction bounds the rest too
            bound = np.minimum(bound, linear_max(rate[k] * n))
    row, n = winner
    x = row[:, None] == np.arange(l)
    assoc = Association(x=x.astype(np.int8), unserved=tuple(np.flatnonzero(row == l).tolist()))
    alloc = Allocation(n=np.where(x, n[:, None], 0.0))
    return OracleSolution(assoc, alloc, instance_fbar(assoc, alloc, inst))
