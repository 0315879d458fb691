"""Knowledge bases, feasible BS sets, and the stochastic knowledge-matching
coefficient."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seeding import substream

# Knowledge-matching draws must stay inside the open interval (0, 1).
ETA_CLAMP_EPS = 1e-9
ETA_BLOCK = 2**16  # draws held at once in eta_blocks' reused buffers (512 KB)


def fill_eta(rng, tau, sigma, out):
    """Fill `out` in place with eta ~ N(tau, sigma^2) from rng, clamped into
    (0, 1): rng.normal's values, whether drawn at once or block by block."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng.standard_normal(out=out)
    out *= sigma
    out += tau
    return np.clip(out, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS, out=out)


def eta_blocks(rng, tau, sigma, rows, width=1, antithetic=False):
    """Yield `rows` rows of `width` clamped eta ~ N(tau, sigma^2) as views of
    buffers of about ETA_BLOCK draws in all, each overwritten by the next:
    fixed memory.

    Independent rows are `fill_eta`'s. Antithetic rows come from ceil(rows / 2)
    standard-normal rows z, in buffers of ETA_BLOCK / 2 draws for z and for
    eta: each block of z yields clip(tau + sigma z), then clip(tau - sigma z);
    for an odd `rows` the last z's second row is dropped.
    """
    if not antithetic:
        block = np.empty((max(1, ETA_BLOCK // max(1, width)), width))
        for done in range(0, rows, len(block)):
            yield fill_eta(rng, tau, sigma, block[:rows - done])
        return
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    z = np.empty((max(1, ETA_BLOCK // 2 // max(1, width)), width))
    eta = np.empty_like(z)
    pairs = -(-rows // 2)
    for done in range(0, pairs, len(z)):
        sz = z[:pairs - done]
        rng.standard_normal(out=sz)
        sz *= sigma
        minus = min(len(sz), rows - 2 * done - len(sz))
        for op, count in ((np.add, len(sz)), (np.subtract, minus)):
            out = op(tau, sz[:count], out=eta[:count])
            yield np.clip(out, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS, out=out)


@dataclass(frozen=True, eq=False)
class FeasibleSets:
    """Users x BSs boolean mask: links[i, j] is True when BS j achieves
    user i's maximum knowledge overlap. Stored read-only."""

    links: np.ndarray

    def __post_init__(self):
        links = np.array(self.links, dtype=bool)
        if links.ndim != 2:
            raise ConfigError("feasible sets must be a users x BSs mask")
        empty = np.flatnonzero(~links.any(axis=1))
        if empty.size:
            raise ConfigError(f"user {empty[0]} has an empty feasible set")
        links.flags.writeable = False
        object.__setattr__(self, "links", links)

    def mask(self):
        return self.links


def assign_knowledge(config, topology, seed):
    """Draw uniform random subsets of a `ScenarioConfig`'s domains for every
    BS (kb_per_bs each) and every user (needs_per_mu each).

    Returns boolean membership matrices (kb: BSs x K, needs: users x K);
    kb[j, k] is True when BS j hosts domain k. Subsets of one domain are
    drawn in one `rng.integers(k, size=rows)` call: per row, the same bounded
    integer `rng.choice(k, size=1, replace=False)` draws, with the same state
    after. Larger subsets are drawn row by row with `rng.choice`.
    """
    k = config.num_domains
    kb = np.zeros((topology.num_bs, k), dtype=bool)
    needs = np.zeros((topology.num_users, k), dtype=bool)
    for rows, size, name in ((kb, config.kb_per_bs, "bs-knowledge"),
                             (needs, config.needs_per_mu, "mu-knowledge")):
        rng = substream(seed, name)
        if size == 1:
            rows[np.arange(len(rows)), rng.integers(k, size=len(rows))] = True
            continue
        for row in rows:
            row[rng.choice(k, size=size, replace=False)] = True
    return kb, needs


def feasible_bs_sets(kb, needs):
    """All base stations that maximize |KB(j) ∩ needs(i)|, ties included."""
    if not np.all(np.any(needs, axis=1)):
        raise ConfigError("every user must need at least one domain")
    overlap = needs @ np.asarray(kb, dtype=float).T
    # Overlaps are never negative, so initial=0 only matters when kb has no rows.
    return FeasibleSets(overlap == overlap.max(axis=1, keepdims=True, initial=0.0))

