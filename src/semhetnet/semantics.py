"""Knowledge bases, feasible BS sets, bit-to-message profiles, and the
stochastic knowledge-matching coefficient."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seeding import substream

# Knowledge-matching draws must stay inside the open interval (0, 1).
ETA_CLAMP_EPS = 1e-9

# Roughly a 20-word sentence at 10 bits/word plus coding overhead.
DEFAULT_MSG_PER_BIT = 1.0 / 1600.0


@dataclass(frozen=True)
class KnowledgeModel:
    """Which knowledge domains each BS hosts and each user needs."""

    num_domains: int
    bs_kbs: tuple  # per-BS frozenset of domain labels in 1..K
    mu_needs: tuple  # per-MU frozenset of domain labels in 1..K

    def __post_init__(self):
        if self.num_domains < 1:
            raise ConfigError("num_domains must be >= 1")
        domains = set(range(1, self.num_domains + 1))
        for kb in self.bs_kbs:
            if not set(kb) <= domains:
                raise ConfigError("BS knowledge base outside domain range")
        for need in self.mu_needs:
            if not need:
                raise ConfigError("every user must need at least one domain")
            if not set(need) <= domains:
                raise ConfigError("user needs outside domain range")


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

    @property
    def num_bs(self):
        return self.links.shape[1]

    @property
    def num_users(self):
        return self.links.shape[0]

    def mask(self):
        return self.links


def assign_knowledge(num_domains, kb_per_bs, needs_per_mu, topology, seed=0):
    """Draw uniform random domain subsets for every BS and every user."""
    if not 1 <= kb_per_bs <= num_domains:
        raise ConfigError("kb_per_bs must lie in [1, num_domains]")
    if not 1 <= needs_per_mu <= num_domains:
        raise ConfigError("needs_per_mu must lie in [1, num_domains]")
    bs_rng = substream(seed, "bs-knowledge")
    mu_rng = substream(seed, "mu-knowledge")
    bs_kbs = tuple(
        frozenset(int(v) + 1 for v in bs_rng.choice(num_domains, size=kb_per_bs, replace=False))
        for _ in range(topology.num_bs)
    )
    mu_needs = tuple(
        frozenset(int(v) + 1 for v in mu_rng.choice(num_domains, size=needs_per_mu, replace=False))
        for _ in range(topology.num_users)
    )
    return KnowledgeModel(num_domains=num_domains, bs_kbs=bs_kbs, mu_needs=mu_needs)


def _indicator(subsets, num_domains):
    """0/1 matrix whose row r marks the domain labels (1..K) in subsets[r]."""
    out = np.zeros((len(subsets), num_domains + 1))
    rows = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    out[rows, np.fromiter((k for s in subsets for k in s), dtype=int, count=rows.size)] = 1.0
    return out


def feasible_bs_sets(model):
    """All base stations that maximize |KB(j) ∩ needs(i)|, ties included."""
    need = _indicator(model.mu_needs, model.num_domains)
    kb = _indicator(model.bs_kbs, model.num_domains)
    overlap = need @ kb.T
    # initial=0 keeps a model without users valid; overlaps are never negative.
    return FeasibleSets(overlap == overlap.max(axis=1, keepdims=True, initial=0.0))


@dataclass(frozen=True, eq=False)
class B2mProfile:
    """Linear bit-to-message transformation: rate_i(b) = msg_per_bit[i] * b."""

    msg_per_bit: np.ndarray

    def __post_init__(self):
        kappa = np.asarray(self.msg_per_bit, dtype=float)
        if np.any(kappa <= 0):
            raise ConfigError("msg_per_bit coefficients must be positive")
        object.__setattr__(self, "msg_per_bit", kappa)

    @classmethod
    def uniform(cls, num_users, msg_per_bit=DEFAULT_MSG_PER_BIT):
        return cls(np.full(num_users, float(msg_per_bit)))


@dataclass(frozen=True)
class EtaModel:
    """Gaussian knowledge-matching coefficient: eta ~ N(tau, sigma^2)."""

    tau: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")
        if self.sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")


def sample_eta(model, num_users, seed=0):
    """Draw i.i.d. matching coefficients, clamped into (0, 1)."""
    rng = substream(seed, "eta")
    draws = rng.normal(model.tau, model.sigma, size=num_users)
    np.clip(draws, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS, out=draws)
    return draws
