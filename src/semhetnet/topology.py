"""Multi-tier cellular topology, path loss, SINR, and Shannon bit-rate.

Base stations and users live in a circular region. Every non-serving base
station interferes at full transmit power on the shared band, so the SINR
matrix is a fixed property of the geometry and can be computed once per
scenario.
"""

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .seeding import substream

# Path-loss models are undefined at d -> 0; distances are clamped here.
MIN_DISTANCE_M = 1.0

DEFAULT_NOISE_POWER_DBM = -111.45
DEFAULT_BANDWIDTH_BUDGET_HZ = 2e6


class Tier(str, Enum):
    MACRO = "macro"
    PICO = "pico"
    FEMTO = "femto"


DEFAULT_TIER_POWER_DBM = {Tier.MACRO: 43.0, Tier.PICO: 35.0, Tier.FEMTO: 20.0}


def dbm_to_watts(power_dbm):
    """Convert dBm to linear watts (scalar or array)."""
    return 10.0 ** ((np.asarray(power_dbm, dtype=float) - 30.0) / 10.0)


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable scenario geometry as arrays; row order defines matrix indexing.

    tiers, bs_xy (L x 2, meters), tx_power_dbm and budgets (Hz) hold one
    entry per base station; user_xy (M x 2, meters) one row per user.
    """

    region_radius_m: float
    noise_power_dbm: float
    tiers: tuple
    bs_xy: np.ndarray
    tx_power_dbm: np.ndarray
    budgets: np.ndarray
    user_xy: np.ndarray

    def __post_init__(self):
        if not self.region_radius_m > 0:
            raise ConfigError("region radius must be positive")
        num_bs = len(self.tiers)
        if num_bs == 0:
            raise ConfigError("topology needs at least one base station")
        object.__setattr__(self, "tiers", tuple(Tier(t) for t in self.tiers))
        shapes = {"bs_xy": (num_bs, 2), "tx_power_dbm": (num_bs,), "budgets": (num_bs,),
                  "user_xy": (len(self.user_xy), 2)}
        for name, shape in shapes.items():
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ConfigError(f"{name} must have shape {shape}: one row per node")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if not np.all(self.budgets > 0):
            raise ConfigError("bandwidth budgets must be positive")
        limit = self.region_radius_m * (1.0 + 1e-9)
        for kind, xy in (("base station", self.bs_xy), ("user", self.user_xy)):
            outside = np.flatnonzero(~(np.hypot(xy[:, 0], xy[:, 1]) <= limit))
            if outside.size:
                raise ConfigError(f"{kind} {outside[0]} lies outside the region")

    @property
    def num_bs(self):
        return len(self.tiers)

    @property
    def num_users(self):
        return len(self.user_xy)

    def to_json(self):
        """The topology document that `semhetnet gen` writes."""
        return json.dumps({
            "region_radius_m": self.region_radius_m,
            "noise_power_dbm": self.noise_power_dbm,
            "base_stations": [
                {"id": j, "tier": tier.value, "position": xy, "tx_power_dbm": power,
                 "bandwidth_budget_hz": budget}
                for j, (tier, xy, power, budget) in enumerate(zip(
                    self.tiers, self.bs_xy.tolist(), self.tx_power_dbm.tolist(),
                    self.budgets.tolist()))
            ],
            "users": [{"id": i, "position": xy} for i, xy in enumerate(self.user_xy.tolist())],
        }, indent=2)


def _uniform_disc(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def generate_topology(
    num_users,
    *,
    region_radius_m=500.0,
    num_macro=1,
    num_pico=5,
    num_femto=10,
    tier_powers_dbm=None,
    bandwidth_budget_hz=DEFAULT_BANDWIDTH_BUDGET_HZ,
    noise_power_dbm=DEFAULT_NOISE_POWER_DBM,
    seed=0,
):
    """Place one macro BS at the center and everything else uniformly in the disc.

    Deterministic for a fixed seed: BS placement and user placement come
    from separate substreams, so changing ``num_users`` does not move the
    base stations.
    """
    if num_users < 0 or num_macro < 0 or num_pico < 0 or num_femto < 0:
        raise ConfigError("counts must be nonnegative")
    if num_macro + num_pico + num_femto == 0:
        raise ConfigError("at least one base station is required")
    powers = dict(DEFAULT_TIER_POWER_DBM)
    if tier_powers_dbm:
        powers.update({Tier(k): float(v) for k, v in tier_powers_dbm.items()})

    bs_rng = substream(seed, "bs-placement")
    mu_rng = substream(seed, "mu-placement")

    positions = []
    tiers = []
    if num_macro:
        positions.append(np.zeros((1, 2)))
        tiers.extend([Tier.MACRO])
        if num_macro > 1:
            positions.append(_uniform_disc(bs_rng, num_macro - 1, region_radius_m))
            tiers.extend([Tier.MACRO] * (num_macro - 1))
    if num_pico:
        positions.append(_uniform_disc(bs_rng, num_pico, region_radius_m))
        tiers.extend([Tier.PICO] * num_pico)
    if num_femto:
        positions.append(_uniform_disc(bs_rng, num_femto, region_radius_m))
        tiers.extend([Tier.FEMTO] * num_femto)
    return Topology(
        region_radius_m=float(region_radius_m),
        noise_power_dbm=float(noise_power_dbm),
        tiers=tuple(tiers),
        bs_xy=np.concatenate(positions, axis=0),
        tx_power_dbm=[powers[t] for t in tiers],
        budgets=np.full(len(tiers), float(bandwidth_budget_hz)),
        user_xy=_uniform_disc(mu_rng, num_users, region_radius_m),
    )


def path_loss_db(tier, distance_m):
    """Distance-based path loss in dB.

    Macro and pico cells follow 34 + 40 log10(d); femto cells follow
    37 + 30 log10(d), with d in meters clamped to ``MIN_DISTANCE_M``.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M)
    if Tier(tier) is Tier.FEMTO:
        return 37.0 + 30.0 * np.log10(d)
    return 34.0 + 40.0 * np.log10(d)


def compute_sinr(topology):
    """SINR of every (user, BS) link with all non-serving BSs interfering.

    Returns gamma, users x BSs, with gamma[i, j] = P_rx(i, j) / (noise +
    sum_{k != j} P_rx(i, k)), all in linear watts.
    """
    d = np.linalg.norm(topology.user_xy[:, None, :] - topology.bs_xy[None, :, :], axis=2)
    loss = np.empty_like(d)
    for tier in Tier:
        cols = [j for j, t in enumerate(topology.tiers) if t is tier]
        if cols:
            loss[:, cols] = path_loss_db(tier, d[:, cols])
    rx_w = dbm_to_watts(topology.tx_power_dbm[None, :] - loss)
    total = rx_w.sum(axis=1, keepdims=True)
    noise_w = dbm_to_watts(topology.noise_power_dbm)
    # a link whose noise and interference round away gets SINR inf, which
    # make_instance rejects as a config error
    with np.errstate(divide="ignore"):
        return rx_w / (noise_w + total - rx_w)


def bit_rate(bandwidth_hz, gamma):
    """Shannon bit-rate n * log2(1 + gamma); linear in bandwidth."""
    n = np.asarray(bandwidth_hz, dtype=float)
    if np.any(n < 0):
        raise ValueError("bandwidth must be nonnegative")
    return n * np.log2(1.0 + np.asarray(gamma, dtype=float))
