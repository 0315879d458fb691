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


@dataclass(frozen=True)
class BaseStation:
    id: int
    tier: Tier
    position: tuple  # (x, y) in meters
    tx_power_dbm: float
    bandwidth_budget_hz: float

    def __post_init__(self):
        if self.bandwidth_budget_hz <= 0:
            raise ConfigError(f"BS {self.id}: bandwidth budget must be positive")


@dataclass(frozen=True)
class MobileUser:
    id: int
    position: tuple  # (x, y) in meters


@dataclass(frozen=True)
class Topology:
    """Immutable scenario geometry; list order defines matrix indexing."""

    region_radius_m: float
    base_stations: tuple
    users: tuple
    noise_power_dbm: float = DEFAULT_NOISE_POWER_DBM

    def __post_init__(self):
        if self.region_radius_m <= 0:
            raise ConfigError("region radius must be positive")
        if not self.base_stations:
            raise ConfigError("topology needs at least one base station")
        limit = self.region_radius_m * (1.0 + 1e-9)
        for node in (*self.base_stations, *self.users):
            if float(np.hypot(*node.position)) > limit:
                raise ConfigError(f"node {node.id} lies outside the region")

    @property
    def num_bs(self):
        return len(self.base_stations)

    @property
    def num_users(self):
        return len(self.users)

    def bs_positions(self):
        return np.array([bs.position for bs in self.base_stations], dtype=float)

    def user_positions(self):
        if not self.users:
            return np.zeros((0, 2))
        return np.array([mu.position for mu in self.users], dtype=float)

    def budgets(self):
        return np.array([bs.bandwidth_budget_hz for bs in self.base_stations], dtype=float)

    def tx_powers_dbm(self):
        return np.array([bs.tx_power_dbm for bs in self.base_stations], dtype=float)

    def to_dict(self):
        return {
            "region_radius_m": self.region_radius_m,
            "noise_power_dbm": self.noise_power_dbm,
            "base_stations": [
                {
                    "id": bs.id,
                    "tier": bs.tier.value,
                    "position": list(bs.position),
                    "tx_power_dbm": bs.tx_power_dbm,
                    "bandwidth_budget_hz": bs.bandwidth_budget_hz,
                }
                for bs in self.base_stations
            ],
            "users": [{"id": mu.id, "position": list(mu.position)} for mu in self.users],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            bss = tuple(
                BaseStation(
                    id=int(b["id"]),
                    tier=Tier(b["tier"]),
                    position=(float(b["position"][0]), float(b["position"][1])),
                    tx_power_dbm=float(b["tx_power_dbm"]),
                    bandwidth_budget_hz=float(b["bandwidth_budget_hz"]),
                )
                for b in data["base_stations"]
            )
            mus = tuple(
                MobileUser(id=int(u["id"]), position=(float(u["position"][0]), float(u["position"][1])))
                for u in data["users"]
            )
            return cls(
                region_radius_m=float(data["region_radius_m"]),
                base_stations=bss,
                users=mus,
                noise_power_dbm=float(data["noise_power_dbm"]),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise ConfigError(f"bad topology document: {exc!r}") from exc

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class ChannelState:
    """Linear-scale SINR matrix, one row per user, one column per BS."""

    gamma: np.ndarray


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
    if region_radius_m <= 0:
        raise ConfigError("region radius must be positive")
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
    bs_xy = np.concatenate(positions, axis=0)

    base_stations = tuple(
        BaseStation(
            id=j,
            tier=tiers[j],
            position=(float(bs_xy[j, 0]), float(bs_xy[j, 1])),
            tx_power_dbm=powers[tiers[j]],
            bandwidth_budget_hz=float(bandwidth_budget_hz),
        )
        for j in range(len(tiers))
    )
    mu_xy = _uniform_disc(mu_rng, num_users, region_radius_m)
    users = tuple(
        MobileUser(id=i, position=(float(mu_xy[i, 0]), float(mu_xy[i, 1]))) for i in range(num_users)
    )
    return Topology(
        region_radius_m=float(region_radius_m),
        base_stations=base_stations,
        users=users,
        noise_power_dbm=float(noise_power_dbm),
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

    Returns
    -------
    ChannelState
        gamma[i, j] = P_rx(i, j) / (noise + sum_{k != j} P_rx(i, k)), all
        in linear watts.
    """
    L = topology.num_bs
    M = topology.num_users
    if M == 0:
        return ChannelState(np.zeros((0, L)))
    d = np.linalg.norm(
        topology.user_positions()[:, None, :] - topology.bs_positions()[None, :, :], axis=2
    )
    loss = np.empty_like(d)
    for tier in Tier:
        cols = [j for j, bs in enumerate(topology.base_stations) if bs.tier is tier]
        if cols:
            loss[:, cols] = path_loss_db(tier, d[:, cols])
    rx_w = dbm_to_watts(topology.tx_powers_dbm()[None, :] - loss)
    total = rx_w.sum(axis=1, keepdims=True)
    noise_w = dbm_to_watts(topology.noise_power_dbm)
    gamma = rx_w / (noise_w + total - rx_w)
    return ChannelState(gamma)


def bit_rate(bandwidth_hz, gamma):
    """Shannon bit-rate n * log2(1 + gamma); linear in bandwidth."""
    n = np.asarray(bandwidth_hz, dtype=float)
    if np.any(n < 0):
        raise ValueError("bandwidth must be nonnegative")
    return n * np.log2(1.0 + np.asarray(gamma, dtype=float))
