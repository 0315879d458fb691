import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semhetnet.config import ScenarioConfig
from semhetnet.errors import ConfigError
from semhetnet.topology import (Tier, Topology, bit_rate, compute_sinr, generate_topology,
                                path_loss_db)


def test_default_generation_counts():
    top = generate_topology(ScenarioConfig(num_users=200), 1)
    assert top.num_bs == 16
    assert top.num_users == 200
    tiers = list(top.tiers)
    assert tiers.count(Tier.MACRO) == 1
    assert tiers.count(Tier.PICO) == 5
    assert tiers.count(Tier.FEMTO) == 10


def test_macro_at_center_and_nodes_inside_region():
    top = generate_topology(ScenarioConfig(num_users=50), 3)
    assert top.bs_xy[0].tolist() == [0.0, 0.0]
    for xy in (top.bs_xy, top.user_xy):
        assert np.all(np.hypot(xy[:, 0], xy[:, 1]) <= top.region_radius_m + 1e-9)


def test_empty_user_list_is_valid():
    top = generate_topology(ScenarioConfig(num_users=0), 1)
    assert top.num_users == 0
    assert compute_sinr(top).shape == (0, 16)


def test_generation_deterministic():
    a = generate_topology(ScenarioConfig(num_users=30), 7)
    b = generate_topology(ScenarioConfig(num_users=30), 7)
    assert a.to_json() == b.to_json()


def test_user_count_does_not_move_base_stations():
    a = generate_topology(ScenarioConfig(num_users=10), 7)
    b = generate_topology(ScenarioConfig(num_users=200), 7)
    assert np.array_equal(a.bs_xy, b.bs_xy)


def test_zero_base_stations_rejected():
    # the config accepts zero stations of every tier; the topology rejects them
    config = ScenarioConfig(num_users=10, num_macro=0, num_pico=0, num_femto=0)
    with pytest.raises(ConfigError, match="at least one base station"):
        generate_topology(config, 1)


def test_path_loss_values():
    assert path_loss_db(Tier.MACRO, 1.0) == pytest.approx(34.0)
    assert path_loss_db(Tier.PICO, 1.0) == pytest.approx(34.0)
    assert path_loss_db(Tier.FEMTO, 10.0) == pytest.approx(67.0)
    # hand link-budget arithmetic: 34 + 40 * log10(100) = 114 dB
    assert path_loss_db(Tier.MACRO, 100.0) == pytest.approx(114.0)


def test_path_loss_clamps_small_distances():
    assert path_loss_db(Tier.MACRO, 0.0) == path_loss_db(Tier.MACRO, 1.0)
    assert path_loss_db(Tier.FEMTO, 0.5) == path_loss_db(Tier.FEMTO, 1.0)


def _topology(tiers, bs_xy, powers, user_xy, noise=-111.45, budget=2e6):
    return Topology(region_radius_m=500.0, noise_power_dbm=noise, tiers=tiers, bs_xy=bs_xy,
                    tx_power_dbm=powers, budgets=[budget] * len(tiers), user_xy=user_xy)


def test_sinr_single_macro_link_budget():
    gamma = compute_sinr(_topology([Tier.MACRO], [(0.0, 0.0)], [43.0], [(100.0, 0.0)]))
    # SNR = 43 - 114 - (-111.45) = 40.45 dB
    expected = 10 ** ((43.0 - 114.0 + 111.45) / 10.0)
    assert gamma[0, 0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.109e4, rel=1e-3)


def test_sinr_colocated_interferers_below_unity():
    gamma = compute_sinr(_topology([Tier.MACRO] * 2, [(0.0, 0.0)] * 2, [43.0] * 2,
                                   [(100.0, 0.0)]))
    assert np.all(gamma < 1.0)
    assert gamma[0, 0] == pytest.approx(gamma[0, 1], rel=1e-12)


def test_removing_interferer_never_decreases_sinr():
    top = generate_topology(ScenarioConfig(num_users=40), 5)
    gamma = compute_sinr(top)
    reduced = _topology(top.tiers[:-1], top.bs_xy[:-1], top.tx_power_dbm[:-1], top.user_xy,
                        noise=top.noise_power_dbm)
    assert np.all(compute_sinr(reduced) >= gamma[:, :-1] - 1e-18)


def test_sinr_decreases_with_serving_distance():
    # interferer distance held fixed: the user moves on a circle around BS B
    gammas = []
    for angle in (0.0, 0.5, 1.0):
        pos = (200.0 + 150.0 * np.cos(np.pi - angle), 150.0 * np.sin(np.pi - angle))
        top = _topology([Tier.MACRO, Tier.PICO], [(0.0, 0.0), (200.0, 0.0)], [43.0, 35.0], [pos])
        d_a = float(np.hypot(*pos))
        gammas.append((d_a, compute_sinr(top)[0, 0]))
    gammas.sort()
    assert gammas[0][1] > gammas[1][1] > gammas[2][1]


def test_bit_rate_values():
    assert bit_rate(1e6, 3.0) == pytest.approx(2e6)
    assert bit_rate(0.0, 123.0) == 0.0
    assert bit_rate(1e4, 1.0) == pytest.approx(1e4)


def test_bit_rate_rejects_negative_bandwidth():
    with pytest.raises(ValueError):
        bit_rate(-1.0, 2.0)


@given(st.floats(0.0, 1e7), st.floats(1e-6, 1e5))
def test_bit_rate_linear_in_bandwidth(n, gamma):
    assert bit_rate(2 * n, gamma) == pytest.approx(2 * bit_rate(n, gamma), rel=1e-12)


@given(st.floats(1e-6, 1e5), st.floats(1e-6, 1e5))
def test_bit_rate_increasing_in_gamma(g1, g2):
    lo, hi = sorted((g1, g2))
    assert bit_rate(1e6, lo) <= bit_rate(1e6, hi)


@pytest.mark.parametrize("change, match", [
    (dict(region_radius_m=0.0), "radius"),
    (dict(tiers=[], bs_xy=np.zeros((0, 2)), tx_power_dbm=[], budgets=[]), "at least one"),
    (dict(tx_power_dbm=[43.0, 35.0]), "tx_power_dbm"),
    (dict(bs_xy=[(0.0, 0.0, 0.0)]), "bs_xy"),
    (dict(budgets=[0.0]), "budgets must be positive"),
    (dict(budgets=[float("nan")]), "budgets must be positive"),
    (dict(user_xy=[(0.0, 0.0), (400.0, 400.0)]), "user 1 lies outside"),
    (dict(bs_xy=[(600.0, 0.0)]), "base station 0 lies outside"),
])
def test_topology_array_checks(change, match):
    fields = dict(region_radius_m=500.0, noise_power_dbm=-111.45, tiers=[Tier.MACRO],
                  bs_xy=[(0.0, 0.0)], tx_power_dbm=[43.0], budgets=[2e6], user_xy=[(1.0, 0.0)])
    with pytest.raises(ConfigError, match=match):
        Topology(**{**fields, **change})


def test_topology_json_round_trip():
    top = generate_topology(ScenarioConfig(num_users=25), 9)
    doc = json.loads(top.to_json())
    bss = doc["base_stations"]
    again = Topology(
        region_radius_m=doc["region_radius_m"], noise_power_dbm=doc["noise_power_dbm"],
        tiers=[b["tier"] for b in bss], bs_xy=[b["position"] for b in bss],
        tx_power_dbm=[b["tx_power_dbm"] for b in bss],
        budgets=[b["bandwidth_budget_hz"] for b in bss],
        user_xy=[u["position"] for u in doc["users"]],
    )
    assert again.to_json() == top.to_json()
    assert np.array_equal(compute_sinr(again), compute_sinr(top))
