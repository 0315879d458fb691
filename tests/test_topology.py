import numpy as np
import pytest
from hypothesis import given, strategies as st

from semhetnet.errors import ConfigError
from semhetnet.topology import (Tier, Topology, bit_rate, compute_sinr, generate_topology,
                                path_loss_db)


def test_default_generation_counts():
    top = generate_topology(200, seed=1)
    assert top.num_bs == 16
    assert top.num_users == 200
    tiers = [bs.tier for bs in top.base_stations]
    assert tiers.count(Tier.MACRO) == 1
    assert tiers.count(Tier.PICO) == 5
    assert tiers.count(Tier.FEMTO) == 10


def test_macro_at_center_and_nodes_inside_region():
    top = generate_topology(50, seed=3)
    assert top.base_stations[0].position == (0.0, 0.0)
    for node in (*top.base_stations, *top.users):
        assert np.hypot(*node.position) <= top.region_radius_m + 1e-9


def test_empty_user_list_is_valid():
    top = generate_topology(0, seed=1)
    assert top.num_users == 0
    ch = compute_sinr(top)
    assert ch.gamma.shape == (0, 16)


def test_generation_deterministic():
    a = generate_topology(30, seed=7)
    b = generate_topology(30, seed=7)
    assert a.to_dict() == b.to_dict()


def test_user_count_does_not_move_base_stations():
    a = generate_topology(10, seed=7)
    b = generate_topology(200, seed=7)
    assert np.array_equal(a.bs_positions(), b.bs_positions())


def test_zero_base_stations_rejected():
    with pytest.raises(ConfigError):
        generate_topology(10, num_macro=0, num_pico=0, num_femto=0, seed=1)


def test_path_loss_values():
    assert path_loss_db(Tier.MACRO, 1.0) == pytest.approx(34.0)
    assert path_loss_db(Tier.PICO, 1.0) == pytest.approx(34.0)
    assert path_loss_db(Tier.FEMTO, 10.0) == pytest.approx(67.0)
    # hand link-budget arithmetic: 34 + 40 * log10(100) = 114 dB
    assert path_loss_db(Tier.MACRO, 100.0) == pytest.approx(114.0)


def test_path_loss_clamps_small_distances():
    assert path_loss_db(Tier.MACRO, 0.0) == path_loss_db(Tier.MACRO, 1.0)
    assert path_loss_db(Tier.FEMTO, 0.5) == path_loss_db(Tier.FEMTO, 1.0)


def _single_link_topology(distance, noise=-111.45):
    from semhetnet.topology import BaseStation, MobileUser
    bs = BaseStation(id=0, tier=Tier.MACRO, position=(0.0, 0.0), tx_power_dbm=43.0,
                     bandwidth_budget_hz=2e6)
    mu = MobileUser(id=0, position=(distance, 0.0))
    return Topology(region_radius_m=500.0, base_stations=(bs,), users=(mu,),
                    noise_power_dbm=noise)


def test_sinr_single_macro_link_budget():
    ch = compute_sinr(_single_link_topology(100.0))
    # SNR = 43 - 114 - (-111.45) = 40.45 dB
    expected = 10 ** ((43.0 - 114.0 + 111.45) / 10.0)
    assert ch.gamma[0, 0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.109e4, rel=1e-3)


def test_sinr_colocated_interferers_below_unity():
    from semhetnet.topology import BaseStation, MobileUser
    bss = tuple(
        BaseStation(id=j, tier=Tier.MACRO, position=(0.0, 0.0), tx_power_dbm=43.0,
                    bandwidth_budget_hz=2e6)
        for j in range(2)
    )
    top = Topology(region_radius_m=500.0, base_stations=bss,
                   users=(MobileUser(id=0, position=(100.0, 0.0)),))
    ch = compute_sinr(top)
    assert np.all(ch.gamma < 1.0)
    assert ch.gamma[0, 0] == pytest.approx(ch.gamma[0, 1], rel=1e-12)


def test_removing_interferer_never_decreases_sinr():
    top = generate_topology(40, seed=5)
    ch = compute_sinr(top)
    reduced = Topology(
        region_radius_m=top.region_radius_m,
        base_stations=top.base_stations[:-1],
        users=top.users,
        noise_power_dbm=top.noise_power_dbm,
    )
    ch_red = compute_sinr(reduced)
    assert np.all(ch_red.gamma >= ch.gamma[:, :-1] - 1e-18)


def test_sinr_decreases_with_serving_distance():
    from semhetnet.topology import BaseStation, MobileUser
    # interferer distance held fixed: the user moves on a circle around BS B
    bs_a = BaseStation(id=0, tier=Tier.MACRO, position=(0.0, 0.0), tx_power_dbm=43.0,
                       bandwidth_budget_hz=2e6)
    bs_b = BaseStation(id=1, tier=Tier.PICO, position=(200.0, 0.0), tx_power_dbm=35.0,
                       bandwidth_budget_hz=2e6)
    gammas = []
    for angle in (0.0, 0.5, 1.0):
        pos = (200.0 + 150.0 * np.cos(np.pi - angle), 150.0 * np.sin(np.pi - angle))
        top = Topology(region_radius_m=500.0, base_stations=(bs_a, bs_b),
                       users=(MobileUser(id=0, position=pos),))
        d_a = float(np.hypot(*pos))
        gammas.append((d_a, compute_sinr(top).gamma[0, 0]))
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


def test_topology_json_round_trip():
    top = generate_topology(25, seed=9)
    again = Topology.from_json(top.to_json())
    assert again.to_dict() == top.to_dict()
    assert np.array_equal(compute_sinr(again).gamma, compute_sinr(top).gamma)
