from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semhetnet import semantics
from semhetnet.config import ScenarioConfig
from semhetnet.errors import ConfigError
from semhetnet.seeding import substream
from semhetnet.semantics import (ETA_BLOCK, ETA_CLAMP_EPS, FeasibleSets, assign_knowledge,
                                 eta_blocks, feasible_bs_sets, fill_eta)
from semhetnet.solver import make_instance
from semhetnet.topology import generate_topology


@pytest.fixture(scope="module")
def small_topology():
    return generate_topology(ScenarioConfig(num_users=20, num_pico=2, num_femto=3), 4)


def domains(num_domains, kb_per_bs, needs_per_mu):
    return ScenarioConfig(num_domains=num_domains, kb_per_bs=kb_per_bs,
                          needs_per_mu=needs_per_mu)


def draw_eta(tau, sigma, n, seed=0):
    return fill_eta(substream(seed, "eta"), tau, sigma, np.empty(n))


def test_single_domain_everyone_matches(small_topology):
    kb, needs = assign_knowledge(domains(1, 1, 1), small_topology, 1)
    assert kb.shape == (small_topology.num_bs, 1) and kb.all()
    assert needs.shape == (small_topology.num_users, 1) and needs.all()
    assert feasible_bs_sets(kb, needs).mask().all()


def test_full_coverage_all_bs_feasible(small_topology):
    kb, needs = assign_knowledge(domains(10, 10, 3), small_topology, 2)
    assert kb.all() and (needs.sum(axis=1) == 3).all()
    assert feasible_bs_sets(kb, needs).mask().all()


def test_assignment_deterministic(small_topology):
    a = assign_knowledge(domains(4, 2, 1), small_topology, 11)
    b = assign_knowledge(domains(4, 2, 1), small_topology, 11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def reference_assign_knowledge(config, num_bs, num_users, seed):
    """The per-row `rng.choice` loop for every subset size, and each
    substream's generator state after its draws."""
    k = config.num_domains
    kb = np.zeros((num_bs, k), dtype=bool)
    needs = np.zeros((num_users, k), dtype=bool)
    states = []
    for rows, size, name in ((kb, config.kb_per_bs, "bs-knowledge"),
                             (needs, config.needs_per_mu, "mu-knowledge")):
        rng = substream(seed, name)
        for row in rows:
            row[rng.choice(k, size=size, replace=False)] = True
        states.append(rng.bit_generator.state)
    return kb, needs, states


@pytest.mark.parametrize("num_domains", list(range(1, 13)) + [10**4])
def test_one_domain_subsets_drawn_at_once_match_the_per_row_choice_loop(monkeypatch,
                                                                        num_domains):
    # A numpy whose choice(k, size=1, replace=False) stops drawing one bounded
    # integer per row fails here, instead of changing every scenario.
    handed_out = []

    def recording_substream(seed, name):
        rng = substream(seed, name)
        handed_out.append(rng)
        return rng

    monkeypatch.setattr(semantics, "substream", recording_substream)
    k = num_domains
    users = (0, 1, 7, 200) if k == 10**4 else (0, 1, 7, 200, 3000)
    for kb_per_bs in sorted({1, min(3, k)}):  # BS subsets of one domain, and the loop
        config = domains(k, kb_per_bs, 1)
        for num_users in users:
            for seed in (1, 2, 9):
                handed_out.clear()
                topology = SimpleNamespace(num_bs=16, num_users=num_users)
                kb, needs = assign_knowledge(config, topology, seed)
                want_kb, want_needs, want_states = reference_assign_knowledge(
                    config, 16, num_users, seed)
                assert np.array_equal(kb, want_kb) and np.array_equal(needs, want_needs)
                assert [rng.bit_generator.state for rng in handed_out] == want_states


def test_parameter_range_validation():
    # the config rejects subset sizes outside [1, num_domains]
    with pytest.raises(ConfigError, match="kb_per_bs"):
        domains(4, 0, 1)
    with pytest.raises(ConfigError, match="needs_per_mu"):
        domains(4, 2, 5)


def test_strict_dominance_single_winner():
    fs = feasible_bs_sets(np.array([[True, True], [True, False]]), np.array([[True, True]]))
    assert fs.mask().tolist() == [[True, False]]


def test_identical_kbs_keep_all_maximizers():
    kb = np.array([[True, True, False]] * 4)
    fs = feasible_bs_sets(kb, np.array([[False, True, False], [False, False, True]]))
    assert fs.mask().tolist() == [[True] * 4, [True] * 4]


def test_user_without_needs_rejected():
    with pytest.raises(ConfigError, match="at least one domain"):
        feasible_bs_sets(np.ones((2, 3), dtype=bool), np.zeros((1, 3), dtype=bool))


def test_feasible_mask_shape(small_topology):
    fs = feasible_bs_sets(*assign_knowledge(domains(3, 2, 1), small_topology, 5))
    mask = fs.mask()
    assert mask.dtype == bool
    assert mask.shape == (small_topology.num_users, small_topology.num_bs)
    assert mask.any(axis=1).all()


def reference_feasible_mask(bs_kbs, mu_needs):
    """Per-user argmax of |KB(j) & needs(i)|, ties kept: the definition, looped."""
    rows = []
    for need in mu_needs:
        overlap = np.array([len(kb & need) for kb in bs_kbs])
        rows.append(overlap == overlap.max())
    return np.array(rows, dtype=bool).reshape(len(mu_needs), len(bs_kbs))


def membership(subsets, k):
    return np.array([[d in s for d in range(k)] for s in subsets], dtype=bool).reshape(-1, k)


@st.composite
def knowledge_models(draw):
    k = draw(st.integers(1, 5))
    labels = st.integers(0, k - 1)
    bs_kbs = draw(st.lists(st.frozensets(labels, max_size=k), min_size=1, max_size=5))
    mu_needs = draw(st.lists(st.frozensets(labels, min_size=1, max_size=k), max_size=6))
    return k, bs_kbs, mu_needs


@given(knowledge_models())
def test_feasible_mask_matches_bruteforce_argmax(model):
    k, bs_kbs, mu_needs = model
    mask = feasible_bs_sets(membership(bs_kbs, k), membership(mu_needs, k)).mask()
    assert np.array_equal(mask, reference_feasible_mask(bs_kbs, mu_needs))
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[..., 0] = False


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_feasible_sets_reject_user_without_bs(m, l, data):
    links = np.ones((m, l), dtype=bool)
    links[data.draw(st.integers(0, m - 1))] = False
    with pytest.raises(ConfigError):
        FeasibleSets(links)


def test_feasible_sets_reject_non_matrix():
    with pytest.raises(ConfigError):
        FeasibleSets(np.ones(3, dtype=bool))


def test_profile_rejects_nonpositive_coefficients():
    gamma = np.ones((2, 1))
    fs = FeasibleSets(np.ones((2, 1), dtype=bool))
    for kappa in (0.0, [1e-3, -1e-3], float("nan")):
        with pytest.raises(ConfigError, match="msg_per_bit"):
            make_instance(gamma, fs, kappa, [2e6], 1e4, 0.5, 0.1, 0.95)


def test_eta_sampling_statistics():
    draws = draw_eta(0.5, 0.1, 1_000_000, seed=3)
    # Monte Carlo standard error is about 1e-4
    assert abs(draws.mean() - 0.5) < 1e-3
    clamped = np.mean((draws <= 1e-9) | (draws >= 1.0 - 1e-9))
    assert clamped < 1e-6  # Gaussian 5-sigma tails
    assert np.all(draws > 0.0) and np.all(draws < 1.0)


@pytest.mark.parametrize("tau, sigma", [(0.5, 0.1), (0.3, 0.4), (0.5, 0.0)])
def test_fill_eta_matches_normal_and_clip(tau, sigma):
    # in-place scaling of standard normals gives rng.normal's values, and
    # blocks of a stream, the last one partial, the draws of one call
    total = 2 * ETA_BLOCK + 1234
    want = substream(8, "eta").normal(tau, sigma, size=total)
    np.clip(want, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS, out=want)
    got = fill_eta(substream(8, "eta"), tau, sigma, np.empty(total))
    assert got.tobytes() == want.tobytes()
    blocks = [b.copy() for b in eta_blocks(substream(8, "eta"), tau, sigma, total)]
    assert [len(b) for b in blocks] == [ETA_BLOCK, ETA_BLOCK, 1234]
    assert np.concatenate(blocks).ravel().tobytes() == want.tobytes()


def test_eta_sampling_rejects_negative_sigma():
    with pytest.raises(ValueError):
        draw_eta(0.5, -0.1, 3)


def test_eta_blocks_reuse_one_buffer_of_fixed_size():
    blocks = list(eta_blocks(substream(1, "chance"), 0.5, 0.1, 1000, width=3000))
    assert len(blocks) == -(-1000 // (ETA_BLOCK // 3000))
    assert all(b.base is blocks[0].base for b in blocks)
    assert blocks[0].base.size <= ETA_BLOCK


def test_antithetic_eta_blocks_pair_each_normal_row_in_half_buffers():
    # 1001 rows at width 3000 are 501 pairs, 10 per block: 51 blocks of z,
    # each giving tau + sigma z and tau - sigma z, the very last row dropped
    tau, sigma, rows = 0.5, 0.3, 1001
    blocks = list(eta_blocks(substream(1, "chance"), tau, sigma, rows, width=3000,
                             antithetic=True))
    per_block = ETA_BLOCK // 2 // 3000
    assert len(blocks) == 2 * -(-501 // per_block)
    assert all(b.base is blocks[0].base for b in blocks)
    assert blocks[0].base.size <= ETA_BLOCK // 2
    assert sum(len(b) for b in blocks) == rows and len(blocks[-1]) == len(blocks[-2]) - 1
    z = substream(1, "chance").standard_normal(size=(501, 3000))
    plus, minus = (np.clip(tau + sign * sigma * z, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS)
                   for sign in (1, -1))
    blocks = [b.copy() for b in eta_blocks(substream(1, "chance"), tau, sigma, rows,
                                           width=3000, antithetic=True)]
    assert np.concatenate(blocks[::2]).tobytes() == plus.tobytes()
    assert np.concatenate(blocks[1::2]).tobytes() == minus[:-1].tobytes()


def test_antithetic_eta_blocks_reject_negative_sigma():
    with pytest.raises(ValueError):
        next(eta_blocks(substream(1, "chance"), 0.5, -0.1, 4, antithetic=True))


def test_eta_sampling_deterministic():
    assert np.array_equal(draw_eta(0.4, 0.2, 100, seed=9), draw_eta(0.4, 0.2, 100, seed=9))


def test_matching_scales_perfect_curve():
    etas = draw_eta(0.5, 0.1, 5, seed=2)
    for b in (0.0, 1e3, 5e6):
        for i in range(5):
            perfect = ScenarioConfig().msg_per_bit * b
            matched = etas[i] * perfect
            assert matched == pytest.approx(etas[i] * perfect)
            if b > 0:
                assert matched < perfect  # eta strictly below one
