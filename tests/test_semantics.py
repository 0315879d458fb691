import numpy as np
import pytest
from hypothesis import given, strategies as st

from semhetnet.errors import ConfigError
from semhetnet.semantics import (B2mProfile, EtaModel, FeasibleSets, KnowledgeModel,
                                 assign_knowledge, feasible_bs_sets, sample_eta)
from semhetnet.topology import generate_topology


@pytest.fixture(scope="module")
def small_topology():
    return generate_topology(20, num_pico=2, num_femto=3, seed=4)


def test_single_domain_everyone_matches(small_topology):
    model = assign_knowledge(1, 1, 1, small_topology, seed=1)
    assert all(kb == frozenset({1}) for kb in model.bs_kbs)
    assert all(need == frozenset({1}) for need in model.mu_needs)
    fs = feasible_bs_sets(model)
    assert fs.mask().all()


def test_full_coverage_all_bs_feasible(small_topology):
    model = assign_knowledge(10, 10, 3, small_topology, seed=2)
    fs = feasible_bs_sets(model)
    assert fs.mask().all()


def test_assignment_deterministic(small_topology):
    a = assign_knowledge(4, 2, 1, small_topology, seed=11)
    b = assign_knowledge(4, 2, 1, small_topology, seed=11)
    assert a == b


def test_parameter_range_validation(small_topology):
    with pytest.raises(ConfigError):
        assign_knowledge(4, 0, 1, small_topology, seed=1)
    with pytest.raises(ConfigError):
        assign_knowledge(4, 2, 5, small_topology, seed=1)


def test_strict_dominance_single_winner():
    model = KnowledgeModel(num_domains=2,
                           bs_kbs=(frozenset({1, 2}), frozenset({1})),
                           mu_needs=(frozenset({1, 2}),))
    fs = feasible_bs_sets(model)
    assert fs.mask().tolist() == [[True, False]]


def test_identical_kbs_keep_all_maximizers():
    model = KnowledgeModel(num_domains=3,
                           bs_kbs=(frozenset({1, 2}),) * 4,
                           mu_needs=(frozenset({2}), frozenset({3})))
    fs = feasible_bs_sets(model)
    assert fs.mask().tolist() == [[True] * 4, [True] * 4]


def test_feasible_mask_shape(small_topology):
    model = assign_knowledge(3, 2, 1, small_topology, seed=5)
    fs = feasible_bs_sets(model)
    mask = fs.mask()
    assert mask.dtype == bool
    assert mask.shape == (small_topology.num_users, small_topology.num_bs)
    assert (fs.num_users, fs.num_bs) == mask.shape
    assert mask.any(axis=1).all()


def reference_feasible_mask(model):
    """Per-user argmax of |KB(j) & needs(i)|, ties kept: the definition, looped."""
    rows = []
    for need in model.mu_needs:
        overlap = np.array([len(kb & need) for kb in model.bs_kbs])
        rows.append(overlap == overlap.max())
    return np.array(rows, dtype=bool).reshape(len(model.mu_needs), len(model.bs_kbs))


@st.composite
def knowledge_models(draw):
    k = draw(st.integers(1, 5))
    labels = st.integers(1, k)
    bs_kbs = draw(st.lists(st.frozensets(labels, max_size=k), min_size=1, max_size=5))
    mu_needs = draw(st.lists(st.frozensets(labels, min_size=1, max_size=k), max_size=6))
    return KnowledgeModel(num_domains=k, bs_kbs=tuple(bs_kbs), mu_needs=tuple(mu_needs))


@given(knowledge_models())
def test_feasible_mask_matches_bruteforce_argmax(model):
    mask = feasible_bs_sets(model).mask()
    assert np.array_equal(mask, reference_feasible_mask(model))
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
    with pytest.raises(ConfigError):
        B2mProfile(np.array([0.0]))


def test_eta_model_validation():
    with pytest.raises(ConfigError):
        EtaModel(tau=0.0, sigma=0.1)
    with pytest.raises(ConfigError):
        EtaModel(tau=0.5, sigma=-0.1)


def test_eta_sampling_statistics():
    model = EtaModel(tau=0.5, sigma=0.1)
    draws = sample_eta(model, 1_000_000, seed=3)
    # Monte Carlo standard error is about 1e-4
    assert abs(draws.mean() - 0.5) < 1e-3
    clamped = np.mean((draws <= 1e-9) | (draws >= 1.0 - 1e-9))
    assert clamped < 1e-6  # Gaussian 5-sigma tails
    assert np.all(draws > 0.0) and np.all(draws < 1.0)


def test_eta_sampling_deterministic():
    model = EtaModel(tau=0.4, sigma=0.2)
    assert np.array_equal(sample_eta(model, 100, seed=9), sample_eta(model, 100, seed=9))


def test_matching_scales_perfect_curve():
    profile = B2mProfile.uniform(5)
    model = EtaModel(tau=0.5, sigma=0.1)
    etas = sample_eta(model, 5, seed=2)
    for b in (0.0, 1e3, 5e6):
        for i in range(5):
            perfect = profile.msg_per_bit[i] * b
            matched = etas[i] * perfect
            assert matched == pytest.approx(etas[i] * perfect)
            if b > 0:
                assert matched < perfect  # eta strictly below one
