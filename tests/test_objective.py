import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semhetnet.objective import (DeterministicObjective, chance_check, confidence_bound,
                                 objective_value, rate_gradient, std_normal_cdf,
                                 std_normal_quantile)
from semhetnet.seeding import substream
from semhetnet.semantics import ETA_CLAMP_EPS


def bisect_quantile(alpha, lo=-40.0, hi=40.0, iters=200):
    """Independent oracle: bisection on the erf-based CDF."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_quantile_median_is_zero():
    assert std_normal_quantile(0.5) == 0.0


def test_quantile_known_values():
    assert std_normal_quantile(0.95) == pytest.approx(1.6448536269514715, abs=1e-9)
    assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400532, abs=1e-9)


def test_quantile_matches_bisection_oracle():
    # 1e-300 and 1e-12 reach AS241's far-tail branch (alpha < exp(-25)), 1e-6
    # the deep end of its intermediate one; the upper tail is left out, as
    # near 1 the bisection on the erfc CDF is good to about 1e-5
    for alpha in (1e-300, 1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.55, 0.75, 0.9, 0.95, 0.975,
                  0.99):
        assert std_normal_quantile(alpha) == pytest.approx(bisect_quantile(alpha), abs=1e-9)
        assert abs(std_normal_cdf(std_normal_quantile(alpha)) - alpha) < 1e-10


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def _scalar_objective(tau=0.5, sigma=0.1, alpha=0.95, xi=10.0):
    return DeterministicObjective.for_confidence(tau, sigma, alpha, np.array([[xi]]))


def test_objective_scalar_example():
    obj = _scalar_objective()
    # 0.5 * 10 - 0.1 * Phi^-1(0.95) * 10, quantile from the bisection oracle
    assert objective_value(obj, np.array([[1.0]])) == pytest.approx(3.3551463730485285, abs=1e-9)


def test_objective_sigma_zero_is_linear():
    obj = DeterministicObjective.for_confidence(0.5, 0.0, 0.95, np.array([[2.0, 3.0]]))
    x = np.array([[0.25, 0.75]])
    assert objective_value(obj, x) == pytest.approx(0.5 * (0.25 * 2 + 0.75 * 3))


def test_objective_zero_association():
    obj = DeterministicObjective.for_confidence(0.5, 0.1, 0.95, np.ones((3, 2)))
    assert objective_value(obj, np.zeros((3, 2))) == 0.0


def test_objective_shape_mismatch():
    obj = _scalar_objective()
    with pytest.raises(ValueError):
        objective_value(obj, np.ones((2, 2)))


def fbar_gradient(obj, x):
    """Fbar's gradient in x by the chain rule through the rates y_i =
    sum_j x_ij xi_ij: rate_gradient(y)_i * xi_ij."""
    y = np.einsum("ml,ml->m", x, obj.xi_t)
    return rate_gradient(y, obj.tau, obj.sigma, obj.q)[:, None] * obj.xi_t


def test_gradient_sigma_zero():
    xi = np.array([[1.0, 2.0], [3.0, 4.0]])
    obj = DeterministicObjective.for_confidence(0.5, 0.0, 0.95, xi)
    g = fbar_gradient(obj, np.full((2, 2), 0.5))
    assert np.allclose(g, 0.5 * xi)


def test_gradient_zero_xi_entry():
    xi = np.array([[1.0, 0.0], [2.0, 5.0]])
    obj = DeterministicObjective.for_confidence(0.5, 0.1, 0.95, xi)
    g = fbar_gradient(obj, np.array([[0.4, 0.6], [0.7, 0.3]]))
    assert g[0, 1] == 0.0


def test_gradient_matches_finite_differences(rng):
    # the rate-space gradient against central differences of confidence_bound
    # at sigma * q > 0, = 0 (alpha 0.5 or sigma 0) and < 0
    s = rng.uniform(1.0, 20.0, size=5)
    for sigma, alpha in ((0.1, 0.95), (0.1, 0.5), (0.1, 0.3), (0.0, 0.95)):
        q = std_normal_quantile(alpha)
        fd = [(confidence_bound(s + e, 0.5, sigma, q) - confidence_bound(s - e, 0.5, sigma, q))
              / 2e-6 for e in 1e-6 * np.eye(s.size)]
        assert np.allclose(rate_gradient(s, 0.5, sigma, q), fd, rtol=1e-6, atol=1e-9)
        assert np.array_equal(rate_gradient(np.zeros(3), 0.5, sigma, q), np.full(3, 0.5))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
def test_objective_concavity(seed, lam):
    r = np.random.default_rng(seed)
    xi = r.uniform(0.0, 5.0, size=(4, 3))
    obj = DeterministicObjective.for_confidence(0.5, 0.2, 0.9, xi)
    x1 = r.random((4, 3))
    x2 = r.random((4, 3))
    mix = lam * x1 + (1 - lam) * x2
    lhs = objective_value(obj, mix)
    rhs = lam * objective_value(obj, x1) + (1 - lam) * objective_value(obj, x2)
    assert lhs >= rhs - 1e-9


def test_objective_monotone_in_alpha(rng):
    xi = rng.uniform(0.5, 5.0, size=(4, 3))
    x = rng.random((4, 3))
    values = [
        objective_value(DeterministicObjective.for_confidence(0.5, 0.1, a, xi), x)
        for a in (0.55, 0.75, 0.95)
    ]
    assert values[0] >= values[1] >= values[2]


def _binary_instance(rng, m=6, l=3):
    """An objective, a binary association and its per-user rates."""
    xi = rng.uniform(1.0, 10.0, size=(m, l))
    obj = DeterministicObjective.for_confidence(0.5, 0.1, 0.95, xi)
    x = np.zeros((m, l))
    x[np.arange(m), rng.integers(0, l, size=m)] = 1.0
    return obj, x, (x * xi).sum(axis=1)


def test_chance_check_always_true_bound(rng):
    _, _, y = _binary_instance(rng)
    assert chance_check(y, -1e30, 0.5, 0.1, trials=1000, seed=1) == 1.0


def test_chance_check_at_the_mean(rng):
    _, _, y = _binary_instance(rng)
    prob = chance_check(y, 0.5 * y.sum(), 0.5, 0.1, trials=100_000, seed=2)
    assert prob == pytest.approx(0.5, abs=0.005)


def test_chance_check_calibrated_at_confidence_bound(rng):
    obj, x, y = _binary_instance(rng)
    fbar = objective_value(obj, x)
    prob = chance_check(y, fbar, 0.5, 0.1, trials=100_000, seed=3)
    assert 0.948 <= prob <= 0.952


def test_chance_check_deterministic(rng):
    _, _, y = _binary_instance(rng)
    a = chance_check(y, 1.0, 0.5, 0.1, trials=5000, seed=4)
    b = chance_check(y, 1.0, 0.5, 0.1, trials=5000, seed=4)
    assert a == b


def _antithetic_hits(y, fbar, tau, sigma, trials, seed):
    """Hits of chance_check's trials drawn at once from the same substream:
    ceil(trials / 2) standard-normal rows z give clip(tau + sigma z) and,
    but for the last row when trials is odd, clip(tau - sigma z)."""
    pairs = -(-trials // 2)
    z = substream(seed, "chance").standard_normal(size=(pairs, y.size))
    etas = np.concatenate([tau + sigma * z, (tau - sigma * z)[:trials - pairs]])
    np.clip(etas, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS, out=etas)
    return int((etas @ y >= fbar).sum())


def test_chance_check_blocks_match_one_draw(rng):
    # drawn at once from the same substream, the coefficients and the hit
    # count are the same (at 6 rates one block holds all 5001 pairs)
    obj, x, y = _binary_instance(rng)
    fbar = objective_value(obj, x)
    trials = 10_001
    hits = _antithetic_hits(y, fbar, 0.5, 0.3, trials, seed=5)
    assert 0 < hits < trials
    assert chance_check(y, fbar, 0.5, 0.3, trials, seed=5) == hits / trials


@pytest.mark.parametrize("width", [100, 0])
def test_chance_check_matches_one_draw_at_any_width(width):
    # at 100 rates a block holds 327 pairs, so 10001 trials take 16 blocks,
    # the last one partial and one trial short; with no rates every F is 0
    y = np.random.default_rng(6).uniform(0.0, 10.0, size=width)
    fbar = objective_value(DeterministicObjective.for_confidence(0.5, 0.3, 0.9, y[:, None]),
                           np.ones((width, 1)))
    trials = 10_001
    hits = _antithetic_hits(y, fbar, 0.5, 0.3, trials, seed=5)
    assert chance_check(y, fbar, 0.5, 0.3, trials, seed=5) == hits / trials


@pytest.mark.parametrize("sigma", [0.1, 0.6])
def test_chance_check_pairs_are_complementary_at_the_mean(rng, sigma):
    # at tau = 0.5 the clamp is symmetric, so F(z) + F(-z) = 2 tau sum(y) and
    # exactly one trial of each pair reaches the mean, clamped (sigma 0.6) or not
    _, _, y = _binary_instance(rng)
    assert chance_check(y, 0.5 * y.sum(), 0.5, sigma, trials=10_000, seed=2) == 0.5


def test_chance_check_spread_is_below_independent_sampling():
    # antithetic pairs make the estimate's variance at most
    # alpha * (1 - alpha) / trials, that of independent trials
    y = np.random.default_rng(7).uniform(1.0, 10.0, size=6)
    alpha, trials = 0.55, 10_000
    fbar = confidence_bound(y, 0.5, 0.1, std_normal_quantile(alpha))
    probs = [chance_check(y, fbar, 0.5, 0.1, trials, seed=seed) for seed in range(20)]
    assert np.std(probs, ddof=1) < np.sqrt(alpha * (1 - alpha) / trials)


def test_chance_check_memory_does_not_grow_with_rates():
    # 4000 trials of 3000 rates drawn at once would take 96 MB
    tracemalloc.start()
    try:
        chance_check(np.ones(3000), 0.0, 0.5, 0.1, trials=4000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_chance_check_requires_trials():
    with pytest.raises(ValueError):
        chance_check(np.array([10.0]), 0.0, 0.5, 0.1, trials=0, seed=1)
