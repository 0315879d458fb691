"""Quantile transform of the stochastic throughput objective.

The random message throughput F = sum_i eta_i * y_i (with y_i the
per-user message rate and eta_i ~ N(tau, sigma^2) i.i.d.) is replaced by
its alpha-quantile lower bound

    Fbar(x) = tau * sum_i y_i - sigma * q * sqrt(sum_i y_i^2),

where q is the standard normal quantile at alpha and
y_i = sum_j x_ij * xi_ij. Pr{F >= Fbar} = alpha holds exactly, which
`chance_check` verifies empirically in fixed memory (512 KB of draws) from
antithetic pairs eta = clip(tau +- sigma z): validate's 1e5 trials take 5e4
standard-normal rows, and as F is monotone in z, the two hit indicators of a
pair are nonpositively correlated, so the estimate's variance stays at most
alpha * (1 - alpha) / trials.

The gradient of Fbar in the rates, `rate_gradient`, is

    dFbar/dy_i = tau - sigma * q * y_i / ||y||    (tau at y = 0).
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .seeding import substream
from .semantics import eta_blocks

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def std_normal_quantile(alpha):
    """Inverse standard normal CDF: the standard library's Wichura AS241
    (Applied Statistics 37(3), 1988), within a few ulps of the exact value."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return NormalDist().inv_cdf(alpha)


@dataclass(frozen=True, eq=False)
class DeterministicObjective:
    """Constants of the quantile-transformed objective.

    xi_t[i, j] is the message rate user i would see on BS j at the fixed
    minimum bandwidth.
    """

    tau: float
    sigma: float
    q: float
    xi_t: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi_t, dtype=float)
        if xi.ndim != 2:
            raise ValueError("xi_t must be a users x BSs matrix")
        if np.any(xi < 0) or not np.all(np.isfinite(xi)):
            raise ValueError("xi_t entries must be finite and nonnegative")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "xi_t", xi)

    @classmethod
    def for_confidence(cls, tau, sigma, alpha, xi_t):
        return cls(tau=float(tau), sigma=float(sigma), q=std_normal_quantile(alpha), xi_t=xi_t)


def _check_shape(obj, x):
    x = np.asarray(x, dtype=float)
    if x.shape != obj.xi_t.shape:
        raise ValueError(f"association shape {x.shape} != objective shape {obj.xi_t.shape}")
    return x


def confidence_bound(rates, tau, sigma, q):
    """Alpha-confidence lower bound tau * sum(s) - sigma * q * ||s||_2 on the
    realized throughput of per-user message rates s: a float for one vector
    of rates, an array of bounds for a stack of them (the last axis)."""
    s = np.asarray(rates, dtype=float)
    bound = tau * s.sum(axis=-1) - sigma * q * np.sqrt((s * s).sum(axis=-1))
    return float(bound) if bound.ndim == 0 else bound


def rate_gradient(rates, tau, sigma, q):
    """Gradient of `confidence_bound` in the rates s: tau - sigma * q * s / ||s||,
    or tau at s = 0, where the norm is not differentiable."""
    s = np.asarray(rates, dtype=float)
    norm = float(np.sqrt((s * s).sum()))
    if norm == 0.0:
        return np.full(s.shape, float(tau))
    return tau - sigma * q * s / norm


def objective_value(obj, x):
    """Fbar(x): the confidence bound of y_i = sum_j x_ij xi_ij."""
    x = _check_shape(obj, x)
    return confidence_bound(np.einsum("ml,ml->m", x, obj.xi_t), obj.tau, obj.sigma, obj.q)


def chance_check(rates, fbar, tau, sigma, trials, seed=0):
    """Empirical Pr{F >= fbar} over `trials` draws of the matching coefficients.

    F = sum_i eta_i * rates_i with eta_i ~ N(tau, sigma^2), clamped into
    (0, 1). With fbar the confidence bound of the rates, the exact Gaussian
    quantile property makes this converge to alpha.

    The trials come in antithetic pairs: ceil(trials / 2) standard-normal
    rows z give eta = clip(tau + sigma z) and clip(tau - sigma z), the last
    pair's second trial dropped when `trials` is odd. As -z ~ z, each trial
    is an exact draw of F. F, and so 1{F >= fbar}, is monotone in every z_i
    (with the sign of rates_i), so the two indicators of a pair are
    nonpositively correlated and the estimate's variance is at most
    alpha * (1 - alpha) / trials, with half the normal draws. The draws
    stream through `eta_blocks`' two buffers of 2^15 draws (512 KB in all):
    memory depends on neither M nor trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    y = np.asarray(rates, dtype=float)
    blocks = eta_blocks(substream(seed, "chance"), tau, sigma, trials, y.size, antithetic=True)
    hits = sum(int(np.count_nonzero(etas @ y >= fbar)) for etas in blocks)
    return hits / trials
