"""Quantile transform of the stochastic throughput objective.

The random message throughput F = sum_i eta_i * y_i (with y_i the
per-user message rate and eta_i ~ N(tau, sigma^2) i.i.d.) is replaced by
its alpha-quantile lower bound

    Fbar(x) = tau * sum_i y_i - sigma * q * sqrt(sum_i y_i^2),

where q is the standard normal quantile at alpha and
y_i = sum_j x_ij * xi_ij. Pr{F >= Fbar} = alpha holds exactly, which
`chance_check` verifies empirically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .seeding import substream
from .semantics import ETA_CLAMP_EPS

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational approximation of the inverse normal CDF (relative error
# below 1.2e-9 everywhere), then polished by one Newton step.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def _quantile_rational(p):
    if p < _P_LOW:
        t = math.sqrt(-2.0 * math.log(p))
        return (((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]) / (
            (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
        )
    if p > 1.0 - _P_LOW:
        t = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]) / (
            (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
        )
    t = p - 0.5
    r = t * t
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * t / (
        ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    )


def std_normal_quantile(alpha):
    """Inverse standard normal CDF, accurate to |Phi(q) - alpha| < 1e-10.

    A rational approximation supplies the starting point and one Newton
    step against the erfc-based CDF polishes it.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    q = _quantile_rational(alpha)
    pdf = math.exp(-0.5 * q * q) / _SQRT_2PI
    return q - (std_normal_cdf(q) - alpha) / pdf


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
    realized throughput of per-user message rates s."""
    s = np.asarray(rates, dtype=float)
    return float(tau * s.sum() - sigma * q * np.sqrt((s * s).sum()))


def objective_value(obj, x):
    """Fbar(x): the confidence bound of y_i = sum_j x_ij xi_ij."""
    x = _check_shape(obj, x)
    return confidence_bound(np.einsum("ml,ml->m", x, obj.xi_t), obj.tau, obj.sigma, obj.q)


def objective_gradient(obj, x):
    """Analytic gradient: tau * xi - sigma * q * y_i * xi / ||y||, or tau * xi
    at y = 0, where the norm is not differentiable."""
    x = _check_shape(obj, x)
    return gradient_from_rates(obj, np.einsum("ml,ml->m", x, obj.xi_t), obj.xi_t)


def gradient_from_rates(obj, y, xi_t):
    """`objective_gradient` at the per-user rates y_i = sum_j x_ij xi_ij,
    with xi_t as the factor of each entry: obj.xi_t, or a copy with some
    entries zeroed (the relaxed solve zeroes those off the feasible links).
    """
    norm = float(np.sqrt((y * y).sum()))
    if norm == 0.0:
        return obj.tau * xi_t
    return xi_t * (obj.tau - obj.sigma * obj.q * (y / norm)[:, None])


def chance_check(rates, fbar, tau, sigma, trials, seed=0):
    """Empirical Pr{F >= fbar} over `trials` draws of the matching coefficients.

    F = sum_i eta_i * rates_i with eta_i ~ N(tau, sigma^2), clamped into
    (0, 1) like `sample_eta`. With fbar the confidence bound of the rates,
    the exact Gaussian quantile property makes this converge to alpha.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    y = np.asarray(rates, dtype=float)
    rng = substream(seed, "chance")
    hits = 0
    done = 0
    while done < trials:
        n = min(4000, trials - done)  # draws per block, bounding memory
        etas = rng.normal(tau, sigma, size=(n, y.size))
        np.clip(etas, ETA_CLAMP_EPS, 1.0 - ETA_CLAMP_EPS, out=etas)
        f = etas @ y
        hits += int((f >= fbar).sum())
        done += n
    return hits / trials
