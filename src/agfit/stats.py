"""Sample covariance, Gaussian log-likelihood, deviance and the chi-square test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDf
from .params import _cholesky, _logdet, _spd_cholesky


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics of a sample: covariance matrix and case count.

    ``mean_adjusted`` records whether the covariance was computed around
    the sample means (losing one case of information) or around zero.
    """

    s: np.ndarray
    n: int
    p: int
    mean_adjusted: bool = False

    @classmethod
    def from_covariance(cls, s, n: int, *, mean_adjusted: bool = False) -> "SampleStats":
        """Wrap an externally supplied covariance matrix.

        The matrix must be finite, symmetric and positive definite; the
        case count is taken on trust (a correlation matrix with its sample
        size, for example, is accepted regardless of how small ``n`` is).
        """
        s = np.array(s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionMismatch("covariance matrix must be square")
        if n < 1:
            raise ValueError("sample size must be at least 1")
        _spd_cholesky(s, "covariance matrix")
        return cls(0.5 * (s + s.T), int(n), s.shape[0], mean_adjusted)


def empirical_covariance(y, *, mean_adjusted: bool = False) -> SampleStats:
    """Covariance of a variables-by-cases data matrix, scaled by 1/n.

    With ``mean_adjusted`` the row means are removed first.  A rank
    deficient result (too few cases, or collinear or constant rows)
    raises :class:`NotPositiveDefinite`.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise DimensionMismatch("data must be a variables-by-cases matrix")
    p, n = y.shape
    if n < 1:
        raise ValueError("data matrix has no cases")
    if mean_adjusted:
        y = y - y.mean(axis=1, keepdims=True)
    s = (y @ y.T) / n
    return SampleStats.from_covariance(s, n, mean_adjusted=mean_adjusted)


def log_likelihood(sigma: np.ndarray, stats: SampleStats) -> float:
    """Gaussian log-likelihood of a covariance matrix, up to an additive constant.

    ``-(n/2) * (log det sigma + trace(inv(sigma) @ s))``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (stats.p, stats.p):
        raise DimensionMismatch("sigma does not match the sample dimension")
    logdet = _logdet(_cholesky(sigma, "sigma is not positive definite"))
    trace = float(np.trace(np.linalg.solve(sigma, stats.s)))
    return -0.5 * stats.n * (logdet + trace)


def deviance(sigma_hat: np.ndarray, stats: SampleStats) -> float:
    """Likelihood ratio of the fitted model against the saturated model.

    ``2 * (l(s) - l(sigma_hat))`` with :func:`log_likelihood` ``l`` and
    ``l(s) = -(n/2) * (log det s + p)``.
    """
    s_logdet = _logdet(_cholesky(stats.s, "sample covariance is not positive definite"))
    saturated = -0.5 * stats.n * (s_logdet + stats.p)
    return 2.0 * (saturated - log_likelihood(sigma_hat, stats))


def degrees_of_freedom(g) -> int:
    """Free entries of an unrestricted covariance minus model parameters.

    The model spends one parameter per vertex and one per edge of any
    kind, so the test has ``p (p + 1) / 2 - (p + #edges)`` degrees of
    freedom.
    """
    p = g.n
    return p * (p + 1) // 2 - (p + g.edge_count)


def chi_square_pvalue(dev: float, df: int) -> float:
    """Upper tail of the chi-square distribution at the observed deviance.

    Closed form for integer df in x = dev / 2, with the terms formed in log
    space so that they do not underflow: sum_{i < df/2} e^-x x^i / i! for
    even df, erfc(sqrt(x)) + sum_{i < (df-1)/2} e^-x x^(i+1/2) / Gamma(i+3/2)
    for odd df.
    """
    if int(df) != df or df < 1:
        raise InvalidDf(f"degrees of freedom must be a positive integer, got {df}")
    if dev < 0:
        if dev < -1e-8:
            raise ValueError(f"deviance must be nonnegative, got {dev}")
        dev = 0.0
    x = dev / 2.0
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    half, odd = divmod(int(df), 2)
    a = 0.5 * odd
    terms = [
        math.exp((i + a) * math.log(x) - x - math.lgamma(i + a + 1)) for i in range(half)
    ]
    return math.fsum(terms + [math.erfc(math.sqrt(x))] * odd)
