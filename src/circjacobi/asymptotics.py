"""Finite-n moments of the log-characteristic-polynomial process and
their large-n limits.

``exact_mean_logphi`` and ``exact_cov_zeta`` evaluate the exact digamma /
trigamma sums for E log Phi_{m,n}(1) and cov(Re, Im) of the centered
process, at one m or at an array of m.  Each row takes its route from
its length m, whatever n is.  A row of at most ``CROSSOVER_N``
terms is a prefix sum of the per-rank terms, which ``mean_increments``
(and so the centred path) shares bit for bit; all such rows of a table
come from one prefix sum.  A longer row is A(n) - A(n-m) for an
Abel-Plana endpoint function A, whose boundary integral is done once per
distinct endpoint, in one pass for all such rows.  Its mean's primitive is
``specfun.log_gamma_ratio``, a log-Gamma difference without the two
log-Gamma values of size x log x.  Either way a row of a table equals its
one-row call bit for bit, and the two routes agree to 1e-9 at the
crossover, which the test suite pins.

``limit_moments`` is the large-n limit of both at the same m, the one
home of the limit predictions.  In the drift regime they are derivatives
of ``ldp``'s zero-drift cgf L0 at (T, s, t) = (t, 2 Re d, 2 Im d) (Gartner-
Ellis): with D = d/ds + i d/dt, ``limit_mean_functions`` gives E_d(t) = D L0
and F_d(t) = D^2 L0, and ``limit_covariance`` integrates to Hessian / beta'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import specfun
from .ldp import _grad_L0, _hess_L0
from .specfun import (
    DomainError,
    abel_plana_sum,
    digamma,
    log_gamma_ratio,
    polygamma,
)

__all__ = [
    "EnsembleParams",
    "exact_mean_logphi",
    "mean_increments",
    "exact_cov_zeta",
    "limit_mean_functions",
    "limit_covariance",
    "limit_moments",
    "CROSSOVER_N",
]

# Rows of more terms than this take the Abel-Plana evaluation, at any n;
# shorter rows are summed directly.
CROSSOVER_N = 10_000


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters (n, beta, deformation) of the circular Jacobi ensemble.

    Exactly one regime applies: a fixed deformation ``delta`` with
    Re delta > -1/2, or a scaled drift ``scaled_d`` with Re d > 0, in
    which case the effective deformation is beta/2 * d * n.
    """

    n: int
    beta: float
    delta: Optional[complex] = None
    scaled_d: Optional[complex] = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"need an integer n >= 1, got {self.n!r}")
        if not 0 < self.beta < math.inf:
            raise DomainError(f"need finite beta > 0, got {self.beta}")
        if self.delta is not None and self.scaled_d is not None:
            raise DomainError("give either delta or scaled_d, not both")
        # finite parameters, small enough that the sampler's 2G and the
        # moment sums' x + 1 + 2 Re delta are finite at the largest rank
        if not math.isfinite(2 * (self.beta_prime * (self.n - 1) + 1 + 2 * abs(self.effective_delta))):
            raise DomainError(f"need finite delta, scaled_d and Gamma shapes, got n={self.n}, "
                              f"beta={self.beta}, delta={self.delta}, scaled_d={self.scaled_d}")
        if self.scaled_d is not None and complex(self.scaled_d).real <= 0:
            raise DomainError(f"scaled drift needs Re d > 0, got {self.scaled_d}")
        if self.delta is not None and complex(self.delta).real <= -0.5:
            raise DomainError(f"need Re delta > -1/2, got {complex(self.delta)}")

    @property
    def beta_prime(self) -> float:
        return self.beta / 2.0

    @property
    def regime(self) -> str:
        return "scaled" if self.scaled_d is not None else "fixed"

    @property
    def effective_delta(self) -> complex:
        if self.scaled_d is not None:
            return self.beta_prime * complex(self.scaled_d) * self.n
        return complex(self.delta) if self.delta is not None else 0j

    def coefficient_ranks(self, count: Optional[int] = None) -> np.ndarray:
        """Rank weights r_j = beta' (n - j - 1), j = 0..n-1 (last is 0), or
        only the ``count`` highest of them, j < count, with the same bits."""
        j = np.arange(self.n if count is None else count)
        return self.beta_prime * (self.n - 1 - j)


def _mean_summand(params: EnsembleParams):
    """The mean's term Psi(x+1+2 Re d) - Psi(x+1+conj(d)) at rank weight x,
    and its primitive in x."""
    d = params.effective_delta
    # a real deformation keeps a_con real, so real ranks take digamma's
    # real route without a complex array to scan and copy back
    a_sym, a_con = 1 + 2 * d.real, 1 + (d.conjugate() if d.imag else d.real)
    # the primitive is called on real endpoints only
    return (lambda x: digamma(x + a_sym) - digamma(x + a_con),
            lambda x: log_gamma_ratio(x.real, a_sym, a_con))


def _cov_summand(params: EnsembleParams):
    """The covariance's terms Psi'(x+1+2 Re d) and Psi'(x+1+d), stacked on
    a leading axis, and their primitive in x."""
    d = params.effective_delta
    # a real deformation keeps alpha real, so real ranks take polygamma's
    # real-arithmetic route
    alpha = np.array([[2 * d.real], [d if d.imag else d.real]])
    return lambda x: polygamma(1, x + 1 + alpha), lambda x: digamma(x + 1 + alpha)


def mean_increments(params: EnsembleParams) -> np.ndarray:
    """E log(1-gamma_j) for j = 0..n-1, as a complex array."""
    return _mean_summand(params)[0](params.coefficient_ranks())


def _direct_sums(params: EnsembleParams, ms: np.ndarray, summand) -> np.ndarray:
    """Row i sums the summand's term over the ms[i] highest rank weights,
    as a prefix sum from the highest rank down."""
    ranks = params.coefficient_ranks(ms.max(initial=0))
    return np.cumsum(summand[0](ranks), axis=-1)[..., ms - 1]


def _abel_plana_sums(params: EnsembleParams, ms: np.ndarray, summand) -> np.ndarray:
    """The rows of ``_direct_sums`` in one Abel-Plana pass over k, where the
    rank weight is beta' (k-1), k = n-m+1..n.  It starts at k = 2 if the
    summand's poles, Re k <= 1 - (1 + min(2 Re delta, Re delta)) / beta',
    come within 1 of Re k = 1, else at k = 1; earlier terms are added."""
    term, primitive = summand
    n, bp = params.n, params.beta_prime

    def g(k):
        return term(bp * (k - 1))

    def anti(k):
        return primitive(bp * (k - 1)) / bp

    d = params.effective_delta
    start = 1 if 1 + min(2 * d.real, d.real) >= bp else 2
    # a real deformation makes both summands real on the real axis, so the
    # boundary line x-iy is the mirror image of x+iy
    sums = abel_plana_sum(g, anti, np.maximum(n - ms, start), n, conjugate_symmetric=d.imag == 0)
    for k in range(1, start + 1):
        rows = n - ms < k
        if rows.any():
            sums = sums + np.where(rows, g(np.full(1, k, dtype=np.complex128)), 0.0)
    return sums


def _indices(params: EnsembleParams, m) -> np.ndarray:
    """m (an int or an int array) as a 1-d array, each entry in 1..n."""
    ms = np.atleast_1d(m)
    if ms.dtype.kind not in "iu":
        raise DomainError(f"m must be an integer, got {m!r}")
    bad = ms[(ms < 1) | (ms > params.n)]
    if bad.size:
        raise DomainError(f"need 1 <= m <= n, got m={bad[0]}, n={params.n}")
    return ms


def _moment_sums(params: EnsembleParams, m, summand) -> np.ndarray:
    """The summand's sums over the m highest ranks, one per entry of m:
    one prefix sum for the rows of at most ``CROSSOVER_N`` terms, one
    Abel-Plana pass for the longer ones."""
    ms = _indices(params, m)
    short = ms <= CROSSOVER_N
    if short.all():
        return _direct_sums(params, ms, summand)
    if not short.any():
        return _abel_plana_sums(params, ms, summand)
    direct = _direct_sums(params, ms[short], summand)
    out = np.empty(direct.shape[:-1] + ms.shape, dtype=np.complex128)
    out[..., short] = direct
    out[..., ~short] = _abel_plana_sums(params, ms[~short], summand)
    return out


def exact_mean_logphi(params: EnsembleParams, m):
    """Exact E log Phi_{m,n}(1): the digamma sum over the m highest ranks;
    a complex for an int m, one per entry for an int array of m."""
    rows = _moment_sums(params, m, _mean_summand(params))
    return complex(rows[0]) if np.ndim(m) == 0 else rows


def exact_cov_zeta(params: EnsembleParams, m) -> np.ndarray:
    """Exact covariance matrix of (Re, Im) of the centered process at
    index m, summed from the per-coefficient trigamma covariances; a 2x2
    array for an int m, one per entry for an int array of m."""
    s_sym, s_del = _moment_sums(params, m, _cov_summand(params))
    var_im, cov = 0.5 * s_del.real, 0.5 * s_del.imag
    rows = np.stack([s_sym.real - var_im, cov, cov, var_im], axis=-1).reshape(-1, 2, 2)
    return rows[0] if np.ndim(m) == 0 else rows


def limit_mean_functions(d: complex, t: float) -> Tuple[complex, complex]:
    """Scaled-drift limit profiles of the mean: the leading profile E_d(t)
    = D L0 and its first-order correction F_d(t) = D^2 L0, D = d/ds + i d/dt
    at (t, 2 Re d, 2 Im d).  Requires Re d > 0 and 0 <= t <= 1 (t = 0
    returns the limit (0, 0))."""
    d = complex(d)
    if not np.isfinite(d) or d.real <= 0:
        raise DomainError(f"need a finite d with Re d > 0, got {d}")
    if not 0 <= t <= 1:
        raise DomainError(f"need 0 <= t <= 1, got {t}")
    if t == 0:
        return 0j, 0j
    s, u = 2.0 * d.real, 2.0 * d.imag
    (h11, h12), (_, h22) = _hess_L0(t, s, u)
    return complex(*_grad_L0(t, s, u)), complex(h11 - h22, 2.0 * h12)


def limit_covariance(d: complex, t: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Limit covariance density Z_t and its time integral over [0, t], the
    Hessian of L0 at (t, 2 Re d, 2 Im d) over beta'.  At d = 0 the density
    is I2 / (beta (1-t)) and t = 1 is an explicit error: the normalization
    changes there (``limit_moments`` branches).  For Re d > 0 the closed
    forms hold on 0 <= t <= 1."""
    d = complex(d)
    if not 0 < beta < math.inf:
        raise DomainError(f"need finite beta > 0, got {beta}")
    if not np.isfinite(d) or d.real < 0:
        raise DomainError(f"need a finite d with Re d >= 0, got {d}")
    if not 0 <= t <= 1:
        raise DomainError(f"need 0 <= t <= 1, got {t}")
    if d.real == 0 and t == 1:
        raise DomainError(
            "covariance density is singular at t = 1 with zero drift; "
            "the t = 1 normalization is log n, not 1"
        )
    bp = beta / 2.0
    w = 1.0 / (2.0 * (1 - t + d))
    z11 = 1.0 / (1 - t + 2 * d.real) - w.real
    z = np.array([[z11, w.imag], [w.imag, w.real]]) / bp
    return z, _hess_L0(t, 2.0 * d.real, 2.0 * d.imag) / bp


def _limit_row(params: EnsembleParams, m: int) -> Tuple[complex, np.ndarray]:
    """The limit mean and covariance at one m."""
    n, t = params.n, m / params.n
    if params.regime == "scaled":
        e_val, f_val = limit_mean_functions(params.scaled_d, t)
        # the exact sums converge to this O(1) constant, 0 at beta = 2
        mean = n * e_val + (1.0 / params.beta - 0.5) * f_val
        return mean, limit_covariance(params.scaled_d, t, params.beta)[1]
    scale = params.effective_delta / params.beta_prime
    if t < 1.0:
        return -scale * math.log(1.0 - t), limit_covariance(0.0, t, params.beta)[1]
    # the t = 1 normalization is log n; the additive constant is not modeled
    return scale * math.log(n), np.eye(2) * (math.log(n) / params.beta)


def limit_moments(params: EnsembleParams, m):
    """The large-n limits of ``exact_mean_logphi`` and ``exact_cov_zeta``
    at t = m/n, as a (means, covariances) pair in their shapes, each row
    computed alone.  Fixed deformation: -(delta/beta') log(1-t) and the
    covariance integral at d = 0, or (delta/beta') log n and I2 log(n)/beta
    at t = 1.  Drift regime: n E_d(t) + (1/beta - 1/2) F_d(t) and the
    covariance integral at d."""
    rows = [_limit_row(params, k) for k in _indices(params, m).tolist()]
    if np.ndim(m) == 0:
        return rows[0]
    means = np.array([mean for mean, _ in rows], dtype=complex)
    return means, np.array([cov for _, cov in rows]).reshape(-1, 2, 2)


def _ks_normal(x, sd: float) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic of the sample x
    against N(0, sd^2): the largest gap between the empirical distribution
    function, on either side of each jump, and Phi(x / sd)."""
    cdf = specfun._special.ndtr(np.sort(x) / sd)
    n = cdf.size
    upper = np.arange(1.0, n + 1) / n - cdf
    lower = cdf - np.arange(0.0, n) / n
    return float(max(upper.max(), lower.max()))
