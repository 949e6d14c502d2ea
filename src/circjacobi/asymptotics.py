"""Finite-n moments of the log-characteristic-polynomial process and
their large-n limits.

``exact_mean_logphi`` and ``exact_cov_zeta`` evaluate the exact digamma /
trigamma sums for E log Phi_{m,n}(1) and cov(Re, Im) of the centered
process.  Below the crossover size the sums are evaluated directly; for
larger n they switch to an Abel-Plana representation whose segment
integral has a closed antiderivative, leaving only a rapidly decaying
boundary integral to quadrature.  The two routes agree to 1e-9 at the
crossover, which the test suite pins.

``limit_mean_functions`` and ``limit_covariance`` evaluate the
deterministic drift-regime limits: the entropy-difference mean profiles,
the first-order mean correction, and the covariance density with its
closed-form time integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .specfun import (
    DomainError,
    HolomorphicSummand,
    abel_plana_sum,
    digamma,
    entropy_J,
    log_gamma,
    polygamma,
)

__all__ = [
    "EnsembleParams",
    "exact_mean_logphi",
    "mean_increments",
    "exact_cov_zeta",
    "limit_mean_functions",
    "limit_covariance",
    "CROSSOVER_N",
]

# Above this size the digamma sums switch to the Abel-Plana evaluation.
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
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if self.beta <= 0:
            raise DomainError(f"need beta > 0, got {self.beta}")
        if self.delta is not None and self.scaled_d is not None:
            raise DomainError("give either delta or scaled_d, not both")
        if self.scaled_d is not None:
            if complex(self.scaled_d).real <= 0:
                raise DomainError(
                    f"scaled drift needs Re d > 0, got {self.scaled_d}"
                )
        else:
            d = complex(self.delta) if self.delta is not None else 0j
            if d.real <= -0.5:
                raise DomainError(f"need Re delta > -1/2, got {d}")

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

    def coefficient_ranks(self) -> np.ndarray:
        """Rank weights r_j = beta' (n - j - 1), j = 0..n-1 (last is 0)."""
        j = np.arange(self.n)
        return self.beta_prime * (self.n - 1 - j)


def _check_m(params: EnsembleParams, m: int) -> None:
    if not 1 <= m <= params.n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={params.n}")


def mean_increments(params: EnsembleParams) -> np.ndarray:
    """E log(1-gamma_j) for j = 0..n-1, as a complex array."""
    r = params.coefficient_ranks()
    d = params.effective_delta
    return digamma(r + 1 + 2 * d.real) - digamma(r + 1 + d.conjugate())


def _rank_sum(
    params: EnsembleParams, term, primitive, lo: int, hi: int, accelerated: bool
) -> complex:
    """Sum term(x) over x = beta' (k-1), k = lo..hi, directly or by
    Abel-Plana, where primitive(x) is an antiderivative of term in x.

    The Abel-Plana route splits off the k = 1 term when lo = 1, because
    the summand may have poles with real part < 1 in k."""
    bp = params.beta_prime
    if not accelerated:
        k = np.arange(lo, hi + 1, dtype=float)
        return complex(np.sum(term(bp * (k - 1))))

    def ev(t):
        return term(bp * (np.asarray(t, dtype=complex) - 1))

    def anti(t):
        return primitive(bp * (complex(t) - 1)) / bp

    if lo < 1:
        raise DomainError("accelerated sum needs lo >= 1")
    first = 0j
    if lo == 1:
        first = complex(ev(1.0 + 0j))
        lo = 2
        if hi < lo:
            return first
    g = HolomorphicSummand(
        evaluator=ev,
        strip=(float(lo - 1), float(hi)),
        antiderivative=anti,
    )
    return first + abel_plana_sum(g, lo - 1, hi, tol=1e-13)


def _mean_sum(params: EnsembleParams, lo: int, hi: int, accelerated: bool) -> complex:
    """Sum over k = lo..hi of Psi(b'(k-1)+1+d+conj(d)) - Psi(b'(k-1)+1+conj(d))."""
    d = params.effective_delta
    a_sym = 1 + 2 * d.real
    a_con = 1 + d.conjugate()
    return _rank_sum(
        params,
        lambda x: digamma(x + a_sym) - digamma(x + a_con),
        lambda x: log_gamma(x + a_sym) - log_gamma(x + a_con),
        lo, hi, accelerated,
    )


def exact_mean_logphi(params: EnsembleParams, m: int) -> complex:
    """Exact E log Phi_{m,n}(1): the digamma sum over the m highest ranks.

    Direct summation up to the crossover size, Abel-Plana beyond it.
    """
    _check_m(params, m)
    n = params.n
    return _mean_sum(params, n - m + 1, n, accelerated=n > CROSSOVER_N)


def _trigamma_sum(
    params: EnsembleParams, alpha: complex, lo: int, hi: int, accelerated: bool
) -> complex:
    """Sum over k = lo..hi of Psi'(b'(k-1)+1+alpha)."""
    return _rank_sum(
        params,
        lambda x: polygamma(1, x + 1 + alpha),
        lambda x: digamma(x + 1 + alpha),
        lo, hi, accelerated,
    )


def exact_cov_zeta(params: EnsembleParams, m: int) -> np.ndarray:
    """Exact covariance matrix of (Re, Im) of the centered process at
    index m, summed from the per-coefficient trigamma covariances."""
    _check_m(params, m)
    n = params.n
    d = params.effective_delta
    accelerated = n > CROSSOVER_N
    s_sym = _trigamma_sum(params, 2 * d.real, n - m + 1, n, accelerated).real
    s_del = _trigamma_sum(params, d, n - m + 1, n, accelerated)
    var_re = s_sym - 0.5 * s_del.real
    var_im = 0.5 * s_del.real
    cov = 0.5 * s_del.imag
    return np.array([[var_re, cov], [cov, var_im]], dtype=float)


def limit_mean_functions(d: complex, t: float) -> Tuple[complex, complex]:
    """Scaled-drift limit profiles of the mean.

    Returns (E, F) where E(t) is the entropy-difference leading profile
    and F(t) the first-order correction factor.  Requires Re d > 0 and
    0 <= t <= 1 (t = 0 returns the limit (0, 0))."""
    d = complex(d)
    if d.real <= 0:
        raise DomainError(f"need Re d > 0, got {d}")
    if not 0 <= t <= 1:
        raise DomainError(f"need 0 <= t <= 1, got {t}")
    if t == 0:
        return 0j, 0j
    a = 1 + 2 * d.real
    b = 1 + d.conjugate()
    e_val = entropy_J(a) - entropy_J(a - t) - entropy_J(b) + entropy_J(b - t)
    f_val = np.log(a) - np.log(b) - np.log(a - t) + np.log(b - t)
    return complex(e_val), complex(f_val)


def limit_covariance(
    d: complex, t: float, beta: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Limit covariance density Z_t and its time integral over [0, t].

    At d = 0 the density is I2 / (beta (1-t)) and t = 1 is an explicit
    error: callers must branch because the normalization changes there.
    For Re d > 0 the closed forms hold on 0 <= t <= 1."""
    d = complex(d)
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    if d.real < 0:
        raise DomainError(f"need Re d >= 0, got {d}")
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
    big_l = np.log((1 + d) / (1 - t + d))
    i11 = np.log((1 + 2 * d.real) / (1 - t + 2 * d.real)) - 0.5 * big_l.real
    integral = (
        np.array(
            [[i11, 0.5 * big_l.imag], [0.5 * big_l.imag, 0.5 * big_l.real]]
        )
        / bp
    )
    return z, integral
