"""Reference values that share no code with the timed package.

Every check the benchmark makes compares package output with one of
these: mpmath digamma/trigamma closed forms for the beta = 2 sums and
the cumulants, this file's own entropy-primitive formula for the
zero-drift cgf (with a brute-force supremum over s), and the closed-form
line equilibrium and energy values.  Monte Carlo stages are compared
with the package's exact-sum functions, which the sampler does not call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

mpmath.mp.dps = 40


# ------------------------------------------------- digamma sums (beta = 2)

def _psi_run(x0, count: int):
    """sum_{j=0}^{count-1} psi(x0 + j) = (x0+N-1) psi(x0+N) - (x0-1) psi(x0) - N."""
    x0 = mpmath.mpmathify(x0)
    return (x0 + count - 1) * mpmath.psi(0, x0 + count) - (x0 - 1) * mpmath.psi(0, x0) - count


def _trigamma_run(x0, count: int):
    """The x0-derivative of ``_psi_run``: sum_{j<count} psi'(x0 + j)."""
    x0 = mpmath.mpmathify(x0)
    return (
        mpmath.psi(0, x0 + count)
        + (x0 + count - 1) * mpmath.psi(1, x0 + count)
        - mpmath.psi(0, x0)
        - (x0 - 1) * mpmath.psi(1, x0)
    )


def moment_row(n: int, delta: complex, m: int):
    """(E log Phi_{m,n}(1), cov(Re, Im) of the centered value) at beta = 2,
    where the rank weights are the integers 0..n-1 and each digamma or
    trigamma sum over the m highest ranks has a closed form."""
    d = mpmath.mpc(delta.real, delta.imag)
    first = n - m  # the smallest rank summed is n - m
    mean = _psi_run(first + 1 + 2 * d.real, m) - _psi_run(first + 1 + mpmath.conj(d), m)
    s_sym = _trigamma_run(first + 1 + 2 * d.real, m).real
    s_del = _trigamma_run(first + 1 + d, m)
    cov = np.array(
        [
            [float(s_sym - s_del.real / 2), float(s_del.imag / 2)],
            [float(s_del.imag / 2), float(s_del.real / 2)],
        ]
    )
    return complex(mean), cov


def cumulants(r: float, delta: complex):
    """(mean, covariance) of log(1 - gamma) for the law of rank weight r."""
    d = mpmath.mpc(delta.real, delta.imag)
    a_sym = r + 1 + 2 * d.real
    mean = mpmath.psi(0, a_sym) - mpmath.psi(0, r + 1 + mpmath.conj(d))
    p1_sym = mpmath.psi(1, a_sym).real
    p1 = mpmath.psi(1, r + 1 + d)
    cov = np.array(
        [
            [float(p1_sym - p1.real / 2), float(p1.imag / 2)],
            [float(p1.imag / 2), float(p1.real / 2)],
        ]
    )
    return complex(mean), cov


# ------------------------------------------------ zero-drift cgf and rates

def entropy_F(u):
    """F(u) = u^2/2 log u - 3 u^2/4 + u, with F(0) = 0; elementwise."""
    u = np.asarray(u, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 0.5 * u * u * np.log(u) - 0.75 * u * u + u
    return np.where(u == 0, 0j, val)


def cgf0(T: float, s: float, t: float) -> float:
    """Zero-drift normalized cgf of the time-T marginal, 2z = s + it:
    Re[F(1+s) - F(1-T+s) + F(1) - F(1-T)] - 2 Re[F(1+z) - F(1-T+z)].
    ``s`` may be an array."""
    z = 0.5 * np.asarray(s) + 0.5j * t
    real = entropy_F(1 + s) - entropy_F(1 - T + s) + entropy_F(1) - entropy_F(1 - T)
    cross = entropy_F(1 + z) - entropy_F(1 - T + z)
    return real.real - 2.0 * cross.real


def cgf(T: float, s: float, t: float, d: complex) -> float:
    """The drifted cgf: cgf0 shifted by (2 Re d, 2 Im d), minus its value at 0."""
    if d == 0:
        return cgf0(T, s, t)
    dr, di = 2.0 * d.real, 2.0 * d.imag
    return cgf0(T, s + dr, t + di) - cgf0(T, dr, di)


def sup_rate_1d(T: float, xi, d: float) -> np.ndarray:
    """Brute-force sup over s >= -(1-T) - 2d of s xi - cgf(T, s, 0, d), for
    each xi of an array: a dense grid in s, then golden-section refinement
    inside the bracket of the best node (the objective is concave)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))[:, None]
    floor = -(1.0 - T) - 2.0 * d

    def f(s):
        return s * xi - cgf(T, s, 0.0, complex(d))

    grid = floor + np.concatenate(
        [np.linspace(0.0, 20.0, 4001), np.geomspace(20.0, 1e5, 400)[1:]]
    )
    vals = f(grid[None, :])
    best = np.argmax(vals, axis=1)
    a = grid[np.maximum(best - 1, 0)][:, None]
    b = grid[np.minimum(best + 1, grid.size - 1)][:, None]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        left = f1 < f2  # the maximum lies in [x1, b]
        a = np.where(left, x1, a)
        b = np.where(left, b, x2)
        x1, x2 = np.where(left, x2, b - phi * (b - a)), np.where(left, a + phi * (b - a), x1)
        f1, f2 = np.where(left, f2, f(x1)), np.where(left, f(x2), f1)
    return np.maximum(np.maximum(f1, f2), vals[np.arange(xi.shape[0]), best][:, None])[:, 0]


def _J(u) -> complex:
    """J(u) = u log u - u + 1 for u off the cut (-inf, 0), J(0) = 1."""
    u = complex(u)
    return 1.0 + 0j if u == 0 else u * cmath.log(u) - u + 1.0


def stationarity(T: float, xi: float, eta: float, s: float, t: float) -> float:
    """|grad cgf0(T, s, t) - (xi, eta)|, with the gradient from F' = J:
    d/ds = J(1+s) - J(1-T+s) - Re[J(1+z) - J(1-T+z)], d/dt = Im[J(1+z) - J(1-T+z)].
    Zero when (s, t) maximizes the concave dual s xi + t eta - cgf0."""
    z = complex(0.5 * s, 0.5 * t)
    cross = _J(1 + z) - _J(1 - T + z)
    gs = (_J(1 + s) - _J(1 - T + s) - cross).real
    return math.hypot(gs - xi, cross.imag - eta)


# ------------------------------------------------------------ equilibrium

def line_density(r: float, t: float) -> float:
    """Closed-form rescaled line equilibrium density b g_b(b t), with
    b = 2 sqrt(1+r)/r and g_b(x) = (1+sqrt(1+b^2))/(b pi) sqrt(1-x^2/b^2)/(1+x^2)."""
    b = 2.0 * math.sqrt(1.0 + r) / r
    x = b * t
    front = (1.0 + math.sqrt(1.0 + b * b)) / (b * math.pi)
    return b * front * math.sqrt(max(1.0 - t * t, 0.0)) / (1.0 + x * x)


def neg_log_energy(a: float) -> float:
    """-Sigma(mu_a) in closed form, the rate value with multiplier 2a:
    2a xi - F(1+2a) + F(2a) + 2F(1+a) - 2F(a) - F(1), where
    xi = J(1+2a) - J(1+a) - J(2a) + J(a) is the log-modulus moment."""
    g = 2.0 * a
    xi = (_J(1 + g) - _J(1 + a) - _J(g) + _J(a)).real
    F = lambda u: entropy_F(u).real  # noqa: E731
    return g * xi - F(1 + g) + F(g) + 2 * F(1 + a) - 2 * F(a) - F(1.0)


# ------------------------------------------------------- Monte Carlo moments

@dataclass
class MomentSums:
    """Power sums of (Re, Im) of values centred on a reference mean, so
    stages and passes pool by addition."""

    count: int
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    s4: np.ndarray

    @classmethod
    def of(cls, values, centre: complex) -> "MomentSums":
        v = np.asarray(values, dtype=np.complex128) - centre
        x = np.stack([v.real, v.imag])
        return cls(v.size, x.sum(1), (x**2).sum(1), (x**3).sum(1), (x**4).sum(1))

    def __add__(self, other: "MomentSums") -> "MomentSums":
        return MomentSums(
            self.count + other.count,
            self.s1 + other.s1,
            self.s2 + other.s2,
            self.s3 + other.s3,
            self.s4 + other.s4,
        )

    def z_scores(self, var_ref) -> dict:
        """z of the mean (against the centre) and of the variances (against
        ``var_ref`` = (Var Re, Var Im)), with standard errors from the sample."""
        n = self.count
        mu = self.s1 / n
        m2 = self.s2 / n - mu**2
        m4 = self.s4 / n - 4 * mu * self.s3 / n + 6 * mu**2 * self.s2 / n - 3 * mu**4
        var = m2 * n / (n - 1)
        se_mean = np.sqrt(m2 / n)
        se_var = np.sqrt(np.maximum(m4 - m2**2, 0.0) / n)
        z_mean = mu / se_mean
        z_var = (var - np.asarray(var_ref)) / se_var
        return {
            "mean_re": float(z_mean[0]),
            "mean_im": float(z_mean[1]),
            "var_re": float(z_var[0]),
            "var_im": float(z_var[1]),
        }
