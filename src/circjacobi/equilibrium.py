"""Equilibrium measures and logarithmic energies.

The constrained minimizer of logarithmic energy on the circle, subject
to a prescribed value of the log-modulus moment, is an arcsine-like
density supported away from z = 1:

    mu_a(d theta) = (1+a) sqrt(sin^2(theta/2) - sin^2(theta_a/2))
                    / (2 pi sin(theta/2))  on (theta_a, 2 pi - theta_a),

with sin(theta_a / 2) = a / (1 + a).  Pushing the problem to the real
line through the Cayley transform z = (lambda + i)/(lambda - i) turns it
into an external-field equilibrium problem for the even field
2 Q(x) = (1 + r/2) log(1 + x^2); its minimizer has the closed form

    g_b(x) = (1 + sqrt(1+b^2)) / (b pi) * sqrt(1 - x^2/b^2) / (1 + x^2)

on [-b, b] with b = 2 sqrt(1+r)/r.  The integral-transform route
(``lubinsky_saff_density``) reconstructs g_b independently of the closed
form; ``cayley_check`` verifies the pullback against mu_{r/2}.

Quadrature policy: single integrals use adaptive QUADPACK (the endpoint
square-root singularities are within its extrapolation class); the
double log-energy integral uses a nested adaptive rule split at the
diagonal, targeted at 1e-4 absolute, and exists as an independent check
on the single-integral identities rather than as the fast route.  The
integral transform in ``lubinsky_saff_density`` is a fixed Gauss-Legendre
rule whose nodes come from the cache in ``specfun``; its integrand is
evaluated at all nodes as one array expression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy import integrate

from .specfun import DomainError, QuadratureError, _gauss_nodes, entropy_F

__all__ = [
    "RadonMeasure1D",
    "EnergyReport",
    "CayleyReport",
    "mu_a_measure",
    "circle_log_moments",
    "energy_rate",
    "constant_B",
    "constant_B_integral",
    "line_edge",
    "edge_equation_residual",
    "line_equilibrium",
    "line_potential",
    "lubinsky_saff_density",
    "lubinsky_saff_Bf",
    "cayley_check",
]


@dataclass(frozen=True)
class RadonMeasure1D:
    """A measure with density on a closed interval."""

    density: Callable[[np.ndarray], np.ndarray]
    support: Tuple[float, float]

    def integrate(
        self, f: Callable[[float], float], tol: float = 1e-10
    ) -> float:
        """Integral of f against the measure over its support."""
        lo, hi = self.support
        val, err = integrate.quad(
            lambda x: f(x) * float(self.density(x)),
            lo,
            hi,
            epsabs=tol,
            epsrel=tol,
            limit=400,
        )
        if err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError("measure integral did not converge", err)
        return val

    def mass(self, tol: float = 1e-10) -> float:
        return self.integrate(lambda x: 1.0, tol=tol)


@dataclass(frozen=True)
class EnergyReport:
    """Logarithmic energy Sigma(mu), the rate value and the constant."""

    sigma: float
    rate: float
    constant: float


@dataclass(frozen=True)
class CayleyReport:
    endpoint_residual: float
    max_density_rel_err: float
    pullback_mass: float


def mu_a_measure(a: float) -> RadonMeasure1D:
    """Constrained circle equilibrium measure with parameter a > 0."""
    if a <= 0:
        raise DomainError(f"need a > 0, got {a}")
    k = a / (1.0 + a)
    theta_a = 2.0 * math.asin(k)
    k2 = k * k

    def density(theta):
        s = np.sin(np.asarray(theta, dtype=float) / 2.0)
        val = (1.0 + a) * np.sqrt(np.maximum(s * s - k2, 0.0)) / (2.0 * math.pi * s)
        return val

    return RadonMeasure1D(density=density, support=(theta_a, 2.0 * math.pi - theta_a))


def circle_log_moments(a: float, tol: float = 1e-10) -> Tuple[float, float]:
    """(log-modulus moment, argument moment) of 1 - z under mu_a.

    The log-modulus moment equals the entropy-difference combination
    J(1+2a) - J(1+a) - J(2a) + J(a); the argument moment vanishes by the
    symmetry theta <-> 2 pi - theta.  Both are evaluated by quadrature
    here, the closed forms being the test targets.
    """
    mu = mu_a_measure(a)
    logmod = mu.integrate(lambda th: math.log(2.0 * math.sin(th / 2.0)), tol=tol)
    argmom = mu.integrate(lambda th: 0.5 * (th - math.pi), tol=tol)
    return logmod, argmom


def _log_kernel_inner(mu: RadonMeasure1D, theta: float, tol: float) -> float:
    """Integral of log|e^{i theta} - e^{i theta'}| d mu(theta')."""
    lo, hi = mu.support

    def f(tp):
        d = abs(math.sin(0.5 * (theta - tp)))
        if d == 0.0:
            return 0.0  # integrable log singularity; measure-zero node
        return math.log(2.0 * d) * float(mu.density(tp))

    pts = [theta] if lo < theta < hi else None
    val, _ = integrate.quad(
        f, lo, hi, points=pts, epsabs=tol, epsrel=tol, limit=300
    )
    return val


def _log_energy_circle(mu: RadonMeasure1D, tol: float = 1e-7) -> float:
    """Double integral of log|z - z'| d mu d mu' (nested quadrature,
    diagonal-aware; targeted at 1e-4 absolute or better)."""
    lo, hi = mu.support
    val, err = integrate.quad(
        lambda th: float(mu.density(th)) * _log_kernel_inner(mu, th, tol),
        lo,
        hi,
        epsabs=tol * 10,
        epsrel=tol * 10,
        limit=200,
    )
    if err > 1e-4:
        raise QuadratureError("log-energy outer quadrature too loose", err)
    return val


def field_Qd(d: complex) -> Callable[[float], float]:
    """Circle external field: -2 Re d log(2 sin(theta/2)) - Im d (theta - pi)."""
    d = complex(d)

    def q(theta: float) -> float:
        return -2.0 * d.real * math.log(2.0 * math.sin(theta / 2.0)) - d.imag * (
            theta - math.pi
        )

    return q


def constant_B(d: complex) -> float:
    """Normalizing constant of the drifted rate, in entropy-primitive form:
    F(1+2 Re d) - F(2 Re d) - 2 Re F(1+d) + 2 Re F(d) + F(1)."""
    d = complex(d)
    if d.real < 0:
        raise DomainError(f"need Re d >= 0, got {d}")
    two = 2.0 * d.real
    fd = complex(entropy_F(d)) if d != 0 else 0.0
    f1d = complex(entropy_F(1 + d))
    return float(
        entropy_F(1.0 + two)
        - entropy_F(two)
        - 2.0 * f1d.real
        + 2.0 * fd.real
        + entropy_F(1.0)
    )


def constant_B_integral(d: complex, tol: float = 1e-11) -> float:
    """The same constant by direct quadrature of its defining integral:
    int_0^1 [(x+2Re d) log(x+2Re d) - 2 Re((x+d) log(x+d))] dx
    + int_0^1 x log x dx."""
    d = complex(d)

    def f(x: float) -> float:
        u = x + 2.0 * d.real
        first = u * math.log(u) if u > 0 else 0.0
        zx = complex(x, 0.0) + d
        second = 2.0 * (zx * np.log(zx)).real if zx != 0 else 0.0
        return first - second

    v1, _ = integrate.quad(f, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    v2, _ = integrate.quad(
        lambda x: x * math.log(x) if x > 0 else 0.0, 0.0, 1.0, epsabs=tol, epsrel=tol
    )
    return v1 + v2


def energy_rate(mu: RadonMeasure1D, d: complex) -> EnergyReport:
    """Logarithmic energy of mu, the drifted rate value, and the constant.

    rate = -Sigma(mu) + int Q_d d mu + B(d); vanishes at mu = mu_a for
    real drift d = a.
    """
    d = complex(d)
    sigma = _log_energy_circle(mu)
    q = field_Qd(d)
    q_int = mu.integrate(q, tol=1e-10) if d != 0 else 0.0
    b = constant_B(d)
    return EnergyReport(sigma=sigma, rate=-sigma + q_int + b, constant=b)


def line_edge(r: float) -> float:
    """Support endpoint of the line equilibrium: b = 2 sqrt(1+r) / r."""
    if r <= 0:
        raise DomainError(f"need r > 0, got {r}")
    return 2.0 * math.sqrt(1.0 + r) / r


def edge_equation_residual(r: float, b: float, tol: float = 1e-12) -> float:
    """Residual of the endpoint equation
    int_0^1 dt / ((1 + b^2 t^2) sqrt(1 - t^2)) = pi r / (2 (2 + r))."""
    val, _ = integrate.quad(
        lambda u: 1.0 / (1.0 + (b * math.sin(u)) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=tol,
        epsrel=tol,
    )
    return val - math.pi * r / (2.0 * (2.0 + r))


def line_potential(r: float) -> Callable[[float], float]:
    """The even admissible field Q(x) = (1 + r/2)/2 log(1 + x^2)."""
    if r <= 0:
        raise DomainError(f"need r > 0, got {r}")
    c = 0.5 * (1.0 + 0.5 * r)
    return lambda x: c * math.log1p(x * x)


def line_equilibrium(r: float) -> RadonMeasure1D:
    """Equilibrium measure of the line field for multiplier r > 0."""
    b = line_edge(r)
    front = (1.0 + math.sqrt(1.0 + b * b)) / (b * math.pi)

    def density(x):
        x = np.asarray(x, dtype=float)
        inside = np.maximum(1.0 - (x / b) ** 2, 0.0)
        return front * np.sqrt(inside) / (1.0 + x * x)

    return RadonMeasure1D(density=density, support=(-b, b))


def _scaled_field_sfprime(r: float, b: float) -> Callable[[float], float]:
    """s f'(s) for the rescaled field f(s) = Q(b s): with u = b s this is
    (1 + r/2) u^2 / (1 + u^2)."""
    c = 1.0 + 0.5 * r

    def sfp(s: float) -> float:
        u = b * s
        return c * u * u / (1.0 + u * u)

    return sfp


def lubinsky_saff_density(r: float, t: float, order: int = 400) -> float:
    """Equilibrium density on the rescaled support via the integral
    transform of the field derivative:

        g(t) = (2/pi^2) sqrt(1-t^2)
               int_0^1 (s f'(s) - t f'(t)) / ((s^2-t^2) sqrt(1-s^2)) ds
               + B_f / (pi sqrt(1-t^2)),

    with f(s) = Q(b s).  Returns g(t) = b g_b(b t) without using the
    closed-form density; the difference quotient is evaluated directly
    away from s = t and by a centered derivative of s f'(s) near it.
    """
    if not -1.0 < t < 1.0:
        raise DomainError(f"need |t| < 1, got {t}")
    b = line_edge(r)
    sfp = _scaled_field_sfprime(r, b)

    x, w = _gauss_nodes(order)
    u = 0.25 * math.pi * (x + 1.0)  # s = sin(u), u on (0, pi/2)
    s = np.sin(u)
    h = 1e-5
    at = abs(t)
    if at > 1e-4:
        # (d/du sfp)(t) / (2t) extended by parity
        near = (sfp(at + h) - sfp(at - h)) / (2.0 * h) / (2.0 * at)
    else:
        # at t ~ 0, the second derivative limit of the even function sfp
        near = (sfp(h) - sfp(0.0)) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (sfp(s) - sfp(t)) / (s * s - t * t)
    away = (np.abs(s - at) > 1e-5) & (np.abs(s + at) > 1e-5)
    vals = np.where(away, quotient, near)
    integral = 0.25 * math.pi * float(np.sum(w * vals))
    main = (2.0 / math.pi**2) * math.sqrt(1.0 - t * t) * integral
    bf = lubinsky_saff_Bf(r)
    return main + bf / (math.pi * math.sqrt(1.0 - t * t))


def lubinsky_saff_Bf(r: float, tol: float = 1e-12) -> float:
    """Mass defect B_f = 1 - (1/pi) int_-1^1 s f'(s)/sqrt(1-s^2) ds;
    zero for this field (that is the endpoint equation)."""
    return _mass_defect(r, tol)


@functools.lru_cache(maxsize=64)
def _mass_defect(r: float, tol: float) -> float:
    # depends on r alone, so each density table pays for one quadrature
    b = line_edge(r)
    sfp = _scaled_field_sfprime(r, b)
    val, _ = integrate.quad(
        lambda u: sfp(math.sin(u)), 0.0, 0.5 * math.pi, epsabs=tol, epsrel=tol
    )
    return 1.0 - 2.0 * val / math.pi


def cayley_check(r: float, n_points: int = 50, tol: float = 1e-6) -> CayleyReport:
    """Pull the line equilibrium back to the circle and compare with
    mu_{r/2} pointwise; verify the endpoint identity and mass.

    The transform is z = (lambda + i)/(lambda - i), i.e. lambda =
    cot(theta/2); densities then relate by g_b(cot(theta/2)) /
    (2 sin^2(theta/2)).
    """
    b = line_edge(r)
    endpoint_residual = abs(1.0 / math.sqrt(1.0 + b * b) - r / (r + 2.0))
    a = 0.5 * r
    mu = mu_a_measure(a)
    g = line_equilibrium(r)
    theta_a = mu.support[0]
    thetas = np.linspace(theta_a + 1e-4, 2.0 * math.pi - theta_a - 1e-4, n_points)
    worst = 0.0
    worst_theta = None
    for th in thetas:
        lam = 1.0 / math.tan(0.5 * th)
        pulled = float(g.density(lam)) / (2.0 * math.sin(0.5 * th) ** 2)
        ref = float(mu.density(th))
        rel = abs(pulled - ref) / max(abs(ref), 1e-300)
        if rel > worst:
            worst, worst_theta = rel, th
    mass = g.mass()
    if worst > tol:
        raise QuadratureError(
            f"Cayley pullback mismatch at theta={worst_theta}", worst
        )
    return CayleyReport(
        endpoint_residual=endpoint_residual,
        max_density_rel_err=worst,
        pullback_mass=mass,
    )
