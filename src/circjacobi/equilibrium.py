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

Quadrature policy: every integral over an interval goes through
``specfun.graded_quad``, Gauss-Legendre panels graded geometrically toward
the ends of each piece, whose integrand is one array expression per level.
The square-root edges of the densities, x log x and the log kernel all sit
at piece ends: a measure's ``breaks`` cut its support where the density
has a sharp interior feature (the peak of the line density), and the log
potential is integrated in the distance from its point.  The log energy is
the Fourier sum Sigma(mu) = -sum_k |c_k|^2 / k with c_k = int e^{ik th} d mu,
from log|e^{ith} - e^{ith'}| = -sum_k cos(k (th - th'))/k (Saff & Totik
1997); the c_k use a composite Gauss-Legendre rule in u with
th = mid - half cos u, which makes square-root edges smooth.  The transform
in ``lubinsky_saff_density`` is a fixed Gauss-Legendre rule too.  All of
them take their nodes from the cache in ``specfun``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .ldp import _grad_L0, shift_constant
from .specfun import DomainError, QuadratureError, _gauss_nodes, graded_quad

__all__ = [
    "RadonMeasure1D",
    "EnergyReport",
    "CayleyReport",
    "mu_a_measure",
    "circle_log_moments",
    "circle_logmod_closed",
    "energy_rate",
    "constant_B_integral",
    "line_edge",
    "edge_equation_residual",
    "line_equilibrium",
    "line_potential",
    "lubinsky_saff_density",
    "lubinsky_saff_Bf",
    "cayley_check",
]


# Requested accuracy of integrals against a measure, absolute below 1 and
# relative above.
_MEASURE_TOL = 1e-10


@dataclass(frozen=True)
class RadonMeasure1D:
    """A measure with density on a closed interval.  ``breaks`` are points
    inside the support where the density changes on a scale much shorter
    than the support; quadrature grades toward them."""

    density: Callable[[np.ndarray], np.ndarray]
    support: Tuple[float, float]
    breaks: Tuple[float, ...] = ()

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]):
        """Integral of f against the measure over its support.  ``f`` maps
        an array of points to values along its last axis; leading axes hold
        several integrands, and the result has their shape."""
        lo, hi = self.support
        return graded_quad(
            lambda x: np.multiply(f(x), self.density(x)), (lo, *self.breaks, hi), _MEASURE_TOL
        )

    def mass(self) -> float:
        return self.integrate(np.ones_like)

    def log_potential(self, x: float) -> float:
        """-int log|x - s| d mu(s) at a point x of the support.  Each side
        of x is integrated in the distance u = |s - x|, so the log
        singularity sits at u = 0 exactly."""
        lo, hi = self.support
        total = 0.0
        for sign, length in ((-1.0, x - lo), (1.0, hi - x)):
            if length > 0:
                cuts = sorted(sign * (p - x) for p in self.breaks if 0 < sign * (p - x) < length)
                total += graded_quad(
                    lambda u: -np.log(u) * self.density(x + sign * u),
                    (0.0, *cuts, length),
                    _MEASURE_TOL,
                )
        return total


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
    if not 0 < a < math.inf:  # negated, so that NaN fails it
        raise DomainError(f"need a finite a > 0, got {a}")
    k = a / (1.0 + a)
    theta_a = 2.0 * math.asin(k)
    k2 = k * k

    def density(theta):
        s = np.sin(np.asarray(theta, dtype=float) / 2.0)
        val = (1.0 + a) * np.sqrt(np.maximum(s * s - k2, 0.0)) / (2.0 * math.pi * s)
        return val

    return RadonMeasure1D(density=density, support=(theta_a, 2.0 * math.pi - theta_a))


def circle_log_moments(a: float) -> Tuple[float, float]:
    """(log-modulus moment, argument moment) of 1 - z under mu_a.

    The log-modulus moment equals ``circle_logmod_closed(a)``; the
    argument moment vanishes by the symmetry theta <-> 2 pi - theta.  Both
    are evaluated by quadrature here, the closed forms being the test
    targets.
    """
    mu = mu_a_measure(a)
    logmod, argmom = mu.integrate(
        lambda th: (np.log(2.0 * np.sin(th / 2.0)), 0.5 * (th - math.pi))
    )
    return float(logmod), float(argmom)


def circle_logmod_closed(a: float) -> float:
    """The log-modulus moment of 1 - z under mu_a in closed form, d/ds L0
    at (T, s, t) = (1, 2a, 0): J(1+2a) - J(2a) - J(1+a) + J(a)."""
    return _grad_L0(1.0, 2.0 * a, 0.0)[0]


# Log-energy rule: Gauss-Legendre panels in u on [0, pi], about three nodes
# per Fourier term.  One rule of 1,024 nodes takes 18 MB to build, and one
# of 400-600 nodes aliases.
_ENERGY_PANELS, _ENERGY_ORDER, _ENERGY_TERMS = 40, 64, 800


def _log_energy_circle(mu: RadonMeasure1D) -> float:
    """Sigma(mu), the double integral of log|z - z'| d mu d mu', as
    -sum_k |c_k|^2 / k; QuadratureError when terms 401..800 exceed 1e-6."""
    lo, hi = mu.support
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x, w = _gauss_nodes(_ENERGY_ORDER)
    h = 0.5 * math.pi / _ENERGY_PANELS  # half-width of a panel in u
    u = (h * (2 * np.arange(_ENERGY_PANELS) + 1))[:, None] + h * x
    theta = (mid - half * np.cos(u)).ravel()
    c = (h * half * w * np.sin(u)).ravel() * mu.density(theta) + 0j
    step = np.exp(1j * theta)
    terms = np.empty(_ENERGY_TERMS)
    for k in range(1, _ENERGY_TERMS + 1):
        c *= step  # e^{ik theta} d mu at the nodes
        terms[k - 1] = abs(c.sum()) ** 2 / k
    tail = float(np.sum(terms[_ENERGY_TERMS // 2 :]))
    if tail > 1e-6:
        raise QuadratureError("log-energy Fourier series did not converge", tail)
    return -float(np.sum(terms))


def field_Qd(d: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Circle external field: -2 Re d log(2 sin(theta/2)) - Im d (theta - pi),
    for a number or an array of angles."""
    d = complex(d)

    def q(theta):
        return -2.0 * d.real * np.log(2.0 * np.sin(theta / 2.0)) - d.imag * (
            theta - math.pi
        )

    return q


def constant_B_integral(d: complex) -> float:
    """B(d) = -ldp.shift_constant(1, d) by direct quadrature of its defining
    integral: int_0^1 [(x+2Re d) log(x+2Re d) - 2 Re((x+d) log(x+d)) + x log x] dx."""
    d = complex(d)

    def f(x):
        u = x + 2.0 * d.real
        zx = x + d
        return u * np.log(u) - 2.0 * (zx * np.log(zx)).real + x * np.log(x)

    return graded_quad(f, (0.0, 1.0), 1e-11)


def energy_rate(mu: RadonMeasure1D, d: complex) -> EnergyReport:
    """Logarithmic energy of mu, the drifted rate value, and the constant.

    rate = -Sigma(mu) + int Q_d d mu + B(d), B(d) = -ldp.shift_constant(1, d);
    vanishes at mu = mu_a for real drift d = a.
    """
    d = complex(d)
    b = -shift_constant(1.0, d)
    sigma = _log_energy_circle(mu)
    q = field_Qd(d)
    q_int = mu.integrate(q) if d != 0 else 0.0
    return EnergyReport(sigma=sigma, rate=-sigma + q_int + b, constant=b)


def line_edge(r: float) -> float:
    """Support endpoint of the line equilibrium: b = 2 sqrt(1+r) / r."""
    if not 0 < r < math.inf:  # negated, so that NaN fails it
        raise DomainError(f"need a finite r > 0, got {r}")
    return 2.0 * math.sqrt(1.0 + r) / r


def edge_equation_residual(r: float, b: float) -> float:
    """Residual of the endpoint equation
    int_0^1 dt / ((1 + b^2 t^2) sqrt(1 - t^2)) = pi r / (2 (2 + r))."""
    val = graded_quad(lambda u: 1.0 / (1.0 + (b * np.sin(u)) ** 2), (0.0, 0.5 * math.pi), 1e-12)
    return val - math.pi * r / (2.0 * (2.0 + r))


def line_potential(r: float) -> Callable[[float], float]:
    """The even admissible field Q(x) = (1 + r/2)/2 log(1 + x^2)."""
    if not 0 < r < math.inf:  # negated, so that NaN fails it
        raise DomainError(f"need a finite r > 0, got {r}")
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

    # the factor 1 / (1 + x^2) peaks at 0 on a scale 1 / b of the support
    return RadonMeasure1D(density=density, support=(-b, b), breaks=(0.0,))


def _scaled_field_sfprime(r: float, b: float) -> Callable[[float], float]:
    """s f'(s) for the rescaled field f(s) = Q(b s): with u = b s this is
    (1 + r/2) u^2 / (1 + u^2)."""
    c = 1.0 + 0.5 * r

    def sfp(s: float) -> float:
        u = b * s
        return c * u * u / (1.0 + u * u)

    return sfp


def lubinsky_saff_density(r: float, t: float) -> float:
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

    x, w = _gauss_nodes(400)
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


@functools.lru_cache(maxsize=64)
def lubinsky_saff_Bf(r: float) -> float:
    """Mass defect B_f = 1 - (1/pi) int_-1^1 s f'(s)/sqrt(1-s^2) ds;
    zero for this field (that is the endpoint equation)."""
    # depends on r alone, so each density table pays for one quadrature
    sfp = _scaled_field_sfprime(r, line_edge(r))
    val = graded_quad(lambda u: sfp(np.sin(u)), (0.0, 0.5 * math.pi), 1e-12)
    return 1.0 - 2.0 * val / math.pi


def cayley_check(r: float) -> CayleyReport:
    """Pull the line equilibrium back to the circle and compare with
    mu_{r/2} at 50 angles (QuadratureError beyond 1e-6 relative); verify
    the endpoint identity and mass.

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
    thetas = np.linspace(theta_a + 1e-4, 2.0 * math.pi - theta_a - 1e-4, 50)
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
    if worst > 1e-6:
        raise QuadratureError(
            f"Cayley pullback mismatch at theta={worst_theta}", worst
        )
    return CayleyReport(
        endpoint_residual=endpoint_residual,
        max_density_rel_err=worst,
        pullback_mass=mass,
    )
