"""Large-deviation objects for the log-characteristic-polynomial process.

The speed-n^2 rate of the path is an integral of the pointwise rate
H_a(xi, eta) = -xi - log(2 cos eta - e^xi) against (1-tau) d tau, plus a
linear price (1-tau) per unit of negative singular mass in the real
component.  Its convex pre-dual is the Lagrangian

    L(X, Y) = J(1+X) - J(1+Z) - J(1+conj(Z)),   2Z = X + iY,

whose Legendre transform reproduces H_a exactly; ``legendre_numeric``
verifies this numerically.  The marginal rate at time T is obtained from
the normalized cumulant generating function ``cgf_L0`` by
one-dimensional convex duality on the real axis (three explicit
branches: interior, linear extension below the left boundary xi_T,
infinite at and beyond T log 2) and by a two-dimensional interior solve
for general arguments.  Nonzero drift d enters through one affine shift
with one constant, ``shift_constant`` = -cgf_L0(T, 2 Re d, 2 Im d).

Both numerical duals run one damped-Newton ascent, ``_ascend``, over a
half-plane {p[0] > floor}: X > -1 for the Lagrangian, s > -(1-T) for the
marginal.  The marginal solve works in zero-drift multipliers and starts
at the drift's own origin (2 Re d, 2 Im d), which lies inside the domain
for every valid ``RatePoint`` (T = 1 requires Re d > 0); for d = 0 this
is (0, 0).

Infinite values are returned as math.inf, but only as *results* tagged
with an explicit branch; no arithmetic is ever performed on them.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import specfun
from .specfun import DomainError, entropy_F, entropy_J, graded_quad

__all__ = [
    "Branch",
    "RatePoint",
    "MarginalRateResult",
    "SolverError",
    "rate_Ha",
    "lagrangian_L",
    "legendre_numeric",
    "cgf_L0",
    "path_functional_Lambda0",
    "path_action",
    "shift_constant",
    "xi_boundary",
    "implicit_mean_map",
    "marginal_rate_h",
    "hkoc_forms",
    "optimal_trajectory",
]

_LOG2 = math.log(2.0)


class Branch(enum.Enum):
    INTERIOR = "interior"
    LINEAR = "linear"
    INFINITE = "infinite"


class SolverError(RuntimeError):
    """Root finding for the rate multipliers did not converge."""

    __slots__ = ("residual",)

    def __init__(self, message: str, residual: float):
        # both arguments stay in args, so the error survives pickling
        super().__init__(message, residual)
        self.residual = residual

    def __str__(self) -> str:
        return f"{self.args[0]} (residual {self.residual:.3e})"


def _check_finite(**args: float) -> None:
    if not all(map(math.isfinite, args.values())):
        got = ", ".join(f"{k}={v}" for k, v in args.items())
        raise DomainError(f"need finite {' and '.join(args)}, got {got}")


def _check_T(T: float) -> None:
    if not 0 < T <= 1:
        raise DomainError(f"need 0 < T <= 1, got T={T}")


def _check_drift(d: complex) -> complex:
    """d as a complex number, which must be finite with Re d >= 0."""
    d = complex(d)
    if not cmath.isfinite(d) or d.real < 0:
        raise DomainError(f"need Re d >= 0 and a finite d, got d={d}")
    return d


@dataclass(frozen=True)
class RatePoint:
    """Marginal evaluation point (T, xi, eta) with drift d.

    At T = 1 the zero-drift cgf is finite only for s >= 0, so exponential
    tightness fails unless the drift moves that edge off the origin: the
    T = 1 marginal rate is only defined for Re d > 0.
    """

    T: float
    xi: float
    eta: float
    d: complex = 0j

    def __post_init__(self):
        _check_T(self.T)
        _check_finite(xi=self.xi, eta=self.eta)
        if _check_drift(self.d).real == 0 and self.T == 1:
            raise DomainError("T = 1 requires Re d > 0 (tightness boundary)")


@dataclass(frozen=True, slots=True)
class MarginalRateResult:
    """Rate value with its branch; Lagrange multipliers (gamma, rho) are
    present on the interior branch only."""

    value: float
    branch: Branch
    multipliers: Optional[Tuple[float, float]] = None


def rate_Ha(xi: float, eta: float) -> float:
    """Pointwise rate: -xi - log(2 cos eta - e^xi) when |eta| < pi/2 and
    2 cos eta > e^xi, +inf otherwise; xi and eta must be finite."""
    _check_finite(xi=xi, eta=eta)
    if abs(eta) >= 0.5 * math.pi:
        return math.inf
    c = 2.0 * math.cos(eta)
    if xi >= math.log(c):
        return math.inf
    return -xi - math.log(c - math.exp(xi))


def lagrangian_L(x: float, y: float) -> float:
    """Convex Lagrangian L(X, Y) = J(1+X) - 2 Re J(1+Z) with 2Z = X + iY;
    equals (1+X)log(1+X) + Y arctan(Y/(2+X)) - (1+X/2) log((1+X/2)^2 + Y^2/4)."""
    if x <= -1.0:
        raise DomainError(f"Lagrangian needs X > -1, got {x}")
    half = 1.0 + 0.5 * x
    first = (1.0 + x) * math.log1p(x) if x != 0.0 else 0.0
    return (
        first
        + y * math.atan2(y, 2.0 + x)
        - half * math.log(half * half + 0.25 * y * y)
    )


def _grad_L(x: float, y: float) -> Tuple[float, float]:
    half = 1.0 + 0.5 * x
    gx = math.log1p(x) - 0.5 * math.log(half * half + 0.25 * y * y)
    gy = math.atan2(y, 2.0 + x)
    return gx, gy


def _hess_L(x: float, y: float) -> np.ndarray:
    inv = 1.0 / complex(1.0 + 0.5 * x, 0.5 * y)  # 1 / (1 + Z)
    h11 = 1.0 / (1.0 + x) - 0.5 * inv.real
    h12 = 0.5 * inv.imag
    h22 = 0.5 * inv.real
    return np.array([[h11, h12], [h12, h22]])


_DIVERGED = 1e8


def _ascend(
    target: Tuple[float, float],
    f: Callable[[float, float], float],
    grad_f: Callable[[float, float], Tuple[float, float]],
    hess_f: Callable[[float, float], np.ndarray],
    start: Tuple[float, float],
    floor: float,
    tol: float,
) -> Tuple[Tuple[float, float], float, float, str]:
    """Damped Newton ascent of the concave Legendre-dual objective
    p . target - f(p) over {p[0] > floor}, for a convex f with gradient
    ``grad_f`` and Hessian ``hess_f``.

    Each step backs off in p[0] until it stays above the floor (an iterate
    pinned there at float granularity moves in p[1] only), then halves
    until the objective does not drop.  Returns (point, value, residual,
    status): residual is |target - grad_f| at the last point evaluated,
    status is ``converged`` (residual < tol), ``flat`` (no step raises the
    objective at working precision) or ``diverged`` (the iterates or the
    value passed 1e8, or 300 steps ran out).
    """
    xi, eta = target
    x, y = start
    val = x * xi + y * eta - f(x, y)
    res = math.inf
    for _ in range(300):
        gx, gy = grad_f(x, y)
        rx, ry = xi - gx, eta - gy
        res = math.hypot(rx, ry)
        if res < tol:
            return (x, y), val, res, "converged"
        try:
            sx, sy = np.linalg.solve(hess_f(x, y), np.array([rx, ry]))
        except np.linalg.LinAlgError:
            sx, sy = rx, ry
        scale = 1.0
        for _ in range(200):
            if x + scale * sx > floor + 1e-15:
                break
            scale *= 0.5
        else:
            sx, scale = 0.0, 1.0
        for _ in range(61):
            new_x, new_y = x + scale * sx, y + scale * sy
            new_val = new_x * xi + new_y * eta - f(new_x, new_y)
            if new_val >= val:
                break
            scale *= 0.5
        if new_val <= val + 1e-16 * max(1.0, abs(val)):
            return (x, y), val, res, "flat"
        x, y, val = new_x, new_y, new_val
        if abs(x) > _DIVERGED or abs(y) > _DIVERGED or val > _DIVERGED:
            break
    return (x, y), val, res, "diverged"


def legendre_numeric(
    xi: float, eta: float
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Legendre transform sup_{X > -1, Y} [X xi + Y eta - L(X, Y)].

    Ascent seeded at the closed-form stationary point when the target is
    admissible, converged to a gradient residual of 1e-9; returns (value,
    argmax), or (inf, None) when the iterates diverge (inadmissible
    target).  xi and eta must be finite.
    """
    _check_finite(xi=xi, eta=eta)
    start = (0.0, 0.0)
    denom = math.cos(eta) - 0.5 * math.exp(xi) if abs(eta) < 0.5 * math.pi else 0.0
    if denom > 1e-12:
        x0 = (math.exp(xi) - math.cos(eta)) / denom
        if x0 > -1.0:
            start = (x0, math.sin(eta) / denom)
    point, value, _, status = _ascend(
        (xi, eta), lagrangian_L, _grad_L, _hess_L, start, -1.0, 1e-9
    )
    if status == "diverged":
        return math.inf, None
    return value, point


def _L0(T: float, s: float, t: float) -> float:
    """Zero-drift normalized cgf: the eight-term F combination with
    2z = s + it; valid for s >= -(1-T) (boundary included by limits)."""
    z = complex(0.5 * s, 0.5 * t)
    real_part = (
        entropy_F(1.0 + s) - entropy_F(1.0 - T + s) + entropy_F(1.0) - entropy_F(1.0 - T)
    )
    cross = entropy_F(1.0 + z) - entropy_F(1.0 - T + z)
    return real_part - 2.0 * cross.real


def cgf_L0(T: float, s: float, t: float, d: complex = 0j) -> float:
    """Normalized cumulant generating function of the time-T marginal,
    with drift d folded in by the affine shift.  Domain:
    s > -(1-T) - 2 Re d (the boundary itself is allowed as a limit), with
    s and t finite."""
    shift = shift_constant(T, d)
    d = complex(d)
    floor = -(1.0 - T) - 2.0 * d.real
    _check_finite(s=s, t=t)
    if s < floor:
        raise DomainError(f"need s >= {floor}, got s={s}")
    return _L0(T, s + 2.0 * d.real, t + 2.0 * d.imag) + shift


def _grad_L0(T: float, s: float, t: float) -> Tuple[float, float]:
    """(d/ds, d/dt) of the zero-drift cgf, 2z = s + it: J(1+s) - J(1-T+s) - Re c and
    Im c, c = J(1+z) - J(1-T+z).  The mean profile E_d(t), (d/ds + i d/dt) L0 at
    (t, 2 Re d, 2 Im d), the branch edge xi_T and the circle's log moment read it."""
    z = complex(0.5 * s, 0.5 * t)
    cross = entropy_J(1.0 + z) - entropy_J(1.0 - T + z)
    return entropy_J(1.0 + s) - entropy_J(1.0 - T + s) - cross.real, cross.imag


def _hess_L0(T: float, s: float, t: float) -> np.ndarray:
    """Hessian of the zero-drift cgf, by logs of quotients; at (t, 2 Re d, 2 Im d)
    beta' times the covariance integral, and (h11 - h22) + 2i h12 is F_d(t)."""
    z = complex(0.5 * s, 0.5 * t)
    lg = cmath.log((1.0 + z) / (1.0 - T + z))
    h11 = math.log((1.0 + s) / (1.0 - T + s)) - 0.5 * lg.real
    h12 = 0.5 * lg.imag
    h22 = 0.5 * lg.real
    return np.array([[h11, h12], [h12, h22]])


def shift_constant(T: float, d: complex) -> float:
    """Additive constant of the drift shift: -cgf_L0(T, 2 Re d, 2 Im d) of the
    zero-drift function, in the cgf, the path and marginal rates and (at T = 1)
    the energy rate.  A drift too large for it to be finite is a DomainError."""
    _check_T(T)
    d = _check_drift(d)
    if d == 0:
        return 0.0
    shift = -_L0(T, 2.0 * d.real, 2.0 * d.imag)
    if not math.isfinite(shift):
        raise DomainError(f"drift d={d} overflows the shift constant")
    return shift


def _drift_shift(T: float, d: complex, x: float, y: float) -> float:
    """What drift d adds to a zero-drift rate at the end point (x, y)."""
    return -2.0 * d.real * x - 2.0 * d.imag * y - shift_constant(T, d)


def _J_array(u: np.ndarray) -> np.ndarray:
    """J(u) = u log u - u + 1 on an array of u >= 0 (J(0) = 1) or of
    complex u off the cut."""
    return specfun._special.xlogy(u, u) - u + 1.0


def path_functional_Lambda0(
    T: float,
    x: Callable[[float], float],
    y: Callable[[float], float],
) -> float:
    """Path-level cgf: integral over [0, T] of
    J(1-tau+x) - 2 Re J(1-tau+z) + J(1-tau), 2z = x + i y.

    Requires x(tau) > -(1-tau) on [0, T] (equivalently X > -1 after the
    (1-tau) time change).  Constant paths x = s, y = t reproduce
    cgf_L0(T, s, t)."""
    _check_T(T)

    def integrand(taus: np.ndarray) -> np.ndarray:
        c = 1.0 - taus
        xv = np.array([x(tau) for tau in taus.tolist()])
        yv = np.array([y(tau) for tau in taus.tolist()])
        bad = xv + c <= 0
        if bad.any():
            raise DomainError(f"path violates x(tau) > -(1-tau) at tau={taus[bad][0]}")
        return _J_array(c + xv) - 2.0 * _J_array(c + 0.5 * xv + 0.5j * yv).real + _J_array(c)

    return graded_quad(integrand, (0.0, T), 1e-11)


def path_action(
    T: float,
    phi_dot: Callable[[float], float],
    psi_dot: Callable[[float], float],
    phi_atoms: Sequence[Tuple[float, float]] = (),
    psi_has_singular_part: bool = False,
    d: complex = 0j,
) -> float:
    """Action of an absolutely continuous path with optional negative
    atoms in the real component.

    Value: integral of (1-tau) H_a(phi_dot, psi_dot) d tau plus
    (1 - location) * |mass| per atom (masses must be negative; any
    singular part of psi, or positive singular mass of phi, prices the
    path at +inf).  Drift d adds -2 Re d phi(T) - 2 Im d psi(T) minus the
    shift constant.
    """
    _check_T(T)
    d = _check_drift(d)
    if psi_has_singular_part:
        return math.inf
    for loc, mass in phi_atoms:
        if not 0 <= loc <= T:
            raise DomainError(f"atom location {loc} outside [0, {T}]")
        if mass >= 0:
            return math.inf

    class _Infinite(Exception):
        pass

    def integrand(taus: np.ndarray) -> np.ndarray:
        # the drift needs phi(T) and psi(T): the same nodes integrate
        # phi_dot and psi_dot
        rows = []
        for tau in taus.tolist():
            phi, psi = phi_dot(tau), psi_dot(tau)
            h = rate_Ha(phi, psi)
            if math.isinf(h):
                raise _Infinite
            rows.append(((1.0 - tau) * h, phi, psi))
        rows = np.array(rows).T
        return rows if d != 0 else rows[0]

    try:
        val = graded_quad(integrand, (0.0, T), 1e-10)
    except _Infinite:
        return math.inf
    action = float(val if d == 0 else val[0])
    action += sum((1.0 - loc) * (-mass) for loc, mass in phi_atoms)
    if d != 0:
        phi_T = val[1] + sum(mass for _, mass in phi_atoms)
        action += _drift_shift(T, d, phi_T, val[2])
    return float(action)


def xi_boundary(T: float) -> float:
    """Left edge xi_T of the interior branch, d/ds L0 at s = -(1-T):
    J(T) - 1 - J((1+T)/2) + J((1-T)/2); nonpositive on (0, 1]."""
    _check_T(T)
    return _grad_L0(T, -(1.0 - T), 0.0)[0]


def implicit_mean_map(T: float, gamma: float) -> float:
    """The strictly increasing map gamma -> xi on the interior branch:
    J(1+g) - J(1-T+g) - J(1+g/2) + J(1-T+g/2), for a finite gamma > -(1-T)."""
    _check_T(T)
    if not (math.isfinite(gamma) and gamma > -(1.0 - T)):
        raise DomainError(f"need a finite gamma > -(1-T) = {-(1.0 - T)}, got gamma={gamma}")
    return _mean_map(T, gamma)


def _mean_map(T: float, gamma: float) -> float:
    """``implicit_mean_map`` without the check of T.

    Each difference is evaluated as J(u) - J(u-T) = T log u - (u-T)
    log(1 - T/u) - T, whose terms are of size T: the four J values grow
    like g log g and would cancel to the O(T) result, losing the digits
    that fix gamma once the map flattens toward T log 2."""
    u, w = 1.0 + gamma, 1.0 + 0.5 * gamma
    return T * math.log(u / w) - (u - T) * math.log1p(-T / u) + (w - T) * math.log1p(-T / w)


def _implicit_mean_slope(T: float, gamma: float) -> float:
    """d xi / d gamma = log(u / (u-T)) - log(w / (w-T)) / 2, u = 1+g, w = 1+g/2."""
    return 0.5 * math.log1p(-T / (1.0 + 0.5 * gamma)) - math.log1p(-T / (1.0 + gamma))


def _solve_gamma(T: float, xi: float) -> float:
    """Invert the mean map by Newton's method inside a bracket, bisecting
    whenever a step would leave it (the map is increasing), then polish
    with two plain Newton steps."""
    lo = -(1.0 - T) + 1e-12
    if _mean_map(T, lo) >= xi:
        return lo  # xi at (or within float width of) the branch edge xi_T
    hi = max(1.0, lo + 1.0)
    for _ in range(200):
        if _mean_map(T, hi) > xi:
            break
        hi *= 2.0
    else:
        raise SolverError("bracket expansion failed", math.inf)
    gamma = hi
    for _ in range(200):
        res = _mean_map(T, gamma) - xi
        if res == 0.0:
            break
        if res > 0.0:
            hi = gamma
        else:
            lo = gamma
        slope = _implicit_mean_slope(T, gamma)
        new = gamma - res / slope if slope > 0 else hi
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        moved, gamma = abs(new - gamma), new
        if moved <= 1e-13 + 1e-14 * abs(gamma):
            break
    else:
        raise SolverError("bracketed Newton iteration did not converge", abs(res))
    for _ in range(2):
        slope = _implicit_mean_slope(T, gamma)
        if slope <= 0:
            break
        step = (_mean_map(T, gamma) - xi) / slope
        if gamma - step <= -(1.0 - T):
            break
        gamma -= step
    return gamma


def marginal_rate_h(point: RatePoint) -> MarginalRateResult:
    """Marginal rate at (T, xi, eta) for drift d.

    eta = 0 follows the three proved branches; general eta attempts the
    interior two-multiplier solve only (admissibility beyond it is not
    characterized) and raises :class:`SolverError` unless the ascent
    converges, or ends flat with residual <= 1e-6.  Nonzero drift enters
    as the affine shift of the zero-drift rate.
    """
    T, xi, eta, d = point.T, point.xi, point.eta, complex(point.d)
    # taken first, so that a drift whose shift overflows fails on every branch
    shift = _drift_shift(T, d, xi, eta) if d != 0 else 0.0

    def shifted(value: float, branch: Branch, mult=None) -> MarginalRateResult:
        if d != 0 and math.isfinite(value):
            value += shift
        return MarginalRateResult(value=value, branch=branch, multipliers=mult)

    if abs(eta) >= 0.5 * math.pi * T or xi >= T * _LOG2:
        return shifted(math.inf, Branch.INFINITE)

    if eta == 0.0:
        xi_t = xi_boundary(T)
        if xi >= xi_t:
            gamma = _solve_gamma(T, xi)
            # the supremum is at least its value 0 at s = 0; near xi = 0 the
            # difference below can round to either side of it
            value = max(gamma * xi - _L0(T, gamma, 0.0), 0.0)
            return shifted(value, Branch.INTERIOR, (gamma, 0.0))
        edge = -(1.0 - T)
        value_edge = edge * xi_t - _L0(T, edge, 0.0)
        value = value_edge + (1.0 - T) * (xi_t - xi)
        return shifted(value, Branch.LINEAR)

    # Zero-drift multipliers, started at the drift's own origin, which lies
    # inside s > -(1-T) for every valid RatePoint.
    mult, value, res, status = _ascend(
        (xi, eta), partial(_L0, T), partial(_grad_L0, T), partial(_hess_L0, T),
        (2.0 * d.real, 2.0 * d.imag), -(1.0 - T), tol=1e-11,
    )
    if status != "converged" and not (status == "flat" and res <= 1e-6):
        raise SolverError(f"interior solve ended {status}", res)
    return shifted(value, Branch.INTERIOR, mult)


def hkoc_forms(which: str, arg: float) -> float:
    """Closed-form limiting cgfs of the T = 1, zero-drift marginals.

    ``which = "real"``: (1+s)^2/2 log(1+s) - (1+s/2)^2 log(1+s/2)
    - s^2/4 log(2s) for s >= 0.  ``which = "imag"``:
    t^2/8 log(1+4/t^2) - 1/2 log(1+t^2/4) + t arctan(t/2), any finite t.
    """
    if which == "real":
        s = float(arg)
        _check_finite(s=s)
        if s < 0:
            raise DomainError(f"real form needs s >= 0, got {s}")
        if s == 0:
            return 0.0
        return (
            0.5 * (1.0 + s) ** 2 * math.log1p(s)
            - (1.0 + 0.5 * s) ** 2 * math.log1p(0.5 * s)
            - 0.25 * s * s * math.log(2.0 * s)
        )
    if which == "imag":
        t = float(arg)
        _check_finite(t=t)
        if t == 0:
            return 0.0
        return (
            0.125 * t * t * math.log1p(4.0 / (t * t))
            - 0.5 * math.log1p(0.25 * t * t)
            + t * math.atan(0.5 * t)
        )
    raise DomainError(f'which must be "real" or "imag", got {which!r}')


def optimal_trajectory(
    T: float, gamma: float, rho: float
) -> Tuple[Callable[[float], float], Callable[[float], float]]:
    """Closed-form derivatives of the optimal interior path:

    phi'(tau) = log(1-tau+gamma) - (1/2) log((1-tau+gamma/2)^2 + rho^2/4),
    psi'(tau) = arctan(rho / (2(1-tau) + gamma)).

    Integrating them over [0, T] recovers the (xi, eta) whose marginal
    rate has multipliers (gamma, rho), which must be finite."""
    _check_T(T)
    _check_finite(gamma=gamma, rho=rho)
    if gamma <= -(1.0 - T):
        raise DomainError(f"need gamma > -(1-T) = {-(1.0 - T)}, got {gamma}")

    def phi_dot(tau: float) -> float:
        u = 1.0 - tau
        half = u + 0.5 * gamma
        return math.log(u + gamma) - 0.5 * math.log(half * half + 0.25 * rho * rho)

    def psi_dot(tau: float) -> float:
        return math.atan2(rho, 2.0 * (1.0 - tau) + gamma)

    return phi_dot, psi_dot
