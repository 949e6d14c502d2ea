"""Complex special functions and the Abel-Plana summation engine.

This module is the numeric substrate for the rest of the package:

* ``log_gamma`` -- the branch of log Gamma that is holomorphic on the cut
  plane C \\ R_- and real on the positive reals,
* ``digamma`` / ``polygamma`` -- its first and higher logarithmic
  derivatives (orders 1..3),
* ``entropy_J`` / ``entropy_F`` -- the entropy function
  J(u) = u log u - u + 1 and its primitive F,
* ``abel_plana_sum`` -- converts a sum of a holomorphic summand with a
  closed primitive into the primitive's increment, a midpoint correction
  and a boundary integral along the imaginary directions.

The boundary integral is one composite Gauss-Legendre rule over fixed
panels whose order doubles until two levels agree.  Nodes come from one
cache (``_gauss_nodes``, shared with the equilibrium quadrature), and each
level calls the summand once, on the four lines m +- iy and n +- iy of
all panels together.

All functions accept scalars or numpy arrays and are pure and stateless,
so they are safe for unrestricted concurrent use.

Evaluation of log Gamma and its derivatives shifts the argument up by the
standard recurrences until the real part reaches a threshold where the
asymptotic (Stirling-type) series with Bernoulli coefficients is accurate
to full double precision.  The test suite checks them against independent
oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "QuadratureError",
    "log_gamma",
    "digamma",
    "polygamma",
    "entropy_J",
    "entropy_F",
    "abel_plana_sum",
]


class DomainError(ValueError):
    """Argument outside the domain of a special function."""


class PoleError(DomainError):
    """Argument sits on a pole."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        # both arguments stay in args, so the error survives pickling
        super().__init__(message, achieved)
        self.achieved = achieved

    def __str__(self) -> str:
        return f"{self.args[0]} (achieved tolerance {self.achieved:.3e})"


# Bernoulli numbers B_2, B_4, ..., B_30.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

# Shift threshold: with Re z >= 10 the truncated Bernoulli series is
# accurate well below 1e-15 relative.
_SHIFT_RE = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Coefficients of the asymptotic series, from b = B_2n for n = 1..15:
# log Gamma b / (2n (2n-1)); digamma -b / (2n); polygamma of order 1, 2
# and 3 b, -(2n+1) b and (2n+1)(2n+2) b.  Adding a negated coefficient
# gives the same bits as subtracting the positive one.
_LG_COEFFS = tuple(
    b / ((2 * n) * (2 * n - 1)) for n, b in enumerate(_BERNOULLI, start=1)
)
_DG_COEFFS = tuple(-(b / (2 * n)) for n, b in enumerate(_BERNOULLI, start=1))
_PG_COEFFS = {
    1: _BERNOULLI,
    2: tuple(-((2 * n + 1) * b) for n, b in enumerate(_BERNOULLI, start=1)),
    3: tuple(
        (2 * n + 1) * (2 * n + 2) * b for n, b in enumerate(_BERNOULLI, start=1)
    ),
}


def _as_complex_array(z) -> Tuple[np.ndarray, bool]:
    scalar = np.ndim(z) == 0
    arr = np.atleast_1d(np.asarray(z, dtype=np.complex128)).copy()
    return arr, scalar


def _check_off_cut(z: np.ndarray, what: str) -> None:
    on_cut = (z.imag == 0.0) & (z.real <= 0.0)
    if np.any(on_cut):
        bad = z[on_cut].flat[0]
        raise DomainError(f"{what} is undefined on the cut (-inf, 0]: got {bad}")


def _check_off_poles(z: np.ndarray, what: str) -> None:
    on_pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(on_pole):
        bad = z[on_pole].flat[0]
        raise PoleError(f"{what} has a pole at {bad}")


def _series(out: np.ndarray, term: np.ndarray, w2: np.ndarray, coeffs) -> np.ndarray:
    """out + sum_i coeffs[i] * term / w2**i, added term by term."""
    for c in coeffs:
        out = out + c * term
        term = term / w2
    return out


def _stirling_log_gamma(w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI
        return _series(out, 1.0 / w, w * w, _LG_COEFFS)


def _shift_up(w: np.ndarray, term: Callable) -> Tuple[np.ndarray, np.ndarray]:
    """Add 1 to each entry of w (in place) until Re w >= _SHIFT_RE.
    Returns the shifted w and, per entry, the sum of ``term`` over the
    values it took below the threshold."""
    acc = np.zeros_like(w)
    mask = w.real < _SHIFT_RE
    while np.any(mask):
        acc[mask] += term(w[mask])
        w[mask] += 1.0
        mask = w.real < _SHIFT_RE
    return w, acc


def log_gamma(z):
    """Principal log Gamma: holomorphic on C \\ R_-, real on (0, inf).

    Satisfies log_gamma(z + 1) = log_gamma(z) + Log z with the principal
    logarithm; relative accuracy is better than 1e-13 for |z| <= 1e8.
    """
    arr, scalar = _as_complex_array(z)
    _check_off_cut(arr, "log_gamma")
    w, acc = _shift_up(arr, np.log)
    out = _stirling_log_gamma(w) - acc
    if not np.all(np.isfinite(out)):
        raise OverflowError("log_gamma overflow: argument magnitude too large")
    return complex(out[0]) if scalar else out


def digamma(z):
    """Digamma Psi = (log Gamma)'; meromorphic with poles at 0, -1, -2, ...

    Satisfies Psi(z+1) = Psi(z) + 1/z to better than 1e-12 relative.
    """
    arr, scalar = _as_complex_array(z)
    _check_off_poles(arr, "digamma")
    w, acc = _shift_up(arr, lambda v: 1.0 / v)
    w2 = w * w
    out = _series(np.log(w) - 0.5 / w, 1.0 / w2, w2, _DG_COEFFS) - acc
    if not np.all(np.isfinite(out)):
        raise OverflowError("digamma overflow")
    return complex(out[0]) if scalar else out


def polygamma(q: int, z):
    """Polygamma Psi^(q) for q in {1, 2, 3}.

    The argument is shifted into the asymptotic regime internally, so any
    z off the poles is accepted.  Higher orders are out of scope.
    """
    if q not in (1, 2, 3):
        raise DomainError(f"polygamma order must be 1, 2 or 3, got {q}")
    arr, scalar = _as_complex_array(z)
    _check_off_poles(arr, "polygamma")
    sign = 1.0 if q % 2 == 1 else -1.0  # (-1)^(q+1)
    fact = math.factorial(q)
    w, acc = _shift_up(arr, lambda v: sign * fact * v ** (-(q + 1)))
    w2 = w * w
    if q == 1:
        out, term = 1.0 / w + 0.5 / w2, 1.0 / (w2 * w)
    elif q == 2:
        out, term = -1.0 / w2 - 1.0 / (w2 * w), 1.0 / (w2 * w2)
    else:
        out, term = 2.0 / (w2 * w) + 3.0 / (w2 * w2), 1.0 / (w2 * w2 * w)
    out = _series(out, term, w2, _PG_COEFFS[q]) + acc
    if not np.all(np.isfinite(out)):
        raise OverflowError("polygamma overflow")
    return complex(out[0]) if scalar else out


def entropy_J(u):
    """Entropy function J(u) = u log u - u + 1.

    Real arguments: J(0) = 1 and J(u) = +inf for u < 0.  Complex
    arguments use the principal logarithm and must lie off (-inf, 0).
    """
    if isinstance(u, complex) or np.iscomplexobj(u):
        u = complex(u)
        if u.imag == 0.0:
            return entropy_J(u.real)
        return u * cmath.log(u) - u + 1.0
    u = float(u)
    if u > 0.0:
        return u * math.log(u) - u + 1.0
    if u == 0.0:
        return 1.0
    return math.inf


def entropy_F(t):
    """Primitive of the entropy function: F(t) = t^2/2 log t - 3 t^2/4 + t.

    F(0) = 0 and F' = J on (0, inf); complex arguments use the principal
    logarithm and must lie off the cut.
    """
    if isinstance(t, complex) or np.iscomplexobj(t):
        t = complex(t)
        if t.imag == 0.0:
            return complex(entropy_F(t.real))
        return 0.5 * t * t * cmath.log(t) - 0.75 * t * t + t
    t = float(t)
    if t < 0.0:
        raise DomainError(f"entropy_F needs t >= 0 on the real axis, got {t}")
    if t == 0.0:
        return 0.0
    return 0.5 * t * t * math.log(t) - 0.75 * t * t + t


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only because
    every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# Panels of the boundary integral on [0, 20]: exp(-2 pi * 20) ~ 2.6e-55,
# so the tail beyond is negligible.
_AP_BREAKS = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0])
_AP_TOL = 1e-13


def _boundary_quad(f: Callable) -> complex:
    """Composite Gauss-Legendre over the panels ``_AP_BREAKS``, doubling
    the order per panel from 16 until two levels agree to ``_AP_TOL``
    relative; QuadratureError when order 512 does not.  Each level calls
    ``f`` once on the nodes of all panels as one flat array; each panel's
    weighted sum is taken separately and the panels are added in order."""
    lo, hi = _AP_BREAKS[:-1], _AP_BREAKS[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    prev = None
    order = 16
    while order <= 512:
        x, w = _gauss_nodes(order)
        nodes = mid[:, None] + half[:, None] * x
        vals = f(nodes.ravel()).reshape(nodes.shape)
        cur = sum((half * np.sum(w * vals, axis=1)).tolist(), 0)
        if prev is not None:
            err = abs(cur - prev) / max(1.0, abs(cur))
            if err <= _AP_TOL:
                return cur
        prev = cur
        order *= 2
    raise QuadratureError("Abel-Plana boundary integral did not converge", err)


def abel_plana_sum(g: Callable, primitive: Callable, m: int, n: int) -> complex:
    """Sum g(m+1) + ... + g(n) through the Abel-Plana representation.

    The sum is primitive(n) - primitive(m), plus the midpoint correction
    (g(n) - g(m))/2, plus the boundary integral

        i * int_0^inf [g(m+iy) - g(n+iy) - g(m-iy) + g(n-iy)]
                      / (e^(2 pi y) - 1) dy.

    ``g`` must take and return complex numpy arrays, be holomorphic on the
    strip m <= Re t <= n and grow slower than exp(2 pi |Im t|) there;
    ``primitive`` is an antiderivative of g, called on the scalars m and n.
    """
    if not m < n:
        raise DomainError(f"abel_plana_sum needs m < n, got {m}, {n}")
    integral = complex(primitive(n)) - complex(primitive(m))
    g_n, g_m = g(np.array([n, m], dtype=np.complex128)).tolist()
    edge = 0.5 * (g_n - g_m)

    def boundary_integrand(y):
        # the four lines m+iy, n+iy, m-iy, n-iy in one call of g
        iy = 1j * y
        g_mp, g_np, g_mm, g_nm = g(
            np.concatenate([m + iy, n + iy, m - iy, n - iy])
        ).reshape(4, -1)
        return 1j * (g_mp - g_np - g_mm + g_nm) / np.expm1(2.0 * math.pi * y)

    return integral + edge + _boundary_quad(boundary_integrand)
