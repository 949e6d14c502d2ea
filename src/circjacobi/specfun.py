"""Complex special functions and a holomorphic summation engine.

This module is the numeric substrate for the rest of the package:

* ``log_gamma`` -- the branch of log Gamma that is holomorphic on the cut
  plane C \\ R_- and real on the positive reals,
* ``digamma`` / ``polygamma`` -- its first and higher logarithmic
  derivatives (orders 1..3),
* ``binet_f`` -- the exponential-kernel remainder appearing in the
  integral representation of log Gamma,
* ``entropy_J`` / ``entropy_F`` -- the entropy function
  J(u) = u log u - u + 1 and its primitive F,
* ``abel_plana_sum`` -- converts sums of holomorphic summands into an
  integral, a midpoint correction and a boundary integral along the
  imaginary directions.

The summation engine integrates by composite Gauss-Legendre rules whose
order doubles until two levels agree.  Nodes come from one cache
(``_gauss_nodes``, shared with the equilibrium quadrature), and each
refinement level calls the integrand once, at the nodes of all panels
together (a long segment integral, in blocks of 2^16 nodes); the
boundary integrand evaluates its four lines m +- iy and n +- iy in that
one call.  A summand that accepts only scalars is evaluated point by
point instead.

All functions accept scalars or numpy arrays and are pure and stateless,
so they are safe for unrestricted concurrent use.

Production evaluation of log Gamma and its derivatives shifts the
argument up by the standard recurrences until the real part reaches a
threshold where the asymptotic (Stirling-type) series with Bernoulli
coefficients is accurate to full double precision.  The independent
integral-representation route is exercised by the test suite only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "QuadratureError",
    "HolomorphicSummand",
    "log_gamma",
    "digamma",
    "polygamma",
    "binet_f",
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
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


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

# Coefficients of the log-gamma series: B_2n / (2n (2n-1)).
_LG_COEFFS = tuple(
    b / ((2 * n) * (2 * n - 1)) for n, b in enumerate(_BERNOULLI, start=1)
)


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


def _stirling_log_gamma(w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI
        term = 1.0 / w
        w2 = w * w
        for c in _LG_COEFFS:
            out = out + c * term
            term = term / w2
    return out


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
    out = np.log(w) - 0.5 / w
    w2 = w * w
    term = 1.0 / w2
    for n, b in enumerate(_BERNOULLI, start=1):
        out = out - (b / (2 * n)) * term
        term = term / w2
    out = out - acc
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
        out = 1.0 / w + 0.5 / w2
        term = 1.0 / (w2 * w)
        for n, b in enumerate(_BERNOULLI, start=1):
            out = out + b * term
            term = term / w2
    elif q == 2:
        out = -1.0 / w2 - 1.0 / (w2 * w)
        term = 1.0 / (w2 * w2)
        for n, b in enumerate(_BERNOULLI, start=1):
            out = out - (2 * n + 1) * b * term
            term = term / w2
    else:
        out = 2.0 / (w2 * w) + 3.0 / (w2 * w2)
        term = 1.0 / (w2 * w2 * w)
        for n, b in enumerate(_BERNOULLI, start=1):
            out = out + (2 * n + 1) * (2 * n + 2) * b * term
            term = term / w2
    out = out + acc
    if not np.all(np.isfinite(out)):
        raise OverflowError("polygamma overflow")
    return complex(out[0]) if scalar else out


# Taylor coefficients of binet_f at 0: B_2n / (2n)!.
_BINET_SERIES = tuple(
    _BERNOULLI[n - 1] / math.factorial(2 * n) for n in range(1, 9)
)


def binet_f(s):
    """Remainder kernel f(s) = (1/2 - 1/s + 1/(e^s - 1)) / s.

    Continuous at 0 with f(0) = 1/12; satisfies 0 < f <= 1/12 and
    0 < s f(s) + 1/2 < 1 on [0, inf).  A Taylor series is used below
    s = 0.7 where the closed form loses digits to cancellation.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    scalar = np.ndim(s) == 0
    out = np.empty_like(arr)
    small = np.abs(arr) < 0.7
    if np.any(small):
        x = arr[small]
        x2 = x * x
        acc = np.zeros_like(x)
        term = np.ones_like(x)
        for c in _BINET_SERIES:
            acc = acc + c * term
            term = term * x2
        out[small] = acc
    big = ~small
    if np.any(big):
        x = arr[big]
        out[big] = (0.5 - 1.0 / x + 1.0 / np.expm1(x)) / x
    return float(out[0]) if scalar else out


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


@dataclass(frozen=True)
class HolomorphicSummand:
    """A summand g suitable for Abel-Plana summation.

    ``evaluator`` must be finite and holomorphic on the strip
    ``strip[0] <= Re t <= strip[1]`` and, as certified by the caller via
    ``subexponential``, grow slower than exp(2 pi |Im t|) in the
    imaginary directions.  ``antiderivative``, when given, is used for
    the segment integral instead of quadrature.
    """

    evaluator: Callable[[complex], complex]
    strip: Tuple[float, float]
    subexponential: bool = True
    antiderivative: Optional[Callable[[complex], complex]] = None


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only because
    every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _eval_many(f: Callable, pts: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(pts), dtype=np.complex128)
        if out.shape == pts.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([f(p) for p in pts], dtype=np.complex128)


# Most nodes per integrand call: a long segment integral (no antiderivative)
# is taken in blocks of panels so that its memory stays bounded.
_NODES_PER_CALL = 1 << 16


def _gauss_panels(f: Callable, breaks: np.ndarray, order: int) -> complex:
    """Composite Gauss-Legendre rule with ``order`` nodes on each panel
    [breaks[i], breaks[i+1]].  ``f`` is called on the nodes of all panels
    at once as one flat array (of a block of panels when there are more
    than ``_NODES_PER_CALL`` nodes); each panel's weighted sum is taken
    separately and the panels are added in order."""
    x, w = _gauss_nodes(order)
    total = 0
    step = max(1, _NODES_PER_CALL // order)
    lo, hi = breaks[:-1], breaks[1:]
    for i in range(0, lo.size, step):
        a, b = lo[i : i + step], hi[i : i + step]
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[:, None] + half[:, None] * x
        vals = f(nodes.ravel()).reshape(nodes.shape)
        total = sum((half * np.sum(w * vals, axis=1)).tolist(), total)
    return total


def _refined_quad(f: Callable, breaks, tol: float, what: str) -> complex:
    """Composite Gauss-Legendre over the panels in ``breaks``, doubling the
    order until two consecutive refinements agree to ``tol``; each level
    is one pass of ``_gauss_panels``."""
    breaks = np.asarray(breaks, dtype=np.float64)
    prev = None
    order = 16
    while order <= 512:
        cur = _gauss_panels(f, breaks, order)
        if prev is not None:
            err = abs(cur - prev) / max(1.0, abs(cur))
            if err <= tol:
                return cur
        prev = cur
        order *= 2
    raise QuadratureError(f"{what} did not converge", err)


def _segment_breaks(a: float, b: float):
    """Panel breaks of at most 8 units each on [a, b]."""
    count = max(1, int(math.ceil((b - a) / 8.0)))
    return np.linspace(a, b, count + 1)


_AP_YMAX = 20.0  # exp(-2 pi * 20) ~ 2.6e-55: boundary tail is negligible


def abel_plana_sum(g, m: int, n: int, tol: float = 1e-12) -> complex:
    """Sum g(m+1) + ... + g(n) through the Abel-Plana representation.

    The sum is evaluated as the segment integral of g over [m, n], plus
    the midpoint correction (g(n) - g(m))/2, plus the boundary integral

        i * int_0^inf [g(m+iy) - g(n+iy) - g(m-iy) + g(n-iy)]
                      / (e^(2 pi y) - 1) dy.

    ``g`` may be a bare callable (assumed valid on the strip [m, n]) or a
    :class:`HolomorphicSummand`.  Agrees with direct summation to 1e-10
    relative for smooth subexponential summands.
    """
    if not isinstance(g, HolomorphicSummand):
        g = HolomorphicSummand(evaluator=g, strip=(float(m), float(n)))
    if not m < n:
        raise DomainError(f"abel_plana_sum needs m < n, got {m}, {n}")
    if g.strip[0] > m or g.strip[1] < n:
        raise DomainError(
            f"summand declared valid on {g.strip}, asked to sum over [{m}, {n}]"
        )
    if not g.subexponential:
        raise DomainError("summand does not certify subexponential growth")

    ev = g.evaluator
    if g.antiderivative is not None:
        integral = complex(g.antiderivative(n)) - complex(g.antiderivative(m))
    else:
        integral = _refined_quad(
            lambda t: _eval_many(ev, np.asarray(t, dtype=np.complex128)),
            _segment_breaks(float(m), float(n)),
            tol,
            "Abel-Plana segment integral",
        )
    g_n, g_m = _eval_many(ev, np.array([n, m], dtype=np.complex128)).tolist()
    edge = 0.5 * (g_n - g_m)

    def boundary_integrand(y):
        # the four lines m+iy, n+iy, m-iy, n-iy in one evaluator call
        iy = 1j * y
        g_mp, g_np, g_mm, g_nm = _eval_many(
            ev, np.concatenate([m + iy, n + iy, m - iy, n - iy])
        ).reshape(4, -1)
        return 1j * (g_mp - g_np - g_mm + g_nm) / np.expm1(2.0 * math.pi * y)

    breaks = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, _AP_YMAX]
    boundary = _refined_quad(
        boundary_integrand, breaks, tol, "Abel-Plana boundary integral"
    )
    return integral + edge + boundary
