"""Complex special functions and the Abel-Plana summation engine.

This module is the numeric substrate for the rest of the package:

* ``log_gamma`` -- the branch of log Gamma that is holomorphic on the cut
  plane C \\ R_- and real on the positive reals,
* ``digamma`` / ``polygamma`` -- its first and higher logarithmic
  derivatives (orders 1..3),
* ``log_gamma_ratio`` -- the difference log Gamma(x + a) - log Gamma(x + b)
  without the two values, by the recurrence and Stirling's series,
* ``entropy_J`` / ``entropy_F`` -- the entropy function
  J(u) = u log u - u + 1 and its primitive F,
* ``abel_plana_sum`` -- converts a sum of a holomorphic summand with a
  closed primitive into the primitive's increment, a midpoint correction
  and a boundary integral along the imaginary directions.

A sum from m to n is A(n) - A(m) for an endpoint function A, so lower
ends share the end n.  A's boundary integral is a composite Gauss-Legendre
rule on fixed panels whose order doubles until two orders agree, for each
endpoint on its own; each order calls the summand once, on the lines
x +- iy of every endpoint not yet done.  A caller whose summand satisfies
g(conj t) = conj g(t) bit for bit (real on the real axis, with arithmetic
odd in Im t, as numpy's and scipy's complex functions are) may say so with
``conjugate_symmetric=True``; the summand is then called on the lines
x + iy only, which halves the work.  Nodes come from one cache
(``_gauss_nodes``), shared with ``graded_quad`` and the equilibrium
quadrature; each order's boundary rule is built from them once
(``_boundary_rule``).

``graded_quad`` is the one rule for integrals over a finite interval with
endpoint singularities (square-root edges, x log x, log|x|): Gauss-Legendre
panels geometrically graded toward both ends of every piece, refined level
by level until two levels agree.

All functions accept scalars or numpy arrays and are pure, so they are
safe for unrestricted concurrent use.  The module's one piece of state is
its binding of ``scipy.special``, the only place the package names it:
the module is imported on the first call that needs it (a Gamma-family
function here, ``ldp``'s entropy or ``asymptotics``' normal CDF), so a
process that never evaluates one, such as ``ldp`` or ``equilibrium``,
starts on numpy alone.  The first call rebinds a private module global
to the module itself, so later calls cost one global lookup, as an
import at the top would; threads racing on that first call all import
the same module and bind the same object.

``log_gamma`` and ``digamma`` are ``scipy.special.loggamma`` and ``psi``
behind this module's domain checks; ``digamma`` takes scipy's real ``psi``
on the positive axis, and a real array there goes to it whole.  A scalar
argument to ``digamma`` skips the arrays: scipy's ``psi`` on the Python
number gives the bits of its one-entry array call at a tenth of the cost.
``polygamma`` takes one order or a tuple of orders and evaluates them in
one pass: it reflects Re z < 1/2 to the right, shifts every entry below
Re z = 16 up in one step of at most 16 recurrence terms, and sums the
asymptotic series with the eight Bernoulli numbers B_2..B_16 by Horner's
rule, so each call is a fixed handful of whole-array operations whatever
its argument and however many orders it takes; on a short argument
those operations take same-shape operands, which numpy runs faster than
broadcast ones, with the same bits.  A real array on
[1/2, inf) takes the same operations in real arithmetic, with the same
bits.  An entry's value does not depend on the array it comes in, nor on
the other orders.  The test suite checks all three against independent
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
    "OverflowDomainError",
    "QuadratureError",
    "log_gamma",
    "log_gamma_ratio",
    "digamma",
    "polygamma",
    "entropy_J",
    "entropy_F",
    "abel_plana_sum",
    "graded_quad",
]


class _LazySpecial:
    """Stands in for ``scipy.special`` until its first attribute lookup,
    which imports the module and rebinds ``_special`` to it."""

    def __getattr__(self, name: str):
        global _special
        from scipy import special

        _special = special
        return getattr(special, name)


_special = _LazySpecial()


class DomainError(ValueError):
    """Argument outside the domain of a special function."""


class PoleError(DomainError):
    """Argument sits on a pole."""


class OverflowDomainError(DomainError, OverflowError):
    """A value is not finite: the argument is too large (or not finite)."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        # both arguments stay in args, so the error survives pickling
        super().__init__(message, achieved)
        self.achieved = achieved

    def __str__(self) -> str:
        return f"{self.args[0]} (achieved tolerance {self.achieved:.3e})"


# Bernoulli numbers B_2, B_4, ..., B_16.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# Shift threshold: with Re w >= 16 the series truncated after B_16 is
# accurate well below 1e-16 relative (its next term is below 1e-18 of the
# leading one).  After reflection Re w >= 1/2, so no entry needs more than
# 16 shifts.
_SHIFT_RE = 16.0
_SHIFTS = np.arange(int(_SHIFT_RE))

# Arrays of at most this many entries take polygamma's short layout (see
# ``_series_operands``).  For orders (1, 3) it was about a third faster at
# 2 to 64 entries, a fifth at 256 (22.9 against 34.3 us at 64 complex
# entries, medians of 9); above it the gain shrinks, it is gone at 512
# entries that need the shift, and each width keeps its own cached tiles.
_SHORT = 64

# Psi^(q)(w) ~ (a + (b + S(1/w^2) / w) / w) / w^q with (a, b) = _PG_LEAD[q]
# and S's coefficients from b_n = B_2n: b_n, -(2n+1) b_n and
# (2n+1)(2n+2) b_n for q = 1, 2, 3, highest order first for Horner's rule.
_PG_LEAD = {1: (1.0, 0.5), 2: (-1.0, -1.0), 3: (2.0, 3.0)}
_PG_COEFFS = {
    q: tuple(
        (1, -(2 * n + 1), (2 * n + 1) * (2 * n + 2))[q - 1] * b
        for n, b in enumerate(_BERNOULLI, start=1)
    )[::-1]
    for q in (1, 2, 3)
}


@lru_cache(maxsize=16)
def _pg_table(orders: Tuple[int, ...], dtype):
    """Per-order constants of ``polygamma`` as columns of ``dtype``, one row
    per order: q, the shift exponent -(q+1), the shift factor
    (-1)^(q+1) q!, the reflection sign (-1)^q, a, b and the Horner
    coefficients.  The complex route takes complex128 columns, so its
    products need no cast (the cast gives the same operands, so the same
    bits); the real route takes float64 ones."""
    rows = [(q, (-1.0) ** (q + 1) * math.factorial(q), (-1.0) ** q, *_PG_LEAD[q], *_PG_COEFFS[q])
            for q in orders]
    q, shift_c, sign, a, b, *coeffs = np.array(rows, dtype=dtype).T.copy()[:, :, None]
    return q, (-q - 1)[..., None], shift_c, sign, a, b, coeffs


@lru_cache(maxsize=64)
def _pg_tiles(orders: Tuple[int, ...], dtype, width: int):
    """The series constants of ``_pg_table`` (q, a, b and the Horner
    coefficients) repeated to (orders, width) blocks, read-only because
    every call of that width shares them."""
    q, _, _, _, a, b, coeffs = _pg_table(orders, dtype)
    tiles = [np.repeat(c, width, axis=1) for c in (q, a, b, *coeffs)]
    for tile in tiles:
        tile.flags.writeable = False
    q, a, b, *coeffs = tiles
    return q, a, b, coeffs


def _series_operands(orders, dtype, w: np.ndarray):
    """w and the series constants q, a, b and the Horner coefficients, in
    the layout for w's size.  A long w stays one row against (orders, 1)
    columns, which numpy broadcasts.  A short w, of at most ``_SHORT``
    entries, is repeated to one row per order against constants of that
    shape: numpy spends about 1.2 us more on an operation whose operands
    broadcast, and the series is a score of operations.  Each entry meets
    the same operations in either layout, and numpy's multiply, add,
    divide and power give the same bits for broadcast and same-shape
    operands, so the layouts agree bit for bit."""
    if w.size > _SHORT:
        return (w, *_pg_tiles(orders, dtype, 1))
    return (np.array((w,) * len(orders)), *_pg_tiles(orders, dtype, w.size))


def _as_complex_array(z) -> Tuple[np.ndarray, bool]:
    scalar = np.ndim(z) == 0
    return np.atleast_1d(np.asarray(z, dtype=np.complex128)), scalar


def _check_domain(z: np.ndarray, what: str, cut: bool) -> None:
    """DomainError on the cut (-inf, 0] if ``cut``, else PoleError at the
    poles 0, -1, -2, ..."""
    if not (z.real <= 0.0).any():
        return
    bad = (z.imag == 0.0) & (z.real <= 0.0)
    if not cut:
        bad &= z.real == np.floor(z.real)
    if bad.any():
        if cut:
            raise DomainError(f"{what} is undefined on the cut (-inf, 0]: got {z[bad][0]}")
        raise PoleError(f"{what} has a pole at {z[bad][0]}")


def _finite(out: np.ndarray, scalar: bool, what: str):
    """``out``, or for a scalar argument its last axis's one entry (a
    complex when no other axis is left); OverflowDomainError if not finite."""
    # count_nonzero skips the Python layer of ndarray.all, about 0.6 us
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise OverflowDomainError(f"{what} overflow: argument magnitude too large")
    if not scalar:
        return out
    out = out[..., 0]
    return complex(out) if out.ndim == 0 else out


def log_gamma(z):
    """Principal log Gamma: holomorphic on C \\ R_-, real on (0, inf).

    Satisfies log_gamma(z + 1) = log_gamma(z) + Log z with the principal
    logarithm; relative accuracy is better than 1e-13 for |z| <= 1e8.
    """
    arr, scalar = _as_complex_array(z)
    _check_domain(arr, "log_gamma", cut=True)
    return _finite(_special.loggamma(arr), scalar, "log_gamma")


# Stirling's series log Gamma(w) ~ (w - 1/2) log w - w + log(2 pi)/2
# + (1/w) S(1/w^2), with S's coefficients B_2k / (2k (2k-1)) highest order
# first, for Horner's rule.
_STIRLING_COEFFS = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, start=1))[::-1]


def _clog1p(u: np.ndarray) -> np.ndarray:
    """log(1 + u) for a complex array u with |u| <= 1/2, accurate to a few
    rounding units of its own size (numpy's complex log1p is not, at small
    u): 0.5 log1p(2 Re u + |u|^2) + i atan2(Im u, 1 + Re u)."""
    re, im = u.real, u.imag
    return 0.5 * np.log1p(re * (2.0 + re) + im * im) + 1j * np.arctan2(im, 1.0 + re)


def _log_quotient(w: np.ndarray, v: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Log w - Log v for complex arrays with Re w, Re v > 0, given their
    difference ``diff`` = w - v without the rounding of w and v: the log1p
    of diff / v where that is at most 1/2, which keeps the digits of a small
    difference, and the log of w / v elsewhere."""
    u = diff / v
    near = np.abs(u) <= 0.5
    if near.all():
        return _clog1p(u)
    out = np.log(w / v)
    out[near] = _clog1p(u[near])
    return out


def log_gamma_ratio(x, a, b=0.0):
    """log Gamma(x + a) - log Gamma(x + b) for real x and complex shifts a
    and b (numbers or arrays that broadcast together) with Re(x + a) > 0 and
    Re(x + b) > 0, without the log-Gamma values themselves, whose size
    x log x would swamp the difference.  Every entry below Re = 16 moves up
    by the recurrence in one step of at most 16 terms, Log(w + j) - Log(v + j)
    on one grid; at w = x + a and v = x + b beyond it, Stirling's series
    gives (a-b) log w + (v - 1/2) log(w/v) - (a-b)
    + sum_k B_2k / (2k (2k-1)) (w^(1-2k) - v^(1-2k)), with w and v on one
    leading axis.  Each log(w/v) is ``_log_quotient``'s, so a small a - b
    keeps its digits.  An entry's value does not depend on the array it
    comes in; three numbers give a complex."""
    x, a, b = np.asarray(x, dtype=float), np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    shape = np.broadcast(x, a, b).shape
    scalar, shape = not shape, shape or (1,)
    wv, diff = np.empty((2,) + shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)
    np.add(x, a, out=wv[0])
    np.add(x, b, out=wv[1])
    np.subtract(a, b, out=diff)
    wv, diff = wv.reshape(2, -1), diff.ravel()
    re_min = wv.real.min(axis=0)
    if not re_min.min(initial=1.0) > 0.0:
        raise DomainError(f"log_gamma_ratio needs Re(x + a), Re(x + b) > 0, got {re_min[~(re_min > 0.0)][0]}")
    k = np.ceil(_SHIFT_RE - re_min)
    shift, low = 0.0, k > 0.0
    if low.any():
        w, v = wv[:, low, None] + _SHIFTS
        terms = _log_quotient(w, v, diff[low, None])
        shift = np.zeros(diff.size, dtype=np.complex128)
        shift[low] = np.where(_SHIFTS < k[low, None], terms, 0.0).sum(axis=-1)
        wv = wv + np.where(low, k, 0.0)
    r = 1.0 / wv
    series = r * _horner(r * r, _STIRLING_COEFFS)
    w, v = wv
    out = diff * np.log(w) + (v - 0.5) * _log_quotient(w, v, diff) - diff + (series[0] - series[1]) - shift
    return _finite(out.reshape(shape), scalar, "log_gamma_ratio")


def digamma(z):
    """Digamma Psi = (log Gamma)'; meromorphic with poles at 0, -1, -2, ...

    Satisfies Psi(z+1) = Psi(z) + 1/z to better than 1e-12 relative.
    A scalar (a Python or numpy number, or a 0-d array) gives a complex,
    equal bit for bit to the one-entry array call, and raises the same
    errors; it is computed on Python numbers, without arrays.
    """
    # on (0, inf) scipy's real psi is accurate to about 1e-16, and faster;
    # its complex one is accurate to about 2e-15.  An array with every
    # entry there goes to it whole, others entry by entry.
    # np.ndim builds an array from a Python number; isinstance does not
    if isinstance(z, (float, complex)) or np.ndim(z) == 0:
        return _digamma_scalar(complex(z))
    x = np.asarray(z)
    if x.dtype.kind == "c" and not x.imag.any():
        x = x.real
    if x.dtype == np.float64 and (x > 0.0).all():
        return _finite(_special.psi(x).astype(np.complex128), False, "digamma")
    arr = np.asarray(x, dtype=np.complex128)
    _check_domain(arr, "digamma", cut=False)
    out = _special.psi(arr)
    axis = arr.imag == 0.0
    if axis.any():
        axis &= arr.real > 0.0
        out[axis] = _special.psi(arr.real[axis])
    return _finite(out, False, "digamma")


def _digamma_scalar(z: complex) -> complex:
    """The array route's operations for one entry, on Python scalars:
    scipy's scalar psi gives its array call's bits without the numpy
    calls on an array of one.  Im z = 0 is read as the real axis, as the
    array route drops a zero imaginary part, so -0.0 becomes +0.0."""
    if z.imag == 0.0:
        if z.real > 0.0:
            out = complex(_special.psi(z.real))
        elif z.real == np.floor(z.real):
            raise PoleError(f"digamma has a pole at {np.complex128(z.real)}")
        else:
            out = complex(_special.psi(complex(z.real)))
    else:
        out = complex(_special.psi(z))
    if not cmath.isfinite(out):
        raise OverflowDomainError("digamma overflow: argument magnitude too large")
    return out


def _cot_derivative(orders, z: np.ndarray) -> np.ndarray:
    """-pi (d/dz)^q cot(pi z) for each q of ``orders``, one row each:
    pi^2 u, -2 pi^3 c u and 2 pi^4 u (3u - 2) for q = 1, 2, 3, with
    c = cot(pi z) and u = 1 + c^2 after Re z is reduced mod 1.
    u = -4 e / (e - 1)^2 with e = exp(2 pi i sign(Im z) z), so |e| <= 1 and
    nothing overflows; c = 1 / tan(pi z), or -tan(pi (z -+ 1/2)) for
    |Re z| > 1/4, which keeps its zero at Re z = +-1/2 sharp."""
    x = z.real - np.round(z.real)
    s = np.where(z.imag < 0.0, -1.0, 1.0)
    arg = -2.0 * math.pi * np.abs(z.imag) + 2j * math.pi * (s * x)
    u = -4.0 * np.exp(arg) / np.expm1(arg) ** 2
    rows = []
    for q in orders:
        if q == 1:
            rows.append(math.pi**2 * u)
        elif q == 3:
            rows.append(2.0 * math.pi**4 * u * (3.0 * u - 2.0))
        else:
            far = np.abs(x) > 0.25
            t = np.tan(math.pi * (x - np.where(far, np.copysign(0.5, x), 0.0) + 1j * z.imag))
            rows.append(-2.0 * math.pi**3 * np.divide(1.0, t, out=-t, where=~far) * u)
    return np.array(rows)


def _horner(u: np.ndarray, coeffs) -> np.ndarray:
    """sum_i coeffs[-1-i] u^i, where each coefficient has one row per
    order; ``u`` and the coefficients are in one of the layouts of
    ``_series_operands``.  The running sum is updated in place, which
    saves an allocation per step on long arrays and costs no more than a
    new array on short ones."""
    out = coeffs[0] * u
    for c in coeffs[1:-1]:
        out += c
        out *= u
    return out + coeffs[-1]


def _recip_power(w: np.ndarray, n: int) -> np.ndarray:
    """1 / w^n for n = 1..4 as numpy's complex power forms w^n (w, w*w,
    w*(w*w), (w*w)*(w*w)), so a real w gets the complex route's bits."""
    if n == 1:
        return 1.0 / w
    w2 = w * w
    return 1.0 / (w2 if n == 2 else w * w2 if n == 3 else w2 * w2)


def _shift(w: np.ndarray, low: np.ndarray, powers: Callable, shift_c: np.ndarray):
    """Psi^(q)(w) = Psi^(q)(w + k) + (-1)^(q+1) q! sum_{j<k} (w + j)^-(q+1)
    with k = ceil(16 - Re w), on the entries ``low``: returns w with those
    entries moved up and the sums, one row per order.  ``powers`` maps the
    grid of w + j, j < 16, to one grid of powers per order; the cells
    j >= k are zeroed.  A real grid is summed in the order numpy sums a
    complex row of 16 (four running sums over every fourth column, then
    added in pairs), so a real w gets the complex route's bits."""
    w_low = w[low]
    k = np.ceil(_SHIFT_RE - w_low.real)
    grid = np.where(_SHIFTS < k[:, None], powers(w_low[:, None] + _SHIFTS), 0.0)
    if w.dtype.kind == "c":
        sums = grid.sum(axis=-1)
    else:
        g = grid.reshape(grid.shape[:-1] + (4, 4))
        acc = ((g[..., 0, :] + g[..., 1, :]) + g[..., 2, :]) + g[..., 3, :]
        sums = (acc[..., 0] + acc[..., 1]) + (acc[..., 2] + acc[..., 3])
    shift_sum = np.zeros((len(shift_c), w.size), dtype=w.dtype)
    shift_sum[:, low] = shift_c * sums
    w = w.copy()
    w[low] = w_low + k
    return w, shift_sum


def _polygamma_complex(orders, arr: np.ndarray) -> np.ndarray:
    """Reflection, shift and series in complex arithmetic, for any z."""
    _, exps, shift_c, sign, *_ = _pg_table(orders, np.complex128)
    w, reflect, shift_sum = arr, False, 0.0
    # entries with Re z >= 16 need neither reflection nor shift
    if not arr.real.min(initial=_SHIFT_RE) >= _SHIFT_RE:
        _check_domain(arr, "polygamma", cut=False)
        left = arr.real < 0.5
        reflect = left.any()
        w = np.where(left, 1.0 - arr, arr) if reflect else arr
        low = w.real < _SHIFT_RE
        if low.any():
            w, shift_sum = _shift(w, low, lambda p: p**exps, shift_c)
    w, qs, a, b, coeffs = _series_operands(orders, np.complex128, w)
    out = (a + (b + _horner(1.0 / (w * w), coeffs) / w) / w) / w**qs + shift_sum
    if reflect:
        out[:, left] = sign * out[:, left] + _cot_derivative(orders, arr[left])
    return out


def _polygamma_real(orders, x: np.ndarray) -> np.ndarray:
    """The complex route's operations for real x >= 1/2 (no reflection), in
    real arithmetic: numpy's complex divide forms y / w as y * (1 / w), and
    powers come from ``_recip_power``, so the bits are the same."""
    shift_c = _pg_table(orders, np.float64)[2]
    w, shift_sum = x, 0.0
    low = x < _SHIFT_RE
    if low.any():
        def powers(p):
            return np.array([_recip_power(p, q + 1) for q in orders])

        w, shift_sum = _shift(x, low, powers, shift_c)
    lead = np.array([_recip_power(w, q) for q in orders])
    w, _, a, b, coeffs = _series_operands(orders, np.float64, w)
    inv = 1.0 / w
    return (a + (b + _horner(1.0 / (w * w), coeffs) * inv) * inv) * lead + shift_sum


def polygamma(q, z):
    """Polygamma Psi^(q) for q in {1, 2, 3}; scipy's is real-only.

    ``q`` is one order, or a tuple of orders evaluated in one pass: the
    result then has a leading axis with one row per order, and each row
    equals the one-order call bit for bit.  Arguments with Re z < 1/2 are
    reflected, Psi^(q)(z) = (-1)^q Psi^(q)(1-z) - pi (d/dz)^q cot(pi z).
    Every entry with Re w < 16 then moves up by the recurrence in one
    step, on a grid of at most 16 columns, and the asymptotic series with
    the eight Bernoulli numbers B_2..B_16 is summed by Horner's rule in
    1/w^2.  A float64 argument with every entry finite and >= 1/2 takes
    the same operations in real arithmetic, with the same bits; the result
    is complex either way.  Higher orders are out of scope.

    The series runs in one of two layouts, chosen by the argument's size
    alone.  Up to 64 entries w is repeated once per order and meets
    constants of the same shape, as numpy's cost per operation, not the
    arithmetic, sets the time there: a one-law ``gammalaw.cumulants``
    call, whose pass is ``polygamma((1, 3), two entries)``, takes about
    22 us against 31 us with broadcast operands (2-core x86_64, numpy
    2.4.6).  Longer arguments broadcast (orders, 1) columns against one
    row and update the Horner sum in place.  Both layouts apply the same
    operations to each entry, so they give the same bits: the tests
    compare every slice of 1 to 70 entries with its entries in a
    10,000-entry call, and 4 * 10^6 values in chunks of 1 to 64 entries
    matched their long calls bit for bit.
    """
    orders = q if isinstance(q, tuple) else (q,)
    for order in orders:
        if order not in (1, 2, 3):
            raise DomainError(f"polygamma order must be 1, 2 or 3, got {order}")
    x = np.asarray(z)
    # the dtype decides first, so complex input pays no scan of its values
    if x.dtype == np.float64 and x.min(initial=1.0) >= 0.5 and x.max(initial=1.0) < math.inf:
        arr, scalar = np.atleast_1d(x), x.ndim == 0
        out = _polygamma_real(orders, arr.ravel()).astype(np.complex128)
    else:
        arr, scalar = _as_complex_array(x)
        out = _polygamma_complex(orders, arr.ravel())
    out = out.reshape((len(orders),) + arr.shape)
    return _finite(out if isinstance(q, tuple) else out[0], scalar, "polygamma")


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
_AP_ORDERS = (16, 32, 64, 128, 256, 512)
_AP_TOL = 1e-13


@lru_cache(maxsize=len(_AP_ORDERS))
def _boundary_rule(order: int):
    """The order-``order`` rule on the panels ``_AP_BREAKS``: nodes y and
    weights divided by e^(2 pi y) - 1, read-only because every caller
    shares them."""
    nodes, w = _gauss_nodes(order)
    half = 0.5 * np.diff(_AP_BREAKS)[:, None]
    mid = _AP_BREAKS[:-1, None] + half
    y = (mid + half * nodes).ravel()
    weights = (half * w).ravel() / np.expm1(2.0 * math.pi * y)
    y.flags.writeable = False
    weights.flags.writeable = False
    return y, weights


def _boundary_quad(f: Callable, x: np.ndarray) -> np.ndarray:
    """int_0^inf f(x, y) / (e^(2 pi y) - 1) dy for each endpoint of ``x``;
    ``f(x, y)`` has shape (..., x.size, y.size).  A composite Gauss-Legendre
    rule on the panels ``_AP_BREAKS``, of each order of ``_AP_ORDERS`` in
    turn.  An endpoint is done when two orders agree to ``_AP_TOL`` relative
    in every leading entry, and only endpoints not done are evaluated at the
    next order, so an endpoint gets the same bits whatever endpoints come
    with it.  QuadratureError when the last order leaves one undone."""
    todo, out, prev = np.arange(x.size), None, None
    for order in _AP_ORDERS:
        y, weights = _boundary_rule(order)
        cur = np.sum(weights * f(x[todo], y), axis=-1)
        if prev is None:
            out = np.empty(cur.shape[:-1] + x.shape, dtype=np.complex128)
        else:
            err = np.abs(cur - prev) / np.maximum(1.0, np.abs(cur))
            err = err.reshape(-1, todo.size).max(axis=0)
            done = err <= _AP_TOL
            out[..., todo[done]] = cur[..., done]
            todo, cur = todo[~done], cur[..., ~done]
            if not todo.size:
                return out
        prev = cur
    raise QuadratureError("Abel-Plana boundary integral did not converge", float(err.max()))


def abel_plana_sum(g: Callable, primitive: Callable, m, n: int, conjugate_symmetric: bool = False):
    """Sum g(m+1) + ... + g(n) by the Abel-Plana formula, for an int ``m``
    or for each entry of an int array of lower ends ``m``.

    Each sum is A(n) - A(m) for the endpoint function

        A(x) = primitive(x) + g(x)/2 - B(x),
        B(x) = i * int_0^inf [g(x+iy) - g(x-iy)] / (e^(2 pi y) - 1) dy,

    so n is evaluated once for all lower ends.  ``g`` maps complex points
    to values along its last axis (leading axes may hold several summands),
    must be holomorphic on min(m) <= Re t <= n and grow slower than
    exp(2 pi |Im t|) there; its antiderivative ``primitive`` is called
    once, on the array of endpoints.  An int ``m`` and a one-axis ``g``
    give a complex.

    ``conjugate_symmetric=True`` asserts g(conj t) = conj g(t) bit for bit,
    as holds for a summand real on the real axis (Schwarz reflection) whose
    arithmetic is odd in Im t.  g is then evaluated on the lines x+iy only
    and g(x-iy) is taken as its conjugate, which halves the work; if the
    assertion is false, so is the sum.
    """
    lows = np.asarray(m)
    if lows.ndim > 1 or not (lows < n).all():
        raise DomainError(f"abel_plana_sum needs m < n, got {m}, {n}")
    x = np.append(lows, n).astype(np.complex128)
    lines = np.array([1j] if conjugate_symmetric else [1j, -1j])[:, None, None]

    def jump(x, y):
        # g on the line x+iy of every endpoint, and on x-iy unless it is
        # the mirror image, in one call
        t = x[:, None] + lines * y
        v = g(t.ravel())
        v = v.reshape(v.shape[:-1] + t.shape)
        upper = v[..., 0, :, :]
        return upper - (np.conj(upper) if conjugate_symmetric else v[..., 1, :, :])

    # the primitive's increment is taken apart from the small rest of A,
    # whose digits it would otherwise round away
    big, small = primitive(x), 0.5 * g(x) - 1j * _boundary_quad(jump, x)
    sums = (big[..., -1:] - big[..., :-1]) + (small[..., -1:] - small[..., :-1])
    sums = sums[..., 0] if lows.ndim == 0 else sums
    return complex(sums) if sums.ndim == 0 else sums


# The graded rule: each half of a piece [a, b] is cut at distances h s^k,
# k = 1..layers, from its outer end (h = (b - a) / 2, s = _GRADE), and
# Gauss-Legendre of one order runs on every panel.  One (order, layers)
# pair per level; the innermost panel of the last level is 0.2^26 ~ 7e-19
# of a half piece.  Panels in ratio 0.2 see a singularity at the end in the
# same proportion, so an algebraic or logarithmic endpoint singularity costs
# a fixed order per panel and one panel per factor 5 of distance (Davis &
# Rabinowitz 1984, sec. 2.12).
_GRADE = 0.2
_GRADED_LEVELS = ((8, 10), (12, 14), (16, 18), (24, 22), (32, 26))


@lru_cache(maxsize=8)
def _graded_unit(order: int, layers: int):
    """Nodes and weights on (0, 1) of the panels [0, s^L], [s^L, s^(L-1)],
    ..., [s, 1], read-only because every caller shares them."""
    breaks = np.append(0.0, _GRADE ** np.arange(layers, -1, -1.0))
    x, w = _gauss_nodes(order)
    half = 0.5 * np.diff(breaks)[:, None]
    t = (breaks[:-1, None] + half + half * x).ravel()
    wt = (half * w).ravel()
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


def graded_quad(f: Callable, points, tol: float):
    """Integral of f over [points[0], points[-1]], graded toward every point.

    ``points`` is increasing; each piece between neighbours is halved, and
    each half graded toward its outer end, so singularities and sharp
    features belong at the points.  ``f`` maps a 1-d array of nodes to
    values along its last axis (leading axes hold several integrands, and
    the result has their shape); it never sees an end point unless a node
    rounds onto it.  Level by level (``_GRADED_LEVELS``) f is called once,
    at every node of every piece; the result is the first level whose
    value agrees with the level before to ``tol * max(1, |value|)`` in
    every entry.  QuadratureError carries that difference, in the same
    units, when the last level still misses it.
    """
    p = np.asarray(points, dtype=float)
    lo, hi = p[:-1, None], p[1:, None]
    h = 0.5 * (hi - lo)
    prev = None
    for order, layers in _GRADED_LEVELS:
        t, w = _graded_unit(order, layers)
        x = np.concatenate((lo + h * t, hi - h * t), axis=1)
        v = np.asarray(f(x.ravel()), dtype=float)
        v = v.reshape(v.shape[:-1] + x.shape)
        cur = (v[..., : t.size] @ w + v[..., t.size :] @ w) @ h[:, 0]
        if prev is not None:
            err = float(np.max(np.abs(cur - prev) / np.maximum(1.0, np.abs(cur))))
            if err <= tol:
                return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureError("graded Gauss-Legendre rule did not converge", err)
