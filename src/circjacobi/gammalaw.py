"""Exact moments of a single deformed Verblunsky coefficient.

A coefficient of rank weight r > 0 lives on the open unit disc with
density proportional to (1-|z|^2)^(r-1) (1-z)^conj(delta) (1-conj(z))^delta;
the terminal coefficient (r = 0) lives on the unit circle with density
proportional to (1-z)^conj(delta) (1-conj(z))^delta.  Everything here --
normalization constants, Mellin-Fourier moments, the cumulant generating
function and the cumulants of log(1 - gamma) -- is an explicit Gamma /
digamma combination evaluated through :mod:`circjacobi.specfun`.
``cumulants`` also takes a law with an array of rank weights and does all
of them in one pass.

All operations are pure and stateless.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError, digamma, log_gamma, polygamma

__all__ = [
    "CoefficientLaw",
    "CumulantSet",
    "disc_weight_integral",
    "normalization_c",
    "mellin_fourier",
    "cgf_Lambda",
    "cumulants",
]


@dataclass(frozen=True)
class CoefficientLaw:
    """Distribution of one deformed Verblunsky coefficient, or of several
    that share ``delta``.

    ``r`` is the rank weight (r = 0 selects the circle law), or a 1-D array
    of rank weights, one law each, which only ``cumulants`` takes; ``delta``
    is the deformation, constrained by r + 2 Re delta + 1 > 0.  Both must
    be finite, every entry of a rank array too.  A rank array that breaks
    a constraint raises the DomainError of its lowest rank.
    """

    r: float
    delta: complex

    def __post_init__(self):
        r, delta = self.r, complex(self.delta)
        # the isinstance test spares the common scalar law an np.ndim call
        if not isinstance(r, (int, float)) and np.ndim(r):
            if np.ndim(r) > 1:
                raise DomainError(f"rank weights must be a number or a 1-D array, got {r!r}")
            finite = np.isfinite(r).all()
            r = np.min(r, initial=np.inf)
        else:
            finite = math.isfinite(r)
        if not (finite and cmath.isfinite(delta)):
            raise DomainError(f"need finite rank weights and delta, got r={self.r}, delta={self.delta}")
        if r < 0:
            raise DomainError(f"rank weight must be nonnegative, got {r}")
        if r + 2.0 * delta.real + 1.0 <= 0.0:
            raise DomainError(f"need r + 2 Re delta + 1 > 0, got r={r}, delta={self.delta}")


@dataclass(frozen=True)
class CumulantSet:
    """Mean, (Re, Im) covariance and fourth-moment bound of log(1-gamma);
    arrays with one entry (a 2x2 block for the covariance) per rank when
    the law has an array of ranks."""

    mean: complex
    covariance: np.ndarray = field(repr=False)
    fourth_bound: float

    @property
    def var_re(self):
        return _entry(self.covariance[..., 0, 0])

    @property
    def var_im(self):
        return _entry(self.covariance[..., 1, 1])

    @property
    def cov_re_im(self):
        return _entry(self.covariance[..., 0, 1])


def _entry(values: np.ndarray):
    """A float for one law, the array for a rank array."""
    return float(values) if values.ndim == 0 else values


def _one_rank(law: CoefficientLaw, what: str) -> float:
    """The law's rank weight; a DomainError for a rank array, which only
    ``cumulants`` takes."""
    if not isinstance(law.r, (int, float)) and np.ndim(law.r):
        raise DomainError(f"{what} takes one rank weight, got an array of {np.size(law.r)}")
    return law.r


def _log_gammas(*args) -> list:
    """log Gamma of each (value, label) pair, in one call, as Python
    complexes; a DomainError names the first value whose real part is not
    positive."""
    values = [complex(value) for value, _ in args]
    for value, (_, label) in zip(values, args):
        if value.real <= 0.0:
            raise DomainError(f"Gamma argument {label} = {value} must have positive real part")
    return log_gamma(np.array(values)).tolist()


def disc_weight_integral(l: complex, s: complex, t: complex) -> complex:
    """Integral over the unit disc of (1-|z|^2)^(l-1) (1-z)^s (1-conj(z))^t.

    Equals pi * G(l) G(l+1+s+t) / (G(l+1+s) G(l+1+t)), evaluated through
    log-gamma so large parameters do not overflow.
    """
    l = complex(l)
    g = _log_gammas(
        (l, "l"), (l + 1 + s + t, "l+1+s+t"), (l + 1 + s, "l+1+s"), (l + 1 + t, "l+1+t")
    )
    return math.pi * np.exp(g[0] + g[1] - g[2] - g[3])


def normalization_c(law: CoefficientLaw) -> float:
    """Normalization constant of the coefficient density.

    For r > 0 this is the constant multiplying the disc density (with
    respect to planar Lebesgue measure); for r = 0 it is the constant of
    the circle law with respect to d(theta) on (0, 2 pi).
    """
    r, d = _one_rank(law, "normalization_c"), complex(law.delta)
    two_re = 2.0 * d.real
    if r > 0:
        g = log_gamma(np.array([r + 1 + d, r, r + 1 + two_re])).real
        val = math.exp(2.0 * g[0] - g[1] - g[2]) / math.pi
    else:
        g = log_gamma(np.array([1 + d, 1 + two_re])).real
        val = math.exp(2.0 * g[0] - g[1]) / (2.0 * math.pi)
    return val


def mellin_fourier(law: CoefficientLaw, a: complex, b: complex) -> complex:
    """Joint moment E (1-gamma)^a (1-conj(gamma))^b.

    A quotient of six Gamma factors; at r = 0 it is the Mellin-Fourier
    transform of 1 - gamma under the circle law.  Every Gamma argument
    must have positive real part.
    """
    r, d = _one_rank(law, "mellin_fourier"), complex(law.delta)
    db = d.conjugate()
    g = _log_gammas(
        (r + 1 + d + db + a + b, "r+1+delta+conj(delta)+a+b"),
        (r + 1 + db, "r+1+conj(delta)"),
        (r + 1 + d, "r+1+delta"),
        (r + 1 + d + db, "r+1+delta+conj(delta)"),
        (r + 1 + db + a, "r+1+conj(delta)+a"),
        (r + 1 + d + b, "r+1+delta+b"),
    )
    return complex(np.exp(g[0] + g[1] + g[2] - (g[3] + g[4] + g[5])))


def cgf_Lambda(law: CoefficientLaw, s: float, t: float) -> float:
    """Cumulant generating function of (2 Re log(1-gamma), 2 Im log(1-gamma))
    at real (s, t): log E exp(2 s Re log(1-gamma) + 2 t Im log(1-gamma)).

    Real-valued; the six log-gamma terms pair into conjugates.
    """
    r, d = _one_rank(law, "cgf_Lambda"), complex(law.delta)
    two_re = 2.0 * d.real
    g = _log_gammas(
        (r + 1 + two_re + 2 * s, "r+1+2Re(delta)+2s"),
        (r + 1 + two_re, "r+1+2Re(delta)"),
        (r + 1 + d + s + 1j * t, "r+1+delta+s+it"),
        (r + 1 + d, "r+1+delta"),
    )
    return float(g[0].real - g[1].real - 2.0 * g[2].real + 2.0 * g[3].real)


def cumulants(law: CoefficientLaw) -> CumulantSet:
    """Exact mean, covariance and fourth-moment bound of log(1-gamma).

    mean      = Psi(r+1+2Re d) - Psi(r+1+conj(d)),
    Var Re    = Psi'(r+1+2Re d) - Re Psi'(r+1+d) / 2,
    Var Im    = Re Psi'(r+1+d) / 2,
    Cov       = Im Psi'(r+1+d) / 2.

    ``fourth_bound`` is the proof-grade upper bound on E|A|^4 for the
    centered variable A = log(1-gamma) - E log(1-gamma):
    24 (Var Re)^2 + 24 (Var Im)^2 + 8 |k4 Re| + 8 |k4 Im|, with the
    fourth cumulants assembled from Psi''' values.

    A law with an array of ranks gives one mean, 2x2 block and bound per
    rank, each equal to its one-rank call bit for bit.  Both take one code
    path, on Python numbers for one law and on arrays for a rank array:
    one digamma call on r+1+2Re d, one on r+1+conj(d) and one polygamma
    pass for Psi' and Psi''' on the stacked pair.  A one-rank law gives a
    complex, a 2x2 array and a float.
    """
    # one rank is taken as a Python float, as numpy's scalar arithmetic
    # with a Python complex is slow; the values are the same
    r = law.r
    r1 = (float(r) if isinstance(r, (int, float)) else np.asarray(r, dtype=float)) + 1.0
    d = complex(law.delta)
    sym = r1 + 2.0 * d.real
    mean = digamma(sym) - digamma(r1 + d.conjugate())
    pg = polygamma((1, 3), np.array([sym, r1 + d]))
    # one law takes Python numbers, which are faster than arrays of one;
    # the operations are the same, so are the bits (squares are x * x, as
    # Python's x**2 goes through pow and can round differently)
    one = pg.ndim == 2
    (p1_sym, p1), (p3_sym, p3) = pg.tolist() if one else pg
    var_im = 0.5 * p1.real
    var_re = p1_sym.real - var_im
    cov = 0.5 * p1.imag
    k4_im = -0.125 * p3.real
    k4_re = p3_sym.real + k4_im
    bound = 24.0 * (var_re * var_re + var_im * var_im) + 8.0 * (abs(k4_re) + abs(k4_im))
    if one:
        return CumulantSet(mean, np.array([[var_re, cov], [cov, var_im]]), bound)
    covariance = np.stack([var_re, cov, cov, var_im], axis=-1).reshape(-1, 2, 2)
    return CumulantSet(mean=mean, covariance=covariance, fourth_bound=bound)
