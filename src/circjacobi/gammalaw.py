"""Exact moments of a single deformed Verblunsky coefficient.

A coefficient of rank weight r > 0 lives on the open unit disc with
density proportional to (1-|z|^2)^(r-1) (1-z)^conj(delta) (1-conj(z))^delta;
the terminal coefficient (r = 0) lives on the unit circle with density
proportional to (1-z)^conj(delta) (1-conj(z))^delta.  Everything here --
normalization constants, Mellin-Fourier moments, the cumulant generating
function and the cumulants of log(1 - gamma) -- is an explicit Gamma /
digamma combination evaluated through :mod:`circjacobi.specfun`, each
Gamma quotient as ``log_gamma_ratio`` differences, which keep their
digits at large rank.  Every function takes a law of one rank (Python
numbers out) or of a rank array (arrays out, each entry the bits of its
one-rank call), and none loads ``scipy.special``.

All operations are pure and stateless.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError, _finite, _psi, log_gamma_ratio

__all__ = ["CoefficientLaw", "CumulantSet", "disc_weight_integral", "normalization_c",
           "mellin_fourier", "cgf_Lambda", "cumulants"]


@dataclass(frozen=True)
class CoefficientLaw:
    """Distribution of one deformed Verblunsky coefficient, or of several
    that share ``delta``.

    ``r`` is the rank weight (r = 0 selects the circle law), or a 1-D array
    of rank weights, one law each; ``delta`` is the deformation,
    constrained by r + 2 Re delta + 1 > 0.  Both must be finite, every
    entry of a rank array too, and a rank is no bool.  A rank array that
    breaks a constraint raises the DomainError of its lowest rank.
    """

    r: float
    delta: complex

    def __post_init__(self):
        r, delta = self.r, complex(self.delta)
        # the isinstance test spares the common scalar law numpy calls
        one = isinstance(r, (int, float))
        if isinstance(r, bool) or not one and np.asarray(r).dtype == bool:
            raise DomainError(f"rank weights must be numbers, not bools, got {r!r}")
        if not one and np.ndim(r):
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


def _per_rank(values: np.ndarray, r):
    """A Python number for one rank r, the array for a rank array."""
    return values[0].item() if np.ndim(r) == 0 else values


def _log_gamma_ratios(x: np.ndarray, *pairs) -> np.ndarray:
    """log Gamma(x + a) - log Gamma(x + b), one column for each pair
    ((a, label), (b, label)), in one ``log_gamma_ratio`` call; x is a 1-D
    float array and a shift a number or an array like x.  Before the call,
    the first Gamma argument (a before b, pair by pair) with real part <= 0
    at the lowest x raises a DomainError that names it, so a rank array
    raises what its lowest rank raises alone."""
    labels = [label for pair in pairs for _, label in pair]
    shifts = np.stack(np.broadcast_arrays(*(shift for pair in pairs for shift, _ in pair)), axis=-1)
    if x.size:
        i = np.argmin(x)
        for z, label in zip((x[i] + (shifts[i] if shifts.ndim > 1 else shifts)).tolist(), labels):
            if z.real <= 0.0:
                raise DomainError(f"Gamma argument {label} = {z} must have positive real part")
    return log_gamma_ratio(x[:, None], shifts[..., 0::2], shifts[..., 1::2])


def disc_weight_integral(l: complex, s: complex, t: complex) -> complex | np.ndarray:
    """Integral over the unit disc of (1-|z|^2)^(l-1) (1-z)^s (1-conj(z))^t,
    for a number l or an array of them.

    Equals pi * G(l) G(l+1+s+t) / (G(l+1+s) G(l+1+t)), two log-Gamma
    differences at x = Re l, so large parameters neither overflow nor
    cancel.
    """
    lv = np.atleast_1d(np.asarray(l, dtype=complex))
    il = 1j * lv.imag
    g = _log_gamma_ratios(lv.real, ((il, "l"), (il + (1 + t), "l+1+t")),
                          ((il + (1 + s + t), "l+1+s+t"), (il + (1 + s), "l+1+s")))
    return _per_rank(math.pi * np.exp(g[:, 0] + g[:, 1]), l)


def normalization_c(law: CoefficientLaw) -> float | np.ndarray:
    """Normalization constant of the coefficient density.

    For r > 0 this is the constant multiplying the disc density (with
    respect to planar Lebesgue measure), G(r+1+d) G(r+1+conj d) /
    (pi G(r) G(r+1+2 Re d)); for r = 0 it is the constant of the circle
    law with respect to d(theta) on (0, 2 pi), with 2 pi G(1) for pi G(r).
    """
    r, d = np.atleast_1d(law.r), complex(law.delta)
    g = _log_gamma_ratios(r + 1.0, ((d, "r+1+delta"), (2.0 * d.real, "r+1+2Re(delta)")),
                          ((d, "r+1+delta"), (0.0, "r+1")))
    scale = np.where(r > 0.0, r / math.pi, 0.5 / math.pi)  # G(r) = G(r+1) / r
    return _per_rank(np.exp(g[:, 0].real + g[:, 1].real) * scale, law.r)


def mellin_fourier(law: CoefficientLaw, a: complex, b: complex) -> complex | np.ndarray:
    """Joint moment E (1-gamma)^a (1-conj(gamma))^b.

    A quotient of six Gamma factors, three log-Gamma differences; at r = 0
    it is the Mellin-Fourier transform of 1 - gamma under the circle law.
    Every Gamma argument must have positive real part.
    """
    d = complex(law.delta)
    db, two_re = d.conjugate(), 2.0 * d.real
    g = _log_gamma_ratios(
        np.atleast_1d(law.r) + 1.0,
        ((two_re + a + b, "r+1+delta+conj(delta)+a+b"), (two_re, "r+1+delta+conj(delta)")),
        ((db, "r+1+conj(delta)"), (db + a, "r+1+conj(delta)+a")),
        ((d, "r+1+delta"), (d + b, "r+1+delta+b")),
    )
    return _per_rank(np.exp(g[:, 0] + g[:, 1] + g[:, 2]), law.r)


def cgf_Lambda(law: CoefficientLaw, s: float, t: float) -> float | np.ndarray:
    """Cumulant generating function of (2 Re log(1-gamma), 2 Im log(1-gamma))
    at real (s, t): log E exp(2 s Re log(1-gamma) + 2 t Im log(1-gamma)).

    Real-valued; the six log-gamma terms pair into conjugates, which leaves
    the real parts of two log-Gamma differences.
    """
    d = complex(law.delta)
    two_re = 2.0 * d.real
    g = _log_gamma_ratios(
        np.atleast_1d(law.r) + 1.0, ((two_re + 2 * s, "r+1+2Re(delta)+2s"), (two_re, "r+1+2Re(delta)")),
        ((d + s + 1j * t, "r+1+delta+s+it"), (d, "r+1+delta")),
    )
    return _per_rank(g[:, 0].real - 2.0 * g[:, 1].real, law.r)


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
    one pass of ``specfun``'s polygamma engine for Psi, Psi' and Psi''' on
    the stacked pair r+1+2Re d, r+1+d, with Psi(r+1+conj(d)) taken as
    conj Psi(r+1+d).  A one-rank law gives a complex, a 2x2 array and a
    float.
    """
    # one rank is taken as a Python float, as numpy's scalar arithmetic
    # with a Python complex is slow; the values are the same
    r = law.r
    r1 = (float(r) if isinstance(r, (int, float)) else np.asarray(r, dtype=float)) + 1.0
    d = complex(law.delta)
    sym = r1 + 2.0 * d.real
    pg = _finite(*_psi((0, 1, 3), np.array([sym, r1 + d]), "digamma"), "digamma")
    # one law takes Python numbers, which are faster than arrays of one;
    # the operations are the same, so are the bits (squares are x * x, as
    # Python's x**2 goes through pow and can round differently)
    one = pg.ndim == 2
    (p0_sym, p0), (p1_sym, p1), (p3_sym, p3) = pg.tolist() if one else pg
    mean = p0_sym - (p0.conjugate() if one else np.conj(p0))
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
