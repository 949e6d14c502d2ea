"""Exact sampling of deformed Verblunsky coefficients.

Representation.  A disc coefficient of rank weight r > 0 has density
proportional to (1-|z|^2)^(r-1) |1-z|^(2 Re delta) exp(2 Im delta arg(1-z))
on the unit disc (Bourgade, Nikeghbali & Rouault, IMRN 2009).  Write
1 - z = rho e^(i phi) with phi in (-pi/2, pi/2) and rho = 2 s cos(phi),
s in (0, 1).  Then 1 - |z|^2 = 4 s (1-s) cos^2(phi) and
dA = 4 s cos^2(phi) ds dphi, so the density factorises into

    s^(r + 2 Re delta) (1-s)^(r-1)  *  cos^(2(r + Re delta))(phi) exp(2 Im delta phi).

On the circle 1 - w = 2 cos(phi) e^(i phi), i.e. w = -e^(2 i phi), and
the circle law with deformation delta has angle density
cos^(2 Re delta)(phi) exp(2 Im delta phi).  Hence

    gamma = 1 - S (1 - W) = (1 - S) + S W,

with S ~ Beta(r + 1 + 2 Re delta, r) independent of W, which is drawn
from the circle law with deformation r + delta.  The circle (terminal)
coefficient is the case r = 0, S = 1.  1 - S is formed as G2 / (G1 + G2)
from the two gamma variates, never as 1 - S, so draws close to the
circle keep their distance from it.  At small rank weights the law still
puts mass within 1e-16 of the circle; an ensemble draw with a disc
coefficient that rounded onto it in float64 raises ``SamplingError``.

Drawing W, with m = r + Re delta and b = Im delta:

* real delta: T = tan(phi) has density proportional to (1+T^2)^(-m-1),
  a scaled Student t, so T = N / sqrt(2G) with N standard normal and
  G ~ Gamma(m + 1/2).  No rejection.
* Im delta != 0: phi has the log-concave density cos^(2m)(phi) e^(2 b phi)
  with mode arctan(b/m).  It is drawn by rejection from an envelope that
  is flat at the mode and follows tangent lines of the log-density
  beyond the points sqrt(m)/|m + ib| either side of the mode (sqrt 2
  curvature lengths, the best choice for a Gaussian) (Devroye, Non-Uniform Random Variate Generation, 1986,
  ch. VII); concavity makes every tangent an upper bound, so the draw is
  exact.  ``disc_acceptance_rate`` gives the exact acceptance, which is
  above 0.67 for all m >= 0 and b (its infimum lies near m = 0.405, b = 0).
* delta = 0: |z|^2 = 1 - (1-u)^(1/r) by inversion and a uniform angle,
  which is cheaper than the product form.

Samplers require Re delta >= 0; the singular-weight range
-1/2 < Re delta < 0 is covered by the closed-form modules only.

Randomness contract (pinned): numpy ``PCG64`` bit generators seeded via
``SeedSequence(seed, spawn_key=(i,))``.  Ensemble sample i of master
seed s is ``ensemble_gammas(params, substream(s, i))``: all n slots come
from that one generator.  ``sample_ensemble(params, s)`` is sample 0 and
``sample_ensemble_batch`` stacks samples 0..count-1, so Monte Carlo runs
are reproducible and independent of how samples are distributed over
workers.  Samplers take a numpy ``Generator``; within one generator
every sampler calls the same kernel on an array of per-slot rank
weights, whose draw sequence depends only on the ranks and delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .asymptotics import EnsembleParams
from .specfun import DomainError, log_gamma

__all__ = [
    "GENERATOR_FAMILY",
    "SamplingError",
    "DeformedVerblunskySample",
    "substream",
    "sample_gamma_disc",
    "sample_gamma_circle",
    "sample_ensemble",
    "sample_ensemble_batch",
    "disc_acceptance_rate",
]

GENERATOR_FAMILY = "numpy.random.PCG64 + SeedSequence(seed, spawn_key=path)"

# The angle rejection step may not consume more than this many proposals
# per slot.
ITERATION_CAP = 10**6

_HALF_PI = 0.5 * math.pi


class SamplingError(RuntimeError):
    """A draw could not be made exactly: the angle rejection step exceeded
    its iteration cap, or a disc coefficient rounded onto the unit circle."""


def substream(seed: int, *path: int) -> np.random.Generator:
    """Derive the generator for a substream path from a master seed."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class DeformedVerblunskySample:
    """One draw of the coefficient vector (gamma_0, ..., gamma_{n-1})."""

    gamma: np.ndarray
    seed: int
    params: EnsembleParams

    def __post_init__(self):
        g = self.gamma
        if len(g) != self.params.n:
            raise ValueError("coefficient count does not match n")
        mod = np.abs(g)
        if len(g) > 1 and np.any(mod[:-1] >= 1.0):
            raise ValueError("interior coefficients must lie in the open disc")
        if abs(mod[-1] - 1.0) > 1e-12:
            raise ValueError("terminal coefficient must lie on the circle")
        if np.any(g == 1.0):
            raise ValueError("coefficients must differ from 1")


def _check_delta(delta: complex) -> complex:
    delta = complex(delta)
    if delta.real < 0:
        raise DomainError(
            f"sampling requires Re delta >= 0 (weight unbounded otherwise), got {delta}"
        )
    return delta


# ------------------------------------------------------------ angle step

class _AngleEnvelope(NamedTuple):
    """Per-slot envelope of the log-density h(phi) = 2m log cos(phi) +
    2b phi, measured from its peak h(mode): 0 on [t_left, t_right], the
    tangent lines with slopes s_left > 0 and s_right < 0 outside it.
    ``area`` holds the left, flat and right areas of exp(envelope)."""

    mode: np.ndarray
    log_cos_mode: np.ndarray
    t_left: np.ndarray
    t_right: np.ndarray
    s_left: np.ndarray
    s_right: np.ndarray
    area: np.ndarray  # shape (3, slots)

    def take(self, idx: np.ndarray) -> "_AngleEnvelope":
        return _AngleEnvelope(*(f[..., idx] for f in self))


def _angle_envelope(m: np.ndarray, b: float) -> _AngleEnvelope:
    mode = np.arctan2(b, m)
    log_cos_mode = np.log(np.cos(mode))
    step = np.sqrt(m) / np.hypot(m, b)

    def tangent(x, sign):
        # tangent at x (when x lies inside the domain and the slope has the
        # right sign): slope, and where it crosses the peak level
        inside = sign * x < _HALF_PI
        x = np.where(inside, x, mode)
        with np.errstate(divide="ignore"):
            rel = 2.0 * m * (np.log(np.cos(x)) - log_cos_mode) + 2.0 * b * (x - mode)
        slope = 2.0 * b - 2.0 * m * np.tan(x)
        inside &= sign * slope < 0.0
        slope = np.where(inside, slope, -sign)
        cross = np.where(inside, x - rel / slope, sign * _HALF_PI)
        return cross, slope

    t_right, s_right = tangent(mode + step, 1.0)
    t_left, s_left = tangent(mode - step, -1.0)
    area = np.stack(
        [
            -np.expm1(-s_left * (t_left + _HALF_PI)) / s_left,
            t_right - t_left,
            np.expm1(s_right * (_HALF_PI - t_right)) / s_right,
        ]
    )
    return _AngleEnvelope(mode, log_cos_mode, t_left, t_right, s_left, s_right, area)


def _draw_angles(rng: np.random.Generator, m: np.ndarray, b: float, size: int):
    """``size`` angles phi with density proportional to cos^(2m)(phi)
    e^(2 b phi) on (-pi/2, pi/2), m per slot (shape (size,)) or shared
    (shape (1,)), and the number of proposals used.

    Each wave proposes one candidate per open slot from the envelope
    (one uniform picks the piece and the position by inversion, one
    decides acceptance), so the draw sequence is deterministic."""
    env = _angle_envelope(m, b)
    shared = m.size == 1
    phi = np.empty(size)
    open_idx = np.arange(size)
    proposals = 0
    while open_idx.size:
        k = open_idx.size
        e, mk = (env, m) if shared or k == size else (env.take(open_idx), m[open_idx])
        a_left, a_flat, _ = e.area
        w = rng.random(k) * e.area.sum(axis=0)
        v = rng.random(k)
        with np.errstate(invalid="ignore", divide="ignore"):
            y_left = -np.log1p(-e.s_left * w) / e.s_left
            y_right = np.log1p(e.s_right * (w - a_left - a_flat)) / e.s_right
        in_left = w < a_left
        in_right = w >= a_left + a_flat
        x = np.where(
            in_left, e.t_left - y_left, np.where(in_right, e.t_right + y_right, e.t_left + (w - a_left))
        )
        log_env = np.where(in_left, -e.s_left * y_left, np.where(in_right, e.s_right * y_right, 0.0))
        x = np.clip(x, -_HALF_PI, _HALF_PI)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = (
                2.0 * mk * (np.log(np.cos(x)) - e.log_cos_mode) + 2.0 * b * (x - e.mode) - log_env
            )
        accept = v <= np.exp(log_ratio)
        phi[open_idx[accept]] = x[accept]
        open_idx = open_idx[~accept]
        proposals += k
        if open_idx.size and proposals > ITERATION_CAP * size:
            rate = (size - open_idx.size) / proposals
            raise SamplingError(
                f"angle rejection cap exceeded (empirical acceptance {rate:.3e})"
            )
    return phi, proposals


# ---------------------------------------------------------------- kernel

def _draw(rng: np.random.Generator, ranks: np.ndarray, delta: complex, size: int) -> np.ndarray:
    """The sampling kernel: ``size`` exact coefficients with deformation
    delta.  ``ranks`` holds the rank weight of each slot (shape (size,))
    or one weight shared by all slots (shape (1,)); 0 selects the circle
    law."""
    disc = ranks > 0
    if delta == 0:
        u = rng.random(size)
        theta = 2.0 * math.pi * rng.random(size)
        with np.errstate(divide="ignore"):
            radius = np.where(disc, np.sqrt(1.0 - (1.0 - u) ** (1.0 / ranks)), 1.0)
        return radius * np.exp(1j * theta)
    m = ranks + delta.real
    if delta.imag == 0:
        # W = -(1+iT)/(1-iT) with T = N/D, D^2 = 2G
        normal = rng.standard_normal(size)
        d2 = 2.0 * rng.standard_gamma(m + 0.5, size)
        q = normal * normal + d2
        w = np.empty(size, dtype=np.complex128)
        w.real = (normal * normal - d2) / q
        w.imag = -2.0 * normal * np.sqrt(d2) / q
    else:
        phi, _ = _draw_angles(rng, m, delta.imag, size)
        w = -np.exp(2j * phi)
    if not disc.any():
        return w
    g1 = rng.standard_gamma(ranks + 1.0 + 2.0 * delta.real, size)
    g2 = rng.standard_gamma(ranks, size)  # 0 on a circle slot, where S = 1
    total = g1 + g2
    w *= g1 / total  # S W
    w += g2 / total  # + (1 - S)
    return w


def _check_open_disc(gamma: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Pass an ensemble draw whose disc coefficients (all but the last)
    lie in the open disc in float64."""
    interior = np.abs(gamma[:-1])
    if interior.size and interior.max() >= 1.0:
        bad = np.flatnonzero(interior >= 1.0)
        raise SamplingError(
            f"{bad.size} disc coefficient(s) rounded onto the unit circle in "
            f"float64; smallest rank weight involved r = {ranks[bad].min():.6g} "
            f"(coefficient j = {bad.max()})"
        )
    return gamma


def _draw_one_law(r: float, delta: complex, rng: np.random.Generator, size: Optional[int]):
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"expected a numpy Generator, got {type(rng).__name__}")
    out = _draw(rng, np.array([float(r)]), delta, 1 if size is None else size)
    return complex(out[0]) if size is None else out


def sample_gamma_disc(
    r: float,
    delta: complex,
    rng: np.random.Generator,
    size: Optional[int] = None,
):
    """Exact draw(s) from the disc law of rank weight r > 0.

    Returns a complex scalar, or an array when ``size`` is given.
    """
    if r <= 0:
        raise DomainError(f"disc law needs r > 0, got {r}")
    return _draw_one_law(r, _check_delta(delta), rng, size)


def sample_gamma_circle(
    delta: complex,
    rng: np.random.Generator,
    size: Optional[int] = None,
):
    """Exact draw(s) from the circle law (the terminal coefficient)."""
    return _draw_one_law(0.0, _check_delta(delta), rng, size)


def sample_ensemble(params: EnsembleParams, seed: int) -> DeformedVerblunskySample:
    """Ensemble sample 0 of ``seed``: the vector ``sample_ensemble_batch``
    and the CLI draw first."""
    gamma = ensemble_gammas(params, substream(seed, 0))
    return DeformedVerblunskySample(gamma=gamma, seed=seed, params=params)


def ensemble_gammas(params: EnsembleParams, rng: np.random.Generator) -> np.ndarray:
    """One coefficient vector, all slots drawn from a single generator.

    Raises :class:`SamplingError` if a disc coefficient rounded onto the
    unit circle."""
    delta = _check_delta(params.effective_delta)
    ranks = params.coefficient_ranks()
    return _check_open_disc(_draw(rng, ranks, delta, params.n), ranks)


def sample_ensemble_batch(
    params: EnsembleParams, seed: int, count: int
) -> np.ndarray:
    """``count`` independent coefficient vectors, shape (count, n).

    Sample i is drawn from substream (i,), so results are bit-identical
    however samples are later distributed over workers.
    """
    out = np.empty((count, params.n), dtype=np.complex128)
    for i in range(count):
        out[i] = ensemble_gammas(params, substream(seed, i))
    return out


def _log_angle_normaliser(m: float, b: float) -> float:
    """log of the integral of cos^(2m)(phi) e^(2 b phi) over (-pi/2, pi/2),
    which is pi Gamma(2m+1) / (4^m |Gamma(m+1+ib)|^2)."""
    return (
        math.log(math.pi)
        + log_gamma(2.0 * m + 1.0).real
        - 2.0 * m * math.log(2.0)
        - 2.0 * log_gamma(complex(m + 1.0, b)).real
    )


def disc_acceptance_rate(r: float, delta: complex) -> float:
    """Exact acceptance probability of the sampler for the law of rank
    weight r >= 0 (r = 0: the circle law).

    1 unless Im delta != 0; then it is the acceptance of the angle step,
    the ratio of the angle density's normaliser to its envelope's area.
    """
    delta = _check_delta(delta)
    if r < 0:
        raise DomainError(f"rank weight must be nonnegative, got {r}")
    if delta.imag == 0:
        return 1.0
    m, b = r + delta.real, delta.imag
    env = _angle_envelope(np.array([m]), b)
    log_peak = 2.0 * m * env.log_cos_mode[0] + 2.0 * b * env.mode[0]
    log_area = log_peak + math.log(env.area[:, 0].sum())
    return math.exp(_log_angle_normaliser(m, b) - log_area)
