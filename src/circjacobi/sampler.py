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
  above 0.67 for all m >= 0 and b (its infimum lies near m = 0.405, b = 0);
  the float64 envelope fails to bound the density at some m near 5e15.
* delta = 0: |z|^2 = 1 - (1-u)^(1/r) by inversion and a uniform angle,
  which is cheaper than the product form.

Samplers require Re delta >= 0; the singular-weight range
-1/2 < Re delta < 0 is covered by the closed-form modules only.

Kernel.  Every sampler calls ``_draw``.  It draws the variates in a
fixed order (the angle step draws two per rejection wave) and turns them
into coefficients block by block over ``_BLOCK`` entries, so a block's
temporaries stay in cache and no full-length temporary is held.  The
last variate a writer reads is drawn block by block: consecutive
generator calls draw the same bits, and leave the same generator state,
as one whole-array call.  On a draw of more than one block, the thread
of a one-thread ``ThreadPoolExecutor`` writes block k while the caller
draws block k+1, and the caller then writes each block whose future it
can still cancel; a rejection wave splits its blocks the same way.  The
executor is shut down before ``_draw`` returns or raises, so no thread
outlives a draw (a forking pool finds none), and none starts when the
process may use one CPU or is a pool worker whose share of the CPUs is
one.  A Gamma shape shared by all
slots goes to the generator as a Python float, which draws the same bits
as a shape-(1,) array without numpy's broadcast loop; the writers reuse
the variates' blocks for their temporaries, and a rejection wave
evaluates each envelope piece only on the proposals that land in it.
numpy's elementwise functions give the same bits on any slice, so
neither the blocks nor the thread that writes them changes a draw; a
draw of up to ``_BLOCK`` entries, every ensemble up to n = 32768, is one
block on the whole arrays on the caller's thread.

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

import contextvars
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .asymptotics import EnsembleParams
from .gammalaw import CoefficientLaw
from .specfun import DomainError, log_gamma_ratio

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
        mod = np.abs(g)  # negated comparisons, which NaN fails
        if not np.all(mod[:-1] < 1.0):
            raise ValueError("interior coefficients must lie in the open disc")
        if not abs(mod[-1] - 1.0) <= 1e-12:
            raise ValueError("terminal coefficient must lie on the circle")
        if np.any(g == 1.0):
            raise ValueError("coefficients must differ from 1")


def _check_law(r: float, delta: complex) -> complex:
    """delta of a draw from the law (r, delta), which must be a
    ``CoefficientLaw`` with Re delta >= 0 and a finite largest Gamma shape."""
    delta = complex(delta)
    if delta.real < 0:
        raise DomainError(
            "the samplers cover Re delta >= 0, and moments and ldp cover"
            f" -1/2 < Re delta < 0; got delta = {delta}"
        )
    CoefficientLaw(r, delta)
    if not math.isfinite(2 * (r + 1 + 2 * abs(delta))):
        raise DomainError(f"need finite Gamma shapes, got r={r}, delta={delta}")
    return delta


# ---------------------------------------------------------------- blocks

# Entries per block of the kernel's arithmetic: 2^15 float64 values are
# 256 KB, so a block's temporaries stay in cache.
_BLOCK = 1 << 15


# processes that share this one's CPUs: a pool's worker count, in each worker
_sharers = 1


def _share_cpus(processes: int) -> None:
    """A pool's initializer: this worker shares its CPUs with the pool's
    ``processes`` workers."""
    global _sharers
    _sharers = processes


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset``
    sets, or the machine's count where the platform has no such call,
    shared among the workers of the pool it runs in, and at least 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _sharers)


def _shape(a: np.ndarray):
    """A Gamma shape for the generator: a Python float when shared (shape
    (1,)), which skips numpy's broadcast loop and draws the same bits."""
    return float(a[0]) if a.size == 1 else a


def _variates(method, shape: Optional[np.ndarray] = None):
    """draw(block, n): n variates of the generator method ``method`` for
    the slots ``block``, with a Gamma shape per slot (shape (size,)),
    shared (shape (1,), see ``_shape``) or none."""
    if shape is None:
        return lambda block, n: method(n)
    if shape.size == 1:
        shared = _shape(shape)
        return lambda block, n: method(shared, n)
    return lambda block, n: method(shape[block], n)


def _run(f, out: np.ndarray, blocks: list) -> None:
    """f(out, *blocks), then release the block's arrays."""
    f(out, *blocks)
    blocks.clear()


def _blockwise(submit: Optional[Callable], f, out: np.ndarray, *args: np.ndarray, draw=None) -> np.ndarray:
    """``out`` after f(out, *args, v), which writes entry i of ``out`` from
    entry i of each argument, run block by block over ``_BLOCK`` entries;
    an array of shape (1,) is shared by every block.  v, if ``draw`` is
    given, is drawn by it on the caller's thread, block by block, each
    block just before f's block is submitted.  With ``submit``, that of a
    one-thread executor, the blocks run there in one copy of the caller's
    context (so its ``np.errstate`` holds) while the caller draws; then,
    from the last, the caller runs each block whose future it can still
    cancel and waits on the rest, which re-raises a helper block's
    exception.  Without it, they run on the caller.  f may use the blocks
    of a full-length argument as scratch, and may also write elsewhere at
    positions its block's arguments name, as a rejection wave writes
    accepted angles to the slots in its block of indices.  numpy's
    elementwise functions give the same bits on any slice, so the result
    depends neither on ``_BLOCK`` nor on the thread that ran a block.  Up
    to ``_BLOCK`` entries are one call of f."""
    size = out.size
    if size <= _BLOCK:
        f(out, *args, *(() if draw is None else (draw(slice(0, size), size),)))
        return out
    run, queued = contextvars.copy_context().run, []
    for lo in range(0, size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        blocks = [a if a.size == 1 else a[block] for a in args]
        if draw is not None:
            blocks.append(draw(block, min(_BLOCK, size - lo)))
        if submit is None:
            f(out[block], *blocks)
        else:
            job = (f, out[block], blocks)
            queued.append((submit(run, _run, *job), job))
    for future, job in reversed(queued):
        if future.cancel():
            _run(*job)
        else:
            future.result()
    return out


# ------------------------------------------------------------ angle step

class _AngleEnvelope(NamedTuple):
    """Per-slot envelope of the log-density h(phi) = 2m log cos(phi) +
    2b phi, measured from its peak h(mode): 0 on [t_left, t_right], the
    tangent lines with slopes s_left > 0 and s_right < 0 outside it.
    a_left and a_flat are the areas of exp(envelope) over the left tail
    and the flat piece, and total its whole area."""

    mode: np.ndarray
    log_cos_mode: np.ndarray
    t_left: np.ndarray
    t_right: np.ndarray
    s_left: np.ndarray
    s_right: np.ndarray
    a_left: np.ndarray
    a_flat: np.ndarray
    total: np.ndarray

    def take(self, idx: np.ndarray) -> "_AngleEnvelope":
        return _AngleEnvelope(*(f[idx] for f in self))


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
    a_left = -np.expm1(-s_left * (t_left + _HALF_PI)) / s_left
    a_flat = t_right - t_left
    total = a_left + a_flat + np.expm1(s_right * (_HALF_PI - t_right)) / s_right
    return _AngleEnvelope(mode, log_cos_mode, t_left, t_right, s_left, s_right, a_left, a_flat, total)


def _at(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Entries idx of a per-slot field, or the shared field of shape (1,)."""
    return a if a.size == 1 else a[idx]


def _draw_angles(rng: np.random.Generator, m: np.ndarray, b: float, size: int,
                 submit: Optional[Callable] = None):
    """``size`` angles phi with density proportional to cos^(2m)(phi)
    e^(2 b phi) on (-pi/2, pi/2), m per slot (shape (size,)) or shared
    (shape (1,)), and the number of proposals used.

    Each wave proposes one candidate per open slot from the envelope
    (one uniform picks the piece and the position by inversion, one
    decides acceptance), so the draw sequence is deterministic; a wave
    of more than one block splits its blocks with ``submit``'s thread."""
    env = _angle_envelope(m, b)
    shared = m.size == 1
    phi = np.empty(size)

    def wave(accept, idx, w, v):
        # the slots idx propose x; accepted ones are written to phi.  Each
        # tail is evaluated only on the proposals that land in it: x is
        # t_left + (w - a_left) on the flat piece, where the log-envelope
        # is 0, and t_left - y_left or t_right + y_right on the tails,
        # where it is -s_left y_left or s_right y_right
        e, mk = (env, m) if shared or idx.size == size else (env.take(idx), m[idx])
        w *= e.total
        left = (w < e.a_left).nonzero()[0]
        right = (w >= e.a_left + e.a_flat).nonzero()[0]
        x = w - e.a_left
        s_l, s_r = _at(e.s_left, left), _at(e.s_right, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            y_left = -np.log1p(-s_l * w[left]) / s_l
            y_right = np.log1p(s_r * (x[right] - _at(e.a_flat, right))) / s_r
            x += e.t_left
            x[left] = _at(e.t_left, left) - y_left
            x[right] = _at(e.t_right, right) + y_right
            np.clip(x, -_HALF_PI, _HALF_PI, out=x)
            # 2m (log cos x - log cos mode) + 2b (x - mode) - log_env, in that order
            log_ratio = np.log(np.cos(x))
        log_ratio -= e.log_cos_mode
        log_ratio *= 2.0 * mk
        tilt = x - e.mode
        tilt *= 2.0 * b
        log_ratio += tilt
        log_ratio[left] -= -s_l * y_left
        log_ratio[right] -= s_r * y_right
        np.less_equal(v, np.exp(log_ratio, out=log_ratio), out=accept)
        phi[idx[accept]] = x[accept]

    open_idx = np.arange(size)
    proposals = 0
    while open_idx.size:
        k = open_idx.size
        w = rng.random(k)
        accept = _blockwise(submit, wave, np.empty(k, dtype=bool), open_idx, w,
                            draw=_variates(rng.random))
        open_idx = open_idx[~accept]
        proposals += k
        if open_idx.size and proposals > ITERATION_CAP * size:
            rate = (size - open_idx.size) / proposals
            raise SamplingError(
                f"angle rejection cap exceeded (empirical acceptance {rate:.3e})"
            )
    return phi, proposals


# ---------------------------------------------------------------- kernel

def _radial(out, ranks, u, v):
    # delta = 0: |z|^2 = 1 - (1-u)^(1/r) on a disc slot, 1 on a circle
    # slot, and the angle 2 pi v
    with np.errstate(divide="ignore"):
        radius = np.where(ranks > 0, np.sqrt(1.0 - (1.0 - u) ** (1.0 / ranks)), 1.0)
    np.multiply(radius, np.exp(1j * (2.0 * math.pi * v)), out=out)


def _circle_from_t(out, normal, g):
    # W = -(1+iT)/(1-iT) with T = N/D, D^2 = 2G; normal and g are
    # overwritten
    d2 = np.multiply(g, 2.0, out=g)
    re = normal * normal
    q = re + d2
    re -= d2
    re /= q
    out.real = re
    normal *= -2.0
    normal *= np.sqrt(d2, out=d2)
    normal /= q
    out.imag = normal


def _circle_from_angle(out, phi):
    # W = -e^(2 i phi)
    np.multiply(phi, 2j, out=out)
    np.negative(np.exp(out, out=out), out=out)


def _mix(out, g1, g2):
    # gamma = S W + (1 - S), with 1 - S = G2 / (G1 + G2); g1 and g2 are
    # overwritten
    total = g1 + g2
    out *= np.divide(g1, total, out=g1)
    out += np.divide(g2, total, out=g2)


def _draw(rng: np.random.Generator, ranks: np.ndarray, delta: complex, size: int) -> np.ndarray:
    """The sampling kernel: ``size`` exact coefficients with deformation
    delta.  ``ranks`` holds the rank weight of each slot (shape (size,))
    or one weight shared by all slots (shape (1,)); 0 selects the circle
    law.  The variates are drawn in a fixed order; a draw of more than
    one block turns them into coefficients on the one thread of a
    ``ThreadPoolExecutor`` as well, unless ``_usable_cpus`` gives this
    process one CPU; the executor is shut down before the draw returns."""
    if size <= _BLOCK or _usable_cpus() == 1:
        return _coefficients(None, rng, ranks, delta, size)
    from concurrent.futures import ThreadPoolExecutor  # it loads logging: only here

    pool = ThreadPoolExecutor(1)
    try:
        return _coefficients(pool.submit, rng, ranks, delta, size)
    finally:
        pool.shutdown(cancel_futures=True)


def _coefficients(submit, rng, ranks, delta, size):
    """``_draw``'s coefficients, written on ``submit``'s thread too."""
    if delta == 0:
        u = rng.random(size)
        return _blockwise(submit, _radial, np.empty(size, dtype=np.complex128), ranks, u,
                          draw=_variates(rng.random))
    m = ranks + delta.real
    # each variate array is released once its writers have run
    if delta.imag == 0:
        normal = rng.standard_normal(size)
        out = _blockwise(submit, _circle_from_t, np.empty(size, dtype=np.complex128), normal,
                         draw=_variates(rng.standard_gamma, m + 0.5))
        del normal
    else:
        phi, _ = _draw_angles(rng, m, delta.imag, size, submit)
        out = _blockwise(submit, _circle_from_angle, np.empty(size, dtype=np.complex128), phi)
        del phi
    if not (ranks > 0).any():
        return out
    g1 = rng.standard_gamma(_shape(ranks + 1.0 + 2.0 * delta.real), size)
    # g2 is 0 on a circle slot, where S = 1
    return _blockwise(submit, _mix, out, g1, draw=_variates(rng.standard_gamma, ranks))


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
    return _draw_one_law(r, _check_law(r, delta), rng, size)


def sample_gamma_circle(
    delta: complex,
    rng: np.random.Generator,
    size: Optional[int] = None,
):
    """Exact draw(s) from the circle law (the terminal coefficient)."""
    return _draw_one_law(0.0, _check_law(0.0, delta), rng, size)


def sample_ensemble(params: EnsembleParams, seed: int) -> DeformedVerblunskySample:
    """Ensemble sample 0 of ``seed``: the vector ``sample_ensemble_batch``
    and the CLI draw first."""
    gamma = ensemble_gammas(params, substream(seed, 0))
    return DeformedVerblunskySample(gamma=gamma, seed=seed, params=params)


def ensemble_gammas(params: EnsembleParams, rng: np.random.Generator) -> np.ndarray:
    """One coefficient vector, all slots drawn from a single generator.

    Raises :class:`SamplingError` if a disc coefficient rounded onto the
    unit circle."""
    delta = _check_law(0.0, params.effective_delta)  # its terminal, circle law
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
    pi Gamma(2m+1) / (4^m |Gamma(m+1+ib)|^2), or by the duplication formula
    sqrt(pi) Gamma(m+1/2) Gamma(m+1) / |Gamma(m+1+ib)|^2: two log-Gamma
    differences, in one call, with no term of size m log m."""
    half, tilt = log_gamma_ratio(m + 1.0, np.array([-0.5, 1j * b])).real
    return 0.5 * math.log(math.pi) + half - 2.0 * tilt


def disc_acceptance_rate(r: float, delta: complex) -> float:
    """Exact acceptance probability of the sampler for the law of rank
    weight r >= 0 (r = 0: the circle law).

    1 unless Im delta != 0; then it is the acceptance of the angle step,
    the ratio of the angle density's normaliser to the area of the
    sampler's envelope, within 1e-8.  Terms of size pi |Im delta| cancel
    in it, so |Im delta| > 1e6 raises ``DomainError``, as does an envelope
    that fails to bound its density (a ratio above 1; at m = 0 the
    envelope is the density, and rounding above 1 reads 1).
    """
    delta = _check_law(r, delta)
    if delta.imag == 0:
        return 1.0
    m, b = r + delta.real, delta.imag
    if abs(b) > 1e6:
        raise DomainError(f"disc_acceptance_rate covers |Im delta| <= 1e6, got delta = {delta}")
    env = _angle_envelope(np.array([m]), b)
    log_peak = 2.0 * m * env.log_cos_mode[0] + 2.0 * b * env.mode[0]
    rate = math.exp(_log_angle_normaliser(m, b) - log_peak - math.log(env.total[0]))
    if not 0.0 < rate <= 1.0 + 1e-8:
        raise DomainError(f"the angle envelope at m = {m}, b = {b} does not bound its density")
    return min(rate, 1.0)
