"""The log-characteristic-polynomial path and its cross-checks.

Three independent evaluation routes are maintained for the monic
orthogonal polynomials at z = 1:

1. the running product of (1 - gamma_j) over the deformed coefficients,
   as sums of ``log_one_minus``, the one spelling of log(1 - gamma): the
   path and its centred form (minus the exact mean) in ``log_path``, one
   Monte Carlo sample each in ``log_phi_sums``,
2. the Szego recursion driven by the Schur coefficients alpha_j,
3. det(I_k - C_k) = Phi_k(1) for the top-left k x k block of the CMV
   matrix C of the alpha_j, the ensembles' matrix model (Killip & Nenciu).

The complex logarithm of route 3 is defined eigenvalue-by-eigenvalue
with the principal branch, which is valid whenever no eigenvalue of the
block lies on [1, inf); routes 1 and 3 then agree exactly, including
imaginary parts (a plain determinant would fix Im only mod 2 pi),
which the test suite pins at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .asymptotics import EnsembleParams, mean_increments
# the pool's callers size it by _usable_cpus, whose home is the sampler's
# kernel; _share_cpus tells each worker its share of the CPUs
from .sampler import DeformedVerblunskySample, _share_cpus, _usable_cpus, ensemble_gammas, substream

__all__ = [
    "LogPolyPath",
    "SchurCoefficients",
    "DegenerateMatrixError",
    "log_one_minus",
    "log_path",
    "log_phi_sums",
    "gamma_to_alpha",
    "alpha_to_gamma",
    "szego_eval",
    "cmv_matrix",
    "cmv_log_det",
]


class DegenerateMatrixError(ValueError):
    """A truncated CMV block has an eigenvalue on [1, inf)."""


@dataclass(frozen=True)
class SchurCoefficients:
    """Schur/Verblunsky coefficients: interior ones in the open disc, the
    terminal one in the closed disc (to 1e-12), unimodular in a full sample."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.complex128)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("alpha must be a nonempty 1-d array")
        mod = np.abs(a)  # negated comparisons, which NaN fails
        if not (np.all(mod[:-1] < 1.0) and mod[-1] <= 1.0 + 1e-12):
            raise ValueError("Schur coefficients must lie in the open disc, "
                             "the terminal one in the closed disc")
        object.__setattr__(self, "alpha", a)

    def __len__(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class LogPolyPath:
    """values[k] = log Phi_{k,n}(1) for k = 0..n, with values[0] = 0, and
    the centered path zeta[k] = values[k] - E values[k]."""

    values: np.ndarray
    zeta: np.ndarray

    def rows(self) -> Iterator[tuple]:
        """Rows (k, t = k/n, Re, Im of values[k], Re, Im of zeta[k]) of the
        path table, as Python numbers, k = 0..n."""
        n = self.values.size - 1
        k = np.arange(n + 1)
        return zip(
            k.tolist(), (k / n).tolist(),
            self.values.real.tolist(), self.values.imag.tolist(),
            self.zeta.real.tolist(), self.zeta.imag.tolist(),
        )


def log_one_minus(gamma: np.ndarray) -> np.ndarray:
    """Principal log(1 - gamma), elementwise; Im in [-pi/2, pi/2] on the closed disc."""
    return np.log(1.0 - gamma)


def log_path(sample: DeformedVerblunskySample) -> LogPolyPath:
    """Cumulative sums of ``log_one_minus(gamma_j)``, and the path minus its
    exact mean (``mean_increments``, summed the same way)."""
    values = np.concatenate([[0.0 + 0.0j], np.cumsum(log_one_minus(sample.gamma))])
    mean = np.concatenate([[0.0 + 0.0j], np.cumsum(mean_increments(sample.params))])
    return LogPolyPath(values=values, zeta=values - mean)


def _guarded(fn, item):
    """``(fn(item), None)``, or ``(None, exc)`` for any exception.  A worker
    that let a BaseException such as KeyboardInterrupt escape would die with
    its task, and the pool would wait for that task forever."""
    try:
        return fn(item), None
    except BaseException as exc:
        return None, exc


def _pool_map(fn, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on at most ``workers`` forked
    processes, and on none for one item or one worker.

    Results keep item order, so they do not depend on the worker count.
    The exception of the first item that raised is re-raised here, as the
    serial loop would raise it, and no worker outlives the call.  Each
    worker's ``_usable_cpus`` is its share of the pool's CPUs, so a
    worker's draws open no one-thread executor (the sampler's helper)
    whose thread its siblings' CPUs would have to run.
    """
    workers = min(workers, len(items))  # no idle processes when items are few
    if workers <= 1:
        return list(map(fn, items))
    from multiprocessing import get_context  # only a pool needs it

    chunksize = max(1, len(items) // (4 * workers))
    with get_context("fork").Pool(workers, _share_cpus, (workers,)) as pool:
        results = pool.map(partial(_guarded, fn), items, chunksize=chunksize)
    for _, exc in results:
        if exc is not None:
            raise exc
    return [value for value, _ in results]


def _log_phi(params: EnsembleParams, seed: int, index: int) -> complex:
    return complex(np.sum(log_one_minus(ensemble_gammas(params, substream(seed, index)))))


def log_phi_sums(params: EnsembleParams, seed: int, count: int, workers: int) -> np.ndarray:
    """log Phi_n(1) of samples 0..count-1 of ``seed``, indexed by sample, on
    at most ``workers`` processes; bit-identical for any worker count."""
    return np.array(_pool_map(partial(_log_phi, params, seed), range(count), workers))


def gamma_to_alpha(gamma: np.ndarray) -> SchurCoefficients:
    """Invert the deformed coefficients: alpha_j = conj(gamma_j)
    conj(u_j) / u_j, where u_j, the running product of the unit factors
    (1 - gamma_k) / |1 - gamma_k| over k < j, is the phase of
    Phi_j(1) = prod_{k<j} (1 - gamma_k).  u_j stays on the circle, so a
    long product cannot overflow or underflow as Phi_j(1) itself does on
    drift ensembles."""
    gamma = np.asarray(gamma, dtype=np.complex128)
    step = 1.0 - gamma[:-1]
    unit = np.concatenate([[1.0 + 0.0j], np.cumprod(step / np.abs(step))])
    return SchurCoefficients(alpha=np.conj(gamma) * (np.conj(unit) / unit))


def alpha_to_gamma(alpha: SchurCoefficients) -> np.ndarray:
    """The inverse of ``gamma_to_alpha``: gamma_j = conj(alpha_j) conj(u_j) / u_j,
    with the unit phase u_{j+1} = u_j (1 - gamma_j) / |1 - gamma_j|, u_0 = 1."""
    gamma, u = np.conj(alpha.alpha), 1.0 + 0.0j
    for j in range(gamma.size - 1):
        gamma[j] *= u.conjugate() / u
        step = 1.0 - complex(gamma[j])
        u *= step / abs(step)
    gamma[-1] *= u.conjugate() / u
    return gamma


def szego_eval(alpha: SchurCoefficients, z: complex) -> np.ndarray:
    """All monic orthogonal polynomials at z: returns Phi_k(z), k = 0..n,
    by the joint recursion on (Phi, Phi*) from Phi_0 = Phi*_0 = 1."""
    a = alpha.alpha
    n = a.size
    out = np.empty(n + 1, dtype=np.complex128)
    phi = 1.0 + 0.0j
    phi_star = 1.0 + 0.0j
    out[0] = phi
    for j in range(n):
        phi, phi_star = (
            z * phi - np.conj(a[j]) * phi_star,
            phi_star - a[j] * z * phi,
        )
        out[j + 1] = phi
    return out


def cmv_matrix(alpha: SchurCoefficients) -> np.ndarray:
    """The five-diagonal CMV matrix C = L M of the Schur coefficients:
    L and M are block diagonal in Theta_j = [[conj a_j, rho_j],
    [rho_j, -a_j]], rho_j = sqrt(1 - |a_j|^2), on rows j, j+1, of even j
    in L and odd j in M, after a leading 1.  Unitary exactly when the
    terminal coefficient is unimodular."""
    a = alpha.alpha
    n = a.size
    rho = np.sqrt(np.maximum(0.0, 1.0 - np.abs(a) ** 2))
    lm = np.zeros((2, n, n), dtype=np.complex128)
    lm[1, 0, 0] = 1.0
    for first, f in enumerate(lm):
        j = np.arange(first, n, 2)
        f[j, j] = np.conj(a[j])
        j = j[j + 1 < n]  # a block at j = n - 1 is cut to its conj a_j
        f[j, j + 1] = f[j + 1, j] = rho[j]
        f[j + 1, j + 1] = -a[j]
    return lm[0] @ lm[1]


def cmv_log_det(alpha: SchurCoefficients, k: int) -> complex:
    """log det(I_k - C_k) for the top-left k x k CMV block, as the sum of
    principal logs of 1 - lambda over its eigenvalues lambda;
    :class:`DegenerateMatrixError` if one lies on [1, inf), off that branch."""
    n = len(alpha)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    block = cmv_matrix(alpha)[:k, :k]
    eigs = np.linalg.eigvals(block)
    bad = (np.abs(eigs.imag) < 1e-14) & (eigs.real >= 1.0 - 1e-14)
    if np.any(bad):
        raise DegenerateMatrixError(
            f"eigenvalue {eigs[bad][0]} on [1, inf); log det undefined"
        )
    return complex(np.sum(np.log(1.0 - eigs)))
