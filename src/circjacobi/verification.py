"""One-shot verification suite.

Each check pins one acceptance criterion at its stated tolerance and
returns a :class:`CheckResult`; ``run_all`` drives the full table and
times each check, so ``seconds`` is the wall time of the whole check, and
fails a check that overruns its limit in ``TIME_LIMITS``.  The
suite combines exact-identity checks (near machine precision) with
statistical and convergence-trend checks at desk scale, and is shared
between ``tests/test_acceptance.py`` and the ``verify`` CLI command.

Statistical checks run on pinned seeds so outcomes are deterministic;
where a finite-size limit carries a known bias (the n = 4096 variance of
the normalized log-determinant is 0.5948, not its 1/2 limit), the check
also cross-validates the simulation against the exact finite-n value.
Checks 05 and 14 take log Phi_n(1) per sample from ``process.log_phi_sums``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import asymptotics as asy
from . import equilibrium as eq
from . import gammalaw as gl
from . import ldp
from . import process as pr
from . import sampler as sp
from . import specfun as sf

__all__ = ["CheckResult", "run_all", "run_check", "CHECK_IDS"]


@dataclass
class CheckResult:
    check: str
    passed: bool
    computed: str
    reference: str
    tolerance: str
    seconds: float = 0.0
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy comparisons give np.bool_, which JSON rejects

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.check}: computed {self.computed} vs {self.reference}"
            f" (tol {self.tolerance}, {self.seconds:.1f}s)"
        )


def _random_coefficients(rng, n: int) -> np.ndarray:
    g = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    g = 0.95 * g / np.maximum(1.0, np.abs(g)) * rng.uniform(0.05, 1.0, n)
    g[-1] = np.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
    return g


def check_triple_determinant() -> CheckResult:
    """1. Product formula, Szego recursion at z = 1 and the CMV block
    log-determinant, Im included, agree pairwise to 1e-8 on 200 arrays."""
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        gamma = _random_coefficients(rng, n)
        alpha = pr.gamma_to_alpha(gamma)
        logs = np.concatenate([[0.0 + 0.0j], np.cumsum(pr.log_one_minus(gamma))])
        phis = pr.szego_eval(alpha, 1.0)
        for k in (1, max(1, n // 2), n):
            ref = np.exp(logs[k])
            worst = max(worst, abs(phis[k] - ref) / abs(ref))
            lg = pr.cmv_log_det(alpha, k)
            worst = max(worst, abs(lg - logs[k]) / max(1.0, abs(logs[k])))
            worst = max(worst, abs(np.exp(lg) - ref) / abs(ref))
    return CheckResult(
        "triple determinant agreement",
        worst < 1e-8,
        f"max pairwise rel dev {worst:.2e}",
        "0",
        "1e-8",
    )


def _moment_z(r: float, delta: complex, stream, draws: int) -> float:
    """Largest |z|-score of one law's Monte Carlo moments of log(1-gamma)
    and |1-gamma|^2 against their closed forms, summed over blocks of the
    draw in two passes (the means, then the sums centred on them), so the
    draw is the one full-length array, and one law's is live at a time."""
    law = gl.CoefficientLaw(r, delta)
    cs = gl.cumulants(law)
    if r > 0:
        vals = sp.sample_gamma_disc(r, delta, stream, size=draws)
    else:
        vals = sp.sample_gamma_circle(delta, stream, size=draws)
    blocks = [vals[lo:lo + (1 << 16)] for lo in range(0, draws, 1 << 16)]
    sums = np.zeros(3)
    for v in blocks:
        lg = pr.log_one_minus(v)
        sums += (lg.real.sum(), lg.imag.sum(), (np.abs(1 - v) ** 2).sum())
    m_re, m_im, m_sq = sums / draws
    # cre^2, cim^2 and cre cim, their squares, and the centred |1-gamma|^2 squared
    sums = np.zeros(7)
    for v in blocks:
        lg = pr.log_one_minus(v)
        cre, cim, dev = lg.real - m_re, lg.imag - m_im, np.abs(1 - v) ** 2 - m_sq
        second = np.stack([cre * cre, cim * cim, cre * cim])
        sums += (*second.sum(axis=1), *(second * second).sum(axis=1), (dev * dev).sum())
    s_re, s_im, s_cross, q_re, q_im, q_cross, s_sq = sums

    def se(squares):  # a mean's standard error, from its centred sum of squares
        return math.sqrt(squares / (draws - 1) / draws)

    pairs = [(m_re, cs.mean.real, se(s_re)), (m_im, cs.mean.imag, se(s_im))]
    pairs += [(s / draws, ref, se(q - s * s / draws))
              for s, ref, q in ((s_re, cs.var_re, q_re), (s_im, cs.var_im, q_im), (s_cross, cs.cov_re_im, q_cross))]
    pairs.append((m_sq, gl.mellin_fourier(law, 1.0, 1.0).real, se(s_sq)))
    return max(abs(a - b) / err for a, b, err in pairs)


def check_moment_exactness() -> CheckResult:
    """2. Monte Carlo mean/covariance of log(1-gamma) matches the closed
    forms within 4 standard errors at 1e6 draws."""
    worst_z = 0.0
    details = []
    for i, (r, delta) in enumerate([(3.0, 0.5), (5.0, 0.3 + 0.2j), (0.0, 1.0)]):
        zmax = _moment_z(r, delta, sp.substream(90210, i), 10**6)
        details.append(f"(r={r}, delta={delta}): max |z| = {zmax:.2f}")
        worst_z = max(worst_z, zmax)
    return CheckResult(
        "moment exactness (Monte Carlo)",
        worst_z < 4.0,
        f"max z-score {worst_z:.2f}",
        "0",
        "4 SE",
        detail="; ".join(details),
    )


def check_cgf_identity() -> CheckResult:
    """3. exp(cgf) equals the Mellin-Fourier moment at conjugate
    exponents to 1e-12 relative on 100 random valid points."""
    rng = np.random.default_rng(31337)
    worst = 0.0
    count = 0
    while count < 100:
        r = rng.uniform(0, 10)
        delta = complex(rng.uniform(-0.2, 2.0), rng.uniform(-1.0, 1.0))
        if r + 2 * delta.real + 1 <= 0.05:
            continue
        s = rng.uniform(-0.3, 1.0)
        t = rng.uniform(-1.0, 1.0)
        law = gl.CoefficientLaw(r, delta)
        try:
            lam = gl.cgf_Lambda(law, s, t)
            mf = gl.mellin_fourier(law, s - 1j * t, s + 1j * t)
        except sf.DomainError:
            continue
        worst = max(worst, abs(math.exp(lam) - mf) / abs(mf))
        count += 1
    return CheckResult(
        "cgf / Mellin-Fourier identity",
        worst < 1e-12,
        f"max rel dev {worst:.2e}",
        "0",
        "1e-12",
    )


def check_first_regime_mean() -> CheckResult:
    """4. The exact mean's distance from its limit -(delta/beta') log(1-t)
    decreases over n in {1e2, 1e3, 1e4} and is below 0.01 at n = 1e4."""
    delta, beta = 0.3, 2.0
    ts = np.array([0.25, 0.5, 0.75])
    errs = []
    for n in (10**2, 10**3, 10**4):
        p = asy.EnsembleParams(n, beta, delta=delta)
        ms = (n * ts).astype(int)
        errs.append(np.abs(asy.exact_mean_logphi(p, ms) - asy.limit_moments(p, ms)[0]))
    ok = np.all((errs[0] > errs[1]) & (errs[1] > errs[2]) & (errs[2] <= 0.01))
    worst_last = float(errs[2].max())
    return CheckResult(
        "first-regime mean decay",
        ok,
        f"monotone, final dev {worst_last:.2e}",
        "monotone, <= 0.01",
        "0.01 at n=1e4",
    )


DRIFT_MC_SEED = 5  # pinned: drift-regime Monte Carlo in check 05


def check_second_regime_mean() -> CheckResult:
    """5. The exact mean is within 1e-2 of its drift-regime limit
    n E(t) + (1/beta - 1/2) F(t) at n = 1e4, d = 1, beta in {2, 4},
    t in {0.5, 1}; and in the drift regime n = 64, beta = 2, d = 0.5 the
    Monte Carlo mean of log Phi_n(1) over 4000 exact samples is within
    4 SE of the exact sum."""
    n, ms = 10**4, np.array([5000, 10**4])
    worst = 0.0
    for beta in (2.0, 4.0):
        p = asy.EnsembleParams(n, beta, scaled_d=1.0)
        dev = asy.exact_mean_logphi(p, ms) - asy.limit_moments(p, ms)[0]
        worst = max(worst, float(np.abs(dev).max()))
    drift = asy.EnsembleParams(64, 2.0, scaled_d=0.5)
    samples = 4000
    logphi = pr.log_phi_sums(drift, DRIFT_MC_SEED, samples, pr._usable_cpus())
    exact = asy.exact_mean_logphi(drift, drift.n)
    root = math.sqrt(samples)
    z_mc = max(
        abs(logphi.real.mean() - exact.real) / (logphi.real.std(ddof=1) / root),
        abs(logphi.imag.mean() - exact.imag) / (logphi.imag.std(ddof=1) / root),
    )
    return CheckResult(
        "second-regime mean constants",
        worst < 1e-2 and z_mc < 4.0,
        f"max dev {worst:.2e}, drift MC z-score {z_mc:.2f}",
        "0",
        "1e-2; 4 SE",
        detail=f"n=64 beta=2 d=0.5: {samples} samples, exact mean {exact.real:.6f}",
    )


def check_covariance_scaling() -> CheckResult:
    """6. The Abel-Plana covariance at n = 1e8 is within 10% of I2 / beta
    after log-n normalization; the Abel-Plana and direct routes agree at
    n = 1e4 to 1e-9."""
    beta, delta = 2.0, 0.3 + 0.2j
    p8 = asy.EnsembleParams(10**8, beta, delta=delta)
    cov = asy.exact_cov_zeta(p8, 10**8) / math.log(10**8)
    diag_dev = max(abs(cov[0, 0] - 0.5), abs(cov[1, 1] - 0.5)) / 0.5
    off = abs(cov[0, 1]) / 0.5
    p4 = asy.EnsembleParams(10**4, beta, delta=delta)
    summand, ms = asy._cov_summand(p4), np.array([10**4])
    direct = asy._direct_sums(p4, ms, summand)
    fast = asy._abel_plana_sums(p4, ms, summand)
    agree = float(np.max(np.abs(direct - fast) / np.maximum(1.0, np.abs(direct))))
    return CheckResult(
        "covariance log-n scaling",
        diag_dev < 0.10 and off < 0.10 and agree < 1e-9,
        f"diag dev {diag_dev:.3f}, offdiag {off:.3f}, crossover {agree:.2e}",
        "0 (10%), crossover 0",
        "10% / 1e-9",
    )


def check_abel_plana() -> CheckResult:
    """7. The summation engine reproduces sum j^2 = 385 to 1e-10 and the
    digamma-difference sum at n = 100 to 1e-10."""
    poly = sf.abel_plana_sum(lambda t: t * t, lambda t: t**3 / 3, 0, 10)
    poly_dev = abs(poly - 385.0)
    # the exact mean's summand at beta = 2, delta = 0.3 + 0.2i, over k = x + 1
    term, prim = asy._mean_summand(asy.EnsembleParams(100, 2.0, delta=0.3 + 0.2j))
    direct = complex(np.sum(term(np.arange(100.0))))
    ap = sf.abel_plana_sum(lambda k: term(k - 1), lambda k: prim(k - 1), 0, 100)
    dig_dev = abs(ap - direct) / abs(direct)
    return CheckResult(
        "Abel-Plana engine",
        poly_dev < 1e-10 and dig_dev < 1e-10,
        f"poly dev {poly_dev:.2e}, digamma rel dev {dig_dev:.2e}",
        "385 / direct sum",
        "1e-10",
    )


def check_legendre_duality() -> CheckResult:
    """8. Numerical Legendre dual of the Lagrangian equals the pointwise
    rate to 1e-6 on the admissible grid; recession slope -xi for xi < 0."""
    worst = 0.0
    for eta in np.linspace(-1.2, 1.2, 13):
        hi = math.log(2 * math.cos(eta) - 0.05)  # e^xi <= 2 cos(eta) - 0.05
        for xi in np.linspace(-3.0, hi, 11):
            val, _ = ldp.legendre_numeric(xi, eta)
            worst = max(worst, abs(val - ldp.rate_Ha(xi, eta)))
    recession_ok = True
    rec_dev = 0.0
    for xi in (-0.5, -1.0, -2.0):
        v64, _ = ldp.legendre_numeric(64 * xi, 0.0)
        v32, _ = ldp.legendre_numeric(32 * xi, 0.0)
        # kappa^-1 L*(kappa xi, 0) = -xi - log(2 - e^(kappa xi))/kappa
        dev64 = abs(v64 / 64 - (-xi))
        dev32 = abs(v32 / 32 - (-xi))
        rec_dev = max(rec_dev, dev64)
        recession_ok = recession_ok and dev64 <= math.log(2) / 64 + 1e-9
        recession_ok = recession_ok and dev64 < dev32
    return CheckResult(
        "Legendre duality",
        worst < 1e-6 and recession_ok,
        f"grid dev {worst:.2e}, recession dev {rec_dev:.4f} (bound {math.log(2)/64:.4f})",
        "0 / -xi",
        "1e-6 / log2 over kappa",
    )


def check_hkoc_forms() -> CheckResult:
    """9. The T = 1 cgf matches the closed real form to 1e-10 and the
    closed imaginary form to 1e-8; the limiting slope of the imaginary
    form is pi/2 within 1e-3 (Richardson-extrapolated; the plain slope
    at t carries an exact -1/t correction)."""
    worst_r = max(
        abs(ldp.cgf_L0(1.0, s, 0.0) - ldp.hkoc_forms("real", s))
        for s in np.arange(0.1, 5.0001, 0.1)
    )
    worst_i = max(
        abs(ldp.cgf_L0(1.0, 0.0, t) - ldp.hkoc_forms("imag", t))
        for t in (0.5, 1.0, 2.0, 5.0)
    )

    def slope(t, h=1e-4):
        return (ldp.hkoc_forms("imag", t + h) - ldp.hkoc_forms("imag", t - h)) / (
            2 * h
        )

    slope_dev = abs(2 * slope(64.0) - slope(32.0) - 0.5 * math.pi)
    return CheckResult(
        "limiting cgf closed forms",
        worst_r < 1e-10 and worst_i < 1e-8 and slope_dev < 1e-3,
        f"real {worst_r:.2e}, imag {worst_i:.2e}, slope dev {slope_dev:.2e}",
        "0 / 0 / pi/2",
        "1e-10 / 1e-8 / 1e-3",
    )


def _golden_sup(T: float, xi: float, d: float = 0.0) -> float:
    lo = -(1 - T) - 2 * d + 1e-6

    def f(g):
        return g * xi - ldp.cgf_L0(T, g, 0.0, complex(d))

    grid = np.linspace(lo, 60.0, 3000)
    vals = np.array([f(g) for g in grid])
    i = int(np.argmax(vals))
    a, b = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def check_marginal_rate_branches() -> CheckResult:
    """10. Interior values match grid-sup duality to 1e-8; continuity and
    slope -(1-T) at the branch edge; infinite at T log 2; drift shift
    identity constant to 1e-10 on a 5 x 5 grid."""
    rng = np.random.default_rng(14142)
    dual_dev = 0.0
    for _ in range(50):
        T = rng.uniform(0.2, 0.95)
        xi = rng.uniform(ldp.xi_boundary(T) + 0.02, T * math.log(2) - 0.05)
        h = ldp.marginal_rate_h(ldp.RatePoint(T, xi, 0.0))
        dual_dev = max(dual_dev, abs(h.value - _golden_sup(T, xi)))

    T = 0.5
    xi_t = ldp.xi_boundary(T)
    step = 1e-6
    v0 = ldp.marginal_rate_h(ldp.RatePoint(T, xi_t, 0.0)).value
    vm = ldp.marginal_rate_h(ldp.RatePoint(T, xi_t - step, 0.0)).value
    vp = ldp.marginal_rate_h(ldp.RatePoint(T, xi_t + step, 0.0)).value
    cont_dev = max(abs(vm - v0) - (1 - T) * step, abs(vp - v0) - 2 * step)
    slope_dev = abs((v0 - vm) / step + (1 - T))

    infinite_ok = (
        ldp.marginal_rate_h(ldp.RatePoint(0.5, 0.5 * math.log(2), 0.0)).branch
        is ldp.Branch.INFINITE
    )

    d = 0.2 + 0.1j
    T = 0.7
    shift_dev = 0.0
    for s0 in np.linspace(-0.2, 1.5, 5):
        for t0_ in np.linspace(-1.0, 1.0, 5):
            xi, eta = ldp._grad_L0(T, s0, t0_)
            h0 = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, 0j)).value
            hd = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, d)).value
            const = hd - h0 + 2 * d.real * xi + 2 * d.imag * eta
            shift_dev = max(shift_dev, abs(const + ldp.shift_constant(T, d)))
    return CheckResult(
        "marginal rate branches",
        dual_dev < 1e-8
        and cont_dev < 1e-6
        and slope_dev < 1e-6
        and infinite_ok
        and shift_dev < 1e-10,
        f"dual {dual_dev:.2e}, continuity {cont_dev:.2e}, slope {slope_dev:.2e}, "
        f"shift {shift_dev:.2e}",
        "0 everywhere, infinite at T log 2",
        "1e-8 / 1e-6 / 1e-10",
    )


def check_equilibrium_circle() -> CheckResult:
    """11. Circle equilibrium: unit mass to 1e-8, log-modulus moment
    equals the entropy combination to 1e-8, argument moment 0 to 1e-10."""
    mass_dev = logm_dev = arg_dev = 0.0
    for a in (0.25, 0.5, 1.0, 2.0):
        mu = eq.mu_a_measure(a)
        mass_dev = max(mass_dev, abs(mu.mass() - 1.0))
        logmod, argmom = eq.circle_log_moments(a)
        logm_dev = max(logm_dev, abs(logmod - eq.circle_logmod_closed(a)))
        arg_dev = max(arg_dev, abs(argmom))
    return CheckResult(
        "circle equilibrium measure",
        mass_dev < 1e-8 and logm_dev < 1e-8 and arg_dev < 1e-10,
        f"mass {mass_dev:.2e}, logmod {logm_dev:.2e}, arg {arg_dev:.2e}",
        "1 / entropy combination / 0",
        "1e-8 / 1e-8 / 1e-10",
    )


def check_equilibrium_line() -> CheckResult:
    """12. Line equilibrium: the closed-form edge solves its defining
    equation to 1e-8, unit mass, constancy of potential + log kernel,
    integral-transform reconstruction to 1e-6, exact Cayley endpoint."""
    r = 2.0
    b = eq.line_edge(r)
    aux_dev = abs(eq.edge_equation_residual(r, b))
    g = eq.line_equilibrium(r)
    mass_dev = abs(g.mass() - 1.0)
    q = eq.line_potential(r)
    vals = [g.log_potential(x) + q(x) for x in np.linspace(-0.9 * b, 0.9 * b, 20).tolist()]
    spread = max(vals) - min(vals)
    ls_dev = 0.0
    for tt in (0.0, 0.35, -0.6, 0.9):
        ls = eq.lubinsky_saff_density(r, tt)
        ref = b * float(g.density(b * tt))
        ls_dev = max(ls_dev, abs(ls - ref))
    cayley = eq.cayley_check(r)
    return CheckResult(
        "line equilibrium measure",
        aux_dev < 1e-8
        and mass_dev < 1e-8
        and spread < 1e-5
        and ls_dev < 1e-6
        and cayley.endpoint_residual < 1e-12,
        f"edge {aux_dev:.2e}, mass {mass_dev:.2e}, spread {spread:.2e}, "
        f"transform {ls_dev:.2e}, endpoint {cayley.endpoint_residual:.2e}",
        "0 everywhere",
        "1e-8 / 1e-8 / 1e-5 / 1e-6 / 1e-12",
    )


def check_energy_duality() -> CheckResult:
    """13. The log energy of mu_a (the Fourier sum of
    ``equilibrium._log_energy_circle``) equals 2a xi + ldp.shift_constant(1, a),
    where ``energy_rate`` vanishes, within 1e-9 and in under 1 s, for a in {0.5, 1}."""
    worst = 0.0
    for a in (0.5, 1.0):
        mu = eq.mu_a_measure(a)
        sigma = eq._log_energy_circle(mu)
        xi, _ = eq.circle_log_moments(a)
        closed = 2.0 * a * xi + ldp.shift_constant(1.0, a)
        worst = max(worst, abs(-sigma - closed))
    return CheckResult(
        "energy / rate duality",
        worst < 1e-9,
        f"max dev {worst:.2e}",
        "0",
        "1e-9",
    )


CLT_SEED = 3  # pinned: statistical smoke check, deterministic per seed


def check_clt_smoke() -> CheckResult:
    """14. Normalized log-determinant at n = 4096, zero deformation:
    per-component variance within 20% of 1/2 and mean within 3 SE of 0
    at 4000 samples.  Documented trend check: the exact finite-n
    variance is 0.5948 (log-n bias), which the 20% band absorbs; the
    sample is additionally required to match the exact finite-n variance
    within 4 SE."""
    n, beta, samples = 4096, 2.0, 4000
    p = asy.EnsembleParams(n, beta, delta=0.0)
    theta = pr.log_phi_sums(p, CLT_SEED, samples, pr._usable_cpus()) / math.sqrt(math.log(n))
    exact = asy.exact_cov_zeta(p, n) / math.log(n)
    root = math.sqrt(samples)
    checks = []
    zs = []
    for comp, exact_var in ((theta.real, exact[0, 0]), (theta.imag, exact[1, 1])):
        var = comp.var(ddof=1)
        mean = comp.mean()
        se_mean = comp.std(ddof=1) / root
        se_var = np.std((comp - mean) ** 2, ddof=1) / root
        checks.append(abs(var - 0.5) <= 0.1)
        checks.append(abs(mean) < 3 * se_mean)
        zs.append(abs(var - exact_var) / se_var)
        checks.append(zs[-1] < 4.0)
    var_re, var_im = theta.real.var(ddof=1), theta.imag.var(ddof=1)
    ks = asy._ks_normal(theta.real, math.sqrt(0.5))
    return CheckResult(
        "normalized log-determinant limit (smoke)",
        all(checks),
        f"var ({var_re:.4f}, {var_im:.4f}), exact-z ({zs[0]:.2f}, {zs[1]:.2f})",
        "1/2 (band; exact 0.5948)",
        "20% band, 3 SE mean, 4 SE vs exact",
        detail=f"KS vs limit normal {ks:.4f} (positive bias expected at n=4096)",
    )


def check_fourth_moment_sums() -> CheckResult:
    """15. Partial sums of the fourth-moment bound scale like 1/n within
    a factor 4 across n in {1e2, 1e3, 1e4}."""
    beta, delta = 2.0, 0.3 + 0.2j
    scaled = []
    for n in (10**2, 10**3, 10**4):
        p = asy.EnsembleParams(n, beta, delta=delta)
        law = gl.CoefficientLaw(p.coefficient_ranks(n // 2), delta)
        total = gl.cumulants(law).fourth_bound.sum()
        scaled.append(n * total)
    ratio = max(scaled) / min(scaled)
    return CheckResult(
        "fourth-moment sum scaling",
        ratio < 4.0,
        f"n * sum spread factor {ratio:.2f}",
        "constant",
        "factor 4",
        detail=f"n*S = {[f'{v:.4f}' for v in scaled]}",
    )


def check_determinism() -> CheckResult:
    """16. CLI outputs are byte-identical across worker counts 1, 4, 16
    for a fixed seed, and across repeated runs."""
    import tempfile
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:

        def run(name, argv):
            """Exit code and output bytes of one command writing to a file."""
            path = f"{tmp}/{name}.csv"
            rc = cli.main(argv + ["--out", path])
            with open(path, "rb") as fh:
                return rc, fh.read()

        clt = ["clt", "--n", "64", "--beta", "2", "--delta-re", "0.5", "--samples", "60",
               "--seed", "0x2a", "--format", "csv"]
        outputs = [run(f"clt_w{w}", clt + ["--workers", str(w)]) for w in (1, 4, 16)]
        same_workers = (
            outputs[0][1] == outputs[1][1] == outputs[2][1]
            and all(rc == 0 for rc, _ in outputs)
        )
        sample = ["sample", "--n", "256", "--beta", "2", "--delta-re", "0.5", "--samples", "2",
                  "--seed", "7"]
        reruns = [run(f"sample_{i}", sample)[1] for i in range(2)]
        same_reruns = reruns[0] == reruns[1] and len(reruns[0]) > 0
    return CheckResult(
        "deterministic parallel outputs",
        same_workers and same_reruns,
        f"workers identical: {same_workers}, reruns identical: {same_reruns}",
        "byte-identical",
        "exact",
    )


CHECKS: Dict[str, Callable[[], CheckResult]] = {
    "01-triple-determinant": check_triple_determinant,
    "02-moment-exactness": check_moment_exactness,
    "03-cgf-identity": check_cgf_identity,
    "04-first-regime-mean": check_first_regime_mean,
    "05-second-regime-mean": check_second_regime_mean,
    "06-covariance-scaling": check_covariance_scaling,
    "07-abel-plana": check_abel_plana,
    "08-legendre-duality": check_legendre_duality,
    "09-hkoc-forms": check_hkoc_forms,
    "10-marginal-rate-branches": check_marginal_rate_branches,
    "11-equilibrium-circle": check_equilibrium_circle,
    "12-equilibrium-line": check_equilibrium_line,
    "13-energy-duality": check_energy_duality,
    "14-clt-smoke": check_clt_smoke,
    "15-fourth-moment-sums": check_fourth_moment_sums,
    "16-determinism": check_determinism,
}

CHECK_IDS = tuple(CHECKS)

# Wall-time limits in seconds, enforced by ``run_all`` and named in the tolerance.
TIME_LIMITS: Dict[str, float] = {"01-triple-determinant": 10.0, "02-moment-exactness": 60.0,
                                 "03-cgf-identity": 1.0, "13-energy-duality": 1.0}


def run_check(check_id: str) -> CheckResult:
    return run_all([check_id])[0]


def run_all(ids: Optional[Sequence[str]] = None) -> List[CheckResult]:
    ids = tuple(ids or CHECK_IDS)
    unknown = [cid for cid in ids if cid not in CHECKS]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise sf.DomainError(f"unknown check id(s) {names}; valid ids: {', '.join(CHECK_IDS)}")
    results = []
    for cid in ids:
        start = time.perf_counter()
        result = CHECKS[cid]()
        result.seconds = time.perf_counter() - start
        if cid in TIME_LIMITS:
            result.passed = result.passed and result.seconds < TIME_LIMITS[cid]
            result.tolerance += f", < {TIME_LIMITS[cid]:g} s"
        results.append(result)
    return results
