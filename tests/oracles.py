"""Independent numerical oracles used by the test suite.

These deliberately avoid the production code paths: log-gamma through
quadrature of its exponential-kernel integral representation, digamma
through its partial-fraction series with an analytic tail, trigamma
through direct series summation, the circle log energy through nested
adaptive quadrature split at the diagonal, and polygamma and the exact
moment sums through mpmath, at beta = 2 also in closed form.  The mean
profile, its correction, the covariance integral, the rate branch edge and
the circle log moment keep their closed forms in J and log here, apart from
the derivatives of the cgf L0 that the package reads them from.  The
coefficient laws' Gamma quotients are sums of mpmath log-Gamma values at
50 digits (``mpmath_log_gamma_sum``).

The ``quadpack_*`` functions are the adaptive QUADPACK integrals (scipy's
``quad``) that the package's graded Gauss-Legendre rule replaced, each at
the tolerance its package call requests; ``mpmath_mean_map_root`` inverts
the interior mean map in mpmath; ``mpmath_acceptance_rate`` is the angle
step's acceptance over the sampler's float envelope.
"""

import cmath
import math
import warnings

import numpy as np
from scipy import integrate

from circjacobi.specfun import QuadratureError

EULER_GAMMA = 0.5772156649015328606


def remainder_kernel(s: float) -> float:
    if s < 1e-6:
        return 1.0 / 12.0 - s * s / 720.0
    if s > 700.0:
        return (0.5 - 1.0 / s) / s
    return (0.5 - 1.0 / s + 1.0 / math.expm1(s)) / s


def quadrature_log_gamma(x: complex) -> complex:
    """(x - 1/2) log x - x + log(2 pi)/2 + int_0^inf kernel(s) e^{-s x} ds,
    valid for Re x > 0; accuracy ~1e-13."""
    x = complex(x)
    assert x.real > 0
    hi = min(200.0, 60.0 / max(x.real, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re = integrate.quad(
            lambda s: remainder_kernel(s) * math.exp(-s * x.real) * math.cos(s * x.imag),
            0.0, hi, epsabs=1e-16, epsrel=1e-15, limit=500,
        )[0]
        im = integrate.quad(
            lambda s: -remainder_kernel(s) * math.exp(-s * x.real) * math.sin(s * x.imag),
            0.0, hi, epsabs=1e-16, epsrel=1e-15, limit=500,
        )[0]
    main = (x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi)
    return complex(main) + re + 1j * im


def shifted_quadrature_log_gamma(x: complex, shift: int = 8) -> complex:
    """Recursion-shifted variant usable near the imaginary axis."""
    x = complex(x)
    acc = 0.0 + 0.0j
    for _ in range(shift):
        acc += np.log(x)
        x += 1.0
    return quadrature_log_gamma(x) - acc


def series_digamma(w: complex, terms: int = 10**5) -> complex:
    """Psi(w) from Psi(z+1) = -euler - sum_k (1/(k+z) - 1/k) at z = w - 1,
    with the tail summed analytically through three orders."""
    z = complex(w) - 1.0
    k = np.arange(1, terms + 1)
    partial = np.sum(1.0 / (k + z) - 1.0 / k)
    big_k = float(terms)
    s2 = 1.0 / big_k - 1.0 / (2 * big_k**2) + 1.0 / (6 * big_k**3)
    s3 = 1.0 / (2 * big_k**2) - 1.0 / (2 * big_k**3) + 1.0 / (4 * big_k**4)
    s4 = 1.0 / (3 * big_k**3) - 1.0 / (2 * big_k**4)
    tail = -z * s2 + z * z * s3 - z**3 * s4
    return -EULER_GAMMA - (partial + tail)


def series_trigamma_one() -> float:
    """Sum of 1/k^2 with analytic tail: equals pi^2/6."""
    big_k = 10**6
    k = np.arange(1, big_k + 1, dtype=float)
    return float(np.sum(1.0 / (k * k)) + 1.0 / big_k - 1.0 / (2.0 * big_k**2))


def golden_section_max(f, lo: float, hi: float, iters: int = 90) -> float:
    """Maximum of a unimodal function by golden-section refinement."""
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
    return max(f1, f2)


def mpmath_log_angle_normaliser(m: float, b: float, dps: int = 30) -> float:
    """log of the integral of cos(phi)^(2m) exp(2 b phi) over (-pi/2, pi/2)
    by tanh-sinh quadrature, split at the mode arctan(b/m) and scaled by
    the integrand's peak so sharply peaked cases keep full accuracy."""
    import mpmath as mp

    with mp.workdps(dps):
        m, b = mp.mpf(m), mp.mpf(b)
        mode = mp.atan2(b, m)
        log_peak = 2 * m * mp.log(mp.cos(mode)) + 2 * b * mode if m > 0 else 2 * b * mode

        def f(x):
            c = mp.cos(x)
            if c <= 0:
                return mp.mpf(0)
            return mp.exp(2 * m * mp.log(c) + 2 * b * x - log_peak)

        pts = sorted({-mp.pi / 2, mode, mp.pi / 2})
        return float(mp.log(mp.quad(f, pts)) + log_peak)


def mpmath_acceptance_rate(m: float, b: float, envelope) -> float:
    """The angle step's acceptance over the sampler's own float envelope
    (``sampler._angle_envelope`` at one slot): the normaliser
    pi Gamma(2m+1) / (4^m |Gamma(m+1+ib)|^2) over
    exp(2m log_cos_mode + 2b mode) total, each envelope field read
    exactly.  Its log-Gamma values are of size m log m, so the working
    precision is 60 digits beyond their magnitude."""
    import mpmath as mp

    lcm, mode, total = (float(np.ravel(f)[0]) for f in (envelope.log_cos_mode, envelope.mode, envelope.total))
    with mp.workdps(60 + 2 * int(math.log10(max(1.0, m, abs(b))))):
        m, b = mp.mpf(m), mp.mpf(b)
        log_norm = (mp.log(mp.pi) + mp.loggamma(2 * m + 1) - 2 * m * mp.log(2)
                    - 2 * mp.re(mp.loggamma(mp.mpc(m + 1, b))))
        return float(mp.exp(log_norm - 2 * m * mp.mpf(lcm) - 2 * b * mp.mpf(mode)) / mp.mpf(total))


def mpmath_marginal_cgf(T: float, s: float, t: float, d: complex = 0j, dps: int = 30) -> float:
    """Normalized cgf of the time-T marginal with drift d, from the entropy
    primitive F(u) = u^2/2 log u - 3u^2/4 + u (F(0) = 0) in mpmath:
    Lambda(s, t) = Re[F(1+s) - F(1-T+s) + F(1) - F(1-T)] - 2 Re[F(1+z) - F(1-T+z)]
    with 2z = s + it, and Lambda(s + 2 Re d, t + 2 Im d) - Lambda(2 Re d, 2 Im d)
    for drift d."""
    import mpmath as mp

    with mp.workdps(dps):
        def prim(u):
            u = mp.mpc(u)
            return mp.mpc(0) if u == 0 else u * u / 2 * mp.log(u) - 3 * u * u / 4 + u

        def lam(a, b):
            a, b = mp.mpf(a), mp.mpf(b)
            z = mp.mpc(a, b) / 2
            real = prim(1 + a) - prim(1 - T + a) + prim(1) - prim(1 - T)
            cross = prim(1 + z) - prim(1 - T + z)
            return mp.re(real) - 2 * mp.re(cross)

        d = complex(d)
        dr, di = 2 * mp.mpf(d.real), 2 * mp.mpf(d.imag)
        return float(lam(s + dr, t + di) - lam(dr, di))


def _log_kernel_inner(mu, theta: float, tol: float) -> float:
    """Integral of log|e^{i theta} - e^{i theta'}| d mu(theta')."""
    lo, hi = mu.support

    def f(tp):
        d = abs(math.sin(0.5 * (theta - tp)))
        if d == 0.0:
            return 0.0  # integrable log singularity; measure-zero node
        return math.log(2.0 * d) * float(mu.density(tp))

    pts = [theta] if lo < theta < hi else None
    val, _ = integrate.quad(
        f, lo, hi, points=pts, epsabs=tol, epsrel=tol, limit=300
    )
    return val


def nested_log_energy(mu) -> float:
    """Double integral of log|z - z'| d mu d mu' over a measure with
    ``support`` and scalar ``density`` (nested quadrature, diagonal-aware;
    targeted at 1e-4 absolute or better, QuadratureError beyond)."""
    tol = 1e-7
    lo, hi = mu.support
    val, err = integrate.quad(
        lambda th: float(mu.density(th)) * _log_kernel_inner(mu, th, tol),
        lo,
        hi,
        epsabs=tol * 10,
        epsrel=tol * 10,
        limit=200,
    )
    if err > 1e-4:
        raise QuadratureError("log-energy outer quadrature too loose", err)
    return val


def mpmath_polygamma(q: int, z: complex, dps: int = 40) -> complex:
    """Psi^(q)(z) in mpmath.  Left of Re z = 1/2 it takes the reflection
    Psi^(q)(z) = (-1)^q Psi^(q)(1-z) - pi (d/dz)^q cot(pi z), with the
    derivative of cot from mpmath's numerical differentiation, because
    mpmath's own polygamma did not finish within a minute at -1e4+0.5j."""
    import mpmath as mp

    with mp.workdps(dps):
        z = mp.mpc(z)
        if z.real >= 0.5:
            return complex(mp.polygamma(q, z))
        cot_q = mp.diff(lambda x: mp.cot(mp.pi * x), z, q)
        return complex((-1) ** q * mp.polygamma(q, 1 - z) - mp.pi * cot_q)


def mpmath_log_gamma_sum(terms, exp: bool = False, dps: int = 50) -> complex:
    """sum of c log Gamma(z) over the (c, parts) of ``terms``, each argument
    z the sum of its float and complex ``parts`` taken in mpmath, so their
    rounding does not enter; with ``exp``, the exponential of the sum."""
    import mpmath as mp

    with mp.workdps(dps):
        total = mp.fsum(c * mp.loggamma(mp.fsum(mp.mpc(p) for p in parts)) for c, parts in terms)
        return complex(mp.exp(total) if exp else total)


def mpmath_moment_row(n: int, beta: float, delta: complex, m: int, dps: int = 30):
    """(E log Phi_{m,n}(1), cov(Re, Im) of the centered value) as direct
    mpmath sums of digamma and trigamma over the m highest rank weights
    beta/2 (k-1), k = n-m+1..n."""
    import mpmath as mp

    with mp.workdps(dps):
        d = mp.mpc(delta)
        mean, s_sym, s_del = mp.mpc(0), mp.mpf(0), mp.mpc(0)
        for k in range(n - m + 1, n + 1):
            x = mp.mpf(beta) / 2 * (k - 1) + 1
            mean += mp.digamma(x + 2 * d.real) - mp.digamma(x + mp.conj(d))
            s_sym += mp.psi(1, x + 2 * d.real)
            s_del += mp.psi(1, x + d)
        var_re = s_sym - s_del.real / 2
        cov = s_del.imag / 2
        var_im = s_del.real / 2
        return complex(mean), np.array([[float(var_re), float(cov)], [float(cov), float(var_im)]])


def mpmath_beta2_moment_row(n: int, delta: complex, m: int, dps: int = 40):
    """``mpmath_moment_row`` at beta = 2 in closed form.  The shifted rank
    weights are then the run k, k = n-m+1..n, so each digamma sum is
    sum_{j<m} Psi(a+j) = (a+m-1) Psi(a+m) - (a-1) Psi(a) - m, and each
    trigamma sum is its derivative in a."""
    import mpmath as mp

    with mp.workdps(dps):
        d = mp.mpc(delta)
        low = n - m + 1

        def run(a):
            return (a + m - 1) * mp.digamma(a + m) - (a - 1) * mp.digamma(a) - m

        def run_prime(a):
            return (
                mp.digamma(a + m) + (a + m - 1) * mp.psi(1, a + m)
                - mp.digamma(a) - (a - 1) * mp.psi(1, a)
            )

        mean = run(low + 2 * d.real) - run(low + mp.conj(d))
        s_sym, s_del = mp.re(run_prime(low + 2 * d.real)), run_prime(low + d)
        var_re = s_sym - s_del.real / 2
        cov = s_del.imag / 2
        var_im = s_del.real / 2
        return complex(mean), np.array([[float(var_re), float(cov)], [float(cov), float(var_im)]])


def _quad(f, a, b, tol, **kw):
    val, err = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=400, **kw)
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError("QUADPACK oracle did not converge", err)
    return val


def quadpack_measure_integral(mu, f, tol: float = 1e-10) -> float:
    """int f d mu over the support, for a scalar f."""
    lo, hi = mu.support
    return _quad(lambda x: f(x) * float(mu.density(x)), lo, hi, tol)


def quadpack_log_potential(mu, x: float, tol: float = 1e-10) -> float:
    """-int log|x - s| d mu(s), with a QUADPACK break point at x."""
    lo, hi = mu.support
    return _quad(lambda s: -math.log(abs(x - s)) * float(mu.density(s)), lo, hi, tol, points=[x])


def quadpack_constant_B_integral(d: complex, tol: float = 1e-11) -> float:
    """int_0^1 [(x+2Re d) log(x+2Re d) - 2 Re((x+d) log(x+d))] dx
    + int_0^1 x log x dx, as two QUADPACK integrals."""
    d = complex(d)

    def f(x):
        u = x + 2.0 * d.real
        first = u * math.log(u) if u > 0 else 0.0
        zx = complex(x, 0.0) + d
        return first - (2.0 * (zx * np.log(zx)).real if zx != 0 else 0.0)

    return _quad(f, 0.0, 1.0, tol) + _quad(lambda x: x * math.log(x) if x > 0 else 0.0, 0.0, 1.0, tol)


def quadpack_edge_integral(b: float, tol: float = 1e-12) -> float:
    """int_0^{pi/2} du / (1 + b^2 sin^2 u), the left side of the line
    equilibrium's endpoint equation."""
    return _quad(lambda u: 1.0 / (1.0 + (b * math.sin(u)) ** 2), 0.0, 0.5 * math.pi, tol)


def quadpack_mass_defect(r: float, tol: float = 1e-12) -> float:
    """1 - (2/pi) int_0^{pi/2} s f'(s) du at s = sin u, with
    s f'(s) = (1 + r/2) (b s)^2 / (1 + (b s)^2) and b = 2 sqrt(1+r) / r."""
    b = 2.0 * math.sqrt(1.0 + r) / r
    c = 1.0 + 0.5 * r

    def sfp(u):
        v = b * math.sin(u)
        return c * v * v / (1.0 + v * v)

    return 1.0 - 2.0 * _quad(sfp, 0.0, 0.5 * math.pi, tol) / math.pi


def _entropy(u):
    """J(u) = u log u - u + 1 for u > 0 or complex u off the cut."""
    return u * (cmath.log(u) if isinstance(u, complex) else math.log(u)) - u + 1.0


def entropy_mean_profiles(d: complex, t: float):
    """E_d(t) = J(a) - J(a-t) - J(b) + J(b-t) and F_d(t) = log a - log b
    - log(a-t) + log(b-t), a = 1 + 2 Re d, b = 1 + conj(d), for 0 < t <= 1."""
    d = complex(d)
    a, b = 1.0 + 2.0 * d.real, 1.0 + d.conjugate()
    e = _entropy(a) - _entropy(a - t) - _entropy(b) + _entropy(b - t)
    f = math.log(a) - cmath.log(b) - math.log(a - t) + cmath.log(b - t)
    return complex(e), complex(f)


def log_quotient_cov_integral(d: complex, t: float, beta: float) -> np.ndarray:
    """The limit covariance density integrated over [0, t]: (2/beta)
    [[log(a/(a-t)) - Re L/2, Im L/2], [Im L/2, Re L/2]], a = 1 + 2 Re d,
    L = log((1+d)/(1-t+d))."""
    d = complex(d)
    a = 1.0 + 2.0 * d.real
    big_l = cmath.log((1.0 + d) / (1.0 - t + d))
    off = 0.5 * big_l.imag
    return np.array([[math.log(a / (a - t)) - 0.5 * big_l.real, off],
                     [off, 0.5 * big_l.real]]) * (2.0 / beta)


def entropy_xi_boundary(T: float) -> float:
    """The left edge of the interior rate branch, J(T) - 1 - J((1+T)/2)
    + J((1-T)/2)."""
    edge = 0.5 * (1.0 - T)
    return _entropy(T) - 1.0 - _entropy(0.5 * (1.0 + T)) + (_entropy(edge) if edge else 1.0)


def entropy_circle_logmod(a: float) -> float:
    """The log-modulus moment of 1 - z under mu_a, J(1+2a) - J(1+a) - J(2a) + J(a)."""
    return _entropy(1.0 + 2.0 * a) - _entropy(1.0 + a) - _entropy(2.0 * a) + _entropy(a)


def quadpack_path_functional(T: float, x, y, tol: float = 1e-11) -> float:
    """int_0^T J(1-tau+x) - 2 Re J(1-tau+z) + J(1-tau) d tau, 2z = x + iy."""
    def f(tau):
        c = 1.0 - tau
        xv, yv = x(tau), y(tau)
        jc = _entropy(c) if c > 0 else 1.0
        return _entropy(c + xv) - 2.0 * _entropy(complex(c + 0.5 * xv, 0.5 * yv)).real + jc

    return _quad(f, 0.0, T, tol)


def quadpack_path_action(T: float, phi_dot, psi_dot, atoms=(), d: complex = 0j,
                         tol: float = 1e-10) -> float:
    """int_0^T (1-tau) H(phi_dot, psi_dot) d tau with H(xi, eta) =
    -xi - log(2 cos eta - e^xi), plus (1 - location) |mass| per atom, and
    for drift d the shift -2 Re d phi(T) - 2 Im d psi(T) + Lambda_0(T, d)
    with Lambda_0 from ``mpmath_marginal_cgf``; finite paths only."""
    def h(tau):
        xi, eta = phi_dot(tau), psi_dot(tau)
        return (1.0 - tau) * (-xi - math.log(2.0 * math.cos(eta) - math.exp(xi)))

    val = _quad(h, 0.0, T, tol) + sum((1.0 - loc) * -mass for loc, mass in atoms)
    d = complex(d)
    if d != 0:
        phi_T = _quad(phi_dot, 0.0, T, tol) + sum(mass for _, mass in atoms)
        psi_T = _quad(psi_dot, 0.0, T, tol)
        val += (-2.0 * d.real * phi_T - 2.0 * d.imag * psi_T
                + mpmath_marginal_cgf(T, 2.0 * d.real, 2.0 * d.imag))
    return val


def mpmath_mean_map_root(T: float, xi: float, dps: int = 40) -> float:
    """The gamma > -(1-T) with J(1+g) - J(1-T+g) - J(1+g/2) + J(1-T+g/2)
    = xi, by mpmath's bracketing Anderson-Bjorck solver."""
    import mpmath as mp

    with mp.workdps(dps):
        T, xi = mp.mpf(T), mp.mpf(xi)

        def J(u):
            return u * mp.log(u) - u + 1

        def f(g):
            return J(1 + g) - J(1 - T + g) - J(1 + g / 2) + J(1 - T + g / 2) - xi

        hi = mp.mpf(1)
        while f(hi) < 0:
            hi *= 2
        return float(mp.findroot(f, (-(1 - T) + mp.mpf(10) ** -30, hi), solver="anderson"))
