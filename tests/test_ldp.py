import math

import numpy as np
import pytest
from scipy import integrate

from circjacobi import asymptotics, equilibrium, ldp
from circjacobi import specfun as sf

from oracles import (
    entropy_circle_logmod,
    entropy_mean_profiles,
    entropy_xi_boundary,
    golden_section_max,
    log_quotient_cov_integral,
    mpmath_marginal_cgf,
    mpmath_mean_map_root,
)


class TestRateHa:
    def test_origin(self):
        assert ldp.rate_Ha(0.0, 0.0) == 0.0

    def test_interior_value(self):
        assert ldp.rate_Ha(-1.0, 0.0) == pytest.approx(
            1.0 - math.log(2.0 - math.exp(-1.0)), abs=1e-15
        )

    def test_infinite_region(self):
        assert ldp.rate_Ha(0.0, 0.5 * math.pi) == math.inf
        assert ldp.rate_Ha(0.0, 2.0) == math.inf
        assert ldp.rate_Ha(math.log(2.0), 0.0) == math.inf
        assert ldp.rate_Ha(5.0, 0.0) == math.inf

    @pytest.mark.parametrize("xi, eta", [(math.nan, 0.0), (0.0, math.nan), (-math.inf, 0.0), (0.0, math.inf)])
    def test_non_finite_target(self, xi, eta):
        with pytest.raises(sf.DomainError, match="need finite xi and eta"):
            ldp.rate_Ha(xi, eta)


class TestLagrangian:
    def test_origin(self):
        assert ldp.lagrangian_L(0.0, 0.0) == 0.0

    def test_zero_imag_reduction(self):
        for x in (0.5, 2.0, -0.7):
            ref = sf.entropy_J(1 + x) - 2 * sf.entropy_J(1 + 0.5 * x)
            assert ldp.lagrangian_L(x, 0.0) == pytest.approx(ref, abs=1e-14)

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            ldp.lagrangian_L(-1.0, 0.5)

    def test_hessian_psd(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(10):
            x, y = rng.uniform(-0.9, 5.0), rng.uniform(-5.0, 5.0)
            f = ldp.lagrangian_L
            hxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
            hyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2
            hxy = (
                f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)
            ) / (4 * h * h)
            eigs = np.linalg.eigvalsh(np.array([[hxx, hxy], [hxy, hyy]]))
            assert eigs.min() > -1e-6


class TestLegendre:
    def test_origin(self):
        val, arg = ldp.legendre_numeric(0.0, 0.0)
        assert abs(val) < 1e-12
        assert abs(arg[0]) < 1e-9 and abs(arg[1]) < 1e-9

    def test_matches_rate_on_admissible_grid(self):
        worst = 0.0
        for eta in np.linspace(-1.2, 1.2, 13):
            hi = math.log(2 * math.cos(eta) - 0.05)
            for xi in np.linspace(-3.0, hi, 11):
                val, _ = ldp.legendre_numeric(xi, eta)
                worst = max(worst, abs(val - ldp.rate_Ha(xi, eta)))
        assert worst < 1e-6

    def test_divergence_flagged(self):
        assert ldp.legendre_numeric(1.0, 0.0)[0] == math.inf
        assert ldp.legendre_numeric(0.0, 1.7)[0] == math.inf

    @pytest.mark.parametrize("xi, eta", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_target(self, xi, eta):
        # not (inf, None), which reports a divergent ascent
        with pytest.raises(sf.DomainError, match="need finite xi and eta"):
            ldp.legendre_numeric(xi, eta)

    def test_recession(self):
        for xi in (-0.5, -1.0, -2.0):
            v, _ = ldp.legendre_numeric(64.0 * xi, 0.0)
            assert abs(v / 64.0 + xi) <= math.log(2.0) / 64.0 + 1e-9


class TestCgf:
    def test_zero_at_origin_any_drift(self):
        for d in (0j, 0.4, 0.3 + 0.2j):
            assert ldp.cgf_L0(0.7, 0.0, 0.0, d) == pytest.approx(0.0, abs=1e-14)

    def test_hkoc_real_identity(self):
        for s in np.arange(0.1, 5.0001, 0.1):
            assert abs(ldp.cgf_L0(1.0, s, 0.0) - ldp.hkoc_forms("real", s)) < 1e-10

    def test_hkoc_imag_identity(self):
        for t in (0.5, 1.0, 2.0, 5.0):
            assert abs(ldp.cgf_L0(1.0, 0.0, t) - ldp.hkoc_forms("imag", t)) < 1e-8

    def test_s_derivative_is_mean_map(self):
        T, g = 0.6, 0.8
        h = 1e-6
        fd = (ldp.cgf_L0(T, g + h, 0.0) - ldp.cgf_L0(T, g - h, 0.0)) / (2 * h)
        assert abs(fd - ldp.implicit_mean_map(T, g)) < 1e-8

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            ldp.cgf_L0(0.5, -0.51, 0.0)
        with pytest.raises(sf.DomainError):
            ldp.cgf_L0(0.5, -0.3, 0.0, d=-0.1)

    @pytest.mark.parametrize("s, t", [(math.nan, 0.0), (0.1, math.nan), (math.inf, 0.0),
                                      (0.1, -math.inf)])
    def test_point_must_be_finite(self, s, t):
        with pytest.raises(sf.DomainError, match="need finite s and t"):
            ldp.cgf_L0(0.5, s, t)

    @pytest.mark.parametrize("d", [math.nan, complex(0, math.inf), 1e308])
    def test_drift_must_be_finite_with_a_finite_shift(self, d):
        with pytest.raises(sf.DomainError):
            ldp.cgf_L0(0.5, 0.1, 0.0, d)
        with pytest.raises(sf.DomainError):
            ldp.shift_constant(0.5, d)


def _rel(value, ref) -> float:
    """The largest entry of |value - ref| over the largest of |ref|, or
    absolute where ref is 0 (xi_T at T = 1)."""
    return float(np.max(np.abs(np.subtract(value, ref))) / (np.max(np.abs(ref)) or 1.0))


class TestOneCgf:
    """The mean profile and its correction, the covariance integral, the
    branch edge and the circle's log moment read the gradient and Hessian
    of L0; their closed forms in J and log are the oracles.  t stays above 0.1:
    below it both spellings cancel O(1) terms to O(t), and their relative
    gap grows like 1e-16 / t."""

    def test_mean_profiles_and_covariance_integral(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            d = complex(rng.uniform(0.01, 3.0), rng.uniform(-3.0, 3.0))
            t, beta = rng.uniform(0.1, 1.0), rng.uniform(0.5, 4.0)
            e_ref, f_ref = entropy_mean_profiles(d, t)
            e_val, f_val = asymptotics.limit_mean_functions(d, t)
            assert _rel(e_val, e_ref) < 1e-13 and _rel(f_val, f_ref) < 1e-13, (d, t)
            integral = asymptotics.limit_covariance(d, t, beta)[1]
            assert _rel(integral, log_quotient_cov_integral(d, t, beta)) < 1e-13, (d, t)

    def test_branch_edge_and_circle_log_moment(self):
        rng = np.random.default_rng(29)
        for T in [1.0, *(1.0 - rng.uniform(0.0, 1.0, 300))]:
            assert _rel(ldp.xi_boundary(T), entropy_xi_boundary(T)) < 1e-13, T
        for a in np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 300)):
            assert _rel(equilibrium.circle_logmod_closed(a), entropy_circle_logmod(a)) < 1e-13, a

    def test_one_spelling(self):
        assert not hasattr(asymptotics, "entropy_J") and not hasattr(equilibrium, "entropy_J")


class TestHkocForms:
    def test_values(self):
        assert ldp.hkoc_forms("real", 0.0) == 0.0
        ref = 2 * math.log(2) - 2.25 * math.log(1.5) - 0.25 * math.log(2)
        assert ldp.hkoc_forms("real", 1.0) == pytest.approx(ref, abs=1e-14)
        assert ref == pytest.approx(0.30071, abs=1e-5)

    def test_imag_even(self):
        for t in (0.5, 2.0):
            assert ldp.hkoc_forms("imag", t) == pytest.approx(
                ldp.hkoc_forms("imag", -t), abs=1e-15
            )

    def test_limiting_slope(self):
        def slope(t, h=1e-4):
            return (
                ldp.hkoc_forms("imag", t + h) - ldp.hkoc_forms("imag", t - h)
            ) / (2 * h)

        # plain slope carries an exact -1/t correction ...
        assert slope(64.0) - 0.5 * math.pi == pytest.approx(-1.0 / 64.0, abs=1e-4)
        # ... which Richardson extrapolation removes
        assert abs(2 * slope(64.0) - slope(32.0) - 0.5 * math.pi) < 1e-3

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            ldp.hkoc_forms("real", -0.1)
        with pytest.raises(sf.DomainError):
            ldp.hkoc_forms("other", 1.0)

    @pytest.mark.parametrize("which", ["real", "imag"])
    @pytest.mark.parametrize("arg", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument(self, which, arg):
        with pytest.raises(sf.DomainError, match="need finite"):
            ldp.hkoc_forms(which, arg)


class TestPathFunctional:
    def test_zero_path(self):
        assert ldp.path_functional_Lambda0(0.5, lambda u: 0.0, lambda u: 0.0) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_constant_path_reproduces_cgf(self):
        for (s, t) in ((0.4, 0.3), (-0.2, 0.0), (1.5, -0.8)):
            v = ldp.path_functional_Lambda0(0.6, lambda u: s, lambda u: t)
            assert abs(v - ldp.cgf_L0(0.6, s, t)) < 1e-9

    def test_linear_path_vs_riemann(self):
        T = 0.7
        x = lambda u: 0.5 * u
        y = lambda u: 0.0
        v = ldp.path_functional_Lambda0(T, x, y)
        taus = (np.arange(200_000) + 0.5) * (T / 200_000)
        riemann = (
            sum(
                sf.entropy_J(1 - u + x(u))
                - 2 * sf.entropy_J(complex(1 - u + 0.5 * x(u), 0.0)).real
                + sf.entropy_J(1 - u)
                for u in taus
            )
            * T
            / 200_000
        )
        assert abs(v - riemann) < 1e-8

    def test_domain_violation(self):
        with pytest.raises(sf.DomainError):
            ldp.path_functional_Lambda0(0.9, lambda u: -1.0, lambda u: 0.0)


class TestMarginalRate:
    def test_zero_point(self):
        res = ldp.marginal_rate_h(ldp.RatePoint(0.7, 0.0, 0.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.branch is ldp.Branch.INTERIOR
        assert abs(res.multipliers[0]) < 1e-9 and res.multipliers[1] == 0.0

    def test_infinite_at_log2(self):
        for T in (0.3, 0.9):
            res = ldp.marginal_rate_h(ldp.RatePoint(T, T * math.log(2.0), 0.0))
            assert res.branch is ldp.Branch.INFINITE
            assert res.value == math.inf

    def test_infinite_eta(self):
        res = ldp.marginal_rate_h(ldp.RatePoint(0.5, 0.0, 0.5 * math.pi * 0.5))
        assert res.branch is ldp.Branch.INFINITE

    def test_linear_extension(self):
        T = 0.5
        xi_t = ldp.xi_boundary(T)
        at_edge = ldp.marginal_rate_h(ldp.RatePoint(T, xi_t, 0.0)).value
        below = ldp.marginal_rate_h(ldp.RatePoint(T, xi_t - 0.3, 0.0))
        assert below.branch is ldp.Branch.LINEAR
        assert below.value == pytest.approx(at_edge + (1 - T) * 0.3, abs=1e-12)

    def test_duality_closure(self):
        rng = np.random.default_rng(14)
        for _ in range(12):
            T = rng.uniform(0.2, 0.95)
            xi = rng.uniform(ldp.xi_boundary(T) + 0.02, T * math.log(2) - 0.05)
            res = ldp.marginal_rate_h(ldp.RatePoint(T, xi, 0.0))
            lo = -(1 - T) + 1e-6
            grid = np.linspace(lo, 60.0, 2000)
            f = lambda g: g * xi - ldp.cgf_L0(T, g, 0.0)
            i = int(np.argmax([f(g) for g in grid]))
            sup = golden_section_max(
                f, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
            )
            assert abs(res.value - sup) < 1e-8

    def test_interior_2d_round_trip(self):
        T = 0.8
        for (s0, t0) in ((0.5, 0.4), (1.5, -1.0), (-0.1, -0.05)):
            xi, eta = ldp._grad_L0(T, s0, t0)
            res = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta))
            assert res.branch is ldp.Branch.INTERIOR
            assert abs(res.multipliers[0] - s0) < 1e-8
            assert abs(res.multipliers[1] - t0) < 1e-8

    def test_drift_shift_identity(self):
        d, T = 0.2 + 0.1j, 0.7
        for s0 in np.linspace(-0.2, 1.5, 5):
            for t0 in np.linspace(-1.0, 1.0, 5):
                xi, eta = ldp._grad_L0(T, s0, t0)
                h0 = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, 0j)).value
                hd = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, d)).value
                const = hd - h0 + 2 * d.real * xi + 2 * d.imag * eta
                assert abs(const + ldp.shift_constant(T, d)) < 1e-10

    def test_terminal_time_needs_drift(self):
        with pytest.raises(sf.DomainError):
            ldp.RatePoint(1.0, 0.1, 0.0, 0j)
        with pytest.raises(sf.DomainError):
            ldp.RatePoint(1.0, 0.1, 0.2, 0.3j)
        res = ldp.marginal_rate_h(ldp.RatePoint(1.0, 0.1, 0.0, 0.5))
        assert math.isfinite(res.value)

    def test_terminal_time_drift_round_trip(self):
        d = 0.5
        for (s0, t0) in ((0.3, 0.4), (1.2, -0.8), (0.02, 0.05)):
            xi, eta = ldp._grad_L0(1.0, s0, t0)
            res = ldp.marginal_rate_h(ldp.RatePoint(1.0, xi, eta, d))
            assert res.branch is ldp.Branch.INTERIOR
            assert abs(res.multipliers[0] - s0) < 1e-8
            assert abs(res.multipliers[1] - t0) < 1e-8
            # drifted dual at the drifted multipliers (s0 - 2 Re d, t0)
            sd, td = s0 - 2 * d, t0
            dual = sd * xi + td * eta - mpmath_marginal_cgf(1.0, sd, td, d)
            assert res.value == pytest.approx(dual, abs=1e-10)

    def test_terminal_time_edge_point_unsolved(self):
        # the maximiser lies on the edge s = 0 of the zero-drift domain
        with pytest.raises(ldp.SolverError):
            ldp.marginal_rate_h(ldp.RatePoint(1.0, -0.3, 0.2, 0.5))

    def test_rate_point_validation(self):
        with pytest.raises(sf.DomainError):
            ldp.RatePoint(0.0, 0.0, 0.0)
        with pytest.raises(sf.DomainError):
            ldp.RatePoint(0.5, math.inf, 0.0)
        with pytest.raises(sf.DomainError):
            ldp.RatePoint(0.5, 0.0, 0.0, -0.3)
        with pytest.raises(sf.DomainError):
            ldp.RatePoint(0.5, 0.0, 0.0, complex(math.nan, 0.0))

    def test_overflowing_drift_fails_on_every_branch(self):
        for xi, eta in ((0.0, 0.0), (-0.9, 0.0), (0.0, 0.2), (1.0, 0.0)):
            with pytest.raises(sf.DomainError, match="overflows"):
                ldp.marginal_rate_h(ldp.RatePoint(0.5, xi, eta, 1e200))


class TestMeanMapRoot:
    """``_solve_gamma`` (bracketed Newton and polish) against an mpmath root
    of the mean map, from just above xi_T to just below T log 2.  Closer to
    T log 2 the root grows like 1/(T log 2 - xi) and one ulp of xi moves it
    by more than 1e-13 relative, for any float evaluation of the map."""

    @pytest.mark.parametrize("T", [0.1, 0.5, 0.9, 1.0])
    def test_matches_mpmath(self, T):
        lo, hi = ldp.xi_boundary(T), T * math.log(2.0)
        fracs = (1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98, 0.99)
        for f in fracs:
            xi = lo + f * (hi - lo)
            gamma = ldp._solve_gamma(T, xi)
            ref = mpmath_mean_map_root(T, xi)
            assert abs(gamma - ref) <= 1e-13 * max(1.0, abs(ref)), (T, xi, gamma, ref)

    def test_mean_is_a_root(self):
        # below T = 1, xi = 0 is the mean: the root is 0 up to rounding,
        # and the rate 0 (at T = 1 it is the branch edge xi_T)
        for T in (0.1, 0.5, 0.9):
            assert abs(ldp._solve_gamma(T, 0.0)) < 1e-15
            assert ldp.marginal_rate_h(ldp.RatePoint(T, 0.0, 0.0)).value == 0.0

    def test_map_checks_T(self):
        with pytest.raises(sf.DomainError, match="need 0 < T <= 1"):
            ldp.implicit_mean_map(2.0, 0.5)

    @pytest.mark.parametrize("gamma", [-0.6, -0.5, math.nan, math.inf, -math.inf])
    def test_map_checks_gamma(self, gamma):
        # the branch is gamma > -(1-T); at and below it the map's logs are
        # undefined
        with pytest.raises(sf.DomainError, match="need a finite gamma"):
            ldp.implicit_mean_map(0.5, gamma)

    def test_slope_is_the_derivative(self):
        for T, g in ((0.1, -0.85), (0.5, 0.3), (0.9, 4.0), (1.0, 20.0)):
            h = 1e-6 * max(1.0, abs(g))
            fd = (ldp.implicit_mean_map(T, g + h) - ldp.implicit_mean_map(T, g - h)) / (2 * h)
            assert fd == pytest.approx(ldp._implicit_mean_slope(T, g), rel=1e-6)


class TestTrajectories:
    def test_zero_multipliers(self):
        pd, sd = ldp.optimal_trajectory(0.7, 0.0, 0.0)
        for tau in (0.0, 0.3, 0.69):
            assert pd(tau) == pytest.approx(0.0, abs=1e-15)
            assert sd(tau) == 0.0

    def test_initial_angle(self):
        gam, rho = 0.6, 0.5
        _, sd = ldp.optimal_trajectory(0.9, gam, rho)
        assert sd(0.0) == pytest.approx(math.atan(rho / (2 + gam)), abs=1e-15)

    def test_endpoints_match_solver_targets(self):
        T, gam, rho = 0.8, 0.5, 0.4
        pd, sd = ldp.optimal_trajectory(T, gam, rho)
        xi = integrate.quad(pd, 0, T, epsabs=1e-12)[0]
        eta = integrate.quad(sd, 0, T, epsabs=1e-12)[0]
        res = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta))
        assert abs(res.multipliers[0] - gam) < 1e-8
        assert abs(res.multipliers[1] - rho) < 1e-8

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            ldp.optimal_trajectory(0.5, -0.5, 0.0)
        with pytest.raises(sf.DomainError):
            ldp.optimal_trajectory(1.5, 1.0, 0.0)

    @pytest.mark.parametrize("gamma, rho", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.5, -math.inf)])
    def test_non_finite_multipliers(self, gamma, rho):
        with pytest.raises(sf.DomainError, match="need finite gamma and rho"):
            ldp.optimal_trajectory(0.5, gamma, rho)


class TestPathAction:
    def test_interior_path_action_equals_rate(self):
        T, gam, rho = 0.7, 0.6, 0.5
        pd, sd = ldp.optimal_trajectory(T, gam, rho)
        xi, eta = ldp._grad_L0(T, gam, rho)
        act = ldp.path_action(T, pd, sd)
        assert abs(act - ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta)).value) < 1e-9

    def test_atom_prices_linear_branch(self):
        T, eps = 0.5, 0.3
        pd, sd = ldp.optimal_trajectory(T, -(1 - T) + 1e-13, 0.0)
        act = ldp.path_action(T, pd, sd, phi_atoms=[(T, -eps)])
        lin = ldp.marginal_rate_h(ldp.RatePoint(T, ldp.xi_boundary(T) - eps, 0.0))
        assert abs(act - lin.value) < 1e-9

    def test_positive_atom_is_infinite(self):
        assert ldp.path_action(0.5, lambda u: 0.0, lambda u: 0.0, phi_atoms=[(0.2, 0.1)]) == math.inf

    def test_singular_psi_is_infinite(self):
        assert (
            ldp.path_action(0.5, lambda u: 0.0, lambda u: 0.0, psi_has_singular_part=True)
            == math.inf
        )

    def test_infinite_pointwise_rate(self):
        assert ldp.path_action(0.5, lambda u: 1.0, lambda u: 0.0) == math.inf

    def test_drift_shift(self):
        T, gam, rho = 0.7, 0.6, 0.5
        d = 0.3 + 0.2j
        pd, sd = ldp.optimal_trajectory(T, gam, rho)
        xi, eta = ldp._grad_L0(T, gam, rho)
        act = ldp.path_action(T, pd, sd, d=d)
        ref = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, d)).value
        assert abs(act - ref) < 1e-9


    @pytest.mark.parametrize("T, d", [(2.0, 0j), (-0.5, 0j), (math.nan, 0j), (0.5, -0.2)])
    def test_domain(self, T, d):
        pd, sd = ldp.optimal_trajectory(0.5, 0.6, 0.5)
        with pytest.raises(sf.DomainError):
            ldp.path_action(T, pd, sd, d=d)


class TestTightnessBound:
    def test_chernov_bound_decays(self):
        for d in (0j, 0.3 + 0.1j):
            T = 0.6
            theta = -(1 - T) / 2 - d.real
            vals = [
                theta * (a - 2 * T * math.log(2)) + ldp.cgf_L0(T, theta, 0.0, d)
                for a in (1.0, 10.0, 100.0)
            ]
            assert vals[0] > vals[1] > vals[2]
            assert vals[2] < -10.0
