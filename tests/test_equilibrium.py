import math

import numpy as np
import pytest
from scipy import integrate

from circjacobi import equilibrium as eq
from circjacobi import ldp
from circjacobi import specfun as sf
from circjacobi.asymptotics import limit_mean_functions
from oracles import nested_log_energy


def entropy_combination(a):
    return (
        sf.entropy_J(1 + 2 * a)
        - sf.entropy_J(1 + a)
        - sf.entropy_J(2 * a)
        + sf.entropy_J(a)
    )


def closed_neg_energy(a):
    """-Sigma(mu_a): the closed rate value with multiplier 2a."""
    gamma = 2 * a
    xi, _ = eq.circle_log_moments(a)
    return (
        gamma * xi
        - sf.entropy_F(1 + gamma)
        + sf.entropy_F(gamma)
        + 2 * sf.entropy_F(1 + 0.5 * gamma)
        - 2 * sf.entropy_F(0.5 * gamma)
        - sf.entropy_F(1.0)
    )


def semicircle_arc(lo=0.7, hi=2 * math.pi - 0.7):
    # a semicircle-law density on an arc: not a constrained minimiser
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def density(th):
        th = np.asarray(th, dtype=float)
        return 2 / (math.pi * rad**2) * np.sqrt(np.maximum(rad**2 - (th - mid) ** 2, 0.0))

    return eq.RadonMeasure1D(density=density, support=(lo, hi))


class TestCircleMeasure:
    def test_edge_angle_at_one(self):
        mu = eq.mu_a_measure(1.0)
        assert mu.support[0] == pytest.approx(math.pi / 3.0, abs=1e-14)

    def test_mass(self):
        for a in (0.25, 0.5, 1.0, 2.0):
            assert eq.mu_a_measure(a).mass() == pytest.approx(1.0, abs=1e-8)

    def test_density_vanishes_at_edge(self):
        mu = eq.mu_a_measure(0.7)
        assert float(mu.density(mu.support[0])) == 0.0

    def test_log_moment_matches_entropy_combination(self):
        for a in (0.25, 0.5, 1.0, 2.0):
            logmod, argmom = eq.circle_log_moments(a)
            assert abs(logmod - entropy_combination(a)) < 1e-8
            assert abs(argmom) < 1e-10

    def test_one_closed_form(self):
        assert entropy_combination(1.0) == pytest.approx(
            3 * math.log(3) - 4 * math.log(2), abs=1e-14
        )

    def test_log_moment_equals_limit_profile(self):
        for a in (0.5, 1.5):
            logmod, _ = eq.circle_log_moments(a)
            e_val, _ = limit_mean_functions(a, 1.0)
            assert abs(logmod - e_val.real) < 1e-8

    def test_log_moment_increasing_in_a(self):
        vals = [eq.circle_log_moments(a)[0] for a in (0.2, 0.5, 1.0, 2.0, 4.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            eq.mu_a_measure(0.0)


class TestEnergies:
    def test_uniform_measure_zero_energy(self):
        unif = eq.RadonMeasure1D(
            density=lambda th: np.full_like(np.asarray(th, dtype=float), 1 / (2 * math.pi)),
            support=(0.0, 2 * math.pi),
        )
        rep = eq.energy_rate(unif, 0j)
        assert abs(rep.sigma) < 1e-8
        assert abs(rep.rate) < 1e-8

    def test_rate_vanishes_at_minimizer(self):
        for a in (0.5, 1.0):
            rep = eq.energy_rate(eq.mu_a_measure(a), complex(a))
            assert abs(rep.rate) < 1e-8

    def test_constant_forms_agree(self):
        for d in (0.3, 1.0, 0.5 + 0.5j):
            assert abs(-ldp.shift_constant(1.0, d) - eq.constant_B_integral(d)) < 1e-8

    def test_energy_rate_rejects_a_nan_drift(self):
        with pytest.raises(sf.DomainError):
            eq.energy_rate(eq.mu_a_measure(0.5), complex(math.nan, 0.0))

    def test_energy_duality_closed_form(self):
        # -Sigma(mu_a) equals the closed rate value with multiplier 2a
        a = 0.5
        sigma = eq._log_energy_circle(eq.mu_a_measure(a))
        assert abs(-sigma - closed_neg_energy(a)) < 1e-9

    @pytest.mark.parametrize("a", [0.02, 0.25, 0.5, 1.0, 2.0, 20.0])
    def test_closed_form_across_a(self, a):
        sigma = eq._log_energy_circle(eq.mu_a_measure(a))
        assert abs(-sigma - closed_neg_energy(a)) < 1e-8

    def test_fourier_sum_matches_nested_quadrature(self):
        mu = semicircle_arc()
        assert mu.mass() == pytest.approx(1.0, abs=1e-12)
        assert abs(eq._log_energy_circle(mu) - nested_log_energy(mu)) < 1e-8

    def test_interior_singularity_raises(self):
        # inverse-square-root peak at theta = pi: the series decays like 1/k
        singular = eq.RadonMeasure1D(
            density=lambda th: 1
            / (4 * math.sqrt(math.pi) * np.sqrt(np.abs(np.asarray(th, dtype=float) - math.pi))),
            support=(0.0, 2 * math.pi),
        )
        with pytest.raises(sf.QuadratureError):
            eq._log_energy_circle(singular)

    def test_warm_call_builds_no_nodes(self, monkeypatch):
        mu = eq.mu_a_measure(1.0)
        sigma = eq._log_energy_circle(mu)
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        assert eq._log_energy_circle(mu) == sigma
        assert calls == []


class TestParameterDomain:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=repr)
    @pytest.mark.parametrize("entry", [eq.mu_a_measure, eq.line_edge, eq.line_potential,
                                       eq.line_equilibrium], ids=lambda f: f.__name__)
    def test_needs_a_finite_positive_parameter(self, entry, value):
        with pytest.raises(sf.DomainError, match="need a finite"):
            entry(value)


class TestLineEquilibrium:
    def test_edge_closed_form(self):
        assert eq.line_edge(2.0) == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_edge_equation(self):
        for r in (0.5, 2.0, 5.0):
            assert abs(eq.edge_equation_residual(r, eq.line_edge(r))) < 1e-8

    def test_mass(self):
        for r in (0.5, 2.0, 5.0):
            assert eq.line_equilibrium(r).mass() == pytest.approx(1.0, abs=1e-8)

    def test_equilibrium_condition(self):
        r = 2.0
        g = eq.line_equilibrium(r)
        b = eq.line_edge(r)
        q = eq.line_potential(r)

        def u_plus_q(x):
            val, _ = integrate.quad(
                lambda s: -math.log(abs(x - s)) * float(g.density(s)),
                -b, b, points=[x], epsabs=1e-10, epsrel=1e-10, limit=300,
            )
            return val + q(x)

        vals = [u_plus_q(x) for x in np.linspace(-0.9 * b, 0.9 * b, 20)]
        assert max(vals) - min(vals) < 1e-5

    def test_admissibility(self):
        # x Q'(x) = (1 + r/2) x^2/(1+x^2) is positive and increasing
        r = 3.0
        c = 1 + r / 2
        xs = np.linspace(0.01, 20.0, 200)
        vals = c * xs**2 / (1 + xs**2)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)


class TestLubinskySaff:
    def test_even(self):
        for t in (0.2, 0.7):
            assert eq.lubinsky_saff_density(2.0, t) == pytest.approx(
                eq.lubinsky_saff_density(2.0, -t), abs=1e-12
            )

    def test_center_value(self):
        r = 2.0
        b = eq.line_edge(r)
        ref = b * float(eq.line_equilibrium(r).density(0.0))
        assert eq.lubinsky_saff_density(r, 0.0) == pytest.approx(ref, abs=1e-10)

    def test_reconstructs_closed_form(self):
        for r in (0.5, 2.0):
            b = eq.line_edge(r)
            g = eq.line_equilibrium(r)
            for t in (0.0, 0.35, -0.6, 0.9):
                ref = b * float(g.density(b * t))
                assert abs(eq.lubinsky_saff_density(r, t) - ref) < 1e-6

    def test_warm_call_builds_no_nodes(self, monkeypatch):
        r, t = 2.0, 0.35
        eq.lubinsky_saff_density(r, t)
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        b = eq.line_edge(r)
        ref = b * float(eq.line_equilibrium(r).density(b * t))
        assert abs(eq.lubinsky_saff_density(r, t) - ref) < 1e-6
        assert calls == []

    def test_mass_defect_zero(self):
        for r in (0.5, 2.0, 7.0):
            assert abs(eq.lubinsky_saff_Bf(r)) < 1e-8

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            eq.lubinsky_saff_density(2.0, 1.0)


class TestCayley:
    def test_endpoint_identity(self):
        for r in (0.5, 2.0, 6.0):
            b = eq.line_edge(r)
            assert abs(1 / math.sqrt(1 + b * b) - r / (r + 2)) < 1e-12

    def test_report(self):
        rep = eq.cayley_check(2.0)
        assert rep.endpoint_residual < 1e-12
        assert rep.max_density_rel_err < 1e-6
        assert rep.pullback_mass == pytest.approx(1.0, abs=1e-8)

    def test_other_multipliers(self):
        for r in (0.8, 4.0):
            rep = eq.cayley_check(r)
            assert rep.max_density_rel_err < 1e-6


class TestIntegralIdentities:
    def test_lorentzian_mass(self):
        for alpha in (0.5, 1.0, 2.0):
            val, _ = integrate.quad(
                lambda v: alpha**2 / (v * v + alpha**2), -np.inf, np.inf
            )
            assert abs(val - alpha * math.pi) < 1e-8

    def test_log_weighted_lorentzian(self):
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                val, _ = integrate.quad(
                    lambda v: alpha**2 * math.log(v * v + beta**2) / (v * v + alpha**2),
                    -np.inf, np.inf,
                )
                assert abs(val - 2 * alpha * math.pi * math.log(alpha + beta)) < 1e-8
