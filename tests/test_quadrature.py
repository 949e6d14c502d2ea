"""The graded Gauss-Legendre rule (``specfun.graded_quad``) and every
integral it carries, each against the QUADPACK integral it replaced, at the
tolerance the package call requests."""

import math

import numpy as np
import pytest

from circjacobi import equilibrium as eq
from circjacobi import ldp
from circjacobi import specfun as sf

from oracles import (
    quadpack_constant_B_integral,
    quadpack_edge_integral,
    quadpack_log_potential,
    quadpack_mass_defect,
    quadpack_measure_integral,
    quadpack_path_action,
    quadpack_path_functional,
)


def close(value, ref, tol):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


class TestGradedRule:
    def test_endpoint_singularities(self):
        # sqrt, x log x and log at an end, a sqrt at both ends of one piece
        assert sf.graded_quad(np.sqrt, (0.0, 1.0), 1e-12) == pytest.approx(2 / 3, abs=1e-15)
        assert sf.graded_quad(lambda x: x * np.log(x), (0.0, 1.0), 1e-12) == pytest.approx(
            -0.25, abs=1e-15
        )
        assert sf.graded_quad(np.log, (0.0, 1.0), 1e-12) == pytest.approx(-1.0, abs=1e-14)
        semicircle = sf.graded_quad(lambda x: np.sqrt(1.0 - x * x), (-1.0, 1.0), 1e-12)
        assert semicircle == pytest.approx(0.5 * math.pi, abs=1e-14)

    def test_leading_axes_are_several_integrands(self):
        both = sf.graded_quad(lambda x: (np.sqrt(x), x * x), (0.0, 0.5, 1.0), 1e-12)
        assert both.shape == (2,)
        assert both == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_non_integrable_raises_with_achieved_tolerance(self):
        with pytest.raises(sf.QuadratureError) as info:
            sf.graded_quad(lambda x: 1.0 / x, (0.0, 1.0), 1e-10)
        err = info.value
        assert math.isfinite(err.achieved) and err.achieved > 1e-10
        assert "achieved tolerance" in str(err)

    def test_one_integrand_call_per_level(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.cos(x)

        assert sf.graded_quad(f, (0.0, 1.0, 2.0), 1e-12) == pytest.approx(math.sin(2.0), abs=1e-15)
        assert all(len(shape) == 1 for shape in calls)
        assert len(calls) <= len(sf._GRADED_LEVELS)


class TestMeasureIntegrals:
    @pytest.mark.parametrize("a", [0.05, 0.25, 0.5, 2.0, 20.0])
    def test_circle_mass_and_log_moments(self, a):
        mu = eq.mu_a_measure(a)
        assert close(mu.mass(), quadpack_measure_integral(mu, lambda th: 1.0), 1e-10)
        logmod, argmom = eq.circle_log_moments(a)
        ref_log = quadpack_measure_integral(mu, lambda th: math.log(2.0 * math.sin(th / 2.0)))
        ref_arg = quadpack_measure_integral(mu, lambda th: 0.5 * (th - math.pi))
        assert close(logmod, ref_log, 1e-10)
        assert close(argmom, ref_arg, 1e-10)

    @pytest.mark.parametrize("r", [0.01, 0.5, 2.0, 5.0])
    def test_line_mass(self, r):
        g = eq.line_equilibrium(r)
        assert close(g.mass(), quadpack_measure_integral(g, lambda x: 1.0), 1e-10)

    @pytest.mark.parametrize("a, d", [(0.5, 0.5), (1.0, 1.0), (0.5, 0.3 + 0.4j), (2.0, 0.7j)])
    def test_energy_rate_field_integral(self, a, d):
        mu = eq.mu_a_measure(a)
        dd = complex(d)

        def q(th):
            return -2.0 * dd.real * math.log(2.0 * math.sin(th / 2.0)) - dd.imag * (th - math.pi)

        field = mu.integrate(eq.field_Qd(d))
        assert close(field, quadpack_measure_integral(mu, q), 1e-10)
        rep = eq.energy_rate(mu, d)
        assert rep.rate == -rep.sigma + field + rep.constant

    @pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("frac", [-0.9, -0.3, 0.0, 0.45, 0.9])
    def test_check_12_log_potential(self, r, frac):
        g = eq.line_equilibrium(r)
        x = frac * eq.line_edge(r)
        assert close(g.log_potential(x), quadpack_log_potential(g, x), 1e-10)


class TestLineQuadratures:
    @pytest.mark.parametrize("r", [0.01, 0.5, 2.0, 5.0])
    def test_edge_equation_residual(self, r):
        b = eq.line_edge(r)
        ref = quadpack_edge_integral(b) - math.pi * r / (2.0 * (2.0 + r))
        assert close(eq.edge_equation_residual(r, b), ref, 1e-12)
        # off the closed-form edge the residual is not zero
        assert close(eq.edge_equation_residual(r, 2 * b), quadpack_edge_integral(2 * b)
                     - math.pi * r / (2.0 * (2.0 + r)), 1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 2.0, 5.0])
    def test_mass_defect(self, r):
        eq.lubinsky_saff_Bf.cache_clear()
        assert close(eq.lubinsky_saff_Bf(r), quadpack_mass_defect(r), 1e-12)

    @pytest.mark.parametrize("d", [0.0, 1e-6j, 1e-3, 0.3, 1.0, 0.5 + 0.5j, 2.0 - 1.5j])
    def test_constant_B_integral(self, d):
        assert close(eq.constant_B_integral(d), quadpack_constant_B_integral(d), 1e-11)


class TestPathQuadratures:
    @pytest.mark.parametrize(
        "T, s, t", [(0.3, -0.2, 0.0), (0.6, 0.4, 0.3), (0.6, 1.5, -0.8), (1.0, 0.4, 0.3), (1.0, 1.5, -0.8)]
    )
    def test_path_functional_constant_paths(self, T, s, t):
        x, y = (lambda u: s), (lambda u: t)
        assert close(ldp.path_functional_Lambda0(T, x, y), quadpack_path_functional(T, x, y), 1e-11)

    @pytest.mark.parametrize("T", [0.7, 1.0])
    def test_path_functional_linear_paths(self, T):
        for x, y in ((lambda u: 0.5 * u, lambda u: 0.0), (lambda u: 0.2 + 0.3 * u, lambda u: 0.4 * u)):
            assert close(ldp.path_functional_Lambda0(T, x, y), quadpack_path_functional(T, x, y),
                         1e-11)

    def test_path_action_interior(self):
        pd, sd = ldp.optimal_trajectory(0.7, 0.6, 0.5)
        assert close(ldp.path_action(0.7, pd, sd), quadpack_path_action(0.7, pd, sd), 1e-10)

    def test_path_action_atom(self):
        T, eps = 0.5, 0.3
        pd, sd = ldp.optimal_trajectory(T, -(1 - T) + 1e-13, 0.0)
        atoms = [(T, -eps), (0.2, -0.1)]
        act = ldp.path_action(T, pd, sd, phi_atoms=atoms)
        assert close(act, quadpack_path_action(T, pd, sd, atoms), 1e-10)

    @pytest.mark.parametrize("d", [0.3 + 0.2j, 0.5, 0.4j])
    def test_path_action_drift(self, d):
        T = 0.7
        pd, sd = ldp.optimal_trajectory(T, 0.6, 0.5)
        atoms = [(0.4, -0.05)]
        act = ldp.path_action(T, pd, sd, phi_atoms=atoms, d=d)
        assert close(act, quadpack_path_action(T, pd, sd, atoms, d), 1e-10)
