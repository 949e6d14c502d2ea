import math

import numpy as np
import pytest
from scipy import integrate, stats

from circjacobi import asymptotics as asy
from circjacobi import gammalaw as gl
from circjacobi import specfun as sf

# J(2) - J(1) - J(3/2) + J(1/2), the drift-1/2 terminal mean profile.
E_HALF_AT_ONE = 0.43152310867767134


class TestEnsembleParams:
    def test_validation(self):
        with pytest.raises(sf.DomainError):
            asy.EnsembleParams(0, 2.0, delta=0.0)
        with pytest.raises(sf.DomainError):
            asy.EnsembleParams(8, -1.0, delta=0.0)
        with pytest.raises(sf.DomainError):
            asy.EnsembleParams(8, 2.0, delta=-0.6)
        with pytest.raises(sf.DomainError):
            asy.EnsembleParams(8, 2.0, scaled_d=-0.1)
        with pytest.raises(sf.DomainError):
            asy.EnsembleParams(8, 2.0, delta=0.1, scaled_d=0.1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True])
    def test_n_must_be_an_integer(self, n):
        # 2.5 would give three rank slots, one with a negative weight;
        # a bool is an int subclass, but True is no ensemble size
        with pytest.raises(sf.DomainError, match="integer n"):
            asy.EnsembleParams(n, 2.0)

    def test_numpy_integer_n(self):
        p = asy.EnsembleParams(np.int64(3), 2.0)
        assert p.coefficient_ranks().tolist() == [2.0, 1.0, 0.0]

    def test_effective_delta(self):
        p = asy.EnsembleParams(100, 2.0, scaled_d=0.5 + 0.5j)
        assert p.effective_delta == 1.0 * (0.5 + 0.5j) * 100
        assert p.regime == "scaled"
        q = asy.EnsembleParams(100, 2.0, delta=0.3)
        assert q.effective_delta == 0.3
        assert q.regime == "fixed"

    def test_ranks_end_at_zero(self):
        p = asy.EnsembleParams(5, 3.0, delta=0.0)
        ranks = p.coefficient_ranks()
        assert ranks[-1] == 0.0
        assert ranks[0] == 1.5 * 4


class TestExactMean:
    def test_single_term(self):
        p = asy.EnsembleParams(50, 2.0, delta=0.3 + 0.1j)
        d = p.effective_delta
        ref = sf.digamma(p.beta_prime * 49 + 1 + 2 * d.real) - sf.digamma(
            p.beta_prime * 49 + 1 + d.conjugate()
        )
        assert asy.exact_mean_logphi(p, 1) == pytest.approx(ref, abs=1e-14)

    def test_zero_deformation_vanishes(self):
        p = asy.EnsembleParams(64, 1.7, delta=0.0)
        for m in (1, 10, 64):
            assert asy.exact_mean_logphi(p, m) == 0.0

    def test_matches_cumulant_sum(self):
        p = asy.EnsembleParams(40, 2.5, delta=0.4 + 0.2j)
        m = 17
        brute = gl.cumulants(gl.CoefficientLaw(p.coefficient_ranks(m), p.effective_delta)).mean.sum()
        assert asy.exact_mean_logphi(p, m) == pytest.approx(brute, abs=1e-12)

    def test_first_regime_profile(self):
        # |mean + (delta/beta') log(1-t)| shrinks with n
        delta = 0.3
        errs = []
        for n in (100, 1000, 10000):
            p = asy.EnsembleParams(n, 2.0, delta=delta)
            v = asy.exact_mean_logphi(p, n // 2)
            errs.append(abs(v + delta * math.log(0.5)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01

    def test_bad_index(self):
        p = asy.EnsembleParams(10, 2.0, delta=0.0)
        with pytest.raises(sf.DomainError):
            asy.exact_mean_logphi(p, 0)
        with pytest.raises(sf.DomainError):
            asy.exact_mean_logphi(p, 11)


class TestAcceleration:
    @pytest.mark.parametrize(
        "params",
        [
            asy.EnsembleParams(100, 2.0, delta=0.3 + 0.2j),
            asy.EnsembleParams(1000, 2.0, delta=0.3 + 0.2j),
            asy.EnsembleParams(10_000, 2.0, delta=0.3 + 0.2j),
            asy.EnsembleParams(10_000, 3.7, scaled_d=0.4 + 0.3j),
            asy.EnsembleParams(1000, 0.8, scaled_d=1.2),
            asy.EnsembleParams(10_000, 2.0, delta=0.5),
        ],
        ids=["n1e2", "n1e3", "n1e4", "scaled", "smallbeta", "n1e4-real"],
    )
    def test_mean_crossover_agreement(self, params):
        n = params.n
        ms = np.arange(1, n + 1) if n <= 100 else np.array([1, 2, 17, n // 2, n - 1, n])
        summand = asy._mean_summand(params)
        direct = asy._direct_sums(params, ms, summand)
        fast = asy._abel_plana_sums(params, ms, summand)
        assert np.all(np.abs(direct - fast) <= 1e-9 * np.maximum(1.0, np.abs(direct)))

    def test_cov_crossover_agreement(self):
        # both trigamma sums, at alpha = 2 Re delta and alpha = delta
        self._cov_crossover(asy.EnsembleParams(10_000, 2.0, delta=0.3 + 0.2j))

    def test_cov_crossover_agreement_real_delta(self):
        # a real delta takes polygamma's real route on the direct side and
        # one boundary line on the Abel-Plana side
        self._cov_crossover(asy.EnsembleParams(10_000, 2.0, delta=0.5))

    @staticmethod
    def _cov_crossover(params):
        ms = np.array([1, 17, 9_999, 10_000])
        summand = asy._cov_summand(params)
        direct = asy._direct_sums(params, ms, summand)
        fast = asy._abel_plana_sums(params, ms, summand)
        assert direct.shape == fast.shape == (2, 4)
        assert np.all(np.abs(direct - fast) <= 1e-9 * np.maximum(1.0, np.abs(direct)))

    @pytest.mark.parametrize("beta, delta", [
        (2000.0, 0.5), (20000.0, 0.0), (2.0, -0.499), (2.0, -0.4999999),
    ])
    def test_pole_near_the_lower_end(self, beta, delta):
        # the summand's nearest pole, Re k = 1 - (1 + min(2 Re delta,
        # Re delta)) / beta', lies within 1 of the line Re k = 1, where rows
        # m = n - 1 and n start
        params = asy.EnsembleParams(20_000, beta, delta=delta)
        ms = np.array([1, 2, 19_998, 19_999, 20_000])
        for summand in (asy._mean_summand(params), asy._cov_summand(params)):
            direct = asy._direct_sums(params, ms, summand)
            fast = asy._abel_plana_sums(params, ms, summand)
            assert np.all(np.abs(direct - fast) <= 1e-9 * np.maximum(1.0, np.abs(direct)))


def _table_rows(n):
    grid = np.floor(n * np.arange(1, 101) / 100 + 1e-9).astype(int)
    return np.unique(np.concatenate([[1, 2, n - 1], grid[grid >= 1]]))


class TestMomentTables:
    @pytest.mark.parametrize(
        "params",
        [
            asy.EnsembleParams(50, 2.0, delta=0.3 + 0.1j),
            asy.EnsembleParams(10**4, 2.0, delta=0.5),
            asy.EnsembleParams(20_000, 2.0, scaled_d=1.0),
            asy.EnsembleParams(20_000, 0.8, delta=0.3 + 0.2j),
            asy.EnsembleParams(10**8, 2.0, delta=0.5),
            asy.EnsembleParams(10**8, 2.0, scaled_d=1.0),
        ],
        ids=["n50", "n1e4", "n2e4", "n2e4-smallbeta", "n1e8", "n1e8-drift"],
    )
    def test_rows_equal_one_row_calls_bitwise(self, params):
        ms = _table_rows(params.n)
        means = asy.exact_mean_logphi(params, ms)
        covs = asy.exact_cov_zeta(params, ms)
        assert means.shape == ms.shape and covs.shape == ms.shape + (2, 2)
        for m, mean, cov in zip(ms.tolist(), means, covs):
            one_mean, one_cov = asy.exact_mean_logphi(params, m), asy.exact_cov_zeta(params, m)
            assert type(one_mean) is complex and one_cov.shape == (2, 2)
            assert mean == one_mean, m
            assert np.array_equal(cov, one_cov), m

    def test_empty_and_bad_rows(self):
        p = asy.EnsembleParams(20_000, 2.0, scaled_d=1.0)
        assert asy.exact_mean_logphi(p, np.array([], dtype=int)).shape == (0,)
        assert asy.exact_cov_zeta(p, np.array([], dtype=int)).shape == (0, 2, 2)
        with pytest.raises(sf.DomainError, match="m=0"):
            asy.exact_mean_logphi(p, np.array([5, 0, 7]))
        with pytest.raises(sf.DomainError, match="integer"):
            asy.exact_cov_zeta(p, 2.5)

    def test_one_boundary_pass_per_table(self, monkeypatch):
        # the end n is evaluated once, however many rows the table has
        calls = []
        original = asy.abel_plana_sum

        def counted(g, primitive, m, n, **kw):
            calls.append(np.size(m))
            return original(g, primitive, m, n, **kw)

        monkeypatch.setattr(asy, "abel_plana_sum", counted)
        p = asy.EnsembleParams(20_000, 2.0, scaled_d=1.0)
        ms = np.arange(200, 20_001, 200)
        asy.exact_mean_logphi(p, ms)
        asy.exact_cov_zeta(p, ms)
        assert calls == [100, 100]

    def test_short_direct_row_builds_only_its_ranks(self, monkeypatch):
        # a row of m terms evaluates m rank weights, not n, and equals the
        # matching row of the full table bit for bit
        p = asy.EnsembleParams(10**4, 2.0, delta=0.3 + 0.2j)
        assert np.array_equal(p.coefficient_ranks(100), p.coefficient_ranks()[:100])
        all_rows = np.arange(1, p.n + 1)
        means, covs = asy.exact_mean_logphi(p, all_rows), asy.exact_cov_zeta(p, all_rows)
        sizes = []

        def counted(f):
            return lambda *args: sizes.append(np.size(args[-1])) or f(*args)

        monkeypatch.setattr(asy, "digamma", counted(asy.digamma))
        monkeypatch.setattr(asy, "polygamma", counted(asy.polygamma))
        for m in (1, 100, 5_000):
            sizes.clear()
            assert asy.exact_mean_logphi(p, m) == means[m - 1]
            assert np.array_equal(asy.exact_cov_zeta(p, m), covs[m - 1])
            # two digamma calls for the mean, one polygamma call on both
            # of the covariance's arguments
            assert sizes == [m, m, 2 * m], m

    def test_real_delta_row_calls_digamma_once_per_shift(self, monkeypatch):
        # one term at every deformation: a digamma call per shift, as at a
        # complex deformation, with the two calls' bits
        p = asy.EnsembleParams(10**4, 2.0, delta=0.5)
        term, _ = asy._mean_summand(p)
        x = p.coefficient_ranks(100)
        assert np.array_equal(term(x), asy.digamma(x + 2.0) - asy.digamma(x + 1.5))
        sizes = []
        digamma = asy.digamma
        monkeypatch.setattr(asy, "digamma", lambda z: sizes.append(np.size(z)) or digamma(z))
        asy.exact_mean_logphi(p, 100)
        assert sizes == [100, 100]


class TestConjugateSymmetry:
    """A real deformation makes both summands real on the real axis, so the
    Abel-Plana route evaluates one boundary line; a complex one keeps two."""

    @staticmethod
    def _spy(monkeypatch, force=None):
        seen = []
        original = asy.abel_plana_sum

        def spied(g, primitive, m, n, conjugate_symmetric=False):
            if force is not None:
                conjugate_symmetric = force

            def g_seen(t):
                seen.append((conjugate_symmetric, bool((t.imag < 0).any())))
                return g(t)

            return original(g_seen, primitive, m, n, conjugate_symmetric=conjugate_symmetric)

        monkeypatch.setattr(asy, "abel_plana_sum", spied)
        return seen

    @pytest.mark.parametrize(
        "params",
        [asy.EnsembleParams(10**8, 2.0, delta=0.5), asy.EnsembleParams(20_000, 2.0, scaled_d=1.0)],
        ids=["n1e8-delta0.5", "n2e4-d1"],
    )
    def test_one_line_equals_two_lines_bitwise(self, params, monkeypatch):
        ms = _table_rows(params.n)
        assert ms[-1] == params.n  # the m = n row, whose k = 1 term is split off
        seen = self._spy(monkeypatch)
        one = asy.exact_mean_logphi(params, ms), asy.exact_cov_zeta(params, ms)
        assert seen and all(symmetric and not lower for symmetric, lower in seen)
        monkeypatch.undo()
        seen = self._spy(monkeypatch, force=False)
        two = asy.exact_mean_logphi(params, ms), asy.exact_cov_zeta(params, ms)
        assert any(lower for _, lower in seen)
        for a, b in zip(one, two):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize(
        "params",
        [asy.EnsembleParams(10**8, 2.0, delta=0.3 + 0.2j), asy.EnsembleParams(20_000, 2.0, scaled_d=0.7 + 0.3j)],
        ids=["n1e8-complex-delta", "n2e4-complex-d"],
    )
    def test_complex_deformation_keeps_both_lines(self, params, monkeypatch):
        seen = self._spy(monkeypatch)
        asy.exact_mean_logphi(params, np.array([1, params.n // 2, params.n]))
        asy.exact_cov_zeta(params, params.n)
        # g at the endpoints sees no line, every boundary call sees both
        assert seen and not any(symmetric for symmetric, _ in seen)
        assert sum(lower for _, lower in seen) == len(seen) - 2


class TestExactCov:
    def test_real_deformation_diagonal(self):
        p = asy.EnsembleParams(30, 2.0, delta=0.7)
        cov = asy.exact_cov_zeta(p, 30)
        assert cov[0, 1] == 0.0

    def test_brute_force_cumulants(self):
        p = asy.EnsembleParams(50, 2.0, delta=0.4 + 0.3j)
        m = 20
        cums = gl.cumulants(gl.CoefficientLaw(p.coefficient_ranks(m), p.effective_delta))
        brute = cums.covariance.sum(axis=0)
        assert np.max(np.abs(asy.exact_cov_zeta(p, m) - brute)) < 1e-12

    def test_log_n_scaling_accelerated(self):
        p = asy.EnsembleParams(10**8, 2.0, delta=0.3 + 0.2j)
        cov = asy.exact_cov_zeta(p, 10**8) / math.log(10**8)
        assert cov[0, 0] == pytest.approx(0.5, rel=0.10)
        assert cov[1, 1] == pytest.approx(0.5, rel=0.10)
        assert abs(cov[0, 1]) < 0.05


class TestLimitFunctions:
    def test_zero_time(self):
        e, f = asy.limit_mean_functions(0.7 + 0.2j, 0.0)
        assert e == 0.0 and f == 0.0

    def test_half_drift_terminal(self):
        e, _ = asy.limit_mean_functions(0.5, 1.0)
        assert e == pytest.approx(E_HALF_AT_ONE, abs=1e-13)

    def test_real_drift_real_values(self):
        for t in (0.3, 0.8, 1.0):
            e, f = asy.limit_mean_functions(1.3, t)
            assert e.imag == 0.0
            assert f.imag == 0.0

    def test_second_regime_constant(self):
        # exact mean approaches n E + (1/beta - 1/2) F; the O(1) constant
        # carries the proof-consistent sign (numerically decidable).
        beta, d = 4.0, 0.6 + 0.4j
        n = 4000
        p = asy.EnsembleParams(n, beta, scaled_d=d)
        m = n // 2
        v = asy.exact_mean_logphi(p, m)
        e_val, f_val = asy.limit_mean_functions(d, m / n)
        assert abs((v - n * e_val) - (1 / beta - 0.5) * f_val) < 1e-4

    def test_second_regime_uniformity_rate(self):
        # sup-t error of the 1/n-corrected profile scales like 1/n^2
        beta, d = 4.0, 0.6 + 0.4j
        sups = []
        for n in (1000, 2000):
            p = asy.EnsembleParams(n, beta, scaled_d=d)
            worst = 0.0
            for t in np.arange(0.1, 1.0001, 0.1):
                m = int(round(n * t))
                v = asy.exact_mean_logphi(p, m)
                e_val, _ = asy.limit_mean_functions(d, m / n)
                _, f_val = asy.limit_mean_functions(d, t)
                worst = max(
                    worst, abs(v / n - e_val - (1 / beta - 0.5) * f_val / n)
                )
            sups.append(worst)
        assert 3.0 < sups[0] / sups[1] < 5.0

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            asy.limit_mean_functions(0.0, 0.5)
        with pytest.raises(sf.DomainError):
            asy.limit_mean_functions(1.0, 1.5)

    @pytest.mark.parametrize("d", [complex(1.0, math.nan), complex(math.inf, 0.0), math.nan])
    def test_non_finite_drift(self, d):
        with pytest.raises(sf.DomainError, match="finite d"):
            asy.limit_mean_functions(d, 0.5)


class TestLimitCovariance:
    def test_explicit_point(self):
        z, integral = asy.limit_covariance(0.5, 0.0, 2.0)
        ref = np.array([[0.5 - 1.0 / 3.0, 0.0], [0.0, 1.0 / 3.0]])
        assert np.max(np.abs(z - ref)) < 1e-14
        assert np.max(np.abs(integral)) == 0.0

    def test_integral_matches_quadrature(self):
        d, t, beta = 0.3 + 0.4j, 0.7, 2.0
        _, closed = asy.limit_covariance(d, t, beta)
        num = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                num[i, j], _ = integrate.quad(
                    lambda s: asy.limit_covariance(d, s, beta)[0][i, j],
                    0.0, t, epsabs=1e-12, epsrel=1e-12,
                )
        assert np.max(np.abs(closed - num)) < 1e-10

    def test_trace_at_one(self):
        for d in (0.25, 0.8 + 0.3j):
            d = complex(d)
            _, integral = asy.limit_covariance(d, 1.0, 2.0)
            ref = math.log((1 + 2 * d.real) / (2 * d.real))  # / beta_prime = 1
            assert np.trace(integral) == pytest.approx(ref, rel=1e-13)

    def test_symmetry_and_psd_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = complex(rng.uniform(0, 2), rng.uniform(-2, 2))
            t = rng.uniform(0, 0.99)
            z, integral = asy.limit_covariance(d, t, 2.0)
            assert z[0, 1] == z[1, 0]
            assert np.linalg.eigvalsh(z).min() > -1e-14
            assert np.linalg.eigvalsh(integral).min() > -1e-14

    def test_zero_drift(self):
        z, integral = asy.limit_covariance(0.0, 0.5, 2.0)
        assert z[0, 0] == pytest.approx(1.0 / (2.0 * 0.5), rel=1e-14)
        assert integral[0, 0] == pytest.approx(math.log(2.0) / 2.0, rel=1e-13)

    def test_zero_drift_terminal_is_error(self):
        with pytest.raises(sf.DomainError):
            asy.limit_covariance(0.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "d, beta", [(0.5, math.nan), (0.5, math.inf), (complex(0.5, math.nan), 2.0), (math.inf, 2.0)]
    )
    def test_non_finite_arguments(self, d, beta):
        with pytest.raises(sf.DomainError, match="finite"):
            asy.limit_covariance(d, 0.5, beta)


class TestLimitMoments:
    @pytest.mark.parametrize(
        "params",
        [
            asy.EnsembleParams(50, 2.0, delta=0.3 + 0.1j),
            asy.EnsembleParams(20_000, 0.8, delta=0.5),
            asy.EnsembleParams(50, 4.0, scaled_d=0.6 + 0.4j),
            asy.EnsembleParams(20_000, 2.0, scaled_d=1.0),
        ],
        ids=["fixed-n50", "fixed-n2e4", "drift-n50", "drift-n2e4"],
    )
    def test_rows_equal_one_row_calls_bitwise(self, params):
        ms = _table_rows(params.n)  # holds m = n, the fixed regime's t = 1 row
        means, covs = asy.limit_moments(params, ms)
        assert means.shape == ms.shape and covs.shape == ms.shape + (2, 2)
        for m, mean, cov in zip(ms.tolist(), means, covs):
            one_mean, one_cov = asy.limit_moments(params, m)
            assert type(one_mean) is complex and one_cov.shape == (2, 2)
            assert mean == one_mean, m
            assert np.array_equal(cov, one_cov), m

    def test_fixed_regime_closed_forms(self):
        p = asy.EnsembleParams(1000, 4.0, delta=0.3 + 0.2j)
        mean, cov = asy.limit_moments(p, 500)
        assert mean == pytest.approx(-(0.3 + 0.2j) / 2.0 * math.log(0.5), rel=1e-15)
        assert np.array_equal(cov, asy.limit_covariance(0.0, 0.5, 4.0)[1])
        mean, cov = asy.limit_moments(p, 1000)
        assert mean == pytest.approx((0.3 + 0.2j) / 2.0 * math.log(1000), rel=1e-15)
        assert np.array_equal(cov, np.eye(2) * math.log(1000) / 4.0)

    @pytest.mark.parametrize("m", [5000, 10**4])
    def test_drift_mean_tracks_exact_sums_with_its_sign(self, m):
        # at beta = 4 the O(1) constant (1/beta - 1/2) F is -F/4; the
        # opposite sign misses the exact sums by F/2, over 5e-2 here
        n, beta, d = 10**4, 4.0, 1.0
        p = asy.EnsembleParams(n, beta, scaled_d=d)
        exact = asy.exact_mean_logphi(p, m)
        mean, _ = asy.limit_moments(p, m)
        assert abs(exact - mean) < 1e-5
        e_val, f_val = asy.limit_mean_functions(d, m / n)
        assert abs(exact - (n * e_val + (0.5 - 1 / beta) * f_val)) > 5e-2

    def test_empty_and_bad_rows(self):
        p = asy.EnsembleParams(100, 2.0, delta=0.3)
        means, covs = asy.limit_moments(p, np.array([], dtype=int))
        assert means.shape == (0,) and covs.shape == (0, 2, 2)
        for m, match in ((2.5, "integer"), (np.array([0.5]), "integer"), (0, "m=0"),
                         (np.array([5, 101]), "m=101")):
            with pytest.raises(sf.DomainError, match=match):
                asy.limit_moments(p, m)


class TestKsNormal:
    """The in-house Kolmogorov-Smirnov statistic equals scipy's, bit for
    bit, so ``clt --format json`` keeps its bytes."""

    def scipy_ks(self, x, sd):
        return stats.kstest(x, stats.norm(0, sd).cdf).statistic

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 400, 4000])
    @pytest.mark.parametrize("sd", [0.5, 1.0, math.sqrt(0.5)])
    def test_equals_scipy(self, n, sd):
        rng = np.random.default_rng(1000 + n)
        for x in (rng.normal(0.0, sd, n), rng.normal(0.3, 2 * sd, n), rng.standard_t(3, n)):
            assert asy._ks_normal(x, sd) == self.scipy_ks(x, sd)

    def test_ties_and_signed_zeros(self):
        rng = np.random.default_rng(7)
        tied = np.round(rng.normal(0.0, 1.0, 200), 1)
        for x in (tied, np.zeros(5), np.array([-0.0, 0.0, 0.0]), np.array([1.5, 1.5]),
                  np.array([-2.0, 3.0, -2.0, 3.0, 0.1])):
            assert asy._ks_normal(x, 1.0) == self.scipy_ks(x, 1.0)

    def test_input_left_unsorted(self):
        x = np.array([0.3, -1.2, 0.8])
        asy._ks_normal(x, 1.0)
        assert x.tolist() == [0.3, -1.2, 0.8]
