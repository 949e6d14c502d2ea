import math

import numpy as np
import pytest
from scipy import stats

from circjacobi import gammalaw as gl
from circjacobi import sampler as sp
from circjacobi import specfun as sf
from circjacobi.asymptotics import EnsembleParams
from oracles import mpmath_log_angle_normaliser


class TestDiscSampler:
    def test_support(self):
        vals = sp.sample_gamma_disc(2.0, 0.5 + 0.5j, sp.substream(1, 0), size=5000)
        assert np.all(np.abs(vals) < 1.0)
        assert np.all(vals != 1.0)

    def test_zero_deformation_radius_law(self):
        # |gamma|^2 has CDF 1 - (1-u)^r when the weight is trivial
        r = 3.0
        vals = sp.sample_gamma_disc(r, 0.0, sp.substream(42, 1), size=10**5)
        res = stats.kstest(np.abs(vals) ** 2, lambda u: 1 - (1 - u) ** r)
        assert res.pvalue > 0.01

    def test_angle_uniform_at_zero_deformation(self):
        vals = sp.sample_gamma_disc(2.0, 0.0, sp.substream(42, 7), size=10**5)
        res = stats.kstest(np.mod(np.angle(vals), 2 * np.pi), stats.uniform(0, 2 * np.pi).cdf)
        assert res.pvalue > 0.01

    def test_mean_matches_closed_form(self):
        r, d = 3.0, 0.5
        cs = gl.cumulants(gl.CoefficientLaw(r, d))
        lg = np.log(1 - sp.sample_gamma_disc(r, d, sp.substream(42, 3), size=10**6))
        root = math.sqrt(lg.size)
        assert abs(lg.real.mean() - cs.mean.real) < 4 * lg.real.std() / root
        assert abs(lg.imag.mean() - cs.mean.imag) < 4 * lg.imag.std() / root

    def test_distributional_ten_random_laws(self):
        rng = np.random.default_rng(777)
        for i in range(10):
            r = rng.uniform(0.5, 12.0)
            d = complex(rng.uniform(0.0, 2.0), rng.uniform(-1.5, 1.5))
            cs = gl.cumulants(gl.CoefficientLaw(r, d))
            vals = sp.sample_gamma_disc(r, d, sp.substream(1000 + i, 0), size=10**6)
            lg = np.log(1 - vals)
            root = math.sqrt(lg.size)
            assert abs(lg.real.mean() - cs.mean.real) < 4 * lg.real.std() / root
            assert abs(lg.imag.mean() - cs.mean.imag) < 4 * lg.imag.std() / root
            cre = lg.real - lg.real.mean()
            cim = lg.imag - lg.imag.mean()
            assert abs((cre**2).mean() - cs.var_re) < 4 * (cre**2).std() / root
            assert abs((cim**2).mean() - cs.var_im) < 4 * (cim**2).std() / root
            assert abs((cre * cim).mean() - cs.cov_re_im) < 4 * (cre * cim).std() / root

    def test_negative_real_part_rejected(self):
        with pytest.raises(sf.DomainError):
            sp.sample_gamma_disc(1.0, -0.1, sp.substream(0, 0))
        with pytest.raises(sf.DomainError):
            sp.sample_gamma_disc(0.0, 0.5, sp.substream(0, 0))

    def test_scalar_draw(self):
        v = sp.sample_gamma_disc(2.0, 0.3, sp.substream(5, 5))
        assert isinstance(v, complex)
        assert abs(v) < 1.0

    def test_generator_required(self):
        # a seed is not a generator: substream(seed, i) makes one
        with pytest.raises(TypeError, match="numpy Generator"):
            sp.sample_gamma_disc(2.0, 0.3, 5)
        with pytest.raises(TypeError, match="numpy Generator"):
            sp.sample_gamma_circle(0.3, 5, size=4)


class TestCircleSampler:
    def test_support(self):
        vals = sp.sample_gamma_circle(0.5 + 0.3j, sp.substream(2, 0), size=5000)
        assert np.allclose(np.abs(vals), 1.0, atol=1e-14)
        assert np.all(vals != 1.0)

    def test_uniform_at_zero_deformation(self):
        vals = sp.sample_gamma_circle(0.0, sp.substream(42, 2), size=10**5)
        res = stats.kstest(np.mod(np.angle(vals), 2 * np.pi), stats.uniform(0, 2 * np.pi).cdf)
        assert res.pvalue > 0.01

    def test_second_moment_matches_transform(self):
        # E (1-gamma)(1-conj(gamma)) at delta = 1 equals the transform at (1, 1)
        law = gl.CoefficientLaw(0.0, 1.0)
        ref = gl.mellin_fourier(law, 1.0, 1.0).real
        sq = np.abs(1 - sp.sample_gamma_circle(1.0, sp.substream(42, 4), size=10**6)) ** 2
        assert abs(sq.mean() - ref) < 4 * sq.std() / math.sqrt(sq.size)


class TestEnsemble:
    def test_invariants(self):
        p = EnsembleParams(16, 2.0, delta=0.5 + 0.3j)
        s = sp.sample_ensemble(p, 7)
        assert s.gamma.shape == (16,)
        assert np.all(np.abs(s.gamma[:-1]) < 1.0)
        assert abs(abs(s.gamma[-1]) - 1.0) < 1e-12

    def test_determinism(self):
        p = EnsembleParams(32, 2.0, delta=0.25)
        a = sp.sample_ensemble(p, 123).gamma
        b = sp.sample_ensemble(p, 123).gamma
        assert np.array_equal(a, b)
        c = sp.sample_ensemble(p, 124).gamma
        assert not np.array_equal(a, c)

    def test_substream_contract(self):
        # sample i depends only on (seed, i): identical (seed, path)
        # generators collide exactly, and neighbouring paths differ
        g1 = sp.substream(55, 3).random(4)
        g2 = sp.substream(55, 3).random(4)
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, sp.substream(55, 4).random(4))

    def test_sample_ensemble_is_sample_zero(self):
        for kw in ({"delta": 0.0}, {"delta": 0.5}, {"delta": 0.5 + 0.3j}, {"scaled_d": 0.5}):
            p = EnsembleParams(16, 2.0, **kw)
            for seed in (0, 9, 0x2A):
                s = sp.sample_ensemble(p, seed)
                batch = sp.sample_ensemble_batch(p, seed, 3)
                assert s.gamma.tobytes() == batch[0].tobytes()
                direct = sp.ensemble_gammas(p, sp.substream(seed, 0))
                assert s.gamma.tobytes() == direct.tobytes()

    def test_batch_matches_batch(self):
        p = EnsembleParams(16, 2.0, delta=0.5)
        a = sp.sample_ensemble_batch(p, 9, 5)
        b = sp.sample_ensemble_batch(p, 9, 5)
        assert np.array_equal(a, b)
        assert a.shape == (5, 16)

    def test_independence_across_indices(self):
        # empirical correlation between Re log(1-gamma_i), Re log(1-gamma_j)
        p = EnsembleParams(8, 2.0, delta=0.5)
        g = sp.sample_ensemble_batch(p, 31415, 10**5)
        lg = np.log(1 - g).real
        corr = np.corrcoef(lg.T)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off)) < 0.01

    def test_requires_nonnegative_drift(self):
        p = EnsembleParams(8, 2.0, delta=-0.25)
        with pytest.raises(sf.DomainError):
            sp.sample_ensemble(p, 0)


class TestAcceptance:
    def test_theoretical_rate_positive_everywhere(self):
        # guard against silent stalls: acceptance stays above 1e-4 on |delta| <= 3
        rng = np.random.default_rng(8)
        for r in (0.5, 1.0, 5.0, 20.0):
            for _ in range(20):
                mag = rng.uniform(0, 3.0)
                phase = rng.uniform(0, math.pi)  # Re delta >= 0
                d = mag * complex(math.cos(phase / 2), math.sin(phase / 2) * rng.choice([-1, 1]))
                d = complex(abs(d.real), d.imag)
                rate = sp.disc_acceptance_rate(r, d)
                assert rate > 1e-4
        for d in (3.0, 3j, 2 + 2j):
            assert sp.disc_acceptance_rate(1.0, d) > 1e-4

    def test_empirical_matches_theoretical(self):
        # the complex-delta angle step: accepted draws per proposal
        for r, d in ((2.0, 0.5 + 0.5j), (0.0, 1.0 + 1.0j), (5.0, 0.3 - 0.2j), (0.0, 0.7j)):
            theory = sp.disc_acceptance_rate(r, d)
            m = np.array([r + d.real])
            _, proposals = sp._draw_angles(sp.substream(606, 0), m, d.imag, 200_000)
            assert 200_000 / proposals == pytest.approx(theory, rel=0.01)

    def test_real_delta_needs_no_rejection(self):
        for r, d in ((0.0, 0.0), (3.0, 0.0), (0.0, 2.0), (64.0, 32.0)):
            assert sp.disc_acceptance_rate(r, d) == 1.0

    def test_angle_normaliser_matches_quadrature(self):
        for m, b in ((0.0, 0.3), (0.25, -0.08), (0.5, 0.5), (5.3, 0.2), (40.0, -100.0), (4096.0, 2048.0)):
            ref = mpmath_log_angle_normaliser(m, b)
            assert sp._log_angle_normaliser(m, b) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_iteration_cap_is_finite(self):
        assert sp.ITERATION_CAP == 10**6

    def test_cap_raises_with_empirical_acceptance(self, monkeypatch):
        monkeypatch.setattr(sp, "ITERATION_CAP", 0)
        with pytest.raises(sp.SamplingError, match="empirical acceptance"):
            sp.sample_gamma_disc(2.0, 0.5 + 0.5j, sp.substream(1, 0), size=1000)


class TestOpenDisc:
    def test_draw_rounded_onto_circle_is_a_sampling_error(self):
        # beta = 0.2: rank weights down to 0.1 put mass within 1e-16 of
        # the circle; ensemble sample 65 of seed 0 rounds onto it
        params = EnsembleParams(64, 0.2, delta=0.3)
        with pytest.raises(sp.SamplingError, match=r"^1 disc coefficient\(s\) rounded"):
            for i in range(200):
                sp.ensemble_gammas(params, sp.substream(0, i))

    def test_passed_vector_on_circle_is_a_value_error(self):
        params = EnsembleParams(3, 2.0)
        with pytest.raises(ValueError, match="open disc"):
            sp.DeformedVerblunskySample(np.array([0.5, 1j, -1.0]), 0, params)


def _z_scores(lg: np.ndarray, cs) -> list:
    root = math.sqrt(lg.size)
    cre = lg.real - lg.real.mean()
    cim = lg.imag - lg.imag.mean()
    pairs = [
        (lg.real.mean(), cs.mean.real, lg.real.std()),
        (lg.imag.mean(), cs.mean.imag, lg.imag.std()),
        ((cre**2).mean(), cs.var_re, (cre**2).std()),
        ((cim**2).mean(), cs.var_im, (cim**2).std()),
        ((cre * cim).mean(), cs.cov_re_im, (cre * cim).std()),
    ]
    return [abs(a - b) / (sd / root) for a, b, sd in pairs]


class TestDriftRegime:
    """The scaled regime delta = beta/2 * d * n at n = 4096."""

    N = 4096
    BETAS = (1.0, 2.0, 4.0)
    DS = (0.5, 0.5 + 0.5j, 1.0)

    def test_acceptance_every_slot(self):
        for beta in self.BETAS:
            for d in self.DS:
                p = EnsembleParams(self.N, beta, scaled_d=d)
                delta = p.effective_delta
                worst = min(sp.disc_acceptance_rate(r, delta) for r in p.coefficient_ranks())
                assert worst >= 0.5, (beta, d, worst)

    def test_log_moments_match_cumulants(self):
        # one kernel call with per-slot ranks: draws of the three ranks
        # interleave, so the per-slot envelope and open-slot bookkeeping
        # are exercised
        draws = 100_000
        for i, beta in enumerate(self.BETAS):
            for j, d in enumerate(self.DS):
                delta = EnsembleParams(self.N, beta, scaled_d=d).effective_delta
                laws = np.array([beta / 2, 32 * beta, (self.N - 1) * beta / 2])
                ranks = np.tile(laws, draws)
                g = sp._draw(sp.substream(4242, i, j), ranks, delta, ranks.size)
                lg = np.log(1 - g).reshape(draws, laws.size)
                for k, r in enumerate(laws):
                    cs = gl.cumulants(gl.CoefficientLaw(r, delta))
                    z = max(_z_scores(lg[:, k], cs))
                    assert z < 4.0, (beta, d, r, z)

    def test_ensemble_sample_is_valid(self):
        p = EnsembleParams(64, 2.0, scaled_d=0.5 + 0.5j)
        s = sp.sample_ensemble(p, 3)
        assert np.all(np.abs(s.gamma[:-1]) < 1.0)


class TestSupport:
    def test_open_disc_at_small_rank(self):
        # r = 0.5: 1 - S = G2 / (G1 + G2) has its mass near 0, so draws
        # crowd the circle; they must stay strictly inside it
        for i, d in enumerate((0.0, 0.5, 0.5 + 0.5j)):
            g = sp.sample_gamma_disc(0.5, d, sp.substream(77, i), size=10**6)
            assert np.all(np.abs(g) < 1.0)
            assert np.all(g != 1.0)

    def test_circle_slot_is_unimodular(self):
        for i, d in enumerate((0.5, 0.5 + 0.5j, 2j)):
            g = sp.sample_gamma_circle(d, sp.substream(78, i), size=10**5)
            assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-15
