import hashlib
import math
import os
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats

from circjacobi import gammalaw as gl
from circjacobi import process
from circjacobi import sampler as sp
from circjacobi import specfun as sf
from circjacobi.asymptotics import EnsembleParams
from oracles import mpmath_acceptance_rate, mpmath_log_angle_normaliser


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
        # m + 1 = 16 is where the log-Gamma differences change from the
        # recurrence to Stirling's series
        for m, b in ((0.0, 0.3), (0.25, -0.08), (0.5, 0.5), (5.3, 0.2), (14.5, 0.5), (14.999, -30.0),
                     (15.0, 0.5), (15.5, -30.0), (40.0, -100.0), (4096.0, 2048.0)):
            ref = mpmath_log_angle_normaliser(m, b)
            assert sp._log_angle_normaliser(m, b) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("b", [0.5, 1e3])
    def test_rate_matches_the_oracle_at_every_rank_weight(self, b):
        # the normaliser's log-Gamma values grow like m log m, and their
        # differences must not; at some m from about 3e15 to 9e15 the
        # float envelope fails to bound its density, and the rate refuses
        refused = []
        for m in [1.0, 2.5, 14.999, 15.0, 15.5, 16.5, 1e15, 7e15, 1e16] + [10.0 ** (k / 4) for k in range(4, 1201, 7)]:
            oracle = mpmath_acceptance_rate(m, b, sp._angle_envelope(np.array([m]), b))
            try:
                rate = sp.disc_acceptance_rate(m, complex(0.0, b))
            except sf.DomainError:
                assert oracle > 1.0 + 1e-8, m
                refused.append(m)
                continue
            assert 0.0 < rate <= 1.0 and rate == pytest.approx(oracle, rel=1e-8, abs=0), m
        assert 7e15 in refused and all(2e15 < m < 1e16 for m in refused)

    def test_rate_is_a_probability_or_a_domain_error(self):
        for m in (0.0, 1e-300, 1e-3, 0.405, 1.0, 1e8, 1e15, 5e15, 7e15, 1e16, 1e100, 1e307):
            for b in (1e-300, -0.5, 3.0, 1e6, -1e6, 1.5e6, 1e100, -1e300):
                try:
                    rate = sp.disc_acceptance_rate(m, complex(0.0, b))
                except sf.DomainError as exc:
                    assert abs(b) > 1e6 or 1e15 < m < 1e16, (m, b, exc)
                else:
                    assert 0.0 < rate <= 1.0, (m, b, rate)

    def test_iteration_cap_is_finite(self):
        assert sp.ITERATION_CAP == 10**6

    def test_cap_raises_with_empirical_acceptance(self, monkeypatch):
        monkeypatch.setattr(sp, "ITERATION_CAP", 0)
        with pytest.raises(sp.SamplingError, match="empirical acceptance"):
            sp.sample_gamma_disc(2.0, 0.5 + 0.5j, sp.substream(1, 0), size=1000)


class TestLawDomain:
    @pytest.mark.parametrize("draw", [
        lambda rng: sp.sample_gamma_disc(math.nan, 0.5, rng),
        lambda rng: sp.sample_gamma_disc(2.0, math.nan, rng),
        lambda rng: sp.sample_gamma_disc(math.inf, 0.5, rng, size=3),
        lambda rng: sp.sample_gamma_circle(math.nan, rng),
        lambda rng: sp.sample_gamma_circle(complex(0.5, math.nan), rng, size=3),
    ], ids=["disc r nan", "disc delta nan", "disc r inf", "circle delta nan",
            "circle Im delta nan"])
    def test_non_finite_law_is_a_domain_error(self, draw, monkeypatch):
        # a NaN angle law must not run to the cap (about a minute per slot at
        # the real one): a low cap makes such a failure quick
        monkeypatch.setattr(sp, "ITERATION_CAP", 5)
        with pytest.raises(sf.DomainError, match="finite"):
            draw(sp.substream(1, 0))

    @pytest.mark.parametrize("r, delta", [(2.0, 1e308), (1e308, 0.5), (0.0, 1e308j)])
    def test_overflowing_gamma_shape_is_a_domain_error(self, r, delta, monkeypatch):
        monkeypatch.setattr(sp, "ITERATION_CAP", 5)
        draw = sp.sample_gamma_circle if r == 0 else partial(sp.sample_gamma_disc, r)
        with pytest.raises(sf.DomainError, match="Gamma shapes"):
            draw(delta, sp.substream(1, 0))

    @pytest.mark.parametrize("r, delta", [(math.nan, 0.5j), (1.0, complex(0.5, math.nan)),
                                          (1.0, complex(1e308, 1.0))])
    def test_acceptance_rate_needs_a_finite_law(self, r, delta):
        with pytest.raises(sf.DomainError, match="finite"):
            sp.disc_acceptance_rate(r, delta)

    def test_sampled_range_is_kept(self):
        with pytest.raises(sf.DomainError, match="Re delta >= 0"):
            sp.sample_gamma_circle(-0.3, sp.substream(1, 0))
        with pytest.raises(sf.DomainError, match="nonnegative"):
            sp.disc_acceptance_rate(-1.0, 0.5j)


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

    @pytest.mark.parametrize("gamma", [
        [0.5, 0.2j, complex(math.nan, 0.0)], [math.nan, 0.2j, -1.0],
        [0.5, complex(0.0, math.inf), -1.0], [0.5, 0.2j, complex(math.inf, 0.0)],
    ], ids=repr)
    def test_passed_non_finite_vector_is_a_value_error(self, gamma):
        params = EnsembleParams(3, 2.0)
        with pytest.raises(ValueError, match="disc|circle"):
            sp.DeformedVerblunskySample(np.array(gamma, dtype=complex), 0, params)


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


class TestBlockedKernel:
    """The kernel's arithmetic runs in blocks of ``_BLOCK`` entries, and the
    last variate of each writer is drawn block by block (on a helper
    thread's schedule once a draw has more than one block); no draw may
    depend on the block length."""

    ONE_BLOCK = 1 << 20
    # delta = 0, real delta, complex delta (the angle step)
    DELTAS = (0.0, 0.5, 0.3 + 0.2j, 2j)

    @staticmethod
    def _sizes(block):
        return (0, 1, block - 1, block, block + 1, 3 * block + 5)

    def _assert_block_free(self, monkeypatch, block, draw):
        monkeypatch.setattr(sp, "_BLOCK", block)
        blocked = draw()
        monkeypatch.setattr(sp, "_BLOCK", self.ONE_BLOCK)
        assert blocked.tobytes() == draw().tobytes()

    @pytest.mark.parametrize("block", [7, sp._BLOCK])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_shared_law(self, monkeypatch, block, delta):
        for i, size in enumerate(self._sizes(block)):
            for r in (3.0, 0.0):  # a disc law and the circle law
                def draw():
                    rng = sp.substream(31, i)
                    if r == 0:
                        return sp.sample_gamma_circle(delta, rng, size=size)
                    return sp.sample_gamma_disc(r, delta, rng, size=size)

                self._assert_block_free(monkeypatch, block, draw)

    @pytest.mark.parametrize("block", [7, sp._BLOCK])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_per_slot_ranks(self, monkeypatch, block, delta):
        # ranks from the circle slot up, so per-slot envelopes are taken
        # block by block in every rejection wave
        for i, size in enumerate(self._sizes(block)):
            ranks = np.linspace(0.0, 40.0, size)

            def draw():
                return sp._draw(sp.substream(32, i), ranks, delta, size)

            self._assert_block_free(monkeypatch, block, draw)

    @pytest.mark.parametrize("kw", [{"delta": 0.0}, {"delta": 0.5}, {"delta": 0.3 + 0.2j},
                                    {"scaled_d": 0.5 + 0.5j}])
    def test_ensembles(self, monkeypatch, kw):
        for block, n in ((7, 12), (7, 26), (sp._BLOCK, sp._BLOCK + 1)):
            params = EnsembleParams(n, 2.0, **kw)

            def draw():
                return sp.ensemble_gammas(params, sp.substream(33, n))

            self._assert_block_free(monkeypatch, block, draw)

    def test_bulk_draw_holds_no_full_length_temporaries(self):
        # a 1e6 real-delta disc draw: the output (16 MB) and at most three
        # float64 arrays of its length are live at once
        size = 10**6
        rng = sp.substream(34, 0)
        tracemalloc.start()
        try:
            g = sp.sample_gamma_disc(3.0, 0.5, rng, size=size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.nbytes == 16 * size
        assert peak <= g.nbytes + 3 * 8 * size


MULTI_BLOCK = 32 * sp._BLOCK  # about 10^6: the caller draws while the helper writes


def _multi_block_draw(delta, index=0):
    return sp.sample_gamma_disc(3.0, delta, sp.substream(35, index), size=MULTI_BLOCK)


def _multi_block_digest(index):
    return hashlib.sha256(_multi_block_draw(0.3 + 0.2j, index).tobytes()).hexdigest()


def _on_helper():
    return threading.current_thread() is not threading.main_thread()


def _pooled_draw(index):
    """(usable CPUs, threads started) of a multi-block draw, run in a pool worker."""
    started, start = [], threading.Thread.start
    threading.Thread.start = lambda thread: started.append(thread) or start(thread)
    try:
        _multi_block_draw(0.5, index)
    finally:
        threading.Thread.start = start
    return sp._usable_cpus(), len(started)


class TestHelperThread:
    """A draw of more than one block writes blocks on one helper thread,
    which is joined before the draw returns or raises."""

    DELTAS = (0.0, 0.5, 0.3 + 0.2j)

    @pytest.fixture
    def starts(self, monkeypatch):
        """The list gets every thread started."""
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    @staticmethod
    def _helper_first(writer):
        """``writer``, whose calls on the caller's thread wait until a
        helper has run it once, so that a helper block surely runs."""
        helper_ran = threading.Event()

        def patched(out, *args):
            if _on_helper():
                try:
                    writer(out, *args)
                finally:
                    helper_ran.set()
            else:
                assert helper_ran.wait(60)
                writer(out, *args)

        return patched

    @pytest.mark.parametrize("delta", DELTAS)
    def test_no_thread_outlives_a_draw(self, delta, starts):
        before = threading.active_count()
        _multi_block_draw(delta)
        assert len(starts) == 1 and threading.active_count() == before

    @pytest.mark.parametrize("delta", DELTAS)
    def test_one_cpu_starts_no_thread(self, delta, monkeypatch, starts):
        threaded = _multi_block_draw(delta).tobytes()
        assert len(starts) == 1
        monkeypatch.setattr(sp, "_usable_cpus", lambda: 1)
        del starts[:]
        assert _multi_block_draw(delta).tobytes() == threaded
        assert starts == []

    def test_one_block_starts_no_thread(self, starts):
        sp.sample_gamma_disc(3.0, 0.3 + 0.2j, sp.substream(35, 0), size=sp._BLOCK)
        assert starts == []

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        mix = sp._mix

        def writer(out, g1, g2):
            if _on_helper():
                raise ValueError("raised on the helper")
            mix(out, g1, g2)

        monkeypatch.setattr(sp, "_mix", self._helper_first(writer))
        before = threading.active_count()
        with pytest.raises(ValueError, match="raised on the helper"):
            _multi_block_draw(0.5)
        assert threading.active_count() == before

    def test_caller_writes_the_blocks_the_helper_has_not_started(self, monkeypatch):
        # the helper's first block waits until the caller has written a
        # block, which it can only do by cancelling a queued future
        mix, caller_wrote, threads = sp._mix, threading.Event(), []
        expected = _multi_block_draw(0.5).tobytes()

        def writer(out, g1, g2):
            threads.append(threading.current_thread())
            if _on_helper():
                assert len(threads) > 1 or caller_wrote.wait(10)
            else:
                caller_wrote.set()
            mix(out, g1, g2)

        monkeypatch.setattr(sp, "_mix", writer)
        assert _multi_block_draw(0.5).tobytes() == expected
        assert len(set(threads)) == 2 and len(threads) == MULTI_BLOCK // sp._BLOCK

    @pytest.mark.parametrize("on_helper", [False, True])
    def test_writers_keep_the_callers_errstate(self, monkeypatch, on_helper):
        # a writer that divides by zero on its thread raises under the
        # caller's divide="raise", inline and on the helper alike
        circle_from_t = sp._circle_from_t

        def writer(out, normal, g):
            if _on_helper() == on_helper:
                np.divide(1.0, np.zeros(1))
            circle_from_t(out, normal, g)

        size = MULTI_BLOCK if on_helper else sp._BLOCK
        monkeypatch.setattr(sp, "_circle_from_t", self._helper_first(writer) if on_helper else writer)
        before = threading.active_count()
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                sp.sample_gamma_disc(3.0, 0.5, sp.substream(35, 0), size=size)
        assert threading.active_count() == before

    def test_concurrent_draws_under_fast_switching(self, monkeypatch):
        # six callers at once, each with its own helper, and a thread
        # switch every microsecond: every block is written once, as serially
        monkeypatch.setattr(sp, "_BLOCK", 7)
        cases = [(delta, i) for delta in self.DELTAS for i in range(2)]

        def draw(delta, i):
            return sp.sample_gamma_disc(3.0, delta, sp.substream(36, i), size=500).tobytes()

        monkeypatch.setattr(sp, "_usable_cpus", lambda: 1)
        serial = [draw(*case) for case in cases]
        monkeypatch.setattr(sp, "_usable_cpus", lambda: 2)
        results = [None] * len(cases)

        def run(k):
            results[k] = draw(*cases[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_draw_in_a_forked_worker(self):
        digests = [_multi_block_digest(i) for i in range(2)]
        assert process._pool_map(_multi_block_digest, range(2), 2) == digests

    @pytest.mark.parametrize("cpus, helpers", [(2, 0), (3, 0), (4, 1)])
    def test_pool_workers_share_the_cpus(self, cpus, helpers, monkeypatch):
        # each of two workers may use half of the CPUs: on two or three it
        # draws inline, on four it starts a helper
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert sp._usable_cpus() == cpus
        assert process._pool_map(_pooled_draw, range(2), 2) == [(cpus // 2, helpers)] * 2


def _pinned_digests() -> dict:
    """sha256 of the bytes of each pinned draw, by case."""
    out = {}
    for r, delta in ((3.0, 0.5), (5.0, 0.3 + 0.2j), (3.0, 2j), (0.0, 1.0), (0.0, 0.5 + 0.5j)):
        h = hashlib.sha256()
        for i, size in enumerate((1, sp._BLOCK - 1, sp._BLOCK + 1, 2 * 10**5)):
            rng = sp.substream(2718, i)
            if r == 0:
                h.update(sp.sample_gamma_circle(delta, rng, size=size).tobytes())
            else:
                h.update(sp.sample_gamma_disc(r, delta, rng, size=size).tobytes())
        out[f"r={r}, delta={delta}"] = h.hexdigest()
    for kw in ({"delta": 0.0}, {"delta": 0.5}, {"delta": 0.3 + 0.2j}, {"scaled_d": 0.5 + 0.5j}):
        h = hashlib.sha256()
        for n in (12, 4096):
            h.update(sp.ensemble_gammas(EnsembleParams(n, 2.0, **kw), sp.substream(2718, n)).tobytes())
        out[f"ensemble {kw}"] = h.hexdigest()
    return out


# recorded once: they move only when a draw moves, which the randomness
# contract forbids
PINNED_DIGESTS = {
    "r=3.0, delta=0.5": "57fd6301e2716d9191778842cfa6ed79521e27761c01ccefbe6ec5e9059937fa",
    "r=5.0, delta=(0.3+0.2j)": "1d4ca217103a49ef38749bb19a39d46db097a4eb25f9a90921545996180f4e8d",
    "r=3.0, delta=2j": "e882dbfd6187d2ca9d9df8c461eac801ed9d652f216eea302c9a755ae8661266",
    "r=0.0, delta=1.0": "3a901fbb279d9050d91ee9f59630a1d795b9bcdcd707388808cd4326d32adb5a",
    "r=0.0, delta=(0.5+0.5j)": "40b812389dba3eeb102705a5bbe893a571b74733828eea881ce95958439e8c48",
    "ensemble {'delta': 0.0}": "a1638704856858be710f1d2988689e6ec8dbcda191d5ad6044b9ddcb922117c1",
    "ensemble {'delta': 0.5}": "b81eeb19501ee53314271228ca5abd53385a9e2c9832ac9873bd2bb681460ebc",
    "ensemble {'delta': (0.3+0.2j)}": "47d931d9283a31e323378025367e157d8446c4311c689ac104d3a30fcdcfe01c",
    "ensemble {'scaled_d': (0.5+0.5j)}": "6347cd111495791695263fa63ffe5127d2fa05c6c06f3e67144908aa29b3efb6",
}


def test_draws_are_pinned():
    # every variate, proposal and accept decision of the kernel: a change
    # to its arithmetic that moves one bit of one draw fails here
    assert _pinned_digests() == PINNED_DIGESTS
