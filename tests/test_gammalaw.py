import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from circjacobi import gammalaw as gl
from circjacobi import specfun as sf

from oracles import mpmath_log_gamma_sum


def polar_quad(f, tol=1e-11):
    """Integral of f(z) over the unit disc by polar double quadrature."""
    val, err = integrate.dblquad(
        lambda th, rho: rho * f(rho * np.exp(1j * th)),
        0.0, 1.0, 0.0, 2.0 * math.pi,
        epsabs=tol,
    )
    return val


class TestDiscWeightIntegral:
    def test_pure_radial(self):
        for r in (0.5, 1.0, 2.5, 7.0):
            assert gl.disc_weight_integral(r, 0.0, 0.0) == pytest.approx(
                math.pi / r, rel=1e-13
            )

    def test_one_one_one(self):
        ref = polar_quad(lambda z: abs(1 - z) ** 2)
        val = gl.disc_weight_integral(1.0, 1.0, 1.0)
        assert val == pytest.approx(1.5 * math.pi, rel=1e-13)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_conjugate_exponents_give_real(self):
        s = 0.7 + 0.4j
        val = gl.disc_weight_integral(2.0, s, s.conjugate())
        assert abs(val.imag) < 1e-13 * abs(val)
        assert val.real > 0

    def test_domain_errors_name_the_term(self):
        with pytest.raises(sf.DomainError, match="l"):
            gl.disc_weight_integral(-1.0, 0.0, 0.0)
        with pytest.raises(sf.DomainError, match="l\\+1\\+s"):
            gl.disc_weight_integral(0.5, -2.0, 0.0)


class TestNormalization:
    def test_zero_deformation_closed_form(self):
        for r in (0.5, 3.0, 11.0):
            assert gl.normalization_c(gl.CoefficientLaw(r, 0.0)) == pytest.approx(
                r / math.pi, rel=1e-13
            )

    def test_disc_mass_is_one(self):
        r, d = 3.0, 0.4
        c = gl.normalization_c(gl.CoefficientLaw(r, d))

        def dens(z):
            return c * (1 - abs(z) ** 2) ** (r - 1) * abs(1 - z) ** (2 * d)

        assert polar_quad(dens, tol=1e-10) == pytest.approx(1.0, abs=1e-8)

    def test_circle_mass_is_one(self):
        d = 0.7 + 0.3j
        c = gl.normalization_c(gl.CoefficientLaw(0.0, d))
        val, _ = integrate.quad(
            lambda th: c
            * (2 * math.sin(th / 2)) ** (2 * d.real)
            * math.exp(d.imag * (th - math.pi)),
            0.0, 2.0 * math.pi,
            epsabs=1e-12,
        )
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.uniform(0, 8)
            d = complex(rng.uniform(-0.4, 2), rng.uniform(-2, 2))
            if r + 2 * d.real + 1 <= 0.02:
                continue
            assert gl.normalization_c(gl.CoefficientLaw(r, d)) > 0

    def test_law_validation(self):
        with pytest.raises(sf.DomainError):
            gl.CoefficientLaw(-1.0, 0.0)
        with pytest.raises(sf.DomainError):
            gl.CoefficientLaw(0.0, -0.6)


class TestMellinFourier:
    def test_total_mass(self):
        law = gl.CoefficientLaw(2.0, 0.3 + 0.1j)
        assert gl.mellin_fourier(law, 0.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_deformation_second_moment(self):
        # E|1-z|^2 = (r+2)/(r+1); cross-checked by polar quadrature
        r = 4.0
        law = gl.CoefficientLaw(r, 0.0)
        val = gl.mellin_fourier(law, 1.0, 1.0)
        assert val == pytest.approx((r + 2) / (r + 1), rel=1e-13)
        c = gl.normalization_c(law)
        ref = polar_quad(
            lambda z: c * (1 - abs(z) ** 2) ** (r - 1) * abs(1 - z) ** 2
        )
        assert val.real == pytest.approx(ref, rel=1e-9)

    def test_circle_uniform_second_moment(self):
        # r = 0, delta = 0: E|1-e^{i theta}|^2 = 2 by direct integration
        law = gl.CoefficientLaw(0.0, 0.0)
        val = gl.mellin_fourier(law, 1.0, 1.0)
        ref, _ = integrate.quad(
            lambda th: abs(1 - np.exp(1j * th)) ** 2 / (2 * math.pi), 0, 2 * math.pi
        )
        assert val == pytest.approx(2.0, rel=1e-14)
        assert ref == pytest.approx(2.0, abs=1e-12)

    def test_circle_deformed_second_moment(self):
        # r = 0, delta = 1: quadrature of the weighted circle density
        law = gl.CoefficientLaw(0.0, 1.0)
        val = gl.mellin_fourier(law, 1.0, 1.0)
        c = gl.normalization_c(law)
        ref, _ = integrate.quad(
            lambda th: c
            * (2 * math.sin(th / 2)) ** 2
            * abs(1 - np.exp(1j * th)) ** 2,
            0.0, 2.0 * math.pi,
            epsabs=1e-12,
        )
        assert val.real == pytest.approx(ref, rel=1e-10)

    def test_precondition_reported(self):
        law = gl.CoefficientLaw(0.5, 0.0)
        with pytest.raises(sf.DomainError, match="conj"):
            gl.mellin_fourier(law, -3.0, 0.0)


class TestCgf:
    def test_zero_at_origin(self):
        law = gl.CoefficientLaw(3.0, 0.5 + 0.25j)
        assert gl.cgf_Lambda(law, 0.0, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_first_derivative_identity(self):
        # d Lambda/ds (0,0) = 2 Re E log(1-gamma), d/dt = 2 Im
        law = gl.CoefficientLaw(3.0, 0.5 + 0.25j)
        cs = gl.cumulants(law)
        h = 1e-6
        ds = (gl.cgf_Lambda(law, h, 0.0) - gl.cgf_Lambda(law, -h, 0.0)) / (2 * h)
        dt = (gl.cgf_Lambda(law, 0.0, h) - gl.cgf_Lambda(law, 0.0, -h)) / (2 * h)
        assert ds == pytest.approx(2 * cs.mean.real, abs=1e-8)
        assert dt == pytest.approx(2 * cs.mean.imag, abs=1e-8)

    def test_monte_carlo_small(self):
        from circjacobi import sampler as sp

        law = gl.CoefficientLaw(3.0, 0.5)
        s, t = 0.2, 0.1
        vals = sp.sample_gamma_disc(3.0, 0.5, sp.substream(99, 0), size=10**6)
        lg = np.log(1 - vals)
        w = np.exp(2 * s * lg.real + 2 * t * lg.imag)
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - math.exp(gl.cgf_Lambda(law, s, t))) < 4 * se

    def test_identity_with_mellin_fourier(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 100:
            r = rng.uniform(0, 10)
            d = complex(rng.uniform(-0.2, 2), rng.uniform(-1, 1))
            if r + 2 * d.real + 1 <= 0.05:
                continue
            law = gl.CoefficientLaw(r, d)
            s, t = rng.uniform(-0.3, 1), rng.uniform(-1, 1)
            try:
                lam = gl.cgf_Lambda(law, s, t)
                mf = gl.mellin_fourier(law, s - 1j * t, s + 1j * t)
            except sf.DomainError:
                continue
            assert abs(math.exp(lam) - mf) <= 1e-12 * abs(mf)
            checked += 1


class TestCumulants:
    def test_zero_deformation(self):
        cs = gl.cumulants(gl.CoefficientLaw(2.0, 0.0))
        assert cs.mean == 0.0
        half_trigamma = 0.5 * sf.polygamma(1, 3.0).real
        assert cs.var_re == pytest.approx(half_trigamma, rel=1e-13)
        assert cs.var_im == pytest.approx(half_trigamma, rel=1e-13)
        assert cs.cov_re_im == 0.0

    def test_circle_law_rank_zero(self):
        # uniform circle law: Var Re = Var Im = pi^2/12
        cs = gl.cumulants(gl.CoefficientLaw(0.0, 0.0))
        assert cs.var_re == pytest.approx(math.pi**2 / 12.0, rel=1e-12)
        assert cs.var_im == pytest.approx(math.pi**2 / 12.0, rel=1e-12)

    def test_second_derivative_lattice(self):
        law = gl.CoefficientLaw(3.0, 0.5 + 0.25j)
        cs = gl.cumulants(law)
        h = 1e-4
        lam = lambda s, t: gl.cgf_Lambda(law, s, t)
        dss = (lam(h, 0) - 2 * lam(0, 0) + lam(-h, 0)) / h**2
        dtt = (lam(0, h) - 2 * lam(0, 0) + lam(0, -h)) / h**2
        dst = (lam(h, h) - lam(h, -h) - lam(-h, h) + lam(-h, -h)) / (4 * h * h)
        assert dss / 4 == pytest.approx(cs.var_re, abs=1e-6)
        assert dtt / 4 == pytest.approx(cs.var_im, abs=1e-6)
        assert dst / 4 == pytest.approx(cs.cov_re_im, abs=1e-6)

    def test_conjugation_flips(self):
        law = gl.CoefficientLaw(4.0, 0.6 + 0.3j)
        conj = gl.CoefficientLaw(4.0, 0.6 - 0.3j)
        a, b = gl.cumulants(law), gl.cumulants(conj)
        assert b.mean == pytest.approx(a.mean.conjugate(), rel=1e-13)
        assert b.cov_re_im == pytest.approx(-a.cov_re_im, rel=1e-12)
        assert b.var_re == pytest.approx(a.var_re, rel=1e-13)
        assert b.var_im == pytest.approx(a.var_im, rel=1e-13)

    @settings(max_examples=125, deadline=None)
    @given(
        st.floats(0.0, 30.0),
        st.floats(-0.45, 3.0),
        st.floats(-3.0, 3.0),
    )
    def test_covariance_psd_property(self, r, dre, dim):
        if r + 2 * dre + 1 <= 0.02:
            return
        cs = gl.cumulants(gl.CoefficientLaw(r, complex(dre, dim)))
        eigs = np.linalg.eigvalsh(cs.covariance)
        assert eigs.min() >= -1e-14

    def test_covariance_psd_500_random(self):
        rng = np.random.default_rng(12)
        count = 0
        while count < 500:
            r = rng.uniform(0, 40)
            d = complex(rng.uniform(-0.45, 3), rng.uniform(-3, 3))
            if r + 2 * d.real + 1 <= 0.02:
                continue
            cs = gl.cumulants(gl.CoefficientLaw(r, d))
            assert np.linalg.eigvalsh(cs.covariance).min() >= -1e-14
            count += 1

    def test_fourth_bound_decay(self):
        d = 0.3 + 0.2j
        scaled = [
            gl.cumulants(gl.CoefficientLaw(r, d)).fourth_bound * r * r
            for r in (10.0, 20.0, 40.0, 80.0)
        ]
        assert max(scaled) / min(scaled) < 4.0

    def test_monte_carlo_mean_and_cov(self):
        from circjacobi import sampler as sp

        r, d = 5.0, 0.3 + 0.2j
        cs = gl.cumulants(gl.CoefficientLaw(r, d))
        vals = sp.sample_gamma_disc(r, d, sp.substream(4242, 0), size=10**6)
        lg = np.log(1 - vals)
        root = math.sqrt(len(lg))
        assert abs(lg.real.mean() - cs.mean.real) < 4 * lg.real.std() / root
        assert abs(lg.imag.mean() - cs.mean.imag) < 4 * lg.imag.std() / root
        cre, cim = lg.real - lg.real.mean(), lg.imag - lg.imag.mean()
        assert abs((cre**2).mean() - cs.var_re) < 4 * (cre**2).std() / root
        assert abs((cre * cim).mean() - cs.cov_re_im) < 4 * (cre * cim).std() / root


class TestCumulantsOverRanks:
    # r = 0 (the circle law), small ranks, ranks whose arguments sit around
    # the shift threshold of polygamma, and large ranks
    RANKS = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 13.9, 14.4, 15.0, 40.0, 1e3, 1e4, 1e8])

    @staticmethod
    def same_bits(a, b) -> bool:
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize(
        "delta", [0.3 + 0.2j, 0.5, 0.0, -0.4 + 1.0j, 2.5 - 3.0j, -0.45, 1e-9j]
    )
    def test_rank_array_equals_per_law_calls(self, delta):
        many = gl.cumulants(gl.CoefficientLaw(self.RANKS, delta))
        size = self.RANKS.size
        assert many.mean.shape == (size,) and many.fourth_bound.shape == (size,)
        assert many.covariance.shape == (size, 2, 2)
        assert many.var_re.shape == many.var_im.shape == many.cov_re_im.shape == (size,)
        # a Python float rank, and a numpy one as an entry of a rank array
        for i, r in enumerate(self.RANKS.tolist()):
            for rank in (r, self.RANKS[i]):
                one = gl.cumulants(gl.CoefficientLaw(rank, delta))
                assert type(one.mean) is complex and type(one.fourth_bound) is float
                assert one.covariance.shape == (2, 2) and type(one.var_re) is float
                assert self.same_bits(one.mean, many.mean[i]), r
                assert self.same_bits(one.covariance, many.covariance[i]), r
                assert self.same_bits(one.fourth_bound, many.fourth_bound[i]), r

    # valid at every delta above, down to r = 0 and Re delta = -0.45
    LAW_CALLS = [
        (gl.normalization_c, (), float),
        (gl.mellin_fourier, (0.4 + 0.1j, 0.2 - 0.3j), complex),
        (gl.cgf_Lambda, (0.3, -0.2), float),
    ]

    @pytest.mark.parametrize(
        "delta", [0.3 + 0.2j, 0.5, 0.0, -0.4 + 1.0j, 2.5 - 3.0j, -0.45, 1e-9j]
    )
    def test_law_functions_over_ranks_equal_per_law_calls(self, delta):
        for fn, args, kind in self.LAW_CALLS:
            many = fn(gl.CoefficientLaw(self.RANKS, delta), *args)
            assert many.shape == self.RANKS.shape, fn.__name__
            for i, r in enumerate(self.RANKS.tolist()):
                for rank in (r, self.RANKS[i]):
                    one = fn(gl.CoefficientLaw(rank, delta), *args)
                    assert type(one) is kind, fn.__name__
                    assert self.same_bits(one, many[i]), (fn.__name__, r)
        # the disc law's mass, and parameters off the real axis
        ls = np.concatenate([self.RANKS[1:], self.RANKS[1:] - 3j])
        many = gl.disc_weight_integral(ls, delta.conjugate(), delta)
        for i, l in enumerate(ls.tolist()):
            one = gl.disc_weight_integral(l, delta.conjugate(), delta)
            assert type(one) is complex and self.same_bits(one, many[i]), l

    @pytest.mark.parametrize(
        "call, lowest",
        [
            (lambda r: gl.mellin_fourier(gl.CoefficientLaw(r, 0.0), -3.0, 0.0), 0.5),
            (lambda r: gl.mellin_fourier(gl.CoefficientLaw(r, 0.3j), 0.5, -2.5 + 1j), 0.5),
            (lambda r: gl.cgf_Lambda(gl.CoefficientLaw(r, 0.3 - 0.2j), -2.0, 0.5), 0.2),
            (lambda r: gl.disc_weight_integral(r, -2.0, 0.0), 0.5),
            (lambda l: gl.disc_weight_integral(l + 1j, 0.0, -1.8), 0.5),
        ],
        ids=["mellin-a", "mellin-b", "cgf", "disc", "disc-complex"],
    )
    def test_rank_array_raises_what_its_lowest_rank_raises(self, call, lowest):
        with pytest.raises(sf.DomainError) as one:
            call(lowest)
        with pytest.raises(sf.DomainError) as many:
            call(np.array([3.0, 40.0, lowest, 1.0]))
        assert str(many.value) == str(one.value)
        assert "Gamma argument" in str(one.value)

    @pytest.mark.parametrize(
        "ranks, delta, bad",
        [([3.0, -2.0, 1.0, -0.5], 0.3, -2.0), ([3.0, 0.1, 1.0], -0.6 + 0.2j, 0.1)],
        ids=["negative-rank", "constraint"],
    )
    def test_bad_rank_raises_its_own_error(self, ranks, delta, bad):
        with pytest.raises(sf.DomainError) as one:
            gl.CoefficientLaw(bad, delta)
        with pytest.raises(sf.DomainError) as many:
            gl.CoefficientLaw(np.array(ranks), delta)
        assert str(many.value) == str(one.value)
        assert str(bad) in str(many.value)

    @pytest.mark.parametrize("form", [int, float, np.float64, np.array])
    def test_scalar_rank_forms_are_one_law(self, form):
        with pytest.raises(sf.DomainError, match="rank weight must be nonnegative, got -2"):
            gl.CoefficientLaw(form(-2), 0.3)
        assert gl.normalization_c(gl.CoefficientLaw(form(2), 0.3)) == gl.normalization_c(
            gl.CoefficientLaw(2.0, 0.3)
        )

    @pytest.mark.parametrize(
        "r, delta",
        [(math.nan, 0.5), (math.inf, 0.5), (np.float64(math.inf), 0.5), (np.array(math.nan), 0.5),
         (2.0, math.nan), (2.0, complex(0.5, math.inf)), (np.array([1.0, math.inf, 2.0]), 0.5),
         (np.array([1.0, math.nan]), 0.5), (np.array([1.0, 2.0]), complex(math.nan, 0.0))],
    )
    def test_non_finite_law_is_rejected(self, r, delta):
        # not accepted, to fail later in ``cumulants`` with a digamma OverflowError
        with pytest.raises(sf.DomainError, match="need finite rank weights and delta"):
            gl.CoefficientLaw(r, delta)

    def test_empty_rank_array_is_a_law(self):
        assert gl.cumulants(gl.CoefficientLaw(np.array([]), 0.5)).mean.size == 0

    def test_ranks_must_be_one_axis(self):
        with pytest.raises(sf.DomainError, match="1-D"):
            gl.CoefficientLaw(np.ones((2, 2)), 0.3)

    def test_law_functions_take_a_rank_array(self):
        law = gl.CoefficientLaw(np.array([1.0, 2.0]), 0.3)
        assert gl.normalization_c(law).shape == (2,)
        assert gl.mellin_fourier(law, 0.1, 0.1).shape == (2,)
        assert gl.cgf_Lambda(law, 0.1, 0.1).shape == (2,)

    @pytest.mark.parametrize(
        "r", [True, False, np.True_, np.array(True), np.array([True, False]), [False, True]]
    )
    def test_bool_rank_is_rejected(self, r):
        # a bool is an int subclass, but True is no rank weight
        with pytest.raises(sf.DomainError, match="not bools"):
            gl.CoefficientLaw(r, 0.5)

    def test_sampler_rejects_a_bool_rank(self):
        from circjacobi import sampler as sp

        with pytest.raises(sf.DomainError, match="not bools"):
            sp.sample_gamma_disc(True, 0.5, sp.substream(1, 0))


# Every law function against mpmath's log Gamma at 50 digits, each Gamma
# quotient written out factor by factor from its closed form.
SWEEP_RANKS = np.array([0.0, 1.0, 10.0, 1e3, 1e4, 1e6, 1e8])
SWEEP_DELTAS = [0.5, 0.3 + 0.2j, -0.4, 0.0]


def _mellin_terms(r, d, a, b):
    """log E (1-gamma)^a (1-conj(gamma))^b as (coefficient, parts) terms:
    G(r+1+d+db+a+b) G(r+1+db) G(r+1+d) / (G(r+1+d+db) G(r+1+db+a) G(r+1+d+b))
    with db = conj(d)."""
    plus, minus, sym = (r, 1.0, d), (r, 1.0, d.conjugate()), (r, 1.0, d, d.conjugate())
    return [(1, sym + (a, b)), (1, minus), (1, plus), (-1, sym), (-1, minus + (a,)), (-1, plus + (b,))]


@pytest.mark.parametrize("delta", SWEEP_DELTAS, ids=str)
class TestAgainstMpmath:
    def test_normalization_c(self, delta):
        got = gl.normalization_c(gl.CoefficientLaw(SWEEP_RANKS, delta))
        d = complex(delta)
        for r, value in zip(SWEEP_RANKS.tolist(), got):
            # G(r+1+d) G(r+1+conj d) / (pi G(r) G(r+1+2 Re d)), 2 pi G(1) at r = 0
            low, scale = ((r,), math.pi) if r > 0 else ((1.0,), 2.0 * math.pi)
            terms = [(1, (r, 1.0, d)), (1, (r, 1.0, d.conjugate())), (-1, low), (-1, (r, 1.0, d, d.conjugate()))]
            ref = mpmath_log_gamma_sum(terms, exp=True).real / scale
            assert abs(value - ref) <= 1e-13 * ref, r

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.4 - 0.2j, 0.4 + 0.2j), (-0.05 + 0.3j, 0.2)])
    def test_mellin_fourier(self, delta, a, b):
        got = gl.mellin_fourier(gl.CoefficientLaw(SWEEP_RANKS, delta), a, b)
        for r, value in zip(SWEEP_RANKS.tolist(), got):
            ref = mpmath_log_gamma_sum(_mellin_terms(r, complex(delta), a, b), exp=True)
            assert abs(value - ref) <= 1e-13 * abs(ref), r

    @pytest.mark.parametrize("s, t", [(0.3, 0.2), (-0.05, -0.5), (1.0, 1.0)])
    def test_cgf_Lambda(self, delta, s, t):
        # the log of the Mellin-Fourier moment at a = s - it, b = s + it
        got = gl.cgf_Lambda(gl.CoefficientLaw(SWEEP_RANKS, delta), s, t)
        a, b = complex(s, -t), complex(s, t)
        for r, value in zip(SWEEP_RANKS.tolist(), got):
            ref = mpmath_log_gamma_sum(_mellin_terms(r, complex(delta), a, b)).real
            assert abs(value - ref) <= 5e-14, (r, value - ref)


@pytest.mark.parametrize("s, t", [(0.0, 0.0), (1.0, 1.0), (0.7 + 0.4j, 0.7 - 0.4j), (-0.3, 0.5j)])
def test_disc_weight_integral_against_mpmath(s, t):
    ls = np.array([0.5, 1.0, 10.0, 1e3, 1e4, 1e6, 1e8, 2.0 + 5.0j])
    got = gl.disc_weight_integral(ls, s, t)
    for l, value in zip(ls.tolist(), got):
        terms = [(1, (l,)), (1, (l, 1.0, s, t)), (-1, (l, 1.0, s)), (-1, (l, 1.0, t))]
        ref = math.pi * mpmath_log_gamma_sum(terms, exp=True)
        assert abs(value - ref) <= 1e-13 * abs(ref), l
