import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circjacobi import specfun as sf

from oracles import (
    EULER_GAMMA,
    mpmath_polygamma,
    quadrature_log_gamma,
    series_digamma,
    series_trigamma_one,
    shifted_quadrature_log_gamma,
)

# Frozen oracle outputs (quadrature of the integral representation and
# tail-corrected series; see oracles.py).
LGAMMA_HALF = 0.572364942924624
LGAMMA_3_4I = -1.7566267846037913 + 4.742664438034658j
DIGAMMA_1_I = 0.09465032062247702 + 1.0766740474685812j


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestLogGamma:
    def test_at_one(self):
        assert sf.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half_frozen(self):
        assert abs(sf.log_gamma(0.5) - LGAMMA_HALF) < 1e-12

    def test_at_3_plus_4i_frozen(self):
        assert abs(sf.log_gamma(3 + 4j) - LGAMMA_3_4I) < 1e-12

    def test_against_quadrature_oracle(self):
        for z in (0.5, 2.0, 3 + 4j, 7.3 - 2.1j, 40.0, 0.25 + 5j):
            ref = quadrature_log_gamma(z)
            assert abs(sf.log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_shifted_oracle_near_axis(self):
        for z in (-3.5 + 0.4j, -0.2 - 2.0j, 0.01 + 0.01j):
            ref = shifted_quadrature_log_gamma(z)
            assert abs(sf.log_gamma(z) - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_large_modulus_accuracy(self):
        for z in (1e6, 1e8, 1e8 * (0.6 + 0.8j)):
            z = complex(z)
            if z.real <= 0:
                continue
            ref = quadrature_log_gamma(z)
            assert abs(sf.log_gamma(z) - ref) <= 1e-13 * abs(ref)

    def test_cut_rejected(self):
        for z in (0.0, -1.0, -2.5, complex(-3.0, 0.0)):
            with pytest.raises(sf.DomainError):
                sf.log_gamma(z)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            sf.log_gamma(1e307)

    @pytest.mark.parametrize("call", [
        lambda: sf.log_gamma(1e307),
        lambda: sf.digamma(math.inf),
        lambda: sf.digamma(np.array([math.inf])),
        lambda: sf.polygamma(1, np.array([1.0 + 1e300j])),
    ], ids=["log_gamma", "digamma scalar", "digamma array", "polygamma"])
    def test_overflow_is_a_domain_error(self, call):
        # callers that catch OverflowError still do, and the CLI's
        # DomainError exit covers it
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(sf.DomainError) as info:
            call()
        assert isinstance(info.value, OverflowError)

    def test_vectorized(self):
        z = np.array([1.0, 0.5, 3 + 4j])
        out = sf.log_gamma(z)
        assert out.shape == (3,)
        assert abs(out[1] - LGAMMA_HALF) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 60.0),
        st.floats(-30.0, 30.0),
    )
    def test_recurrence_property(self, x, y):
        z = complex(x, y)
        lhs = sf.log_gamma(z + 1)
        rhs = sf.log_gamma(z) + np.log(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestLogGammaRatio:
    # (a, b): shifts against b = 0, as the sampler's normaliser takes them;
    # delta = -0.499's mean shifts 1 + 2 Re delta and 1 + conj(delta);
    # delta = 0.5 and 0.3 + 0.2i; the drift shifts at n = 1e8, d = 1 and
    # 0.5 + 0.5i, where the difference itself is of size x log x
    SHIFTS = [
        (-0.5, 0.0), (2.0, 0.0), (0.5j, 0.0), (-1e3j, 0.0), (0.3 + 0.2j, 0.0), (-0.499, 0.0),
        (0.002, 0.501), (2.0, 1.5), (1.6, 1.3 - 0.2j),
        (1.0 + 2e8, 1.0 + 1e8), (1.0 + 1e8, 1.0 + 0.5e8 - 0.5e8j),
    ]
    XS = np.array([0.0, 0.5, 1.0, 1.5, 7.25, 15.5, 15.9, 16.0, 100.0, 1e4, 1e6, 1e8, 1e16, 1e300])

    @pytest.mark.parametrize("a, b", SHIFTS)
    def test_against_mpmath(self, a, b):
        # log Gamma(x + a) - log Gamma(x + b) keeps its own accuracy where
        # each log Gamma is of size x log x
        import mpmath as mp

        xs = self.XS[self.XS + min(a.real, b.real) > 0.0]
        got = sf.log_gamma_ratio(xs, a, b)
        assert got.shape == xs.shape
        for x, value in zip(xs.tolist(), got):
            with mp.workdps(40 + 2 * int(math.log10(max(x, 1.0)))):
                ref = complex(mp.loggamma(mp.mpf(x) + mp.mpc(a)) - mp.loggamma(mp.mpf(x) + mp.mpc(b)))
            assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), x

    def test_an_entry_does_not_depend_on_its_array(self):
        # one grid of shifts and one series for every entry: the array's
        # entries are its one-entry calls, whichever shifts broadcast in
        a = np.array([[0.002], [1.6], [1.0 + 2e8]])
        b = np.array([[0.501], [1.3 - 0.2j], [1.0 + 1e8]])
        table = sf.log_gamma_ratio(self.XS, a, b)
        assert table.shape == (3, self.XS.size)
        for i in range(3):
            for j, x in enumerate(self.XS.tolist()):
                one = sf.log_gamma_ratio(x, complex(a[i, 0]), complex(b[i, 0]))
                assert type(one) is complex and same_bits([one], [table[i, j]])

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.log_gamma_ratio(0.0, -0.499)
        with pytest.raises(sf.DomainError):
            sf.log_gamma_ratio(np.array([1.0, 2.0]), 0.5, -1.5)


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert sf.digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_at_two_recurrence(self):
        assert sf.digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)

    def test_at_one_plus_i_frozen(self):
        assert abs(sf.digamma(1 + 1j) - DIGAMMA_1_I) < 1e-12

    def test_series_oracle(self):
        for w in (0.3, 2.5 - 0.7j, 5 + 5j, -0.4 + 0.2j):
            ref = series_digamma(w)
            assert abs(sf.digamma(w) - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_poles_rejected(self):
        for w in (0.0, -1.0, -7.0):
            with pytest.raises(sf.PoleError):
                sf.digamma(w)

    def test_recurrence_thousand_random(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.1, 100.0, 1000) + 1j * rng.uniform(-50.0, 50.0, 1000)
        lhs = sf.digamma(z + 1.0)
        rhs = sf.digamma(z) + 1.0 / z
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
        assert float(rel.max()) < 1e-12

    def test_positive_axis_against_mpmath(self):
        # real-axis entries take the same operations inside complex arrays
        xs = np.concatenate([np.geomspace(1e-3, 1e8, 60), [0.7, 2.0, 1.2, 1.7]])
        for x in xs.tolist():
            ref = mpmath_polygamma(0, x)
            assert abs(sf.digamma(x) - ref) <= 1e-15 * abs(ref), x
        mixed = sf.digamma(np.array([0.7, 0.7 + 1e-3j, 2.0]))
        assert mixed[0].imag == 0.0 and mixed[0] == sf.digamma(0.7)
        assert abs(mixed[2] - mpmath_polygamma(0, 2.0)) <= 1e-15 * abs(mixed[2])

    def test_real_array_equals_complex_call(self):
        # a float array on [1/2, inf) takes the engine's real route; the
        # complex route gives its entries on the axis the same bits
        x = np.concatenate([np.geomspace(1e-3, 1e8, 40), [0.7, 2.0, 16.0]])
        real = sf.digamma(x)
        assert real.dtype == np.complex128 and real.shape == x.shape
        assert same_bits(real, sf.digamma(x.astype(np.complex128)))
        assert same_bits(real, sf.digamma(np.append(x, 1 + 1j))[:-1])
        assert sf.digamma(2.0) == real[-2] and type(sf.digamma(2.0)) is complex
        # off the positive axis a float array is a complex one
        left = np.array([-0.5, -3.7, 2.0])
        assert same_bits(sf.digamma(left), sf.digamma(left.astype(np.complex128)))
        with pytest.raises(sf.PoleError):
            sf.digamma(np.array([2.0, -1.0]))

    SCALARS = [
        2.5, 0.7, 1e-3, 1e8, 16.0, -0.5, -3.7, -1e8 + 0.5,
        2.5 + 1.0j, -0.4 + 0.2j, -7.3 - 2.0j, 1e8 + 1e8j, -1e8 + 3.0j, 3.0 - 1e8j,
        complex(2.0, 0.0), complex(2.0, -0.0), complex(-0.5, 0.0), complex(-0.5, -0.0),
    ]

    @staticmethod
    def scalar_forms(z):
        forms = [z, np.complex128(z), np.array(z)]
        if isinstance(z, float):
            forms += [np.float64(z), np.array(z, dtype=np.float64)]
        return forms

    @pytest.mark.parametrize("z", SCALARS, ids=repr)
    def test_scalar_equals_one_entry_array_bitwise(self, z):
        # a scalar is a one-entry array
        ref = sf.digamma(np.array([z]))[0]
        for form in self.scalar_forms(z):
            got = sf.digamma(form)
            assert type(got) is complex, type(form)
            assert np.array([got]).view(np.uint64).tolist() == np.array([ref]).view(np.uint64).tolist()

    @pytest.mark.parametrize("z", [0.0, -3.0, 0j, -3 + 0j, complex(-3.0, -0.0)], ids=repr)
    def test_scalar_pole_raises_as_the_array_call(self, z):
        with pytest.raises(sf.PoleError) as many:
            sf.digamma(np.array([z]))
        for form in self.scalar_forms(z):
            with pytest.raises(sf.PoleError) as one:
                sf.digamma(form)
            assert str(one.value) == str(many.value)

    def test_scalar_overflow_raises_as_the_array_call(self):
        for z in (math.inf, complex(math.nan, 0.0), complex(1.0, math.nan)):
            with pytest.raises(OverflowError) as many:
                sf.digamma(np.array([z]))
            with pytest.raises(OverflowError) as one:
                sf.digamma(z)
            assert str(one.value) == str(many.value)

    def test_monotone_bounds(self):
        # 0 < x (log x - Psi(x)) <= 1 and 0 < log x - Psi(x) - 1/(2x) <= 1/(12 x^2)
        for x in np.geomspace(0.05, 500.0, 60):
            gap = math.log(x) - sf.digamma(x).real
            assert 0.0 < x * gap <= 1.0
            assert 0.0 < gap - 1.0 / (2 * x) <= 1.0 / (12.0 * x * x) + 1e-16


class TestDigammaOracleSweep:
    """digamma is order 0 of the polygamma engine: the real route below
    Re 16 (the shift, and the Taylor series about the positive root x0
    within three recurrence steps), the series beyond, and in the complex
    plane the reflection, the shift and the series, against mpmath."""

    X0 = 1.4616321449683622

    @staticmethod
    def check(z, rel):
        import mpmath

        got = sf.digamma(z)
        with mpmath.workdps(40):
            for point, value in zip(np.ravel(z).tolist(), np.ravel(got).tolist()):
                ref = complex(mpmath.digamma(mpmath.mpmathify(point)))
                assert abs(value - ref) <= rel * abs(ref), point

    def test_dense_real_grid_below_the_series(self):
        # the window's edges x0 - 3/2 + k, k = 1..5, and the shift threshold
        # 16 included; a float array on [1/2, 16) takes the real route whole
        rng = np.random.default_rng(23)
        x = np.concatenate([
            np.linspace(1e-3, 16.0, 1601),
            self.X0 + np.linspace(-0.3, 0.3, 241),
            (self.X0 + np.arange(-0.5, 4.0) + np.linspace(-1e-3, 1e-3, 21)[:, None]).ravel(),
            [self.X0, np.nextafter(self.X0, 0.0), np.nextafter(self.X0, 2.0), np.nextafter(16.0, 0.0)],
            rng.uniform(0.5, 16.0, 400),
        ])
        self.check(x, 1e-15)
        self.check(x[x >= 0.5], 1e-15)

    def test_real_axis_up_to_1e300(self):
        x = np.geomspace(16.0, 1e300, 300)
        with np.errstate(over="raise"):
            self.check(x, 1e-15)
        with np.errstate(over="ignore"):  # the complex route squares 1e300
            self.check(np.array([1e300, 0.25]), 1e-15)

    def test_complex_strips(self):
        rng = np.random.default_rng(29)
        im = np.concatenate([rng.uniform(-1e3, 1e3, 150), rng.uniform(-3.0, 3.0, 150),
                             [1e-12, -1e-9, 0.05, -0.0999, 0.1001, 1e3, -1e3]])
        re = np.concatenate([rng.uniform(0.5, 40.0, 300), self.X0 + np.zeros(7)])
        self.check(re + 1j * im, 1e-13)
        # around the root, inside and just outside the Taylor band
        near = self.X0 + rng.uniform(-1.0, 1.6, 200) + 1j * rng.uniform(-0.2, 0.2, 200)
        self.check(near, 1e-13)

    def test_left_half_plane_and_far_left(self):
        rng = np.random.default_rng(31)
        self.check(rng.uniform(-60.0, 0.5, 200) + 1j * rng.uniform(-30.0, 30.0, 200), 1e-13)
        far = -np.geomspace(10.0, 1e8, 60) + 0.5
        self.check(far + 1j * rng.uniform(-5.0, 5.0, 60), 1e-13)
        self.check(far, 1e-13)

    def test_just_off_the_negative_axis(self):
        # half-integers, where the cotangent term vanishes, and other
        # points of the reflected strip, at distances 1e-12 to 1e-1
        re = -np.concatenate([np.arange(0, 40) + 0.5, np.arange(0, 40) + 0.25, [0.9, 3.1, 17.75]])
        for im in (1e-12, -1e-9, 1e-6, -1e-3, 0.1):
            self.check(re + 1j * im, 1e-13)


class TestPolygamma:
    def test_trigamma_at_one(self):
        ref = series_trigamma_one()
        assert sf.polygamma(1, 1.0) == pytest.approx(ref, abs=1e-12)
        assert sf.polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_leading_term_bound_at_ten(self):
        # |Psi'(10) - 1/10| <= 1!/10^2
        assert abs(sf.polygamma(1, 10.0) - 0.1) <= 1e-2

    def test_positivity_on_reals(self):
        for x in np.geomspace(0.1, 100.0, 30):
            assert sf.polygamma(1, float(x)).real > 0.0

    def test_residual_bound_all_orders(self):
        # |Psi^(q)(x) - (-1)^(q-1) (q-1)! x^-q| <= q! (Re x)^(-q-1)
        for q in (1, 2, 3):
            lead_sign = 1.0 if q % 2 == 1 else -1.0
            for x in (0.7, 2.0, 9.5, 3 + 2j, 0.5 - 4j):
                x = complex(x)
                if x.real <= 0:
                    continue
                lead = lead_sign * math.factorial(q - 1) * x ** (-q)
                bound = math.factorial(q) * x.real ** (-q - 1)
                assert abs(sf.polygamma(q, x) - lead) <= bound * (1 + 1e-12)

    def test_unsupported_order(self):
        with pytest.raises(sf.DomainError):
            sf.polygamma(4, 1.0)
        with pytest.raises(sf.DomainError):
            sf.polygamma(0, 1.0)

    def test_pole(self):
        with pytest.raises(sf.PoleError):
            sf.polygamma(1, -2.0)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_mpmath_oracle_grid(self, q):
        small = [0.05, 0.3 + 0.2j, 1e-3 + 1e-3j, 0.5 - 0.5j, 1.5, 2.5 + 1.2j, 9.99, 10.0]
        strip = [0.01, 0.25 + 3j, 0.49, 0.5 + 1e-9j, 0.7 - 0.3j, 0.95 + 40j]
        left = [-0.2 - 2j, -0.3 + 10j, -0.5 + 1e-3j, -3.5 + 0.4j, -7.5 + 1e-3j, -12.3 - 45.6j]
        angles = np.linspace(-3.1, 3.1, 9)
        large = [r * cmath.exp(1j * a) for r in (1e6, 1e8) for a in angles]
        for z in small + strip + left + large:
            ref = mpmath_polygamma(q, z)
            assert abs(sf.polygamma(q, z) - ref) <= 1e-13 * abs(ref), z

    def test_derivative_consistency(self):
        # Psi' and Psi''' against central differences of Psi / Psi''
        h = 1e-5
        for z in (1.7, 2.5 + 1.2j):
            d1 = (sf.digamma(z + h) - sf.digamma(z - h)) / (2 * h)
            assert abs(d1 - sf.polygamma(1, z)) < 1e-8
            d3 = (sf.polygamma(2, z + h) - sf.polygamma(2, z - h)) / (2 * h)
            assert abs(d3 - sf.polygamma(3, z)) < 1e-7


# Reflected entries (Re z < 1/2), entries just below and at the shift
# threshold Re w = 16, and large ones.
MIXED = np.array(
    [-3.5 + 0.4j, -0.2 - 2j, -7.5 + 1e-3j, 0.3 + 0.2j, 0.49, 15.99, 15.99 - 0.5j,
     16.0, 16.0 + 3j, 40.0 - 7j, 1e3 + 1e3j, 1e8 + 1j]
)


class TestPolygammaOrders:
    @pytest.mark.parametrize("orders", [(1, 3), (3, 1), (1, 2, 3), (2,)])
    def test_tuple_rows_equal_one_order_calls(self, orders):
        rows = sf.polygamma(orders, MIXED)
        assert rows.shape == (len(orders), MIXED.size)
        for q, row in zip(orders, rows):
            assert same_bits(row, sf.polygamma(q, MIXED)), q
        # a scalar gives one value per order, a 2-D array keeps its shape
        z = complex(MIXED[1])
        assert same_bits(sf.polygamma(orders, z), [sf.polygamma(q, z) for q in orders])
        grid = MIXED.reshape(3, 4)
        assert same_bits(sf.polygamma(orders, grid), [sf.polygamma(q, grid) for q in orders])

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_mixed_grid_against_mpmath(self, q):
        for z, value in zip(MIXED.tolist(), sf.polygamma(q, MIXED).tolist()):
            ref = mpmath_polygamma(q, z)
            assert abs(value - ref) <= 1e-13 * abs(ref), z

    def test_order_zero_row_equals_digamma(self):
        # cumulants take Psi from the engine pass of their third derivative
        for z in (MIXED, MIXED.real.clip(0.5), np.array([2.5, 2.3 - 0.2j]), np.array([1.5 + 0j])):
            rows, _ = sf._psi((0, 1, 3), z, "digamma")
            assert same_bits(rows[0], sf.digamma(z)), z
            assert same_bits(rows[1:], sf.polygamma((1, 3), z))

    def test_bad_order_in_tuple(self):
        with pytest.raises(sf.DomainError, match="got 4"):
            sf.polygamma((1, 4), 2.0)
        with pytest.raises(sf.PoleError):
            sf.polygamma((1, 3), np.array([2.0, -3.0]))


class TestPolygammaRealRoute:
    """A float64 argument with every entry in [1/2, inf) takes polygamma's
    real-arithmetic route, which must give the complex route's bits."""

    RNG = np.random.default_rng(17)
    SHIFTED = np.concatenate([[0.5, 1.0, 1.5, 2.0, 15.0, 15.99, np.nextafter(16.0, 0.0)],
                              RNG.uniform(0.5, 16.0, 2000)])
    LARGE = np.concatenate([[16.0, 16.5, 1e4, 1e8], np.exp(RNG.uniform(np.log(16.0), np.log(1e8), 2000))])

    @pytest.fixture
    def real_calls(self, monkeypatch):
        calls = []
        real = sf._polygamma_real

        def counted(orders, x):
            calls.append(x.size)
            return real(orders, x)

        monkeypatch.setattr(sf, "_polygamma_real", counted)
        return calls

    @pytest.mark.parametrize("orders", [1, 3, (1,), (3,), (1, 3), (1, 2, 3)])
    @pytest.mark.parametrize("region", ["shifted", "large", "both"])
    def test_real_route_equals_complex_route_bitwise(self, orders, region, real_calls):
        x = {"shifted": self.SHIFTED, "large": self.LARGE,
             "both": np.concatenate([self.SHIFTED, self.LARGE])}[region]
        real = sf.polygamma(orders, x)
        assert real_calls == [x.size]
        cplx = sf.polygamma(orders, x.astype(np.complex128))
        assert real_calls == [x.size]  # complex input keeps the complex route
        assert real.dtype == cplx.dtype == np.complex128
        assert same_bits(real, cplx)

    @pytest.mark.parametrize("orders", [1, (1,), (1, 3), (1, 2, 3)])
    def test_scalar_two_d_and_empty_shapes(self, orders, real_calls):
        for x in (np.float64(3.25), 15.5, np.array(40.0)):
            real, cplx = sf.polygamma(orders, x), sf.polygamma(orders, complex(x))
            assert type(real) is type(cplx) and same_bits([real], [cplx])
        grid = np.concatenate([self.SHIFTED[:6], self.LARGE[:6]]).reshape(3, 4)
        assert same_bits(sf.polygamma(orders, grid), sf.polygamma(orders, grid.astype(complex)))
        for empty in (np.array([]), np.zeros((0, 3))):
            out = sf.polygamma(orders, empty)
            lead = (len(orders),) if isinstance(orders, tuple) else ()
            assert out.shape == lead + empty.shape and out.dtype == np.complex128
        assert len(real_calls) == 3 + 1 + 2

    def test_other_real_input_keeps_the_complex_route(self, real_calls):
        # entries below 1/2 (reflected), poles and non-finite entries
        assert sf.polygamma(1, np.array([0.3, 2.0])).shape == (2,)
        with pytest.raises(sf.PoleError):
            sf.polygamma(1, np.array([2.0, -3.0]))
        with np.errstate(invalid="ignore"), pytest.raises(OverflowError):
            sf.polygamma(1, np.array([2.0, np.inf]))
        with np.errstate(invalid="ignore"), pytest.raises(OverflowError):
            sf.polygamma(1, np.array([2.0, np.nan]))
        assert real_calls == []


class TestFarLeft:
    """Far into the left half-plane every function takes a bounded number
    of steps: log_gamma reflects inside scipy, digamma and polygamma
    reflect to Re z > 1/2 and shift at most 16 times."""

    POINTS = (-1e6 + 1j, -1e4 + 0.5j, -3.5 + 0.4j)

    def test_log_gamma_and_digamma_against_mpmath(self):
        import mpmath

        for z in self.POINTS:
            ref = complex(mpmath.loggamma(z))
            assert abs(sf.log_gamma(z) - ref) <= 1e-13 * abs(ref)
            ref = complex(mpmath.digamma(z))
            assert abs(sf.digamma(z) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_polygamma_against_mpmath(self, q):
        for z in self.POINTS:
            ref = mpmath_polygamma(q, z)
            assert abs(sf.polygamma(q, z) - ref) <= 1e-13 * abs(ref)


def test_each_entry_alone_equals_its_entry_in_a_long_array():
    # bit for bit: what makes batching the arguments of one law bit-neutral
    rng = np.random.default_rng(5)
    z = rng.uniform(-40.0, 60.0, 10_000) + 1j * rng.uniform(-30.0, 30.0, 10_000)
    z[::7] = rng.uniform(0.01, 50.0, z[::7].size)  # positive reals
    z[::101] *= 1e5
    functions = {
        "log_gamma": sf.log_gamma,
        "digamma": sf.digamma,
        "polygamma1": lambda v: sf.polygamma(1, v),
        "polygamma3": lambda v: sf.polygamma(3, v),
    }
    for name, f in functions.items():
        together = f(z).tolist()
        alone = [f(v) for v in z.tolist()]
        assert alone == together, name


def _polygamma_arguments(kind: str, size: int = 10_000) -> np.ndarray:
    rng = np.random.default_rng(["real", "complex", "reflected", "shifted"].index(kind))
    if kind == "real":  # the real route, shifted below 16
        return rng.uniform(0.5, 40.0, size)
    im = rng.uniform(-30.0, 30.0, size)
    im[::9] = 0.0  # on the real axis, as the cumulants' first entry
    re = {"complex": (16.0, 80.0), "reflected": (-40.0, 0.5), "shifted": (0.5, 16.0)}[kind]
    return rng.uniform(*re, size) + 1j * im


@pytest.mark.parametrize("orders", [(1, 3), (1, 2, 3)])
@pytest.mark.parametrize("kind", ["real", "complex", "reflected", "shifted"])
def test_every_short_slice_equals_its_entries_in_a_long_array(kind, orders):
    # slices up to specfun._SHORT entries repeat w once per order and take
    # same-shape operands, longer ones broadcast (orders, 1) columns
    # against a row; bit for bit, so a mis-shaped or misaligned tile shows
    z = _polygamma_arguments(kind)
    together = sf.polygamma(orders, z)
    for size in range(1, 71):
        for start in (0, 4321):
            alone = sf.polygamma(orders, z[start:start + size])
            assert alone.tobytes() == together[:, start:start + size].tobytes(), (size, start)


class TestEntropy:
    def test_J_values(self):
        assert sf.entropy_J(1.0) == 0.0
        assert sf.entropy_J(0.0) == 1.0
        assert sf.entropy_J(2.0) == pytest.approx(2 * math.log(2) - 1.0, abs=1e-15)
        assert sf.entropy_J(-0.5) == math.inf

    def test_J_complex_principal(self):
        u = 1.0 + 1.0j
        expected = u * np.log(u) - u + 1.0
        assert abs(sf.entropy_J(u) - expected) < 1e-15
        # complex with zero imaginary part falls back to the real branch
        assert sf.entropy_J(complex(-1.0, 0.0)) == math.inf
        assert sf.entropy_J(complex(0.0, 0.0)) == 1.0

    def test_F_values(self):
        assert sf.entropy_F(0.0) == 0.0
        assert sf.entropy_F(1.0) == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(sf.DomainError):
            sf.entropy_F(-0.1)

    def test_F_prime_is_J(self):
        h = 1e-6
        for t in (0.5, 1.0, 2.0):
            fd = (sf.entropy_F(t + h) - sf.entropy_F(t - h)) / (2 * h)
            assert abs(fd - sf.entropy_J(t)) < 1e-8

    def test_F_prime_is_J_on_grid(self):
        h = 1e-6
        for t in np.linspace(0.05, 5.0, 40):
            fd = (sf.entropy_F(t + h) - sf.entropy_F(t - h)) / (2 * h)
            assert abs(fd - sf.entropy_J(t)) < 1e-8


class TestAbelPlana:
    def test_squares(self):
        val = sf.abel_plana_sum(lambda t: t * t, lambda t: t**3 / 3.0, 0, 10)
        assert abs(val - 385.0) < 1e-11

    def test_antiderivative_route(self):
        # the integral term comes from the primitive at the two endpoints only
        points = []

        def primitive(t):
            points.append(t)
            return t**3 / 3.0

        val = sf.abel_plana_sum(lambda t: t * t, primitive, 0, 10)
        assert abs(val - 385.0) < 1e-11
        assert len(points) == 1 and points[0].tolist() == [0, 10]

    def test_constant(self):
        val = sf.abel_plana_sum(lambda t: 3.0 + 0.0 * t, lambda t: 3.0 * t, 2, 9)
        assert abs(val - 21.0) < 1e-12

    def test_all_polynomials_to_degree_four(self):
        rng = np.random.default_rng(7)
        for deg in range(5):
            coeff = rng.uniform(-2, 2, deg + 1)
            direct = sum(
                sum(c * j**p for p, c in enumerate(coeff)) for j in range(1, 21)
            )
            val = sf.abel_plana_sum(
                lambda t: sum(c * t**p for p, c in enumerate(coeff)),
                lambda t: sum(c * t ** (p + 1) / (p + 1) for p, c in enumerate(coeff)),
                0,
                20,
            )
            assert abs(val - direct) < 1e-10

    def test_digamma_difference_summand(self):
        bp, delta = 1.0, 0.3 + 0.2j

        def g(t):
            x = bp * (np.asarray(t, dtype=complex) - 1.0)
            return sf.digamma(x + 1 + 2 * delta.real) - sf.digamma(
                x + 1 + delta.conjugate()
            )

        def primitive(t):
            x = bp * (np.asarray(t, dtype=complex) - 1.0)
            return (
                sf.log_gamma(x + 1 + 2 * delta.real)
                - sf.log_gamma(x + 1 + delta.conjugate())
            ) / bp

        direct = complex(np.sum(g(np.arange(1.0, 101.0))))
        val = sf.abel_plana_sum(g, primitive, 0, 100)
        assert abs(val - direct) <= 1e-10 * abs(direct)

    @pytest.mark.parametrize("delta", [0.5, 0.0])
    def test_conjugate_symmetric_one_line_equals_two_lines_bitwise(self, delta):
        # a summand real on the real axis: the line x - iy is the mirror
        # image of x + iy, so evaluating one line gives the same bits
        def g(t):
            points.append(t)
            return sf.digamma(t + 1 + 2 * delta) - sf.digamma(t + 1 + delta)

        def primitive(t):
            return sf.log_gamma(t + 1 + 2 * delta) - sf.log_gamma(t + 1 + delta)

        lows, sums, lines = np.array([0, 3, 40, 99]), [], []
        for symmetric in (False, True):
            points = []
            sums.append(sf.abel_plana_sum(g, primitive, lows, 100, conjugate_symmetric=symmetric))
            # the first call is g at the endpoints, the others the lines
            boundary = np.concatenate(points[1:])
            lines.append((boundary.size, bool((boundary.imag < 0).any())))
        assert same_bits(sums[1], sums[0])
        (two_size, two_lower), (one_size, one_lower) = lines
        assert two_lower and not one_lower and two_size == 2 * one_size

    def test_one_evaluator_call_per_refinement_level(self, monkeypatch):
        calls, orders = [], []
        nodes = sf._gauss_nodes

        def counted_nodes(order):
            orders.append(order)
            return nodes(order)

        def ev(t):
            calls.append(np.size(t))
            return t * t

        monkeypatch.setattr(sf, "_gauss_nodes", counted_nodes)
        # each order's rule is built once per process; start from none
        sf._boundary_rule.cache_clear()
        assert abs(sf.abel_plana_sum(ev, lambda t: t**3 / 3.0, 0, 10) - 385.0) < 1e-11
        levels = len(set(orders))
        assert levels >= 2
        assert len(calls) <= 1 + levels

    def test_long_segment_in_blocks(self):
        # 3000 terms of a damped oscillation with its closed primitive
        a, b = 0.01, 0.2

        def g(t):
            return np.exp(-a * t) * np.cos(b * t)

        def primitive(t):
            return (
                np.exp(-a * t)
                * (b * np.sin(b * t) - a * np.cos(b * t))
                / (a * a + b * b)
            )

        val = sf.abel_plana_sum(g, primitive, 0, 3000)
        direct = np.sum(g(np.arange(1.0, 3001.0)))
        assert abs(val - direct) <= 1e-10 * abs(direct)

    def test_strip_validation(self):
        with pytest.raises(sf.DomainError):
            sf.abel_plana_sum(lambda t: t, lambda t: t * t / 2, 5, 5)

    def test_pole_near_boundary_line_fails_quadrature(self):
        # 1/(t - p) with p just right of the line m + iy: no order up to
        # 512 resolves the boundary integrand
        p = 0.01 + 3j

        def g(t):
            return 1.0 / (t - p)

        def primitive(t):
            return np.log(t - p)

        with pytest.raises(sf.QuadratureError):
            sf.abel_plana_sum(g, primitive, 0, 10)

    def test_array_of_lower_ends(self):
        # one pass for every lower end; each sum is the scalar call's bits
        lows = np.array([0, 3, 17, 39])

        def g(t):
            return 1.0 / (t + 0.5 + 0.5j) ** 2

        def primitive(t):
            return -1.0 / (t + 0.5 + 0.5j)

        sums = sf.abel_plana_sum(g, primitive, lows, 40)
        assert sums.shape == lows.shape
        for low, val in zip(lows.tolist(), sums.tolist()):
            direct = sum(1.0 / (k + 0.5 + 0.5j) ** 2 for k in range(low + 1, 41))
            assert abs(val - direct) <= 1e-13 * abs(direct)
            assert val == sf.abel_plana_sum(g, primitive, low, 40)

    def test_leading_axes_hold_several_summands(self):
        powers = np.array([[1.0], [2.0]])
        sums = sf.abel_plana_sum(
            lambda t: t**powers, lambda t: t ** (powers + 1) / (powers + 1), np.array([0, 5]), 10
        )
        assert sums.shape == (2, 2)
        assert np.allclose(sums, [[55.0, 40.0], [385.0, 330.0]], rtol=0, atol=1e-11)

    def test_each_endpoint_converges_on_its_own(self):
        # a pole 0.2 left of the line 0 + iy: only that endpoint needs order 64
        p = -0.2 + 1j
        sizes = []

        def g(t):
            sizes.append(t.size)
            return 1.0 / (t - p)

        sums = sf.abel_plana_sum(g, lambda t: np.log(t - p), np.array([0, 30]), 40)
        for low, val in zip((0, 30), sums.tolist()):
            direct = sum(1.0 / (k - p) for k in range(low + 1, 41))
            assert abs(val - direct) <= 1e-13 * abs(direct)
        # the endpoints, then the two lines of all three endpoints at orders
        # 16 and 32 on six panels, then of the lower end 0 alone at order 64
        assert sizes == [3, 3 * 2 * 6 * 16, 3 * 2 * 6 * 32, 2 * 6 * 64]
