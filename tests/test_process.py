import ast
import math
from pathlib import Path

import numpy as np
import pytest

import circjacobi
from circjacobi import process as pr
from circjacobi import sampler as sp
from circjacobi.asymptotics import EnsembleParams, exact_cov_zeta


def random_gamma(rng, n):
    g = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    g = 0.95 * g / np.maximum(1.0, np.abs(g)) * rng.uniform(0.05, 1.0, n)
    g[-1] = np.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
    return g


def cmv_matrix_loop(alpha):
    """The CMV matrix L M with L and M written out entry by entry from the
    blocks Theta_j = [[conj a_j, rho_j], [rho_j, -a_j]]: L holds those of
    even j, M a leading 1 and those of odd j, and a block at j = n - 1 is
    its entry conj a_j alone."""
    a = alpha.alpha
    n = a.size
    factors = [np.zeros((n, n), dtype=np.complex128) for _ in range(2)]
    factors[1][0, 0] = 1.0
    for j in range(n):
        f = factors[j % 2]
        f[j, j] = np.conj(a[j])
        if j + 1 < n:
            rho = math.sqrt(1.0 - abs(a[j]) ** 2)
            f[j, j + 1] = rho
            f[j + 1, j] = rho
            f[j + 1, j + 1] = -a[j]
    return factors[0] @ factors[1]


class TestLogPath:
    def test_starts_at_zero(self):
        p = EnsembleParams(12, 2.0, delta=0.3)
        path = pr.log_path(sp.sample_ensemble(p, 1))
        assert path.values[0] == 0.0

    def test_product_of_two(self):
        # all interior coefficients zero, terminal -1: the product is 2
        gamma = np.zeros(5, dtype=complex)
        gamma[-1] = -1.0
        sample = sp.DeformedVerblunskySample(
            gamma=gamma, seed=0, params=EnsembleParams(5, 2.0, delta=0.0)
        )
        path = pr.log_path(sample)
        assert path.values[-1] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_increment_branch(self):
        p = EnsembleParams(64, 2.0, delta=0.5 + 0.4j)
        path = pr.log_path(sp.sample_ensemble(p, 3))
        inc = np.diff(path.values)
        assert np.max(np.abs(inc.imag)) <= 0.5 * math.pi

    def test_exponentiates_to_product(self):
        p = EnsembleParams(32, 2.0, delta=0.5)
        s = sp.sample_ensemble(p, 5)
        path = pr.log_path(s)
        prod = np.prod(1 - s.gamma)
        assert abs(np.exp(path.values[-1]) - prod) <= 1e-12 * abs(prod)

    def test_centering_uses_exact_mean(self):
        # one mean route: the path centres with the exact mean's own bits
        from circjacobi.asymptotics import CROSSOVER_N, exact_mean_logphi

        for params in (
            EnsembleParams(16, 2.0, delta=0.4),
            EnsembleParams(40, 1.3, delta=0.2 + 0.3j),
            EnsembleParams(24, 2.0, scaled_d=0.5 - 0.25j),
        ):
            assert params.n <= CROSSOVER_N
            path = pr.log_path(sp.sample_ensemble(params, 2))
            for k in range(1, params.n + 1):
                assert path.zeta[k] == path.values[k] - exact_mean_logphi(params, k), k


class TestLogPhiSums:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_equal_the_batch_sums_bit_for_bit(self, workers):
        for params, seed in ((EnsembleParams(64, 2.0, scaled_d=0.5), 5),
                             (EnsembleParams(256, 2.0, delta=0.3 + 0.2j), 3)):
            batch = np.log(1 - sp.sample_ensemble_batch(params, seed, 40)).sum(axis=1)
            sums = pr.log_phi_sums(params, seed, 40, workers)
            assert sums.dtype == np.complex128
            assert np.array_equal(sums.view(np.float64), batch.view(np.float64))

    def test_sample_zero_ends_the_path_of_sample_ensemble(self):
        # the same increments, summed pairwise rather than cumulatively
        p = EnsembleParams(32, 2.0, delta=0.5)
        end = pr.log_path(sp.sample_ensemble(p, 7)).values[-1]
        assert abs(pr.log_phi_sums(p, 7, 1, 1)[0] - end) <= 1e-14 * abs(end)


def _log_one_minus_spellings(tree):
    """(enclosing function, line) of every np.log(1 - x) or np.log(1.0 - x)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.args
            and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].op, ast.Sub)
            and isinstance(node.args[0].left, ast.Constant)
            and node.args[0].left.value == 1
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_log_one_minus_is_spelled_once():
    """Every log(1 - gamma) of the package goes through
    ``process.log_one_minus``; the one other spelling is ``cmv_log_det``'s
    log of eigenvalues, which are not coefficients."""
    allowed = {("process.py", "log_one_minus"), ("process.py", "cmv_log_det")}
    spellings = set()
    offenders = []
    for path in sorted(Path(circjacobi.__file__).parent.glob("*.py")):
        for func, line in _log_one_minus_spellings(ast.parse(path.read_text(), str(path))):
            spellings.add((path.name, func))
            if (path.name, func) not in allowed:
                offenders.append(f"{path.name}:{line} in {func}")
    assert offenders == []
    assert spellings == allowed


class TestConversions:
    def test_real_coefficients_fixed_point(self):
        gamma = np.array([0.3, -0.5, 0.2, -1.0 + 0j])
        alpha = pr.gamma_to_alpha(gamma)
        assert np.max(np.abs(alpha.alpha - gamma)) == 0.0

    def test_modulus_preserved(self):
        rng = np.random.default_rng(2)
        gamma = random_gamma(rng, 10)
        alpha = pr.gamma_to_alpha(gamma)
        assert np.max(np.abs(np.abs(alpha.alpha) - np.abs(gamma))) < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        gamma = random_gamma(rng, 12)
        back = pr.alpha_to_gamma(pr.gamma_to_alpha(gamma))
        assert np.max(np.abs(back - gamma)) < 1e-12

    def test_round_trip_on_a_drift_ensemble(self):
        # Phi_j(1) overflows here, so the inverse carries the unit phase too
        gamma = sp.sample_ensemble(EnsembleParams(4096, 2.0, scaled_d=0.5), 3).gamma
        back = pr.alpha_to_gamma(pr.gamma_to_alpha(gamma))
        assert np.max(np.abs(back - gamma)) < 1e-12

    def test_finite_on_drift_ensembles(self):
        # the running product Phi_j(1) overflows on these draws
        for d in (0.1, 0.5):
            gamma = sp.sample_ensemble(EnsembleParams(4096, 2.0, scaled_d=d), 3).gamma
            alpha = pr.gamma_to_alpha(gamma).alpha
            assert np.all(np.isfinite(alpha))
            assert np.max(np.abs(np.abs(alpha) - np.abs(gamma))) < 1e-15

    @pytest.mark.parametrize("kw", [{"delta": 0.5}, {"delta": 0.3 + 0.2j},
                                    {"scaled_d": 0.5 + 0.5j}])
    def test_matches_product_route(self, kw):
        # the oracle: alpha_j = conj(gamma_j) conj(P_j) / P_j with P_j the
        # running product itself, finite at this n
        gamma = sp.sample_ensemble(EnsembleParams(1024, 2.0, **kw), 3).gamma
        prefix = np.concatenate([[1.0 + 0.0j], np.cumprod(1.0 - gamma)[:-1]])
        assert np.all(np.isfinite(prefix)) and np.min(np.abs(prefix)) > 1e-300
        oracle = np.conj(gamma) * (np.conj(prefix) / prefix)
        assert np.max(np.abs(pr.gamma_to_alpha(gamma).alpha - oracle)) < 1e-14


class TestSchurCoefficients:
    @pytest.mark.parametrize("alpha", [
        [math.nan, 0.5, 1.0], [0.5, complex(0.0, math.inf), 1.0], [0.5, 3.0],
        [0.5, math.nan], [complex(math.inf, 0.0)], [1.5],
    ], ids=repr)
    def test_rejects_non_finite_and_outside_the_disc(self, alpha):
        with pytest.raises(ValueError, match="disc"):
            pr.SchurCoefficients(np.array(alpha, dtype=complex))

    def test_terminal_on_the_circle_to_rounding(self):
        terminal = np.exp(0.3j) * (1.0 + 2**-50)
        assert len(pr.SchurCoefficients(np.array([0.5, terminal]))) == 2


class TestSzego:
    def test_degree_one(self):
        a0 = 0.4 + 0.1j
        alpha = pr.SchurCoefficients(np.array([a0]))
        z = 2.0 + 1.0j
        assert pr.szego_eval(alpha, z)[1] == pytest.approx(z - np.conj(a0), abs=1e-15)

    def test_value_at_one_equals_product(self):
        rng = np.random.default_rng(4)
        gamma = random_gamma(rng, 9)
        alpha = pr.gamma_to_alpha(gamma)
        phis = pr.szego_eval(alpha, 1.0)
        prods = np.concatenate([[1.0 + 0j], np.cumprod(1 - gamma)])
        rel = np.abs(phis - prods) / np.maximum(np.abs(prods), 1e-300)
        assert rel.max() < 1e-10

    def test_monic(self):
        rng = np.random.default_rng(5)
        alpha = pr.gamma_to_alpha(random_gamma(rng, 8))
        z = 1e7
        assert pr.szego_eval(alpha, z)[8] / z**8 == pytest.approx(1.0, rel=1e-6)


class TestCMV:
    def test_full_determinant(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 12):
            gamma = random_gamma(rng, n)
            alpha = pr.gamma_to_alpha(gamma)
            prod = np.prod(1 - gamma)
            val = np.exp(pr.cmv_log_det(alpha, n))
            assert abs(val - prod) <= 1e-8 * abs(prod)

    def test_block_determinants(self):
        rng = np.random.default_rng(7)
        gamma = random_gamma(rng, 10)
        alpha = pr.gamma_to_alpha(gamma)
        phis = pr.szego_eval(alpha, 1.0)
        for k in (1, 4, 9):
            val = np.exp(pr.cmv_log_det(alpha, k))
            assert abs(val - phis[k]) <= 1e-8 * abs(phis[k])

    def test_unitarity(self):
        rng = np.random.default_rng(8)
        for n in (3, 8, 12, 256):
            u = pr.cmv_matrix(pr.gamma_to_alpha(random_gamma(rng, n)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12

    def test_five_diagonal(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 8, 13, 64):
            c = pr.cmv_matrix(pr.gamma_to_alpha(random_gamma(rng, n)))
            rows, cols = np.indices(c.shape)
            assert np.all(c[np.abs(rows - cols) > 2] == 0)

    def test_matches_entrywise_blocks(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 64, 256):
            alpha = pr.SchurCoefficients(random_gamma(rng, n))
            np.testing.assert_allclose(
                pr.cmv_matrix(alpha), cmv_matrix_loop(alpha), rtol=1e-14, atol=0
            )

    def test_characteristic_polynomials(self):
        # det(z - C_k) = Phi_k(z) for every cutoff k, on and off the circle
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 20, 40):
            alpha = pr.gamma_to_alpha(random_gamma(rng, n))
            c = pr.cmv_matrix(alpha)
            for z in (1.0, 0.3 + 0.4j, 2.0 - 1.0j):
                phis = pr.szego_eval(alpha, z)
                for k in range(1, n + 1):
                    det = np.linalg.det(z * np.eye(k) - c[:k, :k])
                    assert abs(det - phis[k]) <= 1e-12 * max(1.0, abs(phis[k])), (n, z, k)

    def test_branch_correct_logs(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            gamma = random_gamma(rng, n)
            alpha = pr.gamma_to_alpha(gamma)
            logs = np.cumsum(np.log(1 - gamma))
            for k in (1, n):
                lg = pr.cmv_log_det(alpha, k)
                assert abs(lg - logs[k - 1]) < 1e-8 * max(1.0, abs(logs[k - 1]))

    def test_degenerate_rejected(self):
        # zero interior coefficient and terminal +1: C = [[0, 1], [1, 0]]
        # has the eigenvalue 1, and Phi_2(1) = 0
        alpha = pr.SchurCoefficients(np.array([0.0, 1.0 + 0j]))
        with pytest.raises(pr.DegenerateMatrixError):
            pr.cmv_log_det(alpha, 2)

    def test_bad_k(self):
        alpha = pr.SchurCoefficients(np.array([0.5 + 0j]))
        with pytest.raises(ValueError):
            pr.cmv_log_det(alpha, 0)


class TestPathStatistics:
    def test_second_moments_match_exact(self):
        # empirical covariance of the centered path vs the trigamma sums
        n, beta, delta, count = 256, 2.0, 0.5, 10_000
        p = EnsembleParams(n, beta, delta=delta)
        g = sp.sample_ensemble_batch(p, 2024, count)
        lg = np.log(1 - g)
        from circjacobi.asymptotics import mean_increments

        mu = np.cumsum(mean_increments(p))
        root = math.sqrt(count)
        for t in (0.25, 0.5, 0.75):
            m = int(n * t)
            zeta = lg[:, :m].sum(axis=1) - mu[m - 1]
            cov = exact_cov_zeta(p, m)
            xre, xim = zeta.real, zeta.imag
            assert abs(xre.var(ddof=1) - cov[0, 0]) < 4 * np.std(xre**2) / root
            assert abs(xim.var(ddof=1) - cov[1, 1]) < 4 * np.std(xim**2) / root
            assert abs(np.mean(xre * xim) - cov[0, 1]) < 4 * np.std(xre * xim) / root

    def test_martingale_increment_means(self):
        # disjoint-block increments of the centered path have mean zero
        n, count = 128, 20_000
        p = EnsembleParams(n, 2.0, delta=0.5)
        g = sp.sample_ensemble_batch(p, 515, count)
        lg = np.log(1 - g)
        from circjacobi.asymptotics import mean_increments

        mu = mean_increments(p)
        blocks = [(0, 32), (32, 64), (64, 128)]
        for lo, hi in blocks:
            inc = (lg[:, lo:hi] - mu[lo:hi]).sum(axis=1)
            root = math.sqrt(count)
            assert abs(inc.real.mean()) < 4 * inc.real.std() / root
            assert abs(inc.imag.mean()) < 4 * inc.imag.std() / root
