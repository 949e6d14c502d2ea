"""The benchmark's three workloads (BENCHMARK.json says why each exists).

Each workload is a list of stages, each stage a fixed number of ops per
pass made through the package's public functions, plus the CLI commands
one round runs through ``circjacobi.cli.main``.  Checks run after the
timed passes and compare with ``references`` (or, for Monte Carlo, with
the package's exact sums, which the sampler does not call).  Ops whose
inputs do not change between passes must also repeat their first pass
bit for bit.

Functions of the package are always looked up on their module at call
time (``sp.ensemble_gammas``, not a name bound at import), so the span
tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from circjacobi import asymptotics as asy
from circjacobi import equilibrium as eq
from circjacobi import gammalaw as gl
from circjacobi import ldp
from circjacobi import process as pr
from circjacobi import sampler as sp

import references as ref

Z_LIMIT = 4.0  # Monte Carlo moments must lie within 4 standard errors
EPS = np.finfo(float).eps


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class Verdict:
    """What a stage's checks found: keys (stage, pass, index) of ops whose
    value is wrong, and one line per check."""

    wrong: set = field(default_factory=set)
    checks: List[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str, keys=()) -> None:
        self.checks.append(CheckResult(name, passed, detail))
        if not passed:
            self.wrong.update(keys)


@dataclass
class Stage:
    name: str
    count: int
    op: Callable[[int, int], Any]  # (index, pass) -> output; the timed call
    verify: Callable[["Stage", List[List[Any]]], Verdict]
    reduce: Optional[Callable[[int, Any], Any]] = None  # (index, output) -> kept form, untimed
    warm: bool = True  # run one op in set-up (heavy stages are not warmed)
    acceptance: Sequence[Tuple[int, float, complex]] = ()  # (coeffs per op, r, delta)
    speed: str = "mixed"  # the calibration kind its work resembles


@dataclass
class CliCommand:
    name: str
    argv: List[str]
    out: str
    speed: str = "mixed"


@dataclass
class Workload:
    name: str
    stages: List[Stage]
    cli: List[CliCommand]
    verify_cli: Callable[[List[CliCommand], Dict[str, List[List[Any]]]], Verdict]
    determinism: Optional[CliCommand] = None  # same command, one worker


def _grid(a: float, b: float, step: float) -> np.ndarray:
    """Inclusive grid 'a:b:step', built as the CLI builds it."""
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return a + step * np.arange(count)


def _keys(stage: Stage, outputs: List[List[Any]]):
    return {(stage.name, k, j) for k, per_pass in enumerate(outputs) for j in range(len(per_pass))}


def _repeats(stage: Stage, outputs, same: Callable[[Any, Any], bool], verdict: Verdict) -> None:
    """Ops with fixed inputs: every later pass must repeat pass 0 exactly
    (an op that raised, with output None, must raise again)."""
    bad = {
        (stage.name, k, j)
        for k in range(1, len(outputs))
        for j, out in enumerate(outputs[k])
        if not (out is outputs[0][j] is None
                or (out is not None and outputs[0][j] is not None and same(out, outputs[0][j])))
    }
    verdict.add(f"{stage.name}: later passes repeat pass 0", not bad, f"{len(bad)} differ", bad)


def _moment_check(stage: Stage, name: str, sums: ref.MomentSums, var_ref, keys, verdict) -> None:
    z = sums.z_scores(var_ref)
    worst = max(abs(v) for v in z.values())
    detail = f"{sums.count} draws, " + ", ".join(f"z_{k} {v:+.2f}" for k, v in z.items())
    verdict.add(f"{stage.name}: {name} within {Z_LIMIT:g} SE", worst < Z_LIMIT, detail, keys)


# ------------------------------------------------------------ mc-ensemble

def _mc_stage(name: str, params: asy.EnsembleParams, count: int, seed: int, path: bool, speed: str) -> Stage:
    n = params.n

    def op(j: int, k: int):
        gamma = sp.ensemble_gammas(params, sp.substream(seed, k * count + j))
        if not path:
            return complex(np.sum(np.log(1.0 - gamma)))
        sample = sp.DeformedVerblunskySample(gamma=gamma, seed=seed, params=params)
        lp = pr.log_path(sample)
        return complex(lp.values[-1]), complex(lp.zeta[-1])

    def verify(stage: Stage, outputs) -> Verdict:
        v = Verdict()
        mean = asy.exact_mean_logphi(params, n)
        cov = asy.exact_cov_zeta(params, n)
        values = [out[0] if path else out for per_pass in outputs for out in per_pass if out is not None]
        finite = bool(np.all(np.isfinite(values)))
        v.add(f"{stage.name}: log Phi_n(1) finite", finite, "", _keys(stage, outputs))
        if finite:
            _moment_check(
                stage, "mean and variance of log Phi_n(1) vs exact sums",
                ref.MomentSums.of(values, mean), np.diag(cov), _keys(stage, outputs), v,
            )
        if path:
            tol = 1e-9 * (1.0 + abs(mean))
            bad = {
                (stage.name, k, j)
                for k, per_pass in enumerate(outputs)
                for j, out in enumerate(per_pass)
                if out is not None and not abs(out[1] - (out[0] - mean)) <= tol
            }
            v.add(f"{stage.name}: zeta_n = log Phi_n(1) - exact mean", not bad, f"{len(bad)} off by > {tol:.1e}", bad)
        return v

    ranks = params.coefficient_ranks()
    delta = params.effective_delta
    return Stage(name, count, op, verify, acceptance=[(1, float(r), delta) for r in ranks], speed=speed)


def mc_ensemble(seed: int, tmp: str) -> Workload:
    A = asy.EnsembleParams(4096, 2.0, delta=0.0)
    B = asy.EnsembleParams(4096, 2.0, delta=0.5)
    C = asy.EnsembleParams(12, 2.0, scaled_d=0.5)
    P = asy.EnsembleParams(1024, 2.0, delta=0.5)
    stages = [
        _mc_stage("n=4096 delta=0", A, 1000, seed, path=False, speed="vector"),
        # 1200, not 1000: the median op then lies inside this stage's
        # latencies rather than at the edge between two stages
        _mc_stage("n=4096 delta=0.5", B, 1200, seed, path=False, speed="vector"),
        # n=12: hundreds of rejection waves on tiny arrays
        _mc_stage("drift n=12 d=0.5", C, 100, seed, path=False, speed="mixed"),
        _mc_stage("path n=1024 delta=0.5", P, 100, seed, path=True, speed="vector"),
    ]
    sample_out, clt_out, clt1_out = f"{tmp}/sample.csv", f"{tmp}/clt_w2.csv", f"{tmp}/clt_w1.csv"
    common = ["--beta", "2", "--seed", str(seed)]
    cli = [
        CliCommand("sample", ["sample", "--n", "1024", "--delta-re", "0.5", "--samples", "20",
                              "--format", "csv", "--out", sample_out] + common, sample_out, "vector"),
        CliCommand("clt", ["clt", "--n", "4096", "--delta-re", "0", "--samples", "1000",
                           "--workers", "2", "--format", "csv", "--out", clt_out] + common, clt_out, "vector"),
    ]
    determinism = CliCommand("clt --workers 1", ["clt", "--n", "4096", "--delta-re", "0", "--samples", "1000",
                                                 "--workers", "1", "--format", "csv", "--out", clt1_out] + common, clt1_out)

    def verify_cli(commands, outputs) -> Verdict:
        v = Verdict()
        sample_cmd, clt_cmd = commands
        with open(sample_cmd.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        paths = outputs[stages[3].name][0]
        ends = [r for r in rows if int(r["k"]) == P.n]
        ok = len(rows) == 20 * (P.n + 1) and len(ends) == 20 and all(
            complex(float(r["re_log_phi"]), float(r["im_log_phi"])) == paths[int(r["sample"])][0]
            and complex(float(r["re_zeta"]), float(r["im_zeta"])) == paths[int(r["sample"])][1]
            for r in ends
        )
        v.add("cli sample: rows match the path stage", ok, f"{len(rows)} rows", {("cli sample", 0, 0)})
        with open(clt_cmd.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        sums = outputs[stages[0].name][0]
        root = math.sqrt(math.log(A.n))
        ok = len(rows) == 1000 and all(
            abs(complex(float(r["re_theta"]), float(r["im_theta"])) - sums[int(r["sample"])] / root)
            <= 1e-14 * abs(sums[int(r["sample"])] / root)
            for r in rows
        )
        v.add("cli clt: theta matches the n=4096 stage", ok, f"{len(rows)} rows", {("cli clt", 0, 0)})
        return v

    return Workload("mc-ensemble", stages, cli, verify_cli, determinism)


# ---------------------------------------------------------- exact-moments

BULK_SIZE = 10**6
CUMULANT_DELTA = 0.3 + 0.2j


def _bulk_stage(seed: int) -> Stage:
    laws = [(3.0, 0.5 + 0j), (5.0, 0.3 + 0.2j), (0.0, 1.0 + 0j)]  # r = 0: circle law

    def op(j: int, k: int):
        r, delta = laws[j]
        rng = sp.substream(seed, k * len(laws) + j)
        if r == 0:
            return sp.sample_gamma_circle(delta, rng, size=BULK_SIZE)
        return sp.sample_gamma_disc(r, delta, rng, size=BULK_SIZE)

    cums = [gl.cumulants(gl.CoefficientLaw(r, delta)) for r, delta in laws]

    def reduce(j: int, z):
        return ref.MomentSums.of(np.log(1.0 - z), cums[j].mean)

    def verify(stage: Stage, outputs) -> Verdict:
        v = Verdict()
        for j, ((r, delta), c) in enumerate(zip(laws, cums)):
            parts = [per_pass[j] for per_pass in outputs if per_pass[j] is not None]
            keys = {(stage.name, k, j) for k in range(len(outputs))}
            v.add(f"{stage.name}: law r={r:g} drew", bool(parts), f"{len(parts)} batches", keys)
            if parts:
                _moment_check(stage, f"law r={r:g} delta={delta:g} vs cumulants",
                              sum(parts[1:], parts[0]), [c.var_re, c.var_im], keys, v)
        return v

    return Stage("bulk draws 1e6", len(laws), op, verify, reduce, warm=False,
                 acceptance=[(BULK_SIZE, r, delta) for r, delta in laws], speed="vector")


def _cumulant_stage() -> Stage:
    ranks = np.arange(1, 2001, dtype=float)

    def op(j: int, k: int):
        c = gl.cumulants(gl.CoefficientLaw(ranks[j], CUMULANT_DELTA))
        return c.mean, c.covariance

    def verify(stage: Stage, outputs) -> Verdict:
        v = Verdict()
        bad, worst = set(), 0.0
        for j, out in enumerate(outputs[0]):
            if out is None:
                continue
            mean, cov = out
            r_mean, r_cov = ref.cumulants(ranks[j], CUMULANT_DELTA)
            err = max(abs(mean - r_mean) / max(abs(r_mean), 1e-300),
                      np.max(np.abs(cov - r_cov)) / np.max(np.abs(r_cov)))
            worst = max(worst, err)
            if not err <= 1e-10:
                bad.add((stage.name, 0, j))
        v.add(f"{stage.name}: mean and covariance vs mpmath digamma/trigamma", not bad,
              f"worst relative error {worst:.1e} (limit 1e-10)", bad)
        _repeats(stage, outputs, lambda a, b: a[0] == b[0] and np.array_equal(a[1], b[1]), v)
        return v

    return Stage(f"cumulants r=1..2000 delta={CUMULANT_DELTA:g}", ranks.size, op, verify)


def _row_stage(name: str, params: asy.EnsembleParams, grid: np.ndarray, speed: str = "mixed") -> Stage:
    n = params.n
    ms = [int(math.floor(n * t + 1e-9)) for t in grid]

    def op(j: int, k: int):
        return asy.exact_mean_logphi(params, ms[j]), asy.exact_cov_zeta(params, ms[j])

    def verify(stage: Stage, outputs) -> Verdict:
        # Both routes cancel terms of size about n log n, so the rounding
        # floor grows like eps n log n; 1e-9 is the routes' agreement.
        v = Verdict()
        bad, worst = set(), 0.0
        for j, out in enumerate(outputs[0]):
            if out is None:
                continue
            mean, cov = out
            r_mean, r_cov = ref.moment_row(n, params.effective_delta, ms[j])
            tol = 1e-9 * max(1.0, abs(r_mean)) + 16 * EPS * n * math.log(n)
            err = abs(mean - r_mean)
            cov_err = np.max(np.abs(cov - r_cov)) / max(1.0, np.max(np.abs(r_cov)))
            worst = max(worst, err / tol)
            if not (err <= tol and cov_err <= 1e-9):
                bad.add((stage.name, 0, j))
        v.add(f"{stage.name}: rows vs mpmath digamma/trigamma sums", not bad,
              f"worst error {worst:.2f} of its limit", bad)
        _repeats(stage, outputs, lambda a, b: a[0] == b[0] and np.array_equal(a[1], b[1]), v)
        return v

    return Stage(name, len(ms), op, verify, speed=speed)


MOMENTS_CLI_GRID = (0.01, 1.0, 0.01)


def exact_moments(seed: int, tmp: str) -> Workload:
    drift = asy.EnsembleParams(20000, 2.0, scaled_d=1.0)
    stages = [
        _bulk_stage(seed),
        _cumulant_stage(),
        # the direct route sums digamma over arrays of up to n terms
        _row_stage("rows direct n=1e4 delta=0.5", asy.EnsembleParams(10**4, 2.0, delta=0.5),
                   _grid(*MOMENTS_CLI_GRID), speed="vector"),
        _row_stage("rows abel-plana n=2e4 d=1", drift, _grid(*MOMENTS_CLI_GRID)),
        _row_stage("rows n=1e8 delta=0.5", asy.EnsembleParams(10**8, 2.0, delta=0.5), _grid(0.1, 1.0, 0.1)),
        _row_stage("rows n=1e8 d=1", asy.EnsembleParams(10**8, 2.0, scaled_d=1.0), _grid(0.1, 1.0, 0.1)),
    ]
    out = f"{tmp}/moments.csv"
    cli = [CliCommand("moments", ["moments", "--n", "20000", "--beta", "2", "--scaled-d-re", "1",
                                  "--t-grid", "%g:%g:%g" % MOMENTS_CLI_GRID, "--out", out], out)]

    def verify_cli(commands, outputs) -> Verdict:
        v = Verdict()
        with open(commands[0].out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows_ap = outputs[stages[3].name][0]
        ok = len(rows) == len(rows_ap) and all(
            complex(float(r["exact_mean_re"]), float(r["exact_mean_im"])) == mean
            and [float(r[c]) for c in ("cov_xx", "cov_xy", "cov_yy")] == [cov[0, 0], cov[0, 1], cov[1, 1]]
            for r, (mean, cov) in zip(rows, rows_ap)
        )
        v.add("cli moments: rows match the abel-plana stage", ok, f"{len(rows)} rows", {("cli moments", 0, 0)})
        return v

    return Workload("exact-moments", stages, cli, verify_cli)


# ----------------------------------------------------------- rate-surface

XI_GRID = (-0.6, 0.3, 0.01)
ETA_GRID = (-0.5, 0.5, 0.05)


def _rate_stage(name: str, T: float, d: complex, points: List[Tuple[float, float]]) -> Stage:
    def op(j: int, k: int):
        xi, eta = points[j]
        return ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, d))

    def verify(stage: Stage, outputs) -> Verdict:
        v = Verdict()
        first = outputs[0]
        line = [j for j, res in enumerate(first) if points[j][1] == 0.0 and res is not None]
        sup = ref.sup_rate_1d(T, [points[j][0] for j in line], d.real) if line else []
        bad_line = {(stage.name, 0, j) for j, s in zip(line, sup) if not abs(first[j].value - s) <= 1e-8}
        v.add(f"{stage.name}: eta=0 rates vs brute-force sup", not bad_line,
              f"{len(line)} points, {len(bad_line)} off by > 1e-8", bad_line)
        bad_2d, n_2d = set(), 0
        for j, res in enumerate(first):
            xi, eta = points[j]
            if res is None or eta == 0.0:
                continue
            n_2d += 1
            if res.branch is ldp.Branch.INFINITE:
                good = abs(eta) >= 0.5 * math.pi * T or xi >= T * math.log(2.0)
            else:
                s, t = res.multipliers
                dual = s * xi + t * eta - ref.cgf0(T, s, t)
                dual += -2 * d.real * xi - 2 * d.imag * eta + ref.cgf0(T, 2 * d.real, 2 * d.imag)
                good = (ref.stationarity(T, xi, eta, s, t) <= 1e-6
                        and abs(res.value - dual) <= 1e-9 * max(1.0, abs(dual)))
            if not good:
                bad_2d.add((stage.name, 0, j))
        v.add(f"{stage.name}: eta!=0 rates are stationary points of the dual", not bad_2d,
              f"{n_2d} points, {len(bad_2d)} fail", bad_2d)
        _repeats(stage, outputs, _same_rate, v)
        return v

    return Stage(name, len(points), op, verify)


def _same_rate(a, b) -> bool:
    return (a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))) and a.branch is b.branch


def _energy_stage() -> Stage:
    drifts = (0.5, 1.0)

    def op(j: int, k: int):
        return eq.energy_rate(eq.mu_a_measure(drifts[j]), drifts[j])

    def verify(stage: Stage, outputs) -> Verdict:
        v = Verdict()
        bad, worst = set(), 0.0
        for j, rep in enumerate(outputs[0]):
            if rep is None:
                continue
            err = max(abs(-rep.sigma - ref.neg_log_energy(drifts[j])), abs(rep.rate))
            worst = max(worst, err)
            if not err <= 1e-4:
                bad.add((stage.name, 0, j))
        v.add(f"{stage.name}: -Sigma(mu_a) vs closed form, rate at mu_a = 0", not bad,
              f"worst {worst:.1e} (limit 1e-4)", bad)
        _repeats(stage, outputs, lambda a, b: a == b, v)
        return v

    return Stage("energy_rate a=0.5,1", len(drifts), op, verify, warm=False)


def _density_stage() -> Stage:
    ts = np.round(-0.95 + 0.05 * np.arange(39), 12)

    def op(j: int, k: int):
        return eq.lubinsky_saff_density(1.0, float(ts[j]))

    def verify(stage: Stage, outputs) -> Verdict:
        v = Verdict()
        errs = {j: abs(g - ref.line_density(1.0, float(ts[j]))) for j, g in enumerate(outputs[0]) if g is not None}
        bad = {(stage.name, 0, j) for j, e in errs.items() if not e <= 1e-6}
        v.add(f"{stage.name}: vs closed-form line equilibrium", not bad,
              f"worst {max(errs.values(), default=0.0):.1e} (limit 1e-6)", bad)
        _repeats(stage, outputs, lambda a, b: a == b, v)
        return v

    # each call builds 400 Gauss-Legendre nodes, a dense eigenvalue problem
    return Stage("lubinsky_saff_density r=1", ts.size, op, verify, speed="vector")


def rate_surface(seed: int, tmp: str) -> Workload:
    xis = [float(x) for x in _grid(*XI_GRID)]
    etas = [float(e) for e in _grid(*ETA_GRID)]
    surface = [(xi, eta) for xi in xis for eta in etas]
    base = _rate_stage("surface T=0.5 d=0", 0.5, 0j, surface)
    stages = [
        base,
        _rate_stage("surface T=1 d=0.5", 1.0, 0.5 + 0j, surface),
        _rate_stage("line T=0.5 eta=0", 0.5, 0j, [(xi, 0.0) for xi in xis]),
        _energy_stage(),
        _density_stage(),
    ]
    out = f"{tmp}/ldp.csv"
    cli = [CliCommand("ldp", ["ldp", "--T", "0.5", "--xi-grid=%g:%g:%g" % XI_GRID,
                              "--eta-grid=%g:%g:%g" % ETA_GRID, "--out", out], out)]

    def verify_cli(commands, outputs) -> Verdict:
        v = Verdict()
        with open(commands[0].out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ops = outputs[base.name][0]

        def same(row, res):
            if res is None:
                return row["branch"] == "unsolved" and row["h"] == "nan"
            value = float(row["h"])
            return row["branch"] == res.branch.value and value == res.value

        ok = len(rows) == len(ops) and all(same(r, res) for r, res in zip(rows, ops))
        v.add("cli ldp: rows match the T=0.5 surface", ok, f"{len(rows)} rows", {("cli ldp", 0, 0)})
        return v

    return Workload("rate-surface", stages, cli, verify_cli)


WORKLOADS = {
    "mc-ensemble": mc_ensemble,
    "exact-moments": exact_moments,
    "rate-surface": rate_surface,
}
