"""Experiment harness: sampling runs, formula-vs-simulation tables,
rate-surface and measure-table exports, and the verification suite.

Every command is deterministic given its flags: Monte Carlo sample i is
drawn from substream (i,) of the master seed, workers only partition the
sample indices, and aggregation fills indexed slots, so outputs are
byte-identical for any worker count.  Floats are written with 17
significant digits so CSV outputs round-trip exactly.

Each command yields the rows of a CSV table or builds one JSON payload,
and one writer sends the text to stdout or to ``--out``.  A file output is
complete or absent: a command that fails part-way removes its file before
it reports the error.  Stdout streams, so there a failing command may
leave part of its output.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 sampling failure (a rejection step exceeded its iteration cap, or a disc
coefficient rounded onto the unit circle).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from functools import partial
from multiprocessing import get_context
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import ldp
from .asymptotics import (
    EnsembleParams,
    exact_cov_zeta,
    exact_mean_logphi,
    limit_covariance,
    limit_mean_functions,
)
from .equilibrium import (
    cayley_check,
    circle_log_moments,
    edge_equation_residual,
    line_edge,
    line_equilibrium,
    lubinsky_saff_Bf,
    mu_a_measure,
)
from .process import PATH_HEADER, PATH_ROW, log_path
from .sampler import DeformedVerblunskySample, SamplingError, ensemble_gammas, substream
from .specfun import DomainError, entropy_J

__all__ = ["main"]


def _parse_seed(text: str) -> int:
    return int(text, 0)  # accepts decimal and 0x-prefixed hex


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'a:b:step' into an inclusive grid."""
    try:
        a, b, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be 'a:b:step', got {spec!r}"
        ) from exc
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad grid bounds {spec!r}")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return a + step * np.arange(count)


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--beta", type=float, required=True, help="inverse temperature")
    p.add_argument("--delta-re", type=float, default=None)
    p.add_argument("--delta-im", type=float, default=0.0)
    p.add_argument("--scaled-d-re", type=float, default=None)
    p.add_argument("--scaled-d-im", type=float, default=0.0)


def _at_least(flag: str, value: int, least: int) -> int:
    if value < least:
        raise DomainError(f"{flag} must be at least {least}, got {value}")
    return value


def _params_from_args(args) -> EnsembleParams:
    if args.scaled_d_re is not None:
        if args.delta_re is not None:
            raise DomainError("give either --delta-re or --scaled-d-re, not both")
        return EnsembleParams(
            args.n, args.beta, scaled_d=complex(args.scaled_d_re, args.scaled_d_im)
        )
    delta = complex(args.delta_re or 0.0, args.delta_im)
    return EnsembleParams(args.n, args.beta, delta=delta)


# ------------------------------------------------------------------ output

def _write(path: Optional[str], chunks: Iterable[str]) -> None:
    """Write text chunks to stdout (``path`` None or "-") or to a file.

    A regular file ends up complete or absent: on any exception, including
    KeyboardInterrupt, it is removed and the exception re-raised.  Stdout,
    and a path that is not a regular file (a device, a pipe, a symlink such
    as /dev/stdout), stream: a failing command may leave part of its
    output there.
    """
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        if regular:
            os.remove(path)
        raise


def _table(header: str, row_format: str, rows: Iterable[tuple]) -> Iterator[str]:
    """CSV lines: the header, then ``row_format % row`` for each row.  Rows
    format floats with ``%.17g`` (round-trip exact, and ``-0``, ``inf`` and
    ``nan`` as ``f"{x:.17g}"`` writes them) and ints with ``%d``."""
    yield header + "\n"
    row_format += "\n"
    for row in rows:
        yield row_format % row


def _json(payload) -> Tuple[str]:
    return (json.dumps(payload, indent=2) + "\n",)


# ----------------------------------------------------------------- workers

def _draw_log_sum(params: EnsembleParams, seed: int, index: int) -> complex:
    gamma = ensemble_gammas(params, substream(seed, index))
    return complex(np.sum(np.log(1.0 - gamma)))


def _log_sums(params: EnsembleParams, seed: int, count: int, workers: int):
    """Per-sample log Phi_n(1), indexed by sample; worker-count invariant."""
    draw = partial(_draw_log_sum, params, seed)
    if workers <= 1:
        return np.array(list(map(draw, range(count))))
    with get_context("fork").Pool(workers) as pool:
        return np.array(pool.map(draw, range(count), chunksize=max(1, count // (4 * workers))))


# ---------------------------------------------------------------- commands

def _sample_rows(params: EnsembleParams, seed: int, count: int) -> Iterator[tuple]:
    for i in range(count):
        gamma = ensemble_gammas(params, substream(seed, i))
        sample = DeformedVerblunskySample(gamma=gamma, seed=seed, params=params)
        for row in log_path(sample, centered=True).rows():
            yield (i, *row)


def _cmd_sample(args) -> int:
    params = _params_from_args(args)
    rows = _sample_rows(params, args.seed, _at_least("--samples", args.samples, 1))
    _write(args.out, _table("sample," + PATH_HEADER, "%d," + PATH_ROW, rows))
    return 0


def _moment_rows(params: EnsembleParams, grid: np.ndarray) -> Iterator[tuple]:
    """(t, m, exact mean, asymptotic mean, exact cov, limit cov) for each
    time of the grid that falls on a rank m in 1..n."""
    n = params.n
    for t in grid:
        m = int(math.floor(n * t + 1e-9))
        if not 1 <= m <= n:
            continue
        mean = exact_mean_logphi(params, m)
        cov = exact_cov_zeta(params, m)
        t_n = m / n
        if params.regime == "scaled":
            e_val, f_val = limit_mean_functions(params.scaled_d, t_n)
            # O(1) constant is (1/beta - 1/2) F: the exact digamma sums
            # converge to it (beta = 2 makes it vanish).
            asym = n * e_val + (1.0 / params.beta - 0.5) * f_val
            _, cov_lim = limit_covariance(params.scaled_d, t_n, params.beta)
        else:
            delta = params.effective_delta
            if t_n < 1.0:
                asym = -(delta / params.beta_prime) * math.log(1.0 - t_n)
                _, cov_lim = limit_covariance(0.0, t_n, params.beta)
            else:
                asym = (delta / params.beta_prime) * math.log(n)
                cov_lim = np.eye(2) * (math.log(n) / params.beta)
        yield t_n, m, mean, complex(asym), cov, cov_lim


def _cmd_moments(args) -> int:
    params = _params_from_args(args)
    rows = _moment_rows(params, _parse_grid(args.t_grid))
    if args.format == "json":
        chunks = _json([
            {
                "t": t_n,
                "m": m,
                "exact_mean": [mean.real, mean.imag],
                "asymptotic_mean": [asym.real, asym.imag],
                "exact_cov": cov.tolist(),
                "limit_cov": cov_lim.tolist(),
            }
            for (t_n, m, mean, asym, cov, cov_lim) in rows
        ])
    else:
        chunks = _table(
            "t,m,exact_mean_re,exact_mean_im,asym_mean_re,asym_mean_im,"
            "cov_xx,cov_xy,cov_yy,limit_cov_xx,limit_cov_xy,limit_cov_yy",
            "%.17g,%d" + ",%.17g" * 10,
            (
                (t_n, m, mean.real, mean.imag, asym.real, asym.imag,
                 cov[0, 0], cov[0, 1], cov[1, 1], lim[0, 0], lim[0, 1], lim[1, 1])
                for (t_n, m, mean, asym, cov, lim) in rows
            ),
        )
    _write(args.out, chunks)
    return 0


def _cmd_clt(args) -> int:
    params = _params_from_args(args)
    n = _at_least("--n", params.n, 2)  # theta divides by sqrt(log n)
    # the JSON summary takes sample variances
    count = _at_least("--samples", args.samples, 2 if args.format == "json" else 1)
    sums = _log_sums(params, args.seed, count, args.workers)
    delta = params.effective_delta
    shift = (delta / params.beta_prime) * math.log(n)
    theta = (sums - shift) / math.sqrt(math.log(n))
    if args.format == "csv":
        rows = zip(range(theta.size), theta.real.tolist(), theta.imag.tolist())
        chunks = _table("sample,re_theta,im_theta", "%d,%.17g,%.17g", rows)
    else:
        from scipy import stats

        target_sd = math.sqrt(1.0 / params.beta)
        chunks = _json({
            "n": n,
            "beta": params.beta,
            "samples": args.samples,
            "mean": [theta.real.mean(), theta.imag.mean()],
            "variance": [
                theta.real.var(ddof=1),
                theta.imag.var(ddof=1),
            ],
            "limit_variance": 1.0 / params.beta,
            "ks_distance": [
                stats.kstest(theta.real, stats.norm(0, target_sd).cdf).statistic,
                stats.kstest(theta.imag, stats.norm(0, target_sd).cdf).statistic,
            ],
        })
    _write(args.out, chunks)
    return 0


def _rate_rows(T: float, d: complex, xi_grid, eta_grid) -> Iterator[tuple]:
    """One row per grid point; the last cell holds both multipliers, empty
    off the interior branch."""
    for xi in xi_grid:
        for eta in eta_grid:
            try:
                res = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, d))
            except ldp.SolverError:
                yield T, xi, eta, d.real, d.imag, math.nan, "unsolved", ","
                continue
            h = res.value if math.isfinite(res.value) else math.inf
            mult = "%.17g,%.17g" % res.multipliers if res.multipliers else ","
            yield T, xi, eta, d.real, d.imag, h, res.branch.value, mult


def _cmd_ldp(args) -> int:
    d = complex(args.scaled_d_re or 0.0, args.scaled_d_im)
    xi_grid = _parse_grid(args.xi_grid)
    eta_grid = _parse_grid(args.eta_grid) if args.eta_grid else np.array([0.0])
    rows = _rate_rows(args.T, d, xi_grid, eta_grid)
    _write(args.out, _table(
        "T,xi,eta,d_re,d_im,h,branch,gamma,rho", "%.17g," * 6 + "%s,%s", rows
    ))
    return 0


def _density_rows(measure, npts: int) -> List[tuple]:
    lo, hi = measure.support
    return [(x, float(measure.density(x))) for x in np.linspace(lo, hi, npts)]


def _cmd_equilibrium(args) -> int:
    a = args.scaled_d_re
    if a is None or a <= 0:
        raise DomainError("equilibrium needs --scaled-d-re > 0 (the drift a)")
    npts = _at_least("--samples", args.samples, 1)
    r = 2.0 * a
    mu = mu_a_measure(a)
    g = line_equilibrium(r)
    if args.format == "json":
        logmod, argmom = circle_log_moments(a)
        ref = (
            entropy_J(1 + 2 * a)
            - entropy_J(1 + a)
            - entropy_J(2 * a)
            + entropy_J(a)
        )
        cayley = cayley_check(r)
        _write(args.out, _json({
            "a": a,
            "r": r,
            "circle_mass": mu.mass(),
            "line_mass": g.mass(),
            "logmod_residual": logmod - ref,
            "arg_moment": argmom,
            "edge_equation_residual": edge_equation_residual(r, line_edge(r)),
            "transform_mass_defect": lubinsky_saff_Bf(r),
            "cayley_endpoint_residual": cayley.endpoint_residual,
            "cayley_max_density_rel_err": cayley.max_density_rel_err,
        }))
        return 0
    # The circle table goes to --out; a file also gets the line table as a
    # companion <stem>.line.<suffix>.  Both tables are computed before
    # either is written.
    tables = [(args.out, "theta,density", _density_rows(mu, npts))]
    if args.out and args.out != "-":
        stem, dot, suffix = args.out.rpartition(".")
        line_path = f"{stem}.line.{suffix}" if dot else f"{args.out}.line"
        tables.append((line_path, "x,density", _density_rows(g, npts)))
    for path, header, rows in tables:
        _write(path, _table(header, "%.17g,%.17g", rows))
    return 0


def _cmd_verify(args) -> int:
    # imported here: it loads scipy.stats, which no other command needs
    from . import verification

    ids = args.checks.split(",") if args.checks else None
    results = verification.run_all(ids)
    for res in results:
        print(res.row())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if args.out:
        _write(args.out, _json([
            {
                "check": r.check,
                "computed": r.computed,
                "reference": r.reference,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ]))
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circjacobi",
        description="Numerical laboratory for circular Jacobi beta-ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="export sampled log-polynomial trajectories")
    _add_ensemble_flags(p)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("moments", help="exact vs asymptotic moment table")
    _add_ensemble_flags(p)
    p.add_argument("--t-grid", default="0.1:1.0:0.1")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("clt", help="normalized log-determinant statistics")
    _add_ensemble_flags(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("ldp", help="marginal rate surface export")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--xi-grid", required=True)
    p.add_argument("--eta-grid", default=None)
    p.add_argument("--scaled-d-re", type=float, default=None)
    p.add_argument("--scaled-d-im", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ldp)

    p = sub.add_parser("equilibrium", help="equilibrium densities and residuals")
    p.add_argument("--scaled-d-re", type=float, required=True, help="drift a > 0")
    p.add_argument("--samples", type=int, default=256, help="table points")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--checks", default=None, help="comma-separated check ids")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
