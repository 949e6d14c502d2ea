"""Experiment harness: sampling runs, formula-vs-simulation tables,
rate-surface and measure-table exports, and the verification suite.

Every command is deterministic given its flags: Monte Carlo sample i is
drawn from substream (i,) of the master seed, workers only partition the
sample indices (``clt`` and ``verify``, in ``process.log_phi_sums``) or
the xi rows of a rate grid (``ldp``), and each result fills its indexed
slot, so outputs are byte-identical for any worker count.  Floats are
written with 17 significant digits so CSV outputs round-trip exactly.

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
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import ldp
from .asymptotics import (
    EnsembleParams,
    _ks_normal,
    exact_cov_zeta,
    exact_mean_logphi,
    limit_moments,
)
from .equilibrium import (
    cayley_check,
    circle_log_moments,
    circle_logmod_closed,
    edge_equation_residual,
    line_edge,
    line_equilibrium,
    lubinsky_saff_Bf,
    mu_a_measure,
)
from .process import _pool_map, _usable_cpus, log_path, log_phi_sums
from .sampler import DeformedVerblunskySample, SamplingError, ensemble_gammas, substream
from .specfun import DomainError

__all__ = ["main"]


def _parse_seed(text: str) -> int:
    seed = int(text, 0)  # accepts decimal and 0x-prefixed hex
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text!r}")
    return seed


MAX_GRID_POINTS = 10**7


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'a:b:step' into an inclusive grid of at most MAX_GRID_POINTS points."""
    try:
        a, b, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be 'a:b:step', got {spec!r}"
        ) from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise argparse.ArgumentTypeError(f"grid parts must be finite, got {spec!r}")
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad grid bounds {spec!r}")
    steps = (b - a) / step + 1e-9  # inf when b - a overflows
    if not steps < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return a + step * np.arange(int(math.floor(steps)) + 1)


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--beta", type=float, required=True, help="inverse temperature")
    p.add_argument("--delta-re", type=float, default=None)
    p.add_argument("--delta-im", type=float, default=None)
    p.add_argument("--scaled-d-re", type=float, default=None)
    p.add_argument("--scaled-d-im", type=float, default=None)


def _at_least(flag: str, value: int, least: int) -> int:
    if value < least:
        raise DomainError(f"{flag} must be at least {least}, got {value}")
    return value


def _params_from_args(args) -> EnsembleParams:
    if args.scaled_d_re is not None:
        if args.delta_re is not None or args.delta_im is not None:
            raise DomainError("give either --delta-re/--delta-im or --scaled-d-re, not both")
        return EnsembleParams(
            args.n, args.beta, scaled_d=complex(args.scaled_d_re, args.scaled_d_im or 0.0)
        )
    if args.scaled_d_im is not None:
        raise DomainError("--scaled-d-im needs --scaled-d-re")
    delta = complex(args.delta_re or 0.0, args.delta_im or 0.0)
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


# one path-table row per k of ``LogPolyPath.rows()``
PATH_HEADER = "k,t,re_log_phi,im_log_phi,re_zeta,im_zeta"
PATH_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
RATE_HEADER = "T,xi,eta,d_re,d_im,h,branch,gamma,rho\n"
RATE_ROW = "%.17g," * 6 + "%s,%s\n"
# Fewest rate points an ldp worker is given, an eta = 0 point counting as
# a tenth of one.  A pool costs about 15 ms to start; on 2 CPUs a grid with
# eta != 0 won that back from about 150 points (110 points: 71 ms serial,
# 80 ms pooled; 220 points: 141 against 88 ms), so a pool starts from 200
# points there.  An eta = 0 point costs tens of microseconds: at T = 0.9
# lines of 300 and 600 points took 18.5 and 25.1 ms serial against 31.9
# and 40.8 ms pooled, and 1,000 points broke even, so such a line pools
# from 2,000 points.
LDP_POINTS_PER_WORKER = 100


def _rate_row(T: float, d: complex, eta_grid, xi) -> str:
    """The CSV lines of one xi row of the rate surface, one per eta, as
    ``_table`` would format them; the last cell holds both multipliers,
    empty off the interior branch."""
    lines = []
    for eta in eta_grid:
        try:
            res = ldp.marginal_rate_h(ldp.RatePoint(T, xi, eta, d))
        except ldp.SolverError:
            h, branch, mult = math.nan, "unsolved", ","
        else:
            h, branch = res.value, res.branch.value
            mult = "%.17g,%.17g" % res.multipliers if res.multipliers else ","
        lines.append(RATE_ROW % (T, xi, eta, d.real, d.imag, h, branch, mult))
    return "".join(lines)


# ---------------------------------------------------------------- commands

def _sample_rows(params: EnsembleParams, seed: int, count: int) -> Iterator[tuple]:
    for i in range(count):
        gamma = ensemble_gammas(params, substream(seed, i))
        sample = DeformedVerblunskySample(gamma=gamma, seed=seed, params=params)
        for row in log_path(sample).rows():
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
    ms = np.floor(n * grid + 1e-9).astype(int)
    ms = ms[(ms >= 1) & (ms <= n)]
    means, covs = exact_mean_logphi(params, ms), exact_cov_zeta(params, ms)
    asyms, cov_lims = limit_moments(params, ms)
    rows = zip(ms.tolist(), means.tolist(), asyms.tolist(), covs, cov_lims)
    for m, mean, asym, cov, cov_lim in rows:
        yield m / n, m, mean, asym, cov, cov_lim


def _cmd_moments(args) -> int:
    params = _params_from_args(args)
    rows = _moment_rows(params, args.t_grid)
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
    if params.regime == "scaled":  # theta's log n centring holds for a fixed deformation
        raise DomainError("clt takes a fixed deformation only (--delta-re/--delta-im), not --scaled-d-re")
    n = _at_least("--n", params.n, 2)  # theta divides by sqrt(log n)
    # the JSON summary takes sample variances
    count = _at_least("--samples", args.samples, 2 if args.format == "json" else 1)
    workers = _at_least("--workers", args.workers, 1)
    sums = log_phi_sums(params, args.seed, count, workers)
    shift, _ = limit_moments(params, n)
    theta = (sums - shift) / math.sqrt(math.log(n))
    if args.format == "csv":
        rows = zip(range(theta.size), theta.real.tolist(), theta.imag.tolist())
        chunks = _table("sample,re_theta,im_theta", "%d,%.17g,%.17g", rows)
    else:
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
            "ks_distance": [_ks_normal(theta.real, target_sd), _ks_normal(theta.imag, target_sd)],
        })
    _write(args.out, chunks)
    return 0


def _cmd_ldp(args) -> int:
    d = complex(args.scaled_d_re or 0.0, args.scaled_d_im)
    eta_grid = np.array([0.0]) if args.eta_grid is None else args.eta_grid
    # T, d and d's shift hold for every point: reject them before any worker starts
    ldp.RatePoint(args.T, args.xi_grid[0], eta_grid[0], d)
    ldp.shift_constant(args.T, d)
    tenths = len(args.xi_grid) * (10 * np.count_nonzero(eta_grid) + np.count_nonzero(eta_grid == 0))
    workers = min(_usable_cpus(), tenths // (10 * LDP_POINTS_PER_WORKER))
    rows = _pool_map(partial(_rate_row, args.T, d, eta_grid), args.xi_grid, workers)
    _write(args.out, [RATE_HEADER, *rows])
    return 0


def _density_rows(measure, npts: int) -> List[tuple]:
    lo, hi = measure.support
    return [(x, float(measure.density(x))) for x in np.linspace(lo, hi, npts)]


def _cmd_equilibrium(args) -> int:
    a = args.scaled_d_re
    npts = _at_least("--samples", args.samples, 1)
    r = 2.0 * a
    mu = mu_a_measure(a)
    g = line_equilibrium(r)
    if args.format == "json":
        logmod, argmom = circle_log_moments(a)
        cayley = cayley_check(r)
        _write(args.out, _json({
            "a": a,
            "r": r,
            "circle_mass": mu.mass(),
            "line_mass": g.mass(),
            "logmod_residual": logmod - circle_logmod_closed(a),
            "arg_moment": argmom,
            "edge_equation_residual": edge_equation_residual(r, line_edge(r)),
            "transform_mass_defect": lubinsky_saff_Bf(r),
            "cayley_endpoint_residual": cayley.endpoint_residual,
            "cayley_max_density_rel_err": cayley.max_density_rel_err,
        }))
        return 0
    # The circle table goes to --out, a file's line table to <stem>.line<suffix>
    # (os.path.splitext); both are computed before either is written.
    tables = [(args.out, "theta,density", _density_rows(mu, npts))]
    if args.out and args.out != "-":
        stem, suffix = os.path.splitext(args.out)
        tables.append((f"{stem}.line{suffix}", "x,density", _density_rows(g, npts)))
    for path, header, rows in tables:
        _write(path, _table(header, "%.17g,%.17g", rows))
    return 0


def _cmd_verify(args) -> int:
    from . import verification

    ids = args.checks.split(",") if args.checks is not None else None
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
    p.add_argument("--t-grid", type=_parse_grid, default="0.1:1.0:0.1")
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

    p = sub.add_parser(
        "ldp", help="marginal rate surface export",
        description="Tabulate the marginal rate h(T, xi, eta) with its branch and multipliers. "
        "The xi rows run on the CPUs this process may use (limit them with taskset); "
        "the output is byte-identical for any CPU count.",
    )
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--xi-grid", type=_parse_grid, required=True)
    p.add_argument("--eta-grid", type=_parse_grid, default=None)
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
        # a domain edge ends in one error line, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
