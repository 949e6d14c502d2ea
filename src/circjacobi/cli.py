"""Experiment harness: sampling runs, formula-vs-simulation tables,
rate-surface and measure-table exports, and the verification suite.

Every command is deterministic given its flags: Monte Carlo sample i is
drawn from substream (i,) of the master seed, workers only partition the
sample indices, and aggregation fills indexed slots, so outputs are
byte-identical for any worker count.  Floats are written with 17
significant digits so CSV outputs round-trip exactly.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 sampling failure (a rejection step exceeded its iteration cap, or a disc
coefficient rounded onto the unit circle).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from . import ldp
from . import verification
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
from .process import log_path
from .sampler import DeformedVerblunskySample, SamplingError, ensemble_gammas, substream
from .specfun import DomainError, entropy_J

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def _params_from_args(args) -> EnsembleParams:
    if args.scaled_d_re is not None:
        if args.delta_re is not None:
            raise DomainError("give either --delta-re or --scaled-d-re, not both")
        return EnsembleParams(
            args.n, args.beta, scaled_d=complex(args.scaled_d_re, args.scaled_d_im)
        )
    delta = complex(args.delta_re or 0.0, args.delta_im)
    return EnsembleParams(args.n, args.beta, delta=delta)


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


# ----------------------------------------------------------------- workers

_WORKER_PARAMS: Optional[EnsembleParams] = None
_WORKER_SEED = 0


def _pool_init(params: EnsembleParams, seed: int) -> None:
    global _WORKER_PARAMS, _WORKER_SEED
    _WORKER_PARAMS = params
    _WORKER_SEED = seed


def _draw_log_sum(index: int) -> complex:
    gamma = ensemble_gammas(_WORKER_PARAMS, substream(_WORKER_SEED, index))
    return complex(np.sum(np.log(1.0 - gamma)))


def _log_sums(params: EnsembleParams, seed: int, count: int, workers: int):
    """Per-sample log Phi_n(1), indexed by sample; worker-count invariant."""
    if workers <= 1:
        _pool_init(params, seed)
        return np.array([_draw_log_sum(i) for i in range(count)])
    ctx = get_context("fork")
    with ctx.Pool(workers, initializer=_pool_init, initargs=(params, seed)) as pool:
        vals = pool.map(_draw_log_sum, range(count), chunksize=max(1, count // (4 * workers)))
    return np.array(vals)


# ---------------------------------------------------------------- commands

def _cmd_sample(args) -> int:
    params = _params_from_args(args)
    fh, close = _open_out(args.out)
    try:
        fh.write("sample,k,t,re_log_phi,im_log_phi,re_zeta,im_zeta\n")
        n = params.n
        for i in range(args.samples):
            gamma = ensemble_gammas(params, substream(args.seed, i))
            sample = DeformedVerblunskySample(gamma=gamma, seed=args.seed, params=params)
            path = log_path(sample, centered=True)
            for k in range(n + 1):
                v, z = path.values[k], path.zeta[k]
                fh.write(
                    f"{i},{k},{_fmt(k / n)},{_fmt(v.real)},{_fmt(v.imag)},"
                    f"{_fmt(z.real)},{_fmt(z.imag)}\n"
                )
    finally:
        if close:
            fh.close()
    return 0


def _cmd_moments(args) -> int:
    params = _params_from_args(args)
    n = params.n
    grid = _parse_grid(args.t_grid)
    rows = []
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
        rows.append(
            (t_n, m, mean, asym, cov, cov_lim)
        )
    fh, close = _open_out(args.out)
    try:
        if args.format == "json":
            payload = [
                {
                    "t": t_n,
                    "m": m,
                    "exact_mean": [mean.real, mean.imag],
                    "asymptotic_mean": [asym.real, asym.imag],
                    "exact_cov": cov.tolist(),
                    "limit_cov": cov_lim.tolist(),
                }
                for (t_n, m, mean, asym, cov, cov_lim) in rows
            ]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(
                "t,m,exact_mean_re,exact_mean_im,asym_mean_re,asym_mean_im,"
                "cov_xx,cov_xy,cov_yy,limit_cov_xx,limit_cov_xy,limit_cov_yy\n"
            )
            for (t_n, m, mean, asym, cov, cov_lim) in rows:
                cells = [
                    _fmt(t_n), str(m),
                    _fmt(mean.real), _fmt(mean.imag),
                    _fmt(complex(asym).real), _fmt(complex(asym).imag),
                    _fmt(cov[0, 0]), _fmt(cov[0, 1]), _fmt(cov[1, 1]),
                    _fmt(cov_lim[0, 0]), _fmt(cov_lim[0, 1]), _fmt(cov_lim[1, 1]),
                ]
                fh.write(",".join(cells) + "\n")
    finally:
        if close:
            fh.close()
    return 0


def _cmd_clt(args) -> int:
    params = _params_from_args(args)
    n = params.n
    sums = _log_sums(params, args.seed, args.samples, args.workers)
    delta = params.effective_delta
    shift = (delta / params.beta_prime) * math.log(n)
    theta = (sums - shift) / math.sqrt(math.log(n))
    fh, close = _open_out(args.out)
    try:
        if args.format == "csv":
            fh.write("sample,re_theta,im_theta\n")
            for i, v in enumerate(theta):
                fh.write(f"{i},{_fmt(v.real)},{_fmt(v.imag)}\n")
        else:
            from scipy import stats

            target_sd = math.sqrt(1.0 / params.beta)
            summary = {
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
            }
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    finally:
        if close:
            fh.close()
    return 0


def _cmd_ldp(args) -> int:
    d = complex(args.scaled_d_re or 0.0, args.scaled_d_im)
    xi_grid = _parse_grid(args.xi_grid)
    eta_grid = _parse_grid(args.eta_grid) if args.eta_grid else np.array([0.0])
    fh, close = _open_out(args.out)
    try:
        fh.write("T,xi,eta,d_re,d_im,h,branch,gamma,rho\n")
        for xi in xi_grid:
            for eta in eta_grid:
                try:
                    res = ldp.marginal_rate_h(ldp.RatePoint(args.T, xi, eta, d))
                    h_txt = _fmt(res.value) if math.isfinite(res.value) else "inf"
                    branch = res.branch.value
                    g_txt, r_txt = (
                        (_fmt(res.multipliers[0]), _fmt(res.multipliers[1]))
                        if res.multipliers
                        else ("", "")
                    )
                except ldp.SolverError:
                    h_txt, branch, g_txt, r_txt = "nan", "unsolved", "", ""
                fh.write(
                    f"{_fmt(args.T)},{_fmt(xi)},{_fmt(eta)},{_fmt(d.real)},"
                    f"{_fmt(d.imag)},{h_txt},{branch},{g_txt},{r_txt}\n"
                )
    finally:
        if close:
            fh.close()
    return 0


def _cmd_equilibrium(args) -> int:
    a = args.scaled_d_re
    if a is None or a <= 0:
        raise DomainError("equilibrium needs --scaled-d-re > 0 (the drift a)")
    r = 2.0 * a
    mu = mu_a_measure(a)
    g = line_equilibrium(r)
    npts = args.samples
    fh, close = _open_out(args.out)
    try:
        if args.format == "json":
            logmod, argmom = circle_log_moments(a)
            ref = (
                entropy_J(1 + 2 * a)
                - entropy_J(1 + a)
                - entropy_J(2 * a)
                + entropy_J(a)
            )
            cayley = cayley_check(r)
            summary = {
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
            }
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        else:
            fh.write("theta,density\n")
            lo, hi = mu.support
            for theta in np.linspace(lo, hi, npts):
                fh.write(f"{_fmt(theta)},{_fmt(float(mu.density(theta)))}\n")
    finally:
        if close:
            fh.close()
    if args.format == "csv" and args.out and args.out != "-":
        # companion table for the line measure, columns x, density
        stem, dot, suffix = args.out.rpartition(".")
        line_path = f"{stem}.line.{suffix}" if dot else f"{args.out}.line"
        with open(line_path, "w", newline="") as lf:
            lf.write("x,density\n")
            for x in np.linspace(g.support[0], g.support[1], npts):
                lf.write(f"{_fmt(x)},{_fmt(float(g.density(x)))}\n")
    return 0


def _cmd_verify(args) -> int:
    ids = args.checks.split(",") if args.checks else None
    results = verification.run_all(ids)
    for res in results:
        print(res.row())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if args.out:
        payload = [
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
        ]
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
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
