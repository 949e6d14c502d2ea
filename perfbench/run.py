"""Benchmark of the circjacobi lab, run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-ensemble --seed 1 --seconds 30 --trace 0

It imports the package from ``src/``, builds the workload's inputs from
the seed, and repeats rounds until ``--seconds`` are used up.  A round is
one pass over every op of the workload followed by the workload's CLI
commands through ``circjacobi.cli.main``.  After the rounds, every op's
value is checked (see ``workloads``), and the run prints one line per
check, failure counts by stage and exception type, each metric with its
unit, and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (END_TO_END); set-up
time is the median over fresh interpreters that import ``circjacobi.cli``
and warm the workload up.  Other times are normalised to a reference
machine speed (see ``calibration``); the plain wall times are printed
beside them.  With ``--trace 1`` rounds alternate between untraced and
traced, and the metrics are the per-layer ones (PER_LAYER) from the traced
rounds.  The run record, and the spans of traced rounds, are written under
``.perfbench_out/``.

Exit status: 0 after a completed run (the JSON says whether outputs were
correct), 2 when the package source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import calibration
import spans
from accounting import OpRecord, latency_summary, median_sum, tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
CHUNKS = 10  # timing chunks per stage

# name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "cli_s": "s",
}
PER_LAYER = {
    "sampler.calls": "count",
    "sampler.coeffs": "count",
    "sampler.self_s": "s",
    "sampler.coeffs_per_s": "1/s",
    "sampler.failures": "count",
    "sampler.expected_proposals_per_coeff": "count",
    "sampler.min_acceptance": "ratio",
    "process.calls": "count",
    "process.self_s": "s",
    "specfun.gamma_calls": "count",
    "specfun.gamma_args": "count",
    "specfun.gamma_self_s": "s",
    "specfun.abel_plana_calls": "count",
    "specfun.abel_plana_self_s": "s",
    "specfun.entropy_calls": "count",
    "specfun.entropy_self_s": "s",
    "gammalaw.calls": "count",
    "gammalaw.self_s": "s",
    "asymptotics.rows_direct": "count",
    "asymptotics.rows_abel_plana": "count",
    "asymptotics.self_s": "s",
    "ldp.calls": "count",
    "ldp.self_s": "s",
    "ldp.branch_interior": "count",
    "ldp.branch_linear": "count",
    "ldp.branch_infinite": "count",
    "ldp.unsolved": "count",
    "ldp.errors": "count",
    "equilibrium.calls": "count",
    "equilibrium.self_s": "s",
    "equilibrium.failures": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    if not (SRC / "circjacobi" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import circjacobi.cli  # noqa: F401  (loads every layer)


# ------------------------------------------------------------------ rounds

@dataclass
class Round:
    index: int
    traced: bool
    records: list
    pass_s: float
    chunks: Dict[str, Tuple[float, float]]  # "stage#c" -> (wall s, scale)
    cli_records: list
    cli_s: float
    cli_bytes: int
    tracer: object = None

    @property
    def wall_s(self) -> float:
        return self.pass_s + self.cli_s

    def chunk_s(self, normalised: bool) -> Dict[str, float]:
        return {key: wall * (sc if normalised else 1.0) for key, (wall, sc) in self.chunks.items()}

    def cli_times(self, normalised: bool) -> Dict[str, float]:
        return {r.stage: r.latency_ns / 1e9 * (r.scale if normalised else 1.0) for r in self.cli_records}

    def normalised_s(self) -> float:
        return sum(self.chunk_s(True).values()) + sum(self.cli_times(True).values())


@dataclass
class Errors:
    """First traceback seen for each (stage, exception type)."""

    first: Dict[str, str] = field(default_factory=dict)

    def note(self, where: str, exc: BaseException) -> None:
        key = f"{where}: {type(exc).__name__}"
        if key not in self.first:
            self.first[key] = "".join(traceback.format_exception(exc)).rstrip()


def _run_pass(workload, k: int, tracer, errors: Errors):
    """One pass over every op.  Each stage runs in up to CHUNKS chunks with
    a calibration burst after each; a chunk's time is the sum of its ops'
    latencies, so keeping an op's result costs no measured time."""
    clock = time.perf_counter_ns
    records = []
    chunks = []  # (key, first record, end record, wall s, calibration kind)
    start = clock()
    bursts = [calibration.burst()]
    for stage in workload.stages:
        bounds = np.linspace(0, stage.count, min(CHUNKS, stage.count) + 1).astype(int)
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            first = len(records)
            for j in range(lo, hi):
                if tracer is not None:
                    tracer.op_id = len(records)
                t0 = clock()
                try:
                    out, err = stage.op(j, k), None
                except Exception as exc:  # a failed op is counted, not fatal
                    out, err = None, exc
                latency = clock() - t0
                if err is not None:
                    errors.note(stage.name, err)
                    err = err.with_traceback(None)  # frames would keep their arrays alive
                elif stage.reduce is not None:
                    out = stage.reduce(j, out)
                records.append(OpRecord(stage.name, k, j, latency, out, err))
            wall = sum(r.latency_ns for r in records[first:]) / 1e9
            chunks.append((f"{stage.name}#{c}", first, len(records), wall, stage.speed))
            bursts.append(calibration.burst())
    # What the benchmark keeps must not lengthen the collector's later
    # passes inside timed ops.
    gc.freeze()
    timed = {}
    kinds = [chunk[-1] for chunk in chunks]
    for (key, first, end, wall, _), sc in zip(chunks, calibration.scales(bursts, kinds)):
        timed[key] = (wall, sc)
        for rec in records[first:end]:
            rec.scale = sc
    return records, (clock() - start) / 1e9, timed


def _run_cli(commands, k: int, errors: Errors):
    import circjacobi.cli as cli

    records = []
    start = time.perf_counter_ns()
    bursts = [calibration.settled_burst()]
    for cmd in commands:
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(cmd.argv)
            err = None if rc == 0 else RuntimeError(f"exit code {rc}")
        except Exception as exc:
            err = exc
        records.append(OpRecord(f"cli {cmd.name}", k, 0, time.perf_counter_ns() - t0, None, err))
        bursts.append(calibration.settled_burst())
        if err is not None:
            errors.note(f"cli {cmd.name}", err)
    wall = (time.perf_counter_ns() - start) / 1e9
    for rec, sc in zip(records, calibration.scales(bursts, [c.speed for c in commands])):
        rec.scale = sc
    size = sum(os.path.getsize(c.out) for c in commands if os.path.exists(c.out))
    return records, wall, size


def run_rounds(workload, seconds: float, trace: bool, errors: Errors) -> List[Round]:
    rounds: List[Round] = []
    first_bytes: Dict[str, bytes] = {}
    start = time.perf_counter()
    while True:
        k = len(rounds)
        tracer = spans.Tracer() if trace and k % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            records, pass_s, chunks = _run_pass(workload, k, tracer, errors)
            cli_records, cli_s, cli_bytes = _run_cli(workload.cli, k, errors)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for cmd, rec in zip(workload.cli, cli_records):
            data = Path(cmd.out).read_bytes() if os.path.exists(cmd.out) else b""
            if k == 0:
                first_bytes[cmd.out] = data
            elif data != first_bytes[cmd.out] and rec.error is None:
                rec.error = RuntimeError("CLI output differs from the first round")
                errors.note(rec.stage, rec.error)
        rounds.append(Round(k, tracer is not None, records, pass_s, chunks, cli_records, cli_s, cli_bytes, tracer))
        elapsed = time.perf_counter() - start
        longest = max(r.wall_s for r in rounds[-2:])
        if len(rounds) >= 2 and elapsed + longest > seconds:
            break
    for path, data in first_bytes.items():  # checks read the first round's output
        Path(path).write_bytes(data)
    return rounds


# ------------------------------------------------------------------ checks

def run_checks(workload, rounds: List[Round], errors: Errors):
    """Every stage's and the CLI's checks, plus the worker-count
    determinism check; returns (wrong op keys, check results)."""
    from workloads import CheckResult  # imports the package

    outputs = {
        s.name: [[rec.output for rec in r.records if rec.stage == s.name] for r in rounds]
        for s in workload.stages
    }
    wrong, checks = set(), []
    for stage in workload.stages:
        try:
            verdict = stage.verify(stage, outputs[stage.name])
        except Exception as exc:
            errors.note(f"check {stage.name}", exc)
            checks.append(CheckResult(f"{stage.name}: checks ran", False, repr(exc)))
            wrong |= {(stage.name, r.index, j) for r in rounds for j in range(stage.count)}
            continue
        wrong |= verdict.wrong
        checks += verdict.checks
    try:
        verdict = workload.verify_cli(workload.cli, outputs)
        wrong |= verdict.wrong
        checks += verdict.checks
    except Exception as exc:
        errors.note("check cli", exc)
        checks.append(CheckResult("cli: checks ran", False, repr(exc)))
        wrong |= {(f"cli {c.name}", 0, 0) for c in workload.cli}
    if workload.determinism is not None:
        import circjacobi.cli as cli

        det = workload.determinism
        twin = next(c for c in workload.cli if det.argv[0] == c.argv[0])
        rc = cli.main(det.argv)
        same = rc == 0 and Path(det.out).read_bytes() == Path(twin.out).read_bytes()
        checks.append(CheckResult(f"determinism: {twin.name} output identical with {det.name}", same,
                                  f"exit code {rc}"))
    return wrong, checks


# ----------------------------------------------------------------- metrics

def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time of fresh interpreters that import circjacobi.cli, build the
    workload's inputs and warm up one op of each light stage.  Not
    normalised: a calibration burst next to a process start does not track
    the speed of the start itself."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def warm_up(workload) -> None:
    for stage in workload.stages:
        if stage.warm:
            try:
                stage.op(0, 0)
            except Exception:  # failures are counted in the timed passes
                pass


def end_to_end(rounds: List[Round], wrong, setup, normalised: bool) -> tuple:
    """Counts over every round; times over the untraced rounds, at the
    reference speed (``normalised``) or as plain wall time.  The time
    of one pass, and of the CLI commands, is the sum over chunks (commands)
    of the median across rounds, so a slow spell of the machine during one
    round does not move it."""
    timed = [r for r in rounds if not r.traced]
    ops = tally([rec for r in rounds for rec in r.records], wrong)
    cli = tally([rec for r in rounds for rec in r.cli_records], wrong)
    lat = latency_summary(tally([rec for r in timed for rec in r.records], wrong, normalised))
    attempted, failed = ops.attempted + cli.attempted, ops.failed + cli.failed
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "ok_ops_per_s": statistics.median(ops.ok_per_pass[r.index] for r in timed)
        / median_sum([r.chunk_s(normalised) for r in timed]),
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_s": median_sum([r.cli_times(normalised) for r in timed]),
    }
    detail = {
        "tail_percentile": lat["tail_percentile"],
        "ok_slots": lat["ok_slots"],
        "fail_ratio": failed / attempted,
        "wrong_values": ops.wrong + cli.wrong,
        "failures": {**ops.failures, **cli.failures},
        "rounds": len(rounds),
    }
    return metrics, detail, attempted, failed


def acceptance_counts(workload) -> tuple:
    """Exact acceptance of the rejection sampler, from the public
    disc_acceptance_rate: expected proposals per coefficient (weighted by
    the coefficients each stage draws per pass) and the minimum
    acceptance.  Computed counts, not measurements."""
    import circjacobi.sampler as sp

    cache, per_stage = {}, {}
    weight = proposals = 0.0
    low = None
    for stage in workload.stages:
        if not stage.acceptance:
            continue
        w = p = 0.0
        s_low = 1.0
        for coeffs, r, delta in stage.acceptance:
            key = (r, delta)
            if key not in cache:
                cache[key] = sp.disc_acceptance_rate(r, delta)
            acc = cache[key]
            w += coeffs * stage.count
            p += coeffs * stage.count / acc
            s_low = min(s_low, acc)
        per_stage[stage.name] = {"expected_proposals_per_coeff": p / w, "min_acceptance": s_low}
        weight, proposals = weight + w, proposals + p
        low = s_low if low is None else min(low, s_low)
    summary = {
        "sampler.expected_proposals_per_coeff": proposals / weight if weight else 0.0,
        "sampler.min_acceptance": low if low is not None else 0.0,
    }
    return summary, per_stage


def per_layer(workload, rounds: List[Round]) -> tuple:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    layers = [spans.layer_metrics(r.tracer) for r in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["cli.bytes_out"] = statistics.median(r.cli_bytes for r in traced)
    accept, per_stage = acceptance_counts(workload)
    metrics.update(accept)
    metrics["trace.overhead_ratio"] = statistics.median(r.normalised_s() for r in traced) / statistics.median(
        r.normalised_s() for r in plain
    )
    for r in traced:
        r.tracer.dump(OUT / f"spans-{workload.name}-round{r.index}.npz")
    return {name: metrics[name] for name in PER_LAYER}, {"acceptance_by_stage": per_stage,
                                                          "spans_per_round": [len(r.tracer) for r in traced]}


def environment() -> dict:
    import numpy
    import scipy
    import mpmath
    import circjacobi.specfun as specfun

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no SHA to report
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE"):
        try:
            cpu_caches[name[3:].lower()] = os.sysconf(name)
        except (ValueError, OSError):
            cpu_caches[name[3:].lower()] = None
    nodes = getattr(specfun, "_gauss_nodes", None)
    info = nodes.cache_info() if hasattr(nodes, "cache_info") else None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_cache_bytes": cpu_caches,
        "gauss_nodes_cache": None if info is None else {"size": info.currsize, "max": info.maxsize},
    }


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    from workloads import WORKLOADS  # imports the package

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = OUT / f"cli-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, str(tmp))
    if args.setup_probe:
        warm_up(workload)
        return 0
    tmp.mkdir(parents=True, exist_ok=True)

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    warm_up(workload)
    gc.freeze()
    errors = Errors()
    rounds = run_rounds(workload, args.seconds, bool(args.trace), errors)
    wrong, checks = run_checks(workload, rounds, errors)
    e2e, detail, attempted, failed = end_to_end(rounds, wrong, setup_times, normalised=True)
    wall = end_to_end(rounds, wrong, setup_times, normalised=False)[0]
    correct = detail["wrong_values"] == 0 and all(c.passed for c in checks)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "stages": {s.name: s.count for s in workload.stages},
        "cli": [c.argv for c in workload.cli],
        "setup_s_samples": setup_times,
        "rounds": [{"index": r.index, "traced": r.traced, "pass_s": r.pass_s, "cli_s": r.cli_s,
                    "normalised_s": r.normalised_s(), "cli_bytes": r.cli_bytes,
                    "median_scale": statistics.median(sc for _, sc in r.chunks.values()),
                    "chunks": r.chunks, "cli": {c.stage: (c.latency_ns / 1e9, c.scale) for c in r.cli_records},
                    "p50_ms": statistics.median(rec.latency_ns * rec.scale / 1e6 for rec in r.records if rec.error is None)}
                   for r in rounds],
        "checks": [vars(c) for c in checks],
        "end_to_end": e2e,
        "end_to_end_wall": wall,
        "detail": detail,
        "first_tracebacks": errors.first,
    }
    if args.trace:
        metrics, layer_detail = per_layer(workload, rounds)
        record["per_layer"] = metrics
        record.update(layer_detail)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    (OUT / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    for path in tmp.iterdir():
        path.unlink()
    tmp.rmdir()

    env = record["environment"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(rounds)} rounds; "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']}")
    for c in checks:
        print(f"check {'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    for key, count in sorted(detail["failures"].items()):
        print(f"failed ops {key}: {count}")
    print(f"attempted {attempted}, failed {failed}, fail_ratio {detail['fail_ratio']:.4f}")
    for name, unit in units.items():
        extra = ""
        if not args.trace and unit in ("s", "ms", "1/s") and name != "setup_s":
            extra = f" (wall {wall[name]:.6g} {unit})"
        if name == "op_tail_ms":
            extra += f" (p{detail['tail_percentile']:g} of {detail['ok_slots']} op slots)"
        print(f"{name} = {metrics[name]:.6g} {unit}{extra}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
