import argparse
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from circjacobi import asymptotics, cli, ldp, process, sampler, verification
from circjacobi.asymptotics import EnsembleParams
from circjacobi.cli import PATH_ROW
from circjacobi.process import log_path

from test_startup import SRC, _python


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = cli.main(args + ["--out", str(out)])
    return rc, out.read_text()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run every worker pool in process; the list gets the size of each pool
    started."""
    sizes = []

    class SerialPool:
        def __init__(self, size, *initializer):
            # not run: it would make this process a pool worker
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
    return sizes


class TestSampleCommand:
    def test_schema_and_determinism(self, tmp_path):
        args = [
            "sample", "--n", "16", "--beta", "2", "--delta-re", "0.5",
            "--samples", "2", "--seed", "7",
        ]
        rc1, text1 = run(tmp_path, "a.csv", args)
        rc2, text2 = run(tmp_path, "b.csv", args)
        assert rc1 == rc2 == 0
        assert text1 == text2
        lines = text1.splitlines()
        assert lines[0] == "sample,k,t,re_log_phi,im_log_phi,re_zeta,im_zeta"
        assert len(lines) == 1 + 2 * 17
        assert lines[1].split(",")[:3] == ["0", "0", "0"]

    def test_seed_hex_decimal_equivalence(self, tmp_path):
        base = ["sample", "--n", "8", "--beta", "2", "--delta-re", "0.25", "--samples", "1"]
        _, a = run(tmp_path, "dec.csv", base + ["--seed", "42"])
        _, b = run(tmp_path, "hex.csv", base + ["--seed", "0x2a"])
        assert a == b

    def test_scaled_regime(self, tmp_path):
        rc, text = run(
            tmp_path, "s.csv",
            ["sample", "--n", "8", "--beta", "2", "--scaled-d-re", "0.5", "--samples", "1", "--seed", "1"],
        )
        assert rc == 0
        assert len(text.splitlines()) == 10

    def test_drift_regime_samples(self, tmp_path):
        # delta = beta/2 * d * n = 32, deep in the drift regime
        rc, text = run(
            tmp_path, "d.csv",
            ["sample", "--n", "64", "--beta", "2", "--scaled-d-re", "0.5", "--samples", "4"],
        )
        assert rc == 0
        assert len(text.splitlines()) == 1 + 4 * 65

    def test_rows_follow_sample_ensemble(self, tmp_path):
        # the one randomness contract: sample 0 of the seed in both places
        cases = (
            (7, ["--delta-re", "0.5", "--delta-im", "0.2"], {"delta": 0.5 + 0.2j}),
            (0x2A, ["--scaled-d-re", "0.5"], {"scaled_d": 0.5}),
        )
        for seed, flags, kw in cases:
            args = ["sample", "--n", "16", "--beta", "2", *flags, "--samples", "1", "--seed", str(seed)]
            rc, text = run(tmp_path, f"{seed}.csv", args)
            assert rc == 0
            path = log_path(sampler.sample_ensemble(EnsembleParams(16, 2.0, **kw), seed))
            expected = ["0," + PATH_ROW % row for row in path.rows()]
            assert text.splitlines()[1:] == expected

    def test_removed_flags_fail(self, tmp_path):
        base = ["sample", "--n", "8", "--beta", "2", "--out", str(tmp_path / "x.csv")]
        assert cli.main(base + ["--workers", "2"]) == 2
        assert cli.main(base + ["--format", "json"]) == 2
        assert cli.main(base + ["--format", "csv"]) == 0


class TestMomentsCommand:
    def test_csv_schema(self, tmp_path):
        rc, text = run(
            tmp_path, "m.csv",
            ["moments", "--n", "100", "--beta", "2", "--delta-re", "0.3", "--t-grid", "0.25:0.75:0.25"],
        )
        assert rc == 0
        lines = text.splitlines()
        assert lines[0] == (
            "t,m,exact_mean_re,exact_mean_im,asym_mean_re,asym_mean_im,"
            "cov_xx,cov_xy,cov_yy,limit_cov_xx,limit_cov_xy,limit_cov_yy"
        )
        assert len(lines) == 4
        row = lines[2].split(",")
        assert float(row[0]) == 0.5
        # exact vs asymptotic mean agree loosely at n = 100
        assert abs(float(row[2]) - float(row[4])) < 0.02

    def test_json_roundtrip(self, tmp_path):
        rc, text = run(
            tmp_path, "m.json",
            ["moments", "--n", "64", "--beta", "2", "--scaled-d-re", "1.0",
             "--t-grid", "0.5:1.0:0.5", "--format", "json"],
        )
        assert rc == 0
        payload = json.loads(text)
        assert len(payload) == 2
        assert set(payload[0]) == {
            "t", "m", "exact_mean", "asymptotic_mean", "exact_cov", "limit_cov",
        }

    @pytest.mark.parametrize("params, flags", [
        (EnsembleParams(40, 4.0, delta=0.3 + 0.2j), ["--delta-re", "0.3", "--delta-im", "0.2"]),
        (EnsembleParams(40, 4.0, scaled_d=0.5 + 0.3j), ["--scaled-d-re", "0.5", "--scaled-d-im", "0.3"]),
    ], ids=["fixed", "drift"])
    def test_asymptotic_columns_are_limit_moments(self, params, flags, tmp_path):
        # every row of the grid, the t = 1 row included, bit for bit
        rc, text = run(tmp_path, "m.json", ["moments", "--n", "40", "--beta", "4", *flags,
                                            "--t-grid", "0:1:0.05", "--format", "json"])
        assert rc == 0
        rows = json.loads(text)
        means, covs = asymptotics.limit_moments(params, np.array([row["m"] for row in rows]))
        assert len(rows) == 20 and rows[-1]["t"] == 1.0
        for row, mean, cov in zip(rows, means.tolist(), covs.tolist()):
            assert row["asymptotic_mean"] == [mean.real, mean.imag]
            assert row["limit_cov"] == cov


class TestCltCommand:
    def test_worker_invariance(self, tmp_path):
        base = [
            "clt", "--n", "64", "--beta", "2", "--delta-re", "0",
            "--samples", "40", "--seed", "5", "--format", "csv",
        ]
        texts = []
        for w in (1, 3):
            _, text = run(tmp_path, f"c{w}.csv", base + ["--workers", str(w)])
            texts.append(text)
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[0] == "sample,re_theta,im_theta"

    @pytest.mark.parametrize("workers, samples, pools", [(64, 2, [2]), (3, 5, [3]), (8, 1, [])])
    def test_pool_never_outnumbers_samples(self, workers, samples, pools, tmp_path, pool_sizes):
        base = [
            "clt", "--n", "16", "--beta", "2", "--samples", str(samples), "--seed", "3",
            "--format", "csv",
        ]
        _, text = run(tmp_path, "w.csv", base + ["--workers", str(workers)])
        assert pool_sizes == pools
        _, serial = run(tmp_path, "s.csv", base + ["--workers", "1"])
        assert text == serial

    def test_json_summary(self, tmp_path):
        rc, text = run(
            tmp_path, "c.json",
            ["clt", "--n", "128", "--beta", "2", "--delta-re", "0",
             "--samples", "200", "--seed", "1", "--format", "json"],
        )
        assert rc == 0
        payload = json.loads(text)
        assert payload["limit_variance"] == 0.5
        assert len(payload["variance"]) == 2
        assert all(0.05 < v < 2.0 for v in payload["variance"])


class TestLdpCommand:
    def test_schema_and_branches(self, tmp_path):
        rc, text = run(
            tmp_path, "l.csv",
            ["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.3", "--eta-grid=0.0:0.0:1.0"],
        )
        assert rc == 0
        lines = text.splitlines()
        assert lines[0] == "T,xi,eta,d_re,d_im,h,branch,gamma,rho"
        branches = {line.split(",")[6] for line in lines[1:]}
        assert "linear" in branches and "interior" in branches

    def test_infinite_row(self, tmp_path):
        xi = 0.5 * math.log(2)
        rc, text = run(
            tmp_path, "l2.csv",
            ["ldp", "--T", "0.5", f"--xi-grid={xi}:{xi}:1.0"],
        )
        row = text.splitlines()[1].split(",")
        assert row[5] == "inf" and row[6] == "infinite"

    def test_terminal_time_drift_surface(self, tmp_path):
        rc, text = run(
            tmp_path, "l3.csv",
            ["ldp", "--T", "1", "--scaled-d-re", "0.5", "--xi-grid=-0.3:0.2:0.1",
             "--eta-grid=0.1:0.1:1"],
        )
        assert rc == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            xi = float(row[1])
            if xi < 0:
                assert row[5:] == ["nan", "unsolved", "", ""]
            else:
                assert row[6] == "interior" and math.isfinite(float(row[5]))

    def test_removed_flags_fail(self, tmp_path):
        base = ["ldp", "--T", "0.5", "--xi-grid=0:0:1", "--out", str(tmp_path / "x.csv")]
        assert cli.main(base + ["--format", "json"]) == 2
        assert cli.main(base + ["--format", "csv"]) == 2
        assert cli.main(base) == 0

    # each grid has interior, linear, infinite and unsolved points
    GRIDS = {
        "no-drift": ["--T", "0.5", "--xi-grid=-0.6:0.4:0.2", "--eta-grid=0:0.5:0.25"],
        "drift": ["--T", "1", "--scaled-d-re", "0.5", "--xi-grid=-0.4:0.8:0.3",
                  "--eta-grid=0:0.6:0.3"],
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_cpu_count_invariance(self, grid, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "LDP_POINTS_PER_WORKER", 1)  # pool these small grids
        texts = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            rc, text = run(tmp_path, f"l{cpus}.csv", ["ldp", *self.GRIDS[grid]])
            assert rc == 0 and multiprocessing.active_children() == []
            texts.append(text)
        assert texts[0] == texts[1] == texts[2]
        branches = {line.split(",")[6] for line in texts[0].splitlines()[1:]}
        assert branches == {"interior", "linear", "infinite", "unsolved"}

    @pytest.mark.parametrize("cpus, rows, pools", [(64, 2, [2]), (3, 5, [3]), (8, 1, [])])
    def test_pool_never_outnumbers_rows(self, cpus, rows, pools, tmp_path, monkeypatch, pool_sizes):
        argv = ["ldp", "--T", "0.5", f"--xi-grid=-0.6:{-0.6 + 0.1 * (rows - 1):.1f}:0.1",
                "--eta-grid=-0.2:0.2:0.2"]
        monkeypatch.setattr(cli, "LDP_POINTS_PER_WORKER", 1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        _, text = run(tmp_path, "w.csv", argv)
        assert pool_sizes == pools
        assert len(text.splitlines()) == 1 + 3 * rows
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        _, serial = run(tmp_path, "s.csv", argv)
        assert text == serial

    @pytest.mark.parametrize("cpus, points, pools", [
        (2, 151, []), (2, 300, []), (2, 1999, []), (2, 2000, [2]), (8, 4500, [4]),
    ])
    def test_each_worker_gets_enough_points(self, cpus, points, pools, tmp_path, monkeypatch,
                                            pool_sizes):
        # an eta = 0 line of ``points`` rows, each counting as a tenth of a
        # point; a pool starts only when each worker gets
        # LDP_POINTS_PER_WORKER points, and changes no byte
        assert cli.LDP_POINTS_PER_WORKER == 100
        argv = ["ldp", "--T", "0.9", f"--xi-grid=-0.6:{-0.6 + 0.001 * (points - 1):.3f}:0.001"]
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        _, text = run(tmp_path, "w.csv", argv)
        assert pool_sizes == pools
        assert len(text.splitlines()) == 1 + points
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        _, serial = run(tmp_path, "s.csv", argv)
        assert pool_sizes == pools and text == serial

    def test_benchmark_surface_gets_two_workers(self, tmp_path, monkeypatch, pool_sizes):
        # the rate-surface grid: 91 xi rows of 21 etas, one of them 0, so
        # 1,820 points and 91 tenths of one
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_rate_row", lambda T, d, eta_grid, xi: "")
        rc, _ = run(tmp_path, "b.csv", ["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.01",
                                        "--eta-grid=-0.5:0.5:0.05"])
        assert rc == 0 and pool_sizes == [2]

    @pytest.mark.parametrize("args, message", [
        (["--T", "1", "--xi-grid=0:0.1:0.1"], "T = 1 requires Re d > 0"),
        (["--T", "1.5", "--xi-grid=0:0.1:0.1"], "need 0 < T <= 1"),
        (["--T", "0.5", "--xi-grid=0:0.1:0.1", "--scaled-d-re", "-0.5"], "need Re d >= 0"),
        # a drift that is not finite, or whose shift constant overflows
        (["--T", "0.5", "--xi-grid=0:0.1:0.1", "--scaled-d-re", "nan"], "finite d"),
        (["--T", "0.5", "--xi-grid=0:0.1:0.1", "--scaled-d-im", "inf"], "finite d"),
        (["--T", "1", "--xi-grid=0:0.1:0.1", "--scaled-d-re", "1e308"], "overflows"),
    ])
    def test_domain_is_checked_before_forking(self, args, message, tmp_path, monkeypatch, capsys):
        class Forked(Exception):
            pass

        def no_pool(method):
            raise Forked

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "LDP_POINTS_PER_WORKER", 1)
        eta = "--eta-grid=0.1:0.2:0.1"  # four points of full weight
        # the same grid inside the domain starts a pool
        with pytest.raises(Forked):
            cli.main(["ldp", "--T", "0.5", "--xi-grid=0:0.1:0.1", eta, "--out", str(tmp_path / "in.csv")])
        out = tmp_path / "l.csv"
        assert cli.main(["ldp", *args, eta, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()


# A worker pool that fails in its workers, run in a fresh interpreter so
# that a pool which hangs fails the test at the timeout instead.
POOL_FAILURE = """
import contextlib, io, json, multiprocessing, os
import circjacobi.cli as cli
from circjacobi import ldp, process
from circjacobi.sampler import SamplingError
from circjacobi.specfun import DomainError

cli._usable_cpus = lambda: 3
cli.LDP_POINTS_PER_WORKER = 1  # pool the small ldp grid
error = %s
argv = %r
if argv[0] == "ldp":
    original = ldp.marginal_rate_h

    def failing(point):
        if error is not None and point.xi > 0.05:  # the rows from xi = 0.1 on
            raise error("raised in a worker")
        return original(point)

    ldp.marginal_rate_h = failing
elif error is not None:
    def failing(*args):
        raise error("raised in a worker")

    process.ensemble_gammas = failing
stderr = io.StringIO()
with contextlib.redirect_stderr(stderr):
    try:
        outcome = cli.main(argv + ["--out", "out.csv"])
    except KeyboardInterrupt:
        outcome = "KeyboardInterrupt"
print(json.dumps({"outcome": outcome, "stderr": stderr.getvalue().splitlines(),
                  "children": len(multiprocessing.active_children()), "files": os.listdir(".")}))
"""

POOLED_COMMANDS = {
    "ldp": ["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.1", "--eta-grid=-0.2:0.2:0.2"],
    "clt": ["clt", "--n", "16", "--beta", "2", "--samples", "12", "--workers", "3",
            "--format", "csv"],
}


class TestWorkerFailures:
    """An exception raised in a worker reaches the caller of ``cli.main`` as
    it would from the serial loop, and no worker outlives the command."""

    @pytest.mark.parametrize("command", sorted(POOLED_COMMANDS))
    @pytest.mark.parametrize("error, outcome", [
        ("KeyboardInterrupt", "KeyboardInterrupt"),
        ("DomainError", 2),
        ("SamplingError", 3),
    ])
    def test_worker_exception_reaches_the_caller(self, command, error, outcome, tmp_path):
        script = POOL_FAILURE % (error, POOLED_COMMANDS[command])
        report = json.loads(_python(["-c", script], cwd=tmp_path, timeout=60))
        stderr = [] if outcome == "KeyboardInterrupt" else ["error: raised in a worker"]
        assert report == {"outcome": outcome, "stderr": stderr, "children": 0, "files": []}

    @pytest.mark.parametrize("command", sorted(POOLED_COMMANDS))
    def test_success_leaves_no_worker(self, command, tmp_path):
        script = POOL_FAILURE % (None, POOLED_COMMANDS[command])
        report = json.loads(_python(["-c", script], cwd=tmp_path, timeout=60))
        assert report == {"outcome": 0, "stderr": [], "children": 0, "files": ["out.csv"]}
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 1 + (30 if command == "ldp" else 12)


class TestEquilibriumCommand:
    def test_density_tables(self, tmp_path):
        rc, text = run(
            tmp_path, "e.csv",
            ["equilibrium", "--scaled-d-re", "1.0", "--samples", "8"],
        )
        assert rc == 0
        lines = text.splitlines()
        assert lines[0] == "theta,density"
        assert len(lines) == 9
        line_table = (tmp_path / "e.line.csv").read_text().splitlines()
        assert line_table[0] == "x,density"
        assert len(line_table) == 9

    def test_residual_summary(self, tmp_path):
        rc, text = run(
            tmp_path, "e.json",
            ["equilibrium", "--scaled-d-re", "0.5", "--format", "json"],
        )
        assert rc == 0
        payload = json.loads(text)
        assert abs(payload["circle_mass"] - 1) < 1e-8
        assert abs(payload["line_mass"] - 1) < 1e-8
        assert abs(payload["logmod_residual"]) < 1e-8
        assert abs(payload["cayley_endpoint_residual"]) < 1e-12

    def test_companion_of_a_name_without_suffix(self, tmp_path):
        # a dot in a directory name is not a suffix
        out = tmp_path / "run.1" / "eq"
        out.parent.mkdir()
        assert cli.main(["equilibrium", "--scaled-d-re", "0.5", "--samples", "4", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.parent.iterdir()) == ["eq", "eq.line"]
        assert (out.parent / "eq.line").read_text().startswith("x,density\n")

    def test_removed_flags_fail(self, tmp_path):
        base = ["equilibrium", "--scaled-d-re", "0.5", "--samples", "4",
                "--out", str(tmp_path / "e.csv")]
        assert cli.main(base + ["--scaled-d-im", "0.2"]) == 2
        assert cli.main(base) == 0


class TestUsageErrors:
    def test_missing_required_flag(self):
        assert cli.main(["sample", "--n", "8"]) == 2

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 2

    def test_domain_error_exit_code(self):
        assert cli.main(["equilibrium", "--scaled-d-re", "-1"]) == 2

    @pytest.mark.parametrize("command", ["sample", "clt"])
    def test_negative_delta_names_the_sampled_range(self, tmp_path, capsys, command):
        rc = cli.main(
            [command, "--n", "8", "--beta", "2", "--delta-re", "-0.3",
             "--out", str(tmp_path / "x.csv")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "Re delta >= 0" in err and "-1/2 < Re delta < 0" in err
        assert "unbounded" not in err

    def test_sampling_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def stalled(params, rng):
            raise sampler.SamplingError(
                "angle rejection cap exceeded (empirical acceptance 1.000e-07)"
            )

        monkeypatch.setattr(cli, "ensemble_gammas", stalled)
        rc = cli.main(
            ["sample", "--n", "8", "--beta", "2", "--delta-im", "0.5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empirical acceptance 1.000e-07" in err

    def test_coefficients_on_the_circle(self, tmp_path, capsys):
        # at beta = 0.2 some disc draws round onto the unit circle in float64
        args = ["--n", "64", "--beta", "0.2", "--delta-re", "0.3", "--samples", "200"]
        assert cli.main(["sample"] + args + ["--out", str(tmp_path / "s.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "rounded onto the unit circle" in err[0]
        assert "smallest rank weight involved r = 0.1 " in err[0]
        # the 65 samples drawn before the failing one are not left on disk
        assert list(tmp_path.iterdir()) == []
        out = tmp_path / "c.csv"
        assert cli.main(["clt"] + args + ["--format", "csv", "--out", str(out)]) == 3
        assert not out.exists()

    def _rejected(self, tmp_path, capsys, args):
        out = tmp_path / "x.out"
        assert cli.main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        return err[0]

    def test_equilibrium_negative_samples(self, tmp_path, capsys):
        args = ["equilibrium", "--scaled-d-re", "0.5", "--samples", "-1"]
        err = self._rejected(tmp_path, capsys, args)
        assert err == "error: --samples must be at least 1, got -1"

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_sample_needs_a_sample(self, count, tmp_path, capsys):
        args = ["sample", "--n", "8", "--beta", "2", "--samples", count]
        err = self._rejected(tmp_path, capsys, args)
        assert err == f"error: --samples must be at least 1, got {count}"

    def test_clt_json_needs_two_samples(self, tmp_path, capsys):
        args = ["clt", "--n", "16", "--beta", "2", "--samples", "1"]
        err = self._rejected(tmp_path, capsys, args + ["--format", "json"])
        assert err == "error: --samples must be at least 2, got 1"
        assert cli.main(args + ["--format", "csv", "--out", str(tmp_path / "c.csv")]) == 0

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_clt_needs_a_worker(self, workers, tmp_path, capsys):
        args = ["clt", "--n", "8", "--beta", "2", "--samples", "3", "--format", "csv"]
        err = self._rejected(tmp_path, capsys, args + ["--workers", workers])
        assert err == f"error: --workers must be at least 1, got {workers}"

    def test_clt_needs_two_coefficients(self, tmp_path, capsys):
        args = ["clt", "--n", "1", "--beta", "2", "--samples", "4", "--format", "csv"]
        err = self._rejected(tmp_path, capsys, args)
        assert err == "error: --n must be at least 2, got 1"

    @pytest.mark.parametrize("args", [
        ["moments", "--n", "8", "--beta", "nan"],
        ["moments", "--n", "8", "--beta", "inf"],
        ["moments", "--n", "8", "--beta", "2", "--delta-re", "nan"],
        ["moments", "--n", "8", "--beta", "2", "--delta-im", "-inf"],
        ["moments", "--n", "8", "--beta", "2", "--scaled-d-re", "inf"],
        ["sample", "--n", "8", "--beta", "2", "--scaled-d-re", "0.5", "--scaled-d-im", "nan"],
        ["clt", "--n", "8", "--beta", "nan", "--samples", "3"],
        ["moments", "--n", "8", "--beta", "2", "--t-grid", "0:nan:0.1"],
        ["moments", "--n", "8", "--beta", "2", "--t-grid", "0:1:inf"],
        ["moments", "--n", "8", "--beta", "2", "--t-grid", "0:1:0"],
        ["ldp", "--T", "0.5", "--xi-grid", "-inf:0:0.1"],
        ["ldp", "--T", "0.5", "--xi-grid", "0:0.1:0.1", "--eta-grid", "nan:0:0.1"],
        ["equilibrium", "--scaled-d-re", "nan"],
        ["equilibrium", "--scaled-d-re", "inf"],
    ], ids=lambda args: " ".join(args))
    def test_non_finite_input_is_a_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert cli.main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["moments", "--n", "8", "--beta", "2", "--delta-re", "1e308"],
        ["moments", "--n", "8", "--beta", "1e308", "--delta-re", "0.3"],
        ["sample", "--n", "4", "--beta", "2", "--delta-re", "1e308"],
        ["sample", "--n", "4", "--beta", "1e308", "--delta-re", "0.3"],
        ["clt", "--n", "8", "--beta", "2", "--delta-re", "1e308", "--samples", "3"],
        ["clt", "--n", "8", "--beta", "1e308", "--delta-re", "0.3", "--samples", "3"],
    ], ids=lambda args: " ".join(args))
    def test_overflowing_gamma_shape_is_a_domain_error(self, args, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert cli.main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Gamma shapes" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        # the span overflows to inf, and 1e18 points
        ["ldp", "--T", "0.5", "--xi-grid=-1e308:1e308:1e300"],
        ["ldp", "--T", "0.5", "--xi-grid=0:1e12:1e-6"],
        ["moments", "--n", "8", "--beta", "2", "--t-grid=-1e308:1e308:1e300"],
        ["moments", "--n", "8", "--beta", "2", "--t-grid=0:1e12:1e-6"],
    ], ids=lambda args: " ".join(args))
    def test_grid_too_large_to_build_is_a_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert cli.main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and "Traceback" not in err
        assert errors[0].endswith(f"has more than {cli.MAX_GRID_POINTS} points")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "clt"])
    @pytest.mark.parametrize("seed, text", [
        (["--seed", "-1"], "'-1'"), (["--seed=-5"], "'-5'"), (["--seed=-0x2a"], "'-0x2a'"),
    ], ids=["-1", "-5", "-0x2a"])
    def test_negative_seed_is_a_usage_error(self, command, seed, text, tmp_path, capsys):
        out = tmp_path / "x.out"
        argv = [command, "--n", "4", "--beta", "2", "--samples", "2", *seed, "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and "Traceback" not in err
        assert errors[0].endswith("argument --seed: seed must be non-negative, got " + text)
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        # Abel-Plana rows whose lower end sits next to a pole of the summand
        ["moments", "--n", "20000", "--beta", "2000", "--delta-re", "0.5"],
        ["moments", "--n", "20000", "--beta", "20000", "--delta-re", "0"],
        ["moments", "--n", "20000", "--beta", "2", "--delta-re", "-0.499"],
        # polygamma overflows on the trigamma sums
        ["moments", "--n", "3", "--beta", "2", "--delta-im", "1e300"],
        ["moments", "--n", "30", "--beta", "2", "--delta-im", "1e200"],
        # the log-modulus quadrature stops at 4.6e-10 against its 1e-10, as
        # the density forms sin^2(th/2) - sin^2(th_a/2) by subtraction (item
        # 19); the closed form it is compared with loses 7 digits there (item 15)
        pytest.param(["equilibrium", "--scaled-d-re", "1e8", "--format", "json"],
                     marks=pytest.mark.xfail(strict=True, reason="QuadratureError traceback, "
                                             "ROADMAP items 15 and 19")),
    ], ids=lambda args: " ".join(args))
    def test_domain_edge_prints_no_traceback(self, args, tmp_path):
        # a fresh process, so stderr is what a user sees
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "circjacobi", *args, "--out", str(tmp_path / "x.out")]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert (proc.returncode, len(errors)) in ((0, 0), (2, 1)), proc.stderr
        if proc.returncode == 2:  # the one error line and nothing else, no numpy warning
            assert proc.stderr.splitlines() == errors, proc.stderr

    def test_grid_size_limit(self):
        assert cli._parse_grid("0:1:1e-6").size == 10**6 + 1
        with pytest.raises(argparse.ArgumentTypeError, match="more than"):
            cli._parse_grid(f"0:{cli.MAX_GRID_POINTS}:1")

    @pytest.mark.parametrize("command", ["sample", "moments", "clt"])
    def test_flags_of_the_other_regime_are_rejected(self, command, tmp_path, capsys):
        # each would otherwise be ignored, with output identical to the run without it
        base = [command, "--n", "8", "--beta", "2", "--out", str(tmp_path / "x.out")]
        extra = ["--samples", "3"] if command != "moments" else []
        for flags, message in (
            (["--scaled-d-re", "0.5", "--delta-im", "0.2"], "not both"),
            (["--scaled-d-im", "0.2"], "--scaled-d-im needs --scaled-d-re"),
            (["--delta-re", "0.3", "--scaled-d-im", "0.2"], "--scaled-d-im needs --scaled-d-re"),
        ):
            assert cli.main(base + extra + flags) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        # clt's log n centring holds for a fixed deformation only
        drift_rc = 2 if command == "clt" else 0
        assert cli.main(base + extra + ["--scaled-d-re", "0.5", "--scaled-d-im", "0.2"]) == drift_rc
        if command == "clt":
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: clt takes a fixed deformation only")
            assert "--delta-re/--delta-im" in err[0]
        assert cli.main(base + extra + ["--delta-im", "0.2"]) == 0

    def test_clt_rejects_the_drift_regime_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args):
            raise AssertionError("clt drew a sample in the drift regime")

        monkeypatch.setattr(process, "ensemble_gammas", no_draw)
        out = tmp_path / "c.json"
        argv = ["clt", "--n", "256", "--beta", "2", "--scaled-d-re", "0.5", "--samples", "200",
                "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: clt takes a fixed deformation only") and "Traceback" not in err
        assert not out.exists()

    def test_both_regimes_rejected(self, tmp_path):
        rc = cli.main(
            ["sample", "--n", "8", "--beta", "2", "--delta-re", "0.1",
             "--scaled-d-re", "0.1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestVerifySubset:
    def test_single_check_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "--checks", "07-abel-plana", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "[PASS]" in captured
        payload = json.loads(out.read_text())
        assert payload[0]["pass"] is True
        assert set(payload[0]) == {
            "check", "computed", "reference", "tolerance", "pass", "seconds", "detail",
        }

    def test_unknown_check_id(self, capsys):
        assert cli.main(["verify", "--checks", "99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown check id(s) '99'; valid ids: ")
        assert "01-triple-determinant" in err and "16-determinism" in err

    @pytest.mark.parametrize("checks", ["07-abel-plana,", ""])
    def test_empty_check_id(self, checks, capsys):
        # a trailing comma, or an empty value, leaves an empty id, which is
        # unknown like any other
        assert cli.main(["verify", "--checks", checks]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown check id(s) ''; valid ids: ")
        assert captured.out == ""

    def test_runner_times_the_whole_check(self, monkeypatch):
        original = verification.CHECKS["07-abel-plana"]

        def slow_check():
            time.sleep(0.05)
            return original()

        monkeypatch.setitem(verification.CHECKS, "07-abel-plana", slow_check)
        assert verification.run_check("07-abel-plana").seconds >= 0.05


    def test_time_limit_fails_an_overrun(self, monkeypatch):
        # the runner owns the wall-time limits and names them in the tolerance
        assert verification.TIME_LIMITS == {"01-triple-determinant": 10.0, "02-moment-exactness": 60.0,
                                            "03-cgf-identity": 1.0, "13-energy-duality": 1.0}
        result = verification.run_check("03-cgf-identity")
        assert (result.passed, result.tolerance) == (True, "1e-12, < 1 s")
        monkeypatch.setitem(verification.TIME_LIMITS, "03-cgf-identity", 0.0)
        result = verification.run_check("03-cgf-identity")
        assert (result.passed, result.tolerance) == (False, "1e-12, < 0 s")


def _fail_on_call(func, call):
    """``func``, except that call number ``call`` raises KeyboardInterrupt."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt("interrupted mid-table")
        return func(*args, **kwargs)

    return wrapped


def _interrupt(module, name, call):
    """A patch that makes call number ``call`` of ``module.name`` raise."""
    return lambda mp: mp.setattr(module, name, _fail_on_call(getattr(module, name), call))


def _interrupt_line_density(mp):
    original = cli.line_equilibrium

    def line_equilibrium(r):
        g = original(r)
        return type(g)(density=_fail_on_call(g.density, 3), support=g.support)

    mp.setattr(cli, "line_equilibrium", line_equilibrium)


class TestOutputFiles:
    """A file output is written whole or not at all."""

    # command and the patch that interrupts it at one of its per-row calls
    CASES = {
        "sample": (["sample", "--n", "16", "--beta", "2", "--samples", "3"],
                   _interrupt(cli, "ensemble_gammas", 2)),
        "moments": (["moments", "--n", "50", "--beta", "2", "--delta-re", "0.3"],
                    _interrupt(asymptotics, "limit_covariance", 2)),
        "clt": (["clt", "--n", "16", "--beta", "2", "--samples", "5", "--format", "csv"],
                _interrupt(process, "ensemble_gammas", 2)),
        # pooled, as each of two workers may take one point of eta != 0
        "ldp": (["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.1", "--eta-grid=0.1:0.1:0.1"],
                lambda mp: (_interrupt(ldp, "marginal_rate_h", 3)(mp),
                            mp.setattr(cli, "LDP_POINTS_PER_WORKER", 1),
                            mp.setattr(cli, "_usable_cpus", lambda: 2))),
        # serial, so call 3 is the third row
        "ldp-one-cpu": (["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.1"],
                        lambda mp: (_interrupt(ldp, "marginal_rate_h", 3)(mp),
                                    mp.setattr(cli, "_usable_cpus", lambda: 1))),
        # interrupted in the companion line table: neither table may be left
        "equilibrium": (["equilibrium", "--scaled-d-re", "0.5", "--samples", "8"],
                        _interrupt_line_density),
        "verify": (["verify", "--checks", "04-first-regime-mean,07-abel-plana"],
                   lambda mp: mp.setitem(verification.CHECKS, "07-abel-plana",
                                         _fail_on_call(verification.check_abel_plana, 1))),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_interrupted_command_leaves_no_file(self, command, tmp_path, monkeypatch):
        argv, patch = self.CASES[command]
        patch(monkeypatch)
        pools, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: pools.append(method) or get_context(method))
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        assert list(tmp_path.iterdir()) == []
        assert len(pools) == (command == "ldp")  # the one pooled case

    def test_failed_run_removes_an_older_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_text("an earlier run\n")
        argv, patch = self.CASES["sample"]
        patch(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv + ["--out", str(out)])
        assert list(tmp_path.iterdir()) == []

    def test_symlink_is_written_in_place_and_kept(self, tmp_path, monkeypatch):
        # a path that is not a regular file (/dev/stdout, a device) streams
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("")
        link.symlink_to(target)
        argv, patch = self.CASES["sample"]
        patch(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv + ["--out", str(link)])
        assert link.is_symlink()
        assert target.read_text().startswith("sample,k,t,")

    @pytest.mark.parametrize("umask", [0o022, 0o002])
    def test_file_mode_follows_umask(self, umask, tmp_path):
        out = tmp_path / "m.csv"
        old = os.umask(umask)
        try:
            assert cli.main(["moments", "--n", "20", "--beta", "2", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

