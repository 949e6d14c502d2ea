import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circjacobi
from circjacobi import cli, ldp, sampler, verification
from circjacobi.asymptotics import EnsembleParams
from circjacobi.process import PATH_ROW, log_path


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = cli.main(args + ["--out", str(out)])
    return rc, out.read_text()


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

    def test_clt_needs_two_coefficients(self, tmp_path, capsys):
        args = ["clt", "--n", "1", "--beta", "2", "--samples", "4", "--format", "csv"]
        err = self._rejected(tmp_path, capsys, args)
        assert err == "error: --n must be at least 2, got 1"

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
        assert err.startswith("error: unknown check id(s) 99")
        assert "01-triple-determinant" in err and "16-determinism" in err


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
                    _interrupt(cli, "exact_mean_logphi", 2)),
        "clt": (["clt", "--n", "16", "--beta", "2", "--samples", "5", "--format", "csv"],
                _interrupt(cli, "ensemble_gammas", 2)),
        "ldp": (["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.1"],
                _interrupt(ldp, "marginal_rate_h", 3)),
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
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        assert list(tmp_path.iterdir()) == []

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


def test_import_does_not_load_scipy_stats():
    src = str(Path(circjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = "import sys, circjacobi.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
