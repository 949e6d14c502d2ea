"""Golden files pin the CSV schemas, the JSON payloads and the
17-significant-digit float formatting byte-for-byte, on deterministic
commands."""

import csv
import json
import math
import pathlib

import numpy as np
import pytest

from circjacobi import cli

from oracles import mpmath_beta2_moment_row, mpmath_moment_row

GOLDEN = pathlib.Path(__file__).parent / "golden"
EPS = np.finfo(float).eps

CASES = {
    "moments_n50.csv": [
        "moments", "--n", "50", "--beta", "2", "--delta-re", "0.3",
        "--delta-im", "0.1", "--t-grid", "0.2:1.0:0.2",
    ],
    # n above CROSSOVER_N: rows of up to CROSSOVER_N terms summed directly,
    # the longer ones by Abel-Plana
    "moments_n20000_d1.csv": [
        "moments", "--n", "20000", "--beta", "2", "--scaled-d-re", "1",
        "--t-grid", "0.1:1.0:0.1",
    ],
    "sample_n6_seed7.csv": [
        "sample", "--n", "6", "--beta", "2", "--delta-re", "0.5",
        "--samples", "1", "--seed", "7",
    ],
    "ldp_T05.csv": [
        "ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.3", "--eta-grid=0.0:0.0:1.0",
    ],
    "moments_n50.json": [
        "moments", "--n", "50", "--beta", "2", "--delta-re", "0.3",
        "--delta-im", "0.1", "--t-grid", "0.2:1.0:0.2", "--format", "json",
    ],
    "clt_n64_seed2a.csv": [
        "clt", "--n", "64", "--beta", "2", "--delta-re", "0.5", "--samples", "60",
        "--seed", "0x2a", "--format", "csv",
    ],
    # also writes the line table to the companion equilibrium_a05.line.csv
    "equilibrium_a05.csv": [
        "equilibrium", "--scaled-d-re", "0.5", "--samples", "16",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    out = tmp_path / name
    rc = cli.main(CASES[name] + ["--out", str(out)])
    assert rc == 0
    # every file the command wrote, the companion line table included, has
    # a golden twin, and no golden file is left unwritten
    stem, suffix = name.rsplit(".", 1)
    expected = {name, f"{stem}.line.{suffix}"} & {path.name for path in GOLDEN.iterdir()}
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(expected)
    for each in written:
        assert (tmp_path / each).read_bytes() == (GOLDEN / each).read_bytes()


def test_17_digit_formats_live_in_cli():
    # the float format these files pin has one home, beside the tables
    package = pathlib.Path(cli.__file__).parent
    holders = [path.name for path in sorted(package.glob("*.py")) if "%.17g" in path.read_text()]
    assert holders == ["cli.py"]


def _moments_n50_rows():
    """(m, exact mean, exact covariance) of each row of both moments_n50
    golden files."""
    with open(GOLDEN / "moments_n50.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            cov = [[row["cov_xx"], row["cov_xy"]], [row["cov_xy"], row["cov_yy"]]]
            mean = complex(float(row["exact_mean_re"]), float(row["exact_mean_im"]))
            yield int(row["m"]), mean, np.array(cov, dtype=float)
    for row in json.loads((GOLDEN / "moments_n50.json").read_text()):
        yield row["m"], complex(*row["exact_mean"]), np.array(row["exact_cov"])


def test_moments_n50_golden_values_match_mpmath_sums():
    # the golden bytes are checked against something other than themselves
    rows = list(_moments_n50_rows())
    assert len(rows) == 10
    for m, mean, cov in rows:
        ref_mean, ref_cov = mpmath_moment_row(50, 2.0, 0.3 + 0.1j, m)
        assert abs(mean.real - ref_mean.real) <= 1e-13 * abs(ref_mean.real)
        assert abs(mean.imag - ref_mean.imag) <= 1e-13 * abs(ref_mean.imag)
        assert np.all(np.abs(cov - ref_cov) <= 1e-13 * np.abs(ref_cov)), m


def _csv_rows(name):
    with open(GOLDEN / name, newline="") as fh:
        yield from csv.DictReader(fh)


def test_moments_n20000_golden_values_match_closed_form_sums():
    # beta = 2, delta = beta/2 * d * n = 2e4: rows m <= CROSSOVER_N are
    # direct sums, the longer ones come from the Abel-Plana route.  A drift
    # mean is itself of size about n log n, so its rounding floor grows like
    # eps n log n.
    n = 20_000
    rows = list(_csv_rows("moments_n20000_d1.csv"))
    assert len(rows) == 10
    for row in rows:
        m = int(row["m"])
        mean = complex(float(row["exact_mean_re"]), float(row["exact_mean_im"]))
        cov = np.array(
            [[row["cov_xx"], row["cov_xy"]], [row["cov_xy"], row["cov_yy"]]], dtype=float
        )
        ref_mean, ref_cov = mpmath_beta2_moment_row(n, 2e4, m)
        assert abs(mean - ref_mean) <= max(1e-13 * abs(ref_mean), 16 * EPS * n * math.log(n)), m
        assert np.all(np.abs(cov - ref_cov) <= 1e-13 * np.abs(ref_cov)), m


def test_sample_golden_centring_matches_mpmath_means():
    # zeta = values - E values, with the mean from direct mpmath sums; the
    # bound is a few rounding units of the path values
    rows = list(_csv_rows("sample_n6_seed7.csv"))
    assert [int(row["k"]) for row in rows] == list(range(7))
    for row in rows:
        k = int(row["k"])
        values = complex(float(row["re_log_phi"]), float(row["im_log_phi"]))
        zeta = complex(float(row["re_zeta"]), float(row["im_zeta"]))
        ref_mean = mpmath_moment_row(6, 2.0, 0.5, k)[0] if k else 0j
        assert abs(zeta - (values - ref_mean)) <= 8 * EPS * max(1.0, abs(values)), k
