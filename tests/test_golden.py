"""Golden files pin the CSV schemas and the 17-significant-digit float
formatting byte-for-byte, on deterministic commands."""

import pathlib

import pytest

from circjacobi import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "moments_n50.csv": [
        "moments", "--n", "50", "--beta", "2", "--delta-re", "0.3",
        "--delta-im", "0.1", "--t-grid", "0.2:1.0:0.2",
    ],
    # n above CROSSOVER_N: the Abel-Plana route
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    out = tmp_path / name
    rc = cli.main(CASES[name] + ["--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
