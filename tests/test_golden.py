"""Golden files pin the CSV schemas, the JSON payloads and the
17-significant-digit float formatting byte-for-byte, on deterministic
commands."""

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
