"""Tests of the benchmark itself: span arithmetic, the tail rule, op
accounting, seed plumbing and the BENCHMARK.json contract.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import accounting
import calibration
import references as ref
import run
import spans
import workloads
from accounting import OpRecord
from circjacobi import asymptotics as asy
from circjacobi import process as pr
from circjacobi import sampler as sp
from circjacobi import specfun

BENCH = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------------ spans

def test_self_time_subtracts_direct_children_only():
    # root [0, 100] has children [10, 30] and [40, 90]; [50, 60] is a
    # grandchild, so it is taken from its parent, not from the root.
    start = [0, 10, 40, 50]
    end = [100, 30, 90, 60]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent).tolist() == [30, 20, 40, 10]


def test_self_times_partition_the_root_span():
    start = [0, 5, 7, 20, 100]
    end = [50, 15, 9, 45, 130]
    parent = [-1, 0, 1, 0, -1]
    own = spans.self_times(start, end, parent)
    assert own.sum() == (50 - 0) + (130 - 100)
    assert np.all(own >= 0)


def test_tracer_covers_names_imported_by_consumers_and_restores_them():
    params = asy.EnsembleParams(50, 2.0, delta=0.5)
    before = (asy.digamma, pr.mean_increments, specfun.digamma)
    plain = asy.exact_mean_logphi(params, 20)
    with spans.Tracer() as tracer:
        assert asy.digamma is specfun.digamma is not before[2]
        traced = asy.exact_mean_logphi(params, 20)
        pr.mean_increments(params)
    assert (asy.digamma, pr.mean_increments, specfun.digamma) == before
    assert traced == plain
    names = [tracer.names[i] for i in tracer.fn]
    assert names[0] == "asymptotics.exact_mean_logphi"
    assert "specfun.digamma" in names  # called through asymptotics' own name
    assert "asymptotics.mean_increments" in names
    arr = tracer.arrays()
    digamma = [i for i, n in enumerate(names) if n == "specfun.digamma"]
    assert arr["parent"][digamma[0]] == 0
    metrics = spans.layer_metrics(tracer)
    assert metrics["asymptotics.rows_direct"] == 1
    assert metrics["specfun.gamma_args"] == int(arr["size"][digamma].sum()) > 0
    total = (arr["end_ns"] - arr["start_ns"])[arr["parent"] < 0].sum() / 1e9
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(total, rel=1e-9)


def test_tracer_counts_coefficients_at_the_outermost_sampler_call():
    params = asy.EnsembleParams(6, 2.0, delta=0.5)
    with spans.Tracer() as tracer:
        sp.sample_ensemble(params, 3)  # calls the per-coefficient samplers
    metrics = spans.layer_metrics(tracer)
    assert metrics["sampler.coeffs"] == 6
    assert metrics["sampler.calls"] > 1


# ------------------------------------------------------- tail and tallies

@pytest.mark.parametrize("count", [20, 99, 999, 1000, 1875, 2200, 2223, 10**5])
def test_tail_percentile_leaves_at_least_ten_beyond(count):
    p = accounting.tail_percentile(count)
    rank = math.ceil(p / 100 * count)
    assert count - rank >= 10
    higher = [q for q in accounting.LADDER if q > p]
    if higher:
        assert count - math.ceil(higher[0] / 100 * count) < 10


def test_tail_percentile_values():
    assert accounting.tail_percentile(19) is None
    assert accounting.tail_percentile(1000) == 99.0
    assert accounting.tail_percentile(999) == 95.0
    assert accounting.tail_percentile(2200) == 99.5


def test_nearest_rank():
    values = list(range(1, 101))
    assert accounting.nearest_rank(values, 50) == 50
    assert accounting.nearest_rank(values, 99.5) == 100
    assert accounting.nearest_rank(values, 90) == 90


def test_tally_counts_raised_and_wrong_ops_as_failed():
    records = [
        OpRecord("a", 0, 0, 10, output=1.0),
        OpRecord("a", 0, 1, 20, error=ValueError("math domain error")),
        OpRecord("a", 0, 2, 30, output=2.0),  # its check failed
        OpRecord("b", 1, 0, 40, output=3.0),
    ]
    t = accounting.tally(records, wrong={("a", 0, 2)})
    assert (t.attempted, t.failed, t.wrong, t.ok) == (4, 2, 1, 2)
    assert t.ok_latency_ns == {("a", 0): [10], ("b", 0): [40]}
    assert t.ok_per_pass == {0: 1, 1: 1}
    assert t.failures == {"a: ValueError": 1, "a: WrongValue": 1}


def test_latency_summary_uses_each_slots_median_over_passes():
    records = [OpRecord("s", k, j, 1000 * (j + 1)) for k in range(3) for j in range(100)]
    records += [OpRecord("s", 3, j, 10**6) for j in range(100)]  # one slow pass
    lat = accounting.latency_summary(accounting.tally(records, set()))
    assert lat["ok_slots"] == 100
    assert lat["tail_percentile"] == 90.0
    assert lat["p50_ms"] == pytest.approx(0.0505)
    assert lat["tail_ms"] == pytest.approx(0.090)
    scaled = [OpRecord("s", 0, j, 1000 * (j + 1), scale=2.0) for j in range(100)]
    assert accounting.latency_summary(accounting.tally(scaled, set(), normalised=True))["p50_ms"] == pytest.approx(0.101)


def test_median_sum_takes_each_part_from_its_typical_round():
    rounds = [{"a": 1.0, "b": 5.0}, {"a": 9.0, "b": 2.0}, {"a": 2.0, "b": 3.0}]
    assert accounting.median_sum(rounds) == 2.0 + 3.0


def test_calibration_scales_ignore_one_disturbed_burst():
    ref_s = calibration.REFERENCE_S["vector"]
    times = [1, 1, 5, 1, 2, 2, 2]
    bursts = [{"vector": t * ref_s, "mixed": 1.0} for t in times]
    scales = calibration.scales(bursts, ["vector"] * (len(times) - 1))
    assert scales[0] == scales[1] == 1.0  # the 5x burst is outvoted
    assert scales[-1] == 0.5  # a machine at half speed halves the time
    mixed = calibration.scales(bursts, ["mixed"] * 2)
    assert mixed == [calibration.REFERENCE_S["mixed"]] * 2


def test_a_wrong_rate_value_is_flagged_by_its_check():
    wl = workloads.rate_surface(seed=0, tmp="unused")
    line = next(s for s in wl.stages if s.name.startswith("line"))
    outputs = [[line.op(j, 0) for j in range(5)]]
    assert not line.verify(line, outputs).wrong
    bad = outputs[0][2]
    outputs[0][2] = type(bad)(bad.value + 1e-6, bad.branch, bad.multipliers)
    verdict = line.verify(line, outputs)
    assert verdict.wrong == {(line.name, 0, 2)}
    records = [OpRecord(line.name, 0, j, 1, out) for j, out in enumerate(outputs[0])]
    assert accounting.tally(records, verdict.wrong).failed == 1


def test_moment_sums_pool_by_addition():
    rng = np.random.default_rng(5)
    z = rng.normal(size=4000) + 1j * rng.normal(scale=2.0, size=4000)
    whole = ref.MomentSums.of(z, 0j).z_scores([1.0, 4.0])
    parts = (ref.MomentSums.of(z[:1500], 0j) + ref.MomentSums.of(z[1500:], 0j)).z_scores([1.0, 4.0])
    assert whole == pytest.approx(parts)
    assert max(abs(v) for v in whole.values()) < 4


# ------------------------------------------------------------- references

def test_reference_gradient_matches_finite_differences():
    T, s, t, h = 0.5, 0.4, -0.3, 1e-6
    gs = (ref.cgf0(T, s + h, t) - ref.cgf0(T, s - h, t)) / (2 * h)
    gt = (ref.cgf0(T, s, t + h) - ref.cgf0(T, s, t - h)) / (2 * h)
    assert ref.stationarity(T, gs, gt, s, t) < 1e-8


def test_reference_moment_row_matches_a_direct_sum():
    n, m, delta = 40, 17, 0.3 + 0.2j
    mean, cov = ref.moment_row(n, delta, m)
    import mpmath

    k = range(n - m, n)
    direct = sum(mpmath.psi(0, r + 1 + 2 * delta.real) - mpmath.psi(0, r + 1 + delta.conjugate()) for r in k)
    assert abs(mean - complex(direct)) < 1e-13
    var_im = sum(mpmath.psi(1, r + 1 + delta).real / 2 for r in k)
    assert cov[1, 1] == pytest.approx(float(var_im), rel=1e-13)


# ------------------------------------------------------------------ seeds

def test_seed_reaches_substream(monkeypatch):
    seen = []
    original = sp.substream

    def spy(seed, *path):
        seen.append((seed, path))
        return original(seed, *path)

    monkeypatch.setattr(sp, "substream", spy)
    mc = workloads.mc_ensemble(seed=1234, tmp="unused")
    drift = mc.stages[2]
    drift.op(3, 2)
    assert seen == [(1234, (2 * drift.count + 3,))]
    seen.clear()
    bulk = workloads.exact_moments(seed=99, tmp="unused").stages[0]
    bulk.op(1, 2)
    assert seen == [(99, (2 * bulk.count + 1,))]
    clt = mc.cli[1].argv
    assert clt[clt.index("--seed") + 1] == "1234"


def test_same_seed_same_draws_other_seed_other_draws():
    a = workloads.mc_ensemble(seed=7, tmp="unused").stages[0]
    b = workloads.mc_ensemble(seed=7, tmp="unused").stages[0]
    c = workloads.mc_ensemble(seed=8, tmp="unused").stages[0]
    assert a.op(0, 0) == b.op(0, 0)
    assert a.op(0, 0) != c.op(0, 0)


# --------------------------------------------------------------- contract

def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
