"""The verification suite must actually depend on what it claims to
check: perturbing one closed form makes exactly the dependent criteria
fail."""

import tracemalloc

import numpy as np
import pytest

from circjacobi import asymptotics, ldp, process, verification


def test_mutated_constant_fails_dependent_check(monkeypatch):
    original = ldp.hkoc_forms

    def perturbed(which, arg):
        return original(which, arg) + 1e-3

    monkeypatch.setattr(ldp, "hkoc_forms", perturbed)
    assert not verification.run_check("09-hkoc-forms").passed
    # independent criteria are untouched by the mutation
    assert verification.run_check("07-abel-plana").passed
    assert verification.run_check("08-legendre-duality").passed


def test_mutated_boundary_fails_branch_check(monkeypatch):
    original = ldp.xi_boundary
    monkeypatch.setattr(ldp, "xi_boundary", lambda T: original(T) + 1e-3)
    assert not verification.run_check("10-marginal-rate-branches").passed


def test_second_regime_check_sees_the_sign_of_the_constant(monkeypatch):
    # the drift-regime reference with (1/2 - 1/beta) F in place of
    # (1/beta - 1/2) F agrees at beta = 2 only, so the check must fail
    original = asymptotics.limit_moments

    def flipped(params, m):
        means, covs = original(params, m)
        f = [asymptotics.limit_mean_functions(params.scaled_d, k / params.n)[1] for k in m]
        return means - 2 * (1 / params.beta - 0.5) * np.array(f), covs

    assert verification.run_check("05-second-regime-mean").passed
    monkeypatch.setattr(asymptotics, "limit_moments", flipped)
    assert not verification.run_check("05-second-regime-mean").passed


def test_all_ids_runnable():
    assert len(verification.CHECK_IDS) == 16
    assert all(isinstance(cid, str) for cid in verification.CHECK_IDS)


# The computed and detail strings of the Monte Carlo checks that reduce
# samples to log Phi_n(1), which the sums of the in-memory (samples x n)
# batch also give, and a bound on the check's traced peak: check 14's batch
# would take 262 MB, and check 05's exact sums at n = 1e4 take 15 MB.
STREAMED = {
    "05-second-regime-mean": ("max dev 2.78e-06, drift MC z-score 0.86",
                              "n=64 beta=2 d=0.5: 4000 samples, exact mean 27.616394", 40e6),
    "14-clt-smoke": ("var (0.5979, 0.5865), exact-z (0.23, 0.65)",
                     "KS vs limit normal 0.0280 (positive bias expected at n=4096)", 20e6),
}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("check_id", sorted(STREAMED))
def test_streamed_checks_keep_their_output_in_little_memory(check_id, cpus, monkeypatch):
    computed, detail, peak_bound = STREAMED[check_id]
    monkeypatch.setattr(process, "_usable_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        result = verification.run_check(check_id)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert (result.computed, result.detail) == (computed, detail)
    assert peak < peak_bound
