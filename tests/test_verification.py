"""The verification suite must actually depend on what it claims to
check: perturbing one closed form makes exactly the dependent criteria
fail."""

import numpy as np

from circjacobi import asymptotics, ldp, verification


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
