"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line (run pytest with -s to stream them)."""

import pytest

from circjacobi import verification


@pytest.mark.parametrize("check_id", verification.CHECK_IDS)
def test_acceptance_criterion(check_id):
    result = verification.run_check(check_id)
    print(result.row())
    assert type(result.passed) is bool  # verify --out writes it with json.dumps
    assert result.passed, result.row()
