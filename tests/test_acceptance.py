"""Acceptance suite: one test per check of the verification battery, run at
full scale.

The criteria are the checks of ``verify.CHECKS`` in battery order (the
battery behind ``pawncount verify --level full``), so a check added there
is a criterion here.  Each prints a pass/fail line; expected deviations
from published formulas are reported but do not fail a criterion.
"""

import pytest

from pawncount import verify as vf


@pytest.mark.parametrize("name,check", vf.CHECKS,
                         ids=[f"criterion-{i:02d}"
                              for i in range(1, len(vf.CHECKS) + 1)])
def test_acceptance_criterion(name, check):
    result = vf.run_check(name, check, vf.FULL)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {name}: {result.details}")
    for deviation in result.deviations:
        print(f"       {deviation}")
    assert result.name == name
    assert result.passed, f"{name}: {result.details}"
