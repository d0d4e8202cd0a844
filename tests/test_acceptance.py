"""Acceptance gate: one test per exit criterion, at the pinned seed.

These are the heavy end-to-end checks (the local sign-change probability
criterion walks up to ~3e8 integers for 1000 samples); expect the module to
take about a minute and a half on two cores, most of it in that criterion.
``rmflab selftest --seed ...`` runs the same functions.
"""

import pytest

from rmflab import acceptance
from rmflab.pinned import ACCEPTANCE_SEED

WORKERS = 2

_by_number = {num: (name, fn) for num, name, fn in acceptance.CRITERIA}


@pytest.mark.parametrize("number", sorted(_by_number))
def test_criterion(number):
    name, fn = _by_number[number]
    result = acceptance._wrap(number, name, fn, ACCEPTANCE_SEED, WORKERS)
    print(f"\n[{'PASS' if result.passed else 'FAIL'}] criterion {number}: "
          f"{name} ({result.elapsed_s:.1f}s) {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
