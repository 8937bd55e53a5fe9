"""Shared test set-up."""

import pytest

from arcjet import driver, strata


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts with the program's process-wide memos empty, so no
    test's code path depends on the tests that ran before it."""
    strata._lead_rule.cache_clear()
    driver.coxeter_number.cache_clear()
