"""Shared test set-up."""

import importlib
import pkgutil

import pytest

import arcjet

# every process-wide cache of the program: a module attribute with
# ``cache_clear`` (``functools.lru_cache`` and ``functools.cache``)
MEMOS = [
    obj
    for info in pkgutil.iter_modules(arcjet.__path__)
    for obj in vars(importlib.import_module(f"arcjet.{info.name}")).values()
    if hasattr(obj, "cache_clear")
]


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts with the program's process-wide memos empty, so no
    test's code path depends on the tests that ran before it."""
    for memo in MEMOS:
        memo.cache_clear()
