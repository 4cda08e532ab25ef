import doctest
import importlib
import pkgutil

import pytest

import enhcone

MODULES = sorted(
    f"enhcone.{info.name}" for info in pkgutil.iter_modules(enhcone.__path__)
)


def run_doctests(name: str) -> doctest.TestResults:
    return doctest.testmod(importlib.import_module(name), verbose=False)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    assert run_doctests(name).failed == 0


def test_examples_are_collected():
    # combinatorics and fibers carry 8 examples between them
    assert "enhcone.combinatorics" in MODULES and "enhcone.fibers" in MODULES
    assert sum(run_doctests(name).attempted for name in MODULES) >= 8
