"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.conformance.des_kernel
import repro.openctpu


@pytest.mark.parametrize("module", [repro.conformance.des_kernel, repro.openctpu])
def test_module_doctests(module):
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert result.failed == 0
