"""Fixtures shared across the test suite."""

import functools

import pytest

from repro import experiments


@pytest.fixture(scope="session")
def bare_render():
    """``bare_render(name)``: one experiment's render with nothing
    attached, computed once per session."""
    return functools.cache(lambda name: experiments.run(name).render())
