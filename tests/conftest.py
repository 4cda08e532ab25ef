import pytest

from enhcone.fibers import fiber_cache


@pytest.fixture
def clean_cache():
    """The shared FiberCache, empty before and after the test."""
    fiber_cache().clear()
    yield
    fiber_cache().clear()
