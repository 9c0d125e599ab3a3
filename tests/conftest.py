"""Fixtures and hypothesis settings shared by every test module."""

import pytest
from hypothesis import settings

from vqse import experiments

# every property test draws the same examples on every run, with no example database and no deadline
settings.register_profile("vqse", derandomize=True, database=None, deadline=None)
settings.load_profile("vqse")


@pytest.fixture(autouse=True)
def cold_field_line():
    """Start each test without a cached XY line, so no test reads fields another one solved."""
    experiments._field_line.cache_clear()
