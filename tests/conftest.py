"""Fixtures shared by every test module."""

import pytest

from vqse import experiments


@pytest.fixture(autouse=True)
def cold_field_line():
    """Start each test without a cached XY line, so no test reads fields another one solved."""
    experiments._field_line.cache_clear()
