"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# every property test draws the same examples on every run, with no example database and no deadline
settings.register_profile("vqse", derandomize=True, database=None, deadline=None)
settings.load_profile("vqse")
