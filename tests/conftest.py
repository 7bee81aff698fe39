"""Hypothesis draws the same examples on every run: each property is seeded
from a hash of its test function instead of a fresh random seed."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
