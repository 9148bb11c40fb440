"""Hypothesis draws the same examples on every run (derandomize=True, which also
turns its example database off), so a test run is repeatable; each @settings keeps
its own max_examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
