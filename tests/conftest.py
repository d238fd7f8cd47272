"""Every hypothesis property draws the same examples on every run: the
examples are seeded from each test, and no failure database is read or
written, so a falsifying example shows on each run or on none."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
