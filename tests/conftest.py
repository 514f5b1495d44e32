"""Shared test settings.

Hypothesis runs derandomized (a fixed example sequence per test, no example
database) with a bounded example count and no per-example deadline, so the
suite is reproducible and its run time stable on a small, shared host.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("tier1")
