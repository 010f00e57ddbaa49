"""Hypothesis runs derandomized, without a deadline and on a bounded budget,
so the suite is deterministic and its time is bounded."""

from hypothesis import settings

settings.register_profile("fraccons", derandomize=True, deadline=None, max_examples=25,
                          database=None)
settings.load_profile("fraccons")
