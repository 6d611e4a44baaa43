"""Shared test settings.

Property tests run one hypothesis profile: examples come from a fixed
derivation rather than a random one, nothing is stored between runs, and
each test tries a bounded number of examples, so a run is reproducible and
short.
"""

from hypothesis import settings

settings.register_profile("gwentropy", derandomize=True, database=None, max_examples=60, deadline=None)
settings.load_profile("gwentropy")
