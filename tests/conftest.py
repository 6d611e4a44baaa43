"""Shared test settings.

Property tests run one hypothesis profile: examples come from a fixed
derivation rather than a random one, nothing is stored between runs, and
each test tries a bounded number of examples, so a run is reproducible and
short.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("gwentropy", derandomize=True, database=None, max_examples=60, deadline=None)
settings.load_profile("gwentropy")


@pytest.fixture
def traced_peak():
    """A function that runs a call under tracemalloc and returns the peak
    of the memory it traced, in MiB."""

    def peak(run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return peak
