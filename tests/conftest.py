"""Fixtures shared across the test modules."""

import pytest

from dsnadapt import pipeline


@pytest.fixture(scope="session")
def trend_rows():
    """pipeline.run_trend's rows over the canonical seeds 1-5: the one trend
    run of the suite, which every test of the trained trend models reads."""
    return pipeline.run_trend(seeds=(1, 2, 3, 4, 5))
