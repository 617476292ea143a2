"""Fixtures shared across the test modules."""

import pytest

from dsnadapt import pipeline


@pytest.fixture(scope="session")
def trend_runs():
    """pipeline.run_trend over the canonical seeds 1-5, each seed's corpora and
    models kept: the one trend run of the suite, which every test of the
    trained trend models reads."""
    return pipeline.run_trend(seeds=(1, 2, 3, 4, 5))


@pytest.fixture(scope="session")
def trend_rows(trend_runs):
    """The trend run's rows, every seed's in turn."""
    return [row for run in trend_runs for row in run.rows]
