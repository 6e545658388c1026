"""Where the sweep service runs a job follows from one value, ``jobs``."""

import pytest

from repro.errors import ServiceError
from repro.service import SweepService


@pytest.mark.parametrize("jobs", [0, -1])
def test_a_service_needs_at_least_one_job(jobs):
    with pytest.raises(ServiceError, match="jobs must be >= 1"):
        SweepService(jobs=jobs, use_cache=False)
