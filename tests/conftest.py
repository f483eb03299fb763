import os

import pytest
from hypothesis import HealthCheck, settings

from ghzline import config

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture(autouse=True)
def _cold_config_loads():
    """Each test starts with no config kept by load_config, so that a test
    that counts one load's work, or patches what a load calls, sees a parse."""
    config._parse_configs.cache_clear()
