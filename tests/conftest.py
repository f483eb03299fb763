import os
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture(autouse=True)
def _fresh_segment_memos():
    """Start every test with empty per-config memos, so that a test which
    patches a netmodel function, or counts its calls, sees it run."""
    for module, memo in (("ghzline.protocol", "_segment_strengths"), ("ghzline.rates", "_yield")):
        if module in sys.modules:
            getattr(sys.modules[module], memo).cache_clear()
