import os

import pytest
from hypothesis import settings

from complexrank import load_cars

settings.register_profile("default", max_examples=60, deadline=None)
# HYPOTHESIS_PROFILE=ci: the CI step that reruns the parser, JSON writer, encode and standardize
# properties and every property in tests/test_cluster.py
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def cars():
    return load_cars()
