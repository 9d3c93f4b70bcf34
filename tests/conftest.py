import math
import os
import sys

# make oracles.py importable from any test module
sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from theta_tails import WeightFunction, weylsum

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def direct_path(monkeypatch):
    """Keep the Weyl batch kernel on its rotation recurrence at every m, for
    the tests written for that path whose m reaches the chirp crossover."""
    monkeypatch.setattr(weylsum, "CHIRP_MIN_TERMS", math.inf)


class _Flat(WeightFunction):
    name = "flat"

    def evaluate(self, w):
        return np.ones_like(np.asarray(w, dtype=float))

    def support_radius(self, tol):
        return math.inf


@pytest.fixture
def flat_weight():
    """A weight that never decays: support_radius is inf at every tol."""
    return _Flat()
