import os

import hypothesis
import pytest

from brookscolor import SplitMix64

hypothesis.settings.register_profile("default", max_examples=60, deadline=None)
hypothesis.settings.register_profile("ci", max_examples=200, deadline=None)
hypothesis.settings.register_profile("fast", max_examples=15, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture()
def no_list_draws(monkeypatch):
    """Make any color-list draw fail: a refused config must never reach one."""

    def sample(self, pool, k):
        raise AssertionError("a color list was drawn before the config was refused")

    monkeypatch.setattr(SplitMix64, "sample", sample)
