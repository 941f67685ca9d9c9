import importlib
import os

import hypothesis
import pytest

hypothesis.settings.register_profile("default", max_examples=60, deadline=None)
hypothesis.settings.register_profile("ci", max_examples=200, deadline=None)
hypothesis.settings.register_profile("fast", max_examples=15, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture()
def no_list_draws(monkeypatch):
    """Make any color-list draw fail: a refused config must never reach one."""

    def draw_lists(vertices, palette, list_size, rng):
        raise AssertionError("a color list was drawn before the config was refused")

    # the module, not the function the package re-exports under its name;
    # both generate() and random_lists() draw through this one function
    module = importlib.import_module("brookscolor.generate")
    monkeypatch.setattr(module, "_draw_lists", draw_lists)
