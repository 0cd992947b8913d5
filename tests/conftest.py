from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return REPO_ROOT / "configs"


@pytest.fixture
def forbid_generators(monkeypatch):
    """A call that makes constructing a numpy Generator fail from then on, for the
    code under test that must draw nothing; the test's own draws come before it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was constructed")

    def forbid():
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)

    return forbid
