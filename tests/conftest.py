import numpy as np
import pytest

from submimo import ArrayMode, build_environment


@pytest.fixture(scope="session")
def desk_envs():
    """One desk-profile environment per mode, shared across the suite."""
    return {mode: build_environment(mode, "desk", seed=7) for mode in ArrayMode}


@pytest.fixture(scope="session")
def full_envs():
    """The full profile's ULA and wide environments, shared across the suite."""
    return {mode: build_environment(mode, "full", seed=7)
            for mode in (ArrayMode.ULA, ArrayMode.WIDE)}


@pytest.fixture(scope="session")
def desk_env(desk_envs):
    return desk_envs[ArrayMode.RANDOM]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
