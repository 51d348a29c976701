"""Shared fixtures: small machine configs + the fuzz seed-count knob."""

from __future__ import annotations

import pytest

from repro.env import ENV_FUZZ_SEEDS, read_env_count
from repro.params import Ara2Config, AraXLConfig

#: Tier-1 default: small, so the property tests stay fast; CI's
#: fuzz-smoke job and local soak runs raise it via --fuzz-seeds or
#: $REPRO_FUZZ_SEEDS.
DEFAULT_FUZZ_SEEDS = 8


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--fuzz-seeds", type=int, default=None, metavar="N",
        help="seed count for the fuzz property tests "
             f"(default: $REPRO_FUZZ_SEEDS, else {DEFAULT_FUZZ_SEEDS})")


def fuzz_seed_count(config) -> int:
    """Resolve the seed count: CLI flag -> env knob -> default."""
    from_cli = config.getoption("--fuzz-seeds")
    if from_cli is not None:
        return max(1, int(from_cli))
    from_env = read_env_count(ENV_FUZZ_SEEDS)
    if from_env is not None:
        return max(1, from_env)
    return DEFAULT_FUZZ_SEEDS


def pytest_generate_tests(metafunc) -> None:
    # Tests taking a ``fuzz_seed`` argument run once per seed; the seed
    # value is baked into the test id, so a failure names its seed.
    if "fuzz_seed" in metafunc.fixturenames:
        seeds = range(fuzz_seed_count(metafunc.config))
        metafunc.parametrize("fuzz_seed", seeds,
                             ids=[f"seed{s}" for s in seeds])


@pytest.fixture
def ara2_small() -> Ara2Config:
    return Ara2Config(lanes=4)


@pytest.fixture
def araxl_small() -> AraXLConfig:
    return AraXLConfig(lanes=8)


@pytest.fixture
def araxl_big() -> AraXLConfig:
    return AraXLConfig(lanes=64)
