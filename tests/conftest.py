import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from extropy import (
    ConstantReversedHazardParams,
    ExponentialParams,
    UniformParams,
    WeibullParams,
)


@pytest.fixture(scope="session")
def exp1():
    return ExponentialParams(1.0)


@pytest.fixture(scope="session")
def exp2():
    return ExponentialParams(2.0)


@pytest.fixture(scope="session")
def weib21():
    return WeibullParams(2.0, 1.0)


@pytest.fixture(scope="session")
def weib_15_2():
    return WeibullParams(1.5, 2.0)


@pytest.fixture(scope="session")
def weib_2_3():
    return WeibullParams(2.0, 3.0)


@pytest.fixture(scope="session")
def unif01():
    return UniformParams(0.0, 1.0)


@pytest.fixture(scope="session")
def crh_a1_b2():
    return ConstantReversedHazardParams(a=1.0, b=2.0)


def random_params(rng, families=("exponential", "weibull", "uniform")):
    """One random parameter set; shapes kept above 0.8 so f^2 stays mild at 0."""
    kind = families[rng.integers(len(families))]
    if kind == "exponential":
        return ExponentialParams(rate=float(rng.uniform(0.3, 4.0)))
    if kind == "weibull":
        return WeibullParams(shape=float(rng.uniform(0.8, 3.0)), scale=float(rng.uniform(0.5, 3.0)))
    lo = float(rng.uniform(0.0, 1.0))
    return UniformParams(lo=lo, hi=lo + float(rng.uniform(0.5, 2.5)))
