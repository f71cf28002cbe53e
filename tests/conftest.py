import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
import pytest

import moikit as mk

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture
def rng():
    return np.random.default_rng(0xA11CE)


@pytest.fixture
def uniform_model():
    return mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def grid_path(psi):
    """``psi`` with its separable representation stripped, so that
    ``moi_core`` evaluates it on the n^m eigenvalue grid instead of in
    factored form."""
    return mk.MultivariateFunction(psi.arity, psi.evaluate)
