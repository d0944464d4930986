import numpy as np
import pytest

from sampling import resolve_seed


@pytest.fixture(scope="session")
def property_seed():
    seed = resolve_seed()
    print(f"\nrandomized-property seed: {seed} (override with RPIF_SEED)")
    return seed


@pytest.fixture()
def rng(property_seed):
    return np.random.default_rng(property_seed)
