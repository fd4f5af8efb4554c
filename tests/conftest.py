"""Shared fixtures: small deterministic datasets reused across files."""
import numpy as np
import pytest

import qpignn as q
from qpignn import diffkit as dk
from qpignn.rng import keyed_rng


@pytest.fixture
def openblas():
    """numpy's OpenBLAS, with its thread count restored afterwards."""
    lib = dk._openblas()
    if lib is None:
        pytest.skip("numpy's OpenBLAS is not loaded")
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


@pytest.fixture(scope="session")
def ring6():
    """Six nodes on a ring with one chord; the smallest graph whose
    aggregation output is not trivially symmetric."""
    return q.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                            (1, 4)])


@pytest.fixture(scope="session")
def small_ds():
    """300-node ER Gaussian dataset, the workhorse for training tests."""
    g = q.gen_er(300, 8 / 299, seed=3)
    return q.synth_dataset(g, "gaussian", 8, 0.5, seed=3)


@pytest.fixture(scope="session")
def tiny_ds(ring6):
    """Six-node dataset with jittered masks for loss oracles."""
    x = keyed_rng(0, "fd-x").standard_normal((6, 3))
    y = keyed_rng(0, "fd-y").standard_normal(6)
    train = np.array([1, 1, 1, 1, 0, 1], dtype=bool)
    val = np.array([0, 0, 0, 0, 1, 0], dtype=bool)
    test = np.zeros(6, dtype=bool)
    # Dataset requires a partition; park the empty remainder in test by
    # moving one train node over.
    train = train.copy()
    train[5] = False
    test[5] = True
    return q.Dataset(graph=ring6, features=x, targets=y,
                     train_mask=train, val_mask=val, test_mask=test)
