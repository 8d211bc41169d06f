"""Fixtures shared by more than one test module."""

import pytest

from mtnn import plants as pl
from mtnn import training as tr


@pytest.fixture(scope="session")
def tclab_mono1():
    """The criterion-7/8 controller model: mono1 on seed-0 TCLab data."""
    ds = pl.tclab_dataset(seed=0)
    model, _ = tr.train_variant("mono1", ds.plant.mono_spec(), ds.train, seed=0)
    return ds, model
