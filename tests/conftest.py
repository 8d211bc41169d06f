"""Fixtures shared by more than one test module."""

import weakref

import pytest

from mtnn import net as nn
from mtnn import plants as pl
from mtnn import training as tr


@pytest.fixture(scope="session")
def tclab_mono1():
    """The criterion-7/8 controller model: mono1 on seed-0 TCLab data."""
    ds = pl.tclab_dataset(seed=0)
    model, _ = tr.train_variant("mono1", ds.plant.mono_spec(), ds.train, seed=0)
    return ds, model


@pytest.fixture
def built_tapes(monkeypatch):
    """Weak references to every `NetTape` built until the test ends or
    undoes its monkeypatches: one per graph built on a net."""
    built, real = [], nn.NetTape.__init__

    def init(self, net, frozen=False):
        built.append(weakref.ref(self))
        real(self, net, frozen)

    monkeypatch.setattr(nn.NetTape, "__init__", init)
    return built
