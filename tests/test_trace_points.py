"""The benchmark's traced run (perfbench/layers.py) wraps library attributes
by name. Installing its wrappers here, in-process, names any attribute that
a rename or deletion has removed, without running the benchmark."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_attribute_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        try:
            layers.install(tracer)
        except (AttributeError, KeyError) as e:
            pytest.fail(f"the traced run wraps a library attribute that is gone: {e!r}")
        patched = list(tracer._patches)
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in patched)
    assert len(patched) > 20
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)
