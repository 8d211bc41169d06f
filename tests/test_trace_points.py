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


def test_traced_solver_counts_match_the_solve(monkeypatch):
    # the benchmark's solver metrics are rebuilt from the wrapped calls; they
    # must agree with what the solve itself reports
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from test_mpc import backtracking_problem
    from tracer import Tracer

    from mtnn import mpc

    model, x0, zp, cfg = backtracking_problem()
    with Tracer() as tracer:
        layers.install(tracer)
        res = mpc.solve_horizon(model, x0, zp, cfg)
    assert res.exit == "decrease" and res.backtracks > 0
    counters = tracer.counters
    assert counters["mpc.solves"] == 1
    assert counters["mpc.iterations"] == res.iterations
    assert counters["mpc.trials"] == res.iterations + res.backtracks
    assert counters["mpc.accepted"] == res.iterations
    assert tracer.calls("mpc.horizon_cost") == 1 + res.iterations + res.backtracks
    assert tracer.calls("model.predict") == cfg.horizon * tracer.calls("mpc.horizon_cost")


def test_traced_closed_loop_counts_match_its_solves(monkeypatch, tclab_mono1, built_tapes):
    # tclab-control's counts: one net pass per predict, one tape per closed
    # loop, and in each solve one horizon_cost per trial and one
    # _cost_and_grad per iteration
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from test_mpc import CRITERION_8_CFG
    from tracer import Tracer

    from mtnn import mpc

    ds, model = tclab_mono1
    cfg = mpc.MpcConfig(**CRITERION_8_CFG)
    built_tapes.clear()
    solves, grads = [], []
    originals = mpc.solve_horizon, mpc._cost_and_grad
    with Tracer() as tracer:
        layers.install(tracer)
        traced_solve, traced_grad = mpc.solve_horizon, mpc._cost_and_grad

        def grad(*args, **kwargs):
            grads.append(1)
            return traced_grad(*args, **kwargs)

        def solve(*args, **kwargs):
            costs, iterations = tracer.calls("mpc.horizon_cost"), len(grads)
            res = traced_solve(*args, **kwargs)
            solves.append((res, tracer.calls("mpc.horizon_cost") - costs,
                           len(grads) - iterations))
            return res

        # the tracer's exit puts the original functions back over these too
        mpc.solve_horizon, mpc._cost_and_grad = solve, grad
        mpc.run_closed_loop(ds.plant, model, cfg, steps=6)
    assert (mpc.solve_horizon, mpc._cost_and_grad) == originals
    assert len(solves) == 6
    assert tracer.calls("net.tape") == len(built_tapes) == 1
    predicts = tracer.calls("model.predict")
    assert predicts == tracer.calls("net.forward") == cfg.horizon * sum(c for _, c, _ in solves)
    for res, costs, iterations in solves:
        assert res.exit in ("tolerance", "decrease")
        assert iterations == res.iterations
        assert costs == 1 + res.iterations + res.backtracks


def test_train_calls_backward_through_the_module_once_per_epoch(monkeypatch):
    # the benchmark times an hvac-study epoch as the gap between two starts
    # of graph.backward, which it wraps as a module attribute
    from mtnn import graph
    from mtnn import plants as pl
    from mtnn import training as tr

    calls, real = [], graph.backward

    def backward(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph, "backward", backward)
    bench = pl.hvac_benchmark(0)
    for name in ("baseline", "mono2", "soft2"):
        calls.clear()
        _, hist = tr.train_variant(name, bench.plant.mono_spec(), bench.train[:30], epochs=7)
        assert len(calls) == len(hist) == 7
        assert all(root is calls[0] for root in calls)  # one graph, replayed


@pytest.mark.parametrize("order, span", [("first", "net.forward"),
                                         ("second", "net.input_jacobian")])
def test_predict_batch_calls_the_net_through_the_module_once_per_block(monkeypatch, order,
                                                                       span):
    # tclab-rollout's net.forward.ms and net.input_jacobian.ms are the spans of
    # these module attributes, so the step kernel must reach the net through them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import numpy as np
    from tracer import Tracer

    from mtnn import model as md
    from mtnn import net as nn
    from mtnn.constraints import MonoSpec

    m = md.MtnnModel(nn.init_dense([4, 8, 4], 0, n_stack=2),
                     MonoSpec.from_symbols(["+-.+", ".+-."]), order, md.GateMode.ARCHITECTURE)
    Z = np.random.default_rng(0).normal(size=(2, 2 * md._block_rows(m.net) + 1, 4))
    with Tracer() as tracer:
        layers.install(tracer)
        md.predict_batch(m, Z[0], Z[1])
    assert tracer.calls("model.predict_batch") == 1
    assert tracer.calls(span) == 3  # one per block
    assert tracer.calls("net.forward") + tracer.calls("net.input_jacobian") == 3
