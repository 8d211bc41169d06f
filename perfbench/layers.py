"""Per-layer spans for the traced run and the metrics derived from them.

`install` wraps the public callables every layer is reached through.
`summarise` turns one tracer's spans and counters into the per-layer
metrics named in PER_LAYER, normalised to one workload pass, so a count
reads the same in every traced run of the same seed.
"""

from __future__ import annotations

from mtnn import constraints, evaluation, graph, mpc, plants, training
from mtnn import model as md
from mtnn import net as nn

from tracer import Tracer, ratio, reachable_nodes

# name -> unit, in report order
PER_LAYER = {
    "graph.backward.calls": "count",
    "graph.backward.ms_per_call": "ms",
    "graph.nodes_per_backward": "count",
    "net.tape.calls": "count",
    "net.tape.self_ms": "ms",
    "net.forward.ms": "ms",
    "net.input_jacobian.ms": "ms",
    "constraints.penalty_graph.ms": "ms",
    "constraints.gate_graph.ms": "ms",
    "model.predict.calls": "count",
    "model.predict.us_per_call": "us",
    "model.predict_batch.rows": "count",
    "model.predict_batch.ms": "ms",
    "model.hessian_stack_batch.ms": "ms",
    "training.epochs": "count",
    "training.train.self_ms_per_epoch": "ms",
    "mpc.solve_horizon.self_ms": "ms",
    "mpc.iterations_per_solve": "count",
    "mpc.horizon_cost.calls_per_solve": "count",
    "mpc.horizon_cost.ms_per_call": "ms",
    "mpc.linesearch.accept_ratio": "ratio",
    "mpc.budget_exhausted_ratio": "ratio",
    "evaluation.rollout.self_ms": "ms",
    "plants.step.us_per_call": "us",
    "trace.overhead_ratio": "ratio",
    "trace.remainder_ms": "ms",
}

# counts that must repeat exactly between two traced runs of one seed
EXACT = (
    "graph.backward.calls",
    "graph.nodes_per_backward",
    "net.tape.calls",
    "model.predict.calls",
    "model.predict_batch.rows",
    "training.epochs",
    "mpc.iterations_per_solve",
    "mpc.horizon_cost.calls_per_solve",
    "mpc.linesearch.accept_ratio",
    "mpc.budget_exhausted_ratio",
)


class _SolveEvents:
    """Reconstructs line-search outcomes from the calls one solve makes.

    Every solver iteration starts with one `_cost_and_grad` call and is
    followed by trial `horizon_cost` calls; the first `horizon_cost` of a
    solve prices the starting point. An iteration that accepted a trial is
    followed by another iteration unless the solve stopped on tolerance or
    budget, which the solve result and the trial count tell apart from a
    stalled line search (MAX_BACKTRACKS rejected trials).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.events: list[str] = []

    def start(self, args, kwargs):
        self.events = []

    def cost_and_grad(self, args, kwargs):
        self.events.append("g")

    def horizon_cost(self, args, kwargs):
        self.events.append("c")

    def finish(self, args, kwargs, res):
        ev = self.events
        grads = ev.count("g")
        trials = ev.count("c") - 1
        tail = ev[::-1].index("g") if grads else 0  # trials after the last iteration start
        last_accepted = tail > 0 and (tail < mpc.MAX_BACKTRACKS or not res.converged)
        t = self.tracer
        t.count("mpc.solves")
        t.count("mpc.iterations", res.iterations)
        t.count("mpc.trials", trials)
        t.count("mpc.accepted", max(grads - 1, 0) + int(last_accepted))
        t.count("mpc.not_converged", int(not res.converged))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undone when the tracer's `with` block ends."""
    w = tracer.wrap

    def count_nodes(args, kwargs):
        n = tracer.bookkeeping(reachable_nodes, args[0])
        tracer.count("graph.nodes", n)

    w(graph, "backward", "graph.backward", pre=count_nodes)
    w(nn.NetTape, "forward", "net.tape")
    w(nn.NetTape, "forward_and_jacobian", "net.tape")
    w(nn, "forward", "net.forward")
    w(nn, "input_jacobian", "net.input_jacobian")
    for name in (
        "mono_penalty_rows_graph",
        "convex_penalty_blocks_graph",
        "principal_minor_penalty_blocks_graph",
    ):
        w(constraints, name, "constraints.penalty_graph")
    w(constraints, "apply_sign_gate_graph", "constraints.gate_graph")
    w(md, "predict", "model.predict")
    w(md, "predict_batch", "model.predict_batch",
      pre=lambda a, k: tracer.count("model.predict_batch.rows", len(a[1])))
    w(md, "hessian_stack_batch", "model.hessian_stack_batch")
    w(training, "train", "training.train",
      post=lambda a, k, out: tracer.count("training.epochs", len(out[1])))
    w(training, "train_variant", "training.train_variant")
    solve = _SolveEvents(tracer)
    w(mpc, "run_closed_loop", "mpc.run_closed_loop")
    w(mpc, "solve_horizon", "mpc.solve_horizon", pre=solve.start, post=solve.finish)
    w(mpc, "horizon_cost", "mpc.horizon_cost", pre=solve.horizon_cost)
    w(mpc, "_cost_and_grad", None, pre=solve.cost_and_grad)
    w(evaluation, "comparison_table", "evaluation.comparison_table")
    w(evaluation, "rollout", "evaluation.rollout")
    w(plants.TcLabPlant, "step", "plants.step")
    w(plants.HvacPlant, "step", "plants.step")


def summarise(tracer: Tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics per workload pass, from spans summed over `passes`."""
    t, c = tracer, tracer.counters
    ms = 1e3 / passes
    solves = c.get("mpc.solves", 0)
    backward = t.calls("graph.backward")
    predicts = t.calls("model.predict")
    hc = t.calls("mpc.horizon_cost")
    epochs = c.get("training.epochs", 0)
    steps = t.calls("plants.step")
    values = {
        "graph.backward.calls": backward / passes,
        "graph.backward.ms_per_call": ratio(t.total("graph.backward") * 1e3, backward),
        "graph.nodes_per_backward": ratio(c.get("graph.nodes", 0), backward),
        "net.tape.calls": t.calls("net.tape") / passes,
        "net.tape.self_ms": t.self_time("net.tape") * ms,
        "net.forward.ms": t.total("net.forward") * ms,
        "net.input_jacobian.ms": t.total("net.input_jacobian") * ms,
        "constraints.penalty_graph.ms": t.total("constraints.penalty_graph") * ms,
        "constraints.gate_graph.ms": t.total("constraints.gate_graph") * ms,
        "model.predict.calls": predicts / passes,
        "model.predict.us_per_call": ratio(t.total("model.predict") * 1e6, predicts),
        "model.predict_batch.rows": c.get("model.predict_batch.rows", 0) / passes,
        "model.predict_batch.ms": t.total("model.predict_batch") * ms,
        "model.hessian_stack_batch.ms": t.total("model.hessian_stack_batch") * ms,
        "training.epochs": epochs / passes,
        "training.train.self_ms_per_epoch": ratio(
            t.self_time("training.train") * 1e3, epochs
        ),
        "mpc.solve_horizon.self_ms": t.self_time("mpc.solve_horizon") * ms,
        "mpc.iterations_per_solve": ratio(c.get("mpc.iterations", 0), solves),
        "mpc.horizon_cost.calls_per_solve": ratio(hc, solves),
        "mpc.horizon_cost.ms_per_call": ratio(t.total("mpc.horizon_cost") * 1e3, hc),
        "mpc.linesearch.accept_ratio": ratio(
            c.get("mpc.accepted", 0), c.get("mpc.trials", 0)
        ),
        "mpc.budget_exhausted_ratio": ratio(c.get("mpc.not_converged", 0), solves),
        "evaluation.rollout.self_ms": t.self_time("evaluation.rollout") * ms,
        "plants.step.us_per_call": ratio(t.total("plants.step") * 1e6, steps),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.remainder_ms": (traced_s - t.self_sum()) * ms,
    }
    return values


def accounting_errors(tracer: Tracer, traced_s: float) -> list:
    """Self times must tile the traced wall time: no span counted twice."""
    errors = []
    self_sum = tracer.self_sum()
    if abs(self_sum - tracer.root_s) > 1e-6 * max(1.0, traced_s):
        errors.append(f"span self times sum to {self_sum:.6f}s, root spans cover "
                      f"{tracer.root_s:.6f}s")
    if tracer.root_s > traced_s * (1 + 1e-9):
        errors.append(f"root spans cover {tracer.root_s:.6f}s of {traced_s:.6f}s wall")
    for name, st in tracer.spans.items():
        if st.self_s < -1e-6:
            errors.append(f"span {name} has negative self time {st.self_s:.6f}s")
    return errors
