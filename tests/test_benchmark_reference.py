"""The benchmark's output gate, run in-process: each workload's default-seed
outputs must match `perfbench/reference.json` within its stored tolerances,
so an output drift fails here before a benchmark run refuses it."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# passes per workload: as many as its references read
@pytest.mark.parametrize("name,passes", [("hvac-study", 1), ("tclab-control", 2),
                                         ("tclab-rollout", 1)])
def test_outputs_match_the_stored_reference(monkeypatch, name, passes):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in BLAS_THREAD_VARS:  # importing run.py pins these; undo that afterwards
        monkeypatch.setenv(var, "1")
    import run
    from workloads import WORKLOADS, Record, Sizes

    work = WORKLOADS[name](Sizes())
    work.setup(run.REFERENCE_SEED)
    assert work.check_inputs() == []
    rec = Record()
    for i in range(passes):
        work.run_pass(i, rec)
    assert (rec.failed, rec.errors) == (0, [])
    assert run.reference_errors(work, rec, run.HERE / "reference.json") == []
