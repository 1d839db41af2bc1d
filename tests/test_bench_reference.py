"""One pass of the benchmark's sweeps, soundness and witness workloads,
each item checked as perfbench checks it: every CLI sweep job against
perfbench/reference/ and the secure distances, the soundness items
against their bound, every witness round-tripped.  perfbench is read,
never written: workloads.py is loaded without writing bytecode."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


W = load_workloads()


@pytest.mark.parametrize("job", list(W.SWEEP_JOBS))
def test_sweep_job_matches_reference(job, tmp_path):
    sweeps = W.Sweeps(seed=11, workdir=tmp_path)
    assert sweeps.check(job, sweeps.run(job))


@pytest.mark.parametrize("workload", [W.Soundness, W.Witness], ids=lambda w: w.name)
@pytest.mark.parametrize("seed", [11, 7919])
def test_workload_pass_checks(workload, seed, tmp_path):
    w = workload(seed, tmp_path)
    failed = [item for item in w.items(0) if not w.check(item, w.run(item))]
    assert failed == []
