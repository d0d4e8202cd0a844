import importlib.util
import sys
from pathlib import Path

import pytest

import rmflab

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_full_size_digests_hold(workload):
    # each benchmark op once, at full size and the default seed: an output
    # drift fails here, not first in a benchmark run.  Outputs do not
    # depend on the worker count, so one worker does.
    seed = workloads.DEFAULT_SEED
    want = workloads.expected_digests(workload, seed, quick=False)
    ops = workloads.ops(rmflab, workload, seed, False, 1)
    assert want and sorted(want) == sorted(op.name for op in ops)
    for op in ops:
        result = op.run()
        assert op.check(result) == [], op.name
        assert workloads.digest(op.serialise(result)) == want[op.name], op.name
