"""The package API that the benchmark's in-process workloads call.

perfbench/workloads.py builds its inputs and calls the package directly
(representations from nested rows, cp2_quiver, the morse and maslov
entry points), so a change to that API would first show up as a refused
benchmark run.  This test runs one round of each in-process workload
through the workloads' own checks, with the file imported as it is."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("cls", ["DenseLinks", "LongKnots", "LocalModels"])
def test_one_round_passes_the_workload_checks(workloads, cls):
    work = getattr(workloads, cls)(1)
    inputs = work.round()
    assert inputs
    for inp in inputs:
        out = work.op(inp)
        assert not work.failed(inp, out)
        assert work.check(inp, out) == []
