"""The measurement scripts under benchmarks/ still run on the package.

A script that stops matching the code it measures fails only when
someone next runs it; these tests run each one on a toy input.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_lists_its_public_functions():
    # The tracer wraps only the names a layer lists in __all__, so a
    # layer without one would count no call.
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        module = importlib.import_module("emaflow." + layer)
        assert "__all__" in vars(module), layer
        for name in module.__all__:
            assert hasattr(module, name), f"{layer}.{name}"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_simulate_memory_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "simulate_memory.py"), "--",
         "simulate", "--set", "simulate.n_chars=64", "--set", "simulate.grid_size=32"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["exit_code"] == 0
    mb = report["mb"]
    assert set(mb) == {"import", "ensemble", "csv", "writer"}
    for point in ("import", "ensemble", "csv"):
        assert 0 < mb[point]["VmRSS"] <= mb[point]["VmHWM"]
    assert mb["writer"]["maxrss"] > 0
