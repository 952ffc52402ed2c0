"""The benchmark's tracer wraps layer calls by their exact owner and name.

`perfbench/child.py` looks each target up with ``vars(owner)[attr]``, so a
renamed or deleted target breaks every traced benchmark run.  One test
imports the tracer's target list, read-only, and checks each entry; the
other runs short traced benchmark runs, unmodified, in a subprocess.
"""
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import goalbabbling

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_call_exists_where_the_tracer_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports its sibling `spans`
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    patches = child.layer_patches(goalbabbling, {})
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in patches if attr not in vars(owner)]
    assert not missing
    names = {name for _, _, name, _ in patches}
    assert {"evaluation.evaluate", "memory.local_jacobian", "memory.query"} <= names


@pytest.mark.parametrize(
    "config, strategy", [("arm2_demo", "sagg_riac"), ("arm2_demo", "actuator_riac"), ("map8_mid", "sagg_riac")]
)
def test_traced_benchmark_run_reads_what_the_package_returns(config, strategy):
    # A traced run reads every run-log field the benchmark reports and each
    # region update's `is_leaf`; a field it reads that is gone fails the run.
    command = [
        sys.executable, str(PERFBENCH / "child.py"), "--config", config, "--strategy", strategy,
        "--budget", "300", "--seed", "7", "--trace", "1",
        "--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["errors"] == []
    assert result["counts"]["memory"] == 300
