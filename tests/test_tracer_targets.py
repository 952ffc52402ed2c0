"""The benchmark's tracer wraps layer calls by their exact owner and name.

`perfbench/child.py` looks each target up with ``vars(owner)[attr]``, so a
renamed or deleted target breaks every traced benchmark run.  This test
imports the tracer's target list, read-only, and checks each entry.
"""
import importlib.util
from pathlib import Path

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
