"""The benchmark tracer wraps latpack functions by name; each must exist.

`perfbench/tracer.py` looks every name in its TRACED table up with
`getattr`, so a deleted or renamed function breaks `perfbench/run.py
--trace 1`.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"latpack.{mod}"), fn, None))
    ]
    assert missing == []
