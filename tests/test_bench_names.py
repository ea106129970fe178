"""The benchmark tracer wraps latpack functions by name; each must exist.

`perfbench/tracer.py` looks every name in its TRACED table up with
`getattr`, so a deleted or renamed function breaks `perfbench/run.py
--trace 1`.  This test fails first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "perfbench" / "tracer.py"
SRC = REPO / "src" / "latpack"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve_to_callables():
    tracer = _tracer()
    assert tracer.TRACED
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"latpack.{mod}"), fn, None))
    ]
    assert missing == []


def test_traced_names_without_a_call_site_in_src():
    # The traced names that no call in src reaches; only the CLI's callers,
    # the tests and the benchmark call them.  A change that leaves another
    # traced function without a caller in src, or gives one of these a
    # caller, updates this set on purpose.
    called = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    uncalled = {f"{mod}.{fn}" for mod, fns in _tracer().TRACED.items() for fn in fns
                if fn not in called}
    assert uncalled == {"codes.extend_parity", "codes.gf_solve", "craig.membership",
                        "craig.verify_section",
                        "exactnum.binom_sum", "exactnum.hnf", "exactnum.hnf_basis",
                        "exactnum.solve_left", "lift.lift_sublattice"}
