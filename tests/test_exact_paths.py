"""No float in src: a lint over the source of every function of every module.

The shortest-vector certificates and the exact kernels they and the
density arithmetic rest on must compute with ints and Fractions only.  The
walk flags a float literal, a true division `/`, the name `float`, and any
`math` function other than the integer ones.  No function is exempt: the
Craig order m, the CLI's default and claim 3's alike, comes from the integer
rule `craig.nearest_m`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latpack"

KNOWN_FLOAT_USERS = set()
INTEGER_MATH = {"isqrt", "lcm", "prod", "comb", "perm", "gcd"}


def float_use(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return f"float literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Name) and node.id == "float":
        return "name float"
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in INTEGER_MATH):
        return f"math.{node.attr}"
    return None


def float_uses(tree) -> list[str]:
    return [use for node in ast.walk(tree) if (use := float_use(node))]


def float_users(node, owner: str, found=None) -> dict:
    """Float uses by their innermost enclosing function or class, as dotted names under owner."""
    found = {} if found is None else found
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{owner}.{child.name}"
        elif use := float_use(child):
            found.setdefault(owner, []).append(use)
        float_users(child, name, found)
    return found


def test_svp_uses_no_float():
    assert float_uses(ast.parse((SRC / "svp.py").read_text())) == []


def test_src_uses_no_float():
    modules = sorted(SRC.glob("*.py"))
    assert {"svp", "exactnum", "craig", "lift", "codes"} <= {path.stem for path in modules}
    found = {}
    for path in modules:
        found.update(float_users(ast.parse(path.read_text()), path.stem))
    assert set(found) == KNOWN_FLOAT_USERS, found


def test_the_lint_sees_each_kind_of_float_use():
    # The float rule for m that craig.nearest_m replaced.
    old_rule = "m = math.floor(n / (2.0 * math.log(n)) + 0.5)\n"
    assert sorted(float_uses(ast.parse(old_rule))) == [
        "float literal 0.5", "float literal 2.0", "math.floor", "math.log", "true division"]
    snippet = "x = 1.5\ny = a / b\nz = float(a)\nw = math.log(a) + math.isqrt(a)\nv /= 2\n"
    assert sorted(float_uses(ast.parse(snippet))) == [
        "float literal 1.5", "math.log", "name float", "true division", "true division"]
    nested = "x = 1.0\nclass C:\n    def f(self):\n        def g():\n            return a / b\n"
    assert float_users(ast.parse(nested), "m") == {"m": ["float literal 1.0"],
                                                  "m.C.f.g": ["true division"]}
