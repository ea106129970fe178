"""No float in src: a lint over the source of every function of every module.

The shortest-vector certificates and the exact kernels they and the
density arithmetic rest on must compute with ints and Fractions only.  The
walk flags a float literal, a true division `/`, the name `float`, and any
`math` function other than the integer ones.  Two functions off the
certified path still pick m with a float and are the only exceptions:
`craig.choose_params` (the CLI's default m) and `lift.improve_craig_8x`
(claim 3's m), until one exact nearest-m rule replaces both.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latpack"

KNOWN_FLOAT_USERS = {"craig.choose_params", "lift.improve_craig_8x"}
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


def functions(path: Path) -> dict:
    tree = ast.parse(path.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_svp_uses_no_float():
    assert float_uses(ast.parse((SRC / "svp.py").read_text())) == []


def test_src_uses_float_only_in_two_known_functions():
    modules = sorted(SRC.glob("*.py"))
    assert {"svp", "exactnum", "craig", "lift", "codes"} <= {path.stem for path in modules}
    found = {}
    for path in modules:
        found.update(float_users(ast.parse(path.read_text()), path.stem))
    assert set(found) == KNOWN_FLOAT_USERS


def test_the_lint_sees_each_kind_of_float_use():
    # choose_params picks its default m with a float, off the certified
    # path; it is out of scope, and the walk flags it.
    assert sorted(float_uses(functions(SRC / "craig.py")["choose_params"])) == [
        "float literal 0.5", "float literal 2.0", "math.floor", "math.log", "true division"]
    snippet = "x = 1.5\ny = a / b\nz = float(a)\nw = math.log(a) + math.isqrt(a)\nv /= 2\n"
    assert sorted(float_uses(ast.parse(snippet))) == [
        "float literal 1.5", "math.log", "name float", "true division", "true division"]
    nested = "x = 1.0\nclass C:\n    def f(self):\n        def g():\n            return a / b\n"
    assert float_users(ast.parse(nested), "m") == {"m": ["float literal 1.0"],
                                                  "m.C.f.g": ["true division"]}
