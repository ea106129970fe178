"""No float in src: a lint over the source of every function of every module.

The shortest-vector certificates and the exact kernels they and the
density arithmetic rest on must compute with ints and Fractions only.  The
walk flags a float literal, a true division `/`, the name `float`, and any
`math` function other than the integer ones.  No function is exempt: the
Craig order m, the CLI's default and claim 3's alike, comes from the integer
rule `craig.nearest_m`.

Beside it, a walk over src refuses any in-place write to an `IntMatrix`'s
rows (`x.m[...] = `, `x.m[i][j] = `, `x.m.append(...)` and the like): a
matrix keeps the nonzero spans of its rows, which such a write would leave
stale.
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


ROW_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def reaches_rows(node) -> bool:
    """node is some x.m, or a subscript of one: x.m[i], x.m[i][j], x.m[a:b]."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "m"


def row_writes(tree) -> list[str]:
    """Source of every statement or call that changes the rows of some x.m in place."""
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            parts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            if any(isinstance(t, ast.Subscript) and reaches_rows(t.value) for t in parts):
                found.append(ast.unparse(node))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ROW_MUTATORS and reaches_rows(node.func.value)):
            found.append(ast.unparse(node))
    return found


def test_src_never_writes_matrix_rows_in_place():
    found = {path.stem: w for path in sorted(SRC.glob("*.py"))
             if (w := row_writes(ast.parse(path.read_text())))}
    assert found == {}


def test_the_row_write_walk_sees_each_kind_of_write():
    snippet = ("B.m[0] = r\nB.m[i][j] = 0\nB.m[1:3] = []\nB.m[0], x = r, 1\nB.m[0] += r\n"
               "del B.m[0]\nB.m.append(r)\nB.m[0].extend(r)\nB.m.insert(0, r)\n"
               "rows = B.m[:]\nrows[0] = r\nself.m = data\nx = B.m[0][1] + p.m\n")
    assert row_writes(ast.parse(snippet)) == [
        "B.m[0] = r", "B.m[i][j] = 0", "B.m[1:3] = []", "B.m[0], x = (r, 1)", "B.m[0] += r",
        "del B.m[0]", "B.m.append(r)", "B.m[0].extend(r)", "B.m.insert(0, r)"]


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
