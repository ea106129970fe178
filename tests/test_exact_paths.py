"""No float on the certified path: a lint over the source of the exact kernels.

The shortest-vector certificates (all of `svp.py`) and the `exactnum`
kernels they and the density arithmetic rest on must compute with ints and
Fractions only.  The walk flags a float literal, a true division `/`, the
name `float`, and any `math` function other than the integer ones.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latpack"

EXACTNUM_KERNELS = [
    "gso_extend", "gram_det", "_first_nonzero", "echelon_pivots", "left_solver", "solve_left",
    "binom_sums", "_binom_split", "binom_sum_bit_lengths", "is_prime", "_log2_fixed",
    "compare_power_products", "expand_power_product", "div_round_half_even", "format_decimal",
    "log2_fraction", "log2_of",
]
INTEGER_MATH = {"isqrt", "lcm", "prod", "comb", "perm", "gcd"}


def float_uses(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append("true division")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append("name float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"math.{node.attr}")
    return found


def functions(path: Path) -> dict:
    tree = ast.parse(path.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_svp_uses_no_float():
    assert float_uses(ast.parse((SRC / "svp.py").read_text())) == []


def test_exactnum_kernels_use_no_float():
    defs = functions(SRC / "exactnum.py")
    assert set(EXACTNUM_KERNELS) <= set(defs)
    found = {name: float_uses(defs[name]) for name in EXACTNUM_KERNELS}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_lint_sees_each_kind_of_float_use():
    # choose_params picks its default m with a float, off the certified
    # path; it is out of scope, and the walk flags it.
    assert sorted(float_uses(functions(SRC / "craig.py")["choose_params"])) == [
        "float literal 0.5", "float literal 2.0", "math.floor", "math.log", "true division"]
    snippet = "x = 1.5\ny = a / b\nz = float(a)\nw = math.log(a) + math.isqrt(a)\nv /= 2\n"
    assert sorted(float_uses(ast.parse(snippet))) == [
        "float literal 1.5", "math.log", "name float", "true division", "true division"]
