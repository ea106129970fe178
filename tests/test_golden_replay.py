"""Byte-identity oracle: replay every captured CLI output.

`perfbench/golden/tables.json` holds the text and csv render of all ten
published tables and pools of seeded CLI commands (density, gv, sweep,
conditional, pipeline24, mwbeat, compare), each with its exit code and
exact output.  Every one is replayed through `latpack.cli.run`; a change
that alters any byte of any output turns this red.  The file is read, never
written.  The table, density and sweep captures, with a density at the CLI
caps, also check that `log2_fraction` renders each density from brackets of
its product, never from the expansion.
"""

import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from latpack import exactnum
from latpack.cli import run

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "tables.json"


def _captures():
    data = json.loads(GOLDEN.read_text())
    out = [(" ".join(e["argv"]), e) for e in data["tables"]]
    for kind in sorted(data["pools"]):
        for band in sorted(data["pools"][kind]):
            out.extend((" ".join(e["argv"]), e) for e in data["pools"][kind][band])
    return out


CAPTURES = _captures()


def test_capture_count():
    # 20 table renders (ten tables, text and csv) and 222 pool commands.
    assert len(CAPTURES) == 242
    assert sum(key.startswith("table ") for key, _ in CAPTURES) == 20


@pytest.mark.parametrize("entry", [e for _, e in CAPTURES], ids=[k for k, _ in CAPTURES])
def test_replay(entry):
    out = io.StringIO()
    rc = run(list(entry["argv"]), out)
    assert rc == entry["rc"]
    assert out.getvalue() == entry["out"]


def test_density_renders_never_expand_their_products():
    argvs = [e["argv"] for key, e in CAPTURES if key.split()[0] in ("table", "density", "sweep")]
    argvs.append(["density", "--n", "65536", "--m", "8192", "--l", "262139", "--k", "65536"])
    callers = []
    expand = exactnum.expand_power_product

    def spy(factors):
        callers.append(sys._getframe(1).f_code.co_name)
        return expand(factors)

    with (mock.patch.object(exactnum, "expand_power_product", spy),
          mock.patch.object(exactnum, "_log2_squarings", wraps=exactnum._log2_squarings) as loop):
        for argv in argvs:
            assert run(list(argv), io.StringIO()) == 0, argv
    assert len(argvs) == 123 and loop.call_count >= len(argvs)
    assert "log2_fraction" not in callers
