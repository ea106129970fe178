"""Byte-identity oracle: replay every captured CLI output.

`perfbench/golden/tables.json` holds the text and csv render of all ten
published tables and pools of seeded CLI commands (density, gv, sweep,
conditional, pipeline24, mwbeat, compare), each with its exit code and
exact output.  Every one is replayed through `latpack.cli.run`; a change
that alters any byte of any output turns this red.  The file is read, never
written.
"""

import io
import json
from pathlib import Path

import pytest

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
