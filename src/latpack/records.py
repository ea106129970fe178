"""Density records, table reproduction reports, and the discrepancy ledger.

Published values are stored verbatim as decimal strings and never corrected;
every reproduction report recomputes the construction with exact arithmetic
and reconciles in a diff column.  Rows whose diff exceeds the tolerance land
in the discrepancy ledger.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from importlib.resources import files

from .errors import ParameterError, ParseError
from .exactnum import format_decimal
from .craig import CraigParams, LogDensity, center_density_lb
from . import codes as codes_mod
from .codes import CodeSpec, read_csv_rows
from . import lift as lift_mod

__all__ = [
    "RecordEntry",
    "RecordTable",
    "CompareVerdict",
    "TableRow",
    "TableReport",
    "ingest",
    "builtin_records",
    "compare",
    "emit_table",
    "render_report",
    "TABLE_SIZES",
]

TABLE_SIZES = {1: 4, 2: 15, 3: 7, 4: 25, 5: 7, 6: 7, 7: 22, 8: 15, 9: 7, 10: 7}
AGREE_TOLERANCE = Fraction(1, 20)  # 0.05 in log2 flags the "agrees" column

_KINDS = ("record", "paper-claim", "hypothetical")


@dataclass(frozen=True)
class RecordEntry:
    dim: int
    log2_delta: str  # verbatim decimal string
    name: str
    source: str
    kind: str

    def value(self) -> Fraction:
        return Fraction(self.log2_delta)


class RecordTable:
    def __init__(self):
        self.by_dim: dict[int, list[RecordEntry]] = {}

    def add(self, entry: RecordEntry) -> None:
        if entry.kind not in _KINDS:
            raise ParameterError(f"unknown record kind {entry.kind!r}")
        if any(e.name == entry.name for e in self.by_dim.get(entry.dim, [])):
            raise ParameterError(f"duplicate record ({entry.dim}, {entry.name})")
        self.by_dim.setdefault(entry.dim, []).append(entry)

    def best_record(self, dim: int) -> RecordEntry | None:
        cands = [e for e in self.by_dim.get(dim, []) if e.kind == "record"]
        if not cands:
            return None
        return max(cands, key=lambda e: (e.value(), e.name))


def ingest(path) -> RecordTable:
    """Records CSV with header dim,log2_delta,name,source,kind."""
    table = RecordTable()
    for ln, row in read_csv_rows(path, "dim", 5):
        try:
            entry = RecordEntry(int(row[0]), *row[1:])
            Fraction(entry.log2_delta)
            table.add(entry)
        except (ValueError, ZeroDivisionError) as exc:  # ParameterError included
            raise ParseError(f"{path}: line {ln}: {exc}") from None
    return table


@functools.cache
def builtin_records() -> RecordTable:
    return ingest(files("latpack").joinpath("data/records.csv"))


@dataclass
class CompareVerdict:
    margin: str  # rendered to 4 decimals
    against: RecordEntry

    @property
    def relation(self) -> str:
        """beats, ties or below: the sign of the margin as rendered."""
        shown = Fraction(self.margin)
        return "beats" if shown > 0 else "below" if shown < 0 else "ties"


def _as_log2_fraction(candidate) -> Fraction:
    if isinstance(candidate, LogDensity):
        return candidate.log2_fraction()
    if isinstance(candidate, (Fraction, int)):
        return Fraction(candidate)
    raise ParameterError(
        f"candidate must be a LogDensity or an exact rational, got {type(candidate).__name__}")


def compare(dim: int, candidate, records: RecordTable | None = None) -> CompareVerdict:
    """Margin of a candidate density over the best record at this dimension.

    The candidate is a LogDensity or an exact log2(delta) (Fraction or int).
    """
    if records is None:
        records = builtin_records()
    best = records.best_record(dim)
    if best is None:
        raise ParameterError(f"no record stored for dimension {dim}")
    return CompareVerdict(format_decimal(_as_log2_fraction(candidate) - best.value(), 4), best)


@dataclass
class TableRow:
    table: int
    dim: int
    computed: str
    stated: str
    diff: str
    within: bool
    note: str = ""


@dataclass
class TableReport:
    table_id: int
    rows: list[TableRow] = field(default_factory=list)

    @property
    def ledger(self) -> list[TableRow]:
        """The discrepancy ledger: the rows beyond tolerance."""
        return [r for r in self.rows if not r.within]


@dataclass(frozen=True)
class _RawRow:
    table: int
    dim: int
    kind: str
    m: int | None
    l: int | None
    k: int | None
    stated: str
    alt: str
    known: str
    known_name: str


@functools.cache
def _load_raw_rows() -> list[_RawRow]:
    rows = []
    path = files("latpack").joinpath("data/published_tables.csv")
    for _, row in read_csv_rows(path, "table", 10):
        t, dim, kind, m, l, k, stated, alt, known, known_name = row
        rows.append(
            _RawRow(
                int(t), int(dim), kind,
                int(m) if m else None, int(l) if l else None, int(k) if k else None,
                stated, alt, known, known_name,
            )
        )
    return rows


def table_rows(table_id: int) -> list[_RawRow]:
    rows = [r for r in _load_raw_rows() if r.table == table_id]
    if not rows:
        raise ParameterError(f"no such table: {table_id}")
    return rows


def _compute_row(raw: _RawRow):
    """Exact log2-density Fraction for one table row, plus a note string."""
    if raw.kind == "lift":
        params = CraigParams(raw.dim, raw.m, raw.l)
        val = center_density_lb(params, raw.k)
        return val.log2_fraction(), f"(m={raw.m}, l={raw.l}, k={raw.k})"
    if raw.kind == "conditional":
        result = lift_mod.LiftResult(CraigParams(raw.dim, raw.m, raw.l),
                                     CodeSpec(2, raw.dim, raw.k, 8 * raw.m, codes_mod.HYPOTHETICAL))
        return result.density.log2_fraction(), (
            f"(m={raw.m}, l={raw.l}, k={raw.k}) requires {result.code} "
            f"[{lift_mod.conditional_eval(result)}]"
        )
    if raw.kind == "craig8x":
        # The published construction is exactly 8x the recorded best Craig
        # density, so the reproduced value is the known column + 3.
        val = Fraction(raw.known) + 3
        formula = lift_mod.improve_craig_8x(raw.dim + 1)
        return val, (
            f"known Craig + 3.0000 exactly; formula value "
            f"{formula.density.log2(4)} (m={formula.params.m})"
        )
    if raw.kind == "mwbeat":
        # The table states k = floor(0.3776 (p-1)); the search owns the
        # parameters and the exact GV k.
        p = (raw.dim + 2) // 2
        result = lift_mod.mw_beater_search(p)
        params = result.params
        k_stated = 3776 * (p - 1) // 10000
        val = center_density_lb(params, k_stated).log2_fraction()
        return val, (
            f"(p={p}, m={params.m}, l={params.l}, k={k_stated}); exact GV k={result.code.k} "
            f"gives {result.density.log2(4)}"
        )
    if raw.kind == "pipeline24":
        result = lift_mod.pipeline_24n(raw.dim)
        return result.density.log2_fraction(), (
            f"(m={result.params.m}, l={result.params.l}, k={result.code.k})"
        )
    if raw.kind == "sweep":
        result = lift_mod.sweep_dimension(raw.dim)
        return result.density.log2_fraction(), (
            f"sweep chose (m={result.params.m}, l={result.params.l}, k={result.k})"
        )
    raise ParameterError(f"unknown table row kind {raw.kind!r}")


def emit_table(table_id: int, tolerance: Fraction = AGREE_TOLERANCE) -> TableReport:
    """Recompute every row of a published table and report computed vs stated."""
    report = TableReport(table_id)
    for raw in table_rows(table_id):
        val, note = _compute_row(raw)
        variants = [raw.stated] + ([raw.alt] if raw.alt else [])
        diffs = [abs(val - Fraction(v)) for v in variants]
        diff = min(diffs)
        within = diff <= tolerance
        if raw.alt:
            note = f"{note}; stated twice: {raw.stated} / {raw.alt}"
        if raw.known:
            label = f" ({raw.known_name})" if raw.known_name else ""
            note = f"{note}; known {raw.known}{label}"
        elif raw.known_name:
            note = f"{note}; {raw.known_name}"
        report.rows.append(TableRow(
            raw.table, raw.dim, format_decimal(val, 4), raw.stated, format_decimal(diff, 4),
            within, note
        ))
    return report


def render_report(report: TableReport, fmt: str = "text") -> str:
    if fmt == "csv":
        lines = ["table,dim,computed,stated,diff,agrees,note"]
        for r in report.rows:
            note = r.note.replace(",", ";")
            lines.append(
                f"{r.table},{r.dim},{r.computed},{r.stated},{r.diff},"
                f"{'yes' if r.within else 'no'},{note}"
            )
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ParameterError(f"unknown format {fmt!r}")
    header = f"{'dim':>6}  {'computed':>12}  {'stated':>12}  {'diff':>9}  flag  note"
    lines = [f"table {report.table_id}", header, "-" * len(header)]
    for r in report.rows:
        flag = "ok" if r.within else "DISCREPANCY"
        lines.append(
            f"{r.dim:>6}  {r.computed:>12}  {r.stated:>12}  {r.diff:>9}  {flag:<11}  {r.note}"
        )
    if report.ledger:
        lines.append(f"discrepancy ledger: {len(report.ledger)} row(s) beyond tolerance")
        for r in report.ledger:
            lines.append(f"  dim {r.dim}: computed {r.computed} vs stated {r.stated} (diff {r.diff})")
    else:
        lines.append("discrepancy ledger: empty")
    return "\n".join(lines) + "\n"
