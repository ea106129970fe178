"""Command-line front end.

Non-interactive, report-emitting.  Exit codes: 0 success, 2 validation
error, 3 capacity error.  The log2 density lines use the configured decimal
precision (flag --precision, environment variable LATPACK_PRECISION,
default 4); table columns, diffs and margins always print 4 decimals.
Outside input (files, rational flags, the environment) is converted where
it is read, so any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .errors import CapacityError, LatpackError, ParameterError, ParseError
from .exactnum import MAX_LOG2_DIGITS
from . import craig, codes, lift, records, svp

# Published dimension-k claims tracked for comparison in gv reports.
REFERENCE_GV_CLAIMS = {(4096, 1024): 772}

# The decimal exponent of a rational flag, which Fraction expands to 10^exp.
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")

# Rational flags whose value may be a negative number that argparse takes for
# an option: its negative-number pattern covers -5 and -.5 but not -1e999.
_RATIONAL_FLAGS = ("--value", "--tolerance")


def _join_rational_values(argv) -> list[str]:
    """Write ``--value -1e999`` as ``--value=-1e999``, which argparse reads as a value."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _RATIONAL_FLAGS and token.startswith("-"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _precision(digits: int | None) -> int:
    """The --precision flag, else LATPACK_PRECISION, else 4, within 1..MAX_LOG2_DIGITS."""
    if digits is None:
        env = os.environ.get("LATPACK_PRECISION")
        if not env:
            return 4
        try:
            digits = int(env)
        except ValueError:
            raise ParseError(f"LATPACK_PRECISION must be an integer, got {env!r}") from None
    if not 1 <= digits <= MAX_LOG2_DIGITS:
        raise ParseError(f"precision must lie in 1..{MAX_LOG2_DIGITS}, got {digits}")
    return digits


def _rational(text: str, flag: str) -> Fraction:
    """Parse a rational flag; its exponent and magnitude stay within 10^MAX_LOG2_DIGITS."""
    exp = _EXPONENT.search(text)
    try:
        exp_ok = exp is None or abs(int(exp.group(1))) <= MAX_LOG2_DIGITS
        value = Fraction(text) if exp_ok else None
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{flag} must be a rational number, got {text!r}") from None
    if value is None:
        raise ParseError(f"{flag} exponent must lie within +-{MAX_LOG2_DIGITS}, got {text!r}")
    if abs(value) >= 10**MAX_LOG2_DIGITS:
        raise ParseError(f"{flag} must be below 10^{MAX_LOG2_DIGITS} in magnitude, got {text!r}")
    return value


def _params(args) -> craig.CraigParams:
    default = craig.choose_params(args.n)
    return craig.CraigParams(args.n, default.m if args.m is None else args.m,
                             default.l if args.l is None else args.l)


def _density_block(out, result, digits):
    p, k, density = result.params, result.k, result.density  # a bad k raises before any output
    out.write(f"params: n={p.n} m={p.m} l={p.l} k={k}\n")
    out.write(f"log2 center density: {density.log2(digits)} ({'lifted' if k else 'plain'})\n")
    out.write(f"min norm guarantee: {result.min_norm_guarantee}\n")
    rec = records.builtin_records().best_record(p.n)
    if rec is not None:
        verdict = records.compare(p.n, density)
        out.write(
            f"reference: {rec.log2_delta} ({rec.name}); margin {verdict.margin} "
            f"({verdict.relation})\n"
        )


def cmd_construct(args, out):
    p = _params(args)
    if p.n + 1 > craig.BASIS_CAP:
        raise CapacityError(f"basis construction capped at ambient {craig.BASIS_CAP}")
    lattice = craig.craig_basis(p)
    if args.out:
        with open(args.out, "w") as fh:
            craig.write_basis(lattice, fh)
        out.write(f"wrote basis ({lattice.rank} x {lattice.ambient_dim}) to {args.out}\n")
    else:
        craig.write_basis(lattice, out)


def cmd_density(args, out):
    p = _params(args)
    if args.k and 8 * p.m > p.n + 1:
        raise ParameterError(f"no code of length n+1 = {p.n + 1} reaches distance 8m = {8 * p.m}")
    code = codes.CodeSpec(2, p.n + 1, args.k, 8 * p.m, codes.HYPOTHETICAL) if args.k else None
    _density_block(out, lift.LiftResult(p, code), args.precision)


def cmd_lift(args, out):
    p = _params(args)
    lifts = {p.n: lift.lift_with_length_n_code, p.n + 1: lift.lift_sublattice}

    def check(q, n):  # what the header decides, before the codeword walk
        if n not in lifts:
            raise ParameterError(f"code length {n} matches neither n nor n+1")
        if q != 2:
            raise ParameterError("code must be binary")

    with open(args.code, errors="replace") as fh:
        code = codes.read_generator(fh, check)
    result = lifts[code.n](p, code)
    out.write(f"code: {result.code}\n")
    _density_block(out, result, args.precision)
    if result.lattice is not None:
        out.write(f"constructed basis rank {result.lattice.rank}; "
                  f"vol^2 = {result.lattice.vol_sq}\n")


def cmd_gv(args, out):
    craig.check_dimension(args.n)
    k = codes.gv_max_k(args.n, args.d)
    out.write(f"exact GV maximum k for [{args.n}, k, {args.d}]: {k}\n")
    claim = REFERENCE_GV_CLAIMS.get((args.n, args.d))
    if claim is not None:
        out.write(f"published claim: k = {claim}; exact scan confirms k >= {claim}: "
                  f"{'yes' if k >= claim else 'no'}\n")


def cmd_verify(args, out):
    with open(args.basis, errors="replace") as fh:
        lattice = craig.read_basis(fh)
    cert = svp.verify_min_norm(lattice, args.bound)
    if cert.holds:
        out.write(f"certificate: holds (shortest norm {cert.norm} >= {args.bound})\n")
    else:
        out.write(f"certificate: violated (norm {cert.norm} < {args.bound}); "
                  f"witness {cert.witness}\n")


def cmd_table(args, out):
    tol = records.AGREE_TOLERANCE
    if args.tolerance is not None:
        tol = _rational(args.tolerance, "--tolerance")
        if tol < 0:
            raise ParseError(f"--tolerance must be >= 0, got {args.tolerance}")
    report = records.emit_table(args.id, tolerance=tol)
    out.write(records.render_report(report, args.format))


def cmd_sweep(args, out):
    result = lift.sweep_dimension(args.n)
    _density_block(out, result, args.precision)


def cmd_mwbeat(args, out):
    result = lift.mw_beater_search(args.p)
    mw = lift.mordell_weil_density(args.p)
    out.write(f"dimension {result.params.n}: code {result.code}\n")
    _density_block(out, result, args.precision)
    out.write(f"reference density (formula): {mw.log2(args.precision)}\n")


def cmd_pipeline24(args, out):
    result = lift.pipeline_24n(args.dim)
    _density_block(out, result, args.precision)


def cmd_conditional(args, out):
    p = craig.CraigParams(args.n, args.m, args.l)
    required = codes.CodeSpec(2, args.req_n, args.req_k, args.req_d, codes.HYPOTHETICAL)
    result = lift.LiftResult(p, required)
    status = lift.conditional_eval(result)
    density = result.density  # raises on a k out of range before any output
    out.write(f"required code: {required}\n")
    out.write(f"achieved log2 density: {density.log2(args.precision)}\n")
    out.write(f"status: {status}\n")
    rec = records.builtin_records().best_record(args.n)
    if rec is not None:
        v = records.compare(args.n, density)
        out.write(f"target record: {rec.log2_delta} ({rec.name}); margin {v.margin}\n")


def cmd_compare(args, out):
    verdict = records.compare(args.dim, _rational(args.value, "--value"))
    out.write(f"best record at {args.dim}: {verdict.against.log2_delta} "
              f"({verdict.against.name})\n")
    out.write(f"candidate {args.value}: {verdict.relation} by {verdict.margin}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then shared.

    Parsing leaves it unchanged: each call returns a fresh namespace.
    """
    ap = argparse.ArgumentParser(prog="latpack",
                                 description="exact lattice packings from codes")
    ap.add_argument("--precision", type=int, default=None,
                    help="decimal digits for log2 output (default 4)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        for flag, kw in flags.items():
            sp.add_argument(f"--{flag.replace('_', '-')}", **kw)
        sp.set_defaults(fn=fn)
        return sp

    add("construct", cmd_construct,
        n={"type": int, "required": True}, m={"type": int}, l={"type": int},
        out={"type": str})
    add("density", cmd_density,
        n={"type": int, "required": True}, m={"type": int}, l={"type": int},
        k={"type": int, "default": 0})
    add("lift", cmd_lift,
        n={"type": int, "required": True}, m={"type": int}, l={"type": int},
        code={"type": str, "required": True})
    add("gv", cmd_gv, n={"type": int, "required": True}, d={"type": int, "required": True})
    add("verify", cmd_verify,
        basis={"type": str, "required": True}, bound={"type": int, "required": True})
    add("table", cmd_table,
        id={"type": int, "required": True}, tolerance={"type": str},
        format={"type": str, "default": "text", "choices": ["text", "csv"]})
    add("sweep", cmd_sweep, n={"type": int, "required": True})
    add("mwbeat", cmd_mwbeat, p={"type": int, "required": True})
    add("pipeline24", cmd_pipeline24, dim={"type": int, "required": True})
    add("conditional", cmd_conditional,
        n={"type": int, "required": True}, m={"type": int, "required": True},
        l={"type": int, "required": True}, req_n={"type": int, "required": True},
        req_k={"type": int, "required": True}, req_d={"type": int, "required": True})
    add("compare", cmd_compare,
        dim={"type": int, "required": True}, value={"type": str, "required": True})
    return ap


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = _join_rational_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.precision = _precision(args.precision)
        args.fn(args, out)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (LatpackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
