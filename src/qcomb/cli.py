"""Command-line surface.

Subcommands
-----------
qbinom      Gaussian binomial coefficient row (or its value at an integer).
qmultinom   q-multinomial coefficient row for a cut sequence.
invdist     inversion distribution of multiset words (same numbers, word view).
inv         a single inversion count, by table, denumerant, or binomial route.
psi         coefficient of t^r in (1-t)(1-t^2)...(1-t^n), by any of four routes.
denumerant  number of representations of m by a weight vector.
bounds      exact rational lower/upper estimates for an inversion count.
flags       brute-force flag enumeration over F_p (list, count, or cell table).
tau         a two-block partition with prescribed cell dimension.
verify      run the cross-oracle self-checks (the only subcommand loading them).

Usage examples
--------------
  qcomb qbinom 4 2
  qcomb inv 10 --d 1,2,3,4,5,6,7,8,9 --k 12
  qcomb invdist 7 --d 2,4 --format csv
  qcomb flags 3 --d 1,2 --p 2 --count-only
  qcomb verify --suite all --max-n 6

Output goes to stdout (or --out FILE); diagnostics go to stderr.  Exit
status: 0 success, 1 validation or usage error, 2 resource-cap error,
3 verification failure.  The cap on enumerations can also be set through
the QCOMB_CAP environment variable; an explicit --cap wins.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .denumerant import (
    PSI_METHODS,
    WeightVector,
    denumerant,
    full_mahonian_via_binomials,
    mahonian_via_denumerant,
    psi,
)
from .errors import DEFAULT_CAP, SUITE_NAMES, ResourceLimitError, ValidationError, frozen
from .flagcells import (
    cell_sum_poly,
    enumerate_flags,
    enumerate_partitions,
    sigma_stats,
    tau_for_lambda,
)
from .inversions import inv_bounds, mahonian_coefficient, mahonian_table
from .polycore import IntPoly
from .qanalogue import FlagShape, q_binomial, q_multinomial

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

FORMATS = ("table", "csv", "json")


@frozen
class OutputRecord:
    """One command's result: a titled table with all integers as strings."""

    kind: str
    parameters: dict[str, str | list[str]]
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "payload": {
                "columns": list(self.columns),
                "rows": [list(row) for row in self.rows],
            },
        }


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        import json
        return json.dumps(record.to_json_obj(), indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(record.columns)]
        lines.extend(",".join(row) for row in record.rows)
        return "\n".join(lines) + "\n"
    widths = [len(c) for c in record.columns]
    for row in record.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(c.ljust(w) for c, w in zip(record.columns, widths)).rstrip()]
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in record.rows
    )
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValidationError(f"{label} must be a comma-separated list of integers, got {text!r}")


def _parse_shape(n: int, d_text: str) -> FlagShape:
    d = _parse_int_list(d_text, "--d")
    if d and d[-1] == n:
        print(
            f"notice: dropping final cut {n} equal to n (the flag spaces coincide)",
            file=sys.stderr,
        )
        d = d[:-1]
    return FlagShape(n, d)


def _distribution_record(kind: str, params: dict, poly: IntPoly) -> OutputRecord:
    rows = tuple((str(k), str(c)) for k, c in enumerate(poly.coeffs))
    return OutputRecord(kind, params, ("k", "count"), rows)


def _flag_text(flag) -> str:
    levels = []
    for basis in flag.bases:
        levels.append("/".join(" ".join(str(x) for x in row) for row in basis.entries))
    return " | ".join(levels) if levels else "(trivial)"


def _sigma_text(blocks: tuple[tuple[int, ...], ...]) -> str:
    return "|".join(" ".join(str(x) for x in block) for block in blocks)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (record, exit_code)


def _cmd_qbinom(args) -> tuple[OutputRecord, int]:
    poly = q_binomial(args.n, args.e)
    params: dict[str, str | list[str]] = {"n": str(args.n), "e": str(args.e)}
    if args.eval_at is not None:
        params["eval"] = str(args.eval_at)
        value = poly.eval_at(args.eval_at)
        return OutputRecord("qbinom", params, ("value",), ((str(value),),)), EXIT_OK
    return _distribution_record("qbinom", params, poly), EXIT_OK


def _cmd_qmultinom(args) -> tuple[OutputRecord, int]:
    shape = _parse_shape(args.n, args.d)
    params = {"n": str(args.n), "d": [str(x) for x in shape.d]}
    return _distribution_record("qmultinom", params, q_multinomial(shape)), EXIT_OK


def _cmd_invdist(args) -> tuple[OutputRecord, int]:
    shape = _parse_shape(args.n, args.d)
    params = {"n": str(args.n), "d": [str(x) for x in shape.d]}
    table = mahonian_table(shape)
    rows = tuple((str(k), str(c)) for k, c in enumerate(table.counts))
    return OutputRecord("invdist", params, ("k", "count"), rows), EXIT_OK


def _cmd_inv(args) -> tuple[OutputRecord, int]:
    shape = _parse_shape(args.n, args.d)
    if args.method == "table":
        value = mahonian_coefficient(shape, args.k)
    elif args.method == "denumerant":
        value = mahonian_via_denumerant(shape, args.k)
    else:
        if shape.d != FlagShape.full(args.n).d:
            raise ValidationError(
                "the binomial route only computes the plain permutation counts; "
                "use --d 1,2,...,n-1"
            )
        value = full_mahonian_via_binomials(args.n, args.k)
    params = {
        "n": str(args.n),
        "d": [str(x) for x in shape.d],
        "k": str(args.k),
        "method": args.method,
    }
    return OutputRecord("inv", params, ("value",), ((str(value),),)), EXIT_OK


def _cmd_psi(args) -> tuple[OutputRecord, int]:
    value = psi(args.n, args.r, method=args.method, cap=args.cap)
    params = {"n": str(args.n), "r": str(args.r), "method": args.method}
    return OutputRecord("psi", params, ("value",), ((str(value),),)), EXIT_OK


def _cmd_denumerant(args) -> tuple[OutputRecord, int]:
    weights = WeightVector(_parse_int_list(args.w, "--w"))
    value = denumerant(weights, args.m)
    params = {"w": [str(x) for x in weights.weights], "m": str(args.m)}
    return OutputRecord("denumerant", params, ("value",), ((str(value),),)), EXIT_OK


def _cmd_bounds(args) -> tuple[OutputRecord, int]:
    shape = _parse_shape(args.n, args.d)
    lower, upper = inv_bounds(shape, args.k)
    params = {"n": str(args.n), "d": [str(x) for x in shape.d], "k": str(args.k)}
    rows = (("lower", str(lower)), ("upper", str(upper)))
    return OutputRecord("bounds", params, ("bound", "value"), rows), EXIT_OK


def _cmd_flags(args) -> tuple[OutputRecord, int]:
    shape = _parse_shape(args.n, args.d)
    params = {"n": str(args.n), "d": [str(x) for x in shape.d], "p": str(args.p)}
    if args.cells:
        rows = []
        for sigma in enumerate_partitions(shape, cap=args.cap):
            lam = sigma_stats(sigma).lam
            rows.append((_sigma_text(sigma.blocks), str(lam), str(args.p**lam)))
        total = cell_sum_poly(shape, cap=args.cap).eval_at(args.p)
        rows.append(("total", "", str(total)))
        return (
            OutputRecord("flags-cells", params, ("sigma", "dimension", "flags"), tuple(rows)),
            EXIT_OK,
        )
    flags = enumerate_flags(shape, args.p, cap=args.cap)
    if args.count_only:
        return (
            OutputRecord("flags-count", params, ("count",), ((str(len(flags)),),)),
            EXIT_OK,
        )
    rows = tuple((_flag_text(flag),) for flag in flags)
    return OutputRecord("flags", params, ("flag",), rows), EXIT_OK


def _cmd_tau(args) -> tuple[OutputRecord, int]:
    partition = tau_for_lambda(args.n, args.d1, args.k)
    lam = sigma_stats(partition).lam
    params = {"n": str(args.n), "d1": str(args.d1), "k": str(args.k)}
    rows = (
        ("tau1", " ".join(str(x) for x in partition.blocks[0])),
        ("tau2", " ".join(str(x) for x in partition.blocks[1])),
        ("dimension", str(lam)),
    )
    return OutputRecord("tau", params, ("name", "value"), rows), EXIT_OK


def _cmd_verify(args) -> tuple[OutputRecord, int]:
    from .verification import run_suite  # verify alone loads the registry
    results = run_suite(args.suite, max_n=args.max_n, cap=args.cap)
    rows = tuple(
        (res.suite, res.name, "PASS" if res.passed else "FAIL", res.detail)
        for res in results
    )
    params = {"suite": args.suite, "max_n": str(args.max_n)}
    record = OutputRecord("verify", params, ("suite", "check", "status", "detail"), rows)
    status = EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY
    return record, status


# ---------------------------------------------------------------------------


def _build_parser(default_cap: int) -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table", help="output format")
    common.add_argument(
        "--cap",
        type=int,
        default=default_cap,
        help=f"enumeration cap (default {default_cap}; env QCOMB_CAP overrides)",
    )
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    parser = _Parser(prog="qcomb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("qbinom", parents=[common], help="Gaussian binomial coefficients")
    p.add_argument("n", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--eval", dest="eval_at", type=int, default=None, metavar="Q",
                   help="evaluate at an integer instead of listing coefficients")
    p.set_defaults(handler=_cmd_qbinom)

    p = sub.add_parser("qmultinom", parents=[common], help="q-multinomial coefficients")
    p.add_argument("n", type=int)
    p.add_argument("--d", default="", metavar="D1,D2,...", help="strictly increasing cuts")
    p.set_defaults(handler=_cmd_qmultinom)

    p = sub.add_parser("invdist", parents=[common], help="inversion distribution table")
    p.add_argument("n", type=int)
    p.add_argument("--d", default="", metavar="D1,D2,...")
    p.set_defaults(handler=_cmd_invdist)

    p = sub.add_parser("inv", parents=[common], help="single inversion count")
    p.add_argument("n", type=int)
    p.add_argument("--d", default="", metavar="D1,D2,...")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("table", "denumerant", "binomial"), default="table")
    p.set_defaults(handler=_cmd_inv)

    p = sub.add_parser("psi", parents=[common], help="coefficients of (1-t)...(1-t^n)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--method", choices=PSI_METHODS, default="fn-coefficients")
    p.set_defaults(handler=_cmd_psi)

    p = sub.add_parser("denumerant", parents=[common], help="representation counts")
    p.add_argument("m", type=int)
    p.add_argument("--w", required=True, metavar="W1,W2,...", help="positive weights")
    p.set_defaults(handler=_cmd_denumerant)

    p = sub.add_parser("bounds", parents=[common], help="rational inversion-count bounds")
    p.add_argument("n", type=int)
    p.add_argument("--d", default="", metavar="D1,D2,...")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("flags", parents=[common], help="flag enumeration over F_p")
    p.add_argument("n", type=int)
    p.add_argument("--d", default="", metavar="D1,D2,...")
    p.add_argument("--p", type=int, required=True, help="prime field size")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count-only", action="store_true")
    mode.add_argument("--cells", action="store_true")
    p.set_defaults(handler=_cmd_flags)

    p = sub.add_parser("tau", parents=[common], help="partition with prescribed cell dimension")
    p.add_argument("n", type=int)
    p.add_argument("d1", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("verify", parents=[common], help="run cross-oracle self-checks")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute one command, write its output; returns exit status."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact answers may exceed 4300 digits
        sys.set_int_max_str_digits(0)
    default_cap = DEFAULT_CAP
    env_cap = os.environ.get("QCOMB_CAP")
    if env_cap is not None:
        try:
            default_cap = int(env_cap)
        except ValueError:
            default_cap = 0
        if default_cap < 1:
            print(f"qcomb: ignoring QCOMB_CAP={env_cap!r}, not a positive integer", file=sys.stderr)
            default_cap = DEFAULT_CAP
    parser = _build_parser(default_cap)
    args = parser.parse_args(argv)
    try:
        if args.cap < 1:
            raise ValidationError(f"--cap must be a positive integer, got {args.cap}")
        record, status = args.handler(args)
    except ValidationError as exc:
        print(f"qcomb: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"qcomb: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    text = render(record, args.format)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
