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
status: 0 success, 1 validation or usage error, 2 resource-cap error or
out of memory, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

from .denumerant import (
    PSI_METHODS,
    WeightVector,
    denumerant,
    full_mahonian_via_binomials,
    mahonian_via_denumerant,
    psi,
)
from .errors import DEFAULT_CAP, SUITE_NAMES, ResourceLimitError, ValidationError, require_int, require_prime
from .flagcells import cell_dimension, enumerate_flags, enumerate_partitions, tau_for_lambda
from .inversions import inv_bounds, mahonian_coefficient, mahonian_table
from .qanalogue import FlagShape, q_binomial, q_binomial_at

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

FORMATS = ("table", "csv", "json")


def output_record(kind: str, parameters: dict, columns: Sequence[str], rows: Iterable) -> dict:
    """One command's result, as the object `output_record.schema.json` describes.

    Every parameter value and every cell becomes a decimal string (a tuple
    parameter a list of strings), so handlers pass plain ints, Fractions and
    tuples and any JSON parser keeps the values exact.  Each row is a tuple,
    which `json.dumps` writes as an array: the garbage collector stops tracking
    a tuple of strings but not a list, so a million rows build in half the time.
    """
    return {
        "kind": kind,
        "parameters": {
            key: [str(x) for x in value] if isinstance(value, tuple) else str(value)
            for key, value in parameters.items()
        },
        "payload": {"columns": list(columns), "rows": [tuple(map(str, row)) for row in rows]},
    }


def render(record: dict, fmt: str) -> str:
    if fmt == "json":
        import json
        return json.dumps(record, indent=2) + "\n"
    table = [record["payload"]["columns"], *record["payload"]["rows"]]
    if fmt == "csv":
        lines = map(",".join, table)
    else:
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)
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


def _shape_params(args, shape: FlagShape, *names: str) -> dict:
    """The parameters n and d of a parsed shape, then the named arguments."""
    return {"n": args.n, "d": shape.d, **{name: getattr(args, name) for name in names}}


def _flag_text(flag) -> str:
    levels = ["/".join(" ".join(map(str, row)) for row in basis.entries) for basis in flag.bases]
    return " | ".join(levels) if levels else "(trivial)"


def _sigma_text(blocks: tuple[tuple[int, ...], ...]) -> str:
    return "|".join(" ".join(str(x) for x in block) for block in blocks)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (record, exit_code)


def _cmd_qbinom(args) -> tuple[dict, int]:
    params = {"n": args.n, "e": args.e}
    if args.eval_at is not None:
        params["eval"] = args.eval_at
        value = q_binomial_at(args.n, args.e, args.eval_at)
        return output_record("qbinom", params, ("value",), [[value]]), EXIT_OK
    rows = enumerate(q_binomial(args.n, args.e).coeffs)
    return output_record("qbinom", params, ("k", "count"), rows), EXIT_OK


def _cmd_row(args) -> tuple[dict, int]:
    # qmultinom and invdist print one row: the q-multinomial's coefficients are the inversion counts
    shape = _parse_shape(args.n, args.d)
    rows = enumerate(mahonian_table(shape).counts)
    return output_record(args.command, _shape_params(args, shape), ("k", "count"), rows), EXIT_OK


def _cmd_inv(args) -> tuple[dict, int]:
    shape = _parse_shape(args.n, args.d)
    require_int(args.k, "inversion count", 0)  # -1 is an error on every route, not a count of 0
    if args.method == "table":
        value = mahonian_coefficient(shape, args.k)
    elif args.method == "denumerant":
        value = mahonian_via_denumerant(shape, args.k)
    else:
        if shape.eta:  # eta = 0 exactly when every block has one letter
            raise ValidationError(
                "the binomial route only computes the plain permutation counts; "
                "use --d 1,2,...,n-1"
            )
        value = full_mahonian_via_binomials(args.n, args.k)
    params = _shape_params(args, shape, "k", "method")
    return output_record("inv", params, ("value",), [[value]]), EXIT_OK


def _cmd_psi(args) -> tuple[dict, int]:
    value = psi(args.n, args.r, method=args.method, cap=args.cap)
    params = {"n": args.n, "r": args.r, "method": args.method}
    return output_record("psi", params, ("value",), [[value]]), EXIT_OK


def _cmd_denumerant(args) -> tuple[dict, int]:
    weights = WeightVector(_parse_int_list(args.w, "--w"))
    params = {"w": weights.weights, "m": args.m}
    return output_record("denumerant", params, ("value",), [[denumerant(weights, args.m)]]), EXIT_OK


def _cmd_bounds(args) -> tuple[dict, int]:
    shape = _parse_shape(args.n, args.d)
    lower, upper = inv_bounds(shape, args.k)
    rows = (("lower", lower), ("upper", upper))
    return output_record("bounds", _shape_params(args, shape, "k"), ("bound", "value"), rows), EXIT_OK


def _cmd_flags(args) -> tuple[dict, int]:
    shape = _parse_shape(args.n, args.d)
    require_prime(args.p)  # --cells never builds a matrix, so check p here for both modes
    params = _shape_params(args, shape, "p")
    if args.cells:
        rows = []
        for sigma in enumerate_partitions(shape, cap=args.cap):
            lam = cell_dimension(sigma)
            rows.append((_sigma_text(sigma.blocks), lam, args.p**lam))
        rows.append(("total", "", sum(row[2] for row in rows)))
        return output_record("flags-cells", params, ("sigma", "dimension", "flags"), rows), EXIT_OK
    flags = enumerate_flags(shape, args.p, cap=args.cap)
    if args.count_only:
        return output_record("flags-count", params, ("count",), [[len(flags)]]), EXIT_OK
    return output_record("flags", params, ("flag",), [[_flag_text(flag)] for flag in flags]), EXIT_OK


def _cmd_tau(args) -> tuple[dict, int]:
    partition = tau_for_lambda(args.n, args.d1, args.k)
    params = {"n": args.n, "d1": args.d1, "k": args.k}
    rows = (
        ("tau1", " ".join(map(str, partition.blocks[0]))),
        ("tau2", " ".join(map(str, partition.blocks[1]))),
        ("dimension", cell_dimension(partition)),
    )
    return output_record("tau", params, ("name", "value"), rows), EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    from .verification import run_suite  # verify alone loads the registry
    results = run_suite(args.suite, max_n=args.max_n, cap=args.cap)
    rows = [(res.suite, res.name, "PASS" if res.passed else "FAIL", res.detail) for res in results]
    params = {"suite": args.suite, "max_n": args.max_n}
    record = output_record("verify", params, ("suite", "check", "status", "detail"), rows)
    return record, EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table", help="output format")
    common.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"enumeration cap (default {DEFAULT_CAP})")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    parser = _Parser(prog="qcomb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, summary, handler, *int_positionals, cuts=False):
        p = sub.add_parser(name, parents=[common], help=summary)
        for positional in int_positionals:
            p.add_argument(positional, type=int)
        if cuts:
            p.add_argument("--d", default="", metavar="D1,D2,...", help="strictly increasing cuts")
        p.set_defaults(handler=handler)
        return p

    p = command("qbinom", "Gaussian binomial coefficients", _cmd_qbinom, "n", "e")
    p.add_argument("--eval", dest="eval_at", type=int, default=None, metavar="Q",
                   help="evaluate at an integer instead of listing coefficients")
    command("qmultinom", "q-multinomial coefficients", _cmd_row, "n", cuts=True)
    command("invdist", "inversion distribution table", _cmd_row, "n", cuts=True)
    p = command("inv", "single inversion count", _cmd_inv, "n", cuts=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("table", "denumerant", "binomial"), default="table")
    p = command("psi", "coefficients of (1-t)...(1-t^n)", _cmd_psi, "n", "r")
    p.add_argument("--method", choices=PSI_METHODS, default="fn-coefficients")
    p = command("denumerant", "representation counts", _cmd_denumerant, "m")
    p.add_argument("--w", required=True, metavar="W1,W2,...", help="positive weights")
    p = command("bounds", "rational inversion-count bounds", _cmd_bounds, "n", cuts=True)
    p.add_argument("--k", type=int, required=True)
    p = command("flags", "flag enumeration over F_p", _cmd_flags, "n", cuts=True)
    p.add_argument("--p", type=int, required=True, help="prime field size")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count-only", action="store_true")
    mode.add_argument("--cells", action="store_true")
    command("tau", "partition with prescribed cell dimension", _cmd_tau, "n", "d1", "k")
    p = command("verify", "run cross-oracle self-checks", _cmd_verify)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute one command, write its output; returns exit status."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact answers may exceed 4300 digits
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        require_int(args.cap, "--cap", 1)
        record, status = args.handler(args)
        text = render(record, args.format)
    except ValidationError as exc:
        print(f"qcomb: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"qcomb: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print(f"qcomb: resource limit: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"qcomb: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
