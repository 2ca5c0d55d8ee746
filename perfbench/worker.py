"""One pass of a workload in a fresh interpreter; prints its measurements as JSON.

run.py starts this script once per pass:

    python3 perfbench/worker.py --workload W --seed S --pass-index I --role measure|base|traced

Roles:
  measure  untraced; cli ops run as `python -m qcomb.cli` subprocesses, and
           the other workloads run `qcomb verify` after their ops on even passes
  base     untraced, cli ops in-process, no verify subprocess: the
           reference for the tracing overhead
  traced   as base, with the span wrappers installed

The last stdout line is a JSON object; failed ops are described on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qcomb  # noqa: E402
import qcomb.cli  # noqa: E402
import qcomb.verification  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60
OUT_DIR = HERE / "out"


def child_env() -> dict[str, str]:
    """The environment of qcomb subprocesses: this checkout's source, the default cap."""
    env = {k: v for k, v in os.environ.items() if k != "QCOMB_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class ChildRunner:
    """Runs `python -m qcomb.cli ARGV` one at a time; keeps the children's peak RSS."""

    def __init__(self) -> None:
        self.env = child_env()
        self.max_rss_kib = 0

    def __call__(self, argv) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcomb.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            # reap with wait4 to read this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        return proc.returncode, out.decode()


def inproc_cli(argv) -> tuple[int, str]:
    """`qcomb.cli.run(argv)` in this process, with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qcomb.cli.run(list(argv))
        except SystemExit as exc:  # argparse usage errors exit from inside run()
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def load_golden() -> dict:
    with open(HERE / "golden.json") as handle:
        return {tuple(g["argv"]): (g["exit"], g["stdout"]) for g in json.load(handle)}


def run_ops(prepared, tracer: spans.Tracer | None = None) -> list[tuple[str, float, bool]]:
    """Run ops one after another, timing each; answers are checked outside the timed region."""
    records = []
    for i, (op, call, expected) in enumerate(prepared):
        span = tracer.begin_op(i, op.kind) if tracer else None
        error = None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crashed op is a failed op
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        ok = False
        if error is None:
            try:
                ok = workloads.check(op, expected, result)
            except Exception as exc:  # a malformed result is a wrong answer
                error = exc
        if not ok:
            print(f"FAILED {op.kind} {op.args!r:.200}: {error!r}", file=sys.stderr)
        records.append((op.kind, elapsed, ok))
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--role", choices=("measure", "base", "traced"), required=True)
    args = parser.parse_args()
    os.environ.pop("QCOMB_CAP", None)

    ops = workloads.make_ops(args.workload, args.seed, args.pass_index)
    children = ChildRunner()
    cli_call = children
    if args.role != "measure":
        ops, cli_call = workloads.inproc_ops(ops), inproc_cli
    golden = load_golden()
    prepared = [(op, *workloads.prepare(op, qcomb, golden, cli_call)) for op in ops]
    children(workloads.WARMUP_ARGV)  # untimed: bytecode caches exist before the first op
    children.max_rss_kib = 0

    tracer = spans.Tracer() if args.role == "traced" else None
    first_op_at = time.monotonic()
    if tracer:
        with tracer.installed():
            records = run_ops(prepared, tracer)
    else:
        records = run_ops(prepared)
    if args.workload == "cli" and args.role == "measure":
        peak_kib = children.max_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "first_op_at": first_op_at,
        "ops": records,
        "peak_rss_mib": peak_kib / 1024,
        "verify": None,
    }
    if args.role == "measure" and args.workload != "cli" and args.pass_index % 2 == 0:
        # the verify operation of the cli workload, after every other pass and outside
        # this workload's ops, so that every workload reports verify_s
        verify = workloads.Op("verify", workloads.VERIFY_ARGV)
        (report["verify"],) = run_ops([(verify, *workloads.prepare(verify, qcomb, golden, children))])
    if tracer:
        layers = tracer.layer_metrics()
        layers.update(spans.cache_metrics())
        for suite in workloads.VERIFY_SUITES:
            layers[f"verification.{suite}_s"] = 0.0
        for (kind, elapsed, _), (op, _, _) in zip(records, prepared):
            if kind == "run_suite":
                layers[f"verification.{op.args[0]}_s"] += elapsed
        report["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_tsv(OUT_DIR / f"{args.workload}.spans.tsv")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
