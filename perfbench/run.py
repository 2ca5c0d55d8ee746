"""qcomb benchmark: end-to-end metrics per workload, and a separate traced per-layer run.

    python3 perfbench/run.py --workload closed-forms|oracles|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Each pass of a workload runs in a fresh
interpreter (perfbench/worker.py) as one closed-loop client: the next
operation starts only after the previous one has finished, and qcomb's
caches start cold.  With --trace 0, passes repeat while another one should
end within S seconds (at least two), each drawing its own inputs from the
seed and its index, and the medians are reported; with --trace 1,
untraced and traced passes of the same inputs give the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last stdout
line is the JSON result, also written to perfbench/out/.  Exit status is 0
when a result was produced, whether or not every answer was right (see
"correct" and "failed"), and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

PASS_TIMEOUT_S = 150  # a single pass; the whole run must end within 180 s
MIN_PASSES = 2
STARTUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "verify_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_EXTRA = (
    "polycore.mul_calls", "polycore.mul_s", "polycore.add_s", "polycore.series_s", "polycore.coeff_ops",
    "qanalogue.q_binomial_calls", "qanalogue.q_binomial_s", "qanalogue.q_multinomial_s",
    "qanalogue.oracle_s", "qanalogue.cache_entries", "qanalogue.cache_hit_ratio",
    "qanalogue.cache_lookups",
    "inversions.oracle_s", "inversions.words_enumerated", "inversions.words_per_s",
    "inversions.inversion_count_calls", "inversions.table_s", "inversions.bounds_s",
    "denumerant.psi_table_s", "denumerant.psi_s", "denumerant.via_denumerant_s",
    "denumerant.denumerant_s",
    "denumerant.cache_entries", "denumerant.subset_terms",
    "flagcells.cell_form_calls", "flagcells.cell_form_s", "flagcells.flags_enumerated",
    "flagcells.enumerate_flags_s", "flagcells.partitions_enumerated", "flagcells.cell_sum_poly_s",
    "flagcells.gl_enumerated", "flagcells.rank_calls", "flagcells.rank_s", "flagcells.s_reduce_s",
    "verification.qanalogue_s", "verification.inversions_s", "verification.denumerant_s",
    "verification.flagcells_s", "verification.checks_failed",
    "cli.interp_ms", "cli.import_ms", "cli.run_ms", "cli.render_s",
    "trace.base_wall_s", "trace.traced_wall_s", "trace.overhead_ratio",
)
PER_LAYER = tuple(
    f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s", "rss_growth_mib")
) + PER_LAYER_EXTRA


def unit_of(name: str) -> str:
    """A metric's unit, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload: str, seed: int, pass_index: int, role: str) -> dict:
    """One pass in a fresh interpreter; adds the spawn time to the worker's report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--pass-index", str(pass_index), "--role", role]
    spawn_at = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} pass of {workload} exceeded {PASS_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} pass of {workload} exited with status {proc.returncode}")
    report = json.loads(lines[-1])
    report["spawn_at"] = spawn_at
    return report


def startup_ms() -> tuple[float, float]:
    """Median wall ms of a bare `python -c pass` and of `python -c 'import qcomb.cli'`."""
    env = {k: v for k, v in os.environ.items() if k != "QCOMB_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    samples: dict[str, list[float]] = {"pass": [], "import qcomb.cli": []}
    for _ in range(STARTUP_SAMPLES):
        for code, times in samples.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples["pass"]), statistics.median(samples["import qcomb.cli"])


def pass_wall(report: dict) -> float:
    return sum(elapsed for _, elapsed, _ in report["ops"])


def measured_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced passes for about `seconds`, at least MIN_PASSES; end-to-end metrics as medians."""
    passes = []
    started = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(run_worker(workload, seed, len(passes), "measure"))
        now = time.monotonic()
        longest = max(longest, now - t0)
        # start another pass only if it should end within the time given
        if len(passes) >= MIN_PASSES and now - started + longest > seconds:
            break
        if now - started + longest > PASS_TIMEOUT_S:
            break
    records = [r for p in passes for r in p["ops"] + ([p["verify"]] if p["verify"] else [])]
    latencies = [elapsed for kind, elapsed, _ in records if kind != "verify"]
    verify = [elapsed for kind, elapsed, _ in records if kind == "verify"]
    metrics = {
        "setup_s": statistics.median(p["first_op_at"] - p["spawn_at"] for p in passes),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "verify_s": statistics.median(verify),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    failed = sum(not ok for _, _, ok in records)
    counts = {
        "passes": len(passes),
        "latency_samples": len(latencies),
        "verify_samples": len(verify),
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
    }
    return metrics, counts


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """Untraced and traced passes of the same inputs; per-layer metrics and the tracing overhead.

    The passes run untraced, traced, traced, untraced, so that a drift in
    host speed during the run cancels out of the overhead.
    """
    passes: dict[str, list[dict]] = {"base": [], "traced": []}
    for role in ("base", "traced", "traced", "base"):
        passes[role].append(run_worker(workload, seed, 0, role))
    metrics = dict(passes["traced"][0]["layers"])
    interp, imported = startup_ms()
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = imported - interp
    base_wall = statistics.median(pass_wall(p) for p in passes["base"])
    traced_wall = statistics.median(pass_wall(p) for p in passes["traced"])
    metrics["trace.base_wall_s"] = base_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = (traced_wall - base_wall) / base_wall
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchError(f"traced pass did not report {sorted(missing)}")
    records = [r for role in passes.values() for p in role for r in p["ops"]]
    failed = sum(not ok for _, _, ok in records)
    counts = {
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "shares_of_traced_wall": layer_shares(metrics),
    }
    return {name: metrics[name] for name in PER_LAYER}, counts


def layer_shares(m: dict) -> dict[str, float]:
    """Shares of the traced wall time spent in the layers each workload was chosen for."""
    wall = m["trace.traced_wall_s"]
    closed = sum(m[f"{layer}.self_s"] for layer in ("polycore", "qanalogue", "denumerant", "inversions"))
    enumeration = (m["flagcells.self_s"] + m["inversions.oracle_s"] + m["qanalogue.oracle_s"]
                   + m["denumerant.psi_s"])
    return {
        "polycore+qanalogue+denumerant+inversions self": closed / wall,
        "flagcells self + word, multiset and psi oracles": enumeration / wall,
    }


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else ""
    except OSError:
        pass

    def lines(sub: str) -> int:
        return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / sub).rglob("*.py")))

    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "src_lines": lines("src"),
        "tests_lines": lines("tests"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "qcomb" / "__init__.py").is_file():
        print(f"perfbench: no qcomb source under {ROOT / 'src'}; run from a qcomb checkout",
              file=sys.stderr)
        return 2
    info = environment(args.seed)
    try:
        if args.trace:
            metrics, counts = traced_run(args.workload, args.seed)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, counts = measured_run(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info["loadavg_end"] = os.getloadavg()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for name, value in counts.items():
        print(f"  {name:36s} {value}")
    print(f"  info {json.dumps(info)}")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump({**result, "counts": counts, "info": info}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
