"""Seeded inputs, expected answers and answer checks for the three workloads.

`make_ops(workload, seed, pass_index)` turns a seed into plain data (no
qcomb objects), so the same seed always gives the same inputs.  `prepare` binds an op to the
qcomb call that the benchmark times and computes its expected answer;
`check` compares a result with that answer.  The reference arithmetic below
(`ref_series`, `pentagonal_coefficient`, `check_cell_form`) is written
independently of qcomb, so a check never shares the kernel it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Sequence

WORKLOADS = ("closed-forms", "oracles", "cli")

# The 13 README examples other than `verify`, as argv lists for `qcomb`.
README_EXAMPLES: tuple[tuple[str, ...], ...] = (
    ("qbinom", "4", "2"),
    ("qbinom", "4", "2", "--eval", "2"),
    ("qmultinom", "7", "--d", "2,4"),
    ("invdist", "7", "--d", "2,4"),
    ("inv", "10", "--d", "1,2,3,4,5,6,7,8,9", "--k", "12"),
    ("inv", "7", "--d", "2,4", "--k", "3", "--method", "denumerant"),
    ("psi", "6", "6"),
    ("psi", "6", "5", "--method", "exp-log"),
    ("denumerant", "4", "--w", "1,2"),
    ("bounds", "5", "--d", "1,2", "--k", "6"),
    ("flags", "3", "--d", "1,2", "--p", "2", "--count-only"),
    ("flags", "3", "--d", "1,2", "--p", "2", "--cells"),
    ("tau", "4", "2", "3"),
)

# Error paths with their documented exit codes; stdout must stay empty.
# stderr is not compared: its wording is not part of the contract.
ERROR_PATHS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("qbinom", "4", "5"), 1),
    (("flags", "2", "--p", "4"), 1),
    (("flags", "4", "--d", "1,2,3", "--p", "3", "--count-only", "--cap", "100"), 2),
)

VERIFY_ARGV = ("verify", "--suite", "all", "--max-n", "6")
WARMUP_ARGV = ("qbinom", "4", "2")

# README examples and error paths are run this many times per cli pass,
# each round in its own seeded order.
CLI_ROUNDS = 2


@dataclass(frozen=True)
class Op:
    """One operation of a workload: a kind and its generated arguments."""

    kind: str
    args: tuple


# ---------------------------------------------------------------------------
# input generation


def grid(rng: random.Random, lo: int, hi: int, k: int, jitter: int = 1) -> list[int]:
    """k sizes spread evenly over [lo, hi], each moved by at most `jitter` by the seed."""
    return [min(hi, max(lo, lo + (hi - lo) * i // (k - 1) + rng.randint(-jitter, jitter)))
            for i in range(k)]


def spread(i: int) -> float:
    """The i-th of a sequence of fractions that fills (0, 1) evenly (golden-ratio steps)."""
    return 0.1 + 0.8 * (i * 0.6180339887498949 % 1)


def pick_near(rng: random.Random, pool: Sequence, cost: Callable[[Any], float],
              targets: Sequence[float], tol: float) -> list:
    """For each target, a random pool item whose cost is within `tol` of it (else the nearest)."""
    out = []
    for t in targets:
        near = [x for x in pool if abs(cost(x) - t) <= tol * t]
        out.append(rng.choice(near) if near else min(pool, key=lambda x: (abs(cost(x) - t), x)))
    return out


def block_sizes(n: int, d: Sequence[int]) -> tuple[int, ...]:
    cuts = (0, *d, n)
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


def multinomial(n: int, d: Sequence[int]) -> int:
    out = math.factorial(n)
    for e in block_sizes(n, d):
        out //= math.factorial(e)
    return out


def nu(n: int, d: Sequence[int]) -> int:
    e = block_sizes(n, d)
    return sum(e[i] * e[j] for i in range(len(e)) for j in range(i + 1, len(e)))


def _even_cuts(rng: random.Random, n: int, blocks: int) -> tuple[int, ...]:
    # near-equal blocks, each cut moved by at most one
    cuts = [round(n * j / blocks) + rng.randint(-1, 1) for j in range(1, blocks)]
    return tuple(sorted(set(c for c in cuts if 0 < c < n)))


def _random_cuts(rng: random.Random, n: int, blocks: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n), blocks - 1)))


def _all_cuts(n: int):
    for r in range(n):
        yield from combinations(range(1, n), r)


def _interleave(rng: random.Random, groups: list[list[Op]]) -> list[Op]:
    """Merge the groups in a seeded order, each group keeping its own order."""
    slots = [g for g, ops in enumerate(groups) for _ in ops]
    rng.shuffle(slots)
    its = [iter(ops) for ops in groups]
    return [next(its[g]) for g in slots]


# Every kind of op draws its sizes from a fixed spread that the seed only
# jitters.  Costs grow steeply with size, and the q_binomial calls share one
# cache, so a free draw would make wall_s, the latency percentiles and peak
# RSS vary far more between seeds than between two commits.


def _closed_form_ops(rng: random.Random) -> list[Op]:
    q_binomials = []
    for i, n in enumerate(grid(rng, 60, 110, 12)):
        e = round(n * spread(i)) + rng.randint(-3, 3)
        q_binomials.append(Op("q_binomial", (n, min(n - 1, max(1, e)))))
    # the heaviest calls, one of which sets op_p90_ms, keep the same sizes for every seed;
    # PsiTable.for_n is cached, and its sizes stay clear of those inv_bounds asks for
    full = [Op("full_mahonian", (n,)) for n in grid(rng, 40, 75, 5, jitter=0)]
    psi_tables = [Op("psi_table", (n,)) for n in grid(rng, 42, 90, 4, jitter=0)]
    # many light and middling calls, so that op_p50_ms falls where latencies are dense
    tables = [Op("mahonian_table", (n, _even_cuts(rng, n, 2 + i % 4)))
              for i, n in enumerate(grid(rng, 30, 60, 16, jitter=0))]
    bounds = []
    for i, n in enumerate(grid(rng, 20, 50, 12, jitter=0)):
        d = _even_cuts(rng, n, 2 + i % 3)
        bounds.append(Op("inv_bounds", (n, d, round(nu(n, d) * spread(i)))))
    denumerant = []
    for i, n in enumerate(2 * list(range(10, 17))):
        d = _even_cuts(rng, n, 2 + i % 3)
        denumerant.append(Op("via_denumerant", (n, d, round(nu(n, d) * spread(i)))))
    exp_log = [Op("psi_exp_log", (n, max(1, round(2 * n * spread(i)))))
               for i, n in enumerate(grid(rng, 15, 50, 12))]
    groups = [q_binomials, full, psi_tables, tables, bounds, denumerant, exp_log]
    # sizes grow within a kind, so no call is answered whole from an earlier call's cache
    return _interleave(rng, [sorted(g, key=lambda op: op.args) for g in groups])


def flag_work(n: int, d: Sequence[int], p: int) -> int:
    """Chains a level-by-level flag enumeration tests: partial flags times next-level subspaces."""
    return sum(flag_count(n, d[:i], p) * flag_count(n, (d[i],), p) for i in range(len(d)))


def _flag_pool() -> list[tuple[int, tuple[int, ...], int]]:
    # shapes with n <= 4, and coarse ones (at most two cuts) with n = 5, over F_2 and F_3
    shapes = [(n, d) for n in range(2, 6) for d in _all_cuts(n) if d and (n < 5 or len(d) <= 2)]
    return [(n, d, p) for n, d in shapes for p in (2, 3)]


def _oracle_ops(rng: random.Random) -> list[Op]:
    shapes = [(n, d) for n in range(6, 11) for d in _all_cuts(n)]
    ops = [Op("inv_oracle", s)
           for s in pick_near(rng, shapes, lambda s: multinomial(*s), (6300, 12600, 25200), 0.15)]
    small = [(n, d, anti) for n, d in shapes if n <= 8 for anti in (False, True)]
    ops += [Op("cell_sum", s) for s in pick_near(
        rng, small, lambda s: multinomial(s[0], s[1]), (150, 300, 600, 1000, 1700, 3000), 0.15)]
    ops += [Op("flags", f) for f in pick_near(
        rng, _flag_pool(), lambda f: flag_work(*f), (13, 35, 121, 182, 540, 992, 1640, 2115), 0.1)]
    for n in (3, 4, 5):
        for p in (2, 3, 5):
            d = _random_cuts(rng, n, rng.randint(2, n))
            matrices = tuple(_random_invertible(rng, n, p) for _ in range(20))
            ops.append(Op("cell_form", (n, d, p, matrices)))
    theta = [s for s in shapes if s[0] <= 8]
    ops += [Op("theta", s)
            for s in pick_near(rng, theta, lambda s: multinomial(*s), (800, 2500), 0.15)]
    ops += [Op("psi_subset", (n, rng.randint(0, n * (n + 1) // 2))) for n in range(14, 19)]
    rng.shuffle(ops)
    return ops


def _cli_ops(rng: random.Random) -> list[Op]:
    calls = [(argv, None) for argv in README_EXAMPLES] + list(ERROR_PATHS)
    ops = []
    for _ in range(CLI_ROUNDS):
        round_ = list(calls)
        rng.shuffle(round_)
        ops += [Op("cli", (argv, code)) for argv, code in round_]
    ops.append(Op("verify", VERIFY_ARGV))
    return ops


def make_ops(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The operations of one pass of the workload, in the order they run.

    Each pass of a run draws its own inputs from (seed, pass_index), so the
    latency percentiles pool more distinct inputs than one pass holds.
    """
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "closed-forms":
        return _closed_form_ops(rng)
    if workload == "oracles":
        return _oracle_ops(rng)
    if workload == "cli":
        return _cli_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# reference arithmetic, independent of qcomb


def ref_series(num: Sequence[int], den: Sequence[int], order: int) -> list[int]:
    """Coefficients through t^order of prod(1 - t^a, a in num) / prod(1 - t^b, b in den)."""
    c = [1] + [0] * order
    for a in num:
        for i in range(order, a - 1, -1):
            c[i] -= c[i - a]
    for b in den:
        for i in range(b, order + 1):
            c[i] += c[i - b]
    return c


def ref_inversions(n: int, d: Sequence[int], k: int) -> int:
    """Words of block content (n, d) with exactly k inversions."""
    den = [j for e in block_sizes(n, d) for j in range(1, e + 1)]
    return ref_series(range(1, n + 1), den, k)[k]


def pentagonal_coefficient(r: int) -> int:
    """Coefficient of t^r in prod_{i>=1} (1 - t^i), by Euler's pentagonal number theorem."""
    j = 0
    while j * (3 * j - 1) // 2 <= r:
        if r in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            return -1 if j & 1 else 1
        j += 1
    return 0


def flag_count(n: int, d: Sequence[int], p: int) -> int:
    """Number of flags of shape (n, d) over F_p: the q-multinomial at q = p."""
    den = [j for e in block_sizes(n, d) for j in range(1, e + 1)]
    coeffs = ref_series(range(1, n + 1), den, nu(n, d))
    return sum(c * p**k for k, c in enumerate(coeffs))


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] % p), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] % p:
                f = work[r][col]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def _random_invertible(rng: random.Random, n: int, p: int) -> tuple[tuple[int, ...], ...]:
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod_p(rows, p) == n:
            return tuple(tuple(r) for r in rows)


def check_cell_form(A, n: int, d: Sequence[int], p: int, blocks, M, g) -> bool:
    """True iff M = A g, g is block upper triangular, and M has the normal-form pattern.

    A, M and g are row lists; blocks are the partition's pivot rows (1-based)
    per column block.  The pattern: column j, in block m with pivot row v,
    has 1 at v, and is free only on rows of later blocks below v.
    """
    prod = [[sum(A[i][k] * g[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    if prod != [list(r) for r in M]:
        return False
    cuts = (0, *d, n)
    for m in range(len(cuts) - 1):
        for j in range(cuts[m], cuts[m + 1]):
            if any(g[i][j] for i in range(cuts[m + 1], n)):
                return False
    if tuple(len(b) for b in blocks) != block_sizes(n, d):
        return False
    claimed: set[int] = set()
    j = 0
    for block in blocks:
        claimed |= set(block)
        for v in block:
            for i in range(1, n + 1):
                entry = M[i - 1][j]
                if i == v:
                    if entry != 1:
                        return False
                elif (i in claimed or i < v) and entry:
                    return False
            j += 1
    return True


# ---------------------------------------------------------------------------
# binding ops to qcomb calls, and checking their answers

VERIFY_SUITES = ("qanalogue", "inversions", "denumerant", "flagcells")  # the order `all` uses


def inproc_ops(ops: Sequence[Op]) -> list[Op]:
    """The cli ops as run in-process: `verify` becomes one `run_suite` per suite."""
    out: list[Op] = []
    for op in ops:
        out += [Op("run_suite", (s,)) for s in VERIFY_SUITES] if op.kind == "verify" else [op]
    return out


def _palindrome(c: Sequence[int]) -> bool:
    return tuple(c) == tuple(c)[::-1]


def _theta_histogram(qc, shape) -> list[int]:
    hist = [0] * (shape.nu + 1)
    for sigma in qc.enumerate_partitions(shape):
        hist[qc.inversion_count(qc.theta_word(sigma))] += 1
    return hist


def prepare(op: Op, qc, golden: dict, cli_call: Callable) -> tuple[Callable[[], Any], Any]:
    """The zero-argument call the benchmark times, and the expected answer.

    Calls look qcomb names up on the `qc` package when they run, so a traced
    pass sees the wrapped functions.  Arguments are built here, outside the
    timed region.
    """
    k, a = op.kind, op.args
    if k == "q_binomial":
        n, e = a
        return (lambda: qc.q_binomial(n, e)), (multinomial(n, (e,)), e * (n - e))
    if k in ("mahonian_table", "inv_bounds", "via_denumerant", "inv_oracle", "cell_sum", "theta",
             "flags", "cell_form"):
        shape = qc.FlagShape(a[0], a[1])
    if k == "mahonian_table":
        return (lambda: qc.mahonian_table(shape)), (multinomial(*a), nu(*a))
    if k == "full_mahonian":
        n = a[0]
        return (lambda: qc.full_mahonian(n)), (math.factorial(n), n * (n - 1) // 2)
    if k == "psi_table":
        n = a[0]
        return (lambda: qc.PsiTable.for_n(n)), ([pentagonal_coefficient(r) for r in range(n + 1)], n)
    if k == "inv_bounds":
        n, d, kk = a
        return (lambda: qc.inv_bounds(shape, kk)), (ref_inversions(n, d, kk), shape.eta == 0)
    if k == "via_denumerant":
        kk = a[2]
        return (lambda: qc.mahonian_via_denumerant(shape, kk)), ref_inversions(*a)
    if k == "psi_exp_log":
        n, r = a
        return (lambda: qc.psi(n, r, "exp-log")), ref_series(range(1, n + 1), (), r)[r]
    if k == "inv_oracle":
        return (lambda: qc.inversion_distribution_oracle(shape)), qc.q_multinomial(shape).coeffs
    if k == "cell_sum":
        anti = a[2]
        return (lambda: qc.cell_sum_poly(shape, anti=anti)), qc.q_multinomial(shape).coeffs
    if k == "theta":
        return (lambda: _theta_histogram(qc, shape)), qc.q_multinomial(shape).coeffs
    if k == "flags":
        p = a[2]
        return (lambda: qc.enumerate_flags(shape, p)), qc.flag_count_group_formula(shape, p)
    if k == "cell_form":
        p, mats = a[2], a[3]
        matrices = [qc.FpMatrix(p, m) for m in mats]
        return (lambda: [qc.cell_form(A, shape) for A in matrices]), len(mats)
    if k == "psi_subset":
        n, r = a
        return (lambda: qc.psi(n, r, "subset-oracle")), qc.PsiTable.for_n(n).value(r)
    if k == "cli":
        argv, code = a
        expected = golden[argv] if code is None else (code, "")
        return (lambda: cli_call(argv)), expected
    if k == "verify":
        return (lambda: cli_call(a)), 0
    if k == "run_suite":
        suite = a[0]
        return (lambda: qc.verification.run_suite(suite, max_n=6)), None
    raise ValueError(f"unknown op kind {k!r}")


def _pass_rows(stdout: str) -> bool:
    rows = stdout.splitlines()[1:]
    return bool(rows) and all("PASS" in row.split() and "FAIL" not in row.split() for row in rows)


def check(op: Op, expected: Any, result: Any) -> bool:
    """True iff `result` is the right answer for `op`."""
    k, a = op.kind, op.args
    if k in ("q_binomial", "mahonian_table", "full_mahonian"):
        coeffs = result.coeffs if k == "q_binomial" else result.counts
        total, degree = expected
        return sum(coeffs) == total and len(coeffs) - 1 == degree and _palindrome(coeffs)
    if k == "psi_table":
        pentagonal, n = expected
        values = result.values
        return (list(values[: n + 1]) == pentagonal and len(values) == n * (n + 1) // 2 + 1
                and sum(values) == 0)
    if k == "inv_bounds":
        exact, tight = expected
        lower, upper = result
        return lower <= exact <= upper and (not tight or lower == exact == upper)
    if k in ("via_denumerant", "psi_exp_log", "psi_subset"):
        return result == expected
    if k in ("inv_oracle", "cell_sum"):
        return tuple(result.coeffs) == tuple(expected)
    if k == "theta":
        return tuple(result) == tuple(expected)
    if k == "flags":
        return len(result) == expected and len({f.bases for f in result}) == expected
    if k == "cell_form":
        n, d, p, mats = a
        return len(result) == expected and all(
            check_cell_form(A, n, d, p, sigma.blocks, form.matrix.entries, g.entries)
            for A, (sigma, form, g) in zip(mats, result)
        )
    if k == "cli":
        return tuple(result) == tuple(expected)
    if k == "verify":
        code, stdout = result
        return code == expected and _pass_rows(stdout)
    if k == "run_suite":
        return bool(result) and all(res.passed for res in result)
    raise ValueError(f"unknown op kind {k!r}")
