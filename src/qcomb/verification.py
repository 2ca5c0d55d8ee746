"""Self-verification: cross-oracle identity checks runnable from the CLI.

Every check pits at least two independent computations of the same
quantity against each other (brute-force enumeration vs. closed form,
recurrence vs. quotient, signed sums vs. series expansion) over a sweep
whose size is controlled by max_n.  A check is a generator: it yields
None after each case it compared and the mismatch text at its first
mismatch.  The runner alone counts the cases, stops at the first mismatch
and words the row, so that a passing run is auditable, and a check that
compared none fails.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .denumerant import (
    PsiTable,
    WeightVector,
    _exp_log_coefficients,
    _subset_signed_histogram,
    denumerant,
    denumerant_bounds,
    epsilon_weights,
    full_mahonian_via_binomials,
    mahonian_via_denumerant,
    psi,
    restricted_divisor_sum,
)
from .errors import DEFAULT_CAP, SUITE_NAMES, ResourceLimitError, ValidationError, require_int
from .flagcells import (
    FpMatrix,
    cell_dimension,
    cell_form,
    cell_sum_poly,
    enumerate_flags,
    enumerate_general_linear,
    enumerate_partitions,
    flag_count_group_formula,
    is_parabolic_member,
    phi_flag,
    s_reduce,
    tau_for_lambda,
    theta_word,
)
from .inversions import (
    enumerate_words,
    full_mahonian,
    inv_bounds,
    inversion_count,
    inversion_count_quadratic,
    inversion_distribution_oracle,
    is_refinement,
    log_concavity_scan,
    mahonian_coefficient,
    mahonian_table,
    refinement_recurrence,
)
from .polycore import IntPoly, factor_product
from .qanalogue import (
    FlagShape,
    all_shapes,
    multiset_sum_poly,
    partition_count,
    q_binomial,
    q_binomial_at,
    q_factorial,
    q_multinomial,
)

_SAMPLE_SEED = 74207281  # fixed so verification output is byte-reproducible

Check = Callable[[int, int], Iterator[str | None]]


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str
    cases: int
    elapsed_s: float


# ---------------------------------------------------------------------------
# qanalogue suite


def _check_recurrence_vs_quotient(max_n: int, cap: int) -> Iterator[str | None]:
    # three routes: the Pascal recurrence
    # qbinom(n, e) = qbinom(n-1, e-1) + x^e * qbinom(n-1, e), one row at a time;
    # the factor kernel behind q_binomial; and the q-factorial quotient.  The
    # product q_binomial_at is checked against Horner on the row.
    row = [IntPoly.one()]
    for n in range(0, max_n + 1):
        if n:
            inner = [row[e - 1] + IntPoly.monomial(1, e) * row[e] for e in range(1, n)]
            row = [IntPoly.one(), *inner, IntPoly.one()]
        for e in range(0, n + 1):
            poly = q_binomial(n, e)
            quotient = q_factorial(n).exact_quotient(q_factorial(e) * q_factorial(n - e))
            if not row[e] == poly == quotient:
                yield f"mismatch at n={n}, e={e}"
            if any(q_binomial_at(n, e, q) != poly.eval_at(q) for q in (-2, -1, 0, 1, 2, 3)):
                yield f"product value differs from Horner at n={n}, e={e}"
            yield None


def _check_palindrome_symmetry(max_n: int, cap: int) -> Iterator[str | None]:
    # full-degree expansions: q_binomial mirrors its lower half, so reading it
    # would compare the mirror with itself
    for n in range(0, max_n + 1):
        for e in range(0, n + 1):
            degree = e * (n - e)
            row = factor_product(range(n - e + 1, n + 1), range(1, e + 1), degree)
            if row != row[::-1]:
                yield f"not palindromic at n={n}, e={e}"
            if row != factor_product(range(e + 1, n + 1), range(1, n - e + 1), degree):
                yield f"not symmetric at n={n}, e={e}"
            yield None


def _check_partition_coefficients(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(0, max_n + 1):
        for e in range(0, n + 1):
            poly = q_binomial(n, e)
            for m in range(e * (n - e) + 1):
                if poly.coefficient(m) != partition_count(e, n - e, m):
                    yield f"mismatch at n={n}, e={e}, m={m}"
                yield None


def _check_multiset_sums(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 10) + 1):
        for e in range(0, n + 1):
            if multiset_sum_poly(e, n - e, cap=cap) != q_binomial(n, e):
                yield f"mismatch at n={n}, e={e}"
            yield None


def _check_degree_and_total(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, max_n + 1):
        for shape in all_shapes(n):
            poly = q_multinomial(shape)
            if poly.degree != shape.nu:
                yield f"degree law fails for {shape}"
            if poly.eval_at(1) != shape.multinomial():
                yield f"evaluation at 1 fails for {shape}"
            yield None


# ---------------------------------------------------------------------------
# inversions suite


def _check_counters_agree(max_n: int, cap: int) -> Iterator[str | None]:
    rng = random.Random(_SAMPLE_SEED)
    for _ in range(400):
        n = rng.randint(1, max(2, max_n) + 4)
        word = [rng.randint(1, 5) for _ in range(n)]
        if inversion_count(word) != inversion_count_quadratic(word):
            yield f"counters disagree on {word}"
        yield None


def _check_oracle_vs_qmultinomial(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 8) + 1):
        for shape in all_shapes(n):
            if inversion_distribution_oracle(shape, cap=cap) != q_multinomial(shape):
                yield f"distribution mismatch for {shape}"
            yield None


def _check_table_shape(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, max_n + 1):
        for shape in all_shapes(n):
            table = mahonian_table(shape)  # construction enforces the row invariants
            # the palindrome the table's mirror relies on, on the full-degree expansion
            full = factor_product(range(1, n + 1), epsilon_weights(shape).weights, shape.nu)
            if full != full[::-1] or tuple(full) != table.counts:
                yield f"row invariants fail for {shape}"
            ks = range(-1, shape.nu + 2)
            if any(mahonian_coefficient(shape, k) != table.value(k) for k in ks):
                yield f"single-coefficient read differs from the table for {shape}"
            yield None


def _check_rowsum_recurrence(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(2, max_n + 1):
        current = full_mahonian(n)
        previous = full_mahonian(n - 1)
        for k in range(n * (n - 1) // 2 + 1):
            expected = sum(previous.value(j) for j in range(max(0, k - n + 1), k + 1))
            if current.value(k) != expected:
                yield f"row-sum fails at n={n}, k={k}"
            yield None


def _check_full_log_concavity(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(2, max_n + 1):
        failures = log_concavity_scan(full_mahonian(n).counts)
        if failures:
            yield f"log-concavity fails for n={n} at {failures}"
        yield None


def _check_refinement(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 7) + 1):
        pairs = itertools.product(all_shapes(n), repeat=2)
        for shape, refined in (pair for pair in pairs if is_refinement(*pair)):
            recovered = refinement_recurrence(shape, refined)
            direct = mahonian_table(shape)
            if recovered.counts != direct.counts:
                yield f"recurrence fails for {shape.d} inside {refined.d}"
            bigger = mahonian_table(refined)
            if any(direct.value(k) > bigger.value(k) for k in range(shape.nu + 1)):
                yield f"monotonicity fails for {shape.d} inside {refined.d}"
            yield None


def _check_inv_bounds(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 7) + 1):
        for shape in all_shapes(n):
            table = mahonian_table(shape)
            for k in range(shape.nu + 1):
                lower, upper = inv_bounds(shape, k)
                if not lower <= table.value(k) <= upper:
                    yield f"sandwich fails for {shape}, k={k}"
                if shape.eta == 0 and not lower == table.value(k) == upper:
                    yield f"eta=0 equality fails for {shape}, k={k}"
                if n >= 3 and k >= 2 and shape.eta >= 1 and lower > 0:
                    yield f"lower bound positive for {shape}, k={k}"
                yield None


# ---------------------------------------------------------------------------
# denumerant suite


def _floor_divisor_sum(n: int, k: int) -> int:
    # floor(1 + floor(k/d) - k/d) is 1 when d divides k and 0 otherwise
    return sum(math.floor(1 + (k // d) - Fraction(k, d)) * d for d in range(1, min(n, k) + 1))


def _check_psi_methods(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 12) + 1):
        top = n * (n + 1) // 2
        # the exp-log route is built from these sums
        for k in range(1, top + 1):
            if restricted_divisor_sum(n, k) != _floor_divisor_sum(n, k):
                yield f"divisor sum disagrees with its floor form at n={n}, k={k}"
        table = PsiTable.for_n(n)
        # one exp-log series per n, read at every r; psi's own exp-log route
        # is called once per n, at r = n
        series = _exp_log_coefficients(n, top)
        if psi(n, n, "exp-log") != table.value(n):
            yield f"exp-log route disagrees at n={n}, r={n}"
        for r in range(top + 1):
            reference = table.value(r)
            if psi(n, r, "fn-coefficients") != reference:
                yield f"truncated expansion disagrees at n={n}, r={r}"
            if psi(n, r, "subset-oracle", cap=cap) != reference:
                yield f"subset oracle disagrees at n={n}, r={r}"
            if series[r] != reference:
                yield f"exp-log disagrees at n={n}, r={r}"
            if 1 <= r <= n and psi(n, r, "pentagonal") != reference:
                yield f"pentagonal disagrees at n={n}, r={r}"
            yield None


def _check_psi_table_invariants(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 12) + 1):
        table = PsiTable.for_n(n)
        top = n * (n + 1) // 2
        sign = -1 if n % 2 else 1
        # symmetry on the full-degree expansion, which PsiTable's mirror relies on
        full = factor_product(range(1, n + 1), (), top)
        for r in range(top + 1):
            if full[r] != sign * full[top - r]:
                yield f"symmetry fails at n={n}, r={r}"
            if abs(table.value(r)) > math.comb(n - 1 + r, n - 1):
                yield f"binomial bound fails at n={n}, r={r}"
            yield None


def _check_unit_denumerant(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 6) + 1):
        w = WeightVector.ones(n)
        for m in range(31):
            if denumerant(w, m) != math.comb(n - 1 + m, n - 1):
                yield f"unit-weight denumerant fails at n={n}, m={m}"
            yield None


def _check_signed_subset_identity(max_n: int, cap: int) -> Iterator[str | None]:
    # (1-t)...(1-t^r) times the series of D_w, through t^30, against the sum over
    # subsets T of [r] of (-1)^|T| D_w(m - sum(T)).  The product is a plain
    # IntPoly convolution, not one more factor_product call, so the two sides
    # share only the series.
    order = 30
    vectors = [(1, 1, 1, 1), (1, 2, 3), (2, 3), epsilon_weights(FlagShape(5, (2,))).weights]
    for r in range(5):
        f_r = IntPoly(factor_product(range(1, r + 1), (), r * (r + 1) // 2))
        hist = _subset_signed_histogram(r)
        for w in vectors:
            series = factor_product((), w, order)
            lhs = IntPoly(series) * f_r
            for m in range(order + 1):
                shifted = sum(c * series[m - total] for total, c in enumerate(hist[: m + 1]))
                if lhs.coefficient(m) != shifted:
                    yield f"identity fails for r={r}, w={w} at t^{m}"
            yield None


def _check_mahonian_triple(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 6) + 1):
        for shape in all_shapes(n):
            table = mahonian_table(shape)
            for k in range(shape.nu + 1):
                if mahonian_via_denumerant(shape, k) != table.value(k):
                    yield f"denumerant route fails for {shape}, k={k}"
                yield None


def _check_binomial_route(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, max_n + 1):
        table = full_mahonian(n)
        for k in range(n * (n - 1) // 2 + 1):
            if full_mahonian_via_binomials(n, k) != table.value(k):
                yield f"binomial route fails at n={n}, k={k}"
            yield None


def _check_quasipolynomial(max_n: int, cap: int) -> Iterator[str | None]:
    # D_w is a quasi-polynomial of degree |w| - 1 whose period divides lcm(w)
    # (Sylvester), so its |w|-th finite difference with step lcm(w) vanishes
    samples = 20
    for w in [(1, 2), (2, 3), (1, 2, 3)]:
        n, step = len(w), math.lcm(*w)
        series = factor_product((), w, samples - 1 + n * step)
        signs = [(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)]
        for start in range(samples):
            if sum(c * series[start + j * step] for j, c in enumerate(signs)):
                yield f"finite differences do not vanish for {w} at m={start}"
        yield None


def _check_denumerant_bounds(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 6) + 1):
        for shape in all_shapes(n):
            w = epsilon_weights(shape)
            for m in range(31):
                lower, upper = denumerant_bounds(shape, m)
                if not lower <= denumerant(w, m) <= upper:
                    yield f"bounds fail for {shape}, m={m}"
                yield None


# ---------------------------------------------------------------------------
# flagcells suite


def _check_counting_triangle(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 4) + 1):
        for shape in all_shapes(n):
            for p in (2, 3):
                brute = len(enumerate_flags(shape, p, cap=cap))
                quotient = flag_count_group_formula(shape, p)
                evaluated = q_multinomial(shape).eval_at(p)
                cells = cell_sum_poly(shape, cap=cap).eval_at(p)
                if not brute == quotient == evaluated == cells:
                    yield f"counts disagree for {shape}, p={p}"
                yield None


def _check_theta_transport(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 7) + 1):
        for shape in all_shapes(n):
            seen = set()
            for sigma in enumerate_partitions(shape, cap=cap):
                word = theta_word(sigma)
                if inversion_count(word) != cell_dimension(sigma):
                    yield f"transport fails for {sigma.blocks}"
                seen.add(word.letters)
            if seen != {w.letters for w in enumerate_words(shape, cap=cap)}:
                yield f"word map not bijective for {shape}"
            yield None


def _check_anti_straight(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(1, min(max_n, 7) + 1):
        for shape in all_shapes(n):
            straight = cell_sum_poly(shape, cap=cap)
            if straight != cell_sum_poly(shape, anti=True, cap=cap):
                yield f"anti and straight sums differ for {shape}"
            if straight != q_multinomial(shape):
                yield f"cell sum differs from q-multinomial for {shape}"
            yield None


def _check_cell_decomposition(max_n: int, cap: int) -> Iterator[str | None]:
    if max_n < 3:
        yield "skipped below n=3"
        return
    # A @ g = form with g parabolic puts each matrix in its form's coset; as many forms as
    # cosets, each reached by a coset's worth of matrices, make "same form" mean "same coset"
    group = list(enumerate_general_linear(3, 2, cap=cap))
    for d, anti in itertools.product([(1,), (2,), (1, 2)], (False, True)):
        shape = FlagShape(3, d)
        where = f"d={d}{', anti' if anti else ''}"
        forms: dict[tuple, int] = {}
        cells: dict[tuple, int] = {}
        for matrix in group:
            sigma, form, g = cell_form(matrix, shape, anti)
            if (matrix @ g).entries != form.matrix.entries:
                yield f"transition does not carry the matrix to its form for {where}"
            if not is_parabolic_member(g, shape):
                yield f"non-parabolic transition for {where}"
            if not form.matches_pattern():
                yield f"pattern violated for {where}"
            forms[form.matrix.entries] = forms.get(form.matrix.entries, 0) + 1
            cells[sigma.blocks] = cells.get(sigma.blocks, 0) + 1
            yield None
        expected = q_multinomial(shape).eval_at(2)
        if len(forms) != expected:
            yield f"wrong number of forms for {where}"
        coset = len(group) // expected
        if any(size != coset for size in forms.values()):
            yield f"uneven coset sizes for {where}"
        # each cell holds 2^lam forms, each form a whole coset
        for sigma in enumerate_partitions(shape, cap=cap):
            if cells.get(sigma.blocks, 0) != coset * 2 ** cell_dimension(sigma, anti):
                yield f"cell of {sigma.blocks} does not hold 2^lam cosets for {where}"


def _random_full_rank(rng: random.Random, p: int, n: int, e: int) -> FpMatrix:
    while True:  # rejection: uniform over the n x e matrices of rank e over F_p
        matrix = FpMatrix(p, [[rng.randrange(p) for _ in range(e)] for _ in range(n)])
        if matrix.rank() == e:
            return matrix


def _check_coset_law(max_n: int, cap: int) -> Iterator[str | None]:
    if max_n < 3:
        yield "skipped below n=3"
        return
    rng = random.Random(_SAMPLE_SEED)
    shape = FlagShape(3, (1, 2))
    group2 = list(enumerate_general_linear(3, 2, cap=cap))
    sample3 = [_random_full_rank(rng, 3, 3, 3) for _ in range(40)]
    for p, matrices, partners in ((2, group2, 24), (3, sample3, 12)):
        flags = [phi_flag(matrix, shape) for matrix in matrices]
        inverses = [matrix.inverse() for matrix in matrices]
        for a, flag_a in zip(matrices, flags):
            for b in rng.sample(range(len(matrices)), partners):
                if (flag_a == flags[b]) != is_parabolic_member(inverses[b] @ a, shape):
                    yield f"coset law fails over F_{p}"
                yield None


def _check_tau(max_n: int, cap: int) -> Iterator[str | None]:
    for n in range(2, min(max_n, 8) + 1):
        for d1 in range(1, n):
            for k in range(d1 * (n - d1) + 1):
                if cell_dimension(tau_for_lambda(n, d1, k)) != k:
                    yield f"tau misses target n={n}, d1={d1}, k={k}"
                yield None


def _check_s_reduce(max_n: int, cap: int) -> Iterator[str | None]:
    rng = random.Random(_SAMPLE_SEED)
    for p in (2, 3, 5):
        for _ in range(40):
            n = rng.randint(1, 5)
            e = rng.randint(1, n)
            matrix = _random_full_rank(rng, p, n, e)
            for anti in (False, True):
                s, reduced, g = s_reduce(matrix, anti=anti)
                if (matrix @ g).entries != reduced.entries:
                    yield "reduction is not a column operation"
                s2, reduced2, g2 = s_reduce(reduced, anti=anti)
                if s2 != s or reduced2.entries != reduced.entries:
                    yield "reduction is not idempotent"
                if g2.entries != FpMatrix.identity(p, e).entries:
                    yield "reduced form admits a nontrivial reducer"
                yield None


# Each row is (name, check, template).  The check yields None after each case
# it compared and the mismatch text at the first mismatch; the template words
# a pass as template.format(cases, max_n=max_n).
_CHECKS: dict[str, list[tuple[str, Check, str]]] = {
    "qanalogue": [
        ("recurrence-vs-quotient", _check_recurrence_vs_quotient, "{} pairs"),
        ("palindrome-and-symmetry", _check_palindrome_symmetry, "{} pairs"),
        ("partition-coefficients", _check_partition_coefficients, "{} coefficients"),
        ("bounded-multiset-sums", _check_multiset_sums, "{} pairs"),
        ("degree-and-total", _check_degree_and_total, "{} shapes"),
    ],
    "inversions": [
        ("inversion-counters-agree", _check_counters_agree, "{} random words"),
        ("oracle-vs-qmultinomial", _check_oracle_vs_qmultinomial, "{} shapes"),
        ("table-row-invariants", _check_table_shape, "{} tables"),
        ("rowsum-recurrence", _check_rowsum_recurrence, "{} values"),
        ("full-log-concavity", _check_full_log_concavity, "n up to {max_n}"),
        ("refinement-recurrence", _check_refinement, "{} pairs"),
        ("rational-bounds", _check_inv_bounds, "{} values"),
    ],
    "denumerant": [
        ("psi-four-methods", _check_psi_methods, "{} coefficients"),
        ("psi-symmetry-and-bound", _check_psi_table_invariants, "{} coefficients"),
        ("unit-weight-denumerant", _check_unit_denumerant, "{} values"),
        ("signed-subset-identity", _check_signed_subset_identity, "{} pairs"),
        ("mahonian-via-denumerant", _check_mahonian_triple, "{} values"),
        ("binomial-route", _check_binomial_route, "{} values"),
        ("quasipolynomial-differences", _check_quasipolynomial, "{} weight vectors"),
        ("denumerant-bounds", _check_denumerant_bounds, "{} values"),
    ],
    "flagcells": [
        ("counting-triangle", _check_counting_triangle, "{} shape/field pairs"),
        ("word-transport", _check_theta_transport, "{} shapes"),
        ("anti-vs-straight", _check_anti_straight, "{} shapes"),
        ("cell-decomposition", _check_cell_decomposition, "168 matrices, 3 cut sequences"),
        ("coset-law", _check_coset_law, "{} pairs"),
        ("prescribed-dimension", _check_tau, "{} targets"),
        ("column-reduction", _check_s_reduce, "{} matrices"),
    ],
}


def run_suite(suite: str, max_n: int = 6, cap: int = DEFAULT_CAP) -> list[CheckResult]:
    """Run one suite (or 'all'); returns one result per check, in order."""
    max_n, cap = require_int(max_n, "max_n", 1), require_int(cap, "cap", 1)
    if suite == "all":
        names = list(SUITE_NAMES)
    elif suite in _CHECKS:
        names = [suite]
    else:
        raise ValidationError(f"unknown suite {suite!r}")
    return [
        _run_check(name, check_name, check, template, max_n, cap)
        for name in names
        for check_name, check, template in _CHECKS[name]
    ]


def _run_check(
    suite: str, name: str, check: Check, template: str, max_n: int, cap: int
) -> CheckResult:
    """Run one check, timed, counting the cases it yields before its first
    mismatch; it passes only if there is no mismatch and at least one case.
    A check over the cap raises ResourceLimitError prefixed with its name."""
    start = time.perf_counter()
    cases, mismatch = 0, None
    try:
        for mismatch in check(max_n, cap):
            if mismatch is not None:
                break  # drops, and so closes, the check's generator
            cases += 1
    except ResourceLimitError as exc:  # over budget, not a failed check
        raise ResourceLimitError(f"{name}: {exc}") from exc
    except Exception as exc:  # a crashed check is a failed check
        cases, mismatch = 0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    detail = template.format(cases, max_n=max_n) if mismatch is None else mismatch
    return CheckResult(suite, name, mismatch is None and cases > 0, detail, cases, elapsed)
