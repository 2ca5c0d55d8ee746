import pytest

from qcomb import cli, verification
from qcomb.denumerant import _subset_signed_histogram
from qcomb.errors import DEFAULT_CAP, ResourceLimitError
from qcomb.polycore import factor_product
from qcomb.verification import _CHECKS, _run_check, run_suite

# `qcomb verify --suite all --max-n 6`, as printed when every check passes
VERIFY_ALL_6 = """\
suite       check                        status  detail
qanalogue   recurrence-vs-quotient       PASS    28 pairs
qanalogue   palindrome-and-symmetry      PASS    28 pairs
qanalogue   partition-coefficients       PASS    98 coefficients
qanalogue   bounded-multiset-sums        PASS    27 pairs
qanalogue   degree-and-total             PASS    63 shapes
inversions  inversion-counters-agree     PASS    400 random words
inversions  oracle-vs-qmultinomial       PASS    63 shapes
inversions  table-row-invariants         PASS    63 tables
inversions  rowsum-recurrence            PASS    40 values
inversions  full-log-concavity           PASS    n up to 6
inversions  refinement-recurrence        PASS    364 pairs
inversions  rational-bounds              PASS    564 values
denumerant  psi-four-methods             PASS    62 coefficients
denumerant  psi-symmetry-and-bound       PASS    62 coefficients
denumerant  unit-weight-denumerant       PASS    186 values
denumerant  signed-subset-identity       PASS    20 pairs
denumerant  mahonian-via-denumerant      PASS    564 values
denumerant  binomial-route               PASS    41 values
denumerant  quasipolynomial-differences  PASS    3 weight vectors
denumerant  denumerant-bounds            PASS    1953 values
flagcells   counting-triangle            PASS    30 shape/field pairs
flagcells   word-transport               PASS    63 shapes
flagcells   anti-vs-straight             PASS    63 shapes
flagcells   cell-decomposition           PASS    168 matrices, 3 cut sequences
flagcells   coset-law                    PASS    4512 pairs
flagcells   prescribed-dimension         PASS    85 targets
flagcells   column-reduction             PASS    240 matrices
"""


@pytest.mark.parametrize("name", [name for checks in _CHECKS.values() for name, _, _ in checks])
def test_registry_check(name, verify_check):
    verify_check(name)


def test_verify_all_table_is_pinned(capsys):
    assert cli.run(["verify", "--suite", "all", "--max-n", "6"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_6


# cases compared at max_n 6 by the two checks whose detail does not print a
# count; VERIFY_ALL_6 pins the count of every other check
CASES_ALL_6 = {"full-log-concavity": 5, "cell-decomposition": 1008}


def _run_row(name, max_n=6, cap=DEFAULT_CAP):
    check, template = next((c, t) for rows in _CHECKS.values() for n, c, t in rows if n == name)
    return _run_check("", name, check, template, max_n, cap)


def test_every_check_case_count_is_pinned():
    assert {name: _run_row(name).cases for name in CASES_ALL_6} == CASES_ALL_6


def _cases(count, mismatch=None):
    def check(max_n, cap):
        yield from [None] * count
        if mismatch is not None:
            yield mismatch
            yield None  # never reached: the runner stops at the first mismatch
    return check


def _raises_after_a_case(exc):
    def check(max_n, cap):
        yield None
        raise exc
    return check


def test_a_check_that_compares_nothing_fails():
    passed = _run_check("s", "c", _cases(2), "{} pairs", 6, 1)
    assert (passed.passed, passed.cases, passed.detail) == (True, 2, "2 pairs")
    empty = _run_check("s", "c", _cases(0), "{} pairs", 6, 1)
    assert (empty.passed, empty.cases, empty.detail) == (False, 0, "0 pairs")
    failed = _run_check("s", "c", _cases(3, "mismatch at n=4"), "{} pairs", 6, 1)
    assert (failed.passed, failed.cases, failed.detail) == (False, 3, "mismatch at n=4")
    crashed = _run_check("s", "c", _raises_after_a_case(ZeroDivisionError("x")), "{} pairs", 6, 1)
    assert (crashed.passed, crashed.cases) == (False, 0)
    assert crashed.detail == "raised ZeroDivisionError: x"
    # over the cap is not a failed check: the error propagates, named
    over_cap = _raises_after_a_case(ResourceLimitError("needs 10 items, cap is 1"))
    with pytest.raises(ResourceLimitError, match="^c: needs 10 items, cap is 1$"):
        _run_check("s", "c", over_cap, "{} pairs", 6, 1)


def test_psi_subset_route_over_the_cap_raises():
    # 2^10 > 1000: the subset oracle is refused at n = 10, not skipped, so verify exits 2
    with pytest.raises(ResourceLimitError, match="^psi-four-methods: signed subset enumeration "):
        _run_row("psi-four-methods", 12, 1000)


def test_verify_below_every_sweep_fails(capsys):
    # at max_n 1 these checks have nothing to compare
    empty = {"rowsum-recurrence", "full-log-concavity", "cell-decomposition", "coset-law",
             "prescribed-dimension"}
    results = run_suite("all", max_n=1)
    assert {r.name for r in results if not r.passed} == empty
    assert all((r.cases == 0) == (r.name in empty) and r.elapsed_s >= 0 for r in results)
    assert cli.run(["verify", "--suite", "all", "--max-n", "1"]) == 3
    rows = capsys.readouterr().out.splitlines()
    assert "inversions  rowsum-recurrence            FAIL    0 values" in rows
    assert "flagcells   cell-decomposition           FAIL    skipped below n=3" in rows
    assert "flagcells   coset-law                    FAIL    skipped below n=3" in rows


def test_signed_subset_row_fails_on_a_perturbed_histogram(monkeypatch):
    def perturbed(r):
        hist = list(_subset_signed_histogram(r))
        hist[-1] += 1
        return tuple(hist)

    monkeypatch.setattr(verification, "_subset_signed_histogram", perturbed)
    result = _run_row("signed-subset-identity")
    assert (result.passed, result.detail) == (False, "identity fails for r=0, w=(1, 1, 1, 1) at t^0")


def test_quasipolynomial_row_fails_on_a_bumped_series(monkeypatch):
    def bumped(num, den, order):
        series = factor_product(num, den, order)
        series[7] += 1
        return series

    monkeypatch.setattr(verification, "factor_product", bumped)
    result = _run_row("quasipolynomial-differences")
    assert (result.passed, result.detail) == (False, "finite differences do not vanish for (1, 2) at m=3")
