import pytest

from qcomb import cli
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


@pytest.mark.parametrize("name", [name for checks in _CHECKS.values() for name, _ in checks])
def test_registry_check(name, verify_check):
    verify_check(name)


def test_verify_all_table_is_pinned(capsys):
    assert cli.run(["verify", "--suite", "all", "--max-n", "6"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_6


def test_a_check_that_compares_nothing_fails():
    assert _run_check("s", "c", lambda max_n, cap: (True, 2, "2 pairs"), 6, 1).passed
    empty = _run_check("s", "c", lambda max_n, cap: (True, 0, "0 pairs"), 6, 1)
    assert (empty.passed, empty.cases, empty.detail) == (False, 0, "0 pairs")
    assert not _run_check("s", "c", lambda max_n, cap: (False, 3, "mismatch"), 6, 1).passed
    crashed = _run_check("s", "c", lambda max_n, cap: 1 // 0, 6, 1)
    assert (crashed.passed, crashed.cases) == (False, 0)
    assert crashed.detail.startswith("raised ZeroDivisionError")


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
    assert "flagcells   coset-law                    FAIL    skipped below n=3" in rows
