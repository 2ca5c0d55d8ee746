import pytest

from qcomb import cli
from qcomb.verification import _CHECKS

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
