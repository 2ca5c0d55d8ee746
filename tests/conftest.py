import functools
import signal

import pytest

from qcomb.errors import DEFAULT_CAP
from qcomb.verification import _CHECKS, _run_check

CHECKS = {name: (check, template) for rows in _CHECKS.values() for name, check, template in rows}

# The max_n each check runs at in the tests (6 when not listed), chosen so
# that its sweep covers the acceptance criterion or test that relies on it.
SWEEP_MAX_N = {
    "recurrence-vs-quotient": 14,
    "palindrome-and-symmetry": 14,
    "partition-coefficients": 10,
    "bounded-multiset-sums": 10,
    "degree-and-total": 7,
    "oracle-vs-qmultinomial": 8,
    "rowsum-recurrence": 12,
    "full-log-concavity": 10,
    "refinement-recurrence": 7,
    "rational-bounds": 7,
    "psi-four-methods": 12,
    "psi-symmetry-and-bound": 12,
    "binomial-route": 10,
    "word-transport": 7,
    "anti-vs-straight": 7,
    "prescribed-dimension": 8,
}


# A test still running after this many seconds fails with TimeoutError, so a
# hang (a loop that never ends) is reported as a failure, not left to stall
# the run.  The slowest test takes a few seconds.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on this platform: no limit
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@functools.cache
def _sweep(name):
    return _run_check("", name, *CHECKS[name], SWEEP_MAX_N.get(name, 6), DEFAULT_CAP)


@pytest.fixture(scope="session")
def verify_check():
    """Assert that the named registry checks pass at their sweep sizes.

    Results are shared for the whole session, so each check runs once
    however many tests rely on it.
    """

    def assert_pass(*names):
        for name in names:
            result = _sweep(name)
            assert result.passed, f"{name}: {result.detail}"

    return assert_pass
