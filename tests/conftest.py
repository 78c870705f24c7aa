import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from superelliptic.algebra import QQ, BinaryForm, Mat2, Poly


def form_from_roots(roots, lead=1, degree=None):
    """Binary form lead * prod (X - r Y), optionally padded in degree."""
    coeffs = [Fraction(lead)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= Fraction(r) * c
        coeffs = nxt
    d = degree if degree is not None else len(coeffs) - 1
    coeffs = [Fraction(0)] * (d + 1 - len(coeffs)) + coeffs
    return BinaryForm(QQ, d, coeffs)


def rand_matrix(rng, field=QQ, bound=5):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c:
            return Mat2(field, a, b, c, d)


def rand_form(rng, degree, bound=9, field=QQ):
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if any(coeffs):
            return BinaryForm(field, degree, coeffs)


def rand_separable_sextic(rng):
    while True:
        roots = rng.sample(range(-15, 16), 6)
        return form_from_roots(roots, lead=rng.choice([1, 2, 3, -1, 5]))


@pytest.fixture
def rng():
    return random.Random(20260810)


# Longest one test may run, 16x the slowest test (18.4 s): a hang in the
# library fails the test it hangs in instead of running to the CI job's
# timeout.  SIGALRM fires only between bytecodes, so one long C-level
# operation (a huge integer product) finishes before the test fails.
TEST_TIME_LIMIT_S = 300


@contextmanager
def time_limit(seconds):
    """Fail the running test once `seconds` pass inside the block; an alarm
    armed outside the block is re-armed with the time it has left."""
    def fire(signum, frame):
        pytest.fail(f"test ran past its {seconds} s time limit", pytrace=False)

    old = signal.signal(signal.SIGALRM, fire)
    start, outer = time.monotonic(), signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        if outer:
            signal.alarm(max(1, outer - int(time.monotonic() - start)))


@pytest.fixture(autouse=True)
def _test_time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    with time_limit(TEST_TIME_LIMIT_S):
        yield
