"""The per-test time limit that conftest.py arms around every test."""

import signal

import pytest

from conftest import time_limit


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_time_limit_fails_a_busy_loop():
    with pytest.raises(pytest.fail.Exception, match="past its 1 s time limit"):
        with time_limit(1):
            while True:
                pass
    # the 300 s alarm of the autouse fixture is armed again
    assert 0 < signal.alarm(0) <= 300
