"""A time limit on every test, so a hang fails its test with a stack instead of stalling the run.

The slowest test takes under 2 s, so the limit leaves room for a slow host.
The timer raises a ``BaseException``: Hypothesis shrinks only through
``Exception``s, so it stops at once instead of replaying the hang.
"""

import signal

import pytest

TIME_LIMIT_S = 30


class TimeLimitExceeded(BaseException):
    """A test ran past ``TIME_LIMIT_S``."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past the {TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
