"""A deadline for every test marked `forked`.

Processes that share work over a stream wait for each other: if one sends
less than the other reads, both block for good. SIGALRM ends such a test
with a traceback from where it waited, instead of hanging the whole run.
"""

import signal

import pytest

# the slowest forked test (the mask-ratio sweep on 1 and 2 CPUs) takes
# 5.4 s on a 2-core Xeon, on both CPUs or one: ten times that leaves room
# for a slower runner, and a hang still fails in a minute
FORKED_DEADLINE_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if item.get_closest_marker("forked") is None:
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past its {FORKED_DEADLINE_S} s "
                           f"deadline: a process is likely waiting on a "
                           f"stream the other side will not fill")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(FORKED_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
