"""The forked-work contract: how work is cut into shares, and that a child
waiting on the caller leaves once the caller's end of its stream closes."""

import os
import time

import numpy as np
import pytest

from repseg import forked
from test_train import _no_child_left, can_split


def test_shares_are_contiguous_and_larger_first():
    for n_items in range(9):
        for n_parts in range(1, 5):
            got = [list(range(n_items)[s])
                   for s in forked.shares(n_items, n_parts)]
            assert got == [list(part) for part in
                           np.array_split(np.arange(n_items), n_parts)]


def _wait_for_exit(pid: int, timeout_s: float = 30.0) -> None:
    """Wait until child `pid` has exited, leaving it to be reaped."""
    deadline = time.monotonic() + timeout_s
    while os.waitid(os.P_PID, pid,
                    os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            pytest.fail(f"child {pid} still waits on a closed stream")
        time.sleep(0.01)


@can_split
def test_each_child_exits_once_the_caller_closes_its_end(capfd):
    """A child blocked in `receive_into` sees EOF once the caller closes its
    end, so neither the child nor a sibling forked after it holds a copy of
    that end; the child's exit surfaces as a RuntimeError in the caller."""
    def wait_for_bytes(stream):
        forked.receive_into(stream, np.empty(4))

    with pytest.raises(RuntimeError, match="2 of 2 forked children failed"):
        with forked.run([wait_for_bytes] * 2) as children:
            for child in children:
                child.stream.close()
                _wait_for_exit(child.pid)
    assert capfd.readouterr().err.count("closed after 0 of 32 bytes") == 2
    _no_child_left()
