"""The forked-work contract: how work is cut into shares, that arrays of
any shape cross a stream as raw bytes, that a child waiting on the caller
leaves once the caller's end of its stream closes, and `map_items`: results in item order, item k in process k mod n, serial
work inside a share, and the exception a serial loop would raise."""

import errno
import io
import os
import threading
import time

import numpy as np
import pytest

from repseg import forked
from repseg.train import TrainingDivergedError
from test_train import _no_child_left, _split_across, can_split


@pytest.mark.forked
def test_shares_are_contiguous_and_larger_first():
    for n_items in range(9):
        for n_parts in range(1, 5):
            got = [list(range(n_items)[s])
                   for s in forked.shares(n_items, n_parts)]
            assert got == [list(part) for part in
                           np.array_split(np.arange(n_items), n_parts)]


@pytest.mark.parametrize("shape", [(0, 2), (0,), (2, 3)])
def test_send_and_receive_into_round_trip(shape):
    """Arrays cross as raw bytes, empty ones of any shape included."""
    a = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    stream = io.BytesIO()
    forked.send(stream, [a, a + 1])
    stream.seek(0)
    got = [np.empty(shape), np.empty(shape)]
    for b in got:
        forked.receive_into(stream, b)
    np.testing.assert_array_equal(got[0], a)
    np.testing.assert_array_equal(got[1], a + 1)
    assert stream.read() == b""
    with pytest.raises(ValueError, match="C-contiguous"):
        forked.receive_into(io.BytesIO(bytes(48)), np.empty((2, 6))[:, ::2])


def _wait_for_exit(pid: int, timeout_s: float = 30.0) -> None:
    """Wait until child `pid` has exited, leaving it to be reaped."""
    deadline = time.monotonic() + timeout_s
    while os.waitid(os.P_PID, pid,
                    os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            pytest.fail(f"child {pid} still waits on a closed stream")
        time.sleep(0.01)


@pytest.mark.forked
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


@pytest.mark.forked
@can_split
@pytest.mark.parametrize("n_cpus", [2, 3])
def test_map_items_runs_item_k_in_process_k_mod_n(monkeypatch, n_cpus):
    """Results come back in item order; item k runs in process k mod n,
    the caller's share 0; inside every share `processes` is 1, and after
    the block the caller's count is back."""
    forks = _split_across(monkeypatch, n_cpus)
    got = forked.map_items(
        lambda k: (k * k, os.getpid(), forked.processes(8)), range(8))
    assert [square for square, _, _ in got] == [k * k for k in range(8)]
    pids = [pid for _, pid, _ in got]
    assert pids[::n_cpus] == [os.getpid()] * len(pids[::n_cpus])
    for part in range(1, n_cpus):
        assert len(set(pids[part::n_cpus])) == 1
    assert len(set(pids)) == n_cpus == len(forks) + 1
    assert [inside for _, _, inside in got] == [1] * 8
    assert forked.processes(8) == n_cpus
    _no_child_left()


def _diverged(k):
    return TrainingDivergedError(1, k, float("inf"), float("nan"), 0.5)


def _unwritable(k):
    return IsADirectoryError(errno.EISDIR, "Is a directory", f"s{k:02d}.csv")


@pytest.mark.forked
@can_split
@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("failing", [
    {1: _diverged, 2: _unwritable}, {3: _unwritable, 4: _diverged},
    {2: _diverged, 3: _unwritable}, {4: _unwritable, 5: _diverged}],
    ids=["diverged_1", "unwritable_3", "diverged_2", "unwritable_4"])
def test_map_items_raises_the_lowest_index_exception_intact(
        monkeypatch, capfd, n_cpus, failing):
    """Whichever share raised it, the exception of the lowest failing item
    surfaces with its type and fields, and no traceback is printed."""
    def item(k):
        if k in failing:
            raise failing[k](k)
        return k

    _split_across(monkeypatch, n_cpus)
    first = min(failing)
    want = failing[first](first)
    with pytest.raises(type(want)) as exc:
        forked.map_items(item, range(8))
    if isinstance(want, TrainingDivergedError):
        assert (exc.value.epoch, exc.value.step, exc.value.loss,
                exc.value.mse) == (1, first, np.inf, 0.5)
        assert np.isnan(exc.value.ce)
    else:
        assert (exc.value.errno, exc.value.filename) \
            == (errno.EISDIR, f"s{first:02d}.csv")
    assert str(exc.value) == str(want)
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


@pytest.mark.forked
@can_split
def test_map_items_stops_at_once_when_item_0_fails(monkeypatch, capfd):
    """No index comes before item 0, so its failure kills the child
    instead of waiting for its share (four items of 0.5 s each)."""
    def item(k):
        if k == 0:
            raise _diverged(k)
        time.sleep(0.5)
        return k

    forks = _split_across(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(TrainingDivergedError) as exc:
        forked.map_items(item, range(8))
    assert time.monotonic() - start < 1.0
    assert str(exc.value) == str(_diverged(0))
    assert len(forks) == 1
    assert "Traceback" not in capfd.readouterr().err
    _no_child_left()


@pytest.mark.forked
@can_split
def test_map_items_result_that_cannot_be_pickled_is_runtime_error(
        monkeypatch, capfd):
    _split_across(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="1 of 1 forked children failed"):
        forked.map_items(lambda k: threading.Lock() if k else k, range(2))
    assert "cannot pickle" in capfd.readouterr().err
    assert forked.processes(2) == 2
    _no_child_left()
