"""Work shared with forked processes: the one module that forks, opens
sockets, reads CPU affinity and sets OpenBLAS's thread count.

`processes(limit)` says how many processes to split work over. `run(works)`
forks one child per work, which inherits the caller's memory (nothing is
pickled on the way in) and talks to it over a buffered stream. While
children run every process uses one BLAS thread, as two processes with two
threads each oversubscribe two cores, and `processes` says 1, so work
nested in a share stays serial. `map_items(fn, items)` is the map on top of
`run`: item k goes to process k mod n, and each child sends back one pickle
of its results. `train_fold`'s worker talks to the caller at every step
instead: it takes the parameter vector and sends back the loss terms of
its half of the batch and one gradient vector, arrays crossing as raw
bytes (`send`, `receive_into`); `shares` cuts a batch into contiguous
shares.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
import pickle
import signal
import socket
import sys
import traceback
import typing

import numpy as np


@functools.cache
def blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None.

    The library is found in this process's memory map and asked through its
    own entry points: `scipy_openblas_*_num_threads64_` in numpy 2.x wheels,
    `openblas_*_num_threads` in other builds.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


# true while a `run` block with children is open, in its caller and in
# every child it forked
_splitting = False


def processes(limit: int) -> int:
    """How many processes to split `limit` units of work over: one per CPU
    this process may run on, at most `limit`; 1 inside a `run` block that
    forked (the caller's and its children's), without CPU affinity (which
    implies `os.fork`) or without a BLAS whose thread count can be set."""
    if (_splitting or not hasattr(os, "sched_getaffinity")
            or blas_threads() is None):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), limit))


def shares(n_items: int, n_parts: int) -> list[slice]:
    """`n_items` cut into `n_parts` contiguous slices whose sizes differ by
    at most one, the larger ones first."""
    size, extra = divmod(n_items, n_parts)
    bounds = [0, *itertools.accumulate(size + (k < extra)
                                       for k in range(n_parts))]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def send(stream: typing.BinaryIO, arrays) -> None:
    """Write each C-contiguous array's bytes, in order, then flush once."""
    for a in arrays:
        # flat: memoryview cannot cast a view with a zero in its shape
        stream.write(memoryview(a.reshape(-1)).cast("B"))
    stream.flush()


def receive_into(stream: typing.BinaryIO, array: np.ndarray) -> None:
    """Fill C-contiguous `array` from `stream`; RuntimeError if the other
    end closes first."""
    if not array.flags.c_contiguous:
        # reshape would copy, and the bytes would land in the copy
        raise ValueError("receive_into needs a C-contiguous array")
    view = memoryview(array.reshape(-1)).cast("B")
    got = stream.readinto(view)
    if got != len(view):
        raise RuntimeError(f"a forked process's stream closed after {got} "
                           f"of {len(view)} bytes")


class Child(typing.NamedTuple):
    """A forked child as the caller sees it: `stream` reads what the child
    sends and writes to the child; `fd` is the descriptor under it."""

    pid: int
    fd: int
    stream: typing.BinaryIO


def _fork(work, siblings: list[Child]) -> Child:
    """Fork a child that runs `work(stream)` on its end of a socket pair
    and leaves with `os._exit`: 0 if `work` returned, 1 if it raised (the
    traceback goes to stderr). The child first closes the caller's end of
    its own and its `siblings`' sockets, so that it sees EOF if the caller
    goes away."""
    ours, theirs = socket.socketpair()
    with ours, theirs:  # the caller's descriptor stays open in its stream
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # descriptors alone: no buffer is flushed, and a socket's
                # own close leaves the descriptor open while a stream holds it
                for fd in (ours.detach(), *(s.fd for s in siblings)):
                    os.close(fd)
                with theirs.makefile("rwb") as stream:
                    work(stream)
                code = 0
            except Exception:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        return Child(pid, ours.fileno(), ours.makefile("rwb"))


@contextlib.contextmanager
def run(works: list):
    """Run each of `works` in a forked child (see `_fork`) while the block
    runs, every process with one BLAS thread and `processes` at 1; yields
    the children.

    On leaving, every stream is closed and every child reaped, killed first
    if the block raised, so its exception is the one that surfaces; the
    BLAS thread count is restored. A child that exited non-zero after a
    block that did not raise is a RuntimeError.
    """
    global _splitting
    if not works:
        yield []
        return
    get_threads, set_threads = blas_threads()
    threads = get_threads()
    set_threads(1)
    splitting, _splitting = _splitting, True
    children: list[Child] = []
    done = False
    codes = []
    try:
        for work in works:
            children.append(_fork(work, children))
        yield children
        done = True
    finally:
        for child in children:
            if not done:
                os.kill(child.pid, signal.SIGKILL)
            # a child that died leaves nothing to flush into
            with contextlib.suppress(ConnectionError):
                child.stream.close()
            codes.append(os.waitstatus_to_exitcode(
                os.waitpid(child.pid, 0)[1]))
        set_threads(threads)
        _splitting = splitting
    failed = [code for code in codes if code != 0]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(codes)} forked children "
                           f"failed, exit statuses {failed}")


def _apply(fn, items) -> tuple[list, Exception | None]:
    """`fn` of each item in order up to the first exception: the results
    before it, and the exception or None."""
    done = []
    try:
        for item in items:
            done.append(fn(item))
    except Exception as exc:
        return done, exc
    return done, None


def map_items(fn, items) -> list:
    """`[fn(x) for x in items]` over `processes(len(items))` processes.

    Item k runs in process k mod n, the caller's share being 0: folds and
    windows differ in cost along the list, and round-robin evens out what
    contiguous shares would not. Each share runs in order and stops at its
    first exception; a child sends one pickle of its results and that
    exception. The raised exception is the lowest-index one, the one a
    serial loop would raise. If item 0 fails, no index comes before it, so
    the children are killed at once; a failure at a later index waits for
    the children's earlier items. A result or exception that cannot be
    pickled fails its child, which surfaces as RuntimeError (see `run`)."""
    n = processes(len(items))

    def serve(part: int, stream: typing.BinaryIO) -> None:
        stream.write(pickle.dumps(_apply(fn, items[part::n])))

    with run([functools.partial(serve, part)
              for part in range(1, n)]) as children:
        outcomes = [_apply(fn, items[::n])]
        if not outcomes[0][0] and outcomes[0][1] is not None:
            raise outcomes[0][1]
        sent = [child.stream.read() for child in children]
    outcomes += map(pickle.loads, sent)
    errors = [(part + n * len(done), error)
              for part, (done, error) in enumerate(outcomes)
              if error is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    results = [None] * len(items)
    for part, (done, _) in enumerate(outcomes):
        results[part::n] = done
    return results
