"""Work shared with forked processes: the one module that forks, opens
sockets, reads or sets CPU affinity and sets OpenBLAS's thread count.

`processes(limit)` says how many processes to split work over, and
`shares` cuts the work into contiguous shares, the larger ones first; the
caller runs the first share. `run(works)` forks one child per other share,
which inherits the caller's memory (nothing is pickled) and talks to it
over a buffered stream. Arrays cross as raw bytes (`send`, `receive_into`),
in an order both sides know. While children run every process uses one BLAS
thread, as two processes with two threads each oversubscribe two cores.
`single_cpu_pool` has `processes` workers, each pinned to a CPU of its own,
so the work inside a worker stays serial.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import multiprocessing
import os
import signal
import socket
import sys
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor

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


def processes(limit: int) -> int:
    """How many processes to split `limit` units of work over: one per CPU
    this process may run on, at most `limit`; 1 without CPU affinity (which
    implies `os.fork`) or a BLAS whose thread count can be set."""
    if not hasattr(os, "sched_getaffinity") or blas_threads() is None:
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
        stream.write(memoryview(a).cast("B"))
    stream.flush()


def receive_into(stream: typing.BinaryIO, array: np.ndarray) -> None:
    """Fill C-contiguous `array` from `stream`; RuntimeError if the other
    end closes first."""
    view = memoryview(array).cast("B")
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
    runs, every process with one BLAS thread; yields the children.

    On leaving, every stream is closed and every child reaped, killed first
    if the block raised, so its exception is the one that surfaces; the
    BLAS thread count is restored. A child that exited non-zero after a
    block that did not raise is a RuntimeError.
    """
    if not works:
        yield []
        return
    get_threads, set_threads = blas_threads()
    threads = get_threads()
    set_threads(1)
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
    failed = [code for code in codes if code != 0]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(codes)} forked children "
                           f"failed, exit statuses {failed}")


def _pin_to_one_cpu(cpus: list[int], started) -> None:
    """Pool initializer: run this worker on the CPU of `cpus` after the one
    the previous worker took (`started` counts them). BLAS gets one thread
    too, as a second one would only contend for the same CPU."""
    with started.get_lock():
        index = started.value
        started.value += 1
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    blas = blas_threads()
    if blas is not None:
        _, set_threads = blas
        set_threads(1)


def single_cpu_pool(n_tasks: int) -> ProcessPoolExecutor:
    """`processes(n_tasks)` worker processes, each pinned to a CPU of its
    own where the platform allows. `processes` inside a worker then sees one
    CPU, so the work stays in that worker: split again, two workers would
    run four processes on two cores, meeting at every training step."""
    workers = processes(n_tasks)
    if not hasattr(os, "sched_setaffinity"):
        return ProcessPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_pin_to_one_cpu,
        initargs=(sorted(os.sched_getaffinity(0)),
                  multiprocessing.Value("i", 0)))
