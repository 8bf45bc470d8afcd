"""Forked children that take part of a computation onto another CPU.

A child runs one function and exits without returning into its caller's
frames.  What the function returns, or the exception it raises, is
pickled back through a pipe and returned by :func:`reap`; a child that
dies without a complete report becomes a ``RuntimeError`` naming its
signal or exit status.  A child never forks again: :func:`spare_cpu` is
False in it, so nested work, such as a trace writer, stays in the child's
process while its siblings keep the other CPUs busy.  Memory mapped
with :func:`shared_buffer` before the fork is shared with the child, for
work that streams its results while the parent still runs.

Two parts of :mod:`airnav.harness` use it: a Monte Carlo batch, whose
runs :func:`map_chunks` splits into contiguous chunks, one per CPU, each
run by a child of its own; and the trace writer of a lone run, a child
that formats the shared records while the parent ticks.  On Python 3.12
and later the fork emits a ``DeprecationWarning`` because numpy's BLAS
threads exist in the parent process.
"""

from __future__ import annotations

import mmap
import os
import pickle

# True in a child of start(): it does its work in its own process.
_child = False


def cpu_count() -> int:
    """CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spare_cpu() -> bool:
    """Whether a forked child would have a CPU of its own: the ``fork``
    start method exists, this process may use two or more CPUs and is not
    itself a child of :func:`start`."""
    return not _child and hasattr(os, "fork") and cpu_count() >= 2


def shared_buffer(size: int) -> mmap.mmap:
    """``size`` zero bytes of anonymous memory that a forked child shares."""
    try:
        return mmap.mmap(-1, size)
    except OSError as exc:  # out of memory, reported as any allocation is
        raise MemoryError(f"cannot map {size} bytes: {exc}") from exc


def start(work) -> tuple[int, int] | None:
    """Fork a child that calls ``work()`` and exits.

    Returns ``(pid, report)`` to hand to :func:`reap`, or None when the
    fork failed (no process left to start), in which case the caller does
    the work itself.  The child writes the whole pickled report, however
    large, and exits with status 0 only once it has.
    """
    report_r, report_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(report_r)
        os.close(report_w)
        return None
    if pid == 0:
        global _child
        _child = True
        status = 1
        try:
            os.close(report_r)
            try:
                report = pickle.dumps((work(), None))
            except BaseException as exc:
                try:
                    report = pickle.dumps((None, exc))
                except Exception:  # an exception that does not pickle
                    report = pickle.dumps((None, RuntimeError(repr(exc))))
            # a buffered file writes all of it, across short writes
            with open(report_w, "wb") as fh:
                fh.write(report)
            status = 0
        finally:
            os._exit(status)
    os.close(report_w)
    return pid, report_r


def reap(pid: int, report: int, name: str,
         ) -> tuple[object, BaseException | None]:
    """Wait for the child ``pid`` of :func:`start`: ``(result, error)``.

    ``result`` is what ``work()`` returned and ``error`` None, or ``error``
    is the exception it raised, or a ``RuntimeError`` naming ``name`` when
    the child was killed or exited before its report was complete.
    Closes ``report``.
    """
    try:
        with open(report, "rb") as fh:
            data = fh.read()
    finally:  # interrupted or not, leave no child behind
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status < 0:
        return None, RuntimeError(f"{name} killed by signal {-status}")
    if status or not data:
        return None, RuntimeError(f"{name} exited with {status}")
    return pickle.loads(data)


def map_chunks(work, items, name: str) -> list:
    """``[work(chunk) for chunk in chunks]``: ``items`` split into
    contiguous chunks, each run by a child of its own where there are two
    or more.

    There is one chunk per CPU this process may use, no more than there
    are items, and the chunks' sizes differ by at most one.  A lone chunk
    runs here, in process, as does every chunk when :func:`spare_cpu` is
    False.  With two or more, this process forks every chunk's child and
    only waits for them, so a chunk's memory is never this process's; a
    chunk whose fork fails runs here.  A chunk stops at its first exception,
    the others run to their end, and once every child is reaped the first
    failing chunk's exception is raised.
    """
    count = min(len(items), cpu_count()) if spare_cpu() else 1
    if count <= 1:
        return [work(items)]
    bounds = [len(items) * i // count for i in range(count + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children = [start(lambda chunk=chunk: work(chunk)) for chunk in chunks]
    outcomes = []
    for chunk, child in zip(chunks, children):
        try:
            outcomes.append(reap(*child, name) if child is not None
                            else (work(chunk), None))
        except BaseException as exc:
            outcomes.append((None, exc))
    for _, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _ in outcomes]
