"""Forked children that take part of a computation onto a second CPU.

A child runs one function and exits without returning into its caller's
frames.  It shares nothing with its parent but what was mapped with
:func:`shared_buffer` before the fork, so that is where it leaves its
results.  An exception it raises is pickled back through a pipe, and
:func:`reap` returns it for the parent to raise; a child that dies
without a report becomes a ``RuntimeError`` naming its signal or exit
status.  On Python 3.12 and later the fork emits a ``DeprecationWarning``
because numpy's BLAS threads exist in the parent process.
"""

from __future__ import annotations

import mmap
import os
import pickle


def cpu_count() -> int:
    """CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spare_cpu() -> bool:
    """Whether a forked child would have a CPU of its own: the ``fork``
    start method exists and this process may use two or more CPUs."""
    return hasattr(os, "fork") and cpu_count() >= 2


def shared_buffer(size: int) -> mmap.mmap:
    """``size`` zero bytes of anonymous memory that a forked child shares."""
    try:
        return mmap.mmap(-1, size)
    except OSError as exc:  # out of memory, reported as any allocation is
        raise MemoryError(f"cannot map {size} bytes: {exc}") from exc


def start(work) -> tuple[int, int] | None:
    """Fork a child that calls ``work()`` and exits.

    Returns ``(pid, errors)`` to hand to :func:`reap`, or None when the
    fork failed (no process left to start), in which case the caller does
    the work itself.
    """
    errors_r, errors_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(errors_r)
        os.close(errors_w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(errors_r)
            work()
            status = 0
        except BaseException as exc:
            try:
                report = pickle.dumps(exc)
            except Exception:  # an exception that does not pickle
                report = pickle.dumps(RuntimeError(repr(exc)))
            os.write(errors_w, report)
        finally:
            os._exit(status)
    os.close(errors_w)
    return pid, errors_r


def reap(pid: int, errors: int, name: str) -> BaseException | None:
    """Wait for the child ``pid`` of :func:`start` and return its error.

    That is the exception the child raised, or a ``RuntimeError`` naming
    ``name`` when it was killed or exited with a status of its own; None
    when it finished.  Closes ``errors``.
    """
    with open(errors, "rb") as fh:
        report = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report:
        return pickle.loads(report)
    if status < 0:
        return RuntimeError(f"{name} killed by signal {-status}")
    if status:
        return RuntimeError(f"{name} exited with {status}")
    return None
