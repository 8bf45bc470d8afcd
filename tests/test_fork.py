import os
import signal
import time

import pytest

from airnav import _fork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the fork start method is missing")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # waitpid(-1) fails when this process has no child left, zombie or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(_fork, "cpu_count", lambda: cpus)


def _tagged(chunk):
    """The chunk's items, each with the id of the process that saw it."""
    return [(item, os.getpid()) for item in chunk]


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("items", [1, 5, 7])
def test_results_in_order(monkeypatch, cpus, items):
    _pin_cpus(monkeypatch, cpus)
    chunks = _fork.map_chunks(_tagged, range(items), "worker")
    count = min(cpus, items)
    assert len(chunks) == count
    assert [item for chunk in chunks for item, _ in chunk] == list(
        range(items))
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) - min(sizes) <= 1
    pids = [{pid for _, pid in chunk} for chunk in chunks]
    assert all(len(p) == 1 for p in pids)
    if count == 1:
        assert pids == [{os.getpid()}]
    else:   # a child per chunk; this process runs none of them
        assert len(set.union(*pids)) == count
        assert os.getpid() not in set.union(*pids)


def test_sequence_chunks_are_slices(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    assert _fork.map_chunks(list, ["a", "b", "c", "d", "e"], "worker") == [
        ["a", "b"], ["c", "d", "e"]]


def test_failed_fork_runs_the_chunk_here(monkeypatch):
    _pin_cpus(monkeypatch, 3)
    fork, calls = os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError("no process left to start")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    chunks = _fork.map_chunks(_tagged, range(6), "worker")
    assert len(calls) == 3
    assert [[item for item, _ in chunk] for chunk in chunks] == [
        [0, 1], [2, 3], [4, 5]]
    pids = [chunk[0][1] for chunk in chunks]
    assert pids[1] == os.getpid()
    assert os.getpid() not in (pids[0], pids[2])


@pytest.mark.parametrize("failing, raised", [
    ({0: ValueError}, ValueError),
    ({2: KeyError}, KeyError),
    ({0: ValueError, 2: KeyError}, ValueError),
])
def test_first_failing_chunk_reaches_caller(monkeypatch, tmp_path, failing,
                                            raised):
    _pin_cpus(monkeypatch, 3)

    def work(chunk):
        for item in chunk:
            if item in failing:
                raise failing[item](f"forced at item {item}")
            (tmp_path / str(item)).touch()
        return list(chunk)

    with pytest.raises(raised, match="forced at item"):
        _fork.map_chunks(work, range(3), "worker")
    # the chunks that did not fail ran to their end
    assert sorted(int(p.name) for p in tmp_path.iterdir()) == sorted(
        set(range(3)) - set(failing))


def test_killed_child_is_named(monkeypatch):
    _pin_cpus(monkeypatch, 2)

    def work(chunk):
        if 1 in chunk:
            os.kill(os.getpid(), signal.SIGKILL)
        return list(chunk)

    with pytest.raises(RuntimeError,
                       match=f"^sweep worker killed by signal "
                             f"{int(signal.SIGKILL)}$"):
        _fork.map_chunks(work, range(2), "sweep worker")


def test_a_child_forks_no_further(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    assert _fork.spare_cpu()

    def work(chunk):
        inner = _fork.map_chunks(_tagged, range(4), "inner worker")
        return _fork.spare_cpu(), inner, os.getpid()

    for spare, inner, pid in _fork.map_chunks(work, range(2), "worker"):
        assert not spare
        assert inner == [[(k, pid) for k in range(4)]]
    assert _fork.spare_cpu()


def test_large_result_arrives_whole_across_signals(monkeypatch):
    # 4 MiB is many pipe buffers; a timer interrupts the child's writes
    # while this process is still asleep and not reading
    _pin_cpus(monkeypatch, 2)
    size = 4 << 20

    def work(chunk):
        signal.signal(signal.SIGALRM, lambda *args: None)
        signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
        return bytes([chunk[0]]) * size

    def slow_reap(*args):
        time.sleep(0.05)
        return reap(*args)

    reap = _fork.reap
    monkeypatch.setattr(_fork, "reap", slow_reap)
    assert _fork.map_chunks(work, range(2), "worker") == [
        b"\x00" * size, b"\x01" * size]


def test_result_that_does_not_pickle_is_an_error(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    with pytest.raises(Exception, match="pickle"):
        _fork.map_chunks(lambda chunk: (lambda: chunk), range(2), "worker")
