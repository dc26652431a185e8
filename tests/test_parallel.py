import os
import signal

import pytest

from clusterbmc import parallel


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_results_in_job_order(n):
    jobs = list(range(10, 10 + n))
    out = parallel.map2(lambda j: (j * j, os.getpid()), jobs,
                        [1, 7, 3, 3, 2][:n])
    assert [r for r, _pid in out] == [j * j for j in jobs]
    # two jobs or more are split over this process and one child
    pids = {pid for _r, pid in out}
    assert os.getpid() in pids or n == 0
    assert len(pids) == (2 if n >= 2 else n)
    assert_no_child_left()


def test_split_is_longest_first():
    assert parallel._split([1, 5, 3, 3, 1]) == ([1, 0, 4], [2, 3])
    assert parallel._split([2, 2]) == ([0], [1])


def in_child(action):
    """A job function that runs `action` in the forked child and returns
    its job everywhere else."""
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent:
            action()
        return job
    return fn


def test_child_exception_is_raised_here():
    def fail():
        raise KeyError("child")

    with pytest.raises(KeyError, match="child"):
        parallel.map2(in_child(fail), [0, 1, 2], [1, 1, 1])
    assert_no_child_left()


@pytest.mark.parametrize("end, code", [
    (lambda: os._exit(1), 1),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit", "killed"])
def test_child_without_result(end, code):
    with pytest.raises(parallel.ChildLost,
                       match=f"exit code {code} and sent no result"):
        parallel.map2(in_child(end), [0, 1], [1, 1])
    assert_no_child_left()


def test_own_half_raises_after_reaping():
    parent = os.getpid()

    def fn(job):
        if os.getpid() == parent:
            raise ValueError("parent")
        return job

    with pytest.raises(ValueError, match="parent"):
        parallel.map2(fn, [0, 1], [1, 1])
    assert_no_child_left()
