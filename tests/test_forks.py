"""The fork queue: outcomes in task order, the same in this process and in
forked children; a child that dies fails only its own task, named with its
exit code; no child outlives the call."""

import multiprocessing
import multiprocessing.connection
import os
import signal
from functools import partial

import pytest

from mgct.forks import run_tasks


def square(x):
    if x == 3:
        raise ValueError("no 3")
    return x * x, os.getpid()


def outcomes_by_value(outcomes):
    """Outcomes with pids dropped and exceptions as (type, message), so runs can be compared."""
    return [(type(o).__name__, str(o)) if isinstance(o, Exception) else o[0] for o in outcomes]


@pytest.mark.parametrize("jobs", [2, 3, 100])
def test_forked_outcomes_are_the_serial_ones_in_task_order(jobs):
    tasks = [(f"task {x}", partial(square, x)) for x in range(7)]
    here = run_tasks(tasks, 1)
    forked = run_tasks(tasks, jobs)
    assert outcomes_by_value(forked) == outcomes_by_value(here) == [0, 1, 4, ("ValueError", "no 3"), 16, 25, 36]
    assert {o[1] for o in here if not isinstance(o, Exception)} == {os.getpid()}
    pids = [o[1] for o in forked if not isinstance(o, Exception)]
    assert len(set(pids)) == len(pids) and os.getpid() not in pids  # one child per task
    assert multiprocessing.active_children() == []


def test_one_task_runs_here():
    (outcome,) = run_tasks([("only", partial(square, 2))], 4)
    assert outcome == (4, os.getpid())


def exit_at(x, code):
    if x == 1:
        os._exit(code)
    return x


def test_a_dead_child_fails_only_its_task():
    outcomes = run_tasks([(f"task {x}", partial(exit_at, x, 3)) for x in range(4)], 2)
    assert [0, 2, 3] == [outcomes[i] for i in (0, 2, 3)]
    assert isinstance(outcomes[1], RuntimeError)
    assert str(outcomes[1]) == "task 1 ended without a result, exit code 3"
    assert multiprocessing.active_children() == []


def test_an_error_here_ends_every_child(monkeypatch):
    # the caller is interrupted while its children run: each is terminated and joined
    started = []

    def interrupted(conns, timeout=None):
        started.extend(multiprocessing.active_children())
        raise KeyboardInterrupt

    monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_tasks([(f"task {x}", partial(signal.pause)) for x in range(3)], 2)
    assert len(started) == 2
    assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
    assert multiprocessing.active_children() == []
