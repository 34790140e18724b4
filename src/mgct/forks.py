"""The fork queue, the one way mgct runs work in other processes: ``train``'s
(preset, fold) pairs and ``gradcheck``'s finite-difference shares."""

import os
from typing import Callable, Sequence


def run_tasks(tasks: Sequence[tuple[str, Callable[[], object]]], jobs: int) -> list:
    """Call each named no-argument task; return, in task order, each one's value or the ``Exception`` that failed it.

    With ``jobs == 1``, one task, or no ``fork``, the tasks run here, in
    order. Otherwise each runs in a forked child of its own, at most ``jobs``
    at a time, and sends its outcome back through a pipe (a child inherits
    the caller's memory, so no task is pickled); a child that ends without
    sending one fails its task with a ``RuntimeError`` naming the task and
    the exit code. Whether this returns or raises, no child outlives the call.
    """
    if jobs == 1 or len(tasks) == 1 or not hasattr(os, "fork"):
        return [_outcome(fn) for _, fn in tasks]
    import multiprocessing  # here, not at the top: an import of mgct should not load it
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    outcomes: list = [None] * len(tasks)
    queue = iter(enumerate(tasks))
    running: dict = {}  # receiving end -> (task index, child)
    try:
        while True:
            while len(running) < jobs and (task := next(queue, None)):
                recv, send = ctx.Pipe(duplex=False)
                # the child runs this closure as it was at the fork: with this task's function and pipe
                child = ctx.Process(target=lambda: send.send(_outcome(task[1][1])))
                child.start()  # flushes sys.stdout and sys.stderr first, so no child writes their buffers again
                send.close()
                running[recv] = (task[0], child)
            if not running:
                return outcomes
            for recv in wait(list(running)):
                i, child = running[recv]
                try:
                    outcomes[i] = recv.recv()
                    child.join()  # before the next start, so no more than ``jobs`` children are alive
                except EOFError:
                    child.join()
                    outcomes[i] = RuntimeError(f"{tasks[i][0]} ended without a result, exit code {child.exitcode}")
                del running[recv]
                recv.close()
    finally:  # only when raising are children still running; their outcomes are no longer needed
        for recv, (_, child) in running.items():
            child.terminate()
            child.join()
            recv.close()


def _outcome(fn: Callable[[], object]):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the caller decides what a failed task means
        return exc
