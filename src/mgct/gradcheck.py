"""Central finite-difference gradient oracle.

Used by the test suite and the ``verify`` command to check every tape
gradient against an independent numerical estimate. The oracle only calls
the forward function; it never touches the tape.

A large sweep is dealt round-robin to forked children, one per usable CPU
(see ``finite_difference``); each difference is taken from the same working
state as in a one-process sweep, so the gradients are bitwise the same.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .forks import run_tasks

STEP = 1e-5
MIN_SHARE = 256  # entries; a smaller share costs more to fork than it saves


class Work(dict):
    """The oracle's working arrays, by name; ``moved`` names the array that holds the displaced entry."""

    moved: str | None = None


def finite_difference(
    f: Callable[[Work], float], params: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f`` at ``params``, entry by entry, with step ``STEP``.

    ``f`` must be deterministic (fix any dropout keys before calling). The
    oracle copies ``params`` once, as float64, and hands ``f`` that same
    ``Work`` dict of working arrays on every call, moving one entry at a time
    in place and restoring it before the next; ``params`` itself is never
    written. ``work.moved`` names the array that holds the moved entry, so
    every other array holds its value in ``params``: ``f`` may wrap the
    working arrays once, and may keep across calls what it computed from
    unmoved arrays alone, but nothing ``f`` reaches may cache a result on an
    array's identity.

    Entries are numbered in dict order, row-major within each array, and
    dealt round-robin to shares, entry i to share i mod P: one share per
    usable CPU, each of at least ``MIN_SHARE`` entries. Each share runs in a
    forked child of its own (``forks.run_tasks``), which calls ``f`` on its
    own copy of the working arrays, in entry order within its share, and
    sends back only its float64 differences; whatever ``f`` changes in a
    child (a call counter, a cache) stays in that child, and this process
    only waits. A sweep too small for two shares, or a platform without
    ``fork``, runs in this process, and then ``f`` sees every entry move up
    and then down, in order, one per call. A share whose child ends without
    a result raises a ``RuntimeError`` naming the share and the exit code.
    If ``f`` raises, the oracle raises what a one-process sweep would have
    raised first: the exception of the lowest-numbered failing entry, with
    its type and message.
    """
    work = Work((name, np.array(arr, dtype=np.float64, order="C")) for name, arr in params.items())
    n = sum(arr.size for arr in work.values())
    shares = _share_count(n)
    parts = run_tasks(
        [(f"finite-difference share {k} (entries {k}::{shares})", partial(_sweep, f, work, k, shares))
         for k in range(shares)],
        shares,
    )
    for part in parts:
        if isinstance(part, Exception):  # its child ended without a result
            raise part
    failures = [failure for _, failure in parts if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    values = np.empty(n)
    for k, (part, _) in enumerate(parts):
        values[k::shares] = part
    grads: dict[str, np.ndarray] = {}
    start = 0
    for name, arr in work.items():
        grads[name] = values[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return grads


def _share_count(n: int) -> int:
    """Shares for ``n`` entries: one per usable CPU, none under ``MIN_SHARE``; one without ``fork``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n // MIN_SHARE)) if hasattr(os, "fork") else 1


def _sweep(f, work: Work, share: int, shares: int):
    """Central differences of entries ``share``, ``share + shares``, ... of ``work``, counted across its arrays.

    Returns (values, failure): failure is None, or (entry, exception) for the
    first entry whose ``f`` raised, where the sweep stopped.
    """
    out = []
    first = 0  # index of the current array's first entry
    for name, arr in work.items():
        work.moved = name
        flat = arr.reshape(-1)
        for i in range((share - first) % shares, flat.size, shares):
            orig = flat[i]
            try:
                flat[i] = orig + STEP
                up = f(work)
                flat[i] = orig - STEP
                down = f(work)
            except Exception as exc:  # noqa: BLE001 - the caller decides which failure to raise
                return np.array(out), (first + i, exc)
            finally:
                flat[i] = orig
            out.append((up - down) / (2.0 * STEP))
        first += flat.size
    work.moved = None
    return np.array(out), None


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case |a - b| / max(1, |a|, |b|) over all entries.

    The unit floor keeps near-zero gradients from inflating the ratio with
    finite-difference noise while still catching sign and scale errors.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    with np.errstate(invalid="ignore"):  # an infinite entry gives inf / inf: a nan error
        return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def max_relative_error(
    analytic: Mapping[str, np.ndarray], numeric: Mapping[str, np.ndarray]
) -> tuple[float, str]:
    """Largest per-parameter relative error and the parameter it occurs in.

    A nan error counts as the largest: the first parameter with one is reported.
    """
    worst, worst_name = 0.0, ""
    for name in analytic:
        err = relative_error(analytic[name], numeric[name])
        if err >= worst or (err != err and worst == worst):
            worst, worst_name = err, name
    return worst, worst_name
