"""Central finite-difference gradient oracle.

Used by the test suite and the ``verify`` command to check every tape
gradient against an independent numerical estimate. The oracle only calls
the forward function; it never touches the tape.

A large sweep is split across the usable CPUs by forking (see
``finite_difference``); each difference is taken from the same working
state as in a one-process sweep, so the gradients are bitwise the same.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Mapping

import numpy as np

STEP = 1e-5
MIN_SHARE = 256  # entries; a smaller share costs more to fork than it saves


def finite_difference(
    f: Callable[[Mapping[str, np.ndarray]], float], params: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f`` at ``params``, entry by entry, with step ``STEP``.

    ``f`` must be deterministic (fix any dropout keys before calling). The
    oracle copies ``params`` once, as float64, and hands ``f`` that same dict
    of working arrays on every call, moving one entry at a time in place and
    restoring it before the next; ``params`` itself is never written. So
    ``f`` may wrap the working arrays once and read them on every call, and
    nothing ``f`` reaches may cache a result on an array's identity.

    Entries are taken in dict order, row-major within each array, and cut
    into contiguous shares: one per usable CPU, each of at least
    ``MIN_SHARE`` entries. The first share runs here and every other one in
    a forked child that calls ``f`` on its own copy of the working arrays,
    in the same order within its share, and sends back only its float64
    differences; whatever ``f`` changes in a child (a call counter, a
    cache) stays in that child. A sweep too small for two shares,
    or a platform without ``fork``, runs in this process alone, and then
    ``f`` sees every entry move up and then down, in order, one per call.
    If ``f`` raises, the oracle raises what a one-process sweep would have
    raised first: an exception from this process's share, else the first
    failing child share's, with its type and message.
    """
    work = {name: np.array(arr, dtype=np.float64, order="C") for name, arr in params.items()}
    bounds = _share_bounds(sum(arr.size for arr in work.values()))
    if len(bounds) > 2 and hasattr(os, "fork"):
        values = _forked_sweep(f, work, bounds)
    else:
        values = _sweep(f, work, bounds[0], bounds[-1])
    grads: dict[str, np.ndarray] = {}
    start = 0
    for name, arr in work.items():
        grads[name] = values[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return grads


def _share_bounds(n: int) -> list[int]:
    """Cut ``n`` entries into contiguous shares, one per usable CPU, none under ``MIN_SHARE``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    shares = max(1, min(cpus, n // MIN_SHARE))
    return [n * k // shares for k in range(shares + 1)]


def _sweep(f, work: dict[str, np.ndarray], start: int, stop: int) -> np.ndarray:
    """Central differences of entries ``start:stop`` of ``work``, counted across its arrays in order."""
    out = np.empty(stop - start)
    first = 0  # index of the current array's first entry
    for arr in work.values():
        flat = arr.reshape(-1)
        for i in range(max(start - first, 0), min(stop - first, flat.size)):
            orig = flat[i]
            flat[i] = orig + STEP
            up = f(work)
            flat[i] = orig - STEP
            down = f(work)
            flat[i] = orig
            out[first + i - start] = (up - down) / (2.0 * STEP)
        first += flat.size
    return out


def _send_share(f, work, start: int, stop: int, conn) -> None:
    """Child body: sweep one share and send its values, or the exception it raised."""
    try:
        result = _sweep(f, work, start, stop)
    except Exception as exc:  # noqa: BLE001 - sent to the parent, which re-raises it
        result = exc
    conn.send(result)
    conn.close()


def _forked_sweep(f, work: dict[str, np.ndarray], bounds: list[int]) -> np.ndarray:
    """Sweep share 0 here and every later share in a forked child; join the values in entry order."""
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for k in range(1, len(bounds) - 1):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share, args=(f, work, bounds[k], bounds[k + 1], send))
            child.start()  # flushes sys.stdout and sys.stderr first, so no child writes their buffers again
            send.close()
            children.append((child, recv))
        parts = [_sweep(f, work, bounds[0], bounds[1])]
        for k, (child, recv) in enumerate(children, start=1):
            try:
                part = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"finite-difference share {k} (entries {bounds[k]}:{bounds[k + 1]}) "
                    f"ended without a result, exit code {child.exitcode}"
                ) from None
            if isinstance(part, BaseException):
                raise part
            parts.append(part)
    except BaseException:
        for child, _ in children:  # their values are no longer needed
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return np.concatenate(parts)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case |a - b| / max(1, |a|, |b|) over all entries.

    The unit floor keeps near-zero gradients from inflating the ratio with
    finite-difference noise while still catching sign and scale errors.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def max_relative_error(
    analytic: Mapping[str, np.ndarray], numeric: Mapping[str, np.ndarray]
) -> tuple[float, str]:
    """Largest per-parameter relative error and the parameter it occurs in."""
    worst, worst_name = 0.0, ""
    for name in analytic:
        err = relative_error(analytic[name], numeric[name])
        if err >= worst:
            worst, worst_name = err, name
    return worst, worst_name
