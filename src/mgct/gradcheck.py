"""Central finite-difference gradient oracle.

Used by the test suite and the ``verify`` command to check every tape
gradient against an independent numerical estimate. The oracle only calls
the forward function; it never touches the tape.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

STEP = 1e-5


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
    """
    work = {name: np.array(arr, dtype=np.float64, order="C") for name, arr in params.items()}
    grads: dict[str, np.ndarray] = {}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            up = f(work)
            flat[i] = orig - STEP
            down = f(work)
            flat[i] = orig
            g[i] = (up - down) / (2.0 * STEP)
        grads[name] = g.reshape(arr.shape)
    return grads


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
