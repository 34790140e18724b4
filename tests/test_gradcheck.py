"""The finite-difference oracle: it moves every entry up and down, in order,
and leaves its caller's parameters alone; split across processes, it gives
the same gradients and raises what the one-process sweep would."""

import multiprocessing
import os

import numpy as np
import pytest

from mgct import gradcheck
from mgct.gradcheck import STEP, finite_difference


def per_call_copy_reference(f, params):
    """The oracle written the slow, obvious way: a fresh copy of every array on every call."""
    grads = {}
    for name, arr in params.items():
        g = np.empty(arr.size)
        for i in range(arr.size):
            values = []
            for step in (STEP, -STEP):
                moved = {k: np.array(v, dtype=np.float64, order="C") for k, v in params.items()}
                moved[name].reshape(-1)[i] += step
                values.append(f(moved))
            g[i] = (values[0] - values[1]) / (2.0 * STEP)
        grads[name] = g.reshape(arr.shape)
    return grads


def test_every_entry_evaluated_and_params_untouched():
    rng = np.random.default_rng(3)
    params = {"a": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, (2, 3)), "c": rng.uniform(-1, 1, (1, 1))}
    params["d"] = np.asfortranarray(rng.uniform(-1, 1, (2, 3)))  # entries still move in row-major order
    before = {k: v.copy() for k, v in params.items()}

    def f(p):
        smooth = np.sum(np.tanh(p["b"] @ p["a"]) ** 2) + np.sin(p["c"][0, 0]) * np.sum(np.exp(p["a"]))
        return float(smooth + np.sum(p["d"] ** 3 * p["b"]))

    moves = []

    def counted(p):
        # which entry the call moves, and which way; the working arrays are the oracle's own
        assert not any(np.shares_memory(p[k], params[k]) for k in params)
        for k in p:
            moves.extend((k, int(i), bool(p[k].flat[i] > params[k].flat[i])) for i in np.flatnonzero(p[k] != params[k]))
        return f(p)

    grads = finite_difference(counted, params)
    expected = [(k, i, up) for k, arr in params.items() for i in range(arr.size) for up in (True, False)]
    assert moves == expected  # each call moves exactly one entry, every entry up then down, in order
    for name, arr in params.items():
        assert arr.tobytes() == before[name].tobytes()
        assert not np.shares_memory(grads[name], arr)
    reference = per_call_copy_reference(f, params)
    assert list(grads) == list(params)
    for name in params:
        assert grads[name].shape == params[name].shape
        assert grads[name].tobytes() == reference[name].tobytes()


def smooth(p):
    return float(np.sum(np.tanh(p["b"] @ p["a"]) ** 2) + np.sin(p["c"][0, 0]) * np.sum(np.exp(p["a"])) + np.sum(p["d"]))


@pytest.fixture()
def three_shares(monkeypatch):
    """25 entries cut into shares 0:8 (this process), 8:16 and 16:25 (forked), on any host."""
    monkeypatch.setattr(gradcheck, "MIN_SHARE", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    rng = np.random.default_rng(4)
    params = {"a": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, (2, 3)), "c": rng.uniform(-1, 1, (1, 1))}
    params["d"] = np.asfortranarray(rng.uniform(-1, 1, (2, 3)))
    assert gradcheck._share_bounds(25) == [0, 8, 16, 25]
    yield params
    assert multiprocessing.active_children() == []  # every child joined


def moved_entry(p, params):
    """The global index of the one entry ``p`` has moved away from ``params``."""
    flat = np.concatenate([p[k].reshape(-1) != params[k].reshape(-1) for k in params])
    return int(np.flatnonzero(flat)[0])


def test_split_sweep_is_bitwise_the_serial_one(three_shares):
    grads = finite_difference(smooth, three_shares)
    reference = per_call_copy_reference(smooth, three_shares)
    assert list(grads) == list(three_shares)
    for name in three_shares:
        assert grads[name].tobytes() == reference[name].tobytes()


@pytest.mark.parametrize(
    "failing,raised",
    [
        ({20: "child"}, "entry 20 in child"),  # the last share's
        ({10: "first", 20: "second"}, "entry 10 in first"),  # the lowest failing share's
        ({3: "parent", 10: "child"}, "entry 3 in parent"),  # this process's share comes first
    ],
)
def test_split_sweep_raises_what_the_serial_loop_raises_first(three_shares, failing, raised):
    def f(p):
        entry = moved_entry(p, three_shares)
        if entry in failing:
            raise ValueError(f"entry {entry} in {failing[entry]}")
        return smooth(p)

    with pytest.raises(ValueError, match=f"^{raised}$"):
        finite_difference(f, three_shares)


def test_a_child_that_dies_is_named(three_shares):
    def f(p):
        if moved_entry(p, three_shares) == 12:
            os._exit(3)
        return smooth(p)

    with pytest.raises(RuntimeError, match=r"share 1 \(entries 8:16\) ended without a result, exit code 3"):
        finite_difference(f, three_shares)
