"""The finite-difference oracle: it moves every entry up and down, in order,
and leaves its caller's parameters alone."""

import numpy as np

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
