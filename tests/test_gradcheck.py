"""The finite-difference oracle: it moves every entry up and down, in order,
and leaves its caller's parameters alone; dealt round-robin across processes,
it gives the same gradients and raises what the one-process sweep would. The
model check re-runs each forward from the node that reads the moved array,
with bitwise the gradients of whole forwards, for every ablation preset."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from mgct import gradcheck, mgct_core, numkit as nk, verify
from mgct.gradcheck import STEP, finite_difference
from mgct.mgct_core import AblationSpec, bind_model, init_model_arrays, window_nodes
from mgct.train import window_losses


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
        assert moves[-1][0] == p.moved  # the array named as moved holds the moved entry
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
    """25 entries dealt to three shares, on any host: 0, 3, ..., 1, 4, ... and 2, 5, ..., each in a forked child."""
    monkeypatch.setattr(gradcheck, "MIN_SHARE", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    rng = np.random.default_rng(4)
    params = {"a": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, (2, 3)), "c": rng.uniform(-1, 1, (1, 1))}
    params["d"] = np.asfortranarray(rng.uniform(-1, 1, (2, 3)))
    assert gradcheck._share_count(25) == 3
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
        ({10: "first", 20: "second"}, "entry 10 in first"),  # the lowest failing entry's
        ({3: "parent", 10: "child"}, "entry 3 in parent"),
        ({4: "child", 6: "parent"}, "entry 4 in child"),  # a child's entry before this process's
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
        if moved_entry(p, three_shares) == 13:
            os._exit(3)
        return smooth(p)

    with pytest.raises(RuntimeError, match=r"share 1 \(entries 1::3\) ended without a result, exit code 3"):
        finite_difference(f, three_shares)


def test_model_check_binds_once_per_sweep(monkeypatch):
    # one process: the tape's tensors and the sweep's tensors, not one binding per forward call;
    # likewise the window's three cuts (patch, genomic, pair), built for the tape and for the sweep
    monkeypatch.setattr(gradcheck, "MIN_SHARE", 10**9)
    calls, cuts = [], []
    real_cut = nk.Segments.__init__
    monkeypatch.setattr(nk.Segments, "__init__", lambda seg, sizes: cuts.append(sizes) or real_cut(seg, sizes))

    def counted(arrays):
        calls.append(len(arrays))
        return bind_model(arrays)

    monkeypatch.setattr(mgct_core, "bind_model", counted)
    monkeypatch.setattr(verify, "bind_model", counted)
    ok, detail = verify.check_model_gradient()
    assert ok, detail
    assert len(calls) <= 2
    assert len(cuts) == 6


def test_entries_are_dealt_round_robin(three_shares):
    # each difference reads back the process that took it: up gives +pid, down -pid
    def f(p):
        up = bool(np.any(p[p.moved].reshape(-1) > three_shares[p.moved].reshape(-1)))
        return float(os.getpid()) if up else -float(os.getpid())

    grads = finite_difference(f, three_shares)
    pids = np.rint(np.concatenate([g.reshape(-1) for g in grads.values()]) * STEP).astype(int)
    # each share in a process of its own, none of them this one
    assert len(set(pids[:3])) == 3 and os.getpid() not in pids
    assert [int(pid) for pid in pids] == [int(pids[i % 3]) for i in range(len(pids))]


def test_nan_error_is_the_worst():
    one = np.ones((1, 2))
    nan = np.array([[1.0, np.nan]])
    inf = np.array([[np.inf, 1.0]])
    analytic = {"a": one, "b": nan, "c": one * 2, "d": nan}
    assert gradcheck.max_relative_error(analytic, dict.fromkeys(analytic, one))[1] == "b"
    with np.errstate(all="raise"):
        err, name = gradcheck.max_relative_error({"a": one, "b": inf}, {"a": one, "b": one})
    assert np.isnan(err) and name == "b"


@pytest.mark.parametrize(
    "preset, fusion",
    [(p, {}) for p in AblationSpec.preset_names()] + [("E", {"heads": 2, "residual": True})],
    ids=AblationSpec.preset_names() + ["E residual two heads"],
)
def test_every_model_array_has_one_resume_point(preset, fusion):
    # the model check resumes a move from the one node whose reads name the moved array
    spec = verify._tiny_spec(AblationSpec.preset(preset))
    spec = replace(spec, fusion=replace(spec.fusion, **fusion))
    t = bind_model(init_model_arrays(spec, seed=0))
    nodes = window_nodes([np.ones((spec.d_in, 3))], [[np.ones(n) for n in spec.gene_lengths]], t, spec)
    reads = [name for node in nodes.values() for name in node.reads]
    assert sorted(reads) == sorted(name for name, _, _ in mgct_core.model_layout(spec))
    # a layer without attention, pooling and feed-forward owns no arrays, and preset A has no stage two
    owners = {key for key, node in nodes.items() if node.reads}
    layers = {key for key in nodes if key.startswith(("s1.", "s2."))}
    assert owners == {"genomic", "patch", "head"} | (set() if preset in "AB" else layers)
    assert any(key.startswith("s2.") for key in nodes) == spec.ablation.deep_fusion == (preset != "A")


def test_a_table_that_misses_or_doubles_an_array_fails_at_build(monkeypatch):
    spec = verify._tiny_spec()
    t = bind_model(init_model_arrays(spec, seed=0))
    window = [np.ones((spec.d_in, 3))], [[np.ones(n) for n in spec.gene_lengths]]
    with pytest.raises(ValueError, match=r"^node reads do not partition the model arrays: bogus\.w is read by 0 nodes$"):
        window_nodes(*window, t | {"bogus.w": nk.Tensor(np.ones((1, 1)))}, spec)
    real = mgct_core.fusion_nodes
    doubled = mgct_core.Node(("s1.gh.0.attn.wq",), (), lambda: None)
    monkeypatch.setattr(mgct_core, "fusion_nodes", lambda *a, **kw: real(*a, **kw) | {"extra": doubled})
    with pytest.raises(ValueError, match=r": s1\.gh\.0\.attn\.wq is read by 2 nodes$"):
        window_nodes(*window, t, spec)


@pytest.fixture(scope="module")
def unstaged_model_checks():
    """Per preset: the model check's arguments, and its gradients from a sweep of whole forwards."""
    checks = {}
    for preset in AblationSpec.preset_names():
        calls = []
        with pytest.MonkeyPatch.context() as mp:  # the check's arguments, without its sweep
            mp.setattr(verify, "_tiny_spec", lambda real=verify._tiny_spec: real(AblationSpec.preset(preset)))
            mp.setattr(verify, "model_gradient_error", lambda *a, **kw: calls.append((a, kw)) or (0.0, ""))
            verify.check_model_gradient()
        ((spec, arrays, sample, label), kw), = calls
        bound = []

        def whole_forward(work):
            if not bound:
                bound.append(bind_model(work))
            return window_losses([sample], bound[0], spec, [label], **kw).item()

        checks[preset] = calls[0], finite_difference(whole_forward, arrays)
    return checks


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_model_check_is_bitwise_the_unstaged_sweep(monkeypatch, unstaged_model_checks, shares):
    # presets A-D take the routes without stage two, attention, gated pooling or feed-forward
    monkeypatch.setattr(gradcheck, "MIN_SHARE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)), raising=False)
    sweeps = []
    sweep = verify.finite_difference
    monkeypatch.setattr(verify, "finite_difference", lambda f, p: sweeps.append(sweep(f, p)) or sweeps[-1])
    for preset, ((args, kw), unstaged) in unstaged_model_checks.items():
        assert sum(g.size for g in unstaged.values()) % 3  # the three shares are unequal
        sweeps.clear()
        err, name = verify.model_gradient_error(*args, **kw)
        assert err < verify.GRAD_TOL, (preset, name)
        (resumed,) = sweeps
        assert list(resumed) == list(unstaged)
        for name, grad in unstaged.items():
            assert resumed[name].tobytes() == grad.tobytes(), (preset, name)
    assert multiprocessing.active_children() == []
