"""Named numerical invariant checks, runnable as a suite.

Each check returns (passed, detail). The suite backs the ``verify`` CLI
command: gradient agreement against central finite differences (matmul, a
ragged segment softmax, the elementwise nonlinearities, the loss and the
whole model), simplex invariants of attention and pooling weights,
permutation invariance of the fusion pipeline, and the concat/gather_cols
round-trip. Sizes are kept small so the whole suite runs in seconds. The
gradient harnesses (``gradient_error``, and ``model_gradient_error`` for the
whole model), the simplex harness (``simplex_deviation``) and the
permutation harness (``patch_permutation_deviation``) are shared with the
test suite, which runs them at its own sizes and tolerances.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import embedders as emb
from . import numkit as nk
from . import survival
from .dataio import BagSample
from .gradcheck import finite_difference, max_relative_error
from .mgct_core import (
    AblationSpec,
    FusionConfig,
    ModelSpec,
    Node,
    bind_model,
    forward_logits,
    fuse,
    gated_attention_pool,
    init_model_arrays,
    run_nodes,
    window_nodes,
)
from .train import window_losses

GRAD_TOL = 1e-4
SIMPLEX_TOL = 1e-12
PERMUTATION_TOL = 1e-9


def _tape_gradient(build, params) -> dict[str, np.ndarray]:
    """Gradient of ``build(tensors)`` at ``params``, registered as tape leaves."""
    tape = nk.Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    grads = nk.backward(build(leaves), tape)
    return {k: grads[v] for k, v in leaves.items()}


def gradient_error(build, params) -> tuple[float, str]:
    """Tape gradient of ``build`` against central finite differences at ``params``.

    ``build(tensors) -> 1x1 tensor`` runs once on ``params`` registered as
    tape leaves, whose loss is backpropagated, and then on untaped tensors
    for every finite-difference evaluation. Those tensors wrap the oracle's
    working arrays, which it perturbs in place, so they are bound once per
    sweep. The whole model is checked by ``model_gradient_error``. Returns
    (max relative error, its parameter).
    """
    bound = []

    def loss(work) -> float:
        if not bound:  # ``work`` is the same dict of arrays on every call
            bound.append(bind_model(work))
        return build(bound[0]).item()

    return max_relative_error(_tape_gradient(build, params), finite_difference(loss, params))


def resume_point(name: str, nodes: dict[str, Node]) -> str:
    """The node of ``nodes`` that reads the array ``name``: the first a move of it changes."""
    found = [key for key, node in nodes.items() if name.startswith(node.reads)]
    if len(found) != 1:
        raise ValueError(f"{name} is read by {len(found)} model nodes, not one")
    return found[0]


def model_gradient_error(
    spec: ModelSpec,
    arrays: dict[str, np.ndarray],
    sample: BagSample,
    label: survival.SurvivalLabel,
    dropout: float,
    dropout_key: tuple[int, int],
) -> tuple[float, str]:
    """``gradient_error`` of one sample's training loss (``window_losses``) over the whole model.

    Each finite-difference forward re-runs only the ``window_nodes`` node
    that reads the moved array (``resume_point``) and the nodes downstream
    of it. Every other input is that node's output at the unmoved arrays,
    which the process keeps from its own earlier calls: it is computed only
    while a move does not reach the node, so it reads no moved array. The
    differences are bitwise those of whole forwards. Returns (max relative
    error, its parameter).
    """
    nodes: dict[str, Node] = {}
    kept: dict[str, nk.Tensor] = {}  # node outputs at the unmoved arrays
    plans: dict[str, dict[str, Node]] = {}  # moved array -> the nodes its move changes, in table order

    def loss(work) -> float:
        if not nodes:  # ``work`` is the same dict of arrays on every call
            t = bind_model(work)
            nodes.update(window_nodes([sample.patches], [sample.genomic], t, spec, dropout, dropout_key))
        if work.moved not in plans:
            start = resume_point(work.moved, nodes)
            plan = plans[work.moved] = {}
            for name, node in nodes.items():
                if name == start or any(i in plan for i in node.inputs):
                    plan[name] = node
                elif name not in kept:  # neither it nor its inputs read the moved array
                    kept[name] = node.run(*(kept[i] for i in node.inputs))
        logits = run_nodes(plans[work.moved], dict(kept))["head"]
        return survival.nll_loss(nk.sigmoid(logits), [label]).item()

    analytic = _tape_gradient(
        lambda leaves: window_losses([sample], leaves, spec, [label], dropout=dropout, dropout_key=dropout_key),
        arrays,
    )
    return max_relative_error(analytic, finite_difference(loss, arrays))


def _check_op_gradient(build) -> tuple[bool, str]:
    """``build(tensors) -> scalar tensor`` checked against finite differences at x (3, 4), y (4, 3)."""
    rng = np.random.default_rng(11)
    params = {"x": rng.uniform(-2.0, 2.0, (3, 4)), "y": rng.uniform(-2.0, 2.0, (4, 3))}
    err, name = gradient_error(build, params)
    return err < GRAD_TOL, f"max rel err {err:.3g} ({name})"


def check_matmul_gradient() -> tuple[bool, str]:
    return _check_op_gradient(lambda t: nk.sum_all(nk.matmul(t["x"], t["y"])))


def check_softmax_gradient() -> tuple[bool, str]:
    # ragged segments of 1 and 3 columns: the padded route that training takes
    w, cut = np.linspace(-1.0, 1.0, 12).reshape(3, 4), nk.Segments([1, 3])
    return _check_op_gradient(lambda t: nk.sum_all(nk.mul(nk.segment_softmax(t["x"], cut), nk.Tensor(w))))


def _elementwise_check(kind: str) -> Callable[[], tuple[bool, str]]:
    def check() -> tuple[bool, str]:
        w = np.linspace(0.5, 1.5, 12).reshape(3, 4)
        return _check_op_gradient(
            lambda t: nk.sum_all(nk.mul(nk.elementwise(t["x"], kind), nk.Tensor(w)))
        )

    check.__name__ = f"check_{kind}_gradient"
    return check


check_tanh_gradient = _elementwise_check("tanh")
check_sigmoid_gradient = _elementwise_check("sigmoid")
check_relu_gradient = _elementwise_check("relu")
check_elu_gradient = _elementwise_check("elu")


def check_loss_gradient() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    label = survival.SurvivalLabel(t=10.0, event=1, bin=2)
    err, _ = gradient_error(
        lambda t: survival.nll_loss(nk.sigmoid(t["logits"]), [label]),
        {"logits": rng.uniform(-1.5, 1.5, (4, 1))},
    )
    return err < GRAD_TOL, f"max rel err {err:.3g}"


def _tiny_spec(ablation: AblationSpec = AblationSpec()) -> ModelSpec:
    return ModelSpec(
        d_in=5,
        gene_lengths=(3, 2, 4),
        snn_hidden=6,
        fusion=FusionConfig(s1=1, s2=2, d=8, heads=2, d_attn=6, d_ff=12, bins=4),
        ablation=ablation,
    )


def check_model_gradient() -> tuple[bool, str]:
    spec = _tiny_spec()
    arrays = init_model_arrays(spec, seed=3, head_init="xavier")
    rng = np.random.default_rng(8)
    patches = rng.uniform(-2.0, 2.0, (5, 7))
    genomic = [rng.uniform(-2.0, 2.0, n) for n in spec.gene_lengths]
    sample = BagSample("verify", patches, genomic, t=8.0, event=1)
    label = survival.SurvivalLabel(t=8.0, event=1, bin=1)
    err, name = model_gradient_error(spec, arrays, sample, label, dropout=0.25, dropout_key=(3, 0))
    return err < GRAD_TOL, f"max rel err {err:.3g} ({name})"


def simplex_deviation(blocks) -> tuple[float, int]:
    """(worst |row sum - 1|, blocks holding a negative weight) over weight blocks whose rows are simplices."""
    worst, negatives = 0.0, 0
    for w in blocks:
        worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()))
        negatives += int((w < 0).any())
    return worst, negatives


def check_attention_simplex() -> tuple[bool, str]:
    rng = np.random.default_rng(21)
    spec = _tiny_spec()
    t = bind_model(init_model_arrays(spec, seed=4, head_init="xavier"))
    blocks: list[np.ndarray] = []  # attention rows and pooling weights alike
    for _ in range(50):
        n = int(rng.integers(1, 16))
        patches = rng.uniform(-2.0, 2.0, (5, n))
        genomic = [rng.uniform(-2.0, 2.0, ln) for ln in spec.gene_lengths]
        forward_logits(patches, genomic, t, spec, attn_sink=blocks, alpha_sink=blocks)
    worst, negatives = simplex_deviation(blocks)
    if negatives:
        return False, "negative attention weight"
    return worst < SIMPLEX_TOL, f"max row-sum deviation {worst:.3g}"


def patch_permutation_deviation(
    spec: ModelSpec, array_seed: int, data_seed: int, n_patches: int, n_perms: int
) -> float:
    """Largest |fuse(H permuted) - fuse(H)| over ``n_perms`` random patch orders.

    From ``data_seed`` it draws a (d_in, n_patches) bag, then one vector per
    genomic category, then the permutations; the model is Xavier-initialized
    from ``array_seed``.
    """
    rng = np.random.default_rng(data_seed)
    t = bind_model(init_model_arrays(spec, seed=array_seed, head_init="xavier"))
    patches = rng.uniform(-2.0, 2.0, (spec.d_in, n_patches))
    genomic = [rng.uniform(-2.0, 2.0, n) for n in spec.gene_lengths]
    g = emb.embed_genomics(genomic, emb.bind_snn(t, len(spec.gene_lengths)))

    def fused(bag: np.ndarray) -> np.ndarray:
        h = emb.embed_patches(bag, t["patch.w"], t["patch.b"])
        return fuse(h, g, t, spec.fusion, ablation=spec.ablation).data

    base = fused(patches)
    return max(
        float(np.abs(fused(patches[:, rng.permutation(n_patches)]) - base).max()) for _ in range(n_perms)
    )


def check_patch_permutation_invariance() -> tuple[bool, str]:
    worst = patch_permutation_deviation(_tiny_spec(), array_seed=9, data_seed=13, n_patches=9, n_perms=20)
    return worst < PERMUTATION_TOL, f"max deviation {worst:.3g}"


def check_pooling_simplex() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    blocks = []
    for _ in range(50):
        d, n = int(rng.integers(1, 12)), int(rng.integers(1, 16))
        v, u, w = (nk.Tensor(rng.uniform(-1, 1, shape)) for shape in ((4, d), (4, d), (1, 4)))
        blocks.append(gated_attention_pool(nk.Tensor(rng.uniform(-2, 2, (d, n))), v, u, w, nk.Segments([n]))[1].data)
    worst, negatives = simplex_deviation(blocks)
    if negatives:
        return False, "negative pooling weight"
    return worst < SIMPLEX_TOL, f"max weight-sum deviation {worst:.3g}"


def check_concat_split_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(29)
    a = rng.uniform(-2, 2, (4, 3))
    b = rng.uniform(-2, 2, (4, 5))
    joined = nk.concat([nk.Tensor(a), nk.Tensor(b)], "cols")
    ra, rb = nk.gather_cols(joined, range(3)), nk.gather_cols(joined, range(3, 8))
    ok = np.array_equal(ra.data, a) and np.array_equal(rb.data, b)
    return ok, "bitwise" if ok else "mismatch"


ALL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("matmul_gradient", check_matmul_gradient),
    ("softmax_gradient", check_softmax_gradient),
    ("tanh_gradient", check_tanh_gradient),
    ("sigmoid_gradient", check_sigmoid_gradient),
    ("relu_gradient", check_relu_gradient),
    ("elu_gradient", check_elu_gradient),
    ("loss_gradient", check_loss_gradient),
    ("model_gradient", check_model_gradient),
    ("attention_simplex", check_attention_simplex),
    ("pooling_simplex", check_pooling_simplex),
    ("patch_permutation_invariance", check_patch_permutation_invariance),
    ("concat_split_roundtrip", check_concat_split_roundtrip),
]


def run_checks() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
