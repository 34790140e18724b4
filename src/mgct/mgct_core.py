"""Mutual-guided cross-modality fusion of histology and genomic tokens.

One fusion layer runs cross-attention (queries from one modality, keys and
values from the other), optionally pools its tokens down to a single bag
embedding with a gated tanh/sigmoid scorer, and passes the result through a
two-linear-layer feed-forward block back to width d. Two directional stacks
per stage, two stages:

    stage 1: (query=G, context=H) and (query=H, context=G), pooled, then
             joined token-wise into a width-d pair R_F1;
    stage 2: (query=R_F1, context=H) and (query=H, context=R_F1), pooled,
             joined feature-wise into the final (2d, 1) embedding.

Within a stack, layer s > 1 consumes layer s-1's output as its query with
the same context; only the last layer of a stack pools, so intermediate
layers preserve their token count. No positional information exists
anywhere, which makes the pipeline permutation-invariant over patches.

Ablation toggles degrade the pipeline toward a concat baseline: without
attention a layer passes its query tokens through unchanged, without gated
pooling the stage end takes a uniform mean, without the feed-forward block
the pooled token is emitted directly, and without deep fusion stage 2 is
dropped and the stage-1 pair is flattened feature-wise. With every toggle
off the model reduces to mean-pooled genomic and histology embeddings
concatenated into the classifier.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import numkit as nk
from .embedders import (
    PatchProjParams,
    SNN_HIDDEN_DEFAULT,
    SnnParams,
    affine,
    bind_patch_proj,
    bind_snn,
    embed_genomics,
    embed_patches,
    init_arrays,
    patch_proj_layout,
    snn_layout,
    _leaves,
)


class ConfigError(ValueError):
    """A config value, from a config file or a checkpoint meta, is unknown, mistyped or out of range."""


def ranged(default, interval: str):
    """A config field whose value must lie in ``interval``, written like ``"[0, 1)"``.

    Bounds may be ``inf``; for a tuple field the interval bounds every element.
    ``default`` is ``MISSING`` for a required field.
    """
    return field(default=default, metadata={"range": interval})


def _in_range(value, interval: str) -> bool:
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    return all(
        (lo < v or (interval[0] == "[" and v == lo)) and (v < hi or (interval[-1] == "]" and v == hi))
        for v in (value if isinstance(value, tuple) else (value,))
    )


class Config:
    """Checks shared by the config dataclasses.

    Each field's range is stated once, on the field (``ranged``); ``rules``
    adds the checks that span fields, run once every field is in range.
    Nested configs are checked too.
    """

    def rules(self) -> list[str]:
        return []

    def problems(self) -> list[str]:
        """``"field: reason"`` for every field out of range and every broken rule."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Config):
                out += [f"{f.name}.{p}" for p in value.problems()]
            elif "range" in f.metadata and not _in_range(value, f.metadata["range"]):
                out.append(f"{f.name}: value {value!r} out of range {f.metadata['range']}")
        return out or self.rules()

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigError("; ".join(problems))


def from_json(cls, doc, where: str, skip: tuple[str, ...] = ()):
    """Build the config dataclass ``cls`` from the JSON object ``doc``.

    Keys that are not fields of ``cls``, or are named in ``skip`` (those keep
    their defaults), are rejected. Each value must have its field's type (an
    int passes for a float, a list for a tuple); absent fields take their
    defaults; the result must pass ``problems()``. Every problem is reported,
    named ``where.key``, in one ``ConfigError``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    types = typing.get_type_hints(cls)
    settable = {f.name: f for f in fields(cls) if f.name not in skip}
    problems: list[str] = []
    values = {}
    for key, value in doc.items():
        if key not in settable:
            problems.append(f"unknown key {where}.{key}")
            continue
        try:
            values[key] = _from_json_value(types[key], value, f"{where}.{key}")
        except ConfigError as exc:
            problems.append(str(exc))
    problems += [
        f"missing key {where}.{name}"
        for name, f in settable.items()
        if name not in doc and f.default is MISSING and f.default_factory is MISSING
    ]
    if not problems:
        config = cls(**values)
        problems = [f"{where}.{p}" for p in config.problems()]
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def _from_json_value(tp, value, where: str):
    if is_dataclass(tp):
        return from_json(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_from_json_value(typing.get_args(tp)[0], v, where) for v in value)
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{where}: integer too large for a float") from None
    if type(value) is not tp:
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class FusionConfig(Config):
    s1: int = ranged(1, "[1, inf)")  # fusion layers per direction, stage 1
    s2: int = ranged(2, "[1, inf)")  # fusion layers per direction, stage 2
    d: int = ranged(64, "[1, inf)")  # token width
    heads: int = ranged(1, "[1, inf)")
    d_attn: int = ranged(64, "[1, inf)")  # gated-pooling scorer width
    d_ff: int = ranged(128, "[1, inf)")  # feed-forward hidden width
    bins: int = ranged(4, "[2, inf)")  # discrete hazard bins
    residual: bool = False  # optional skip connections (off: plain stack)

    def rules(self) -> list[str]:
        if self.d % self.heads:
            return [f"heads: token width d={self.d} does not divide into {self.heads} heads"]
        return []


@dataclass(frozen=True)
class AblationSpec(Config):
    deep_fusion: bool = True
    mgca: bool = True
    gap: bool = True
    feedforward: bool = True

    # cumulative presets, weakest model first
    _PRESETS = {
        "A": (False, False, False, False),
        "B": (True, False, False, False),
        "C": (True, True, False, False),
        "D": (True, True, True, False),
        "E": (True, True, True, True),
    }

    @classmethod
    def preset(cls, name: str) -> "AblationSpec":
        try:
            flags = cls._PRESETS[name.upper()]
        except KeyError:
            raise ConfigError(f"unknown model preset {name!r}; expected one of A..E") from None
        return cls(*flags)

    @classmethod
    def preset_names(cls) -> list[str]:
        return list(cls._PRESETS)


FULL_MODEL = AblationSpec()


@dataclass
class MgcaParams:
    w_q: nk.Tensor  # (d, d)
    w_k: nk.Tensor  # (d, d)
    w_v: nk.Tensor  # (d, d)
    heads: int = 1


@dataclass
class GatedPoolParams:
    v: nk.Tensor  # (d_attn, d), tanh branch
    u: nk.Tensor  # (d_attn, d), sigmoid branch
    w: nk.Tensor  # (1, d_attn), scorer


@dataclass
class MlpParams:
    w_in: nk.Tensor  # (d_ff, d)
    b_in: nk.Tensor
    w_out: nk.Tensor  # (d, d_ff), projection back to token width
    b_out: nk.Tensor


@dataclass
class MgctLayerParams:
    mgca: MgcaParams | None
    pool: GatedPoolParams | None  # only stage-final layers pool
    mlp: MlpParams | None


@dataclass
class HeadParams:
    w: nk.Tensor  # (bins, 2d)
    b: nk.Tensor  # (bins, 1)


@dataclass
class FusionParams:
    stage1_gh: list[MgctLayerParams]  # query = genomic tokens
    stage1_hg: list[MgctLayerParams]  # query = patch tokens
    stage2_fh: list[MgctLayerParams]  # query = stage-1 pair
    stage2_hf: list[MgctLayerParams]  # query = patch tokens


@dataclass
class MgctParams:
    snn: SnnParams
    patch: PatchProjParams
    fusion: FusionParams
    head: HeadParams


@dataclass(frozen=True)
class ModelSpec(Config):
    """Everything needed to lay out (and re-create) the trainable arrays."""

    d_in: int = ranged(MISSING, "[1, inf)")
    gene_lengths: tuple[int, ...] = ranged(MISSING, "[1, inf)")
    snn_hidden: int = ranged(SNN_HIDDEN_DEFAULT, "[1, inf)")
    fusion: FusionConfig = field(default_factory=FusionConfig)
    ablation: AblationSpec = field(default_factory=AblationSpec)

    def to_dict(self) -> dict:
        return asdict(self) | {"gene_lengths": list(self.gene_lengths)}

    @classmethod
    def from_dict(cls, doc) -> "ModelSpec":
        """Decode ``to_dict`` output, such as a checkpoint's ``model`` meta; raises ``ConfigError``."""
        return from_json(cls, doc, "model")


# ---------------------------------------------------------------------------
# attention and pooling


def mgca(
    query_tokens: nk.Tensor,
    context_tokens: nk.Tensor,
    params: MgcaParams,
    attn_sink: list | None = None,
) -> nk.Tensor:
    """Cross-modality attention: (d, m) queries against (d, n) context.

    Scaled dot-product attention per head; the output keeps the query token
    count. ``attn_sink`` collects each head's (m, n) weight rows.
    """
    if query_tokens.cols < 1 or context_tokens.cols < 1:
        raise ValueError("attention needs non-empty query and context token sets")
    q = nk.matmul(params.w_q, query_tokens)
    k = nk.matmul(params.w_k, context_tokens)
    v = nk.matmul(params.w_v, context_tokens)
    d = q.rows
    h = params.heads
    if d % h != 0:
        raise nk.ShapeError(f"width {d} not divisible by {h} heads")
    d_k = d // h
    if h == 1:
        qs, ks, vs = [q], [k], [v]
    else:
        sizes = [d_k] * h
        qs = nk.split(q, sizes, "rows")
        ks = nk.split(k, sizes, "rows")
        vs = nk.split(v, sizes, "rows")
    out = None
    inv = 1.0 / math.sqrt(d_k)
    for qi, ki, vi in zip(qs, ks, vs):
        weights = nk.softmax_rows(nk.scale(nk.matmul(nk.transpose(qi), ki), inv))  # (m, n)
        if attn_sink is not None:
            attn_sink.append(weights.data)
        head = nk.matmul(vi, nk.transpose(weights))  # (d_k, m)
        out = head if out is None else nk.concat(out, head, "rows")
    return out


def gated_attention_pool(
    tokens: nk.Tensor, params: GatedPoolParams
) -> tuple[nk.Tensor, nk.Tensor]:
    """Pool (d, n) tokens to (d, 1) with tanh/sigmoid-gated softmax weights.

    Returns (pooled, alpha) where alpha is the (1, n) simplex weighting.
    """
    if tokens.cols < 1:
        raise ValueError("cannot pool an empty token set")
    gates = nk.mul(nk.tanh(nk.matmul(params.v, tokens)), nk.sigmoid(nk.matmul(params.u, tokens)))
    alpha = nk.softmax_rows(nk.matmul(params.w, gates))  # (1, n)
    pooled = nk.matmul(tokens, nk.transpose(alpha))  # (d, 1)
    return pooled, alpha


def mean_pool(tokens: nk.Tensor) -> tuple[nk.Tensor, nk.Tensor]:
    """Uniform-weight pooling; the ablation stand-in for the gated scorer."""
    n = tokens.cols
    alpha = nk.Tensor(np.full((1, n), 1.0 / n))
    return nk.matmul(tokens, nk.transpose(alpha)), alpha


# ---------------------------------------------------------------------------
# fusion layer and pipeline


def mgct_layer(
    query_tokens: nk.Tensor,
    context_tokens: nk.Tensor,
    params: MgctLayerParams,
    stage_final: bool,
    ablation: AblationSpec = FULL_MODEL,
    residual: bool = False,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """One fusion layer: attention, stage-final pooling, feed-forward."""
    if ablation.mgca:
        r = mgca(query_tokens, context_tokens, params.mgca, attn_sink=attn_sink)
        if residual:
            r = nk.add(r, query_tokens)
    else:
        r = query_tokens
    if stage_final:
        if ablation.gap:
            r, alpha = gated_attention_pool(r, params.pool)
        else:
            r, alpha = mean_pool(r)
        if alpha_sink is not None:
            alpha_sink.append(alpha.data)
    if ablation.feedforward:
        hidden = nk.relu(affine(params.mlp.w_in, r, params.mlp.b_in))
        out = affine(params.mlp.w_out, hidden, params.mlp.b_out)
        if residual:
            out = nk.add(out, r)
        return out
    return r


def _run_stack(
    query: nk.Tensor,
    context: nk.Tensor,
    layers: list[MgctLayerParams],
    ablation: AblationSpec,
    residual: bool,
    attn_sink: list | None,
    alpha_sink: list | None,
) -> nk.Tensor:
    x = query
    last = len(layers) - 1
    for i, lp in enumerate(layers):
        x = mgct_layer(
            x,
            context,
            lp,
            stage_final=(i == last),
            ablation=ablation,
            residual=residual,
            attn_sink=attn_sink,
            alpha_sink=alpha_sink,
        )
    return x


def fuse(
    patch_tokens: nk.Tensor,
    genomic_tokens: nk.Tensor,
    params: FusionParams,
    config: FusionConfig,
    ablation: AblationSpec = FULL_MODEL,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """Two-stage bidirectional fusion of (d, N) patch and (d, S) genomic tokens
    into the final (2d, 1) multimodal embedding."""
    kw = dict(
        ablation=ablation, residual=config.residual, attn_sink=attn_sink, alpha_sink=alpha_sink
    )
    gh = _run_stack(genomic_tokens, patch_tokens, params.stage1_gh, **kw)  # (d, 1)
    hg = _run_stack(patch_tokens, genomic_tokens, params.stage1_hg, **kw)  # (d, 1)
    if not ablation.deep_fusion:
        return nk.concat(gh, hg, "rows")
    pair = nk.concat(gh, hg, "cols")  # (d, 2): the stage-1 token pair
    fh = _run_stack(pair, patch_tokens, params.stage2_fh, **kw)
    hf = _run_stack(patch_tokens, pair, params.stage2_hf, **kw)
    return nk.concat(fh, hf, "rows")


def classify(r_final: nk.Tensor, head: HeadParams) -> nk.Tensor:
    """Affine map from the fused (2d, 1) embedding to per-bin hazard logits."""
    if r_final.rows != head.w.cols or r_final.cols != 1:
        raise nk.ShapeError(
            f"classifier expects ({head.w.cols}, 1) input, got {r_final.shape}"
        )
    return affine(head.w, r_final, head.b)


# ---------------------------------------------------------------------------
# parameter layout


def _layer_names(config: FusionConfig, ablation: AblationSpec):
    """Yield (prefix, stage_final) for every fusion layer the model owns."""
    stacks = [("s1.gh", config.s1), ("s1.hg", config.s1)]
    if ablation.deep_fusion:
        stacks += [("s2.fh", config.s2), ("s2.hf", config.s2)]
    for stack, depth in stacks:
        for i in range(depth):
            yield f"{stack}.{i}", i == depth - 1


def model_layout(spec: ModelSpec, head_init: str = "zeros"):
    """Yield (name, shape, drawn) for every trainable array, in draw and checkpoint order.

    Drawn arrays are Xavier-uniform, the others zero; ``head.w`` is drawn
    only for ``head_init="xavier"``.
    """
    d, cfg = spec.fusion.d, spec.fusion
    yield from snn_layout(list(spec.gene_lengths), d, spec.snn_hidden)
    yield from patch_proj_layout(spec.d_in, d)
    for prefix, stage_final in _layer_names(cfg, spec.ablation):
        if spec.ablation.mgca:
            for name in ("wq", "wk", "wv"):
                yield f"{prefix}.attn.{name}", (d, d), True
        if stage_final and spec.ablation.gap:
            yield f"{prefix}.pool.v", (cfg.d_attn, d), True
            yield f"{prefix}.pool.u", (cfg.d_attn, d), True
            yield f"{prefix}.pool.w", (1, cfg.d_attn), True
        if spec.ablation.feedforward:
            yield f"{prefix}.mlp.w_in", (cfg.d_ff, d), True
            yield f"{prefix}.mlp.b_in", (cfg.d_ff, 1), False
            yield f"{prefix}.mlp.w_out", (d, cfg.d_ff), True
            yield f"{prefix}.mlp.b_out", (d, 1), False
    yield "head.w", (cfg.bins, 2 * d), head_init == "xavier"
    yield "head.b", (cfg.bins, 1), False


def init_model_arrays(spec: ModelSpec, seed, head_init: str = "zeros") -> dict[str, np.ndarray]:
    """Freshly initialized trainable arrays: Xavier-uniform weights, zero biases.

    The classifier head starts at zero by default so the initial risk score
    carries no random-readout noise; at the training budget used here (batch
    1, 32-step accumulation, small learning rate) a randomly initialized head
    drowns the learned signal and the ranking never recovers. Pass
    ``head_init="xavier"`` to exercise every gradient path from a generic
    position (e.g. for gradient checking).
    """
    spec.fusion.validate()
    if head_init not in ("zeros", "xavier"):
        raise ValueError(f"unknown head_init {head_init!r}")
    return init_arrays(model_layout(spec, head_init), np.random.default_rng(seed))


def _bind_layer(
    arrays: dict[str, np.ndarray], prefix: str, stage_final: bool, spec: ModelSpec
) -> MgctLayerParams:
    layer = MgctLayerParams(mgca=None, pool=None, mlp=None)
    if spec.ablation.mgca:
        layer.mgca = MgcaParams(*_leaves(arrays, f"{prefix}.attn", "wq", "wk", "wv"), heads=spec.fusion.heads)
    if stage_final and spec.ablation.gap:
        layer.pool = GatedPoolParams(*_leaves(arrays, f"{prefix}.pool", "v", "u", "w"))
    if spec.ablation.feedforward:
        layer.mlp = MlpParams(*_leaves(arrays, f"{prefix}.mlp", "w_in", "b_in", "w_out", "b_out"))
    return layer


def bind_model(arrays: dict[str, np.ndarray], spec: ModelSpec) -> MgctParams:
    """Wrap flat arrays into the typed parameter tree.

    Tape leaves are kept as they are, so a forward pass over the tree is
    taped exactly when ``arrays`` holds tape leaves; raw arrays stay untaped.
    """
    layers = {
        prefix: _bind_layer(arrays, prefix, stage_final, spec)
        for prefix, stage_final in _layer_names(spec.fusion, spec.ablation)
    }

    def stack(name: str, depth: int) -> list[MgctLayerParams]:
        return [layers[f"{name}.{i}"] for i in range(depth)]

    fusion = FusionParams(
        stage1_gh=stack("s1.gh", spec.fusion.s1),
        stage1_hg=stack("s1.hg", spec.fusion.s1),
        stage2_fh=stack("s2.fh", spec.fusion.s2) if spec.ablation.deep_fusion else [],
        stage2_hf=stack("s2.hf", spec.fusion.s2) if spec.ablation.deep_fusion else [],
    )
    return MgctParams(
        snn=bind_snn(arrays, len(spec.gene_lengths)),
        patch=bind_patch_proj(arrays),
        fusion=fusion,
        head=HeadParams(*_leaves(arrays, "head", "w", "b")),
    )


def window_logits(
    bags: list,
    genomics: list[list[np.ndarray]],
    arrays: dict[str, np.ndarray],
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> list[nk.Tensor]:
    """Full pipeline for a window of B samples: embed both modalities, fuse, classify.

    The genomic networks run once on the window's stacked category vectors;
    each sample then takes its own genomic columns (``gather_cols``) and,
    since bags differ in size, its own patch projection, fusion and head.
    ``dropout_key`` is (seed, step) for one sample or (seed, steps) with one
    step per sample; dropout is on when ``dropout_p > 0``. One sample records
    no gather. Returns the B hazard-logit tensors, each (bins, 1), taped when
    ``arrays`` holds tape leaves (see ``bind_model``).
    """
    params = bind_model(arrays, spec)
    n = len(bags)
    raw = genomics[0] if n == 1 else [np.column_stack(cat) for cat in zip(*genomics)]
    g = embed_genomics(raw, params.snn, dropout_p=dropout_p, dropout_key=dropout_key)
    logits = []
    for b, bag in enumerate(bags):
        fused = fuse(
            embed_patches(bag, params.patch),
            g if n == 1 else nk.gather_cols(g, range(b, g.cols, n)),
            params.fusion,
            spec.fusion,
            ablation=spec.ablation,
            attn_sink=attn_sink,
            alpha_sink=alpha_sink,
        )
        logits.append(classify(fused, params.head))
    return logits


def forward_logits(
    patches: np.ndarray,
    genomic: list[np.ndarray],
    arrays: dict[str, np.ndarray],
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple[int, int] | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """``window_logits`` for one sample: its (bins, 1) hazard logits."""
    return window_logits(
        [patches], [genomic], arrays, spec, dropout_p, dropout_key, attn_sink, alpha_sink
    )[0]
