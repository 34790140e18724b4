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
Every stage runs on a window of samples at once, each sample's tokens in
their own columns, and yields one (2d, 1) embedding per sample.

Ablation toggles degrade the pipeline toward a concat baseline: without
attention a layer passes its query tokens through unchanged, without gated
pooling the stage end takes a uniform mean, without the feed-forward block
the pooled token is emitted directly, and without deep fusion stage 2 is
dropped and the stage-1 pair is flattened feature-wise. With every toggle
off the model reduces to mean-pooled genomic and histology embeddings
concatenated into the classifier.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import numkit as nk
from .embedders import (
    PatchProjParams,
    SNN_HIDDEN_DEFAULT,
    SnnParams,
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
#
# Every function here runs on a window of B samples at once: each token set
# holds the samples' columns side by side, and a (B + 1,) offsets vector
# marks where each sample's columns start (see the segmented primitives of
# ``numkit``). Offsets left out mean one sample, all columns. Tokens of one
# sample only ever meet tokens of the same sample.


def _one_segment(tokens: nk.Tensor, offsets):
    return (0, tokens.cols) if offsets is None else offsets


def mgca(
    query_tokens: nk.Tensor,
    context_tokens: nk.Tensor,
    params: MgcaParams,
    attn_sink: list | None = None,
    query_offsets=None,
    context_offsets=None,
) -> nk.Tensor:
    """Cross-modality attention: (d, M) queries against (d, N) context.

    Scaled dot-product attention per head, each sample's queries against its
    own context; the output keeps the query token count. ``attn_sink``
    collects the (m_b, n_b) weights of each head and, within a head, of each
    sample.
    """
    if query_tokens.cols < 1 or context_tokens.cols < 1:
        raise ValueError("attention needs non-empty query and context token sets")
    return nk.segment_attention(
        nk.matmul(params.w_q, query_tokens),
        nk.matmul(params.w_k, context_tokens),
        nk.matmul(params.w_v, context_tokens),
        _one_segment(query_tokens, query_offsets),
        _one_segment(context_tokens, context_offsets),
        heads=params.heads,
        sink=attn_sink,
    )


def _pool(tokens: nk.Tensor, scores: nk.Tensor, offsets) -> tuple[nk.Tensor, nk.Tensor]:
    if tokens.cols < 1:
        raise ValueError("cannot pool an empty token set")
    offsets = _one_segment(tokens, offsets)
    alpha = nk.segment_softmax(scores, offsets)  # (1, N), a simplex per sample
    return nk.segment_sum(tokens, offsets, alpha), alpha


def gated_attention_pool(
    tokens: nk.Tensor, params: GatedPoolParams, offsets=None
) -> tuple[nk.Tensor, nk.Tensor]:
    """Pool (d, N) tokens to (d, B), one column per sample, with tanh/sigmoid-gated softmax weights.

    Returns (pooled, alpha) where alpha is the (1, N) weighting, a simplex
    over each sample's columns.
    """
    gates = nk.mul(nk.tanh(nk.matmul(params.v, tokens)), nk.sigmoid(nk.matmul(params.u, tokens)))
    return _pool(tokens, nk.matmul(params.w, gates), offsets)


def mean_pool(tokens: nk.Tensor, offsets=None) -> tuple[nk.Tensor, nk.Tensor]:
    """Uniform-weight pooling, the ablation stand-in for the gated scorer: all scores zero."""
    return _pool(tokens, nk.Tensor(np.zeros((1, tokens.cols))), offsets)


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
    query_offsets=None,
    context_offsets=None,
) -> nk.Tensor:
    """One fusion layer: attention, stage-final pooling (to one column per sample), feed-forward."""
    if ablation.mgca:
        r = mgca(query_tokens, context_tokens, params.mgca, attn_sink, query_offsets, context_offsets)
        if residual:
            r = nk.add(r, query_tokens)
    else:
        r = query_tokens
    if stage_final:
        if ablation.gap:
            r, alpha = gated_attention_pool(r, params.pool, query_offsets)
        else:
            r, alpha = mean_pool(r, query_offsets)
        if alpha_sink is not None:
            offsets = _one_segment(alpha, query_offsets)
            alpha_sink.extend(alpha.data[:, a:b] for a, b in zip(offsets[:-1], offsets[1:]))
    if ablation.feedforward:
        hidden = nk.relu(nk.affine(params.mlp.w_in, r, params.mlp.b_in))
        out = nk.affine(params.mlp.w_out, hidden, params.mlp.b_out)
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
    query_offsets=None,
    context_offsets=None,
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
            query_offsets=query_offsets,
            context_offsets=context_offsets,
        )
    return x


def _sample_major(tokens: nk.Tensor, groups: int) -> nk.Tensor:
    """Reorder (d, groups * B) columns from group-major (g * B + b) to sample-major (b * groups + g)."""
    n = tokens.cols // groups
    if n == 1:
        return tokens
    return nk.gather_cols(tokens, [g * n + b for b in range(n) for g in range(groups)])


def _offsets(patch_tokens: nk.Tensor, tokens: nk.Tensor, patch_offsets):
    """(patch offsets, offsets of ``tokens``): each sample's columns, an equal share of ``tokens`` per sample."""
    patch_offsets = _one_segment(patch_tokens, patch_offsets)
    n = len(patch_offsets) - 1
    if tokens.cols % n:
        raise nk.ShapeError(f"{tokens.cols} genomic tokens do not split over {n} samples")
    return patch_offsets, range(0, tokens.cols + 1, tokens.cols // n)


def fuse_stage_one(
    patch_tokens, genomic_tokens, params: FusionParams, config, ablation, attn_sink, alpha_sink, patch_offsets
) -> nk.Tensor:
    """Stage 1 of ``fuse`` (same arguments): the (d, 2B) pair of stage-1 tokens, sample-major.

    Without deep fusion, which has no stage 2, it gives the final (2d, B)
    embeddings. The sinks receive the weights layer by layer, B blocks at a
    time.
    """
    patch_offsets, genomic_offsets = _offsets(patch_tokens, genomic_tokens, patch_offsets)
    kw = dict(ablation=ablation, residual=config.residual, attn_sink=attn_sink, alpha_sink=alpha_sink)
    gh = _run_stack(genomic_tokens, patch_tokens, params.stage1_gh, **kw,
                    query_offsets=genomic_offsets, context_offsets=patch_offsets)  # (d, B)
    hg = _run_stack(patch_tokens, genomic_tokens, params.stage1_hg, **kw,
                    query_offsets=patch_offsets, context_offsets=genomic_offsets)  # (d, B)
    if not ablation.deep_fusion:
        return nk.concat(gh, hg, "rows")
    return _sample_major(nk.concat(gh, hg, "cols"), 2)


def fuse_stage_two(
    patch_tokens, pair, params: FusionParams, config, ablation, attn_sink, alpha_sink, patch_offsets
) -> nk.Tensor:
    """Stage 2 of ``fuse``: the stage-1 ``pair`` against the patch tokens, out to (2d, B).

    Without deep fusion ``pair`` already is that, and is returned as it is.
    """
    if not ablation.deep_fusion:
        return pair
    patch_offsets, pair_offsets = _offsets(patch_tokens, pair, patch_offsets)
    kw = dict(ablation=ablation, residual=config.residual, attn_sink=attn_sink, alpha_sink=alpha_sink)
    fh = _run_stack(pair, patch_tokens, params.stage2_fh, **kw,
                    query_offsets=pair_offsets, context_offsets=patch_offsets)
    hf = _run_stack(patch_tokens, pair, params.stage2_hf, **kw,
                    query_offsets=patch_offsets, context_offsets=pair_offsets)
    return nk.concat(fh, hf, "rows")


def _by_sample(blocks: list | None, n: int, sink: list | None) -> None:
    """Append to ``sink`` the blocks a stage recorded n at a time (one per sample), regrouped by sample."""
    if blocks:
        sink.extend(blocks[i] for b in range(n) for i in range(b, len(blocks), n))


def fuse(
    patch_tokens: nk.Tensor,
    genomic_tokens: nk.Tensor,
    params: FusionParams,
    config: FusionConfig,
    ablation: AblationSpec = FULL_MODEL,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
    patch_offsets=None,
) -> nk.Tensor:
    """Two-stage bidirectional fusion of a window's patch and genomic tokens
    into its (2d, B) multimodal embeddings, one column per sample.

    Patch tokens are (d, N), sample b's bag at columns ``patch_offsets[b]`` ..
    ``patch_offsets[b + 1] - 1`` (one sample when left out); genomic tokens
    are (d, S * B), sample-major (sample b's S tokens side by side). The
    sinks receive sample 0's weights, then sample 1's, and so on; each
    sample's in the order a one-sample window records them.
    """
    n = len(_one_segment(patch_tokens, patch_offsets)) - 1
    # recorded layer by layer, n blocks at a time, then regrouped by sample
    attn, alphas = ([] if sink is not None else None for sink in (attn_sink, alpha_sink))
    args = (params, config, ablation, attn, alphas, patch_offsets)
    out = fuse_stage_two(patch_tokens, fuse_stage_one(patch_tokens, genomic_tokens, *args), *args)
    _by_sample(attn, n, attn_sink)
    _by_sample(alphas, n, alpha_sink)
    return out


def classify(r_final: nk.Tensor, head: HeadParams) -> nk.Tensor:
    """Affine map from the fused (2d, B) embeddings to (bins, B) hazard logits, one column per sample."""
    if r_final.rows != head.w.cols:
        raise nk.ShapeError(f"classifier expects ({head.w.cols}, B) input, got {r_final.shape}")
    return nk.affine(head.w, r_final, head.b)


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


@lru_cache(maxsize=16)
def _bind_plan(spec: ModelSpec):
    """(stacks, head names): the fusion and head block names ``bind_model`` reads.

    The stacks come in ``FusionParams`` field order, each a tuple of layers'
    (attn, pool, mlp) name groups, None where the spec has none; a group keeps
    ``model_layout`` order, its class's field order. Memoized per frozen spec.
    """
    groups: dict[str, tuple[str, ...]] = {}
    for name, _, _ in model_layout(spec):
        group = name.rpartition(".")[0]
        groups[group] = groups.get(group, ()) + (name,)
    stacks: dict[str, list] = {"s1.gh": [], "s1.hg": [], "s2.fh": [], "s2.hf": []}
    for prefix, _ in _layer_names(spec.fusion, spec.ablation):
        layer = tuple(groups.get(f"{prefix}.{part}") for part in ("attn", "pool", "mlp"))
        stacks[prefix.rpartition(".")[0]].append(layer)
    return tuple(map(tuple, stacks.values())), groups["head"]


def bind_model(arrays: dict[str, np.ndarray], spec: ModelSpec) -> MgctParams:
    """Wrap flat arrays into the typed parameter tree.

    Tape leaves are kept as they are, so a forward pass over the tree is
    taped exactly when ``arrays`` holds tape leaves; raw arrays stay untaped.
    """
    stacks, head = _bind_plan(spec)
    heads = spec.fusion.heads

    def layers(stack) -> list[MgctLayerParams]:
        return [
            MgctLayerParams(
                mgca=attn and MgcaParams(*_leaves(arrays, attn), heads=heads),
                pool=pool and GatedPoolParams(*_leaves(arrays, pool)),
                mlp=mlp and MlpParams(*_leaves(arrays, mlp)),
            )
            for attn, pool, mlp in stack
        ]

    return MgctParams(
        snn=bind_snn(arrays, len(spec.gene_lengths)),
        patch=bind_patch_proj(arrays),
        fusion=FusionParams(*map(layers, stacks)),
        head=HeadParams(*_leaves(arrays, head)),
    )


def window_stages(
    bags: list,
    genomics: list[list[np.ndarray]],
    params: MgctParams,
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> tuple:
    """``window_logits`` as its four stages, each a function of the output of the one before.

    In order: embed (argument unused) gives the (patch tokens, genomic
    tokens); stage one gives the (patch tokens, stage-1 pair); stage two the
    (2d, B) embeddings; the head the (bins, B) logits. Stage k reads only the
    arrays of ``STAGE_PREFIXES[k]``, so with those unchanged it gives the
    same output for the same input, and a pass may resume at a later stage
    from an earlier pass's output. Sinks, when given, are filled at stage
    two: a pass that records them runs each stage once, in order.
    """
    n = len(bags)
    raw = genomics[0] if n == 1 else [np.column_stack(cat) for cat in zip(*genomics)]
    offsets = list(accumulate((bag.shape[1] for bag in bags), initial=0))
    attn, alphas = ([] if sink is not None else None for sink in (attn_sink, alpha_sink))
    args = (params.fusion, spec.fusion, spec.ablation, attn, alphas, offsets)

    def embed(_=None):
        g = embed_genomics(raw, params.snn, dropout_p=dropout_p, dropout_key=dropout_key)
        return embed_patches(np.hstack(bags), params.patch), _sample_major(g, len(raw))

    def stage_one(tokens):
        h, g = tokens
        return h, fuse_stage_one(h, g, *args)

    def stage_two(tokens):
        out = fuse_stage_two(*tokens, *args)
        _by_sample(attn, n, attn_sink)
        _by_sample(alphas, n, alpha_sink)
        return out

    return embed, stage_one, stage_two, lambda fused: classify(fused, params.head)


# the array-name prefixes of the parameters each ``window_stages`` stage reads
STAGE_PREFIXES = (("snn.", "patch."), ("s1.",), ("s2.",), ("head.",))


def window_logits(
    bags: list,
    genomics: list[list[np.ndarray]],
    arrays: dict[str, np.ndarray] | MgctParams,
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """Full pipeline for a window of B samples: embed both modalities, fuse, classify.

    The window runs as one pass: the genomic networks run once on its stacked
    category vectors, and one affine map projects its bags side by side;
    fusion (stage one, then stage two) and the head then take every sample's
    tokens at once, cut into samples by offsets (see ``fuse`` and
    ``window_stages``). ``dropout_key`` is (seed, step) for one sample or
    (seed, steps) with one step per sample; dropout is on when
    ``dropout_p > 0``. One sample records no gather. Returns the (bins, B)
    hazard logits, taped when ``arrays`` holds tape leaves (see
    ``bind_model``). A tree ``bind_model`` made for ``spec`` is used as it
    is, so many passes over the same tensors bind them only once.
    """
    params = arrays if isinstance(arrays, MgctParams) else bind_model(arrays, spec)
    x = None
    for stage in window_stages(bags, genomics, params, spec, dropout_p, dropout_key, attn_sink, alpha_sink):
        x = stage(x)
    return x


def forward_logits(
    patches: np.ndarray,
    genomic: list[np.ndarray],
    arrays: dict[str, np.ndarray] | MgctParams,
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple[int, int] | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """``window_logits`` for one sample: its (bins, 1) hazard logits."""
    return window_logits(
        [patches], [genomic], arrays, spec, dropout_p, dropout_key, attn_sink, alpha_sink
    )
