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
from functools import partial

import numpy as np

from . import numkit as nk
from .embedders import (
    SNN_HIDDEN_DEFAULT,
    bind_snn,
    embed_genomics,
    embed_patches,
    init_arrays,
    patch_proj_layout,
    snn_layout,
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
# holds the samples' columns side by side, cut into one segment per sample
# by an ``nk.Segments`` that the window builds once per token set (see the
# segmented primitives of ``numkit``). Tokens of one sample only ever meet
# tokens of the same sample.


def mgca(
    query_tokens: nk.Tensor,
    context_tokens: nk.Tensor,
    w_q: nk.Tensor,
    w_k: nk.Tensor,
    w_v: nk.Tensor,
    query_segments: nk.Segments,
    context_segments: nk.Segments,
    heads: int = 1,
    attn_sink: list | None = None,
) -> nk.Tensor:
    """Cross-modality attention: (d, M) queries against (d, N) context, with (d, d) projections.

    Scaled dot-product attention per head, each sample's queries against its
    own context, the samples cut by ``query_segments`` and
    ``context_segments``; the output keeps the query token count. ``attn_sink``
    collects the (m_b, n_b) weights of each head and, within a head, of each
    sample.
    """
    return nk.segment_attention(
        nk.matmul(w_q, query_tokens),
        nk.matmul(w_k, context_tokens),
        nk.matmul(w_v, context_tokens),
        query_segments,
        context_segments,
        heads=heads,
        sink=attn_sink,
    )


def _pool(tokens: nk.Tensor, scores: nk.Tensor, segments: nk.Segments) -> tuple[nk.Tensor, nk.Tensor]:
    alpha = nk.segment_softmax(scores, segments)  # (1, N), a simplex per sample
    return nk.segment_sum(tokens, segments, alpha), alpha


def gated_attention_pool(
    tokens: nk.Tensor, v: nk.Tensor, u: nk.Tensor, w: nk.Tensor, segments: nk.Segments
) -> tuple[nk.Tensor, nk.Tensor]:
    """Pool (d, N) tokens to (d, B), one column per sample, with tanh/sigmoid-gated softmax weights.

    ``v`` (tanh branch) and ``u`` (sigmoid branch) are (d_attn, d), the
    scorer ``w`` is (1, d_attn). Returns (pooled, alpha) where alpha is the
    (1, N) weighting, a simplex over each sample's columns.
    """
    gates = nk.mul(nk.tanh(nk.matmul(v, tokens)), nk.sigmoid(nk.matmul(u, tokens)))
    return _pool(tokens, nk.matmul(w, gates), segments)


def mean_pool(tokens: nk.Tensor, segments: nk.Segments) -> tuple[nk.Tensor, nk.Tensor]:
    """Uniform-weight pooling, the ablation stand-in for the gated scorer: all scores zero."""
    return _pool(tokens, nk.Tensor(np.zeros((1, tokens.cols))), segments)


# ---------------------------------------------------------------------------
# fusion layer and pipeline


def mgct_layer(
    query_tokens: nk.Tensor,
    context_tokens: nk.Tensor,
    t: dict[str, nk.Tensor],
    prefix: str,
    stage_final: bool,
    query_segments: nk.Segments,
    context_segments: nk.Segments,
    ablation: AblationSpec = FULL_MODEL,
    heads: int = 1,
    residual: bool = False,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """One fusion layer: attention, stage-final pooling (to one column per sample), feed-forward.

    Reads its weights from ``t`` by name: ``prefix.attn.*``, ``prefix.pool.*``
    and ``prefix.mlp.*``, as ``model_layout`` names them.
    """
    p = prefix + "."
    if ablation.mgca:
        r = mgca(query_tokens, context_tokens, t[p + "attn.wq"], t[p + "attn.wk"], t[p + "attn.wv"],
                 query_segments, context_segments, heads, attn_sink)
        if residual:
            r = nk.add(r, query_tokens)
    else:
        r = query_tokens
    if stage_final:
        if ablation.gap:
            r, alpha = gated_attention_pool(r, t[p + "pool.v"], t[p + "pool.u"], t[p + "pool.w"], query_segments)
        else:
            r, alpha = mean_pool(r, query_segments)
        if alpha_sink is not None:
            alpha_sink.extend(np.split(alpha.data, query_segments.offsets[1:-1], axis=1))
    if ablation.feedforward:
        hidden = nk.relu(nk.affine(t[p + "mlp.w_in"], r, t[p + "mlp.b_in"]))
        out = nk.affine(t[p + "mlp.w_out"], hidden, t[p + "mlp.b_out"])
        if residual:
            out = nk.add(out, r)
        return out
    return r


@dataclass(frozen=True)
class Node:
    """One step of a forward pass, in a table of nodes keyed by name (see ``run_nodes``).

    ``run`` maps the outputs of the nodes named ``inputs`` to this node's
    output, and reads only the arrays whose names start with one of
    ``reads``. With its inputs and those arrays unchanged, its output is
    the same.
    """

    reads: tuple[str, ...]
    inputs: tuple[str, ...]
    run: typing.Callable[..., nk.Tensor]


def run_nodes(nodes: dict[str, Node], outputs: dict | None = None) -> dict[str, nk.Tensor]:
    """Run every node in table order on its inputs' outputs, into ``outputs`` (seeded with any given ones)."""
    outputs = {} if outputs is None else outputs
    for name, node in nodes.items():
        outputs[name] = node.run(*(outputs[i] for i in node.inputs))
    return outputs


def _sample_major(tokens: nk.Tensor, groups: int) -> nk.Tensor:
    """Reorder (d, groups * B) columns from group-major (g * B + b) to sample-major (b * groups + g)."""
    n = tokens.cols // groups
    if n == 1:
        return tokens
    return nk.gather_cols(tokens, [g * n + b for b in range(n) for g in range(groups)])


def _by_sample(blocks: list | None, n: int, sink: list | None) -> None:
    """Append to ``sink`` the blocks the layers recorded n at a time (one per sample), regrouped by sample."""
    if blocks:
        sink.extend(blocks[i] for b in range(n) for i in range(b, len(blocks), n))


def fusion_nodes(
    t: dict[str, nk.Tensor],
    config: FusionConfig,
    ablation: AblationSpec,
    patch_segments: nk.Segments,
    genomic_segments: nk.Segments,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> dict[str, Node]:
    """The fusion layers and joins as a node table, from the "genomic" and "patch" tokens to the "fused" embeddings.

    One node per layer, named by its array prefix (``s1.gh.0``, ...), which
    it hands its ``mgct_layer`` to read its tensors from ``t`` by name and
    declares as its ``reads``; the nodes come in the order the layers run: the
    stage-1 stacks, their "pair" join (the (d, 2B) stage-1 tokens,
    sample-major), the stage-2 stacks and the "fused" join, which gives the
    (2d, B) embeddings. Without deep fusion "fused" joins the stage-1 pair
    feature-wise. ``patch_segments`` and ``genomic_segments`` cut the two
    token sets into the window's B samples; the pair's cut is built here,
    once per table. The layers record their weights B blocks at a time, and
    "fused" regroups them by sample into the sinks.
    """
    n = patch_segments.sizes.size
    attn, alphas = ([] if sink is not None else None for sink in (attn_sink, alpha_sink))
    kw = dict(ablation=ablation, heads=config.heads, residual=config.residual, attn_sink=attn, alpha_sink=alphas)
    nodes: dict[str, Node] = {}

    def stack(name, depth, query, context, query_segments, context_segments) -> str:
        """Add a stack's layers, each taking the one before as its query; returns the last one's name."""
        for i in range(depth):
            prefix = f"{name}.{i}"
            layer = partial(mgct_layer, t=t, prefix=prefix, stage_final=i == depth - 1, **kw,
                            query_segments=query_segments, context_segments=context_segments)
            nodes[prefix] = Node((prefix + ".",), (query, context), layer)
            query = prefix
        return query

    a = stack("s1.gh", config.s1, "genomic", "patch", genomic_segments, patch_segments)  # (d, B)
    b = stack("s1.hg", config.s1, "patch", "genomic", patch_segments, genomic_segments)  # (d, B)
    if ablation.deep_fusion:
        nodes["pair"] = Node((), (a, b), lambda gh, hg: _sample_major(nk.concat([gh, hg], "cols"), 2))
        pair_segments = nk.Segments([2] * n)
        a = stack("s2.fh", config.s2, "pair", "patch", pair_segments, patch_segments)
        b = stack("s2.hf", config.s2, "patch", "pair", patch_segments, pair_segments)

    def fused(left, right):
        _by_sample(attn, n, attn_sink)
        _by_sample(alphas, n, alpha_sink)
        return nk.concat([left, right], "rows")

    nodes["fused"] = Node((), (a, b), fused)
    return nodes


def fuse(
    patch_tokens: nk.Tensor,
    genomic_tokens: nk.Tensor,
    t: dict[str, nk.Tensor],
    config: FusionConfig,
    ablation: AblationSpec = FULL_MODEL,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """Two-stage bidirectional fusion of one sample's (d, N) patch and (d, S)
    genomic tokens into its (2d, 1) multimodal embedding: the
    ``fusion_nodes`` of a one-sample window, reading the fusion tensors from
    ``t`` by name.
    """
    cuts = nk.Segments([patch_tokens.cols]), nk.Segments([genomic_tokens.cols])
    nodes = fusion_nodes(t, config, ablation, *cuts, attn_sink, alpha_sink)
    return run_nodes(nodes, {"genomic": genomic_tokens, "patch": patch_tokens})["fused"]


def classify(r_final: nk.Tensor, w: nk.Tensor, b: nk.Tensor) -> nk.Tensor:
    """Affine map (``w`` is (bins, 2d), ``b`` (bins, 1)) from the fused (2d, B) embeddings to (bins, B) hazard logits."""
    if r_final.rows != w.cols:
        raise nk.ShapeError(f"classifier expects ({w.cols}, B) input, got {r_final.shape}")
    return nk.affine(w, r_final, b)


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


def bind_model(arrays: dict) -> dict[str, nk.Tensor]:
    """The model's arrays as tensors, by their ``model_layout`` names.

    Tape leaves are kept as they are, so a forward pass over the tensors is
    taped exactly when ``arrays`` holds tape leaves; raw arrays are wrapped
    untaped. Tensors are not copied, so binding bound tensors gives them back.
    """
    return {name: a if isinstance(a, nk.Tensor) else nk.Tensor(a) for name, a in arrays.items()}


def window_nodes(
    bags: list,
    genomics: list[list[np.ndarray]],
    t: dict[str, nk.Tensor],
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> dict[str, Node]:
    """``window_logits`` as a node table over the tensors ``t``, in the order its nodes run (``run_nodes``).

    "genomic" reads the ``snn.`` arrays and gives the (d, S * B) genomic
    tokens, sample-major; "patch" reads ``patch.`` and gives the (d, N)
    patch tokens; the ``fusion_nodes`` follow, and "head" reads ``head.``
    and gives the (bins, B) logits. A pass may take the output of a node
    whose inputs and arrays are unchanged from an earlier pass. Sinks, when
    given, are filled by the "fused" join: a pass that records them runs
    every node once, in order.
    """
    raw = genomics[0] if len(bags) == 1 else [np.column_stack(cat) for cat in zip(*genomics)]
    cuts = nk.Segments([bag.shape[1] for bag in bags]), nk.Segments([len(raw)] * len(bags))  # patch, genomic
    snn = bind_snn(t, len(spec.gene_lengths))

    def genomic():
        g = embed_genomics(raw, snn, dropout_p=dropout_p, dropout_key=dropout_key)
        return _sample_major(g, len(raw))

    nodes = {
        "genomic": Node(("snn.",), (), genomic),
        "patch": Node(("patch.",), (), lambda: embed_patches(  # one bag as it is, uncopied
            bags[0] if len(bags) == 1 else np.hstack(bags), t["patch.w"], t["patch.b"])),
    }
    nodes |= fusion_nodes(t, spec.fusion, spec.ablation, *cuts, attn_sink, alpha_sink)
    nodes["head"] = Node(("head.",), ("fused",), lambda fused: classify(fused, t["head.w"], t["head.b"]))
    return nodes


def window_logits(
    bags: list,
    genomics: list[list[np.ndarray]],
    arrays: dict,
    spec: ModelSpec,
    dropout_p: float = 0.0,
    dropout_key: tuple | None = None,
    attn_sink: list | None = None,
    alpha_sink: list | None = None,
) -> nk.Tensor:
    """Full pipeline for a window of B samples: embed both modalities, fuse, classify.

    The window runs as one pass of its ``window_nodes``: the genomic
    networks run once on its stacked category vectors, and one affine map
    projects its bags side by side; each fusion layer and the head then take
    every sample's tokens at once, cut into samples by the ``nk.Segments``
    the node table builds once per token set (see ``fusion_nodes``).
    ``dropout_key`` is (seed, step) for one sample or (seed,
    steps) with one step per sample; dropout is on when ``dropout_p > 0``.
    One sample records no gather. ``arrays`` holds the model's raw arrays or
    tensors by name (see ``bind_model``); the (bins, B) hazard logits are
    taped when they are tape leaves.
    """
    nodes = window_nodes(bags, genomics, bind_model(arrays), spec, dropout_p, dropout_key, attn_sink, alpha_sink)
    return run_nodes(nodes)["head"]


def forward_logits(
    patches: np.ndarray,
    genomic: list[np.ndarray],
    arrays: dict,
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
