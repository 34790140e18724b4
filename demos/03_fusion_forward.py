"""Walk one sample through the fusion pipeline and inspect its internals.

Shows the token shapes at each step, the attention and pooling weights (all
on the simplex), patch-order invariance, and what each ablation preset does
to the architecture.
"""

import numpy as np

from mgct import dataio, embedders as emb
from mgct.mgct_core import (
    AblationSpec,
    FusionConfig,
    ModelSpec,
    bind_model,
    classify,
    forward_logits,
    fuse,
    init_model_arrays,
)
from mgct.train import parameter_count

ds = dataio.synthesize(8, seed=1)
sample = ds.samples[0]

config = FusionConfig(s1=1, s2=2, d=32, heads=2, d_attn=32, d_ff=64, bins=4)
spec = ModelSpec(
    d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=64,
    fusion=config, ablation=AblationSpec.preset("E"),
)
arrays = init_model_arrays(spec, seed=0, head_init="xavier")
t = bind_model(arrays)  # the model's tensors, by their layout names

g = emb.embed_genomics(sample.genomic, emb.bind_snn(t, len(spec.gene_lengths)))
h = emb.embed_patches(sample.patches, t["patch.w"], t["patch.b"])
print(f"genomic tokens G: {g.shape}   patch tokens H: {h.shape}")

attn, alphas = [], []
fused = fuse(h, g, t, config, attn_sink=attn, alpha_sink=alphas)
print(f"fused embedding: {fused.shape} (two width-{config.d} directions stacked)")
print(f"attention maps recorded: {len(attn)} (2 heads x 6 layers)")
print("first attention map shape:", attn[0].shape, "row sums:", attn[0].sum(axis=1)[:3])
print("pooling weights per stage-final layer:", [a.shape[1] for a in alphas])

logits = classify(fused, t["head.w"], t["head.b"])
hazards = 1 / (1 + np.exp(-logits.data.ravel()))
survival = np.cumprod(1 - hazards)
print(f"\nhazards: {np.round(hazards, 3)}")
print(f"survival: {np.round(survival, 3)}  risk score: {-survival.sum():.3f}")

perm = np.random.default_rng(5).permutation(sample.n_patches)
fused_perm = fuse(emb.embed_patches(sample.patches[:, perm], t["patch.w"], t["patch.b"]), g, t, config)
print(f"\npatch order shuffled -> max change {np.abs(fused_perm.data - fused.data).max():.2e}")

print("\nablation presets (cumulative design toggles):")
print(f"{'model':<7}{'deep':<6}{'attn':<6}{'gated':<7}{'ffn':<5}{'params':>8}")
for name in AblationSpec.preset_names():
    ab = AblationSpec.preset(name)
    n = parameter_count(
        init_model_arrays(
            ModelSpec(
                d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=64,
                fusion=config, ablation=ab,
            ),
            seed=0,
        )
    )
    flags = [ab.deep_fusion, ab.mgca, ab.gap, ab.feedforward]
    print(f"{name:<7}" + "".join(f"{str(f):<6}" if i != 2 else f"{str(f):<7}" for i, f in enumerate(flags)) + f"{n:>8}")
    spec_ab = ModelSpec(
        d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=64,
        fusion=config, ablation=ab,
    )
    logits_ab = forward_logits(sample.patches, sample.genomic, init_model_arrays(spec_ab, 0), spec_ab)
    assert logits_ab.shape == (4, 1)
