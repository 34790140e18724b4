"""Fusion architecture tests: attention, pooling, layers, the two-stage
pipeline, the classifier head, ablation wiring, and checkpoints."""

import hashlib
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mgct import numkit as nk
from mgct.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mgct.dataio import BagSample
from mgct.mgct_core import (
    AblationSpec,
    FusionConfig,
    ModelSpec,
    bind_model,
    classify,
    forward_logits,
    fuse,
    gated_attention_pool,
    init_model_arrays,
    mean_pool,
    mgca,
    mgct_layer,
    model_layout,
    window_logits,
)
from mgct.train import TrainConfig, parameter_count, sample_loss_and_grads
from mgct.verify import _tiny_spec, gradient_error


def rng_tensor(rng, rows, cols, lo=-1.5, hi=1.5):
    return nk.Tensor(rng.uniform(lo, hi, (rows, cols)))


def one(tokens):
    """The one-sample cut of a token set: all its columns."""
    return nk.Segments([tokens.cols])


def make_mgca(rng, d):
    """(w_q, w_k, w_v), in ``mgca``'s argument order."""
    return rng_tensor(rng, d, d), rng_tensor(rng, d, d), rng_tensor(rng, d, d)


def make_pool(rng, d, d_attn=4):
    """(v, u, w), in ``gated_attention_pool``'s argument order."""
    return rng_tensor(rng, d_attn, d), rng_tensor(rng, d_attn, d), rng_tensor(rng, 1, d_attn)


def make_layer(rng, d, d_attn=4, d_ff=6):
    """One fusion layer's tensors, by the keys ``mgct_layer`` reads them as."""
    names = ("attn.wq", "attn.wk", "attn.wv", "pool.v", "pool.u", "pool.w")
    return dict(zip(names, make_mgca(rng, d) + make_pool(rng, d, d_attn))) | {
        "mlp.w_in": rng_tensor(rng, d_ff, d),
        "mlp.b_in": nk.Tensor(np.zeros((d_ff, 1))),
        "mlp.w_out": rng_tensor(rng, d, d_ff),
        "mlp.b_out": nk.Tensor(np.zeros((d, 1))),
    }


class TestMgca:
    def test_single_context_token_attends_fully(self):
        rng = np.random.default_rng(0)
        d = 6
        params = make_mgca(rng, d)
        query = rng_tensor(rng, d, 4)
        context = rng_tensor(rng, d, 1)
        sink = []
        out = mgca(query, context, *params, one(query), one(context), attn_sink=sink)
        np.testing.assert_array_equal(sink[0], np.ones((4, 1)))
        expected = (params[2].data @ context.data) @ np.ones((1, 4))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_output_token_count_matches_query(self):
        rng = np.random.default_rng(1)
        params = make_mgca(rng, 8)
        out = mgca(rng_tensor(rng, 8, 6), rng_tensor(rng, 8, 12), *params, nk.Segments([6]), nk.Segments([12]))
        assert out.shape == (8, 6)

    def test_context_permutation_invariance(self):
        rng = np.random.default_rng(2)
        params = make_mgca(rng, 5)
        query = rng_tensor(rng, 5, 3)
        context = rng.uniform(-2, 2, (5, 9))
        cuts = one(query), nk.Segments([9])
        base = mgca(query, nk.Tensor(context), *params, *cuts, heads=1).data
        for _ in range(5):
            perm = rng.permutation(9)
            out = mgca(query, nk.Tensor(context[:, perm]), *params, *cuts, heads=1).data
            np.testing.assert_allclose(out, base, atol=1e-12)

    def test_multi_head_shapes_and_simplex(self):
        rng = np.random.default_rng(3)
        params = make_mgca(rng, 8)
        sink = []
        cuts = nk.Segments([3]), nk.Segments([7])
        out = mgca(rng_tensor(rng, 8, 3), rng_tensor(rng, 8, 7), *params, *cuts, heads=4, attn_sink=sink)
        assert out.shape == (8, 3)
        assert len(sink) == 4
        for weights in sink:
            assert weights.shape == (3, 7)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_head_divisibility_enforced(self):
        rng = np.random.default_rng(4)
        params = make_mgca(rng, 6)
        with pytest.raises(nk.ShapeError, match="divisible"):
            mgca(rng_tensor(rng, 6, 2), rng_tensor(rng, 6, 2), *params, nk.Segments([2]), nk.Segments([2]), heads=4)

    def test_empty_token_set_rejected(self):
        rng = np.random.default_rng(5)
        params = make_mgca(rng, 4)
        empty, context = nk.Tensor(np.zeros((4, 0))), rng_tensor(rng, 4, 2)
        with pytest.raises(ValueError, match="non-empty"):
            mgca(empty, context, *params, one(empty), one(context))


class TestGatedAttentionPool:
    def test_single_token(self):
        rng = np.random.default_rng(6)
        pool = make_pool(rng, 5)
        token = rng_tensor(rng, 5, 1)
        pooled, alpha = gated_attention_pool(token, *pool, one(token))
        np.testing.assert_array_equal(alpha.data, [[1.0]])
        np.testing.assert_allclose(pooled.data, token.data, atol=1e-15)

    def test_identical_tokens_uniform_weights(self):
        rng = np.random.default_rng(7)
        pool = make_pool(rng, 4)
        token = rng.uniform(-1, 1, (4, 1))
        pooled, alpha = gated_attention_pool(nk.Tensor(np.repeat(token, 6, axis=1)), *pool, nk.Segments([6]))
        np.testing.assert_allclose(alpha.data, np.full((1, 6), 1 / 6), atol=1e-12)
        np.testing.assert_allclose(pooled.data, token, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        pool = make_pool(rng, 5)
        tokens = rng.uniform(-2, 2, (5, 8))
        pooled0, alpha0 = gated_attention_pool(nk.Tensor(tokens), *pool, nk.Segments([8]))
        perm = rng.permutation(8)
        pooled, alpha = gated_attention_pool(nk.Tensor(tokens[:, perm]), *pool, nk.Segments([8]))
        np.testing.assert_allclose(alpha.data[0], alpha0.data[0][perm], atol=1e-12)
        np.testing.assert_allclose(pooled.data, pooled0.data, atol=1e-12)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d, n = int(rng.integers(1, 10)), int(rng.integers(1, 12))
            pool = make_pool(rng, d)
            _, alpha = gated_attention_pool(rng_tensor(rng, d, n, -3, 3), *pool, nk.Segments([n]))
            assert alpha.data.min() >= 0
            assert abs(alpha.data.sum() - 1.0) < 1e-12

    def test_mean_pool_uniform(self):
        rng = np.random.default_rng(10)
        tokens = rng.uniform(-1, 1, (4, 5))
        pooled, alpha = mean_pool(nk.Tensor(tokens), nk.Segments([5]))
        np.testing.assert_array_equal(alpha.data, np.full((1, 5), 0.2))
        np.testing.assert_allclose(pooled.data, tokens.mean(axis=1, keepdims=True), atol=1e-15)


class TestMgctLayer:
    def test_stage_final_pools_to_one_token(self):
        rng = np.random.default_rng(11)
        layer = make_layer(rng, 6)
        cuts = nk.Segments([4]), nk.Segments([9])
        out = mgct_layer(rng_tensor(rng, 6, 4), rng_tensor(rng, 6, 9), layer, True, *cuts)
        assert out.shape == (6, 1)

    def test_intermediate_preserves_token_count(self):
        rng = np.random.default_rng(12)
        layer = make_layer(rng, 6)
        cuts = nk.Segments([4]), nk.Segments([9])
        out = mgct_layer(rng_tensor(rng, 6, 4), rng_tensor(rng, 6, 9), layer, False, *cuts)
        assert out.shape == (6, 4)

    def test_single_token_stage_final_weight_is_one(self):
        rng = np.random.default_rng(13)
        layer = make_layer(rng, 5)
        sink = []
        mgct_layer(
            rng_tensor(rng, 5, 1), rng_tensor(rng, 5, 3), layer, True, nk.Segments([1]), nk.Segments([3]),
            alpha_sink=sink,
        )
        np.testing.assert_array_equal(sink[0], [[1.0]])

    def test_gradient_full_layer(self):
        rng = np.random.default_rng(14)
        d, m, n = 4, 2, 3
        names = {
            "attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d),
            "pool.v": (3, d), "pool.u": (3, d), "pool.w": (1, 3),
            "mlp.w_in": (6, d), "mlp.b_in": (6, 1), "mlp.w_out": (d, 6), "mlp.b_out": (d, 1),
        }
        arrays = {k: rng.uniform(-1, 1, shape) for k, shape in names.items()}
        query = rng.uniform(-1, 1, (d, m))
        context = rng.uniform(-1, 1, (d, n))

        def build(t):
            return nk.sum_all(
                mgct_layer(nk.Tensor(query), nk.Tensor(context), t, True, nk.Segments([m]), nk.Segments([n]))
            )

        err, name = gradient_error(build, arrays)
        assert err < 1e-4, f"{name}: {err}"

    def test_runs_exactly_the_blocks_its_arrays_make_up(self):
        rng = np.random.default_rng(15)
        query, context = rng_tensor(rng, 6, 4), rng_tensor(rng, 6, 9)
        cuts = nk.Segments([4]), nk.Segments([9])
        mlp = {k: v for k, v in make_layer(rng, 6).items() if k.startswith("mlp.")}
        # a stage-final layer with no pooling arrays mean-pools, then runs its feed-forward
        mean = query.data.mean(axis=1, keepdims=True)
        hidden = np.maximum(mlp["mlp.w_in"].data @ mean + mlp["mlp.b_in"].data, 0)
        expected = mlp["mlp.w_out"].data @ hidden + mlp["mlp.b_out"].data
        np.testing.assert_allclose(mgct_layer(query, context, mlp, True, *cuts).data, expected, rtol=0, atol=1e-12)
        # a layer with no arrays passes its query tokens through, or their mean at a stage end
        assert mgct_layer(query, context, {}, False, *cuts) is query
        np.testing.assert_allclose(mgct_layer(query, context, {}, True, *cuts).data, mean, rtol=0, atol=1e-15)


def tiny_spec(ablation=AblationSpec(), d=8, bins=4):
    return ModelSpec(
        d_in=5,
        gene_lengths=(3, 2, 4),
        snn_hidden=6,
        fusion=FusionConfig(s1=1, s2=2, d=d, heads=1, d_attn=6, d_ff=12, bins=bins),
        ablation=ablation,
    )


class TestFuse:
    def test_final_embedding_shape(self):
        spec = tiny_spec()
        arrays = init_model_arrays(spec, seed=0, head_init="xavier")
        t = bind_model(arrays)
        rng = np.random.default_rng(15)
        h = rng_tensor(rng, 8, 12)
        g = rng_tensor(rng, 8, 6)
        out = fuse(h, g, t, spec.fusion)
        assert out.shape == (16, 1)

    def test_stage_one_produces_token_pair(self):
        # the stage-1 stacks each pool to one token of width d
        spec = tiny_spec()
        arrays = init_model_arrays(spec, seed=1, head_init="xavier")
        t = bind_model(arrays)
        rng = np.random.default_rng(16)
        from mgct.mgct_core import fusion_nodes, run_nodes

        h = rng_tensor(rng, 8, 10)
        g = rng_tensor(rng, 8, 3)
        nodes = fusion_nodes(t, spec.fusion, spec.ablation, nk.Segments([10]), nk.Segments([3]))
        out = run_nodes(nodes, {"genomic": g, "patch": h})
        assert out["s1.gh.0"].shape == (8, 1) and out["s1.hg.0"].shape == (8, 1)
        assert out["pair"].shape == (8, 2)

    def test_zero_parameters_give_zero_embedding(self):
        spec = tiny_spec()
        arrays = {k: np.zeros_like(v) for k, v in init_model_arrays(spec, 0).items()}
        t = bind_model(arrays)
        rng = np.random.default_rng(17)
        out = fuse(rng_tensor(rng, 8, 7), rng_tensor(rng, 8, 3), t, spec.fusion)
        np.testing.assert_array_equal(out.data, np.zeros((16, 1)))

    def test_patch_permutation_invariance(self):
        spec = tiny_spec()
        arrays = init_model_arrays(spec, seed=2, head_init="xavier")
        t = bind_model(arrays)
        rng = np.random.default_rng(18)
        h = rng.uniform(-2, 2, (8, 11))
        g = rng_tensor(rng, 8, 3)
        base = fuse(nk.Tensor(h), g, t, spec.fusion).data
        for _ in range(10):
            perm = rng.permutation(11)
            out = fuse(nk.Tensor(h[:, perm]), g, t, spec.fusion).data
            assert np.abs(out - base).max() < 1e-9

    def test_model_a_is_meanpool_concat(self):
        # with every toggle off the pipeline must reduce to mean pooling
        # each modality and stacking the two vectors
        spec = tiny_spec(AblationSpec.preset("A"))
        arrays = init_model_arrays(spec, seed=3)
        t = bind_model(arrays)
        rng = np.random.default_rng(19)
        h = rng.uniform(-1, 1, (8, 9))
        g = rng.uniform(-1, 1, (8, 4))
        out = fuse(nk.Tensor(h), nk.Tensor(g), t, spec.fusion, ablation=spec.ablation)
        expected = np.vstack([g.mean(axis=1, keepdims=True), h.mean(axis=1, keepdims=True)])
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    @pytest.mark.parametrize("preset", ["A", "B", "C", "D", "E"])
    def test_every_preset_runs_and_outputs_2d(self, preset):
        spec = tiny_spec(AblationSpec.preset(preset))
        arrays = init_model_arrays(spec, seed=4)
        rng = np.random.default_rng(20)
        patches = rng.uniform(-1, 1, (5, 7))
        genomic = [rng.uniform(-1, 1, n) for n in spec.gene_lengths]
        logits = forward_logits(patches, genomic, arrays, spec)
        assert logits.shape == (4, 1)
        assert np.all(np.isfinite(logits.data))

    def test_parameter_counts_grow_with_presets(self):
        counts = {
            name: parameter_count(init_model_arrays(tiny_spec(AblationSpec.preset(name)), 0))
            for name in ("A", "B", "C", "D", "E")
        }
        assert counts["A"] < counts["E"]
        assert counts["A"] <= counts["B"] <= counts["C"] <= counts["D"] <= counts["E"]

    def test_residual_toggle_changes_output(self):
        cfg = FusionConfig(s1=1, s2=2, d=8, heads=1, d_attn=6, d_ff=12, bins=4, residual=True)
        spec_res = ModelSpec(d_in=5, gene_lengths=(3, 2), snn_hidden=6, fusion=cfg)
        spec_plain = ModelSpec(
            d_in=5, gene_lengths=(3, 2), snn_hidden=6,
            fusion=FusionConfig(s1=1, s2=2, d=8, heads=1, d_attn=6, d_ff=12, bins=4),
        )
        arrays = init_model_arrays(spec_plain, seed=5, head_init="xavier")
        rng = np.random.default_rng(21)
        patches = rng.uniform(-1, 1, (5, 6))
        genomic = [rng.uniform(-1, 1, n) for n in (3, 2)]
        a = forward_logits(patches, genomic, arrays, spec_plain)
        b = forward_logits(patches, genomic, arrays, spec_res)
        assert not np.allclose(a.data, b.data)


class TestClassify:
    def test_zero_weights_give_half_hazards(self):
        head = nk.Tensor(np.zeros((4, 10))), nk.Tensor(np.zeros((4, 1)))
        logits = classify(nk.Tensor(np.random.default_rng(22).normal(size=(10, 1))), *head)
        np.testing.assert_array_equal(logits.data, np.zeros((4, 1)))
        hazards = nk.sigmoid(logits)
        np.testing.assert_array_equal(hazards.data, np.full((4, 1), 0.5))

    def test_bin_count(self):
        spec = tiny_spec(bins=4)
        arrays = init_model_arrays(spec, seed=6)
        rng = np.random.default_rng(23)
        logits = forward_logits(
            rng.uniform(-1, 1, (5, 4)), [rng.uniform(-1, 1, n) for n in spec.gene_lengths],
            arrays, spec,
        )
        assert logits.shape == (4, 1)

    def test_width_mismatch(self):
        head = nk.Tensor(np.zeros((4, 10))), nk.Tensor(np.zeros((4, 1)))
        with pytest.raises(nk.ShapeError, match="classifier"):
            classify(nk.Tensor(np.zeros((8, 1))), *head)

    def test_gradient_through_classify_and_fuse(self):
        spec = tiny_spec()
        arrays = init_model_arrays(spec, seed=7, head_init="xavier")
        rng = np.random.default_rng(24)
        patches = rng.uniform(-1, 1, (5, 6))
        genomic = [rng.uniform(-1, 1, n) for n in spec.gene_lengths]
        err, name = gradient_error(
            lambda t: nk.sum_all(nk.sigmoid(forward_logits(patches, genomic, t, spec))), arrays
        )
        assert err < 1e-4, f"{name}: {err}"

    def test_every_parameter_reaches_loss(self):
        # all-toggles-on model: no dead branches
        from mgct import survival as sv

        spec = tiny_spec()
        arrays = init_model_arrays(spec, seed=8, head_init="xavier")
        rng = np.random.default_rng(25)
        sample = BagSample(
            "s", rng.uniform(-1, 1, (5, 6)), [rng.uniform(-1, 1, n) for n in spec.gene_lengths], 5.0, 1
        )
        _, grads = sample_loss_and_grads(sample, arrays, spec, sv.SurvivalLabel(5.0, 1, bin=1))
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
            if "b_in" not in name and "b_out" not in name and name != "head.b":
                assert np.any(g != 0), f"dead branch at {name}"


def test_model_layout_is_pinned():
    # name, shape and draw flag of every array, in draw order: fresh arrays and checkpoints depend on all three
    reference = ModelSpec(d_in=16, gene_lengths=(8,) * 6, snn_hidden=TrainConfig().snn_hidden, fusion=TrainConfig().fusion)
    h = hashlib.sha256()
    for spec in (_tiny_spec(), reference):
        for preset, fusion in [(p, {}) for p in "ABCDE"] + [("E", {"heads": 2, "residual": True})]:
            case = replace(spec, fusion=replace(spec.fusion, **fusion), ablation=AblationSpec.preset(preset))
            for head_init in ("zeros", "xavier"):
                h.update(repr(list(model_layout(case, head_init))).encode())
    assert h.hexdigest() == "6d0c3dc804de1413a963e1253e6423b5e3fb8feae1ae4e9c2a053a168d97fa1b"


class TestModelSpecRoundtrip:
    def test_dict_roundtrip(self):
        spec = tiny_spec(AblationSpec.preset("C"))
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_preset_names(self):
        assert AblationSpec.preset_names() == ["A", "B", "C", "D", "E"]
        with pytest.raises(ValueError, match="A..E"):
            AblationSpec.preset("Z")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="heads"):
            FusionConfig(d=10, heads=3).validate()
        with pytest.raises(ValueError, match="bins"):
            FusionConfig(bins=1).validate()


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        spec = tiny_spec()
        arrays = init_model_arrays(spec, seed=9, head_init="xavier")
        meta = {"model": spec.to_dict(), "note": 1.5}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, meta)
        back_arrays, back_meta = load_checkpoint(path)
        assert back_meta == meta
        assert list(back_arrays) == list(arrays)
        for name in arrays:
            np.testing.assert_array_equal(back_arrays[name], arrays[name])
        # a second save of the loaded state is byte-identical
        save_checkpoint(tmp_path / "again.ckpt", back_arrays, back_meta)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unreadable_meta(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))}, {"note": "\u00e9" * 8})
        raw = path.read_bytes()
        meta_len = int.from_bytes(raw[8:12], "little")
        for cut in range(12, 12 + meta_len):  # every cut inside the meta
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="meta"):
                load_checkpoint(path)
        save_checkpoint(path, {}, [1, 2])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_meta_nested_too_deeply(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {}, {})
        raw = path.read_bytes()
        deep = b"[" * 100_000
        path.write_bytes(raw[:8] + struct.pack("<I", len(deep)) + deep + raw[-4:])  # the 0-block count
        with pytest.raises(CheckpointError, match="unreadable meta"):
            load_checkpoint(path)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"w": np.ones((4, 4))}, {})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_every_truncated_prefix_raises(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model_arrays(spec, seed=9, head_init="xavier"), {"model": spec.to_dict()})
        for cut in reversed(range(path.stat().st_size)):
            os.truncate(path, cut)
            try:  # any other exception fails the test
                load_checkpoint(path)
            except (CheckpointError, struct.error):
                continue
            pytest.fail(f"a {cut}-byte prefix loaded")

    def test_huge_block_header_is_truncated_not_allocated(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-40] + struct.pack("<II", 2**31, 2**31) + raw[-32:])  # rows, cols of "w"
        with pytest.raises(CheckpointError, match="truncated block 'w'"):
            load_checkpoint(path)

    def test_trailing_byte(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))}, {})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        rng = np.random.default_rng(4)
        arrays = {f"b{i}": rng.standard_normal((rows, 96)) for i, rows in enumerate((512, 1, 64, 256, 3))}
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, arrays, {"note": 1})
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = sum(a.nbytes for a in loaded.values())
        assert total == sum(a.nbytes for a in arrays.values())
        assert peak < 1.2 * total


class TestWindowLayout:
    """A window of B samples is fused in one pass, with no mixing between samples."""

    def window(self, preset="E", heads=2):
        spec = ModelSpec(
            d_in=5, gene_lengths=(3, 2, 4), snn_hidden=6,
            fusion=FusionConfig(s1=1, s2=2, d=8, heads=heads, d_attn=6, d_ff=12, bins=4),
            ablation=AblationSpec.preset(preset),
        )
        rng = np.random.default_rng(26)
        bags = [rng.uniform(-1, 1, (5, n)) for n in (4, 1, 9, 2, 6)]
        genomics = [[rng.uniform(-1, 1, n) for n in spec.gene_lengths] for _ in bags]
        return spec, init_model_arrays(spec, seed=10, head_init="xavier"), bags, genomics

    @pytest.mark.parametrize(
        "preset, cuts", [("E", [[4, 1, 9, 2, 6], [3] * 5, [2] * 5]), ("A", [[4, 1, 9, 2, 6], [3] * 5])]
    )
    def test_each_token_set_is_cut_once(self, monkeypatch, preset, cuts):
        # the patch and genomic tokens, and the stage-1 pair when stage two runs: once per window, not per op
        built = []
        real = nk.Segments.__init__
        monkeypatch.setattr(nk.Segments, "__init__", lambda seg, sizes: built.append(list(sizes)) or real(seg, sizes))
        spec, arrays, bags, genomics = self.window(preset)
        window_logits(bags, genomics, arrays, spec)
        assert built == cuts

    @pytest.mark.parametrize("preset", ["A", "C", "E"])
    def test_sinks_are_the_one_sample_sinks_sample_by_sample(self, preset):
        spec, arrays, bags, genomics = self.window(preset)
        attn, alphas = [], []
        logits = window_logits(bags, genomics, arrays, spec, attn_sink=attn, alpha_sink=alphas)
        one_attn, one_alphas = [], []
        one_logits = [
            forward_logits(bag, genomic, arrays, spec, attn_sink=one_attn, alpha_sink=one_alphas).data
            for bag, genomic in zip(bags, genomics)
        ]
        np.testing.assert_allclose(logits.data, np.hstack(one_logits), rtol=0, atol=1e-12)
        for window_sink, one_sink in ((attn, one_attn), (alphas, one_alphas)):
            assert [w.shape for w in window_sink] == [w.shape for w in one_sink]
            for w, one in zip(window_sink, one_sink):
                np.testing.assert_allclose(w, one, rtol=0, atol=1e-12)
        stacks = 4 if spec.ablation.deep_fusion else 2  # each pools once per sample
        assert len(alphas) == stacks * len(bags)

    def test_samples_do_not_mix(self):
        # changing one sample's bag moves only that sample's logits
        spec, arrays, bags, genomics = self.window()
        base = window_logits(bags, genomics, arrays, spec).data
        bags[2] = bags[2] + 1.0
        moved = window_logits(bags, genomics, arrays, spec).data
        assert np.any(moved[:, 2] != base[:, 2])
        np.testing.assert_array_equal(np.delete(moved, 2, axis=1), np.delete(base, 2, axis=1))

    def test_mgca_sink_order_is_head_then_sample(self):
        rng = np.random.default_rng(27)
        params = make_mgca(rng, 6)
        query, context = rng_tensor(rng, 6, 5), rng_tensor(rng, 6, 7)
        sink = []
        out = mgca(query, context, *params, nk.Segments([2, 3]), nk.Segments([4, 3]), 2, sink)
        assert [w.shape for w in sink] == [(2, 4), (3, 3), (2, 4), (3, 3)]
        for b, (q, c) in enumerate([(slice(0, 2), slice(0, 4)), (slice(2, 5), slice(4, 7))]):
            one_sink = []
            alone = nk.Tensor(query.data[:, q]), nk.Tensor(context.data[:, c])
            single = mgca(*alone, *params, *map(one, alone), 2, one_sink)
            np.testing.assert_allclose(out.data[:, q], single.data, rtol=0, atol=1e-12)
            for head in range(2):
                np.testing.assert_allclose(sink[2 * head + b], one_sink[head], rtol=0, atol=1e-12)
