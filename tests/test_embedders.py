"""Embedder tests: shapes, locality, permutation equivariance, gradients."""

import numpy as np
import pytest

from mgct import numkit as nk
from mgct.embedders import bind_snn, embed_genomics, embed_patches
from mgct.mgct_core import AblationSpec, FusionConfig, ModelSpec, bind_model, init_model_arrays
from mgct.verify import gradient_error


def model_arrays(prefix, gene_lengths=(1,), d_in=1, d=8, hidden=8, seed=0):
    """The ``prefix`` arrays of a freshly drawn preset-A model, which has no fusion arrays."""
    spec = ModelSpec(d_in, tuple(gene_lengths), hidden, FusionConfig(d=d), AblationSpec.preset("A"))
    return {name: a for name, a in init_model_arrays(spec, seed).items() if name.startswith(prefix)}


def snn_setup(gene_lengths, d=8, hidden=8, seed=0):
    arrays = model_arrays("snn.", gene_lengths, d=d, hidden=hidden, seed=seed)
    return arrays, bind_snn(bind_model(arrays), len(gene_lengths))


class TestGenomicEmbedder:
    def test_zero_weights_give_zero_matrix(self):
        arrays, _ = snn_setup([3, 4], d=5)
        params = bind_snn(bind_model({k: np.zeros_like(v) for k, v in arrays.items()}), 2)
        out = embed_genomics([np.ones(3), np.ones(4)], params)
        np.testing.assert_array_equal(out.data, np.zeros((5, 2)))

    def test_output_shape_six_categories(self):
        _, params = snn_setup([5] * 6, d=64)
        rng = np.random.default_rng(1)
        out = embed_genomics([rng.normal(size=5) for _ in range(6)], params)
        assert out.shape == (64, 6)

    def test_eval_equals_training_when_dropout_off(self):
        _, params = snn_setup([4, 4, 4], d=6)
        rng = np.random.default_rng(2)
        raw = [rng.normal(size=4) for _ in range(3)]
        a = embed_genomics(raw, params, dropout_p=0.0, dropout_key=(0, [0]))
        b = embed_genomics(raw, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_column_locality(self):
        # column s depends only on category s
        _, params = snn_setup([3, 3, 3], d=7, seed=3)
        rng = np.random.default_rng(4)
        raw = [rng.normal(size=3) for _ in range(3)]
        base = embed_genomics(raw, params).data
        zeroed = [raw[0], np.zeros(3), np.zeros(3)]
        out = embed_genomics(zeroed, params).data
        np.testing.assert_array_equal(out[:, 0], base[:, 0])
        assert not np.array_equal(out[:, 1], base[:, 1])

    def test_length_mismatch(self):
        _, params = snn_setup([3, 4])
        with pytest.raises(nk.ShapeError, match="category 0"):
            embed_genomics([np.ones(5), np.ones(4)], params)

    def test_category_count_mismatch(self):
        _, params = snn_setup([3, 4])
        with pytest.raises(nk.ShapeError, match="category vectors"):
            embed_genomics([np.ones(3)], params)

    def test_training_dropout_needs_key(self):
        _, params = snn_setup([3])
        with pytest.raises(ValueError, match="key"):
            embed_genomics([np.ones(3)], params, dropout_p=0.5)

    def test_window_columns_match_single_samples(self):
        # a window of 5 samples stacked as columns, each with its own dropout step
        gene_lengths = [3, 2, 4]
        _, params = snn_setup(gene_lengths, d=6, hidden=7, seed=2)
        rng = np.random.default_rng(3)
        samples = [[rng.normal(size=n) for n in gene_lengths] for _ in range(5)]
        steps = (10, 11, 12, 13, 14)
        stacked = [np.column_stack(cat) for cat in zip(*samples)]
        window = embed_genomics(stacked, params, dropout_p=0.25, dropout_key=(4, steps))
        assert window.shape == (6, 3 * 5)
        for b, (raw, step) in enumerate(zip(samples, steps)):
            alone = embed_genomics(raw, params, dropout_p=0.25, dropout_key=(4, [step]))
            np.testing.assert_allclose(window.data[:, b::5], alone.data, rtol=0, atol=1e-13)

    def test_window_size_mismatch(self):
        _, params = snn_setup([3, 4])
        with pytest.raises(nk.ShapeError, match="category 1: 3 samples, category 0 has 2"):
            embed_genomics([np.ones((3, 2)), np.ones((4, 3))], params)

    def test_gradient_through_snn(self):
        gene_lengths = [3, 2]
        rng = np.random.default_rng(5)
        arrays = model_arrays("snn.", gene_lengths, d=4, hidden=6, seed=5)
        raw = [rng.uniform(-2, 2, n) for n in gene_lengths]

        def build(t):
            out = embed_genomics(raw, bind_snn(t, 2), dropout_p=0.3, dropout_key=(7, [1]))
            return nk.sum_all(nk.tanh(out))

        err, name = gradient_error(build, arrays)
        assert err < 1e-4, f"{name}: {err}"


def patch_proj(arrays):
    """(w, b) of the patch projection, as ``embed_patches`` takes them."""
    return nk.Tensor(arrays["patch.w"]), nk.Tensor(arrays["patch.b"])


class TestPatchProjection:
    def test_identity_weights_pass_through(self):
        params = nk.Tensor(np.eye(5)), nk.Tensor(np.zeros((5, 1)))
        x = np.random.default_rng(6).normal(size=(5, 9))
        np.testing.assert_array_equal(embed_patches(x, *params).data, x)

    def test_single_patch(self):
        rng = np.random.default_rng(7)
        arrays = model_arrays("patch.", d_in=4, d=6, seed=7)
        out = embed_patches(rng.normal(size=(4, 1)), *patch_proj(arrays))
        assert out.shape == (6, 1)

    def test_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(8)
        arrays = model_arrays("patch.", d_in=5, d=7, seed=8)
        params = patch_proj(arrays)
        x = rng.normal(size=(5, 11))
        perm = rng.permutation(11)
        out_perm = embed_patches(x[:, perm], *params).data
        np.testing.assert_array_equal(out_perm, embed_patches(x, *params).data[:, perm])

    def test_width_mismatch(self):
        params = patch_proj(model_arrays("patch.", d_in=4, d=6, seed=9))
        with pytest.raises(nk.ShapeError, match="bag width"):
            embed_patches(np.ones((5, 3)), *params)
