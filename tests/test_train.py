"""Optimizer, fold-training, and cross-validation tests (small configs)."""

import logging
import multiprocessing
import os
import tracemalloc
import weakref
from dataclasses import replace
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from mgct import dataio, mgct_core, numkit as nk, survival as sv, train
from mgct.dataio import RiskModel, monte_carlo_splits
from mgct.mgct_core import AblationSpec, FusionConfig, ModelSpec, init_model_arrays
from mgct.train import (
    AdamState,
    CvConfig,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate,
    predict,
    run_ablation_matrix,
    sample_loss_and_grads,
    train_fold,
    window_loss_and_grads,
    write_ablation_csv,
    write_metrics_csv,
)


def tiny_config(**overrides) -> TrainConfig:
    defaults = dict(
        epochs=1,
        accumulation=4,
        seed=0,
        fusion=FusionConfig(s1=1, s2=1, d=8, heads=1, d_attn=6, d_ff=12, bins=4),
        snn_hidden=8,
        dropout=0.1,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_dataset(n=24, seed=5):
    rm = RiskModel(genes_per_category=3, patches_min=4, patches_max=8)
    return dataio.synthesize(n, d_in=5, s_categories=3, risk_model=rm, seed=seed)


def mean_of_sample_grads(samples, arrays, spec, labels, seed, first_step, dropout):
    """Per-sample losses and the mean of the one-sample gradients, step by step as in the paper."""
    per = [
        sample_loss_and_grads(s, arrays, spec, label, dropout=dropout, dropout_key=(seed, [first_step + i]))
        for i, (s, label) in enumerate(zip(samples, labels))
    ]
    mean = {name: np.mean([g[name] for _, g in per], axis=0) for name in arrays}
    return [loss for loss, _ in per], mean


def train_fold_failing_fold_1(dataset, split, config, ablation):
    if split.fold == 1:
        raise ValueError("fold 1 diverged")
    return train_fold(dataset, split, config, ablation)


def train_fold_noting_pid(dataset, split, config, ablation):
    result = train_fold(dataset, split, config, ablation)
    result.pid = os.getpid()
    return result


def train_fold_dying_in_c_fold_1(dataset, split, config, ablation):
    if ablation == AblationSpec.preset("C") and split.fold == 1:
        os._exit(3)
    return train_fold(dataset, split, config, ablation)


def reference_adam_step(params, grads, state, lr, weight_decay=0.0):
    """The allocating update that ``adam_step`` computes in place: a fresh array per term."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            state.skipped += 1
            return params
    b1, b2 = train.ADAM_BETAS
    state.step_count += 1
    t = state.step_count
    out = {}
    for name, theta in params.items():
        g = grads[name] + weight_decay * theta
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1 - b1) * g if m is None else b1 * m + (1 - b1) * g
        v = (1 - b2) * g * g if v is None else b2 * v + (1 - b2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        out[name] = theta - lr * m_hat / (np.sqrt(v_hat) + train.ADAM_EPS)
    return out


def assert_bitwise(a: dict, b: dict):
    # tobytes tells -0.0 from +0.0, which assert_array_equal does not
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes(), name


class TestAdamStep:
    def test_matches_allocating_reference(self):
        rng = np.random.default_rng(8)
        shapes = {"a": (1, 1), "b": (3, 5), "c": (256, 256)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params["b"][0, 0] = -0.0  # with a -0.0 gradient its first moment starts at -0.0
        expected = dict(params)
        state, ref_state = AdamState(), AdamState()
        for step in range(3):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            grads["b"][0, 0] = -0.0
            before = [{k: a.copy() for k, a in d.items()} for d in (params, grads)]
            new = adam_step(params, grads, state, lr=1e-2, weight_decay=1e-3)
            assert_bitwise(params, before[0])
            assert_bitwise(grads, before[1])
            params = new
            expected = reference_adam_step(expected, grads, ref_state, lr=1e-2, weight_decay=1e-3)
            assert_bitwise(params, expected)
            assert_bitwise(state.m, ref_state.m)
            assert_bitwise(state.v, ref_state.v)
            assert state.step_count == ref_state.step_count == step + 1
            assert np.signbit(state.m["b"][0, 0]) == (step == 0)  # a zero-initialised moment gives +0.0

        moments = [{k: a.copy() for k, a in d.items()} for d in (state.m, state.v)]
        grads["c"][7, 7] = np.inf
        assert adam_step(params, grads, state, lr=1e-2, weight_decay=1e-3) is params
        assert (state.step_count, state.skipped) == (3, 1)
        assert_bitwise(state.m, moments[0])
        assert_bitwise(state.v, moments[1])

    def test_zero_gradients_leave_params_unchanged(self):
        params = {"w": np.ones((2, 3))}
        out = adam_step(params, {"w": np.zeros((2, 3))}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(out["w"], params["w"])

    def test_quadratic_converges(self):
        # convergence oracle: minimize x^2 from x = 3
        params = {"x": np.array([[3.0]])}
        state = AdamState()
        for _ in range(500):
            params = adam_step(params, {"x": 2 * params["x"]}, state, lr=0.05)
        assert abs(params["x"][0, 0]) < 1e-3

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(3)
            params = {"w": rng.normal(size=(3, 3))}
            state = AdamState()
            for i in range(20):
                grads = {"w": np.sin(params["w"] + i)}
                params = adam_step(params, grads, state, lr=1e-2, weight_decay=1e-4)
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_skips_step(self, caplog):
        params = {"w": np.ones((2, 2))}
        state = AdamState()
        bad = {"w": np.array([[1.0, np.nan], [0.0, 0.0]])}
        with caplog.at_level(logging.WARNING):
            out = adam_step(params, bad, state, lr=0.1)
        assert out is params
        assert state.step_count == 0
        assert state.skipped == 1
        assert any("non-finite" in rec.message for rec in caplog.records)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gradient_skips_step(self, caplog):
        params = {"w": np.ones((2, 2)), "b": np.ones((2, 1))}
        state = AdamState()
        params = adam_step(params, {"w": np.ones((2, 2)), "b": np.ones((2, 1))}, state, lr=0.1)
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
        huge = {"w": np.array([[1.0, 1e200], [0.0, 0.0]]), "b": np.ones((2, 1))}  # finite; its square is not
        with caplog.at_level(logging.WARNING):
            out = adam_step(params, huge, state, lr=0.1)
        assert out is params
        assert (state.step_count, state.skipped) == (1, 1)
        for was, now in zip(before, (params, state.m, state.v)):
            assert_bitwise(now, was)
        assert any("overflowing gradient in w" in rec.message for rec in caplog.records)

    def test_weight_decay_pulls_toward_zero(self):
        params = {"w": np.full((1, 1), 5.0)}
        state = AdamState()
        out = adam_step(params, {"w": np.zeros((1, 1))}, state, lr=0.1, weight_decay=0.1)
        assert out["w"][0, 0] < 5.0


class TestAccumulationEquivalence:
    def test_mean_gradient_step_matches_accumulated(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        spec = ModelSpec(
            d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=cfg.snn_hidden,
            fusion=cfg.fusion, ablation=AblationSpec(),
        )
        arrays = init_model_arrays(spec, seed=1, head_init="xavier")
        edges = sv.time_bin_edges([sv.SurvivalLabel(s.t, s.event) for s in ds.samples], 4)
        samples = ds.samples[:8]
        grads_list = []
        for i, s in enumerate(samples):
            label = sv.SurvivalLabel(s.t, s.event, bin=sv.assign_bin(s.t, edges))
            _, g = sample_loss_and_grads(s, arrays, spec, label, dropout=0.0)
            grads_list.append(g)

        accumulated = {
            name: sum(g[name] for g in grads_list) / len(grads_list) for name in grads_list[0]
        }
        direct_mean = {
            name: np.mean([g[name] for g in grads_list], axis=0) for name in grads_list[0]
        }
        p1 = adam_step(dict(arrays), accumulated, AdamState(), lr=2e-4, weight_decay=1e-5)
        p2 = adam_step(dict(arrays), direct_mean, AdamState(), lr=2e-4, weight_decay=1e-5)
        for name in p1:
            assert np.abs(p1[name] - p2[name]).max() < 1e-10


@pytest.fixture(scope="module")
def reference_cohort():
    """The reference dataset (ragged bags) and its training labels, binned on every sample."""
    ds = dataio.synthesize(200, seed=7)
    edges = sv.time_bin_edges([sv.SurvivalLabel(s.t, s.event) for s in ds.samples], 4)
    return ds, [sv.SurvivalLabel(s.t, s.event, bin=sv.assign_bin(s.t, edges)) for s in ds.samples]


def reference_spec(ds, ablation=AblationSpec(), **fusion) -> ModelSpec:
    cfg = TrainConfig()
    return ModelSpec(
        d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=cfg.snn_hidden,
        fusion=replace(cfg.fusion, **fusion), ablation=ablation,
    )


# (preset, heads, residual): presets A-E at one and two heads, and one residual model
MODEL_MATRIX = [(p, h, False) for p in "ABCDE" for h in (1, 2) if (p, h) != ("E", 1)] + [("E", 2, True)]
TAPE_SETTINGS = [(train.TAPE_PATCHES, 1), (200, 5)]  # (TAPE_PATCHES, tapes the window takes)


class TestWindowEquivalence:
    """A window's tapes give the mean of the batch-size-1 gradients."""

    def check_window(self, monkeypatch, cohort, spec, max_patches, tapes):
        # the reference config at full width (criterion 5 runs a narrow model)
        ds, all_labels = cohort
        cfg = TrainConfig()
        arrays = init_model_arrays(spec, seed=2, head_init="xavier")
        samples, labels = ds.samples[:32], all_labels[:32]
        assert len({s.patches.shape[1] for s in samples}) > 1

        assert len(train.tape_spans([s.patches.shape[1] for s in samples], max_patches)) == tapes
        monkeypatch.setattr(train, "TAPE_PATCHES", max_patches)
        losses, window = window_loss_and_grads(
            samples, arrays, spec, labels, dropout=0.25, dropout_key=(cfg.seed, range(32))
        )
        sample_losses, mean = mean_of_sample_grads(samples, arrays, spec, labels, cfg.seed, 0, 0.25)

        assert max(abs(a - b) for a, b in zip(losses, sample_losses)) < 1e-12
        step = dict(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        p1 = adam_step(dict(arrays), window, AdamState(), **step)
        p2 = adam_step(dict(arrays), mean, AdamState(), **step)
        assert max(float(np.abs(p1[k] - p2[k]).max()) for k in p1) < 1e-10

    @pytest.mark.parametrize("max_patches, tapes", TAPE_SETTINGS)
    def test_window_matches_mean_of_sample_gradients(self, monkeypatch, reference_cohort, max_patches, tapes):
        spec = reference_spec(reference_cohort[0])  # preset E, one head
        self.check_window(monkeypatch, reference_cohort, spec, max_patches, tapes)

    @pytest.mark.parametrize("max_patches, tapes", TAPE_SETTINGS)
    @pytest.mark.parametrize("preset, heads, residual", MODEL_MATRIX)
    def test_model_matrix(self, monkeypatch, reference_cohort, preset, heads, residual, max_patches, tapes):
        ablation = AblationSpec.preset(preset)
        spec = reference_spec(reference_cohort[0], ablation, heads=heads, residual=residual)
        self.check_window(monkeypatch, reference_cohort, spec, max_patches, tapes)

    def test_reference_window_tape_keeps_its_nodes(self, monkeypatch, reference_cohort):
        # a guard on tape drift: 94 leaves, 124 forward ops, the one loss node, then the mean's sum and scale
        ds, labels = reference_cohort
        spec = reference_spec(ds)  # preset E
        sizes = []
        real = nk.backward
        monkeypatch.setattr(nk, "backward", lambda loss, tape: sizes.append(len(tape.nodes)) or real(loss, tape))
        arrays = init_model_arrays(spec, seed=2)
        window_loss_and_grads(ds.samples[:32], arrays, spec, labels[:32], dropout=0.25, dropout_key=(0, range(32)))
        assert sizes == [221]

    def test_reference_window_memory_peak(self, reference_cohort):
        # a guard on memory drift: the window's traced peak reads 15.4 MiB; a
        # tape whose elementwise nodes also keep their inputs reads 18.8 MiB
        ds, labels = reference_cohort
        spec = reference_spec(ds)  # preset E
        arrays = init_model_arrays(spec, seed=2)
        tracemalloc.start()
        try:
            window_loss_and_grads(ds.samples[:32], arrays, spec, labels[:32], dropout=0.25, dropout_key=(0, range(32)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16.5 * 2**20

    @pytest.mark.parametrize("max_patches", [train.TAPE_PATCHES, 200])
    def test_evaluate_matches_predict(self, monkeypatch, reference_cohort, max_patches):
        ds, _ = reference_cohort
        spec = reference_spec(ds, heads=2)
        arrays = init_model_arrays(spec, seed=3, head_init="xavier")
        samples = ds.samples[:70]  # more patches than one run holds
        monkeypatch.setattr(train, "TAPE_PATCHES", max_patches)
        assert len(train.tape_spans([s.patches.shape[1] for s in samples], max_patches)) > 1
        risks, ci, auc = evaluate(samples, arrays, spec, horizon=20.0)
        one_by_one = [predict(s, arrays, spec).risk for s in samples]
        assert max(abs(a - b) for a, b in zip(risks, one_by_one)) < 1e-12
        labels = [sv.SurvivalLabel(s.t, s.event) for s in samples]
        assert ci == sv.concordance_index(one_by_one, labels)
        assert auc == sv.binary_auc(one_by_one, labels, 20.0)

    def test_partial_last_window_averages_its_own_samples(self, monkeypatch):
        # 37 training samples at accumulation 32: a 32-sample and a 5-sample window
        calls = []

        def recording_adam_step(params, grads, state, **kwargs):
            calls.append((params, grads))
            return adam_step(params, grads, state, **kwargs)

        monkeypatch.setattr(train, "adam_step", recording_adam_step)
        ds = tiny_dataset(n=45)
        split = dataio.FoldSplit(fold=0, train_ids=tuple(ds.ids[:37]), val_ids=tuple(ds.ids[37:]))
        cfg = tiny_config(accumulation=32, dropout=0.25)
        result = train_fold(ds, split, cfg)
        assert len(calls) == 2

        train_samples = ds.subset(split.train_ids)
        edges = sv.time_bin_edges([sv.SurvivalLabel(s.t, s.event) for s in train_samples], 4)
        order = np.random.default_rng([cfg.seed, split.fold, 0]).permutation(37)
        all_losses = []
        for (params, grads), start, size in zip(calls, (0, 32), (32, 5)):
            window = [train_samples[i] for i in order[start : start + 32]]
            assert len(window) == size
            labels = [sv.SurvivalLabel(s.t, s.event, bin=sv.assign_bin(s.t, edges)) for s in window]
            losses, mean = mean_of_sample_grads(window, params, result.spec, labels, cfg.seed, start, 0.25)
            all_losses += losses
            assert max(float(np.abs(grads[k] - mean[k]).max()) for k in mean) < 1e-12
        assert result.history[0].loss == pytest.approx(np.mean(all_losses), abs=1e-12)

    def test_one_sample_records_no_gather(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-sample pass gathered columns")

        monkeypatch.setattr(nk, "gather_cols", refuse)
        ds = tiny_dataset()
        cfg = tiny_config()
        spec = ModelSpec(
            d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=cfg.snn_hidden,
            fusion=cfg.fusion, ablation=AblationSpec(),
        )
        arrays = init_model_arrays(spec, seed=1, head_init="xavier")
        s = ds.samples[0]
        loss, _ = sample_loss_and_grads(s, arrays, spec, sv.SurvivalLabel(s.t, s.event, bin=1), 0.1, (0, [3]))
        assert np.isfinite(loss)
        assert np.isfinite(predict(s, arrays, spec).risk)

    def test_one_sample_projects_its_bag_uncopied(self, monkeypatch):
        # a one-sample window hands its bag itself to the patch projection; a window stacks its bags
        seen = []
        project = mgct_core.embed_patches
        monkeypatch.setattr(mgct_core, "embed_patches", lambda bag, w, b: seen.append(bag) or project(bag, w, b))
        ds = tiny_dataset()
        spec = ModelSpec(d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=8, fusion=tiny_config().fusion)
        arrays = init_model_arrays(spec, seed=1, head_init="xavier")
        s = replace(ds.samples[0], patches=np.asfortranarray(ds.samples[0].patches))
        alone = predict(s, arrays, spec).risk
        assert seen.pop() is s.patches
        risks, _, _ = evaluate([s, ds.samples[1]], arrays, spec, 10.0)
        assert seen.pop().shape[1] == s.patches.shape[1] + ds.samples[1].patches.shape[1]
        assert abs(risks[0] - alone) <= 1e-12


class TestTapeSpans:
    def test_runs_fill_up_to_the_bound(self):
        # a run's padded width is its sample count times its largest bag
        assert train.tape_spans([10, 20, 30, 5, 25], 30) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert train.tape_spans([10, 10, 10, 5, 5], 30) == [(0, 3), (3, 5)]
        assert train.tape_spans([], 30) == []

    def test_large_bag_does_not_pad_small_ones(self):
        # 1,020 real columns, but one run would pad all five bags to 1,000
        assert train.tape_spans([8, 1000, 4, 4, 4], 1024) == [(0, 1), (1, 2), (2, 5)]

    def test_larger_bag_has_a_tape_to_itself(self):
        assert train.tape_spans([5, 50, 5, 5], 20) == [(0, 1), (1, 2), (2, 4)]
        assert train.tape_spans([50], 20) == [(0, 1)]

    def test_reference_window_is_one_tape(self):
        # 32 bags of at most 32 patches (the synthetic default)
        assert train.tape_spans([32] * 32, train.TAPE_PATCHES) == [(0, 32)]
        assert train.tape_spans([32] * 33, train.TAPE_PATCHES) == [(0, 32), (32, 33)]

    def test_large_bags_train_like_one_tape(self, monkeypatch):
        # bags larger than the bound: every sample on its own tape, same fold
        ds = tiny_dataset(n=30)
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=1)[0]
        cfg = tiny_config(accumulation=8, dropout=0.25)
        one = train_fold(ds, split, cfg)
        monkeypatch.setattr(train, "TAPE_PATCHES", 1)
        many = train_fold(ds, split, cfg)
        for name in one.arrays:
            np.testing.assert_allclose(many.arrays[name], one.arrays[name], rtol=0, atol=1e-12)
        assert [h.loss for h in many.history] == pytest.approx([h.loss for h in one.history], abs=1e-12)


class TestTrainFold:
    def test_zero_epochs_returns_initialization(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=0)
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=0)[0]
        result = train_fold(ds, split, cfg)
        assert result.history == []
        init = init_model_arrays(result.spec, seed=[cfg.seed, split.fold])
        for name in init:
            np.testing.assert_array_equal(result.arrays[name], init[name])

    def test_bitwise_deterministic(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=2)
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=0)[0]
        a = train_fold(ds, split, cfg)
        b = train_fold(ds, split, cfg)
        assert [(em.loss, em.c_index, em.auc) for em in a.history] == [
            (em.loss, em.c_index, em.auc) for em in b.history
        ]
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_window_gradients_die_with_their_step(self, monkeypatch):
        # no window's gradient arrays are alive while the next window runs
        alive = []
        real = train.window_loss_and_grads

        def recording(*args, **kwargs):
            assert [ref for ref in alive if ref() is not None] == []
            losses, grads = real(*args, **kwargs)
            alive[:] = [weakref.ref(g) for g in grads.values()]
            return losses, grads

        monkeypatch.setattr(train, "window_loss_and_grads", recording)
        ds = tiny_dataset()
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=0)[0]
        train_fold(ds, split, tiny_config(epochs=2))
        assert alive and [ref for ref in alive if ref() is not None] == []

    def test_training_reduces_loss(self):
        ds = tiny_dataset(n=40)
        cfg = tiny_config(epochs=4, learning_rate=5e-3)
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=0)[0]
        result = train_fold(ds, split, cfg)
        assert result.history[-1].loss < result.history[0].loss
        assert all(np.isfinite(em.loss) for em in result.history)

    def test_validation_never_touches_training_labels(self):
        # poisoning the training outcomes must not move an untrained model's
        # validation risks or rank metrics (fixed horizon)
        ds = tiny_dataset()
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=0)[0]
        cfg = tiny_config(epochs=0)
        rng = np.random.default_rng(9)
        poisoned_samples = []
        train_ids = set(split.train_ids)
        for s in ds.samples:
            if s.sample_id in train_ids:
                poisoned_samples.append(
                    dataio.BagSample(
                        s.sample_id, s.patches, s.genomic,
                        float(rng.uniform(1, 100)), int(rng.integers(0, 2)),
                    )
                )
            else:
                poisoned_samples.append(s)
        poisoned = dataio.Dataset(samples=poisoned_samples, category_map=ds.category_map)

        clean_fold = train_fold(ds, split, cfg)
        poisoned_fold = train_fold(poisoned, split, cfg)
        val_clean = ds.subset(split.val_ids)
        val_poisoned = poisoned.subset(split.val_ids)
        horizon = 20.0
        risks_a, ci_a, auc_a = evaluate(val_clean, clean_fold.arrays, clean_fold.spec, horizon)
        risks_b, ci_b, auc_b = evaluate(val_poisoned, poisoned_fold.arrays, poisoned_fold.spec, horizon)
        assert risks_a == risks_b
        assert ci_a == ci_b and auc_a == auc_b

    def test_all_censored_validation_flagged_undefined(self):
        ds = tiny_dataset(n=20)
        censored = dataio.Dataset(
            samples=[
                dataio.BagSample(s.sample_id, s.patches, s.genomic, s.t, 0) for s in ds.samples
            ],
            category_map=ds.category_map,
        )
        split = monte_carlo_splits(censored.ids, 1, ratio=0.2, seed=0)[0]
        result = train_fold(censored, split, tiny_config())
        assert result.history[-1].c_index is None
        assert result.history[-1].auc is None

    def test_empty_train_set_rejected(self):
        ds = tiny_dataset(n=8)
        bad = dataio.FoldSplit(fold=0, train_ids=(), val_ids=tuple(ds.ids))
        with pytest.raises(ValueError, match="empty training set"):
            train_fold(ds, bad, tiny_config())

    def test_prediction_is_valid_survival(self):
        ds = tiny_dataset()
        split = monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=0)[0]
        result = train_fold(ds, split, tiny_config())
        pred = predict(ds.samples[0], result.arrays, result.spec)
        assert np.all((pred.hazards > 0) & (pred.hazards < 1))
        assert np.all(np.diff(pred.survival) <= 1e-15)
        assert np.isfinite(pred.risk)


class TestCrossValidation:
    def test_single_fold_zero_std(self):
        ds = tiny_dataset()
        cv = cross_validate(ds, CvConfig(folds=1), tiny_config())
        assert cv.c_index_std == 0.0
        assert cv.c_index_mean == cv.folds[0].final_c_index

    def test_aggregation_matches_hand_computation(self):
        ds = tiny_dataset(n=30)
        cv = cross_validate(ds, CvConfig(folds=3), tiny_config())
        finals = [f.final_c_index for f in cv.folds]
        assert cv.c_index_mean == pytest.approx(np.mean(finals), abs=1e-15)
        assert cv.c_index_std == pytest.approx(np.std(finals), abs=1e-15)

    def test_folds_use_distinct_splits(self):
        ds = tiny_dataset(n=30)
        splits = monte_carlo_splits(ds.ids, 3, ratio=0.2, seed=0)
        assert len({sp.val_ids for sp in splits}) > 1

    def test_parallel_jobs_match_sequential(self):
        ds = tiny_dataset(n=16)
        cfg = tiny_config()
        seq = cross_validate(ds, CvConfig(folds=2), cfg)
        par = cross_validate(ds, CvConfig(folds=2, jobs=2), cfg)
        assert [f.final_c_index for f in seq.folds] == [f.final_c_index for f in par.folds]

    def test_failing_fold_recorded_for_any_jobs(self, monkeypatch):
        # forked children inherit the patched module, and the exception comes back through the pipe
        monkeypatch.setattr(train, "train_fold", train_fold_failing_fold_1)
        ds = tiny_dataset(n=16)
        seq = cross_validate(ds, CvConfig(folds=3), tiny_config())
        par = cross_validate(ds, CvConfig(folds=3, jobs=2), tiny_config())
        assert seq.errors == par.errors == {1: "fold 1 diverged"}
        assert [f.fold for f in seq.folds] == [f.fold for f in par.folds] == [0, 2]
        assert [f.final_c_index for f in seq.folds] == [f.final_c_index for f in par.folds]

    def test_pool_never_larger_than_fold_count(self, monkeypatch):
        # at most min(jobs, folds) children alive at once, each fold in a forked child of its own
        alive = []
        start = ForkProcess.start
        monkeypatch.setattr(ForkProcess, "start", lambda child: start(child) or alive.append(
            len(multiprocessing.active_children())))
        monkeypatch.setattr(train, "train_fold", train_fold_noting_pid)
        ds = tiny_dataset(n=16)
        for folds, jobs in ((2, 1000), (3, 2)):
            alive.clear()
            cv = cross_validate(ds, CvConfig(folds=folds, jobs=jobs), tiny_config())
            assert len(alive) == folds and max(alive) <= min(folds, jobs)
            pids = {f.pid for f in cv.folds}
            assert len(pids) == folds and os.getpid() not in pids and not cv.errors
        assert multiprocessing.active_children() == []

    def test_metrics_csv_shape(self, tmp_path):
        ds = tiny_dataset()
        cv = cross_validate(ds, CvConfig(folds=2), tiny_config(epochs=2))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, cv.folds)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,fold,c_index,auc,loss"
        assert len(lines) == 1 + 2 * 2  # header + folds * epochs
        for line in lines[1:]:
            epoch, fold, ci, auc, loss = line.split(",")
            float(ci), float(auc), float(loss)  # parseable (possibly nan)


class TestAblationMatrix:
    def test_five_rows_in_preset_order(self, tmp_path):
        ds = tiny_dataset()
        rows = run_ablation_matrix(ds, CvConfig(folds=1), tiny_config())
        assert [r.model for r in rows] == ["A", "B", "C", "D", "E"]
        path = tmp_path / "ablation.csv"
        write_ablation_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("model,deep_fusion,mgca,gap,feedforward,c_index_mean")
        assert lines[1].startswith("A,0,0,0,0,")
        assert lines[5].startswith("E,1,1,1,1,")

    def test_a_dead_child_fails_only_its_pair(self, monkeypatch):
        ds = tiny_dataset(n=16)
        clean = run_ablation_matrix(ds, CvConfig(folds=2), tiny_config())
        monkeypatch.setattr(train, "train_fold", train_fold_dying_in_c_fold_1)
        rows = run_ablation_matrix(ds, CvConfig(folds=2, jobs=2), tiny_config())
        assert multiprocessing.active_children() == []
        for row, ref in zip(rows, clean):
            lost = {1: "fold 1 ended without a result, exit code 3"} if row.model == "C" else {}
            assert row.cv.errors == lost and not ref.cv.errors
            kept = [f for f in ref.cv.folds if f.fold not in lost]
            assert [f.fold for f in row.cv.folds] == [f.fold for f in kept]
            for got, want in zip(row.cv.folds, kept):  # every other pair bitwise that of the clean run
                assert_bitwise(got.arrays, want.arrays)
                assert got.history == want.history
            assert (row.cv.c_index_mean, row.cv.auc_mean) == (
                (kept[0].final_c_index, kept[0].final_auc) if lost else (ref.cv.c_index_mean, ref.cv.auc_mean))

    def test_presets_stay_finite_through_training(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=2)
        for name in ("A", "B", "C", "D", "E"):
            cv = cross_validate(ds, CvConfig(folds=1), cfg, AblationSpec.preset(name))
            assert all(np.isfinite(em.loss) for em in cv.folds[0].history), name
