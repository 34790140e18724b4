"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight pieces
(training Model A and Model E over five Monte Carlo folds of the default
synthetic dataset) are shared through module-scoped fixtures.
"""

import os
import time
from fractions import Fraction

import numpy as np
import pytest

from mgct import dataio, numkit as nk, survival as sv
from mgct.checkpoint import save_checkpoint
from mgct.dataio import monte_carlo_splits
from mgct.mgct_core import (
    AblationSpec,
    FusionConfig,
    ModelSpec,
    gated_attention_pool,
    init_model_arrays,
    mgca,
)
from mgct.train import (
    AdamState,
    CvConfig,
    TrainConfig,
    adam_step,
    cross_validate,
    predict,
    sample_loss_and_grads,
    train_fold,
    window_loss_and_grads,
    write_metrics_csv,
)
from mgct.verify import model_gradient_error, patch_permutation_deviation, simplex_deviation

DATASET_SEED = 7
DATASET_SIZE = 200


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def default_dataset():
    return dataio.synthesize(DATASET_SIZE, seed=DATASET_SEED)


@pytest.fixture(scope="module")
def paper_config():
    # §-level training protocol: lr 2e-4, wd 1e-5, 20 epochs, batch 1,
    # 32-step accumulation, one stage-1 layer and two stage-2 layers
    cfg = TrainConfig()
    assert (cfg.learning_rate, cfg.weight_decay, cfg.epochs) == (2e-4, 1e-5, 20)
    assert cfg.accumulation == 32
    assert (cfg.fusion.s1, cfg.fusion.s2) == (1, 2)
    return cfg


@pytest.fixture(scope="module")
def model_e_fold0(default_dataset, paper_config):
    """Criterion 6/8/9 workhorse: Model E trained on the first MC fold."""
    split = monte_carlo_splits(default_dataset.ids, 1, ratio=0.2, seed=paper_config.seed)[0]
    start = time.monotonic()
    result = train_fold(default_dataset, split, paper_config, AblationSpec.preset("E"))
    return result, split, time.monotonic() - start


@pytest.fixture(scope="module")
def model_cv(default_dataset, paper_config):
    """Criterion 7: Models A and E cross-validated over the same 5 folds, on the usable CPUs."""
    try:
        cv = CvConfig(folds=5, jobs=len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity call on this platform
        cv = CvConfig(folds=5, jobs=os.cpu_count() or 1)
    cv_a = cross_validate(default_dataset, cv, paper_config, AblationSpec.preset("A"))
    cv_e = cross_validate(default_dataset, cv, paper_config, AblationSpec.preset("E"))
    return cv_a, cv_e


def test_criterion_1_gradient_correctness():
    """Full Model E tape gradients match central finite differences."""
    spec = ModelSpec(
        d_in=6,
        gene_lengths=(3,) * 6,  # S = 6
        snn_hidden=16,
        fusion=FusionConfig(s1=1, s2=2, d=8, heads=1, d_attn=8, d_ff=16, bins=4),
        ablation=AblationSpec.preset("E"),
    )
    arrays = init_model_arrays(spec, seed=1, head_init="xavier")
    rng = np.random.default_rng(3)
    patches = rng.uniform(-2.0, 2.0, (6, 12))  # N = 12
    genomic = [rng.uniform(-2.0, 2.0, 3) for _ in range(6)]
    sample = dataio.BagSample("c1", patches, genomic, t=10.0, event=1)
    label = sv.SurvivalLabel(t=10.0, event=1, bin=1)

    start = time.monotonic()
    err, worst = model_gradient_error(spec, arrays, sample, label, dropout=0.25, dropout_key=(5, [0]))
    elapsed = time.monotonic() - start
    n_params = sum(a.size for a in arrays.values())
    ok = err < 1e-4 and elapsed < 30.0
    report(
        1,
        ok,
        f"{n_params} parameters, max rel err {err:.3g} (at {worst}), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_patch_permutation_invariance():
    """fuse() is invariant to patch order within 1e-9, 100 permutations."""
    spec = ModelSpec(d_in=16, gene_lengths=(8,) * 6, snn_hidden=32, fusion=FusionConfig())
    worst = patch_permutation_deviation(spec, array_seed=11, data_seed=21, n_patches=30, n_perms=100)
    report(2, worst < 1e-9, f"max |fuse(H_perm) - fuse(H)| = {worst:.3g} over 100 permutations")


def test_criterion_3_simplex_invariants():
    """Attention rows and pooling weights stay on the simplex (1000 draws)."""
    rng = np.random.default_rng(33)
    blocks: list[np.ndarray] = []
    for i in range(1000):
        d = int(rng.integers(1, 12))
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 14))
        if i % 2 == 0:
            w_q, w_k, w_v = (nk.Tensor(rng.uniform(-2, 2, (d, d))) for _ in range(3))
            query, context = nk.Tensor(rng.uniform(-3, 3, (d, m))), nk.Tensor(rng.uniform(-3, 3, (d, n)))
            mgca(query, context, w_q, w_k, w_v, nk.Segments([m]), nk.Segments([n]), attn_sink=blocks)
        else:
            v, u, w = (nk.Tensor(rng.uniform(-2, 2, shape)) for shape in ((d, d), (d, d), (1, d)))
            tokens = nk.Tensor(rng.uniform(-3, 3, (d, n)))
            blocks.append(gated_attention_pool(tokens, v, u, w, nk.Segments([n]))[1].data)
    worst, negatives = simplex_deviation(blocks)
    ok = worst < 1e-12 and negatives == 0
    report(3, ok, f"max row-sum deviation {worst:.3g}, negative weights: {negatives}")


def test_criterion_4_metric_oracles():
    """C-index/AUC match brute force exactly; KM and log-rank to 1e-12."""
    # concordance fixture (hand-enumerated pairs)
    labels = [
        sv.SurvivalLabel(2, 1), sv.SurvivalLabel(4, 1), sv.SurvivalLabel(5, 0),
        sv.SurvivalLabel(6, 1), sv.SurvivalLabel(8, 0), sv.SurvivalLabel(9, 1),
    ]
    risks = [0.9, 0.8, 0.7, 0.8, 0.2, 0.75]
    ci_exact = sv.concordance_index(risks, labels) == 10.5 / 11

    # binary AUC fixture (brute-force pair count = 11/12)
    auc_labels = [
        sv.SurvivalLabel(2, 1), sv.SurvivalLabel(4, 1), sv.SurvivalLabel(6, 0),
        sv.SurvivalLabel(9, 1), sv.SurvivalLabel(12, 1), sv.SurvivalLabel(15, 0),
        sv.SurvivalLabel(20, 1), sv.SurvivalLabel(25, 0),
    ]
    auc_risks = [0.9, 0.7, 0.7, 0.4, 0.35, 0.2, 0.5, 0.1]
    auc_exact = sv.binary_auc(auc_risks, auc_labels, 10.0) == float(Fraction(11, 12))

    # Kaplan-Meier ten-sample fixture (hand-worked product-limit table)
    km_labels = [
        sv.SurvivalLabel(1, 1), sv.SurvivalLabel(2, 1), sv.SurvivalLabel(3, 0),
        sv.SurvivalLabel(4, 1), sv.SurvivalLabel(5, 0), sv.SurvivalLabel(6, 1),
        sv.SurvivalLabel(7, 0), sv.SurvivalLabel(8, 1), sv.SurvivalLabel(9, 0),
        sv.SurvivalLabel(10, 1),
    ]
    expected_km = [
        Fraction(1), Fraction(9, 10), Fraction(4, 5), Fraction(24, 35),
        Fraction(96, 175), Fraction(64, 175), Fraction(0),
    ]
    got_km = sv.kaplan_meier(km_labels)
    km_err = max(abs(s - float(e)) for (_, s), e in zip(got_km, expected_km))

    # log-rank disjoint-group fixture: E[deaths in group a] = sum n1/(n1+10)
    a = [sv.SurvivalLabel(float(t), 1) for t in range(1, 11)]
    b = [sv.SurvivalLabel(float(t), 1) for t in range(11, 21)]
    res = sv.logrank_test(a, b)
    exp_a = Fraction(0)
    var = Fraction(0)
    for n1 in range(10, 0, -1):
        n = n1 + 10
        exp_a += Fraction(n1, n)
        var += Fraction(n1 * 10 * (n - 1), n * n * (n - 1))
    stat_oracle = (10 - exp_a) ** 2 / var
    lr_err = abs(res.statistic - float(stat_oracle))

    ok = ci_exact and auc_exact and km_err < 1e-12 and lr_err < 1e-12 and res.p_value < 0.05
    report(
        4,
        ok,
        f"c-index exact: {ci_exact}, auc exact: {auc_exact}, "
        f"km err {km_err:.3g}, log-rank err {lr_err:.3g}",
    )


def test_criterion_5_gradient_accumulation_equivalence(default_dataset):
    """32 accumulated batch-1 gradients equal one mean-gradient step to 1e-10."""
    ds = default_dataset
    cfg = TrainConfig(fusion=FusionConfig(s1=1, s2=2, d=16, d_attn=16, d_ff=32), snn_hidden=16)
    spec = ModelSpec(
        d_in=ds.d_in, gene_lengths=tuple(ds.gene_lengths), snn_hidden=cfg.snn_hidden,
        fusion=cfg.fusion, ablation=AblationSpec.preset("E"),
    )
    arrays = init_model_arrays(spec, seed=2, head_init="xavier")
    edges = sv.time_bin_edges([sv.SurvivalLabel(s.t, s.event) for s in ds.samples], 4)
    samples = ds.samples[:32]
    labels = [sv.SurvivalLabel(s.t, s.event, bin=sv.assign_bin(s.t, edges)) for s in samples]

    # training-loop route: one tape for the window, one backward of the mean loss
    _, accumulated = window_loss_and_grads(
        samples, arrays, spec, labels, dropout=cfg.dropout, dropout_key=(cfg.seed, range(32))
    )
    # oracle route: 32 batch-1 gradients, stacked, and their mean taken directly
    per_sample = [
        sample_loss_and_grads(s, arrays, spec, label, dropout=cfg.dropout, dropout_key=(cfg.seed, [i]))[1]
        for i, (s, label) in enumerate(zip(samples, labels))
    ]
    direct = {k: np.mean([g[k] for g in per_sample], axis=0) for k in per_sample[0]}

    # adam_step updates the arrays it is given in place: each route steps its own copy
    p1, p2 = ({k: a.copy() for k, a in arrays.items()} for _ in range(2))
    p1 = adam_step(p1, accumulated, AdamState(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    p2 = adam_step(p2, direct, AdamState(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    worst = max(float(np.abs(p1[k] - p2[k]).max()) for k in p1)
    report(5, worst < 1e-10, f"max parameter deviation {worst:.3g} after one step")


def test_criterion_6_synthetic_learning(default_dataset, paper_config, model_e_fold0):
    """Model E reaches C >= 0.80 on held-out data; shuffled labels stay near 0.5."""
    result, split, elapsed = model_e_fold0
    final_c = result.final_c_index

    rng = np.random.default_rng(123)
    perm = rng.permutation(len(default_dataset.samples))
    shuffled = dataio.Dataset(
        samples=[
            dataio.BagSample(
                s.sample_id, s.patches, s.genomic,
                default_dataset.samples[j].t, default_dataset.samples[j].event,
            )
            for s, j in zip(default_dataset.samples, perm)
        ],
        category_map=default_dataset.category_map,
    )
    start = time.monotonic()
    control = train_fold(shuffled, split, paper_config, AblationSpec.preset("E"))
    total = elapsed + (time.monotonic() - start)
    control_c = control.final_c_index
    ok = final_c >= 0.80 and 0.40 <= control_c <= 0.60 and total < 600.0
    report(
        6,
        ok,
        f"validation c-index {final_c:.4f} (>= 0.80), shuffled control {control_c:.4f} "
        f"(in [0.40, 0.60]), runtime {total:.0f}s (< 600s)",
    )


def test_criterion_7_ablation_direction(model_cv):
    """Mean C-index of Model E beats Model A by at least 0.05 over 5 folds."""
    cv_a, cv_e = model_cv
    gap = cv_e.c_index_mean - cv_a.c_index_mean
    ok = cv_a.c_index_mean < cv_e.c_index_mean and gap >= 0.05
    report(
        7,
        ok,
        f"model A mean {cv_a.c_index_mean:.4f}, model E mean {cv_e.c_index_mean:.4f}, "
        f"gap {gap:.4f} (>= 0.05)",
    )


def test_criterion_8_risk_stratification(default_dataset, model_e_fold0):
    """Median-split risk groups separate on held-out data (log-rank p < 0.05)."""
    result, split, _ = model_e_fold0
    val = default_dataset.subset(split.val_ids)
    risks = [predict(s, result.arrays, result.spec).risk for s in val]
    labels = [sv.SurvivalLabel(s.t, s.event) for s in val]
    low, high = sv.stratify(risks, labels)
    res = sv.logrank_test([labels[i] for i in low], [labels[i] for i in high])
    ok = res.defined and res.p_value < 0.05
    report(8, ok, f"log-rank statistic {res.statistic:.3f}, p = {res.p_value:.3g} (< 0.05)")


def test_criterion_9_determinism(default_dataset, paper_config, model_e_fold0, tmp_path):
    """Identical runs produce bitwise-identical datasets, CSVs, checkpoints."""
    ds_again = dataio.synthesize(DATASET_SIZE, seed=DATASET_SEED)
    data_same = all(
        np.array_equal(a.patches, b.patches)
        and a.t == b.t
        and a.event == b.event
        and all(np.array_equal(ga, gb) for ga, gb in zip(a.genomic, b.genomic))
        for a, b in zip(default_dataset.samples, ds_again.samples)
    )

    result, split, _ = model_e_fold0
    rerun = train_fold(default_dataset, split, paper_config, AblationSpec.preset("E"))
    write_metrics_csv(tmp_path / "m1.csv", [result])
    write_metrics_csv(tmp_path / "m2.csv", [rerun])
    csv_same = (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()

    meta = {"model": result.spec.to_dict(), "fold": result.fold}
    save_checkpoint(tmp_path / "c1.ckpt", result.arrays, meta)
    save_checkpoint(tmp_path / "c2.ckpt", rerun.arrays, meta)
    ckpt_same = (tmp_path / "c1.ckpt").read_bytes() == (tmp_path / "c2.ckpt").read_bytes()

    ok = data_same and csv_same and ckpt_same
    report(
        9,
        ok,
        f"dataset bitwise: {data_same}, metrics csv bitwise: {csv_same}, "
        f"checkpoint bitwise: {ckpt_same}",
    )
