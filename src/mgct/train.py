"""Optimization loop, Monte Carlo cross-validation, and the ablation matrix.

The update rule is the paper's: each sample's loss is taken at batch size 1
(bags vary in size) and the gradients of an accumulation window are averaged
before each Adam step, so the learning rate behaves like an effective batch
of ``accumulation`` samples. A window is computed on as few tapes as
``TAPE_PATCHES`` allows: each tape runs its samples through one forward
pass (the genomic networks, the patch projection, fusion, head and loss
each once over all of them; see ``window_logits``), and one backward of
their share of the mean loss gives their share of the mean gradient.
Validation scores its samples in the same runs, untaped. Everything is
deterministic given (seed, config, dataset).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import numkit as nk
from . import survival
from .dataio import BagSample, Dataset, FoldSplit, monte_carlo_splits
from .embedders import DROPOUT_DEFAULT, SNN_HIDDEN_DEFAULT
from .forks import run_tasks
from .mgct_core import (
    AblationSpec,
    Config,
    FusionConfig,
    ModelSpec,
    bind_model,
    forward_logits,
    init_model_arrays,
    ranged,
    window_logits,
)

log = logging.getLogger(__name__)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# Padded patch columns that may share one tape. A tape holds every sample's
# fusion activations until its backward, padded to the run's largest bag, so
# a window is cut into consecutive runs of samples whose count times their
# largest bag stays within this bound (a larger bag has a tape to itself).
# 1024 columns keep a 32-sample window of bags of up to 32 patches on one
# tape, and a tape no larger than a 1024-patch bag's.
TAPE_PATCHES = 1024


@dataclass(frozen=True)
class TrainConfig(Config):
    epochs: int = ranged(20, "[0, inf)")
    learning_rate: float = ranged(2e-4, "(0, inf)")
    weight_decay: float = ranged(1e-5, "[0, inf)")
    accumulation: int = ranged(32, "[1, inf)")
    seed: int = ranged(0, "[0, 18446744073709551616)")  # [0, 2**64): the dropout key keeps 64 bits
    fusion: FusionConfig = field(default_factory=FusionConfig)
    snn_hidden: int = ranged(SNN_HIDDEN_DEFAULT, "[1, inf)")
    dropout: float = ranged(DROPOUT_DEFAULT, "[0, 1)")
    loss_alpha: float = ranged(0.0, "[0, 1)")


@dataclass(frozen=True)
class CvConfig(Config):
    folds: int = ranged(5, "[1, inf)")
    ratio: float = ranged(0.2, "(0, 1)")
    jobs: int = ranged(1, "[1, inf)")


@dataclass
class AdamState:
    step_count: int = 0
    skipped: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> dict[str, np.ndarray]:
    """One Adam update with L2 decay folded into the gradient (lambda * theta).

    Returns fresh parameter arrays and leaves ``params`` and ``grads`` as they
    were. The moments in ``state`` are updated in place after the first step,
    through two scratch buffers sized to the largest block; each element's
    arithmetic is that of the plain expressions in the comments. A gradient
    block with a non-finite entry, or whose sum of squares overflows (so a
    square could overflow the second moment), skips the whole step (logged),
    leaving params and state untouched.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the finding, reported below
        for name, g in grads.items():
            flat = g.reshape(-1)
            if not np.isfinite(np.dot(flat, flat)):
                state.skipped += 1
                log.warning(
                    "skipping update %d: non-finite or overflowing gradient in %s", state.step_count + 1, name
                )
                return params
    b1, b2 = ADAM_BETAS
    state.step_count += 1
    t = state.step_count
    size = max((theta.size for theta in params.values()), default=0)
    g_buf, s_buf = np.empty(size), np.empty(size)
    out: dict[str, np.ndarray] = {}
    for name, theta in params.items():
        g = g_buf[: theta.size].reshape(theta.shape)
        s = s_buf[: theta.size].reshape(theta.shape)
        np.add(grads[name], np.multiply(weight_decay, theta, out=s), out=g)  # g = grad + wd * theta
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            state.m[name] = m = (1 - b1) * g
            state.v[name] = v = (1 - b2) * g * g
        else:  # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            v += np.multiply(s, g, out=s)
        np.sqrt(np.divide(v, 1 - b2**t, out=s), out=s)  # s = sqrt(v_hat) + eps
        s += ADAM_EPS
        np.multiply(lr, np.divide(m, 1 - b1**t, out=g), out=g)  # g = lr * m_hat / s
        g /= s
        out[name] = theta - g
    return out


# ---------------------------------------------------------------------------
# window and single-sample passes


def window_losses(
    samples: list[BagSample],
    arrays: dict,
    spec: ModelSpec,
    labels: list[survival.SurvivalLabel],
    dropout: float = 0.0,
    dropout_key: tuple | None = None,
    loss_alpha: float = 0.0,
) -> nk.Tensor:
    """The (1, B) row of training NLLs of a window's samples: forward, sigmoid, discrete-time NLL.

    One forward pass covers the window (see ``window_logits``); ``dropout_key``
    is (seed, step) for one sample or (seed, steps) with one step per sample.
    Taped when ``arrays`` holds tape leaves, untaped when it holds raw
    arrays (see ``bind_model``). With ``dropout=0`` each loss equals the evaluation-mode loss.
    """
    logits = window_logits(
        [s.patches for s in samples],
        [s.genomic for s in samples],
        arrays,
        spec,
        dropout_p=dropout,
        dropout_key=dropout_key,
    )
    return survival.nll_loss(nk.sigmoid(logits), labels, alpha=loss_alpha)


def tape_spans(bag_sizes: list[int], max_patches: int) -> list[tuple[int, int]]:
    """Cut a window into consecutive (start, stop) runs of at most ``max_patches`` padded columns.

    A run pads each of its samples to its largest bag, so it holds samples x
    widest bag columns. A run grows while the next bag keeps that within the
    bound, and a bag larger than the bound is a run by itself.
    """
    spans: list[tuple[int, int]] = []
    start, widest = 0, 0
    for i, n in enumerate(bag_sizes):
        widest = max(widest, n)
        if i > start and (i - start + 1) * widest > max_patches:
            spans.append((start, i))
            start, widest = i, n
    if bag_sizes:
        spans.append((start, len(bag_sizes)))
    return spans


def window_loss_and_grads(
    samples: list[BagSample],
    arrays: dict[str, np.ndarray],
    spec: ModelSpec,
    labels: list[survival.SurvivalLabel],
    dropout: float = 0.0,
    dropout_key: tuple | None = None,
    loss_alpha: float = 0.0,
) -> tuple[list[float], dict[str, np.ndarray]]:
    """Forward + backward of ``window_losses`` (same arguments).

    Returns each sample's loss and the gradient of their mean, which is the
    mean of the per-sample gradients, per parameter. The samples of each
    ``tape_spans`` run of at most ``TAPE_PATCHES`` padded columns share one
    tape and one backward of their share of the mean loss; the gradients of
    several runs are summed.
    """
    losses: list[float] = []
    grads: dict[str, np.ndarray] | None = None
    for start, stop in tape_spans([s.patches.shape[1] for s in samples], TAPE_PATCHES):
        key = dropout_key
        if stop - start < len(samples) and key is not None:
            key = (key[0], key[1][start:stop])
        tape = nk.Tape()
        leaves = {name: tape.leaf(arr) for name, arr in arrays.items()}
        run = window_losses(samples[start:stop], leaves, spec, labels[start:stop], dropout, key, loss_alpha)
        g = nk.backward(nk.scale(nk.sum_all(run), 1.0 / len(samples)), tape)
        losses += run.data[0].tolist()
        if grads is None:
            grads = {name: g[leaf] for name, leaf in leaves.items()}
        else:
            grads = {name: grads[name] + g[leaf] for name, leaf in leaves.items()}
    return losses, grads


def sample_loss_and_grads(
    sample: BagSample,
    arrays: dict[str, np.ndarray],
    spec: ModelSpec,
    label: survival.SurvivalLabel,
    *args,
    **kwargs,
) -> tuple[float, dict[str, np.ndarray]]:
    """``window_loss_and_grads`` of a one-sample window: one sample and one label."""
    losses, grads = window_loss_and_grads([sample], arrays, spec, [label], *args, **kwargs)
    return losses[0], grads


def predict(sample: BagSample, arrays: dict[str, np.ndarray], spec: ModelSpec) -> survival.SurvivalPrediction:
    """Evaluation-mode prediction (no tape, no dropout)."""
    logits = forward_logits(sample.patches, sample.genomic, arrays, spec)
    return survival.SurvivalPrediction.from_hazards(nk.sigmoid(logits).data.ravel())


# ---------------------------------------------------------------------------
# fold training


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    c_index: float | None  # None when no validation pair is comparable
    auc: float | None


@dataclass
class FoldResult:
    fold: int
    arrays: dict[str, np.ndarray]
    spec: ModelSpec
    history: list[EpochMetrics]
    bin_edges: np.ndarray
    auc_horizon: float
    best_epoch: int | None
    best_c_index: float | None

    @property
    def final_c_index(self) -> float | None:
        return self.history[-1].c_index if self.history else None

    @property
    def final_auc(self) -> float | None:
        return self.history[-1].auc if self.history else None


def _median_uncensored_time(samples: list[BagSample]) -> float:
    times = [s.t for s in samples if s.event == 1]
    if not times:
        times = [s.t for s in samples]
    return float(np.median(times))


def evaluate(
    samples: list[BagSample],
    arrays: dict[str, np.ndarray],
    spec: ModelSpec,
    horizon: float,
) -> tuple[list[float], float | None, float | None]:
    """Risks plus C-index and fixed-horizon AUC for a sample list: validation and ``mgct eval``.

    Scores the samples untaped, in the ``tape_spans`` runs that training
    would put on one tape, binding the model once per call; each risk is
    ``predict``'s for its sample, up to round-off.
    """
    t = bind_model(arrays)
    risks: list[float] = []
    for start, stop in tape_spans([s.patches.shape[1] for s in samples], TAPE_PATCHES):
        run = samples[start:stop]
        logits = window_logits([s.patches for s in run], [s.genomic for s in run], t, spec)
        risks += [survival.SurvivalPrediction.from_hazards(h).risk for h in nk.sigmoid(logits).data.T]
    labels = [survival.SurvivalLabel(s.t, s.event) for s in samples]
    return risks, survival.concordance_index(risks, labels), survival.binary_auc(risks, labels, horizon)


def train_fold(
    dataset: Dataset,
    split: FoldSplit,
    config: TrainConfig,
    ablation: AblationSpec = AblationSpec(),
) -> FoldResult:
    """Train one Monte Carlo fold and score the held-out samples per epoch.

    Time bins and the AUC horizon are derived from training-fold labels only.
    """
    config.validate()
    train_samples = dataset.subset(split.train_ids)
    val_samples = dataset.subset(split.val_ids)
    if not train_samples:
        raise ValueError(f"fold {split.fold}: empty training set")

    train_labels = [survival.SurvivalLabel(s.t, s.event) for s in train_samples]
    edges = survival.time_bin_edges(train_labels, config.fusion.bins)
    horizon = _median_uncensored_time(train_samples)
    label_of = {
        s.sample_id: survival.SurvivalLabel(s.t, s.event, bin=survival.assign_bin(s.t, edges))
        for s in train_samples
    }

    spec = ModelSpec(
        d_in=dataset.d_in,
        gene_lengths=tuple(dataset.gene_lengths),
        snn_hidden=config.snn_hidden,
        fusion=config.fusion,
        ablation=ablation,
    )
    arrays = init_model_arrays(spec, seed=[config.seed, split.fold])
    state = AdamState()
    history: list[EpochMetrics] = []
    dropout_step = 0

    for epoch in range(config.epochs):
        order_rng = np.random.default_rng([config.seed, split.fold, epoch])
        order = order_rng.permutation(len(train_samples))
        loss_sum = 0.0
        for start in range(0, len(order), config.accumulation):
            window = [train_samples[i] for i in order[start : start + config.accumulation]]
            losses, grads = window_loss_and_grads(
                window,
                arrays,
                spec,
                [label_of[s.sample_id] for s in window],
                dropout=config.dropout,
                dropout_key=(config.seed, range(dropout_step, dropout_step + len(window))),
                loss_alpha=config.loss_alpha,
            )
            dropout_step += len(window)
            loss_sum = sum(losses, loss_sum)  # left to right, one sample at a time
            arrays = adam_step(
                arrays,
                grads,
                state,
                lr=config.learning_rate,
                weight_decay=config.weight_decay,
            )

        if val_samples:
            _, ci, auc = evaluate(val_samples, arrays, spec, horizon)
        else:
            ci, auc = None, None
        history.append(EpochMetrics(epoch=epoch, loss=loss_sum / len(train_samples), c_index=ci, auc=auc))

    scored = [(em.c_index, em.epoch) for em in history if em.c_index is not None]
    best_c, best_epoch = max(scored) if scored else (None, None)
    return FoldResult(
        fold=split.fold,
        arrays=arrays,
        spec=spec,
        history=history,
        bin_edges=edges,
        auc_horizon=horizon,
        best_epoch=best_epoch,
        best_c_index=best_c,
    )


# ---------------------------------------------------------------------------
# cross-validation and the ablation matrix


@dataclass
class CrossValidationResult:
    folds: list[FoldResult]
    errors: dict[int, str]
    c_index_mean: float | None
    c_index_std: float | None
    auc_mean: float | None
    auc_std: float | None


def _aggregate(values: list[float | None]) -> tuple[float | None, float | None]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None
    return float(np.mean(defined)), float(np.std(defined))  # population std


def cross_validate(
    dataset: Dataset, cv: CvConfig, config: TrainConfig, ablation: AblationSpec = AblationSpec()
) -> CrossValidationResult:
    """Run ``train_fold`` over ``cv.folds`` Monte Carlo splits and aggregate final metrics (``_cross_validate_all``)."""
    return _cross_validate_all(dataset, cv, config, [ablation])[0]


@dataclass
class AblationRow:
    model: str
    ablation: AblationSpec
    cv: CrossValidationResult


def run_ablation_matrix(dataset: Dataset, cv: CvConfig, config: TrainConfig) -> list[AblationRow]:
    """Cross-validate every preset A..E on the same splits, all (preset, fold) pairs on one queue."""
    names = AblationSpec.preset_names()
    results = _cross_validate_all(dataset, cv, config, [AblationSpec.preset(name) for name in names])
    return [AblationRow(name, AblationSpec.preset(name), result) for name, result in zip(names, results)]


def _cross_validate_all(dataset: Dataset, cv: CvConfig, config: TrainConfig, ablations: list) -> list:
    """Cross-validate each ablation on the same splits, each (ablation, fold) pair one task of ``forks.run_tasks``.

    The pairs run on ``cv.jobs`` children, bitwise the same for any
    ``cv.jobs``. A fold that fails, or whose child dies, is recorded in its
    ablation's ``errors`` (never silently dropped) and left out of its
    aggregates; no other pair is touched.
    """
    splits = monte_carlo_splits(dataset.ids, cv.folds, ratio=cv.ratio, seed=config.seed)
    tasks = [(f"fold {sp.fold}", partial(train_fold, dataset, sp, config, ab)) for ab in ablations for sp in splits]
    outcomes = iter(run_tasks(tasks, cv.jobs))
    summaries = []
    for _ in ablations:
        results, errors = [], {}
        for sp, outcome in zip(splits, outcomes):
            if isinstance(outcome, Exception):
                log.warning("fold %d failed: %s", sp.fold, outcome)
                errors[sp.fold] = str(outcome)
            else:
                results.append(outcome)
        ci_mean, ci_std = _aggregate([r.final_c_index for r in results])
        auc_mean, auc_std = _aggregate([r.final_auc for r in results])
        summaries.append(CrossValidationResult(results, errors, ci_mean, ci_std, auc_mean, auc_std))
    return summaries


def parameter_count(arrays: dict[str, np.ndarray]) -> int:
    return int(sum(a.size for a in arrays.values()))


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value: float | None) -> str:
    return "nan" if value is None else repr(float(value))


def write_metrics_csv(path, folds: list[FoldResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "fold", "c_index", "auc", "loss"])
        for fr in folds:
            for em in fr.history:
                writer.writerow([em.epoch, fr.fold, _fmt(em.c_index), _fmt(em.auc), _fmt(em.loss)])


def write_ablation_csv(path, rows: list[AblationRow]) -> None:
    toggles = [f.name for f in fields(AblationSpec)]
    stats = ["c_index_mean", "c_index_std", "auc_mean", "auc_std"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", *toggles, *stats])
        for row in rows:
            flags = [int(getattr(row.ablation, name)) for name in toggles]
            writer.writerow([row.model, *flags, *(_fmt(getattr(row.cv, name)) for name in stats)])
