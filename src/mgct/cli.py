"""Command-line entry point.

Subcommands: ``synth`` (write a synthetic dataset), ``train`` (one fold),
``cv`` (Monte Carlo cross-validation), ``ablate`` (model presets A..E),
``eval`` (score a checkpoint, emit Kaplan-Meier curves and a log-rank
report), ``verify`` (numerical invariant suite).

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config error.
Run directories are timestamp+seed named and never overwritten. ``MGCT_SEED``
is the seed fallback when neither flag nor config provides one.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import checkpoint as ckpt
from . import dataio, survival, verify
from .mgct_core import AblationSpec, Config, ConfigError, FusionConfig, ModelSpec, from_json, model_layout
from .train import (
    CvConfig,
    TrainConfig,
    cross_validate,
    evaluate,
    predict,  # unused here; perfbench wraps it at ("cli", "predict")
    run_ablation_matrix,
    write_ablation_csv,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# config file: one section per config dataclass, defaults and ranges from its fields


@dataclass(frozen=True)
class DatasetConfig(Config):
    manifest: str = ""
    category_map: str = ""  # default: category_map.json beside the manifest


SECTIONS = {
    "dataset": DatasetConfig,
    "train": TrainConfig,  # every field but ``fusion``, which is the model section
    "model": FusionConfig,
    "cv": CvConfig,
    "ablation": AblationSpec,
}


def validate_config(doc) -> tuple[dict, set[str]]:
    """Decode a config document, rejecting unknown sections and bad keys.

    Returns the section configs (``train`` carries ``model`` as its fusion)
    and the set of ``section.key`` names the document set explicitly.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    problems = [f"unknown section {name!r}" for name in doc if name not in SECTIONS]
    sections = {}
    for name, cls in SECTIONS.items():
        skip = ("fusion",) if cls is TrainConfig else ()
        try:
            sections[name] = from_json(cls, doc.get(name, {}), name, skip)
        except ConfigError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    sections["train"] = replace(sections["train"], fusion=sections["model"])
    provided = {f"{name}.{key}" for name, values in doc.items() for key in values}
    return sections, provided


def load_config(path) -> tuple[dict, set[str]]:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, an integer over Python's digit limit, or too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(doc)


def resolve_seed(flag_seed: int | None, config_seed: int | None = None, fallback: int = 0) -> int:
    """Seed precedence: ``--seed`` flag, config value, ``MGCT_SEED``, fallback."""
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get("MGCT_SEED")
    if not env:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"MGCT_SEED must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# run directories and dataset loading


def make_run_dir(base, seed: int) -> Path:
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    candidate = base / f"{stamp}-seed{seed}"
    n = 1
    while candidate.exists():
        n += 1
        candidate = base / f"{stamp}-seed{seed}-{n}"
    candidate.mkdir()
    return candidate


def load_dataset(cfg: DatasetConfig) -> dataio.Dataset:
    if not cfg.manifest:
        raise ConfigError("dataset.manifest is required for this command")
    cmap_path = cfg.category_map or str(Path(cfg.manifest).parent / "category_map.json")
    return dataio.load_samples(cfg.manifest, dataio.read_category_map(cmap_path))


def checkpoint_meta(result, dataset: dataio.Dataset) -> dict:
    return {
        "model": result.spec.to_dict(),
        "bin_edges": [float(x) for x in result.bin_edges],
        "auc_horizon": result.auc_horizon,
        "categories": list(dataset.category_map.categories),
        "fold": result.fold,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    seed = resolve_seed(args.seed)
    rm = dataio.RiskModel(censor_rate=args.censor_rate)
    try:  # synthesize checks its arguments and writes nothing
        ds = dataio.synthesize(args.n, d_in=args.d_in, s_categories=args.categories, risk_model=rm, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"synth: {exc} (seed {seed})") from None
    manifest = dataio.write_dataset(ds, args.out)
    events = sum(s.event for s in ds.samples)
    print(f"wrote {len(ds.samples)} samples to {manifest}")
    print(f"observed deaths: {events}, censored: {len(ds.samples) - events}")
    print(f"bag width d_in={ds.d_in}, categories={len(ds.category_map.categories)}")
    return EXIT_OK


def _prepare_run(args):
    """Load the config, apply ``--seed``, ``--jobs`` and ``--model`` to its
    sections and check them; then load the dataset, check that ``cv.ratio``
    leaves samples on both sides of a split, and make the run directory.

    ``config.json`` in the run directory echoes the config file, flags
    unapplied; ``effective_config.json`` is the config the run used, flags
    (and an ``MGCT_SEED`` fallback) applied.
    """
    cfg, provided = load_config(args.config)
    echo = _config_echo(cfg)
    train = cfg["train"]
    seed = resolve_seed(args.seed, train.seed if "train.seed" in provided else None, train.seed)
    cfg["train"] = replace(train, seed=seed)
    if getattr(args, "jobs", None) is not None:
        cfg["cv"] = replace(cfg["cv"], jobs=args.jobs)
    if getattr(args, "model", None):
        cfg["ablation"] = AblationSpec.preset(args.model)
    problems = [f"{name}.{p}" for name, section in cfg.items() for p in section.problems()]
    if problems:
        raise ConfigError("; ".join(problems))
    dataset = load_dataset(cfg["dataset"])
    try:
        dataio.holdout_count(len(dataset.samples), cfg["cv"].ratio)
    except ValueError as exc:
        raise ConfigError(f"cv.ratio: {exc}") from None
    run_dir = make_run_dir(args.out, seed)
    (run_dir / "config.json").write_text(echo)
    (run_dir / "effective_config.json").write_text(_config_echo(cfg))
    return cfg, dataset, run_dir


def _config_echo(cfg: dict) -> str:
    echo = {name: asdict(section) for name, section in cfg.items()}
    del echo["train"]["fusion"]  # echoed as the model section
    return json.dumps(echo, indent=2, sort_keys=True) + "\n"


def cmd_train(args) -> int:
    cfg, dataset, run_dir = _prepare_run(args)
    train_cfg = cfg["train"]
    splits = dataio.monte_carlo_splits(dataset.ids, 1, ratio=cfg["cv"].ratio, seed=train_cfg.seed)
    from .train import train_fold

    result = train_fold(dataset, splits[0], train_cfg, cfg["ablation"])
    write_metrics_csv(run_dir / "metrics.csv", [result])
    ckpt.save_checkpoint(run_dir / "fold_0.ckpt", result.arrays, checkpoint_meta(result, dataset))
    final = result.final_c_index
    print(f"run dir: {run_dir}")
    print(f"final c-index: {final if final is not None else 'undefined'}")
    if result.best_c_index is not None:
        print(f"best c-index: {result.best_c_index} at epoch {result.best_epoch} (last epoch is the checkpoint)")
    return EXIT_OK


def cmd_cv(args) -> int:
    cfg, dataset, run_dir = _prepare_run(args)
    cv = cross_validate(dataset, cfg["cv"], cfg["train"], cfg["ablation"])
    write_metrics_csv(run_dir / "metrics.csv", cv.folds)
    for fr in cv.folds:
        ckpt.save_checkpoint(run_dir / f"fold_{fr.fold}.ckpt", fr.arrays, checkpoint_meta(fr, dataset))
    print(f"run dir: {run_dir}")
    if cv.errors:
        for fold, message in sorted(cv.errors.items()):
            print(f"fold {fold} FAILED: {message}", file=sys.stderr)
    print(f"c-index: {cv.c_index_mean} +/- {cv.c_index_std}")
    print(f"auc:     {cv.auc_mean} +/- {cv.auc_std}")
    return EXIT_RUNTIME if cv.errors else EXIT_OK


def cmd_ablate(args) -> int:
    cfg, dataset, run_dir = _prepare_run(args)
    rows = run_ablation_matrix(dataset, cfg["cv"], cfg["train"])
    write_ablation_csv(run_dir / "ablation.csv", rows)
    print(f"run dir: {run_dir}")
    print(f"{'model':<6}{'c-index':>22}{'auc':>22}")
    failed = False
    for row in rows:
        cv = row.cv
        failed = failed or bool(cv.errors)
        ci = "undefined" if cv.c_index_mean is None else f"{cv.c_index_mean:.4f} +/- {cv.c_index_std:.4f}"
        auc = "undefined" if cv.auc_mean is None else f"{cv.auc_mean:.4f} +/- {cv.auc_std:.4f}"
        print(f"{row.model:<6}{ci:>22}{auc:>22}")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_eval(args) -> int:
    """Score a checkpoint on a manifest's cohort; print C-index and AUC, write KM curves and a log-rank report.

    The cohort is scored as validation is, by ``train.evaluate`` in
    ``tape_spans`` runs, so memory stays bounded by ``train.TAPE_PATCHES``.
    """
    arrays, meta = ckpt.load_checkpoint(args.checkpoint)
    horizon = meta.get("auc_horizon")
    if "model" not in meta or type(horizon) not in (int, float) or not 0 < horizon < math.inf:
        raise ckpt.CheckpointError(f"{args.checkpoint}: meta needs a model and a finite positive auc_horizon")
    spec = ModelSpec.from_dict(meta["model"])
    shapes = {name: shape for name, shape, _ in model_layout(spec)}  # draws nothing
    problems = [f"missing block {name!r}" for name in shapes if name not in arrays]
    problems += [f"unexpected block {name!r}" for name in arrays if name not in shapes]
    problems += [
        f"block {name!r} is {arrays[name].shape}, the model needs {shape}"
        for name, shape in shapes.items()
        if name in arrays and arrays[name].shape != shape
    ]
    if problems:
        raise ckpt.CheckpointError(f"{args.checkpoint}: " + "; ".join(problems))
    dataset = load_dataset(DatasetConfig(args.manifest, args.category_map or ""))
    if len(dataset.samples) < 2:
        raise dataio.IngestError(f"{args.manifest}: eval needs at least 2 samples to split into risk groups, got 1")
    if (dataset.d_in, tuple(dataset.gene_lengths)) != (spec.d_in, spec.gene_lengths):
        raise ckpt.CheckpointError(
            f"manifest bag width d_in={dataset.d_in} and genomic category lengths {dataset.gene_lengths} "
            f"do not match checkpoint d_in={spec.d_in} and lengths {list(spec.gene_lengths)}"
        )
    categories = list(dataset.category_map.categories)  # each feeds its own genomic network
    if meta.get("categories") != categories:
        raise ckpt.CheckpointError(
            f"{args.checkpoint}: checkpoint categories {meta.get('categories')!r} "
            f"do not match the category map's {categories!r}"
        )

    risks, ci, auc = evaluate(dataset.samples, arrays, spec, horizon)
    labels = [survival.SurvivalLabel(s.t, s.event) for s in dataset.samples]
    print(f"samples: {len(labels)}")
    print(f"c-index: {ci if ci is not None else 'undefined'}")
    print(f"auc(horizon={horizon:.4g} months): {auc if auc is not None else 'undefined'}")

    low_idx, high_idx = survival.stratify(risks, labels)
    low = [labels[i] for i in low_idx]
    high = [labels[i] for i in high_idx]
    out_prefix = Path(args.km_out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    for name, group in (("low", low), ("high", high)):
        path = out_prefix.parent / f"{out_prefix.name}_{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("time,survival\n")
            for t, s in survival.kaplan_meier(group) if group else ():  # an empty group: header only
                fh.write(f"{t!r},{s!r}\n")
    if low and high:
        result = survival.logrank_test(low, high)
        statistic, p_value = result.statistic, result.p_value
    else:  # ties at the median go low, so a constant risk leaves the high group empty
        statistic = p_value = None
    report = {
        "n_low": len(low),
        "n_high": len(high),
        "statistic": statistic,
        "p_value": p_value,
        "defined": statistic is not None,
    }
    (out_prefix.parent / f"{out_prefix.name}_logrank.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    if statistic is not None:
        print(f"log-rank: statistic={statistic:.6g} p={p_value:.6g}")
    elif low and high:
        print("log-rank: undefined (no events)")
    else:
        print("log-rank: undefined (one risk group is empty)")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks()
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<34} {detail}")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgct", description="Multimodal survival prediction with mutual-guided cross-attention."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=200, help="number of samples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d-in", dest="d_in", type=int, default=16, help="patch embedding width")
    p.add_argument("--censor-rate", type=float, default=dataio.RiskModel().censor_rate)
    p.add_argument("--categories", type=int, default=6, help="genomic category count")
    p.set_defaults(fn=cmd_synth)

    for name, fn, extra in (
        ("train", cmd_train, True),
        ("cv", cmd_cv, True),
        ("ablate", cmd_ablate, False),
    ):
        p = sub.add_parser(name, help=f"{name} using a JSON config")
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="runs", help="base directory for run outputs")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if extra:
            p.add_argument("--model", default=None, help="ablation preset A..E")
        if name in ("cv", "ablate"):
            p.add_argument("--jobs", type=int, default=None, help="parallel fold workers")
        p.set_defaults(fn=fn)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--km-out", dest="km_out", required=True, help="prefix for KM/log-rank outputs")
    p.add_argument("--category-map", dest="category_map", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the numerical invariant suite")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, dataio.IngestError, dataio.FormatError, ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # such as numpy's "Unable to allocate ..." for an oversized model
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
