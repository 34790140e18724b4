"""Print the program's deterministic outputs and one hash over all of them.

Two checkouts that print the same final hash give the same outputs, bitwise,
on everything listed here:

- ``mgct verify`` stdout;
- for presets A-E and a residual two-head E: the parameter digest and the
  per-epoch loss, C-index and AUC of a 2-epoch ``train_fold`` on
  ``synthesize(40, seed=1)``, and the ``evaluate`` and ``predict`` risks of
  the trained fold on its validation samples;
- acceptance criterion 2's patch-permutation deviation;
- the files the README promises are byte-identical, from the CLI run in a
  temporary directory on ``mgct synth --n 24 --seed 3`` with a tiny model
  (2 epochs, 2 folds, ``loss_alpha`` 0.25): the ``metrics.csv``,
  ``fold_*.ckpt``, ``config.json`` and ``effective_config.json`` of
  ``mgct cv --model E``, the ``ablation.csv`` of ``mgct ablate``, and
  ``mgct eval`` of ``fold_0.ckpt``: its stdout, KM CSVs and log-rank JSON.
  Contents are hashed, not the timestamped run-directory names.

``mgct cv`` and ``mgct ablate`` also run at ``--jobs 2``, each (preset, fold)
pair in a forked child; their files must be byte-identical to the ``--jobs
1`` files (``effective_config.json`` aside, which echoes the flag), or the
script names the files that differ and exits 1. These runs add no line to
the hash.

Floats are printed with ``repr``, so a change in the last bit shows. Run it
from any directory: ``python tools/output_digest.py``; the program is
imported from the ``src/`` beside this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import chdir, redirect_stdout
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mgct import cli, dataio, train  # noqa: E402
from mgct.mgct_core import AblationSpec, FusionConfig, ModelSpec  # noqa: E402
from mgct.verify import patch_permutation_deviation  # noqa: E402

CONFIG = train.TrainConfig(
    epochs=2,
    accumulation=8,
    seed=0,
    fusion=FusionConfig(s1=1, s2=2, d=8, heads=1, d_attn=6, d_ff=12, bins=4),
    snn_hidden=8,
    dropout=0.25,
)
# (label, preset, fusion config)
MODELS = [(p, p, CONFIG.fusion) for p in AblationSpec.preset_names()]
MODELS.append(("E-residual-2head", "E", replace(CONFIG.fusion, heads=2, residual=True)))
# the CLI runs' config file: the tiny model above, relative paths
RUN_JSON = {
    "dataset": {"manifest": "cohort/manifest.csv"},
    "train": {"epochs": 2, "accumulation": 8, "seed": 0, "snn_hidden": 8, "dropout": 0.25, "loss_alpha": 0.25},
    "model": {"s1": 1, "s2": 2, "d": 8, "heads": 1, "d_attn": 6, "d_ff": 12, "bins": 4},
    "cv": {"folds": 2, "jobs": 1},
}
# files of the --jobs 2 runs that differ from those of the --jobs 1 runs
JOBS_MISMATCHES: list[str] = []


def parameter_digest(arrays) -> str:
    h = hashlib.sha256()
    for name, arr in arrays.items():
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def lines():
    """Yield the output lines, one section after another."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify"])
    yield f"mgct verify exit {code}"
    yield from out.getvalue().splitlines()

    ds = dataio.synthesize(40, seed=1)
    split = dataio.monte_carlo_splits(ds.ids, 1, ratio=0.2, seed=CONFIG.seed)[0]
    val = ds.subset(split.val_ids)
    for label, preset, fusion in MODELS:
        result = train.train_fold(ds, split, replace(CONFIG, fusion=fusion), AblationSpec.preset(preset))
        yield f"{label} params {parameter_digest(result.arrays)}"
        for m in result.history:
            yield f"{label} epoch {m.epoch} loss {m.loss!r} c-index {m.c_index!r} auc {m.auc!r}"
        risks, ci, auc = train.evaluate(val, result.arrays, result.spec, result.auc_horizon)
        yield f"{label} evaluate risks {risks!r} c-index {ci!r} auc {auc!r}"
        yield f"{label} predict risks {[train.predict(s, result.arrays, result.spec).risk for s in val]!r}"

    spec = ModelSpec(d_in=16, gene_lengths=(8,) * 6, snn_hidden=32, fusion=FusionConfig())
    worst = patch_permutation_deviation(spec, array_seed=11, data_seed=21, n_patches=30, n_perms=100)
    yield f"criterion 2 deviation {worst!r}"
    yield from cli_lines()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def file_line(path: Path) -> str:
    return f"{path.name} sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}"


def cli_lines():
    """Exit codes, ``mgct eval`` stdout and one hash per output file of the CLI runs."""
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        yield f"mgct synth exit {run_cli(['synth', '--out', 'cohort', '--n', '24', '--seed', '3'])[0]}"
        Path("run.json").write_text(json.dumps(RUN_JSON))
        for command in (["cv", "--model", "E"], ["ablate"]):
            code, _ = run_cli([*command, "--config", "run.json", "--out", command[0]])
            yield f"mgct {command[0]} exit {code}"
            (run_dir,) = Path(command[0]).iterdir()  # the one timestamped run directory
            for path in sorted(run_dir.iterdir()):
                yield f"mgct {command[0]} {file_line(path)}"
            forked = f"{command[0]}-jobs2"
            forked_code, _ = run_cli([*command, "--config", "run.json", "--out", forked, "--jobs", "2"])
            (forked_dir,) = Path(forked).iterdir()
            if forked_code != code:
                JOBS_MISMATCHES.append(f"mgct {command[0]} exit {forked_code} at --jobs 2, {code} at --jobs 1")
            names = {path.name for path in run_dir.iterdir()} | {path.name for path in forked_dir.iterdir()}
            for name in sorted(names - {"effective_config.json"}):
                if not all((d / name).is_file() for d in (run_dir, forked_dir)) or (
                    (run_dir / name).read_bytes() != (forked_dir / name).read_bytes()
                ):
                    JOBS_MISMATCHES.append(f"mgct {command[0]} {name} differs at --jobs 2")
        checkpoint = str(next(Path("cv").iterdir()) / "fold_0.ckpt")
        code, stdout = run_cli(["eval", "--checkpoint", checkpoint, "--manifest", "cohort/manifest.csv",
                                "--km-out", "km/curves"])
        yield f"mgct eval exit {code}"
        yield from stdout.splitlines()
        for path in sorted(Path("km").iterdir()):
            yield f"mgct eval {file_line(path)}"


def main() -> int:
    combined = hashlib.sha256()
    for line in lines():
        print(line)
        combined.update(line.encode() + b"\n")
    print(f"combined {combined.hexdigest()}")
    for mismatch in JOBS_MISMATCHES:
        print(f"error: {mismatch}", file=sys.stderr)
    return 1 if JOBS_MISMATCHES else 0


if __name__ == "__main__":
    sys.exit(main())
