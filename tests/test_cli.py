"""End-to-end command-line tests (in-process, checking exit codes and files)."""

import csv
import ctypes
import json
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import mgct
from mgct import checkpoint, cli, dataio, survival, train, verify, numkit as nk
from mgct.cli import SECTIONS, main, validate_config, ConfigError
from mgct.mgct_core import AblationSpec, FusionConfig, ModelSpec, init_model_arrays, model_layout
from mgct.train import TrainConfig

TINY = {
    "train": {"epochs": 1, "accumulation": 4, "snn_hidden": 8, "dropout": 0.1},
    "model": {"s1": 1, "s2": 1, "d": 8, "heads": 1, "d_attn": 6, "d_ff": 12, "bins": 4},
    "cv": {"folds": 2, "ratio": 0.25, "jobs": 1},
}


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--n", "16", "--seed", "3", "--d-in", "5"]) == 0
    return out


def write_config(tmp_path, dataset_dir, **extra) -> str:
    doc = json.loads(json.dumps(TINY))
    doc["dataset"] = {"manifest": str(dataset_dir / "manifest.csv")}
    for section, values in extra.items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_dirs(base):
    return sorted(p for p in base.iterdir() if p.is_dir())


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """``python <args>`` in a child process that imports this checkout's ``mgct``; text output."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], text=True, env=env, timeout=120, **kwargs)


def run_mgct(argv) -> subprocess.CompletedProcess:
    """``mgct <argv>`` in a child process, where an uncaught exception would print its traceback."""
    return run_python(["-m", "mgct.cli", *argv], capture_output=True)


def empty_every_bag(dataset_dir) -> Path:
    """Rewrite each bag of a dataset as a bare header declaring d_in = 0; returns the first bag's path."""
    bags = [d.bag_path for d in dataio.read_manifest(dataset_dir / "manifest.csv")]
    for bag in bags:
        dataio.write_bag(bag, np.zeros((0, 4)))
    return bags[0]


def eval_edited_checkpoint(tmp_path, dataset_dir, capsys, edit) -> int:
    """Exit code of ``mgct eval`` on a trained fold's checkpoint after ``edit(arrays, meta)``."""
    cfg = write_config(tmp_path, dataset_dir)
    runs = tmp_path / "runs"
    assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
    path = run_dirs(runs)[0] / "fold_0.ckpt"
    arrays, meta = checkpoint.load_checkpoint(path)
    edit(arrays, meta)
    checkpoint.save_checkpoint(path, arrays, meta)
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(path), "--manifest", str(dataset_dir / "manifest.csv")]
    return main(argv + ["--km-out", str(tmp_path / "km" / "x")])


# (section, values): the last key named is the one out of range
BAD_VALUES = [
    ("train", {"epochs": -1}),
    ("train", {"learning_rate": 0.0}),
    ("train", {"weight_decay": -1.0}),
    ("train", {"accumulation": 0}),
    ("train", {"dropout": 1.0}),
    ("train", {"loss_alpha": 1.0}),
    ("train", {"snn_hidden": 0}),
    ("train", {"seed": -1}),
    ("model", {"s1": 0}),
    ("model", {"bins": 1}),
    ("model", {"heads": 0}),
    ("model", {"d": 10, "heads": 3}),
    ("cv", {"folds": 0}),
    ("cv", {"ratio": 1.0}),
    ("cv", {"jobs": 0}),
    ("train", {"seed": 2**64}),  # the dropout key keeps 64 bits of the seed
]


class TestSynth:
    def test_manifest_row_count(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--n", "50", "--seed", "1"]) == 0
        rows = (out / "manifest.csv").read_text().strip().split("\n")
        assert len(rows) == 51
        assert "wrote 50 samples" in capsys.readouterr().out

    def test_rerun_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--n", "10", "--seed", "9"]) == 0
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
        for sub in ("bags", "genomic"):
            for fa in sorted((a / sub).iterdir()):
                assert fa.read_bytes() == (b / sub / fa.name).read_bytes()

    def test_zero_censoring_all_events(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--n", "12", "--seed", "2", "--censor-rate", "0"]) == 0
        with open(out / "manifest.csv") as fh:
            events = [row["event"] for row in csv.DictReader(fh)]
        assert events == ["1"] * 12

    @pytest.mark.parametrize(
        "flags,env_seed,message",
        [
            (["--n", "2"], None, "n >= 4"),
            (["--seed", "-1"], None, "seed -1"),
            ([], "-1", "seed -1"),
            (["--categories", "0"], None, "category"),
            (["--d-in", "0"], None, "d_in"),
        ],
    )
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, flags, env_seed, message):
        if env_seed is not None:
            monkeypatch.setenv("MGCT_SEED", env_seed)
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MGCT_SEED", "77")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--n", "6"]) == 0
        monkeypatch.setenv("MGCT_SEED", "78")
        assert main(["synth", "--out", str(b), "--n", "6"]) == 0
        assert (a / "manifest.csv").read_bytes() != (b / "manifest.csv").read_bytes()


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key train.warmup"):
            validate_config({"train": {"warmup": 5}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            validate_config({"optimizer": {}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            validate_config({"train": {"epochs": "twenty"}})

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="model.bins"):
            validate_config({"model": {"bins": 1}})

    def test_batch_size_fixed(self):
        with pytest.raises(ConfigError, match="batch_size"):
            validate_config({"train": {"batch_size": 2}})

    @pytest.mark.parametrize("section,values", BAD_VALUES)
    def test_range_checked_by_loader_and_dataclass(self, section, values):
        key = list(values)[-1]
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            validate_config({section: values})
        with pytest.raises(ConfigError, match=key):
            SECTIONS[section](**values).validate()

    def test_empty_config_gives_defaults(self):
        sections, provided = validate_config({})
        assert sections["train"] == TrainConfig()
        assert provided == set()

    @pytest.mark.parametrize(
        "model,flags,message",
        [
            ({"d": 10, "heads": 3}, [], "model.heads"),
            ({}, ["--seed", "-1"], "seed"),
            ({}, ["--model", "Z"], "preset"),
            ({}, ["--seed", str(2**64)], "train.seed"),
        ],
    )
    def test_bad_value_exits_2_before_run_dir(self, tmp_path, dataset_dir, capsys, model, flags, message):
        cfg = write_config(tmp_path, dataset_dir, model=model)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not runs.exists()

    @pytest.mark.parametrize("seed", [2**64, 10**300])
    @pytest.mark.parametrize("source", ["config", "flag", "MGCT_SEED"])
    def test_seed_of_2_64_or_more_exits_2_before_run_dir(self, tmp_path, dataset_dir, capsys, monkeypatch, source, seed):
        # 10**300 in a run directory's name was too long for mkdir, which exited 1
        cfg = write_config(tmp_path, dataset_dir, train={"seed": seed} if source == "config" else {})
        flags = ["--seed", str(seed)] if source == "flag" else []
        if source == "MGCT_SEED":
            monkeypatch.setenv("MGCT_SEED", str(seed))
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)] + flags) == 2
        assert "train.seed: value" in capsys.readouterr().err
        assert not runs.exists()

    def test_largest_seed_accepted(self):
        assert TrainConfig(seed=2**64 - 1).problems() == []

    @pytest.mark.parametrize("command,jobs", [("cv", "0"), ("ablate", "-3")])
    def test_bad_jobs_exits_2_before_run_dir(self, tmp_path, dataset_dir, capsys, command, jobs):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main([command, "--config", cfg, "--out", str(runs), "--jobs", jobs]) == 2
        assert "cv.jobs" in capsys.readouterr().err
        assert not runs.exists()

    def test_cli_exit_code_on_bad_config(self, tmp_path, dataset_dir, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"mystery_key": 1}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
        assert "mystery_key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    def test_directory_config_exits_2_naming_it(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["train", "--config", str(tmp_path), "--out", str(runs)]) == 2
        err = capsys.readouterr().err
        assert f"error: config file not found: {tmp_path}" in err and "Traceback" not in err
        assert not runs.exists()

    def test_non_utf8_config_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"train": {"epochs": 1}, "dataset": {"manifest": "\xff.csv"}}')
        with pytest.raises(ConfigError, match=re.escape(f"config {path} is not UTF-8")):
            cli.load_config(path)

    @pytest.mark.parametrize("content", [b"{not json", b'{"Tumor Suppression": ["\xff"]}'])
    def test_malformed_category_map_exits_2_naming_it(self, tmp_path, dataset_dir, capsys, content):
        cmap = dataset_dir / "category_map.json"
        cmap.write_bytes(content)
        cfg = write_config(tmp_path, dataset_dir)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert f"{cmap}: category map is not UTF-8 JSON" in capsys.readouterr().err


# JSON documents whose keys are mostly section and field names, so that the values reach the decoders
CONFIG_KEYS = st.sampled_from(sorted({*SECTIONS, *(f.name for cls in SECTIONS.values() for f in fields(cls)), "x"}))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(CONFIG_KEYS, children, max_size=4),
    max_leaves=12,
)
CONFIG_DOCS = st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=5) | JSON_VALUES


class TestConfigReaderFuzz:
    """Whatever a config holds, the reader decodes it or raises ``ConfigError``."""

    @settings(max_examples=300, deadline=None)
    @given(doc=CONFIG_DOCS)
    def test_any_document_decodes_or_raises_config_error(self, doc):
        try:
            validate_config(doc)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.binary(max_size=120) | CONFIG_DOCS.map(lambda doc: json.dumps(doc).encode()))
    @example(raw=b"[" * 100_000)  # nested deeper than the JSON decoder recurses
    @example(raw=b'{"train": {"epochs": ' + b"9" * 5_000 + b"}}")  # over Python's int-string digit limit
    def test_any_bytes_load_or_raise_config_error(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        try:
            cli.load_config(path)
        except ConfigError:
            pass


GENOMIC_TABLE = "genomic/synth-0000.csv"
FUZZ_TOKENS = [b"", b",", b"\n", b'"', b"0", b"-1", b"nan", b"inf", b"1e400", b"\xff", b"[]", b"{}", b"null"]


@st.composite
def mutations(draw, valid: bytes) -> bytes:
    """Arbitrary bytes, a prefix of ``valid``, or ``valid`` with a short slice replaced."""
    kind = draw(st.sampled_from(["bytes", "prefix", "splice"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    i = draw(st.integers(0, len(valid)))
    if kind == "prefix":
        return valid[:i]
    j = draw(st.integers(i, min(len(valid), i + 12)))
    return valid[:i] + draw(st.sampled_from(FUZZ_TOKENS) | st.binary(max_size=6)) + valid[j:]


@pytest.fixture(scope="module")
def fuzz_cohort(tmp_path_factory):
    """An 8-sample cohort and a checkpoint trained on it."""
    base = tmp_path_factory.mktemp("fuzz")
    data = base / "data"
    assert main(["synth", "--out", str(data), "--n", "8", "--seed", "3", "--d-in", "3", "--categories", "2"]) == 0
    assert (data / GENOMIC_TABLE).is_file()
    assert main(["train", "--config", write_config(base, data), "--out", str(base / "runs")]) == 0
    return data, run_dirs(base / "runs")[0] / "fold_0.ckpt"


class TestCommandFuzz:
    """``mgct train`` (0 or 1 epochs) and ``mgct eval`` on a fuzzed manifest, genomic table,
    category map or config exit 0 or 2, without a traceback."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_and_eval_exit_0_or_2(self, fuzz_cohort, capsys, data):
        source, checkpoint_path = fuzz_cohort
        target = data.draw(st.sampled_from(["manifest.csv", GENOMIC_TABLE, "category_map.json", "config.json"]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cohort = tmp / "data"
            shutil.copytree(source, cohort)
            config = write_config(tmp, cohort, train={"epochs": data.draw(st.sampled_from([0, 1]))})
            path = tmp / "config.json" if target == "config.json" else cohort / target
            path.write_bytes(data.draw(mutations(path.read_bytes()), label=target))
            if target == "config.json":  # never allocate or train for real at a fuzzed size
                try:
                    cfg = cli.load_config(path)[0]["train"]
                except ConfigError:
                    cfg = None
                assume(cfg is None or (cfg.epochs <= 1 and max(cfg.snn_hidden, *asdict(cfg.fusion).values()) <= 16))
            runs = [["train", "--config", config, "--out", str(tmp / "runs")]]
            if target != "config.json":
                manifest = str(cohort / "manifest.csv")
                km = str(tmp / "km" / "x")
                runs.append(["eval", "--checkpoint", str(checkpoint_path), "--manifest", manifest, "--km-out", km])
            for argv in runs:
                capsys.readouterr()
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 2), f"mgct {argv[0]} exited {code}: {err}"
                assert "Traceback" not in err


class TestTrainCommand:
    def test_artifacts_and_config_echo(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--model", "E", "--out", str(runs)]) == 0
        (run_dir,) = run_dirs(runs)
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "fold_0.ckpt").exists()
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["train"]["epochs"] == 1
        assert "final c-index" in capsys.readouterr().out

    def test_effective_config_applies_flags(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--model", "A", "--seed", "4", "--out", str(runs)]) == 0
        (run_dir,) = run_dirs(runs)
        effective = json.loads((run_dir / "effective_config.json").read_text())
        assert effective["ablation"] == asdict(AblationSpec.preset("A"))
        assert effective["train"]["seed"] == 4
        # the echo of the file keeps the file's values
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["ablation"] == asdict(AblationSpec()) and echoed["train"]["seed"] == 0
        assert {k: v for k, v in effective.items() if k not in ("ablation", "train")} == {
            k: v for k, v in echoed.items() if k not in ("ablation", "train")
        }

    def test_bitwise_deterministic_outputs(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, dataset_dir)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", cfg, "--out", str(r1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(r2)]) == 0
        (d1,), (d2,) = run_dirs(r1), run_dirs(r2)
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()
        assert (d1 / "fold_0.ckpt").read_bytes() == (d2 / "fold_0.ckpt").read_bytes()

    def test_zero_width_bags_exit_2_before_run_dir(self, tmp_path, dataset_dir):
        bag = empty_every_bag(dataset_dir)
        runs = tmp_path / "runs"
        proc = run_mgct(["train", "--config", write_config(tmp_path, dataset_dir), "--out", str(runs)])
        assert proc.returncode == 2
        assert f"error: {bag}: zero-width bag" in proc.stderr and "Traceback" not in proc.stderr
        assert not runs.exists()

    @pytest.mark.parametrize("target", ["manifest", "genomic table"])
    def test_oversized_csv_field_exits_2_before_run_dir(self, tmp_path, dataset_dir, target):
        manifest = dataset_dir / "manifest.csv"
        path = manifest if target == "manifest" else dataio.read_manifest(manifest)[3].genomic_path
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "x" * 200_000 + lines[1] + "".join(lines[2:]))  # over csv.field_size_limit()
        runs = tmp_path / "runs"
        proc = run_mgct(["train", "--config", write_config(tmp_path, dataset_dir), "--out", str(runs)])
        assert proc.returncode == 2
        assert f"error: {path}:2: {target} is not readable CSV" in proc.stderr and "Traceback" not in proc.stderr
        assert not runs.exists()

    @pytest.mark.parametrize("command", ["train", "cv", "ablate"])
    def test_cohort_too_small_for_ratio_exits_2_before_run_dir(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n", "4", "--seed", "3", "--d-in", "5"]) == 0
        cfg = write_config(tmp_path, data, cv={"ratio": 0.2})
        runs = tmp_path / "runs"
        assert main([command, "--config", cfg, "--out", str(runs)]) == 2
        assert "cv.ratio: cannot hold out 0 of 4 samples" in capsys.readouterr().err
        assert not runs.exists()

    def test_out_of_memory_exits_1_without_traceback(self, tmp_path, dataset_dir, capsys, monkeypatch):
        # stands in for numpy's failure to allocate an oversized model; a real allocation
        # could have the process killed instead, on a host that overcommits memory
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 191. GiB for an array with shape (100000000, 256)")

        monkeypatch.setattr(train, "init_model_arrays", allocate)
        cfg = write_config(tmp_path, dataset_dir)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 191. GiB for an array with shape (100000000, 256)\n"

    def test_run_dirs_never_collide(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        assert len(run_dirs(runs)) == 2


class TestCvCommand:
    def test_fold_rows_per_epoch(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, dataset_dir, train={"epochs": 2})
        runs = tmp_path / "runs"
        assert main(["cv", "--config", cfg, "--out", str(runs)]) == 0
        (run_dir,) = run_dirs(runs)
        with open(run_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2  # folds * epochs
        assert {r["fold"] for r in rows} == {"0", "1"}
        assert (run_dir / "fold_0.ckpt").exists() and (run_dir / "fold_1.ckpt").exists()


class TestAblateCommand:
    def test_matrix_rows(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path, dataset_dir, cv={"folds": 1})
        runs = tmp_path / "runs"
        assert main(["ablate", "--config", cfg, "--out", str(runs)]) == 0
        (run_dir,) = run_dirs(runs)
        lines = (run_dir / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 6
        out = capsys.readouterr().out
        for model in ("A", "B", "C", "D", "E"):
            assert model in out


def run_outputs(run_dir) -> dict[str, bytes]:
    """A run directory's files by name, but for ``effective_config.json``, which echoes the flags."""
    return {path.name: path.read_bytes() for path in run_dir.iterdir() if path.name != "effective_config.json"}


@pytest.mark.parametrize("command,files", [("cv", 4), ("ablate", 2)])
def test_jobs_leave_the_outputs_byte_identical(tmp_path, dataset_dir, capsys, command, files):
    # every (preset, fold) pair in this process, or each in a forked child of its own
    cfg = write_config(tmp_path, dataset_dir)
    outputs = []
    for jobs in ("1", "2"):
        runs = tmp_path / f"jobs{jobs}"
        assert main([command, "--config", cfg, "--out", str(runs), "--jobs", jobs]) == 0
        (run_dir,) = run_dirs(runs)
        outputs.append((capsys.readouterr().out.replace(str(run_dir), "<run dir>"), run_outputs(run_dir)))
    assert outputs[0] == outputs[1] and len(outputs[0][1]) == files


def test_blas_threads_and_jobs_leave_the_outputs_byte_identical(tmp_path):
    # importing mgct sets numpy's OpenBLAS to one thread whatever OPENBLAS_NUM_THREADS says, so
    # mgct cv writes the same bytes with it unset, 1 and 2, at --jobs 1 and 2. The default model's
    # products are large enough for a second BLAS thread to change their bits. Child processes,
    # since the variable is read when numpy is first imported.
    assert main(["synth", "--out", str(tmp_path / "data"), "--n", "40", "--seed", "3"]) == 0
    doc = {"dataset": {"manifest": str(tmp_path / "data" / "manifest.csv")}, "train": {"epochs": 1, "accumulation": 8},
           "cv": {"folds": 2}}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env |= {"PYTHONPATH": src} | ({"OPENBLAS_NUM_THREADS": threads} if threads else {})
        for jobs in ("1", "2"):
            runs = tmp_path / f"runs-{threads}-{jobs}"
            argv = ["cv", "--config", str(tmp_path / "run.json"), "--out", str(runs), "--jobs", jobs]
            proc = subprocess.run([sys.executable, "-m", "mgct.cli", *argv], env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs[threads, jobs] = run_outputs(run_dirs(runs)[0])
    first = outputs[None, "1"]
    assert sorted(first) == ["config.json", "fold_0.ckpt", "fold_1.ckpt", "metrics.csv"]
    assert all(files == first for files in outputs.values())


@pytest.mark.parametrize("command", ["synth", "cv", "eval"])
def test_output_path_blocked_by_a_file_exits_2_naming_it(tmp_path, dataset_dir, command):
    # synth's --out, cv's --out and the directory of eval's --km-out are each a plain file
    blocker = tmp_path / "afile"
    blocker.write_text("")
    if command == "synth":
        argv = ["synth", "--out", str(blocker), "--n", "12", "--seed", "3"]
    elif command == "cv":
        argv = ["cv", "--config", write_config(tmp_path, dataset_dir), "--out", str(blocker)]
    else:
        runs = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path, dataset_dir), "--out", str(runs)]) == 0
        argv = ["eval", "--checkpoint", str(run_dirs(runs)[0] / "fold_0.ckpt")]
        argv += ["--manifest", str(dataset_dir / "manifest.csv"), "--km-out", str(blocker / "x")]
    before = sorted(tmp_path.rglob("*"))
    proc = run_mgct(argv)
    assert proc.returncode == 2 and proc.stdout == ""  # eval prints no metric
    assert proc.stderr.startswith("error: ") and str(blocker) in proc.stderr and "Traceback" not in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == ""  # no KM file, no run directory


class TestEvalCommand:
    def test_outputs_exist_and_parse(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        ckpt = run_dirs(runs)[0] / "fold_0.ckpt"
        km = tmp_path / "km" / "curves"
        assert (
            main(
                [
                    "eval",
                    "--checkpoint", str(ckpt),
                    "--manifest", str(dataset_dir / "manifest.csv"),
                    "--km-out", str(km),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "c-index" in out and "log-rank" in out
        for group in ("low", "high"):
            rows = (km.parent / f"curves_{group}.csv").read_text().strip().split("\n")
            assert rows[0] == "time,survival"
            survs = [float(r.split(",")[1]) for r in rows[1:]]
            assert all(a >= b for a, b in zip(survs, survs[1:]))
        report = json.loads((km.parent / "curves_logrank.json").read_text())
        assert set(report) >= {"statistic", "p_value", "n_low", "n_high"}

    @pytest.mark.parametrize("target", ["manifest", "genomic table"])
    def test_non_utf8_input_exits_2_naming_the_file(self, tmp_path, dataset_dir, capsys, target):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        manifest = dataset_dir / "manifest.csv"
        path = manifest if target == "manifest" else dataio.read_manifest(manifest)[3].genomic_path
        path.write_bytes(path.read_bytes() + b"\xff\n")
        capsys.readouterr()
        km = tmp_path / "km" / "x"
        argv = ["eval", "--checkpoint", str(run_dirs(runs)[0] / "fold_0.ckpt"), "--manifest", str(manifest)]
        assert main(argv + ["--km-out", str(km)]) == 2
        assert f"error: {path}: {target} is not UTF-8" in capsys.readouterr().err
        assert not km.parent.exists()

    def test_shape_mismatch_exits_2(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        ckpt = run_dirs(runs)[0] / "fold_0.ckpt"
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--n", "8", "--seed", "1", "--d-in", "9"]) == 0
        code = main(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--manifest", str(other / "manifest.csv"),
                "--km-out", str(tmp_path / "km2" / "x"),
            ]
        )
        assert code == 2
        assert "d_in" in capsys.readouterr().err

    def test_category_order_must_match_checkpoint(self, tmp_path, dataset_dir, capsys):
        # same categories and lengths in another order would feed each vector to another category's network
        runs = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path, dataset_dir), "--out", str(runs)]) == 0
        ckpt = str(run_dirs(runs)[0] / "fold_0.ckpt")
        manifest = str(dataset_dir / "manifest.csv")
        cmap = json.loads((dataset_dir / "category_map.json").read_text())
        outputs = {}
        for name, order in (("default", None), ("same", list(cmap)), ("reversed", list(cmap)[::-1])):
            argv = ["eval", "--checkpoint", ckpt, "--manifest", manifest, "--km-out", str(tmp_path / name / "x")]
            if order is not None:
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps({cat: cmap[cat] for cat in order}))
                argv += ["--category-map", str(path)]
            if name == "reversed":
                proc = run_mgct(argv)
                assert proc.returncode == 2 and "Traceback" not in proc.stderr
                assert f"checkpoint categories {list(cmap)!r} do not match the category map's {order!r}" in proc.stderr
                assert not (tmp_path / name).exists()
            else:
                capsys.readouterr()
                assert main(argv) == 0
                files = sorted((tmp_path / name).iterdir())
                outputs[name] = capsys.readouterr().out, [(p.name, p.read_bytes()) for p in files]
        assert outputs["same"] == outputs["default"]

    def test_gene_in_two_categories_exits_2_naming_the_map(self, tmp_path, dataset_dir, capsys):
        runs = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path, dataset_dir), "--out", str(runs)]) == 0
        cmap = json.loads((dataset_dir / "category_map.json").read_text())
        first, second = list(cmap)[:2]
        cmap[second].append(cmap[first][0])
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(cmap))
        km = tmp_path / "km" / "x"
        argv = ["eval", "--checkpoint", str(run_dirs(runs)[0] / "fold_0.ckpt"), "--category-map", str(path)]
        capsys.readouterr()
        assert main(argv + ["--manifest", str(dataset_dir / "manifest.csv"), "--km-out", str(km)]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: gene {cmap[first][0]!r} assigned to both {first!r} and {second!r}" in captured.err
        assert captured.out == "" and not km.parent.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda meta: meta["model"]["fusion"].update(bogus=1), "model.fusion.bogus"),
            (lambda meta: meta["model"]["fusion"].update(heads=3), "model.fusion.heads"),
            (lambda meta: meta["model"].pop("d_in"), "model.d_in"),
            (lambda meta: meta.pop("auc_horizon"), "auc_horizon"),
            (lambda meta: meta.pop("model"), "model"),
        ],
    )
    def test_bad_checkpoint_meta_exits_2(self, tmp_path, dataset_dir, capsys, edit, message):
        assert eval_edited_checkpoint(tmp_path, dataset_dir, capsys, lambda arrays, meta: edit(meta)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda arrays: arrays.pop("head.w"), "missing block 'head.w'"),
            (lambda arrays: arrays.update({"head.b": np.zeros((1, 1))}), "block 'head.b' is (1, 1)"),
            (lambda arrays: arrays.update({"patch.b": np.zeros((1, 1))}), "block 'patch.b' is (1, 1)"),
            (lambda arrays: arrays.update(bogus=np.zeros((2, 2))), "unexpected block 'bogus'"),
            (lambda arrays: arrays.update({"head.w": np.zeros((4, 3))}), "block 'head.w' is (4, 3)"),
            # scored, a NaN block gives every sample a NaN risk: no C-index, AUC or risk group means anything
            (lambda arrays: arrays.update({"head.b": np.full((4, 1), np.nan)}), "block 'head.b' holds a non-finite"),
            (lambda arrays: arrays["snn.c0.w1"].__setitem__((0, 0), -np.inf), "block 'snn.c0.w1' holds a non-finite"),
        ],
        ids=["missing", "head.b-1x1", "patch.b-1x1", "extra", "head.w-4x3", "head.b-nan", "snn.c0.w1-inf"],
    )
    def test_bad_checkpoint_block_exits_2(self, tmp_path, dataset_dir, capsys, edit, message):
        assert eval_edited_checkpoint(tmp_path, dataset_dir, capsys, lambda arrays, meta: edit(arrays)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "km").exists()  # no KM or log-rank file written

    @pytest.mark.parametrize("horizon", [0, -1, float("nan"), float("inf"), -float("inf")])
    def test_bad_horizon_exits_2_before_scoring(self, tmp_path, dataset_dir, capsys, horizon):
        def edit(arrays, meta):
            meta["auc_horizon"] = horizon

        assert eval_edited_checkpoint(tmp_path, dataset_dir, capsys, edit) == 2
        captured = capsys.readouterr()
        assert "finite positive auc_horizon" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "km").exists()

    @pytest.mark.parametrize("defect", ["one sample", "missing bag"])
    def test_bad_cohort_exits_2_before_scoring(self, tmp_path, dataset_dir, capsys, defect):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        manifest = dataset_dir / "manifest.csv"
        if defect == "one sample":
            manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:2]))
            message = f"{manifest}: eval needs at least 2 samples"
        else:
            bag = dataio.read_manifest(manifest)[5].bag_path
            bag.unlink()
            message = f"bag file not found: {bag}"
        capsys.readouterr()
        km = tmp_path / "km" / "x"
        argv = ["eval", "--checkpoint", str(run_dirs(runs)[0] / "fold_0.ckpt"), "--manifest", str(manifest)]
        assert main(argv + ["--km-out", str(km)]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""
        assert not km.parent.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_checkpoint_that_is_no_file_exits_2_naming_it(self, tmp_path, dataset_dir, capsys, kind):
        ckpt = tmp_path / "nope.ckpt"
        if kind == "directory":
            ckpt.mkdir()
        km = tmp_path / "km" / "x"
        argv = ["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset_dir / "manifest.csv"), "--km-out", str(km)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: checkpoint not found: {ckpt}" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not km.parent.exists()

    def test_non_utf8_block_name_exits_2_naming_the_file(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        ckpt = run_dirs(runs)[0] / "fold_0.ckpt"
        raw = bytearray(ckpt.read_bytes())
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        raw[4 + 8 + meta_len + 4 + 2] = 0xFF  # the first byte of the first block's name
        ckpt.write_bytes(bytes(raw))
        km = tmp_path / "km" / "x"
        argv = ["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset_dir / "manifest.csv"), "--km-out", str(km)]
        proc = run_mgct(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"error: {ckpt}: unreadable block name" in proc.stderr and "Traceback" not in proc.stderr
        assert not km.parent.exists()

    def test_zero_width_bags_exit_2_before_scoring(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, dataset_dir)
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        bag = empty_every_bag(dataset_dir)
        km = tmp_path / "km" / "x"
        argv = ["eval", "--checkpoint", str(run_dirs(runs)[0] / "fold_0.ckpt")]
        proc = run_mgct(argv + ["--manifest", str(dataset_dir / "manifest.csv"), "--km-out", str(km)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"error: {bag}: zero-width bag" in proc.stderr and "Traceback" not in proc.stderr
        assert not km.parent.exists()

    def test_constant_risks_leave_the_log_rank_undefined(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n", "30", "--seed", "3", "--d-in", "5"]) == 0
        cfg = write_config(tmp_path, data, train={"epochs": 0})  # the head stays zero: every risk is equal
        runs = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(runs)]) == 0
        capsys.readouterr()
        km = tmp_path / "km" / "x"
        ckpt = run_dirs(runs)[0] / "fold_0.ckpt"
        argv = ["eval", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"), "--km-out", str(km)]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "samples: 30"
        assert out[-1] == "log-rank: undefined (one risk group is empty)"
        assert (km.parent / "x_high.csv").read_text() == "time,survival\n"
        assert len((km.parent / "x_low.csv").read_text().splitlines()) > 2
        report = json.loads((km.parent / "x_logrank.json").read_text())
        assert report == {"n_low": 30, "n_high": 0, "statistic": None, "p_value": None, "defined": False}

    def test_windowed_eval_matches_the_per_sample_pass(self, tmp_path, monkeypatch, capsys):
        # a cohort over several tape runs, one of them a single bag wider than the bound
        ds = dataio.synthesize(40, d_in=5, seed=5)
        ds.samples[17].patches = np.random.default_rng(5).standard_normal((5, train.TAPE_PATCHES + 76))
        manifest = dataio.write_dataset(ds, tmp_path / "cohort")
        spans = train.tape_spans([s.patches.shape[1] for s in ds.samples], train.TAPE_PATCHES)
        assert len(spans) >= 3 and (17, 18) in spans
        spec = ModelSpec(
            d_in=5, gene_lengths=tuple(ds.gene_lengths), snn_hidden=8, fusion=FusionConfig(**TINY["model"])
        )
        arrays = init_model_arrays(spec, seed=5, head_init="xavier")
        labels = [survival.SurvivalLabel(s.t, s.event) for s in ds.samples]
        fold = SimpleNamespace(
            spec=spec, bin_edges=survival.time_bin_edges(labels, spec.fusion.bins), auc_horizon=24.0, fold=0
        )
        ckpt = tmp_path / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, arrays, cli.checkpoint_meta(fold, ds))
        scored = []

        def recording_evaluate(*args):
            scored.append(train.evaluate(*args))
            return scored[-1]

        monkeypatch.setattr(cli, "evaluate", recording_evaluate)

        def run(name):
            km = tmp_path / name / "km"
            assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest), "--km-out", str(km)]) == 0
            parts = ("low.csv", "high.csv", "logrank.json")
            return capsys.readouterr().out, [(km.parent / f"km_{part}").read_bytes() for part in parts]

        windowed = run("windowed")
        monkeypatch.setattr(train, "TAPE_PATCHES", 1)  # every sample a run of its own
        assert run("per_sample") == windowed
        loaded = cli.load_dataset(cli.DatasetConfig(str(manifest)))
        expected = [train.predict(s, arrays, spec).risk for s in loaded.samples]
        np.testing.assert_allclose(scored[0][0], expected, rtol=0, atol=1e-12)
        assert scored[1][0] == expected


def test_import_loads_no_process_pool():
    # the fork queue imports multiprocessing where a command first forks, not at import
    script = "import sys, mgct.cli, mgct.verify; print(sorted({'multiprocessing', 'subprocess'} & set(sys.modules)))"
    proc = run_python(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_import_keeps_freed_heap_for_reuse():
    # twenty 512 KiB arrays made and freed twice: without mgct glibc gives the freed heap back
    # and the second pass faults it in again; with mgct the second pass reuses it
    script = (
        "import resource, sys\n"
        "import numpy as np\n"
        "if sys.argv[1] == 'mgct':\n"
        "    import mgct\n"
        "def churn():\n"
        "    arrays = [np.ones((64, 1024)) for _ in range(20)]\n"
        "    del arrays\n"
        "churn()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "churn()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = {}
    for mode in ("numpy", "mgct"):
        proc = run_python(["-c", script, mode], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        faults[mode] = int(proc.stdout)
    assert faults["numpy"] >= 500 and faults["mgct"] <= 50, faults


class FakeMallopt:
    def __init__(self, result):
        self.calls = []
        self.result = result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


@pytest.mark.parametrize("result", [1, 0], ids=["accepted", "refused"])
def test_heap_thresholds_set_through_mallopt(monkeypatch, result):
    mallopt = FakeMallopt(result)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert mgct._keep_freed_heap() is None
    # a refused mmap threshold leaves the trim threshold, and glibc's dynamic threshold, alone
    expected = [(-3, mgct.HEAP_KEEP), (-1, mgct.HEAP_KEEP)] if result else [(-3, mgct.HEAP_KEEP)]
    assert mallopt.calls == expected


def no_confstr_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize(
    "confstr,libc",
    [(no_confstr_name, None), (lambda name: "musl 1.2", None), (lambda name: None, None),
     (lambda name: "glibc 2.36", object())],
    ids=["no-name", "musl", "undefined", "no-mallopt"],
)
def test_heap_thresholds_left_alone(monkeypatch, confstr, libc):
    # off glibc libc is never loaded; a libc without mallopt is left as it is
    def load(name):
        assert libc is not None, "libc loaded off glibc"
        return libc

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", load)
    assert mgct._keep_freed_heap() is None


class FakeBlas:
    def __init__(self, symbols):
        self.calls = []
        for symbol in symbols:
            setattr(self, symbol, lambda n, symbol=symbol: self.calls.append((symbol, n)))


@pytest.mark.parametrize(
    "symbols,expected",
    [(mgct.BLAS_SETTERS, [(mgct.BLAS_SETTERS[0], 1)]), (mgct.BLAS_SETTERS[1:], [(mgct.BLAS_SETTERS[1], 1)]), ((), [])],
    ids=["scipy-openblas", "openblas", "no-setter"],
)
def test_one_blas_thread_through_the_first_setter_found(monkeypatch, symbols, expected):
    # only numpy's bundled OpenBLAS is loaded; a library without a setter is left as it is
    lib, loaded = FakeBlas(symbols), []
    monkeypatch.setattr(os.path, "isdir", lambda path: path.endswith("numpy.libs"))
    monkeypatch.setattr(os, "listdir", lambda path: ["libgfortran-a1.so", "libscipy_openblas64_-b2.so"])
    monkeypatch.setattr(ctypes, "CDLL", lambda path: loaded.append(os.path.basename(path)) or lib)
    assert mgct._one_blas_thread() is None
    assert loaded == ["libscipy_openblas64_-b2.so"] and lib.calls == expected


class TestVerifyCommand:
    def test_clean_build_passes_quickly(self):
        # a child process with piped stdout, its sweep cut in three shares even on a one-CPU host:
        # the line left unflushed before the sweep must not be written again by a forked share
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "from mgct.cli import main\n"
            "print('before the sweep')\n"
            "sys.exit(main(['verify']))\n"
        )
        start = time.monotonic()
        proc = run_python(["-c", script], stdout=subprocess.PIPE)
        assert time.monotonic() - start < 60.0
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "before the sweep" and lines.count("before the sweep") == 1
        assert [line.split()[:2] for line in lines[1:-1]] == [["PASS", name] for name, _ in verify.ALL_CHECKS]
        assert lines[-1] == f"all {len(verify.ALL_CHECKS)} checks passed"

    def test_injected_tanh_fault_detected(self, capsys, monkeypatch):
        fwd, deriv = nk.ELEMENTWISE_KINDS["tanh"]
        monkeypatch.setitem(nk.ELEMENTWISE_KINDS, "tanh", (fwd, lambda y: -deriv(y)))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert "tanh_gradient" in captured.err or "tanh_gradient" in captured.out

    def run_alone(self, monkeypatch, capsys, name) -> tuple[int, str]:
        """Exit code of ``mgct verify`` with check ``name`` its only check, and the line it prints for it."""
        monkeypatch.setattr(verify, "ALL_CHECKS", [check for check in verify.ALL_CHECKS if check[0] == name])
        code = main(["verify"])
        return code, capsys.readouterr().out.splitlines()[0]

    def test_wrong_segment_softmax_pull_detected(self, capsys, monkeypatch):
        real = nk.segment_softmax

        def identity_pull(a, offsets):  # the right values, a wrong gradient
            out = real(nk.Tensor(a.data), offsets)
            return out if a.tape is None else a.tape._emit(out.data, (a,), lambda g: (g,))

        assert self.run_alone(monkeypatch, capsys, "softmax_gradient")[0] == 0
        monkeypatch.setattr(nk, "segment_softmax", identity_pull)
        code, line = self.run_alone(monkeypatch, capsys, "softmax_gradient")
        assert code == 1 and line.startswith("FAIL  softmax_gradient ")

    def test_nan_tanh_pull_detected(self, capsys, monkeypatch):
        fwd, _ = nk.ELEMENTWISE_KINDS["tanh"]
        monkeypatch.setitem(nk.ELEMENTWISE_KINDS, "tanh", (fwd, lambda y: np.full_like(y, np.nan)))
        code, line = self.run_alone(monkeypatch, capsys, "tanh_gradient")
        assert code == 1 and line.split() == ["FAIL", "tanh_gradient", "max", "rel", "err", "nan", "(x)"]

    def test_misstaged_model_array_detected(self, capsys, monkeypatch):
        # the node table credits s1.hg.0.mlp.w_in to a stage-2 node, so its moves skip the node that reads it
        moved = "s1.hg.0.mlp.w_in"
        real = verify.window_nodes

        def misdeclared(*args, **kwargs):
            nodes = real(*args, **kwargs)
            own = tuple(n for n, _, _ in model_layout(verify._tiny_spec()) if n.startswith("s1.hg.0.") and n != moved)
            nodes["s1.hg.0"] = replace(nodes["s1.hg.0"], reads=own)
            nodes["s2.fh.0"] = replace(nodes["s2.fh.0"], reads=nodes["s2.fh.0"].reads + (moved,))
            return nodes

        monkeypatch.setattr(verify, "window_nodes", misdeclared)
        code, line = self.run_alone(monkeypatch, capsys, "model_gradient")
        assert code == 1 and line.startswith("FAIL  model_gradient ") and line.endswith(f"({moved})")

    def test_reordering_gather_cols_detected(self, capsys, monkeypatch):
        real = nk.gather_cols
        assert self.run_alone(monkeypatch, capsys, "concat_split_roundtrip")[0] == 0
        monkeypatch.setattr(nk, "gather_cols", lambda a, cols: real(a, list(cols)[::-1]))
        code, line = self.run_alone(monkeypatch, capsys, "concat_split_roundtrip")
        assert code == 1 and line.split() == ["FAIL", "concat_split_roundtrip", "mismatch"]
