"""Tests of the benchmark itself: metric names, a tiny smoke run, failure accounting."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train_ref", "eval_cohort", "verify_suite")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def definitions():
    return json.loads((BENCH_DIR / "metrics.json").read_text())


def run_bench(*args, cwd=ROOT):
    script = Path(cwd) / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return proc


def test_metric_definitions_agree():
    bench, defs = spec(), definitions()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: d["unit"] for name, d in defs["end_to_end"].items()
    }
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (d["name"], d["unit"]) for d in defs["per_layer"]
    ]
    sys.path.insert(0, str(ROOT / "src"))
    from mgct import verify

    per_check = [d["of"] for d in defs["per_layer"] if d["of"].startswith("verify.")]
    assert per_check == [f"verify.{name}" for name, _ in verify.ALL_CHECKS]


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(trace):
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    group = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec()[group]}
    for workload in WORKLOADS:
        for name, unit in wanted.items():
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
    table = definitions()["table_only"]
    printed = {tuple(line.split()[::2]) for line in lines if len(line.split()) == 3}
    for name, d in table.items():
        assert (name, d["unit"]) in printed, name


def test_injected_failure_is_counted_not_fatal():
    proc = run_bench(
        "--workload", "eval_cohort", "--seed", "3", "--seconds", "0", "--tiny",
        "--inject", "truncated-checkpoint",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert "failure: error: unpack" in proc.stderr  # the struct.error of the truncated checkpoint
    failed_frac = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["failed_frac"]]
    assert float(failed_frac[0][1]) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train_ref", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
