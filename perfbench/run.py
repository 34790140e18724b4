"""Benchmark for mgct: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload train_ref --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Run from the root of a checkout; the program is imported from ``src/``.
Operations repeat until they have taken ``--seconds``; set-up runs several
times, spread among them, and ``setup_s`` is the median set-up, each one a
fresh import of numpy and mgct in a child process plus the workload's own
set-up.
With ``--trace 1`` the operations alternate untraced and traced, so the
per-layer metrics come from the traced ones and the tracing overhead is the
median extra time of a traced operation over the untraced one before it;
outputs must be bitwise identical throughout.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the readable tables and the provenance. Everything is also written to
``.bench_work/results/`` and, for traced runs, every span to
``.bench_work/traces/<workload>.csv``.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("train_ref", "eval_cohort", "verify_suite")
PROGRAM_MODULES = ("checkpoint", "cli", "dataio", "embedders", "gradcheck", "mgct_core", "numkit", "survival",
                   "train", "verify")
IMPORT_PROBE = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import numpy\n"
    f"from mgct import {', '.join(PROGRAM_MODULES)}\n"
    "print(perf_counter() - t0)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0, help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--inject", default=None, help="inject a known fault (eval_cohort: truncated-checkpoint)")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run every workload, each in its own process, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}")
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def provenance(args, np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        keep = ("name", "version", "openblas configuration")
        blas = {lib: {k: deps[lib][k] for k in keep if k in deps[lib]} for lib in ("blas", "lapack") if lib in deps}
    except Exception as exc:  # noqa: BLE001 - older numpy has no dict mode
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python_threads": threading.active_count(),
        "platform": platform.platform(),
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and every mgct module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def print_rows(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mgct" / "__init__.py").is_file():
        print(f"error: no mgct sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    import workloads
    from mgct import checkpoint, cli, dataio, embedders, gradcheck, mgct_core, numkit, survival, train, verify

    import_s = perf_counter() - t0
    modules = dict(
        checkpoint=checkpoint, cli=cli, dataio=dataio, embedders=embedders, gradcheck=gradcheck,
        mgct_core=mgct_core, numkit=numkit, survival=survival, train=train, verify=verify,
    )

    workload = workloads.make(args.workload, args.tiny)
    tracer = tracing.Tracer(modules) if args.trace else None
    ledger = workloads.Ledger()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        run = workloads.run(workload, ledger, tracer, args.seed, args.seconds, workdir, import_seconds, args.inject)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run is None:
        print("error: the first set-up failed:\n" + "\n".join(ledger.errors), file=sys.stderr)
        return 1
    setup_times, import_times, ops = run
    untraced = [o for o in ops if not o.traced]

    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table = {"setup_s": (setup_s, "s")}
    if untraced:
        table.update(workload.table(untraced))
    table["peak_rss_mb"] = (peak_rss_mb, "MB")
    table["failed_frac"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    print_rows(f"{args.workload}: end-to-end (untraced operations: {len(untraced)})", table)

    if args.trace:
        metrics = tracing.layer_metrics(tracer, ops, len(setup_times))
        print_rows(f"{args.workload}: per-layer, per traced operation", metrics)
        print(tracing.format_span_table(tracer, sum(o.traced for o in ops), len(setup_times)))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (workloads.throughput(untraced), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    prov = provenance(args, np)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for message in ledger.errors:
        print(f"failure: {message}", file=sys.stderr)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "table": table, "result": result, "errors": ledger.errors,
              "setup_times_s": setup_times, "setup_import_times_s": import_times, "parent_import_s": import_s,
              "ops": [{"wall_s": o.wall_s, "traced": o.traced} for o in ops]}
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        # one file per workload: each traced run replaces the previous one's spans
        tracer.write_spans(WORK / "traces" / f"{args.workload}{'-tiny' if args.tiny else ''}.csv", origin=t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
