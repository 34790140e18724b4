"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload builds its inputs from the seed in ``setup`` and then repeats
``op``. An operation counts its own attempts in the ledger; any exception or
failed check is a failed attempt, never a crash of the run. ``op`` returns
an ``OpResult`` whose ``digest`` holds the outputs that must come out
bitwise identical on every repetition, with tracing on or off.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from mgct import checkpoint, cli, dataio, mgct_core, survival, train, verify
from mgct.mgct_core import AblationSpec, ModelSpec
from mgct.train import TrainConfig

PRESET = AblationSpec.preset("E")
# Parameter count of preset E at the reference config: d_in=16, six
# categories of 8 genes, TrainConfig() defaults.
REFERENCE_PARAMS = 715_076


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        """Mark an already counted attempt as failed."""
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def attempt(self, fn, *args):
        """Run ``fn``; an exception is a failed attempt. Returns (ok, result)."""
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none ends the run
            self.record(False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}")
            return False, None
        self.record(True)
        return True, result


@dataclass
class OpResult:
    wall_s: float
    digest: object
    values: dict = field(default_factory=dict)
    traced: bool = False


def arrays_digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def reference_spec(d_in: int, gene_lengths) -> ModelSpec:
    """Preset E with every other setting at its ``TrainConfig()`` default."""
    cfg = TrainConfig()
    return ModelSpec(
        d_in=d_in,
        gene_lengths=tuple(gene_lengths),
        snn_hidden=cfg.snn_hidden,
        fusion=cfg.fusion,
        ablation=PRESET,
    )


def check_param_count(spec: ModelSpec, arrays: dict) -> None:
    got = train.parameter_count(arrays)
    check(got == REFERENCE_PARAMS, f"preset E has {got} parameters, expected {REFERENCE_PARAMS}")


class Workload:
    setup_reps = 9
    min_ops = 1

    def setup(self, seed: int, workdir: Path) -> None:
        """Build the inputs; ``workdir`` is a fresh directory for this set-up."""
        raise NotImplementedError

    def check_setup(self) -> None:
        pass

    def op(self, ledger: Ledger) -> OpResult | None:
        raise NotImplementedError

    def inject(self, fault: str) -> None:
        raise ValueError(f"workload has no fault {fault!r}")

    def table(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        """Issue-named end-to-end values from the untraced operations."""
        raise NotImplementedError


def throughput(ops: list[OpResult]) -> float | None:
    """Items per second over the operations' timed calls, all of them together."""
    done = [o.values for o in ops if "items" in o.values]
    if not done:
        return None
    return sum(v["items"] for v in done) / sum(v["call_s"] for v in done)


class AdamCounter:
    """Counts Adam steps and skipped steps; wraps ``train.adam_step``."""

    def __init__(self, fn):
        self.fn = fn
        self.steps = 0
        self.skipped = 0

    def __call__(self, params, grads, state, *args, **kwargs):
        before = state.skipped
        out = self.fn(params, grads, state, *args, **kwargs)
        self.steps += 1
        self.skipped += state.skipped - before
        return out


class TrainWorkload(Workload):
    """One ``train.train_fold`` call per operation on a synthesized cohort."""

    def __init__(self, n: int, epochs: int):
        self.n = n
        self.epochs = epochs
        if not isinstance(train.adam_step, AdamCounter):
            train.adam_step = AdamCounter(train.adam_step)
        self.adam = train.adam_step

    def setup(self, seed, workdir):
        self.ds = dataio.synthesize(self.n, seed=seed)
        self.split = dataio.monte_carlo_splits(self.ds.ids, 1, ratio=0.2, seed=seed)[0]
        self.spec = reference_spec(self.ds.d_in, self.ds.gene_lengths)
        self.cfg = TrainConfig(epochs=self.epochs)
        self.init_arrays = mgct_core.init_model_arrays(self.spec, seed=[self.cfg.seed, self.split.fold])

    def check_setup(self):
        check_param_count(self.spec, self.init_arrays)

    def _fold(self):
        n_train = len(self.split.train_ids)
        self.adam.steps = self.adam.skipped = 0
        t0 = perf_counter()
        result = train.train_fold(self.ds, self.split, self.cfg, PRESET)
        wall = perf_counter() - t0
        check(all(math.isfinite(h.loss) for h in result.history), "non-finite training loss")
        check(self.adam.skipped == 0, f"{self.adam.skipped} Adam steps skipped")
        expected = self.epochs * math.ceil(n_train / self.cfg.accumulation)
        check(self.adam.steps == expected, f"{self.adam.steps} Adam steps, expected {expected}")
        check(result.final_c_index is not None, "validation C-index undefined")
        digest = (
            tuple((h.loss, h.c_index, h.auc) for h in result.history),
            arrays_digest(result.arrays),
        )
        values = {
            "items": n_train * self.epochs,
            "call_s": wall,
            "val_c_index": result.final_c_index,
            "adam_steps": self.adam.steps,
            "adam_skipped": self.adam.skipped,
        }
        return OpResult(wall, digest, values)

    def op(self, ledger):
        return ledger.attempt(self._fold)[1]

    def table(self, ops):
        return {
            "train_samples_per_s": (throughput(ops), "samples/s"),
            "val_c_index": (ops[0].values["val_c_index"], "ratio"),
        }


class EvalWorkload(Workload):
    """Per-sample ``train.predict`` over a written cohort, then ``mgct eval`` on it."""

    def __init__(self, n: int, min_ops: int):
        self.n = n
        self.min_ops = min_ops

    def setup(self, seed, workdir):
        self.dir = workdir
        self.ds = dataio.synthesize(self.n, seed=seed)
        self.manifest = dataio.write_dataset(self.ds, self.dir / "cohort")
        self.spec = reference_spec(self.ds.d_in, self.ds.gene_lengths)
        self.arrays = mgct_core.init_model_arrays(self.spec, seed=seed, head_init="xavier")
        labels = [survival.SurvivalLabel(s.t, s.event) for s in self.ds.samples]
        fold = SimpleNamespace(
            spec=self.spec,
            bin_edges=survival.time_bin_edges(labels, self.spec.fusion.bins),
            auc_horizon=float(np.median([s.t for s in self.ds.samples if s.event == 1])),
            fold=0,
        )
        self.meta = cli.checkpoint_meta(fold, self.ds)
        self.ckpt = self.dir / "model.ckpt"
        checkpoint.save_checkpoint(self.ckpt, self.arrays, self.meta)
        self.km_prefix = self.dir / "km" / "curves"

    def check_setup(self):
        check_param_count(self.spec, self.arrays)
        loaded, meta = checkpoint.load_checkpoint(self.ckpt)
        check(list(loaded) == list(self.arrays), "checkpoint block names differ")
        for name, arr in self.arrays.items():
            back = loaded[name]
            check(
                back.shape == arr.shape and back.tobytes() == arr.tobytes(),
                f"checkpoint block {name} does not round-trip bitwise",
            )
        check(meta == json.loads(json.dumps(self.meta)), "checkpoint meta does not round-trip")

    def inject(self, fault):
        if fault != "truncated-checkpoint":
            super().inject(fault)
        self.ckpt.write_bytes(self.ckpt.read_bytes()[:6])

    def _predict(self, sample):
        t0 = perf_counter()
        pred = train.predict(sample, self.arrays, self.spec)
        latency = perf_counter() - t0
        h = pred.hazards
        check(bool(np.all(np.isfinite(h)) and np.all(h > 0) and np.all(h < 1)), "hazards outside (0, 1)")
        return latency, h, pred.risk

    def _outputs(self):
        p = self.km_prefix
        return [p.parent / f"{p.name}_{part}" for part in ("low.csv", "high.csv", "logrank.json")]

    def _eval(self):
        for path in self._outputs():
            path.unlink(missing_ok=True)
        argv = ["eval", "--checkpoint", str(self.ckpt), "--manifest", str(self.manifest), "--km-out", str(self.km_prefix)]
        out = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out):
            code = cli.main(argv)
        wall = perf_counter() - t0
        check(code == 0, f"mgct eval exited {code}")
        check(f"samples: {self.n}\n" in out.getvalue(), "mgct eval did not score the whole cohort")
        files = []
        for path in self._outputs():
            check(path.is_file() and path.stat().st_size > 0, f"mgct eval did not write {path.name}")
            files.append(path.read_bytes())
        return wall, (out.getvalue(), tuple(files))

    def op(self, ledger):
        t0 = perf_counter()
        latencies, hazards, risks = [], [], []
        for sample in self.ds.samples:
            ok, out = ledger.attempt(self._predict, sample)
            if ok:
                latencies.append(out[0])
                hazards.append(out[1])
                risks.append(out[2])
        ledger.record(len(set(risks)) > 1, "checkpoint gives constant risks")
        ok, evaluated = ledger.attempt(self._eval)
        wall = perf_counter() - t0
        values = {"latencies": latencies}
        if ok:
            values.update(items=self.n, call_s=evaluated[0])
        digest = (hashlib.sha256(b"".join(h.tobytes() for h in hazards)).hexdigest(), evaluated and evaluated[1])
        return OpResult(wall, digest, values)

    def table(self, ops):
        lat = [x for o in ops for x in o.values["latencies"]]
        out = {}
        if lat:
            out["predict_ms_p50"] = (1e3 * float(np.percentile(lat, 50)), "ms")
            out["predict_ms_p99"] = (1e3 * float(np.percentile(lat, 99)), "ms")
            out["predict_calls"] = (len(lat), "count")
        if throughput(ops) is not None:
            out["eval_samples_per_s"] = (throughput(ops), "samples/s")
        return out


class VerifyWorkload(Workload):
    """``verify.run_checks()`` at its built-in sizes; the seed is not used."""

    def __init__(self, skip: tuple[str, ...] = ()):
        verify.ALL_CHECKS = [(n, fn) for n, fn in verify.ALL_CHECKS if n not in skip]

    def setup(self, seed, workdir):
        check(len(verify.ALL_CHECKS) > 0, "no verify checks")

    def op(self, ledger):
        t0 = perf_counter()
        results = verify.run_checks()
        wall = perf_counter() - t0
        for name, ok, detail in results:
            ledger.record(ok, f"verify check {name} failed: {detail}")
        return OpResult(wall, tuple(results), {"items": len(results), "call_s": wall})

    def table(self, ops):
        return {"verify_wall_s": (sum(o.wall_s for o in ops) / len(ops), "s")}


def _setup_once(workload: Workload, seed: int, workdir: Path, import_seconds) -> tuple[float, float]:
    """One set-up in a fresh ``workdir``: (program import seconds, set-up seconds).

    ``workdir`` is the same path for every set-up, so the operations see the
    same inputs, file names included, whichever set-up came last.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    imported = import_seconds()
    t0 = perf_counter()
    workload.setup(seed, workdir)
    elapsed = perf_counter() - t0
    workload.check_setup()
    return imported, elapsed


def run(workload: Workload, ledger: Ledger, tracer, seed: int, seconds: float, workdir: Path,
        import_seconds, inject=None):
    """Repeat operations for ``seconds`` of operation time, set-ups spread among them.

    The first set-up comes before the first operation; the other
    ``workload.setup_reps - 1`` follow operations as the run reaches equal
    shares of ``seconds``, and any still due run after the last operation.
    Spread out, the set-up median samples the machine across the whole run
    rather than in its first second. Each set-up times a fresh import of the
    program (``import_seconds``, in a child process) plus ``workload.setup``.
    With a tracer, set-ups are traced and operations alternate untraced and
    traced, ending on a traced one. Every operation's digest must equal the
    first one's. Returns (seconds of each successful set-up, the import
    seconds within each, operation results), or None when the first set-up
    failed.
    """
    setup_times: list[float] = []
    import_times: list[float] = []

    def setup() -> bool:
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install()
        try:
            ok, times = ledger.attempt(_setup_once, workload, seed, workdir / "setup", import_seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.phase = "op"
        if ok:
            import_times.append(times[0])
            setup_times.append(times[0] + times[1])
            if inject:
                workload.inject(inject)
        return ok

    if not setup():
        return None
    done_setups = 1
    ops: list[OpResult] = []
    op_seconds = 0.0
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        i += 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            result = workload.op(ledger)
        except Exception as exc:  # noqa: BLE001 - an operation that escapes its own accounting
            ledger.record(False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}")
            result = None
        finally:
            op_seconds += perf_counter() - t0
            if traced:
                tracer.uninstall()
        if result is not None:
            result.traced = traced
            if ops and result.digest != ops[0].digest:
                ledger.fail(f"operation {i} (traced={traced}) outputs differ bitwise from the first operation")
            ops.append(result)
        finished = op_seconds >= seconds and i >= workload.min_ops and (tracer is None or i % 2 == 0)
        if finished:
            share = 1.0
        else:
            share = min(op_seconds / seconds, 1.0) if seconds > 0 else 0.0
        due = 1 + int((workload.setup_reps - 1) * share)
        while done_setups < due:
            done_setups += 1
            setup()
        if finished:
            return setup_times, import_times, ops


def make(name: str, tiny: bool) -> Workload:
    """The workload called ``name``; ``tiny`` shrinks it for smoke tests."""
    workload = _make(name, tiny)
    if tiny:
        workload.setup_reps = 3
    return workload


def _make(name: str, tiny: bool) -> Workload:
    if name == "train_ref":
        return TrainWorkload(n=40, epochs=1) if tiny else TrainWorkload(n=200, epochs=2)
    if name == "eval_cohort":
        # every operation scores the whole cohort, so twenty give >= 1000 predict timings
        return EvalWorkload(n=40, min_ops=1) if tiny else EvalWorkload(n=50, min_ops=20)
    if name == "verify_suite":
        return VerifyWorkload(skip=("model_gradient",) if tiny else ())
    raise ValueError(f"unknown workload {name!r}")
