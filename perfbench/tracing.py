"""Spans around calls into the mgct modules, recorded from outside the program.

The tracer replaces public functions where their callers look them up (a
module attribute such as ``train.forward_logits``, which ``train`` imported
by name from ``mgct_core``) with a wrapper that records one span per call:
name, start, end, parent span and the id of the sample being processed.
Spans stay in memory until the run ends. ``uninstall`` puts every original
function back, so untraced operations run the unmodified program.

Self time of a span is its duration minus the durations of its direct child
spans; a function that calls no wrapped function has self time equal to its
duration.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). A function imported by name into several
# modules is wrapped at each lookup site under one span name.
WRAP_SITES = [
    ("numkit", "backward", "numkit.backward"),
    ("mgct_core", "embed_genomics", "embedders.embed_genomics"),
    ("embedders", "embed_genomics", "embedders.embed_genomics"),
    ("mgct_core", "embed_patches", "embedders.embed_patches"),
    ("embedders", "embed_patches", "embedders.embed_patches"),
    ("mgct_core", "bind_model", "mgct_core.bind_model"),
    ("verify", "bind_model", "mgct_core.bind_model"),
    ("mgct_core", "mgca", "mgct_core.mgca"),
    ("mgct_core", "gated_attention_pool", "mgct_core.gated_attention_pool"),
    ("verify", "gated_attention_pool", "mgct_core.gated_attention_pool"),
    ("mgct_core", "mgct_layer", "mgct_core.mgct_layer"),
    ("mgct_core", "fuse", "mgct_core.fuse"),
    ("verify", "fuse", "mgct_core.fuse"),
    ("mgct_core", "classify", "mgct_core.classify"),
    ("train", "forward_logits", "mgct_core.forward_logits"),
    ("verify", "forward_logits", "mgct_core.forward_logits"),
    ("mgct_core", "init_model_arrays", "mgct_core.init_model_arrays"),
    ("train", "init_model_arrays", "mgct_core.init_model_arrays"),
    ("verify", "init_model_arrays", "mgct_core.init_model_arrays"),
    ("survival", "nll_loss", "survival.nll_loss"),
    ("survival", "concordance_index", "survival.concordance_index"),
    ("survival", "binary_auc", "survival.binary_auc"),
    ("survival", "kaplan_meier", "survival.kaplan_meier"),
    ("survival", "logrank_test", "survival.logrank_test"),
    ("train", "train_fold", "train.train_fold"),
    ("train", "sample_loss_and_grads", "train.sample_loss_and_grads"),
    ("train", "adam_step", "train.adam_step"),
    ("train", "evaluate", "train.evaluate"),
    ("train", "predict", "train.predict"),
    ("cli", "predict", "train.predict"),
    ("dataio", "synthesize", "dataio.synthesize"),
    ("dataio", "write_dataset", "dataio.write_dataset"),
    ("dataio", "load_samples", "dataio.load_samples"),
    ("dataio", "read_bag", "dataio.read_bag"),
    ("dataio", "read_genomic_csv", "dataio.read_genomic_csv"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("verify", "finite_difference", "gradcheck.finite_difference"),
    ("cli", "cmd_eval", "cli.cmd_eval"),
]


class Tracer:
    """Records spans and per-call counts while installed.

    ``phase`` tags each span with the part of the run it belongs to
    ("setup" or "op"), so set-up work and timed work are reported apart.
    """

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported mgct module
        self.spans: list = []  # (name, start, end, parent, sample, phase); end is None while open
        self.counts: dict[tuple[str, str], float] = {}  # (phase, counter) -> total
        self.phase = "setup"
        self._stack: list[int] = []
        self._sample = ""
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn, on_call=None, sample_arg: bool = False):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            label = name if on_call is None else on_call(args, kwargs) or name
            prev_sample = self._sample
            if sample_arg:
                self._sample = args[0].sample_id
            spans.append((label, perf_counter(), None, stack[-1] if stack else -1, self._sample, self.phase))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label, start, _, parent, sample, phase = spans[idx]
                spans[idx] = (label, start, end, parent, sample, phase)
                self._sample = prev_sample

        return wrapped

    def _on_backward(self, args, kwargs):
        # counting basis: every node on the tape when backward starts,
        # parameter leaves included
        nodes = len(kwargs.get("tape", args[1] if len(args) > 1 else None).nodes)
        self.count("numkit.tape_nodes", nodes)
        self.count("numkit.backward_calls")
        self.count(f"numkit.backward_calls[tape_nodes={nodes}]")

    def _on_embed_genomics(self, args, kwargs):
        params = kwargs.get("params", args[1] if len(args) > 1 else None)
        taped = params.per_category[0].w1.tape is not None
        return "embedders.embed_genomics[taped]" if taped else "embedders.embed_genomics[untaped]"

    def _bytes_counter(self, counter: str):
        def on_call(args, kwargs):
            try:
                self.count(counter, os.path.getsize(args[0]))
            except OSError:
                pass  # the reader reports the missing file with its own error

        return on_call

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "numkit.backward": self._on_backward,
            "embedders.embed_genomics": self._on_embed_genomics,
            "dataio.read_bag": self._bytes_counter("dataio.bytes_read"),
            "dataio.read_genomic_csv": self._bytes_counter("dataio.bytes_read"),
            "checkpoint.load_checkpoint": self._bytes_counter("checkpoint.bytes"),
        }
        with_sample = {"train.sample_loss_and_grads", "train.predict"}
        for mod_name, attr, name in WRAP_SITES:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            if name == "gradcheck.finite_difference":
                wrapped = self._wrap(name, self._finite_difference_wrapper(original))
            else:
                wrapped = self._wrap(name, original, hooks.get(name), name in with_sample)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapped)
        verify = self.modules["verify"]
        self._saved.append((verify, "ALL_CHECKS", verify.ALL_CHECKS))
        verify.ALL_CHECKS = [(n, self._wrap(f"verify.{n}", fn)) for n, fn in verify.ALL_CHECKS]

    def _finite_difference_wrapper(self, original):
        # counts forward evaluations by wrapping the function under test
        def finite_difference(f, params, *args, **kwargs):
            def counted(p):
                self.count("gradcheck.forward_evals")
                return f(p)

            return original(counted, params, *args, **kwargs)

        return finite_difference

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def span_table(self) -> dict[tuple[str, str], dict]:
        """Per (phase, span name): calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        table: dict[tuple[str, str], dict] = {}
        for i, (label, start, end, _, _, phase) in enumerate(self.spans):
            if end is None:
                continue
            row = table.setdefault((phase, label), {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def write_spans(self, path, origin: float) -> None:
        """Write every span as CSV; times are seconds since ``origin``."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,sample,phase\n")
            for i, (label, start, end, parent, sample, phase) in enumerate(self.spans):
                end_s = "" if end is None else f"{end - origin:.9f}"
                fh.write(f"{i},{label},{start - origin:.9f},{end_s},{parent},{sample},{phase}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

METRICS_FILE = Path(__file__).resolve().parent / "metrics.json"


def layer_definitions() -> list[dict]:
    return json.loads(METRICS_FILE.read_text())["per_layer"]


def layer_metrics(tracer: Tracer, ops: list, n_setups: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced operation (set-up metrics: per set-up).

    A layer the workload never calls reads 0.
    """
    traced = [o for o in ops if o.traced]
    table = tracer.span_table()
    out: dict[str, tuple[float, str]] = {}
    for d in layer_definitions():
        phase = d.get("phase", "op")
        per = max(n_setups if phase == "setup" else len(traced), 1)
        kind, of, unit = d["kind"], d["of"], d["unit"]
        if kind in ("self", "inclusive"):
            row = table.get((phase, of), {"self_s": 0.0, "incl_s": 0.0})
            seconds = row["self_s" if kind == "self" else "incl_s"] / per
            value = seconds * {"ms": 1e3, "s": 1.0}[unit]
        elif kind == "counter":
            value = tracer.counts.get((phase, of), 0) / per
        elif kind == "op_value":
            value = sum(o.values.get(of, 0) for o in traced) / per
        elif kind == "spans":
            value = sum(r["calls"] for (p, _), r in table.items() if p == phase) / per
        elif kind == "overhead":
            # each traced operation against the untraced one just before it
            pairs = [b.wall_s - a.wall_s for a, b in zip(ops, ops[1:]) if b.traced and not a.traced]
            value = statistics.median(pairs) if pairs else 0.0
        else:
            raise ValueError(f"{d['name']}: unknown kind {kind!r}")
        out[d["name"]] = (value, unit)
    return out


def format_span_table(tracer: Tracer, n_traced: int, n_setups: int) -> str:
    """Every span name with calls, inclusive and self milliseconds per operation."""
    lines = [f"spans ({len(tracer.spans)} recorded; per traced operation, set-up spans per set-up)"]
    lines.append(f"  {'phase':<6} {'span':<44} {'calls':>10} {'incl ms':>12} {'self ms':>12}")
    rows = sorted(tracer.span_table().items(), key=lambda kv: (kv[0][0] != "setup", -kv[1]["self_s"]))
    for (phase, label), row in rows:
        per = max(n_setups if phase == "setup" else n_traced, 1)
        lines.append(
            f"  {phase:<6} {label:<44} {row['calls'] / per:>10.6g} "
            f"{1e3 * row['incl_s'] / per:>12.6g} {1e3 * row['self_s'] / per:>12.6g}"
        )
    for (phase, name), total in sorted(tracer.counts.items()):
        per = max(n_setups if phase == "setup" else n_traced, 1)
        lines.append(f"  {phase:<6} count {name:<38} {total / per:>10.6g}")
    return "\n".join(lines)
