"""Spans around the public calls of the mlrm layers, recorded from outside.

The tracer replaces module and class attributes with timing wrappers and
puts the originals back afterwards; ``src/mlrm`` itself is not edited.
A function that other modules bind with ``from ... import`` is replaced
at every binding site, found by identity in each loaded ``mlrm`` module.

Each span is ``[name, start, end, parent, run]``: the parent is the
index of the enclosing span (-1 at top level) and ``run`` labels the
phase it belongs to. Spans stay in memory until ``write_spans``. The
process is single-threaded, so one stack tracks nesting.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("data.generate_dataset", "data", "generate_dataset"),
    ("data.generate_synthetic", "data", "generate_synthetic"),
    ("data.build_pairs", "data", "build_pairs"),
    ("data.load_pairs", "data", "load_pairs"),
    ("data.make_batches", "data", "make_batches"),
    ("notes.load_notes", "notes", "load_notes"),
    ("prompting.build_prompt", "prompting", "build_prompt"),
    ("model.init_params", "model", "init_params"),
    ("model.embed_notes", "model", "embed_notes"),
    ("model.encode_images", "model", "encode_images"),
    ("model.connect", "model", "connect"),
    ("model.forward_llm", "model", "forward_llm"),
    ("model.gate_fuse", "model", "gate_fuse"),
    ("model.project", "model", "project"),
    ("autodiff.backward", "autodiff", "backward"),
    ("training.batch_loss", "training", "batch_loss"),
    ("training.contrastive_loss", "training", "contrastive_loss"),
    ("training.clip_gradients", "training", "clip_gradients"),
    ("training.optimizer", "training", "AdamW.step"),
    ("checkpoint.save", "checkpoint", "save_checkpoint"),
    ("checkpoint.load", "checkpoint", "load_checkpoint"),
    ("retrieval.select_pool", "retrieval", "select_pool"),
    ("retrieval.build_table", "retrieval", "build_table"),
    ("retrieval.evaluate", "retrieval", "evaluate"),
    ("retrieval.target_rank", "retrieval", "target_rank"),
    ("retrieval.bm25.build", "retrieval", "BM25Index.__init__"),
    ("retrieval.bm25.rank", "retrieval", "BM25Index.rank"),
    ("retrieval.save_table", "retrieval", "save_table"),
    ("retrieval.load_table", "retrieval", "load_table"),
    ("retrieval.topk", "retrieval", "topk"),
    ("retrieval.write_eval_report", "retrieval", "write_eval_report"),
    ("saliency.saliency_report", "saliency", "saliency_report"),
    ("saliency.batch_saliency", "saliency", "batch_saliency"),
    ("saliency.saliency_matrices", "saliency", "saliency_matrices"),
    ("saliency.decompose", "saliency", "decompose"),
)

# autodiff functions that are not forward ops
NOT_OPS = frozenset({"backward", "no_grad", "grad_enabled", "first_nonfinite"})

# Forward op kinds reported one by one: every kind that held at least 1%
# of forward op self time on one workload when the benchmark was defined,
# plus narrow and embedding_lookup (0.2-0.6%). Every other kind, including
# ops added later, is summed into autodiff.op.other.
OP_KINDS = ("masked_softmax", "matmul", "gelu", "layer_norm", "add", "scale",
            "transpose", "concat", "reshape", "narrow", "embedding_lookup")

# spans whose inclusive time is reported besides their self time
INCLUSIVE = ("model.embed_notes", "model.encode_images", "model.connect", "model.forward_llm")

STEP_PARTS = {
    "forward_s": ("training.batch_loss",),
    "backward_s": ("autodiff.backward",),
    "optimizer_s": ("training.clip_gradients", "training.optimizer"),
}


def _bound_args(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def tape_stats(root) -> tuple[int, int]:
    """(node count, summed value bytes) of the graph reachable from root."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        t = stack.pop()
        nbytes += t.data.nbytes
        for p in getattr(t, "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


class Tracer:
    """Installs timing wrappers on the mlrm layers and keeps the spans."""

    def __init__(self, mlrm_package):
        self.package = mlrm_package
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tapes: list[tuple[int, int]] = []
        self.run = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and name.startswith(prefix)]

    def _targets(self):
        ad = sys.modules[self.package.__name__ + ".autodiff"]
        ops = [(f"autodiff.op.{name}", "autodiff", name)
               for name, fn in sorted(vars(ad).items())
               if inspect.isfunction(fn) and fn.__module__ == ad.__name__
               and not name.startswith("_") and name not in NOT_OPS]
        return list(TARGETS) + ops

    def install(self) -> None:
        modules = self._modules()
        self.missing = []
        for span, module_name, attr in self._targets():
            module = sys.modules.get(f"{self.package.__name__}.{module_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original)
            if owner_name:
                self._patch(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        if self.missing:
            print(f"perfbench: not traced (attribute gone): {', '.join(self.missing)}",
                  file=sys.stderr)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = self._counter(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "autodiff.backward" and args:
                tracer.tapes.append(tape_stats(args[0]))
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(_bound_args(fn, args, kwargs), out)
            if inspect.isgenerator(out):
                return tracer._timed_generator(name, out)
            return out
        return wrapper

    def _timed_generator(self, name: str, gen):
        # a lazy producer does its work in next(), so each step is a span
        while True:
            span = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    def _counter(self, name: str):
        counts = self.counts
        if name == "model.embed_notes":
            def count(a, out):
                counts["model.embed_notes.notes"] += len(a.get("notes", ()))
                counts["model.real_positions"] += sum(i.length for i in out.infos)
            return count
        if name == "model.encode_images":
            def count(a, out):
                counts["model.encode_images.rows"] += len(a["images"])
            return count
        if name == "model.forward_llm":
            def count(a, out):
                counts["model.forward_llm.positions"] += a["x"].shape[0] * a["x"].shape[1]
            return count
        if name == "retrieval.build_table":
            def count(a, out):
                counts["retrieval.build_table.rows"] += len(out)
            return count
        if name in ("checkpoint.save", "retrieval.save_table"):
            key = "checkpoint.save.bytes" if name == "checkpoint.save" else "retrieval.table.bytes"

            def count(a, out):
                counts[key] += os.path.getsize(a["path"])
            return count
        return None

    # -- reporting --------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self time, inclusive time and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            incl[name] += end - start
            calls[name] += 1
        return own, incl, calls

    def step_split(self, marks: list[float]) -> dict[str, float]:
        """Mean per-step wall time split by phase; marks are [start, step1 end, ...]."""
        steps = len(marks) - 1
        if steps < 1:
            return {}
        parts = {key: 0.0 for key in STEP_PARTS}
        for name, start, end, _, _ in self.spans:
            if marks[0] <= start < marks[-1]:
                for key, names in STEP_PARTS.items():
                    if name in names:
                        parts[key] += end - start
        out = {f"training.step.{k}": v / steps for k, v in parts.items()}
        step_s = (marks[-1] - marks[0]) / steps
        out["training.step.s"] = step_s
        out["training.step.other_s"] = step_s - sum(parts.values()) / steps
        return out

    def layer_metrics(self, marks: list[float]) -> dict[str, float]:
        own, incl, calls = self.totals()
        c = self.counts
        m: dict[str, float] = {}
        for span, _, _ in TARGETS:
            m[f"{span}.s"] = own.get(span, 0.0)
        for span in INCLUSIVE:
            m[f"{span}.incl_s"] = incl.get(span, 0.0)
        for kind in OP_KINDS:
            m[f"autodiff.op.{kind}.s"] = own.pop(f"autodiff.op.{kind}", 0.0)
            m[f"autodiff.op.{kind}.calls"] = calls.pop(f"autodiff.op.{kind}", 0)
        others = [name for name in own if name.startswith("autodiff.op.")]
        m["autodiff.op.other.s"] = sum(own[name] for name in others)
        m["autodiff.op.other.calls"] = sum(calls[name] for name in others)
        for span in ("data.make_batches", "prompting.build_prompt", "model.embed_notes",
                     "autodiff.backward", "retrieval.target_rank", "retrieval.bm25.rank",
                     "retrieval.topk", "saliency.decompose"):
            m[f"{span}.calls"] = calls.get(span, 0)
        for key in ("model.embed_notes.notes", "model.encode_images.rows",
                    "model.forward_llm.positions", "checkpoint.save.bytes",
                    "retrieval.build_table.rows", "retrieval.table.bytes"):
            m[key] = c.get(key, 0)
        notes = c.get("model.embed_notes.notes", 0)
        positions = c.get("model.forward_llm.positions", 0)
        m["model.image_cache.miss_frac"] = (c.get("model.encode_images.rows", 0) / notes
                                            if notes else 0.0)
        m["model.forward_llm.pad_frac"] = (1.0 - c.get("model.real_positions", 0) / positions
                                           if positions else 0.0)
        m["autodiff.tape_nodes"] = statistics.median(n for n, _ in self.tapes) if self.tapes else 0
        m["autodiff.activation_mb"] = (statistics.median(b for _, b in self.tapes) / 2 ** 20
                                       if self.tapes else 0.0)
        split = {"training.step.s": 0.0, "training.step.forward_s": 0.0,
                 "training.step.backward_s": 0.0, "training.step.optimizer_s": 0.0,
                 "training.step.other_s": 0.0}
        split.update(self.step_split(marks))
        m.update(split)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}, separators=(",", ":")))
                fh.write("\n")
