"""Spans recorded from outside the program, by wrapping the names callers look up.

A binding is one module attribute (or class attribute) that some caller
resolves at call time.  A name imported with ``from module import name`` is a
separate binding in the importing module, so each one is listed on its own:
``uban.model.dual_heads`` and ``uban.train.dual_heads`` are two bindings of one
function.

Spans stay in memory.  Each has a name, a start, an end, the span it ran
under and the id of the run (one pipeline round) it belongs to.  The clock
skips intervals spent in ``Tracer.excluded()``, so work the tracer does for
itself (walking the autodiff graph to count nodes) falls in no span.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ALL = frozenset({"train-boosted", "train-plain", "cli-pipeline"})
# workloads whose training uses the full objective (labels, SRUL, TRUL, WD)
BOOSTED = frozenset({"train-boosted", "cli-pipeline"})


@dataclass(frozen=True)
class Binding:
    layer: str          # module of src/uban/ the work belongs to
    module: str         # module whose namespace holds the name
    attr: str           # "name" or "Class.method"
    serves: frozenset   # workloads on which the binding must record calls
    kind: str = "call"  # "call", or "generator" to time each next()

    @property
    def name(self):
        return f"{self.module}.{self.attr}"


BINDINGS = (
    Binding("autodiff", "uban.autodiff", "backward", ALL),
    Binding("autodiff", "uban.autodiff", "_topo_order", ALL),
    Binding("model", "uban.model", "GruBackbone.anticipate", ALL),
    Binding("model", "uban.model", "dual_heads", ALL),
    Binding("model", "uban.train", "dual_heads", BOOSTED),
    Binding("model", "uban.model", "AnticipationModel.predict", ALL),
    Binding("model", "uban.cli", "mc_dropout_forward", ALL),
    Binding("model", "uban.cli", "save_checkpoint", ALL),
    Binding("model", "uban.cli", "load_checkpoint", ALL),
    Binding("losses", "uban.train", "relative_weights", BOOSTED),
    Binding("losses", "uban.train", "adjust_distribution", BOOSTED),
    Binding("losses", "uban.train", "srul_loss", BOOSTED),
    Binding("losses", "uban.train", "trul_loss_batched", BOOSTED),
    Binding("losses", "uban.train", "wd_loss", BOOSTED),
    Binding("labels", "uban.train", "_label_cache", BOOSTED),
    Binding("labels", "uban.train", "_pair_label_rows", BOOSTED),
    Binding("labels", "uban.train", "pair_set", BOOSTED),
    Binding("labels", "uban.train", "pair_label", BOOSTED),
    Binding("train", "uban.cli", "train", ALL),
    Binding("train", "uban.train", "_family_uncertainty", BOOSTED),
    Binding("train", "uban.train", "SgdMomentum.step", ALL),
    Binding("train", "uban.cli", "evaluate_model", ALL),
    Binding("data", "uban.cli", "generate_synthetic", ALL),
    Binding("data", "uban.train", "window_samples", ALL),
    Binding("data", "uban.cli", "window_samples", ALL),
    Binding("data", "uban.train", "family_batches", BOOSTED),
    Binding("data", "uban.train", "pair_batches", BOOSTED, kind="generator"),
    Binding("data", "uban.cli", "write_feature_csv", ALL),
    Binding("data", "uban.cli", "read_feature_csv", ALL),
    Binding("data", "uban.evaluation", "pollute", ALL),
    Binding("cooccur", "uban.cli", "read_annotations", ALL),
    Binding("cooccur", "uban.cli", "build_internal_matrix", ALL),
    Binding("cooccur", "uban.train", "build_internal_matrix", BOOSTED),
    Binding("evaluation", "uban.cli", "metric_report", ALL),
    Binding("evaluation", "uban.cli", "noise_sweep", ALL),
    Binding("cli", "uban.cli", "cmd_gen", ALL),
    Binding("cli", "uban.cli", "cmd_stats", ALL),
    Binding("cli", "uban.cli", "cmd_train", ALL),
    Binding("cli", "uban.cli", "cmd_eval", ALL),
    Binding("cli", "uban.cli", "_digest", ALL),
)

# the span the benchmark opens around each call of uban.cli.main
STAGE_SPAN = "uban.cli.main"
LAYER_OF = {b.name: b.layer for b in BINDINGS} | {STAGE_SPAN: "cli"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    run_id: str
    info: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self):
        return self.end - self.start


def merged_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span):
    """Duration minus the part of it that child spans cover, each instant once."""
    covered = merged_length(
        (max(c.start, span.start), min(c.end, span.end))
        for c in span.children if c.end > span.start and c.start < span.end)
    return span.duration - covered


def walk(span):
    """The span and all its descendants, depth first."""
    stack = [span]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(s.children)


def ancestors(span):
    s = span.parent
    while s is not None:
        yield s
        s = s.parent


def _resolve(binding):
    module = importlib.import_module(binding.module)
    owner_name, _, attr = binding.attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


class Patches:
    """Replaces attributes and puts the originals back, last in first out."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder wrapped around every binding in ``BINDINGS``."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans = []            # root spans, one tree per benchmark call
        self.calls = {b.name: 0 for b in bindings}
        self.tape_nodes = []       # nodes per backward, counted off the clock
        self.eval_nodes = 0        # tape nodes built inside inference calls
        self.eval_windows = 0      # windows given to inference calls
        self.pair_rows = 0         # label rows requested from _pair_label_rows
        self.digest_bytes = 0
        self.run_id = ""
        self._stack = []
        self.originals = {}        # binding name -> the function it wrapped
        self._excluded = 0.0
        self._patches = Patches()

    # -- clock and spans -------------------------------------------------
    def now(self):
        return time.perf_counter() - self._excluded

    @contextmanager
    def excluded(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0

    @contextmanager
    def span(self, name, **info):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.now(), 0.0, parent, self.run_id, info)
        (parent.children if parent is not None else self.spans).append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.now()
            self._stack.pop()

    # -- installation ----------------------------------------------------
    def install(self):
        for b in self.bindings:
            owner, attr = _resolve(b)
            original = self.originals[b.name] = owner.__dict__[attr]
            wrap = self._wrap_generator if b.kind == "generator" else self._wrap_call
            self._patches.replace(owner, attr, wrap(b.name, original))

    def uninstall(self):
        self._patches.restore()

    def _wrap_call(self, name, fn):
        tracer = self
        before = self.BEFORE.get(name)
        around = self.AROUND.get(name)

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            info = before(tracer, *args, **kwargs) if before else None
            with tracer.span(name, **(info or {})):
                if around is None:
                    return fn(*args, **kwargs)
                with around(tracer):
                    return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- per-binding hooks: run before the span opens, or off the clock ----
    def _count_tape(self, root):
        with self.excluded():
            self.tape_nodes.append(len(self.originals["uban.autodiff._topo_order"](root)))

    def _gru_steps(self, backbone, observed, n_a, *rest, **kw):
        n_o = observed.shape[1] if hasattr(observed, "shape") else len(observed)
        return {"gru_steps": int(n_o) + int(n_a)}

    @contextmanager
    def _counting_make(self):
        from uban import autodiff
        real = autodiff._make
        count = [0]

        def make(*args):
            out = real(*args)
            count[0] += out.requires_grad
            return out

        autodiff._make = make
        try:
            yield
        finally:
            autodiff._make = real
            self.eval_nodes += count[0]

    def _inference(self, model, observed, *rest, **kw):
        self.eval_windows += int(observed.shape[0])

    def _pair_rows(self, pairs, *rest, **kw):
        self.pair_rows += len(pairs)

    def _digest_size(self, path):
        self.digest_bytes += os.path.getsize(path)

    # hook(tracer, *call arguments) -> extra span fields or None
    BEFORE = {
        "uban.autodiff.backward": _count_tape,
        "uban.model.GruBackbone.anticipate": _gru_steps,
        "uban.model.AnticipationModel.predict": _inference,
        "uban.cli.mc_dropout_forward": _inference,
        "uban.train._pair_label_rows": _pair_rows,
        "uban.cli._digest": _digest_size,
    }
    # context manager entered inside the span, around the call
    AROUND = {
        "uban.model.AnticipationModel.predict": _counting_make,
        "uban.cli.mc_dropout_forward": _counting_make,
    }

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path):
        """Write every span, one JSON object a line, with ids for parents."""
        ids = {}
        with open(path, "w", encoding="utf-8") as fh:
            for root in self.spans:
                for s in walk(root):
                    ids[id(s)] = len(ids)
                    fh.write(json.dumps({
                        "id": ids[id(s)],
                        "parent": ids.get(id(s.parent)) if s.parent else None,
                        "name": s.name, "run": s.run_id,
                        "start": s.start, "end": s.end, **s.info,
                    }) + "\n")
