"""Per-layer tracing from outside the package.

A Tracer replaces each public entry point on every module name a caller
looks it up by (``gsaformer.model.gsa_forward`` as well as
``gsaformer.gsa.gsa_forward``), so no file under ``src/`` changes.  Each
call becomes a span with a parent link.  ``ComputationTape.record`` is
wrapped too: every recorded backward rule is timed when the tape replays
and charged to its op name and to the span that was innermost when the
op ran forward.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import gsaformer
from gsaformer import attention, benchmark, cca, cli, data, gsa, model, tensor, training

# flags a span passes on to every span below it
ENC, GSA, GLOBAL, ATTN, CCA = 1, 2, 4, 8, 16

# entry point -> (span name, flag).  The original is taken from the first
# module in MODULES that holds the name; every module holding that same
# object (a caller's import) gets the wrapper too.
FUNCTIONS = {
    "gsa_forward": ("gsa.gsa_forward", GSA),
    "summarize_group": ("gsa.summarize_group", GLOBAL),
    "global_summary_attention": ("gsa.global_summary_attention", GLOBAL),
    "merge_outputs": ("gsa.merge_outputs", GLOBAL),
    "cca_forward": ("cca.cca_forward", CCA),
    "compress_encoder_output": ("cca.compress_encoder_output", 0),
    "scaled_dot_attention": ("attention.scaled_dot_attention", ATTN),
    "layer_norm": ("tensor.layer_norm", 0),
    "backward": ("tensor.backward", 0),
    "save_checkpoint": ("tensor.save_checkpoint", 0),
    "load_checkpoint": ("tensor.load_checkpoint", 0),
    "mse_loss": ("training.mse_loss", 0),
    "adam_step": ("training.adam_step", 0),
    "evaluate": ("training.evaluate", 0),
    "make_windows": ("data.make_windows", 0),
}
METHODS = {
    "forward": ("model.forward", 0),
    "encoder_forward": ("model.encoder_forward", ENC),
}
MODULES = (tensor, attention, gsa, cca, model, data, training, benchmark, cli, gsaformer)


class Span:
    __slots__ = ("name", "parent", "flags", "start", "end", "child_s",
                 "bwd_s", "nodes", "scores", "masked")

    def __init__(self, name: str, parent: int, flags: int, start: float):
        self.name = name
        self.parent = parent
        self.flags = flags
        self.start = start
        self.end = start
        self.child_s = 0.0    # time covered by direct children
        self.bwd_s = 0.0      # backward rules of ops recorded in this span
        self.nodes = 0        # tape nodes recorded in this span
        self.scores = 0       # attention score elements (attention spans)
        self.masked = 0       # of which a mask forces to zero

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Spans and backward-rule timings, recorded while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_bwd_s: dict[str, float] = defaultdict(float)
        self.op_nodes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # -- spans ---------------------------------------------------------
    def open(self, name: str, flags: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            flags |= self.spans[parent].flags
        span = Span(name, parent, flags, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------
    def _traced(self, fn, name: str, flags: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, flags)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _traced_attention(self, fn, name: str, flags: int):
        @functools.wraps(fn)
        def traced(q, k, v, mask, counter):
            span = self.open(name, flags)
            n_q, n_k = q.shape[0], k.shape[0]
            span.scores = n_q * n_k
            allow = mask.matrix(n_q, n_k)
            if allow is not None:
                span.masked = int(allow.size - allow.sum())
            try:
                return fn(q, k, v, mask, counter)
            finally:
                self.close(span)
        return traced

    def _traced_record(self, record):
        op_bwd_s, op_nodes = self.op_bwd_s, self.op_nodes

        @functools.wraps(record)
        def traced(tape, name, out, backward_fn):
            span = self.spans[self._stack[-1]] if self._stack else None

            def timed_backward():
                start = time.perf_counter()
                backward_fn()
                dt = time.perf_counter() - start
                op_bwd_s[name] += dt
                if span is not None:
                    span.bwd_s += dt

            op_nodes[name] += 1
            if span is not None:
                span.nodes += 1
            record(tape, name, out, timed_backward)
        return traced

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper), one wrapper per original."""
        wrappers = {}
        for attr, (name, flags) in FUNCTIONS.items():
            fn = next(getattr(m, attr) for m in MODULES if hasattr(m, attr))
            make = self._traced_attention if attr == "scaled_dot_attention" else self._traced
            wrappers[id(fn)] = (fn, make(fn, name, flags))
        return wrappers

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in MODULES:
            for attr in FUNCTIONS:
                current = getattr(module, attr, None)
                entry = self._wrappers.get(id(current))
                if entry is not None and entry[0] is current:
                    self._patch(module, attr, entry[1])
        cls = model.ForecasterModel
        for attr, (name, flags) in METHODS.items():
            self._patch(cls, attr, self._traced(getattr(cls, attr), name, flags))
        record = tensor.ComputationTape.record
        self._patch(tensor.ComputationTape, "record", self._traced_record(record))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------
    def self_times_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_s * 1e3
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        """Write every span (name, parent index, start and duration, self
        time, backward time of its ops, tape nodes, all in microseconds
        from the first span) plus the per-op backward totals."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "parent", "start_us", "dur_us", "self_us",
                              "bwd_us", "tape_nodes"]
        doc["spans"] = [[s.name, s.parent, round((s.start - t0) * 1e6, 1),
                         round(s.dur * 1e6, 1), round(s.self_s * 1e6, 1),
                         round(s.bwd_s * 1e6, 1), s.nodes] for s in self.spans]
        doc["backward_ops"] = {op: {"bwd_ms": self.op_bwd_s[op] * 1e3,
                                    "nodes": self.op_nodes[op]}
                               for op in sorted(self.op_nodes)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


BACKWARD_OPS = ("matmul", "slice_rows", "slice_cols", "concat_rows",
                "layer_norm", "row_softmax", "broadcast_add")


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one traced run, divided by its step count."""
    fwd = defaultdict(float)       # (span name, in encoder) -> seconds
    calls = defaultdict(int)
    bwd = defaultdict(float)       # flag group -> seconds
    nodes = defaultdict(int)
    scores = defaultdict(int)
    masked = 0
    peak = 0
    for s in tracer.spans:
        enc = bool(s.flags & ENC)
        fwd[s.name, enc] += s.dur
        calls[s.name] += 1
        f = s.flags
        for group, hit in (("gsa.enc", f & GSA and enc), ("gsa.dec", f & GSA and not enc),
                           ("gsa.enc.global", f & GLOBAL and enc), ("attention", f & ATTN),
                           ("cca", f & CCA),
                           ("model.self", s.name in ("model.forward", "model.encoder_forward"))):
            if hit:
                bwd[group] += s.bwd_s
                nodes[group] += s.nodes
        if s.name == "attention.scaled_dot_attention":
            scores["attention"] += s.scores
            if f & CCA:
                scores["cca"] += s.scores
            masked += s.masked
            peak = max(peak, s.scores)

    def ms(seconds: float) -> tuple[float, str]:
        return seconds * 1e3 / steps, "ms"

    def per_step(count: int) -> tuple[float, str]:
        return count / steps, "count"

    def both(name: str) -> float:
        return fwd[name, True] + fwd[name, False]

    global_names = ("gsa.summarize_group", "gsa.global_summary_attention", "gsa.merge_outputs")
    model_self = sum(s.self_s for s in tracer.spans
                     if s.name in ("model.forward", "model.encoder_forward"))
    out = {
        "gsa.enc.fwd_ms": ms(fwd["gsa.gsa_forward", True]),
        "gsa.dec.fwd_ms": ms(fwd["gsa.gsa_forward", False]),
        "gsa.enc.global.fwd_ms": ms(sum(fwd[n, True] for n in global_names)),
        "gsa.calls": per_step(calls["gsa.gsa_forward"]),
        "gsa.tape_nodes": per_step(nodes["gsa.enc"] + nodes["gsa.dec"]),
        "gsa.enc.bwd_ms": ms(bwd["gsa.enc"]),
        "gsa.dec.bwd_ms": ms(bwd["gsa.dec"]),
        "gsa.enc.global.bwd_ms": ms(bwd["gsa.enc.global"]),
        "tensor.backward_ms": ms(both("tensor.backward")),
        "tensor.tape_nodes": per_step(sum(tracer.op_nodes.values())),
    }
    for op in BACKWARD_OPS:
        out[f"tensor.op.{op}.bwd_ms"] = ms(tracer.op_bwd_s.get(op, 0.0))
        out[f"tensor.op.{op}.nodes"] = per_step(tracer.op_nodes.get(op, 0))
    attn_scores = scores["attention"]
    out.update({
        "tensor.layer_norm.fwd_ms": ms(both("tensor.layer_norm")),
        "tensor.save_checkpoint_ms": ms(both("tensor.save_checkpoint")),
        "tensor.load_checkpoint_ms": ms(both("tensor.load_checkpoint")),
        "attention.calls": per_step(calls["attention.scaled_dot_attention"]),
        "attention.fwd_ms": ms(both("attention.scaled_dot_attention")),
        "attention.bwd_ms": ms(bwd["attention"]),
        "attention.score_elements": (attn_scores / steps, "elements"),
        "attention.peak_score_buffer": (float(peak), "elements"),
        "attention.masked_fraction": (masked / attn_scores if attn_scores else 0.0,
                                      "fraction"),
        "cca.fwd_ms": ms(both("cca.cca_forward")),
        "cca.bwd_ms": ms(bwd["cca"]),
        "cca.compress.fwd_ms": ms(both("cca.compress_encoder_output")),
        "cca.score_elements": (scores["cca"] / steps, "elements"),
        "model.encoder.fwd_ms": ms(both("model.encoder_forward")),
        "model.decoder.fwd_ms": ms(both("model.forward") - both("model.encoder_forward")),
        "model.self.fwd_ms": ms(model_self),
        "model.self.bwd_ms": ms(bwd["model.self"]),
        "training.adam_ms": ms(both("training.adam_step")),
        "training.loss_ms": ms(both("training.mse_loss")),
        "training.evaluate_ms": ms(both("training.evaluate")),
    })
    return out
