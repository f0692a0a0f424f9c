"""Span recording around the public taccompress functions the campaigns call.

Tracing lives entirely in the benchmark: :func:`instrument` swaps the module
attributes that the suites look up at call time for wrappers that record a
span (name, start, end, parent, thread) and a few counts, and puts the
originals back afterwards.  Spans stay in memory until :meth:`Tracer.dump`.
"""

import contextlib
import dataclasses
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

from taccompress import adapters, analysis, bench, codec, imaging, simulate, trace
from taccompress.analysis import ClassifierKind

SETUP = -1  # phase of spans recorded before the first timed round


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    thread: int
    span_id: int
    phase: int
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    phase = SETUP

    def span(self, name):
        return contextlib.nullcontext({})


class Tracer:
    """In-memory span recorder, safe to use from pool worker threads.

    A span opened on a thread with no open span of its own (a pool worker)
    takes the innermost open span of the main thread as its parent, so the
    suite that submitted the work owns it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        span_id = next(self._ids)
        counts = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, parent, threading.get_ident(),
                                   span_id, self.phase, counts))

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".msps"):
        return "Msample/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_read"):
        return "bytes"
    return "count"


def _wrap(tracer, fn, name, count=None):
    """Wrap ``fn`` in a span; ``name`` may depend on the call's arguments and
    ``count(args, result)`` returns the span's counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with tracer.span(span_name) as counts:
            result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, result))
        return result

    return wrapper


def _file_bytes(args, _result):
    source = args[0]
    return {"bytes": os.path.getsize(source)} if isinstance(source, (str, os.PathLike)) else {}


def _classifier_name(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return f"analysis.train.{kind.value}"


def _targets():
    """(owners, attribute, span name, counter) for every traced call site.

    ``owners`` lists each namespace the attribute is looked up in by the
    callers that matter: the suites resolve most names through ``bench``'s
    globals, while the benchmark itself calls through the defining module.
    """
    return [
        ((simulate,), "generate_trace", "simulate.generate_trace",
         lambda a, r: {"frames": r.frame_count}),
        ((trace,), "save_trace", "trace.save_trace", None),
        ((bench,), "load_trace", "trace.load_trace", _file_bytes),
        ((bench, imaging), "trace_to_image", "imaging.trace_to_image", None),
        ((codec,), "encode_lossless", "codec.encode_lossless",
         lambda a, r: {"samples": a[0].sample_count, "payload": len(r.payload)}),
        ((codec,), "decode_lossless", "codec.decode_lossless",
         lambda a, r: {"samples": a[0].sub_samples}),
        ((codec,), "encode_lossy", "codec.encode_lossy",
         lambda a, r: {"samples": a[0].sample_count, "payload": len(r.payload)}),
        ((codec,), "decode_lossy", "codec.decode_lossy",
         lambda a, r: {"samples": a[0].sub_samples}),
        ((bench, adapters), "probe", "adapters.probe", None),
        ((bench,), "run_external", "adapters.run_external",
         lambda a, r: {"samples": a[1].sample_count}),
        ((bench,), "ms_ssim", "metrics.ms_ssim", None),
        ((bench,), "bd_rate", "metrics.bd_rate", None),
        ((bench, analysis), "featurize", "analysis.featurize", None),
        ((bench,), "train_classifier", _classifier_name, None),
        ((bench,), "predict", "analysis.predict", None),
        ((analysis,), "tsne_2d", "analysis.tsne_2d", None),
        ((analysis,), "kmeans", "analysis.kmeans", None),
        ((bench.CodecRunner,), "run_trace", "bench.run_trace", None),
        ((bench,), "write_lossless_report", "bench.write_report", None),
        ((bench,), "write_lossy_report", "bench.write_report", None),
        ((bench,), "write_downstream_report", "bench.write_report", None),
    ]


@contextlib.contextmanager
def instrument(tracer):
    """Route every traced call site through ``tracer`` for the duration."""
    saved = []
    try:
        for owners, attr, name, count in _targets():
            for owner in owners:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(interval, children) -> float:
    """Length of ``interval`` covered by the union of the child intervals."""
    lo, hi = interval
    covered = 0.0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


# Spans whose summed duration is a per-layer ``<name>.s`` metric.
TIMED = (
    "simulate.generate_trace", "trace.save_trace", "trace.load_trace",
    "imaging.trace_to_image", "codec.encode_lossless", "codec.decode_lossless",
    "codec.encode_lossy", "codec.decode_lossy", "adapters.probe", "adapters.run_external",
    "metrics.ms_ssim", "metrics.bd_rate", "analysis.featurize",
    *(f"analysis.train.{kind.value}" for kind in ClassifierKind),
    "analysis.predict", "analysis.tsne_2d", "analysis.kmeans",
    "bench.run_trace", "bench.write_report",
)
# Spans that also report a sample rate (``.msps``) and a call count (``.calls``).
RATED = ("codec.encode_lossless", "codec.decode_lossless", "codec.encode_lossy",
         "codec.decode_lossy", "adapters.run_external")
COUNTED = ("adapters.run_external", "metrics.ms_ssim", "bench.run_trace")


def layer_metrics(tracer, rounds: int, round_seconds: list[float],
                  round_cpu: list[float]) -> dict:
    """Per-layer metrics: what set-up plus one average timed round spent in
    each layer.  Rates are totals over the whole run."""
    seconds, calls, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    for s in tracer.spans:
        share = 1.0 if s.phase == SETUP else 1.0 / rounds
        seconds[s.name] += s.seconds * share
        calls[s.name] += share
        for key, value in s.counts.items():
            counts[s.name, key] += value * share

    suites = [s for s in tracer.spans if s.name == "bench.suite"]
    self_s = sum(
        suite.seconds - _covered((suite.start, suite.end),
                                 [(c.start, c.end) for c in tracer.spans
                                  if c.parent == suite.span_id])
        for suite in suites
    )
    suite_s = sum(s.seconds for s in suites)

    out = {f"{name}.s": seconds[name] for name in TIMED}
    out.update({f"{name}.msps": counts[name, "samples"] / seconds[name] / 1e6
                if seconds[name] else 0.0 for name in RATED})
    out.update({f"{name}.calls": calls[name] for name in COUNTED})
    out["simulate.frames"] = counts["simulate.generate_trace", "frames"]
    out["trace.bytes_read"] = counts["trace.load_trace", "bytes"]
    out["imaging.tiles"] = calls["imaging.trace_to_image"]
    out["codec.payload_bytes"] = (counts["codec.encode_lossless", "payload"]
                                  + counts["codec.encode_lossy", "payload"])
    out["bench.self.s"] = self_s / rounds
    # run_trace spans only occur in timed rounds, so the per-round mean over
    # the mean suite time per round is the mean number in flight
    out["bench.inflight"] = seconds["bench.run_trace"] * rounds / suite_s if suite_s else 0.0
    out["bench.campaign.s"] = statistics.median(round_seconds)
    out["process.cpu_s"] = sum(round_cpu) / rounds
    return out
