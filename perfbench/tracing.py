"""Span tracing around labelloop's public entry points, from outside the package.

``install`` replaces every binding of a traced function (in the module that
defines it and in each module that imported it by name) with a wrapper that
records a span, and ``uninstall`` puts the originals back. Classes are
patched on the class, so bound calls such as ``hub.ingest(e)`` are seen too.
Nothing in ``src/`` changes.

A span records its layer name, a record kind (the record class for the
codec), start and end in ``perf_counter_ns``, its parent on the same thread,
a correlation id shared by the spans of one study or envelope, and a byte
count where the layer produces bytes. Spans stay in memory, one list per
thread, until ``write_spans`` saves them.

Layer self time is a span's duration minus the part of it that its child
spans cover. Per-call percentiles use the inclusive duration.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

# positions in a span record (a list, so that closing a span is one store)
NAME, KIND, START, END, PARENT, CORR, NBYTES = range(7)

CHECK_SPAN = "bench.check"


@dataclass(frozen=True)
class Layer:
    """One traced entry point: ``module.attr`` or ``module.cls.attr``."""
    name: str
    module: str
    attr: str
    cls: str | None = None
    kind: Callable[[tuple, dict], str] | None = None
    corr: Callable[[tuple, dict], str] | None = None
    after: Callable[["Tracer", list, tuple, dict, Any], None] | None = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: dict[str, list[list]] = {}
        self.counters: Counter = Counter()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.corr = None
            with self._lock:
                self.threads[f"{threading.get_ident()}-{len(self.threads)}"] = local.spans
        return local

    def open(self, name: str, kind: str | None = None,
             corr: str | None = None) -> list:
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        if corr is None:
            corr = (local.spans[parent][CORR] if parent >= 0 else None) or local.corr
        span = [name, kind, 0, 0, parent, corr, 0]
        local.stack.append(len(local.spans))
        local.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._local.stack.pop()

    def set_corr(self, corr: str) -> None:
        """Later spans on this thread without a parent carry ``corr``."""
        self._state().corr = corr

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    @contextmanager
    def span(self, name: str, corr: str | None = None):
        span = self.open(name, corr=corr)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer, name = self, layer.name
        kind_of, corr_of, after = layer.kind, layer.corr, layer.after

        def traced(*args, **kwargs):
            span = tracer.open(name,
                               kind_of(args, kwargs) if kind_of else None,
                               corr_of(args, kwargs) if corr_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# the traced layers


def _arg(args: tuple, kwargs: dict, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _checked(tracer: Tracer, work: Callable[[], None]) -> None:
    # the benchmark's own bookkeeping is a child span, so it is never charged
    # to the self time of the layer that called the traced function
    with tracer.span(CHECK_SPAN):
        work()


def _after_encode(tracer, span, args, kwargs, line):
    span[NBYTES] = len(line.encode("utf-8"))


def _after_frame(tracer, span, args, kwargs, frame):
    span[NBYTES] = len(frame)


def _after_generate_case(tracer, span, args, kwargs, result):
    uid = result[0].study_uid
    span[CORR] = uid
    tracer.set_corr(uid)


def _after_deidentify(tracer, span, args, kwargs, result):
    from labelloop.deid import verify_deidentified
    raw = _arg(args, kwargs, 0, "s")

    def scan():
        leaks = verify_deidentified(result[0], result[1], raw.identity.phi_tokens)
        tracer.count("deid.leaks", len(leaks))
    _checked(tracer, scan)


def _after_extract(tracer, span, args, kwargs, result):
    tracer.count("reports.labels", len(result[0]))


def _after_match(tracer, span, args, kwargs, result):
    tracer.count("feedback.pairs", len(result.pairs))


def _after_ingest(tracer, span, args, kwargs, ack):
    tracer.count(f"protocol.ingest.{ack.status.name.lower()}")


def _after_envelope_from_line(tracer, span, args, kwargs, envelope):
    span[CORR] = envelope.envelope_id


def _after_driver(tracer, span, args, kwargs, result):
    tracer.count("monitoring.events",
                 sum(s.event_count for s in result.monitoring.streams.values()))
    tracer.count("monitoring.alerts", len(result.bundle.alerts))
    tracer.count("registry.audit.appends", len(result.registry.audit))


def _record_kind(args, kwargs):
    return type(_arg(args, kwargs, 0, "record")).__name__


def _decode_kind(args, kwargs):
    return _arg(args, kwargs, 1, "cls").__name__


def _envelope_id(args, kwargs):
    return _arg(args, kwargs, 1, "e").envelope_id


LAYERS: tuple[Layer, ...] = (
    Layer("canon.encode", "labelloop.canon", "canonical_encode",
          kind=_record_kind, after=_after_encode),
    Layer("canon.decode", "labelloop.canon", "canonical_decode",
          kind=_decode_kind),
    Layer("deid.deidentify", "labelloop.deid", "deidentify_study",
          after=_after_deidentify),
    Layer("reports.parse", "labelloop.reports", "parse_body"),
    Layer("reports.extract", "labelloop.reports", "extract_labels",
          after=_after_extract),
    Layer("model.validate_study", "labelloop.model", "validate_study"),
    Layer("protocol.make_envelope", "labelloop.protocol", "make_envelope"),
    Layer("protocol.spool", "labelloop.protocol", "write_spool"),
    Layer("protocol.decode_envelope", "labelloop.protocol", "envelope_from_line",
          after=_after_envelope_from_line),
    Layer("protocol.encode_frame", "labelloop.protocol", "encode_envelope",
          after=_after_frame),
    Layer("protocol.ingest", "labelloop.protocol", "ingest", cls="Hub",
          corr=_envelope_id, after=_after_ingest),
    Layer("protocol.tcp.submit", "labelloop.protocol", "submit", cls="TcpClient",
          corr=_envelope_id),
    Layer("feedback.match", "labelloop.feedback", "match_detections",
          after=_after_match),
    Layer("feedback.score", "labelloop.feedback", "score_study"),
    Layer("feedback.aggregate", "labelloop.feedback", "aggregate_metrics"),
    Layer("monitoring.observe", "labelloop.monitoring", "observe_agreement",
          cls="MonitoringEngine"),
    Layer("monitoring.observe", "labelloop.monitoring", "observe_labels",
          cls="MonitoringEngine"),
    Layer("monitoring.propagate", "labelloop.monitoring", "propagate",
          cls="MonitoringEngine"),
    Layer("registry.audit", "labelloop.registry", "append_audit", cls="Registry"),
    Layer("registry.audit", "labelloop.registry", "register_version", cls="Registry"),
    Layer("registry.audit", "labelloop.registry", "set_status", cls="Registry"),
    Layer("registry.audit", "labelloop.registry", "assign_deployment", cls="Registry"),
    Layer("registry.verify", "labelloop.registry", "verify", cls="Registry"),
    Layer("registry.save", "labelloop.registry", "save", cls="Registry"),
    Layer("harness.generate", "labelloop.harness", "generate_case",
          after=_after_generate_case),
    Layer("harness.generate", "labelloop.harness", "render_report"),
    Layer("harness.generate", "labelloop.harness", "simulate_algorithm"),
    Layer("harness.validate", "labelloop.harness", "validate_scenario"),
    Layer("harness.driver", "labelloop.harness", "run_scenario",
          after=_after_driver),
    Layer("cli.load_scenario", "labelloop.harness", "load_scenario"),
    Layer("cli.bundle_write", "labelloop.harness", "write", cls="MetricsBundle"),
    Layer("cli.simulate", "labelloop.cli", "cmd_simulate"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))

# counts recorded by the hooks above or by a workload
COUNTERS = ("deid.leaks", "reports.labels", "feedback.pairs",
            "protocol.ingest.accepted", "protocol.ingest.duplicate",
            "protocol.ingest.rejected", "monitoring.events", "monitoring.alerts",
            "registry.audit.appends", "protocol.spool.bytes")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every binding of each layer's function; return the undo."""
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        module = importlib.import_module(layer.module)
        if layer.cls is not None:
            owner = getattr(module, layer.cls)
            original = owner.__dict__[layer.attr]
            undo.append((owner, layer.attr, original))
            setattr(owner, layer.attr, tracer.wrap(layer, original))
            continue
        original = getattr(module, layer.attr)
        wrapper = tracer.wrap(layer, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "labelloop" or name.startswith("labelloop.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


@contextmanager
def installed(tracer: Tracer | None):
    """Trace the block with ``tracer``; with None, run it untouched."""
    if tracer is None:
        yield
        return
    uninstall = install(tracer)
    try:
        yield
    finally:
        uninstall()


# ---------------------------------------------------------------------------
# arithmetic


def self_time_ns(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Duration of [start, end) not covered by any child interval.

    Children may nest, overlap (spans from several threads under one parent)
    or stick out of the parent; only their union inside the parent counts.
    """
    covered = 0
    cur_s = cur_e = None
    for s, e in sorted(children):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def _rank(q: float, n: int) -> int:
    # rounded first, so that 99.9% of 10,000 is rank 9,990 and not 9,991
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list (q in (0, 100])."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def tail_percentile(ordered: list, min_beyond: int = 10):
    """The highest candidate percentile with at least ``min_beyond`` samples
    above its rank, as ``(q, value, samples_beyond)``; None when even the
    median has fewer."""
    best = None
    n = len(ordered)
    for q in TAIL_CANDIDATES:
        rank = _rank(q, n)
        if n - rank >= min_beyond:
            best = (q, ordered[rank - 1], n - rank)
    return best


def describe_tail(label: str, ordered: list, scale: float, unit: str) -> str:
    """Median and tail of a non-empty ascending list, with the sample count."""
    n = len(ordered)
    p50 = percentile(ordered, 50) * scale
    tail = tail_percentile(ordered)
    if tail is None:
        return f"{label}: p50 {p50:.4g} {unit} (n={n}; too few samples for a tail)"
    q, value, beyond = tail
    return (f"{label}: p50 {p50:.4g} {unit}, p{q:g} {value * scale:.4g} {unit} "
            f"(n={n}, {beyond} beyond p{q:g})")


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    nbytes: int = 0


def aggregate(threads: dict[str, list[list]]):
    """Per layer: calls, self time and bytes, plus inclusive durations by
    layer and by (layer, kind). Benchmark check spans are left out."""
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    durations: dict[str, list[int]] = defaultdict(list)
    by_kind: dict[tuple[str, str], list[int]] = defaultdict(list)
    for spans in threads.values():
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in spans:
            if span[PARENT] >= 0:
                children[span[PARENT]].append((span[START], span[END]))
        for i, span in enumerate(spans):
            name = span[NAME]
            if name == CHECK_SPAN:
                continue
            st = stats[name]
            st.calls += 1
            st.self_ns += self_time_ns(span[START], span[END], children.get(i, []))
            st.nbytes += span[NBYTES]
            duration = span[END] - span[START]
            durations[name].append(duration)
            if span[KIND]:
                by_kind[name, span[KIND]].append(duration)
    for samples in durations.values():
        samples.sort()
    for samples in by_kind.values():
        samples.sort()
    return stats, durations, by_kind


# ---------------------------------------------------------------------------
# persistence

SPAN_HEADER = "thread\tindex\tparent\tname\tkind\tstart_ns\tend_ns\tcorr\tbytes"


def write_spans(path, threads: dict[str, list[list]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(SPAN_HEADER + "\n")
        for tid, spans in threads.items():
            for i, s in enumerate(spans):
                f.write(f"{tid}\t{i}\t{s[PARENT]}\t{s[NAME]}\t{s[KIND] or ''}\t"
                        f"{s[START]}\t{s[END]}\t{s[CORR] or ''}\t{s[NBYTES]}\n")


def read_spans(path) -> dict[str, list[list]]:
    threads: dict[str, list[list]] = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != SPAN_HEADER:
            raise ValueError(f"{path}: not a span file")
        for line in f:
            tid, _i, parent, name, kind, start, end, corr, nbytes = \
                line.rstrip("\n").split("\t")
            threads[tid].append([name, kind or None, int(start), int(end),
                                 int(parent), corr or None, int(nbytes)])
    return dict(threads)
