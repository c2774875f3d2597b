"""Span-based wall-time tracer built on ``time.perf_counter``.

One :class:`span` object serves both idioms:

.. code-block:: python

    with span("deploy.vawo", layers=4):          # context manager
        ...

    @span("xbar.engine.forward")                 # decorator
    def forward(self, x): ...

Nesting is tracked per thread; each finished span becomes one flat
record ``{id, parent_id, name, depth, start_s, duration_s, attrs,
status, error}`` ready for JSONL export. ``start_s`` is relative to the
tracer epoch (process start or the last :func:`reset`).

Cost model (the layer must be invisible when off):

* decorator form — if ``REPRO_OBS`` is off *at decoration time* the
  function object is returned unchanged: no wrapper frame, no per-call
  overhead (the identity is asserted in the test suite);
* context-manager form — ``__enter__`` reads one flag and returns, so
  stage-level ``with`` spans stay in the code permanently and activate
  dynamically (``--profile`` enables them mid-process).

Deploy-stage spans (``deploy.*``) and PWT epochs (``pwt.epoch``) also
record the process's peak resident set size at exit as the
``max_rss_mb`` attribute (``getrusage``'s ``ru_maxrss``), so a manifest
shows which stage set the run's memory peak. Like every other record
field it is only read while tracing is on.

Long runs can stream: :meth:`Tracer.stream_to` attaches a
:class:`SpanSink` so each span is appended to a JSONL file the moment
it closes and its in-memory slot is released — a ``full``-preset run
holds only its *open* spans in memory. The sink keeps the aggregate
stats (count, per-name totals, top-level wall time) the run manifest
needs, so nothing is lost by not retaining the records. Streamed files
are in span *completion* order; sort by ``start_s`` to recover the
timeline.

Cross-process tracing: every record carries the tracer's ``trace_id``
and the recording ``pid``. A parent process captures its position with
:func:`current_trace_context` and ships the (picklable)
:class:`TraceContext` to a worker, which installs it via
:meth:`Tracer.bind_context` — the worker's root spans then reference
the submitting span's id, and :meth:`Tracer.adopt` re-parents them
under that *local* span on merge, so a ``--profile --jobs N`` manifest
is one rooted tree instead of N+1 concatenated forests.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.obs import runtime
from repro.obs.manifest import fold_span
from repro.utils.serialization import PathLike, _json_default

try:
    import resource
except ImportError:                 # not a Unix host: no ru_maxrss
    resource = None  # type: ignore[assignment]

F = TypeVar("F", bound=Callable[..., Any])

_Token = Tuple[int, float]          # (record index, perf_counter at entry)

#: Names of the spans that record ``max_rss_mb`` when they close.
RSS_SPAN_PREFIXES = ("deploy.", "pwt.epoch")


def max_rss_mb() -> Optional[float]:
    """This process's peak resident set size so far, in MB (``None``
    where ``getrusage`` is unavailable)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def new_trace_id() -> str:
    """A fresh 16-hex-char trace identifier (unique, not reproducible —
    trace ids name runs, they never feed numerics)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The picklable coordinates of one point in a distributed trace.

    ``trace_id`` names the run; ``parent_span_id`` is the id of the
    span that submitted the remote work (``None`` when captured outside
    any span). Ship it to a worker process and hand it to
    :meth:`Tracer.bind_context` so the worker's spans join the parent's
    tree on merge.
    """

    trace_id: str
    parent_span_id: Optional[int] = None


def current_trace_context() -> TraceContext:
    """The process tracer's trace id + the calling thread's open span."""
    return TraceContext(trace_id=TRACER.trace_id,
                        parent_span_id=TRACER.current_span_id())


class SpanSink:
    """Incremental JSONL writer for span records (one line per span).

    Owned by :class:`Tracer` while streaming; accumulates the summary
    statistics (:meth:`summary`) that :func:`repro.obs.build_manifest`
    would otherwise derive from the in-memory records. Thread-safe;
    writes are flushed per record so a crashed run still leaves a
    usable trace on disk.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
        self._lock = threading.Lock()
        self._n_spans = 0
        self._stages: Dict[str, Dict[str, Any]] = {}
        self._top_level_wall_s = 0.0
        self._closed = False

    def write(self, record: Dict[str, Any]) -> None:
        """Append one span record and fold it into the summary."""
        line = json.dumps(record, separators=(",", ":"),
                          default=_json_default)
        with self._lock:
            if self._closed:
                return
            self._fh.write(line + "\n")
            self._fh.flush()
            self._n_spans += 1
            fold_span(self._stages, record)
            duration = record.get("duration_s")
            if duration is not None and record.get("parent_id") is None:
                self._top_level_wall_s += duration

    def summary(self) -> Dict[str, Any]:
        """Manifest-ready aggregate of everything written so far."""
        with self._lock:
            return {
                "n_spans": self._n_spans,
                "wall_time_s": self._top_level_wall_s,
                "stages": {name: dict(entry)
                           for name, entry in self._stages.items()},
            }

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.close()


class Tracer:
    """Collects finished span records; one instance per process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Flushed-to-sink slots become None so open-span *indices* held
        # on thread stacks stay valid without retaining closed records.
        self._records: List[Optional[Dict[str, Any]]] = []
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._sink: Optional[SpanSink] = None
        self._trace_id = new_trace_id()
        self._context_parent_id: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def trace_id(self) -> str:
        """The id naming the trace this tracer's spans belong to."""
        return self._trace_id

    def bind_context(self, ctx: TraceContext) -> None:
        """Join a foreign trace (worker side of the propagation).

        Subsequent spans carry ``ctx.trace_id``, and spans opened with
        an empty stack record ``ctx.parent_span_id`` as their parent —
        a *remote* reference the submitting process's
        :meth:`adopt` resolves against its own live spans, re-rooting
        the worker tree under the span that launched the work.
        """
        with self._lock:
            self._trace_id = ctx.trace_id
            self._context_parent_id = ctx.parent_span_id

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, name: str, attrs: Dict[str, Any]) -> _Token:
        """Open a span; returns the token :meth:`pop` closes it with."""
        t0 = time.perf_counter()
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            # Stack entries are open spans, which are never flushed to a
            # sink, so the parent slot is always a live record.
            parent = self._records[stack[-1]] if stack else None
            if parent is not None:
                parent_id: Optional[int] = parent["id"]
            else:
                # Bound trace context: roots reference the remote
                # submitting span (resolved to a local one on adopt).
                parent_id = self._context_parent_id
            record = {
                "id": span_id,
                "parent_id": parent_id,
                "name": name,
                "depth": len(stack),
                "start_s": t0 - self._epoch,
                "duration_s": None,
                "attrs": dict(attrs),
                "status": "open",
                "error": None,
                "trace_id": self._trace_id,
                "pid": os.getpid(),
            }
            index = len(self._records)
            self._records.append(record)
        stack.append(index)
        return index, t0

    def pop(self, token: _Token, exc_type: Optional[type] = None) -> None:
        """Close the span opened by ``token`` (exception-safe)."""
        t1 = time.perf_counter()
        index, t0 = token
        stack = self._stack()
        # Unwind to the matching entry even if an inner span leaked.
        while stack and stack[-1] != index:
            stack.pop()
        if stack:
            stack.pop()
        with self._lock:
            record = self._records[index]
            if record is None:          # already drained by end_stream()
                return
            record["duration_s"] = t1 - t0
            if record["name"].startswith(RSS_SPAN_PREFIXES):
                record["attrs"]["max_rss_mb"] = max_rss_mb()
            record["status"] = "error" if exc_type is not None else "ok"
            record["error"] = exc_type.__name__ if exc_type is not None else None
            if self._sink is not None:
                self._sink.write(record)
                self._records[index] = None

    # ------------------------------------------------------------------
    def current_span_id(self) -> Optional[int]:
        """Id of the calling thread's innermost open span (or ``None``)."""
        stack = self._stack()
        if not stack:
            return None
        with self._lock:
            record = self._records[stack[-1]]
            return int(record["id"]) if record is not None else None

    def now_s(self) -> float:
        """Seconds since the tracer epoch (for rebasing foreign spans)."""
        return time.perf_counter() - self._epoch

    def adopt(self, records: List[Dict[str, Any]],
              parent_id: Optional[int] = None,
              start_offset_s: float = 0.0,
              extra_attrs: Optional[Dict[str, Any]] = None) -> int:
        """Append span records produced by another tracer (subprocess).

        Ids are re-issued from this tracer's counter and internal
        parent links remapped. Re-parenting resolves, in order: a parent
        inside the adopted batch (remapped id); a parent that is a
        *live local span id* — the trace-context reference a
        :meth:`bind_context`-bound worker stamps on its roots — kept as
        is; otherwise the explicit ``parent_id`` fallback (e.g. the
        executor's open span). Depths are recomputed from the resolved
        parent so the adopted subtree nests correctly, ``trace_id`` is
        preserved (foreign records without one get this tracer's), and
        start times shift by ``start_offset_s`` so a child that started
        its clock at task launch lands at the right place on the parent
        timeline. ``extra_attrs`` (e.g. the trial index) merge into
        every adopted record's attrs. Returns the number of records
        adopted.
        """
        with self._lock:
            local_depths: Dict[int, int] = {
                int(existing["id"]): int(existing.get("depth", 0))
                for existing in self._records if existing is not None}
            if parent_id is not None and parent_id not in local_depths:
                parent_id = None
            id_map: Dict[Any, int] = {}
            adopted_depths: Dict[int, int] = {}
            for record in records:
                new_id = self._next_id
                self._next_id += 1
                id_map[record.get("id")] = new_id
                adopted = dict(record)
                adopted["id"] = new_id
                old_parent = record.get("parent_id")
                if (old_parent is not None and old_parent in id_map
                        and old_parent != record.get("id")):
                    new_parent: Optional[int] = id_map[old_parent]
                    depth = adopted_depths.get(new_parent, 0) + 1
                elif old_parent is not None and old_parent in local_depths:
                    # Remote trace-context reference to a span we own.
                    new_parent = int(old_parent)
                    depth = local_depths[new_parent] + 1
                elif parent_id is not None:
                    new_parent = parent_id
                    depth = local_depths[parent_id] + 1 \
                        + int(record.get("depth", 0))
                else:
                    new_parent = None
                    depth = int(record.get("depth", 0))
                adopted["parent_id"] = new_parent
                adopted["depth"] = depth
                adopted_depths[new_id] = depth
                adopted["start_s"] = (float(record.get("start_s", 0.0))
                                      + start_offset_s)
                adopted.setdefault("trace_id", self._trace_id)
                adopted.setdefault("pid", None)
                if extra_attrs:
                    adopted["attrs"] = {**record.get("attrs", {}),
                                        **extra_attrs}
                if (self._sink is not None
                        and adopted.get("duration_s") is not None):
                    # Already closed by the worker: straight to disk.
                    self._sink.write(adopted)
                else:
                    self._records.append(adopted)
            return len(records)

    def records(self) -> List[Dict[str, Any]]:
        """Copies of every in-memory span record, in start order.

        While streaming, closed spans live on disk, not here — only the
        spans still open (plus anything recorded before the stream
        started) are returned.
        """
        with self._lock:
            return [dict(r) for r in self._records if r is not None]

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    @property
    def sink(self) -> Optional[SpanSink]:
        """The active streaming sink, or ``None`` when buffering."""
        return self._sink

    def stream_to(self, path: PathLike) -> Path:
        """Start streaming closed spans to ``path`` (JSONL, truncated).

        Records already closed in memory are flushed to the sink
        immediately, so a stream started mid-run loses nothing. Any
        previous sink is closed first. Returns the sink path.
        """
        sink = SpanSink(path)
        with self._lock:
            old, self._sink = self._sink, sink
            for index, record in enumerate(self._records):
                if record is not None and record.get("duration_s") is not None:
                    sink.write(record)
                    self._records[index] = None
        if old is not None:
            old.close()
        return sink.path

    def end_stream(self) -> Optional[SpanSink]:
        """Flush everything left in memory and close the stream.

        Spans still open (a crashed or mid-run export) are written with
        ``status="open"`` — the same way a buffered export reports
        them. Returns the closed sink (for its path and
        :meth:`SpanSink.summary`), or ``None`` if not streaming.
        """
        with self._lock:
            sink, self._sink = self._sink, None
            if sink is None:
                return None
            for index, record in enumerate(self._records):
                if record is not None:
                    sink.write(record)
                    self._records[index] = None
        sink.close()
        return sink

    def reset(self) -> None:
        """Drop all records, close any stream, restart the clock.

        Also leaves any bound trace context and issues a fresh trace
        id — a reset tracer starts a new trace.
        """
        with self._lock:
            sink, self._sink = self._sink, None
            self._records.clear()
            self._next_id = 0
            self._epoch = time.perf_counter()
            self._trace_id = new_trace_id()
            self._context_parent_id = None
        if sink is not None:
            sink.close()
        self._local = threading.local()


#: The process-wide tracer all instrumentation writes to.
TRACER = Tracer()


class span:
    """A named span — context manager and decorator (see module docs)."""

    __slots__ = ("name", "attrs", "_tokens")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._tokens: List[Optional[_Token]] = []

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "span":
        if not runtime._STATE.active:
            self._tokens.append(None)
            return self
        self._tokens.append(TRACER.push(self.name, self.attrs))
        return self

    def __exit__(self, exc_type: Optional[type], exc: Optional[BaseException],
                 tb: Any) -> None:
        token = self._tokens.pop()
        if token is not None:
            TRACER.pop(token, exc_type)

    # -- decorator ------------------------------------------------------
    def __call__(self, func: F) -> F:
        if not runtime.env_enabled():
            return func
        name, attrs = self.name, self.attrs

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name, **attrs):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]


def current_depth() -> int:
    """Nesting depth of the calling thread (0 outside any span)."""
    return len(TRACER._stack())
