"""Request/batch tracing with a JSONL sink and the ``repro-trace`` CLI.

The service answers one request from many places — coalesced onto a
peer, store hits, in-flight merges, lease-parked peers, fresh
simulation across process workers and remote HTTP agents — so "where
did the time go" is unanswerable from any single process's logs.  This
module gives every request a **trace**: a tree of timed spans written
as JSON lines to a shared sink directory, with the tree connected
across processes by a ``trace_id:span_id`` context string that rides

* the ``X-Repro-Trace`` HTTP header (client -> service),
* process-worker task tuples (:mod:`repro.service.fleet`),
* remote-agent ndjson ``task`` events (:mod:`repro.service.worker`).

Design constraints, in order:

1. **Read-only.** Tracing never touches results: rows are bit-for-bit
   identical traced vs untraced (asserted by
   ``tests/service/test_observability.py`` and the ``obs_overhead``
   benchmark).
2. **Free when off.** The module-level tracer defaults to
   :data:`NULL_TRACER`; every instrumentation site is gated on
   ``tracer.enabled`` (a plain attribute load) and the no-op span is a
   shared singleton, so the disabled hot path allocates nothing.
3. **Crash-tolerant sink.** Each process appends completed spans to its
   own ``spans-*.jsonl`` file (one ``write`` + ``flush`` per span,
   under a lock); readers tolerate torn lines and orphaned spans, so a
   killed worker costs its unflushed spans, never the sink.

Timing: span *start* is wall-clock (``time.time``) so spans from
different processes on one host line up in the waterfall; span
*duration* is a ``time.perf_counter`` delta so it is monotonic.

The ``repro-trace`` CLI reconstructs span trees from a sink::

    python -m repro.obs.trace ls       TRACE_DIR
    python -m repro.obs.trace show     TRACE_DIR [TRACE_PREFIX]
    python -m repro.obs.trace summarize TRACE_DIR [TRACE_PREFIX]

``show`` prints an ASCII waterfall; ``summarize`` attributes elapsed
time to stage and batch source and prints the critical path — the
chain that decides whether the next optimisation should attack decode
dispatch, store parse or queue wait.
"""

import argparse
import json
import os
import sys
import threading
import time

from repro.obs import phases as _phases

__all__ = [
    "TRACE_HEADER", "Span", "Tracer", "NullTracer", "NULL_SPAN",
    "NULL_TRACER", "parse_context", "get_tracer", "set_tracer",
    "configure", "disable", "current_span", "sink_dir", "main",
]

#: HTTP header carrying a client-supplied trace context ("tid:sid").
TRACE_HEADER = "X-Repro-Trace"

_MAX_ID_CHARS = 64


def _new_id():
    return os.urandom(8).hex()


def parse_context(text):
    """``"trace_id:span_id"`` -> ``(trace_id, span_id)``, else ``None``.

    Deliberately forgiving about id contents (any printable token) but
    strict about shape, so a malformed client header degrades to a
    fresh trace instead of corrupting the sink.
    """
    if not isinstance(text, str):
        return None
    trace_id, sep, span_id = text.partition(":")
    if not sep or not trace_id or not span_id:
        return None
    if len(trace_id) > _MAX_ID_CHARS or len(span_id) > _MAX_ID_CHARS:
        return None
    if not (trace_id.isprintable() and span_id.isprintable()):
        return None
    return trace_id, span_id


# --------------------------------------------------------------------------
# Current-span bookkeeping (per thread).

_state = threading.local()


def current_span():
    """The innermost span entered (``with span:``) on this thread."""
    stack = getattr(_state, "stack", None)
    return stack[-1] if stack else None


def _push(span):
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    stack.append(span)


def _pop(span):
    stack = getattr(_state, "stack", None)
    if stack and stack[-1] is span:
        stack.pop()


class Span:
    """One timed node of a trace tree.  Written to the sink on ``end``.

    Spans are cheap, single-owner objects: ``annotate`` and ``end`` are
    called by the component that created the span, under that
    component's own locking (the broker mutates its spans under the
    broker lock; workers own their spans outright).
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "ts", "_t0", "attrs", "_ended")

    enabled = True

    def __init__(self, tracer, name, trace_id, parent_id, attrs):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.ts = time.time()
        self._t0 = time.perf_counter()
        self.attrs = attrs
        self._ended = False

    def context(self):
        """Propagation token: ``"trace_id:span_id"``."""
        return "%s:%s" % (self.trace_id, self.span_id)

    def child(self, name, **attrs):
        """A new span parented under this one (same trace)."""
        return Span(self._tracer, name, self.trace_id, self.span_id, attrs)

    def annotate(self, **attrs):
        """Merge ``attrs`` into the record written at ``end``."""
        self.attrs.update(attrs)

    def end(self, **attrs):
        """Close the span and append its record to the sink (idempotent)."""
        if self._ended:
            return
        self._ended = True
        duration = time.perf_counter() - self._t0
        if attrs:
            self.attrs.update(attrs)
        self._tracer._write_span(self, duration)

    # ``with span:`` makes the span *current* for the thread so kernel
    # phase hooks nest under it.
    def __enter__(self):
        _push(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _pop(self)
        if exc is not None:
            self.end(error=repr(exc))
        else:
            self.end()
        return False


class _NullSpan:
    """Shared do-nothing span: every operation is a no-op returning fast."""

    __slots__ = ()

    enabled = False
    trace_id = None
    span_id = None
    parent_id = None

    def context(self):
        return None

    def child(self, name, **attrs):
        return self

    def annotate(self, **attrs):
        pass

    def end(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __bool__(self):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Appends completed spans to one JSONL file per process.

    ``proc`` labels the emitting process in every record (``service``,
    ``pw0`` for process worker 0, a remote agent's name, ...); the sink
    filename embeds it plus the pid plus a random token so concurrent
    processes — including several on different hosts sharing a network
    filesystem — never collide.
    """

    enabled = True

    def __init__(self, trace_dir, proc=None):
        self.trace_dir = str(trace_dir)
        self.proc = str(proc) if proc else "pid%d" % os.getpid()
        os.makedirs(self.trace_dir, exist_ok=True)
        self._path = os.path.join(
            self.trace_dir,
            "spans-%s-%d-%s.jsonl" % (self.proc, os.getpid(), _new_id()[:6]))
        self._lock = threading.Lock()
        self._file = None

    # -- span creation -----------------------------------------------------

    def start(self, name, context=None, **attrs):
        """A root-ish span: child of ``context`` when given, else a new
        trace.  Invalid contexts fall back to a fresh trace (never
        raise — a garbled client header must not fail the request)."""
        parsed = parse_context(context) if context else None
        if parsed is not None:
            trace_id, parent_id = parsed
        else:
            trace_id, parent_id = _new_id(), None
        return Span(self, name, trace_id, parent_id, attrs)

    def resume(self, context, name, **attrs):
        """Continue a propagated context in this process.

        Returns :data:`NULL_SPAN` when ``context`` is missing or
        malformed: an untraced task stays untraced rather than
        spawning an orphan trace per batch.
        """
        parsed = parse_context(context) if context else None
        if parsed is None:
            return NULL_SPAN
        trace_id, parent_id = parsed
        return Span(self, name, trace_id, parent_id, attrs)

    def event(self, name, parent, ts, dur, attrs=None):
        """Record an already-measured section as a completed span.

        ``parent`` is a :class:`Span` or a context string; ``ts`` the
        wall-clock start, ``dur`` the elapsed seconds.  Used by the
        kernel phase hooks and by broker paths (store hits) whose
        timing is taken inline rather than via a live span object.
        """
        if isinstance(parent, str):
            parsed = parse_context(parent)
            if parsed is None:
                return
            trace_id, parent_id = parsed
        elif parent is not None and parent.enabled:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            return
        self._append({"trace": trace_id, "span": _new_id(),
                      "parent": parent_id, "name": name, "ts": ts,
                      "dur": dur, "proc": self.proc,
                      "attrs": dict(attrs) if attrs else {}})

    # -- sink --------------------------------------------------------------

    def _write_span(self, span, duration):
        self._append({"trace": span.trace_id, "span": span.span_id,
                      "parent": span.parent_id, "name": span.name,
                      "ts": span.ts, "dur": duration, "proc": self.proc,
                      "attrs": span.attrs})

    def _append(self, record):
        if not record["attrs"]:
            del record["attrs"]
        line = json.dumps(record, separators=(",", ":"),
                          default=str) + "\n"
        with self._lock:
            if self._file is None:
                self._file = open(self._path, "a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()

    def close(self):
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class NullTracer:
    """The disabled tracer: every span it hands out is the null span."""

    enabled = False
    trace_dir = None
    proc = None

    def start(self, name, context=None, **attrs):
        return NULL_SPAN

    def resume(self, context, name, **attrs):
        return NULL_SPAN

    def event(self, name, parent, ts, dur, attrs=None):
        pass

    def close(self):
        pass


NULL_TRACER = NullTracer()

_tracer = NULL_TRACER


def get_tracer():
    """The process-wide tracer (the null tracer unless configured)."""
    return _tracer


def set_tracer(tracer):
    """Install ``tracer`` process-wide; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous


def _phase_hook(name, ts, dur, attrs=None):
    """Kernel phase -> completed child span of the thread's current span."""
    span = current_span()
    if span is None or not span.enabled:
        return
    _tracer.event(name, span, ts, dur, attrs)


def configure(trace_dir, proc=None):
    """Enable tracing into ``trace_dir`` and install the phase hook."""
    tracer = Tracer(trace_dir, proc=proc)
    set_tracer(tracer)
    _phases.set_phase_hook(_phase_hook)
    return tracer


def disable():
    """Back to the null tracer; closes the old sink file."""
    previous = set_tracer(NULL_TRACER)
    _phases.set_phase_hook(None)
    previous.close()
    return previous


def sink_dir():
    """The active sink directory, or ``None`` when tracing is off."""
    return _tracer.trace_dir


# --------------------------------------------------------------------------
# repro-trace CLI: reconstruct span trees from a sink directory.

def load_spans(trace_dir):
    """Every parseable span record under ``trace_dir`` (torn lines and
    foreign files are skipped, not fatal)."""
    spans = []
    try:
        names = sorted(os.listdir(trace_dir))
    except OSError as exc:
        raise SystemExit("repro-trace: cannot read %s: %s"
                         % (trace_dir, exc))
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(trace_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict) and "trace" in record \
                            and "span" in record:
                        spans.append(record)
        except OSError:
            continue
    return spans


class _Node:
    __slots__ = ("record", "children")

    def __init__(self, record):
        self.record = record
        self.children = []

    @property
    def name(self):
        return self.record.get("name", "?")

    @property
    def ts(self):
        return float(self.record.get("ts") or 0.0)

    @property
    def dur(self):
        return float(self.record.get("dur") or 0.0)

    @property
    def attrs(self):
        return self.record.get("attrs") or {}


def build_traces(spans):
    """Group spans by trace and wire parent/child links.

    Returns ``{trace_id: (roots, nodes)}`` where ``roots`` also holds
    **orphans** — spans whose parent record never made it to the sink
    (a killed process, an in-flight request).  Orphans are first-class
    so a partial trace still renders.
    """
    traces = {}
    for record in spans:
        traces.setdefault(record["trace"], []).append(record)
    built = {}
    for trace_id, records in traces.items():
        nodes = {}
        for record in records:
            # Duplicate span ids (a retried task) keep the first record.
            nodes.setdefault(record["span"], _Node(record))
        roots = []
        for node in nodes.values():
            parent = nodes.get(node.record.get("parent"))
            if parent is not None and parent is not node:
                parent.children.append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.ts, n.name))
        roots.sort(key=lambda n: (n.ts, n.name))
        built[trace_id] = (roots, nodes)
    return built


def _trace_window(nodes):
    t0 = min(node.ts for node in nodes.values())
    t1 = max(node.ts + node.dur for node in nodes.values())
    return t0, max(t1 - t0, 1e-9)


def _span_label(node):
    attrs = node.attrs
    bits = [node.name]
    if "source" in attrs:
        bits.append("[%s]" % attrs["source"])
    for key in ("point", "batch", "batches", "worker", "outcome", "lease"):
        if key in attrs:
            bits.append("%s=%s" % (key, attrs[key]))
    return " ".join(bits)


def _select_trace(built, prefix):
    """The trace matching ``prefix``, or the most recent one."""
    if prefix:
        matches = [tid for tid in built if tid.startswith(prefix)]
        if not matches:
            raise SystemExit("repro-trace: no trace matching %r" % prefix)
        if len(matches) > 1:
            raise SystemExit("repro-trace: ambiguous prefix %r (%s)"
                             % (prefix, ", ".join(sorted(matches)[:5])))
        return matches[0]
    return max(built, key=lambda tid: _trace_window(built[tid][1])[0])


def _cmd_ls(args, out):
    built = build_traces(load_spans(args.trace_dir))
    if not built:
        print("no traces under %s" % args.trace_dir, file=out)
        return 0
    print("%-18s %6s %9s %8s  %s"
          % ("TRACE", "SPANS", "START", "WALL", "ROOT"), file=out)
    ordered = sorted(built.items(), key=lambda kv: _trace_window(kv[1][1])[0])
    for trace_id, (roots, nodes) in ordered:
        t0, wall = _trace_window(nodes)
        start = time.strftime("%H:%M:%S", time.localtime(t0))
        root = _span_label(roots[0]) if roots else "?"
        print("%-18s %6d %9s %7.2fs  %s"
              % (trace_id[:16], len(nodes), start, wall, root), file=out)
    return 0


def _waterfall(node, t0, wall, depth, out, width=32):
    offset = max(0.0, node.ts - t0)
    left = int(round(width * offset / wall))
    bar = int(round(width * node.dur / wall))
    left = min(left, width - 1)
    bar = max(1, min(bar, width - left))
    lane = "." * left + "#" * bar + "." * (width - left - bar)
    label = "  " * depth + _span_label(node)
    print("%-46s |%s| %8.1fms @+%.3fs  (%s)"
          % (label[:46], lane, node.dur * 1e3, offset,
             node.record.get("proc", "?")), file=out)
    for child in node.children:
        _waterfall(child, t0, wall, depth + 1, out, width)


def _cmd_show(args, out):
    built = build_traces(load_spans(args.trace_dir))
    if not built:
        print("no traces under %s" % args.trace_dir, file=out)
        return 1
    trace_id = _select_trace(built, args.trace)
    roots, nodes = built[trace_id]
    t0, wall = _trace_window(nodes)
    print("trace %s: %d spans, %.3fs wall" % (trace_id, len(nodes), wall),
          file=out)
    for root in roots:
        _waterfall(root, t0, wall, 0, out)
    return 0


def _critical_path(root):
    """Chain from ``root`` through the child finishing last at each level."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda n: (n.ts + n.dur, n.dur))
        path.append(node)
    return path


def _summarize_trace(trace_id, roots, nodes, out):
    t0, wall = _trace_window(nodes)
    print("trace %s: %d spans, %.3fs wall" % (trace_id, len(nodes), wall),
          file=out)

    by_stage = {}
    for node in nodes.values():
        by_stage.setdefault(node.name, [0, 0.0])
        by_stage[node.name][0] += 1
        by_stage[node.name][1] += node.dur
    print("  by stage:", file=out)
    for name, (count, total) in sorted(by_stage.items(),
                                       key=lambda kv: -kv[1][1]):
        print("    %-16s %5dx %9.1fms" % (name, count, total * 1e3),
              file=out)

    by_source = {}
    for node in nodes.values():
        source = node.attrs.get("source")
        if source is not None:
            by_source.setdefault(source, [0, 0.0])
            by_source[source][0] += 1
            by_source[source][1] += node.dur
    if by_source:
        print("  batches by source:", file=out)
        for source, (count, total) in sorted(by_source.items()):
            print("    %-16s %5dx %9.1fms" % (source, count, total * 1e3),
                  file=out)

    # The request root (or the longest root when several requests share
    # the trace) anchors the critical path.
    anchor = max(roots, key=lambda n: n.dur, default=None)
    if anchor is not None:
        chain = _critical_path(anchor)
        rendered = " -> ".join("%s (%.1fms)" % (_span_label(n), n.dur * 1e3)
                               for n in chain)
        print("  critical path: %s" % rendered, file=out)


def _cmd_summarize(args, out):
    built = build_traces(load_spans(args.trace_dir))
    if not built:
        print("no traces under %s" % args.trace_dir, file=out)
        return 1
    if args.trace:
        selected = [_select_trace(built, args.trace)]
    else:
        selected = sorted(built,
                          key=lambda tid: _trace_window(built[tid][1])[0])
    for trace_id in selected:
        roots, nodes = built[trace_id]
        _summarize_trace(trace_id, roots, nodes, out)
    return 0


def main(argv=None, out=None):
    """Entry point for ``python -m repro.obs.trace``."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Reconstruct request waterfalls from a trace sink "
                    "directory written under --trace-dir.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="one line per trace in the sink")
    p_ls.add_argument("trace_dir")

    p_show = sub.add_parser("show", help="ASCII waterfall of one trace")
    p_show.add_argument("trace_dir")
    p_show.add_argument("trace", nargs="?", default=None,
                        help="trace id prefix (default: most recent)")

    p_sum = sub.add_parser("summarize",
                           help="stage/source attribution + critical path")
    p_sum.add_argument("trace_dir")
    p_sum.add_argument("trace", nargs="?", default=None,
                       help="trace id prefix (default: all traces)")

    args = parser.parse_args(argv)
    command = {"ls": _cmd_ls, "show": _cmd_show,
               "summarize": _cmd_summarize}[args.command]
    return command(args, out)


if __name__ == "__main__":
    sys.exit(main())
