"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` in place, records one span per call (name, start, end, parent,
operation id, thread) in memory, counts the work each call did, and
installs an aggregating :func:`repro.obs.set_phase_hook` that turns the
BCJR kernel's sweep timings into child spans of the enclosing decode.
The operation id is the one the calling thread was serving (``None`` on
service threads, whose batches may serve several operations at once).
The program's own code is untouched: :meth:`LayerTracer.uninstall`
restores every attribute it replaced.

Functions that callers bind by name at import time are wrapped where the
caller resolves them (``awgn_batch`` in both ``repro.analysis.link`` and
``repro.analysis.fused``, ``awgn`` in the closed-loop link, the replay
helpers in the rate-adaptation scenario); methods are wrapped on their
class, which every caller resolves through.
"""

import itertools
import json
import threading
import time

#: Span names whose self time is a thread blocking, not working.
WAIT_SPANS = frozenset({"fleet.poll"})

#: Name of the root span a closed-loop workload opens around each
#: operation; its self time is the operation's own glue.
OP_SPAN = "op"

_clock = time.perf_counter


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []          # (sid, parent, name, start, end, op, thread)
        self.counts = {}
        self.queue_waits = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self._previous_hook = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op):
        """Tag the spans this thread records from now on with ``op``."""
        self._local.op = op

    def operation(self, op, func, *args):
        """Run ``func(*args)`` as operation ``op``, inside an ``OP_SPAN``."""
        self.set_op(op)
        return self.call(OP_SPAN, func, args, {})

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name, func, args, kwargs):
        """Run ``func`` inside a span named ``name`` on this thread."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, parent, name, start, end,
                               getattr(self._local, "op", None),
                               threading.get_ident()))

    def phase_hook(self, name, ts, dur, attrs):
        """Aggregating phase hook: kernel sweeps become child spans."""
        if not name.startswith("bcjr."):
            return  # the fused stages are covered by the wrappers
        end = _clock()
        stack = self._stack()
        self.spans.append((next(self._ids), stack[-1] if stack else None,
                           "phy." + name, end - dur, end,
                           getattr(self._local, "op", None),
                           threading.get_ident()))

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _spanned(self, name, on_result=None):
        tracer = self

        def wrapper(func):
            def traced(*args, **kwargs):
                result = tracer.call(name, func, args, kwargs)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            traced.__wrapped__ = func
            traced.__name__ = getattr(func, "__name__", name)
            return traced
        return wrapper

    def _counted(self, on_result):
        def wrapper(func):
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                on_result(args, kwargs, result)
                return result
            counted.__wrapped__ = func
            return counted
        return wrapper

    def _fleet_submit(self, func):
        tracer = self

        def submit(fleet, item_id, runner, batch, *args, **kwargs):
            queued_at = _clock()

            def timed_runner(item):
                tracer.queue_waits.append(_clock() - queued_at)
                return tracer.call("fleet.execute", runner, (item,), {})
            return func(fleet, item_id, timed_runner, batch, *args, **kwargs)
        submit.__wrapped__ = func
        return submit

    def install(self):
        """Wrap every layer's entry points and set the phase hook."""
        from repro.analysis import adaptive, fused, link
        from repro.analysis.store import StoreView
        from repro.channel.fading import JakesFadingProcess
        from repro.mac.rateadapt import closedloop, scenario
        from repro.obs import set_phase_hook
        from repro.phy.receiver import Receiver
        from repro.phy.transmitter import Transmitter
        from repro.service.broker import CharacterisationBroker
        from repro.service.fleet import WorkerFleet

        def decoded(args, kwargs, result):
            self.count("phy.packets", len(args[1]))

        def store_get(args, kwargs, result):
            self.count("store.get_calls")
            if result is not None:
                self.count("store.hits")

        def store_put(args, kwargs, result):
            self.count("store.put_calls")

        def fused_group(args, kwargs, result):
            self.count("analysis.fused_groups")
            self.count("analysis.fused_batches", len(args[0]))

        def round_started(args, kwargs, result):
            if result:
                self.count("analysis.rounds")

        span = self._spanned
        self._patch(Transmitter, "transmit_batch", span("phy.transmit"))
        self._patch(Transmitter, "transmit", span("phy.transmit"))
        self._patch(Receiver, "front_end_batch", span("phy.front_end"))
        self._patch(Receiver, "front_end", span("phy.front_end"))
        self._patch(Receiver, "decode_batch", span("phy.decode", decoded))
        self._patch(link, "awgn_batch", span("channel.awgn"))
        self._patch(fused, "awgn_batch", span("channel.awgn"))
        self._patch(closedloop, "awgn", span("channel.awgn"))
        self._patch(JakesFadingProcess, "gain", span("channel.fading"))
        self._patch(adaptive.AdaptiveScheduler, "run",
                    span("analysis.scheduler"))
        self._patch(adaptive.AdaptiveTrajectory, "start_round",
                    self._counted(round_started))
        self._patch(fused, "run_fused_group",
                    span("analysis.fused_group", fused_group))
        self._patch(StoreView, "get", span("store.get", store_get))
        self._patch(StoreView, "put", span("store.put", store_put))
        self._patch(CharacterisationBroker, "submit", span("broker.submit"))
        self._patch(CharacterisationBroker, "pump", span("broker.pump"))
        self._patch(WorkerFleet, "poll", span("fleet.poll"))
        self._patch(WorkerFleet, "submit", self._fleet_submit)
        self._patch(closedloop.ClosedLoopLink, "decode_window",
                    span("rateadapt.decode_window"))
        self._patch(scenario, "replay_trajectory", span("rateadapt.replay"))
        self._patch(scenario, "oracle_trajectory", span("rateadapt.replay"))
        self._previous_hook = set_phase_hook(self.phase_hook)
        return self

    def uninstall(self):
        """Restore every replaced attribute and the previous phase hook."""
        from repro.obs import set_phase_hook

        set_phase_hook(self._previous_hook)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    # ------------------------------------------------------------------ #
    def write(self, path):
        """Write the spans as JSON lines (``perf_counter`` seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, op, thread in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(start, 7), "end": round(end, 7),
                    "op": op, "thread": thread}))
                out.write("\n")
