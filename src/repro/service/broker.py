"""The characterisation broker: store-deduped, priority-aware scheduling.

The broker is the service's brain.  Each submitted
:class:`~repro.service.requests.CharacterisationRequest` becomes a
:class:`RequestTicket` wrapping a live
:class:`~repro.analysis.adaptive.AdaptiveTrajectory`, unless an
identical in-flight ask
(:meth:`~repro.service.requests.CharacterisationRequest.request_key`)
is already running: then it coalesces onto that ticket and adds no work
at all.  The broker advances every ticket round by round and answers
each batch through :class:`~repro.analysis.resolver.BatchResolver`, the
resolution path ``Experiment`` uses too: from the result store (a fully
warm request completes inside :meth:`CharacterisationBroker.submit`, a
partial hit resumes at exactly the missing batch indices), from a batch
another request already has in flight, from another replica's lease, or
— only for genuinely novel batches — from the worker fleet, ordered by
``(priority, deadline, arrival)`` so a huge low-priority sweep cannot
head-of-line-block a small urgent one.

Rows stream back through the ticket the moment their point stops;
because batch contents are pure functions of ``(point, batch index)``,
every ticket's final rows are bit-for-bit what a serial
``request.experiment(store).run()`` would have produced — the broker can
only ever change *where* a batch's bytes come from, never the bytes.

Failures follow capture semantics: a batch whose runner raises stops its
point with reason ``"error"`` and the request keeps going — a long-lived
service must not crash on one bad operating point.

Admission control
-----------------
The broker accepts work *boundedly*.  ``max_inflight_batches`` and
``max_requests`` cap what may be in flight at once; a submit past either
cap raises :class:`ServiceSaturated` carrying a computed
``retry_after_s`` (pending batches over fleet width, scaled by an EWMA
of recent batch wall-clock), which the HTTP front door maps to ``429``
with a ``Retry-After`` header.  An optional :class:`ClientQuota` adds a
per-``client_id`` token-bucket packet quota charged at admission with
the request's worst-case packet cost.  Coalesced submits are always free
— they add no work.

Cancellation and drain
----------------------
Interest in a ticket is counted: the original submit and every coalesced
one hold one unit each, and :meth:`CharacterisationBroker.cancel` (or
:meth:`RequestTicket.cancel`) releases one.  When the last unit goes,
the ticket is *released*: it is unsubscribed from every in-flight batch
— shared batches keep running untouched for their surviving subscribers,
so their rows stay bit-for-bit — and queued batches nobody else wants
are withdrawn from the fleet before a worker starts them (counted as
``released`` batches).  A batch already executing runs to
completion and lands in the store; only its delivery to the cancelled
ticket is skipped.  :meth:`close_admission` plus :meth:`drain` implement
graceful shutdown: stop admitting, finish what is in flight, then stop.
"""

import logging
import math
import queue
import threading
import time

from repro.analysis.resolver import BatchResolver
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.cluster import lease_events
from repro.service.quota import ClientQuota

__all__ = ["ServiceError", "ServiceSaturated", "ClientQuota", "RequestTicket",
           "CharacterisationBroker"]

_logger = logging.getLogger(__name__)

#: The resolver's batch sources, as a ticket tallies them.
_SOURCES = ("cached", "simulated", "shared", "leased")

#: Source labels in ``repro_batches_total`` and on spans, where renamed.
_SOURCE_LABEL = {"leased": "lease-parked"}


class ServiceError(RuntimeError):
    """A request failed at the service layer (not a per-point error row)."""


class ServiceSaturated(ServiceError):
    """Admission was refused for lack of capacity; retry after a backoff.

    ``retry_after_s`` is the broker's estimate of when capacity frees —
    the HTTP layer rounds it up into the ``429`` response's
    ``Retry-After`` header.
    """

    def __init__(self, message, retry_after_s=1.0):
        super().__init__(message)
        self.retry_after_s = max(0.0, float(retry_after_s))


class RequestTicket:
    """Live handle on one submitted request.

    Consumers may :meth:`stream` events (every subscriber sees the full
    event log, replayed then live), iterate :meth:`rows` as points
    finish, block on :meth:`result` for the final grid-ordered rows, or
    snapshot :meth:`progress` at any time.  All methods are thread-safe;
    any number of clients may consume one ticket — that is what request
    coalescing hands out.
    """

    def __init__(self, request, key, digest, trajectory, runner, seq, lock):
        self.request = request
        self.key = key
        self.digest = digest
        self.trajectory = trajectory
        self.runner = runner
        self.seq = seq
        self.submitted_at = time.time()
        deadline = request.deadline_s
        #: Absolute deadline used as a dispatch tie-break within a
        #: priority lane; never enforced (the service does not kill work).
        self.deadline_at = (math.inf if deadline is None
                            else self.submitted_at + float(deadline))
        self.coalesced = 0
        #: Live consumers of this ticket: the original submit plus every
        #: coalesced one holds one unit; :meth:`cancel` releases one, and
        #: the ticket is only actually released when the count hits zero
        #: — one HTTP client hanging up must not kill its twin's stream.
        self.interest = 1
        self.cancelled = False
        self.first_row_at = None
        self.finished_at = None
        self.failure = None
        self.final_rows = None
        self.done = threading.Event()
        #: Root obs span of the request's trace (the null span unless the
        #: broker runs with tracing enabled); ended on finish/fail/cancel.
        self.span = obs_trace.NULL_SPAN
        #: Live ``batch`` spans of the batches still awaited, by work key.
        self.batch_spans = {}
        self._broker = None        # set by the broker right after creation
        self._lock = lock          # the broker's lock; guards all state
        self._events = []
        self._subscribers = []
        self._emitted = set()      # point indices already streamed
        #: Batches of each point by the source that answered them
        #: (``cached``, ``simulated``, ``shared``, ``leased``); the
        #: request's ``batches_*`` totals are their sums.
        self._per_point = {state.point.index: dict.fromkeys(_SOURCES, 0)
                           for state in trajectory.states}

    # ------------------------------------------------------------------ #
    # Broker-side bookkeeping (called with the broker lock held)
    # ------------------------------------------------------------------ #
    def _note(self, batch, source):
        self._per_point[batch.point.index][source] += 1

    def _tally(self):
        """Batches of the whole request by source."""
        return {source: sum(counts[source]
                            for counts in self._per_point.values())
                for source in _SOURCES}

    def _emit(self, event):
        self._events.append(event)
        for subscriber in self._subscribers:
            subscriber.put(event)

    def _emit_new_rows(self):
        """Stream a row for every point that stopped since the last call."""
        for state in self.trajectory.states:
            index = state.point.index
            if state.stop_reason is None or index in self._emitted:
                continue
            self._emitted.add(index)
            if self.first_row_at is None:
                self.first_row_at = time.time()
            self._emit({
                "event": "row",
                "request": self.key,
                "point": index,
                "row": state.row(self.trajectory.stop),
                "progress": self._progress_locked(points=False),
            })

    def _end(self, outcome, message=None):
        """Emit the terminal ``done``, ``failed`` or ``cancelled`` event
        and release every consumer."""
        self.finished_at = time.time()
        event = {"event": outcome, "request": self.key}
        if outcome == "done":
            self.final_rows = self.trajectory.rows()
            event["progress"] = self._progress_locked()
        else:
            self.failure = str(message)
            self.cancelled = outcome == "cancelled"
            if self.cancelled:
                event["reason"] = self.failure
                event["progress"] = self._progress_locked(points=False)
            else:
                event["error"] = self.failure
        self._emit(event)
        for subscriber in self._subscribers:
            subscriber.put(None)
        self._subscribers = []
        self.done.set()
        self.span.end(outcome=outcome)

    # ------------------------------------------------------------------ #
    # Consumer API
    # ------------------------------------------------------------------ #
    def stream(self, heartbeat_s=None):
        """Yield this ticket's events: the backlog, then live, until done.

        Events are mappings with an ``"event"`` key — ``"row"`` (one
        point finished; carries the row and a progress snapshot),
        ``"done"`` (final progress), ``"failed"`` or ``"cancelled"``.
        With ``heartbeat_s`` set, a synthetic ``"progress"`` event is
        yielded whenever that many seconds pass without a real one — the
        HTTP front door streams these as keep-alives, which is also what
        bounds how long a client hang-up can go undetected while a slow
        point simulates.
        """
        feed = queue.Queue()
        with self._lock:
            backlog = list(self._events)
            live = not self.done.is_set()
            if live:
                self._subscribers.append(feed)
        for event in backlog:
            yield event
        if not live:
            return
        while True:
            try:
                event = feed.get(timeout=heartbeat_s)
            except queue.Empty:
                yield {"event": "progress", "request": self.key,
                       "progress": self.progress()}
                continue
            if event is None:
                return
            yield event

    def rows(self):
        """Yield per-point rows in completion order, as they stream in."""
        for event in self.stream():
            if event["event"] == "row":
                yield event["row"]
            elif event["event"] in ("failed", "cancelled"):
                raise ServiceError(event.get("error") or event.get("reason"))

    def cancel(self, reason="cancelled by client"):
        """Release this consumer's interest; see the broker's ``cancel``.

        Returns ``True`` while the ticket was still in flight (whether
        this was the last interested consumer or not); ``False`` once it
        had already finished.
        """
        if self._broker is None:
            return False
        return self._broker.cancel(self.key, reason=reason)

    def result(self, timeout=None):
        """Block until the request finishes; rows in grid order."""
        if not self.done.wait(timeout):
            raise TimeoutError(
                "request %s... still running after %.1f s"
                % (self.key[:12], timeout))
        with self._lock:
            if self.failure is not None:
                raise ServiceError(self.failure)
            return list(self.final_rows)

    def progress(self):
        """A point-in-time snapshot of the request's progress."""
        with self._lock:
            return self._progress_locked()

    def _progress_locked(self, points=True):
        states = self.trajectory.states
        reasons = {}
        for state in states:
            if state.stop_reason is not None:
                reasons[state.stop_reason] = reasons.get(state.stop_reason,
                                                         0) + 1
        tally = self._tally()
        out = {
            "request": self.key,
            "namespace": self.digest,
            "priority": self.request.priority,
            "points_total": len(states),
            "points_done": sum(1 for s in states if s.stop_reason is not None),
            "packets_spent": sum(s.packets for s in states),
            "batches": sum(s.batches for s in states),
            "batches_cached": tally["cached"],
            "batches_simulated": tally["simulated"],
            "batches_shared": tally["shared"],
            "batches_leased": tally["leased"],
            "budget_left": self.trajectory.budget_left,
            "coalesced_submissions": self.coalesced,
            "stop_reasons": reasons,
            "done": self.done.is_set(),
            "cancelled": self.cancelled,
            "failed": None if self.cancelled else self.failure,
            "time_to_first_row_s": (
                None if self.first_row_at is None
                else self.first_row_at - self.submitted_at),
            "elapsed_s": ((self.finished_at or time.time())
                          - self.submitted_at),
        }
        if points:
            out["points"] = [
                dict(state.point.coordinates,
                     stop_reason=state.stop_reason,
                     packets=state.packets,
                     batches=state.batches,
                     **self._per_point[state.point.index])
                for state in states
            ]
        return out

    def __repr__(self):
        tally = self._tally()
        return ("RequestTicket(%s..., done=%r, cached=%d, simulated=%d, "
                "shared=%d)" % (self.key[:12], self.done.is_set(),
                                tally["cached"], tally["simulated"],
                                tally["shared"]))


class CharacterisationBroker:
    """Resolve requests against the store; schedule only the misses.

    Parameters
    ----------
    store:
        The :class:`~repro.analysis.store.ResultStore` curves are served
        from and filed into.  Views are shared per namespace, so a batch
        one request simulates is visible to every other the moment it
        lands.
    fleet:
        A started :class:`~repro.service.fleet.WorkerFleet`.  The broker
        only ever enqueues batch-granular items; someone (the
        :class:`~repro.service.api.Service` pump thread, or a test
        driving things by hand) must call :meth:`pump` to fold completed
        items back in.
    runner:
        Optional chunk-runner override applied to every request (the
        default is the link runner,
        :func:`repro.analysis.adaptive.run_link_ber_batch`).  Part of
        each request's store namespace, exactly as for ``Experiment``.
    max_inflight_batches:
        Admission cap on batches awaiting results across all requests
        (queued plus executing).  A submit arriving at or past the cap
        raises :class:`ServiceSaturated`.  ``None`` (default) keeps the
        pre-hardening unbounded behaviour.
    max_requests:
        Admission cap on concurrently in-flight requests (coalesced
        submits never count — they add no work).
    quota:
        Optional :class:`ClientQuota` (or ``(packets_per_s,
        burst_packets)`` tuple) enforced per ``request.client_id`` at
        admission.
    leases:
        Optional :class:`~repro.service.cluster.LeaseManager` enabling
        the resolver's cross-replica lease step; parked batches are
        polled from :meth:`pump`.  Leases are advisory — losing every
        race costs duplicate work, never wrong rows.
    lease_poll_s:
        Seconds between store polls for lease-parked batches.
    """

    def __init__(self, store, fleet, runner=None, max_inflight_batches=None,
                 max_requests=None, quota=None, leases=None,
                 lease_poll_s=0.25):
        if max_inflight_batches is not None and max_inflight_batches < 1:
            raise ValueError("max_inflight_batches must be positive or None")
        if max_requests is not None and max_requests < 1:
            raise ValueError("max_requests must be positive or None")
        if quota is not None and not isinstance(quota, ClientQuota):
            quota = ClientQuota(*quota)
        self.store = store
        self.fleet = fleet
        self.runner = runner
        self.max_inflight_batches = \
            None if max_inflight_batches is None else int(max_inflight_batches)
        self.max_requests = None if max_requests is None else int(max_requests)
        self.quota = quota
        self.leases = leases
        self.lease_poll_s = float(lease_poll_s)
        self.admission_open = True
        #: The batch-resolution chain ``Experiment`` shares, too.
        self.resolver = BatchResolver(leases)
        self._lock = threading.RLock()
        self._tickets = {}        # request_key -> in-flight ticket
        self._views = {}          # namespace digest -> shared StoreView
        self._buckets = {}        # client_id -> _TokenBucket
        self._dispatched_at = {}  # fleet item key -> dispatch timestamp
        self._group_spans = {}    # fused item key -> live obs span
        self._lease_poll_at = 0.0
        self._item_seconds = None  # EWMA of fleet item wall-clock
        self._ticket_seq = 0
        self._item_seq = 0           # dispatch-order tie-break generator
        #: The broker's counters, with the fleet's and the lease
        #: manager's, are the service's only ledger.  The broker's change
        #: only under the broker lock, and ``metrics()``, ``status()`` and
        #: the Prometheus exposition (rendered under the lock too) all
        #: read them there, so every snapshot is one consistent instant.
        self.registry = obs_metrics.MetricsRegistry()
        stage = self.registry.histogram(
            "repro_stage_seconds",
            "Wall-clock per pipeline stage (simulate includes queue wait; "
            "store_put is the persistence append; deliver is folding one "
            "batch into one ticket)", labelnames=("stage",))
        self._h_simulate = stage.labels(stage="simulate")
        self._h_store_put = stage.labels(stage="store_put")
        self._h_deliver = stage.labels(stage="deliver")
        self._requests = self.registry.counter(
            "repro_requests_total", "Requests by lifecycle state "
            "(admitted = past admission control; coalesced add no work)",
            ("state",)).children("admitted", "completed", "failed",
                                 "cancelled")
        self._batches = self.registry.counter(
            "repro_batches_total", "Batches answered, by source",
            ("source",)).children("cached", "simulated", "shared",
                                  "lease-parked", "released", "delivered")
        self._rejected = self.registry.counter(
            "repro_rejected_total", "Submits refused at admission",
            ("reason",)).children("saturated", "quota")
        #: Lease-parked batches a peer answered, or reclaimed and run
        #: here, count in the lease manager's ledger (or, without
        #: leases, in an all-zero family of the broker's own).
        self._lease_events = lease_events(
            self.registry if leases is None else leases.registry)
        self.registry.callback(
            "repro_batches_in_flight",
            "Batches queued or executing right now",
            lambda: [({}, len(self.resolver.inflight))])

    def prometheus_text(self):
        """Prometheus text exposition of every ledger this broker reads —
        its own registry, the fleet's, the lease manager's — plus the
        process-wide one (store/lease latency), rendered under the
        broker lock so every family reads one consistent snapshot."""
        registries = [self.registry, self.fleet.registry]
        if self.leases is not None:
            registries.append(self.leases.registry)
        with self._lock:
            return obs_metrics.render_prometheus(*registries,
                                                 obs_metrics.GLOBAL)

    # ------------------------------------------------------------------ #
    def submit(self, request, trace=None):
        """Register one request; returns its (possibly shared) ticket.

        ``trace`` is an optional client-supplied span context (the
        ``X-Repro-Trace`` header's value); with tracing enabled the
        ticket's root ``request`` span continues it, so the client owns
        the trace id.  Telemetry never affects results or admission.

        An identical in-flight request coalesces onto the existing
        ticket.  Batches already in the store are consumed before this
        method returns — a fully warm request comes back already done,
        which is what makes time-to-first-row for cached curves
        effectively zero.

        Admission is bounded: past ``max_requests`` or
        ``max_inflight_batches``, or a ``client_id`` over its packet
        quota, the submit raises :class:`ServiceSaturated` (with a
        ``retry_after_s`` estimate) instead of queueing unboundedly;
        once :meth:`close_admission` was called it raises a plain
        :class:`ServiceError`.  Coalesced submits bypass every check —
        they add no work and cost no quota.
        """
        with self._lock:
            tracer = obs_trace.get_tracer()
            key = request.request_key()
            ticket = self._tickets.get(key)
            if ticket is not None:
                ticket.coalesced += 1
                ticket.interest += 1
                if tracer.enabled:
                    # The coalescing client's trace gets one completed
                    # span pointing at the ticket it piggybacked on; the
                    # shared work stays in the first submitter's trace.
                    parent = trace if trace is not None else ticket.span
                    tracer.event("batch", parent, time.time(), 0.0,
                                 {"source": "coalesced",
                                  "request": key[:16],
                                  "onto": ticket.span.context()})
                return ticket
            self._admit(request)
            experiment = request.experiment(store=self.store,
                                            runner=self.runner)
            digest = experiment.store_digest()
            if digest not in self._views:
                self._views[digest] = experiment.store_view()
            self._ticket_seq += 1
            ticket = RequestTicket(request, key, digest,
                                   experiment.trajectory(),
                                   experiment.resolved_runner(),
                                   self._ticket_seq, self._lock)
            ticket._broker = self
            if tracer.enabled:
                ticket.span = tracer.start(
                    "request", context=trace, request=key[:16],
                    namespace=digest[:16],
                    points=len(ticket.trajectory.states),
                    priority=request.priority)
            self._tickets[key] = ticket
            self._requests["admitted"].inc()
            try:
                self._advance(ticket)
            except Exception as exc:
                # Never leave a zombie behind: a fault during the
                # synchronous warm replay (corrupt store record, fleet
                # stopping under us) must not park a forever-pending
                # ticket that all future identical requests coalesce onto.
                self._retire(ticket, "failed", "submit failed: %s: %s"
                             % (type(exc).__name__, exc))
                raise
            return ticket

    def _admit(self, request):
        """Admission checks for a non-coalesced submit (lock held)."""
        if not self.admission_open:
            raise ServiceError(
                "service is draining; not accepting new requests")
        if self.max_requests is not None \
                and len(self._tickets) >= self.max_requests:
            self._rejected["saturated"].inc()
            raise ServiceSaturated(
                "service saturated: %d request(s) in flight (cap %d)"
                % (len(self._tickets), self.max_requests),
                retry_after_s=self._retry_after_s())
        if self.max_inflight_batches is not None \
                and len(self.resolver.inflight) >= self.max_inflight_batches:
            self._rejected["saturated"].inc()
            raise ServiceSaturated(
                "service saturated: %d batch(es) in flight (budget %d)"
                % (len(self.resolver.inflight), self.max_inflight_batches),
                retry_after_s=self._retry_after_s())
        if self.quota is not None:
            client = request.client_id
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = self.quota.bucket()
            cost = request.packet_cost()
            wait_s = bucket.try_take(cost)
            if wait_s is None:
                self._rejected["quota"].inc()
                raise ServiceError(
                    "request cost (%d packets) exceeds client %r quota "
                    "burst (%g packets); it can never be admitted — split "
                    "the ask" % (cost, client, self.quota.burst_packets))
            if wait_s > 0:
                self._rejected["quota"].inc()
                raise ServiceSaturated(
                    "client %r is over its packet quota (ask: %d packets); "
                    "retry in %.1f s" % (client, cost, wait_s),
                    retry_after_s=wait_s)

    def _retry_after_s(self):
        """Seconds until in-flight work plausibly frees a slot (lock held).

        Pending fleet items spread over the fleet's width, scaled by an
        EWMA of recent item wall-clock; 1 s floor (and default, before
        any item has completed) so a ``Retry-After`` header is never 0.
        """
        per_item = self._item_seconds if self._item_seconds else 1.0
        backlog = max(1, len(self.resolver.inflight))
        return max(1.0, per_item * backlog / max(1, self.fleet.capacity))

    def pump(self, timeout=0.0):
        """Fold completed fleet items back in; count of items processed.

        With leases enabled this also refreshes the held leases and
        advances the lease-parked batches (see :meth:`_poll_parked`).
        """
        results = self.fleet.poll(timeout)
        with self._lock:
            for item_key, result in results:
                self._on_result(item_key, result)
            if self.leases is not None:
                self._poll_parked()
        return len(results)

    def cancel(self, request_key, reason="cancelled by client"):
        """Release one consumer's interest in an in-flight request.

        The last unit of interest releases the ticket for real (see
        *Cancellation and drain* in the module docstring): queued items
        no remaining request awaits are withdrawn — a fused group only
        once every member is orphaned — and counted as ``released``
        batches, and the ticket ends with a ``"cancelled"`` event.

        Returns ``True`` when the request was in flight (interest
        released), ``False`` when no such request is live (unknown key,
        or it already finished).
        """
        with self._lock:
            ticket = self._tickets.get(request_key)
            if ticket is None or ticket.done.is_set():
                return False
            ticket.interest -= 1
            if ticket.interest > 0:
                return True
            for item_key in self._retire(ticket, "cancelled", reason):
                if not self.fleet.cancel(item_key):
                    continue
                self._batches["released"].inc(self.resolver.forget(item_key))
                self._dispatched_at.pop(item_key, None)
                group_span = self._group_spans.pop(item_key, None)
                if group_span is not None:
                    group_span.end(outcome="cancelled")
            return True

    def close_admission(self):
        """Stop admitting new requests (in-flight ones keep running)."""
        with self._lock:
            self.admission_open = False

    def open_admission(self):
        """Re-open admission after :meth:`close_admission`."""
        with self._lock:
            self.admission_open = True

    def drain(self, timeout=None, poll_s=0.05):
        """Block until every in-flight request finishes; ``True`` on empty.

        Someone must keep calling :meth:`pump` for the tickets to
        advance — the :class:`~repro.service.api.Service` pump thread in
        the assembled service.  Normally preceded by
        :meth:`close_admission` so the set being waited on only shrinks
        (a submit arriving mid-drain would otherwise extend it).
        """
        deadline = None if timeout is None else time.time() + float(timeout)
        while True:
            with self._lock:
                tickets = [t for t in self._tickets.values()
                           if not t.done.is_set()]
            if not tickets:
                return True
            if deadline is not None and time.time() >= deadline:
                return False
            tickets[0].done.wait(poll_s)

    def shutdown(self, message="service stopped"):
        """Fail every in-flight ticket (used on service shutdown).

        Unfinished batches are forgotten and their leases released, and
        every namespace's store usage is flushed to its sidecar.
        """
        with self._lock:
            for ticket in list(self._tickets.values()):
                self._retire(ticket, "failed", message)
            self.resolver.reset()
            self._dispatched_at = {}
            for span in self._group_spans.values():
                span.end(outcome="shutdown")
            self._group_spans = {}
            for view in self._views.values():
                view.flush_stats()

    # ------------------------------------------------------------------ #
    def _retire(self, ticket, outcome, message=None):
        """End a ticket ``"done"``, ``"failed"`` or ``"cancelled"`` (lock
        held); every ticket leaves through here.

        Whatever the outcome, the namespace's store lookups are flushed
        to the usage sidecar ``repro-store gc`` ages namespaces on.
        Returns the items no request awaits any more, which
        cancellation withdraws.
        """
        self._tickets.pop(ticket.key, None)
        orphans = self.resolver.unsubscribe(ticket)
        for span in ticket.batch_spans.values():
            span.end(outcome=outcome)
        ticket.batch_spans = {}
        ticket._end(outcome, message)
        self._requests["completed" if outcome == "done" else outcome].inc()
        self._views[ticket.digest].flush_stats()
        return orphans

    def _record(self, ticket, resolution):
        """Count one batch resolution into the ticket's tally, the batch
        counter and, when traced, a span (lock held).

        A batch not answered at once gets a live span for its whole
        service-side residence, so the gap between it and its
        worker-side ``simulate`` child is the queue wait.
        """
        batch, source = resolution.batch, resolution.source
        label = _SOURCE_LABEL.get(source, source)
        ticket._note(batch, source)
        self._batches[label].inc()
        tracer = obs_trace.get_tracer()
        if not (tracer.enabled and ticket.span.enabled):
            return
        if source == "cached":
            tracer.event("batch", ticket.span, time.time(), 0.0,
                         {"source": label, "point": batch.point.index,
                          "batch": batch.index})
        else:
            ticket.batch_spans[resolution.key] = ticket.span.child(
                "batch", source=label, point=batch.point.index,
                batch=batch.index)

    def _priority(self, ticket):
        """The fleet priority of the ticket's next item: priority lane,
        deadline, arrival, then dispatch order."""
        self._item_seq += 1
        return (ticket.request.priority, ticket.deadline_at, ticket.seq,
                self._item_seq)

    def _advance(self, ticket):
        """Drive a ticket forward until it blocks on unfinished batches
        or ends (lock held)."""
        trajectory = ticket.trajectory
        view = self._views[ticket.digest]
        while not trajectory.round_in_flight:
            if trajectory.finished:
                ticket._emit_new_rows()
                self._retire(ticket, "done")
                return
            batches = trajectory.start_round()
            # start_round may stop points on its own (budget exhaustion).
            ticket._emit_new_rows()
            if not batches:
                continue
            resolutions, items = self.resolver.resolve(
                view, ticket.runner, batches, owner=ticket)
            for resolution in resolutions:
                self._record(ticket, resolution)
                if resolution.source == "shared":
                    # Another request already has this batch queued: if
                    # we are the more urgent requester, pull its item
                    # forward so the shared batch does not keep the
                    # lazier request's queue position.
                    self.fleet.promote(resolution.item_key,
                                       self._priority(ticket))
            # Queue the new items before folding stored answers in: a
            # fault while folding must not strand items never submitted.
            self._submit(items)
            for resolution in resolutions:
                if resolution.result is not None:
                    trajectory.consume(resolution.batch, resolution.result)
                    self._batches["delivered"].inc()
                    ticket._emit_new_rows()

    def _submit(self, items):
        """Queue work items on the fleet at their owner's priority (lock
        held); the broker's one fleet submission site."""
        tracer = obs_trace.get_tracer()
        for item in items:
            ticket = item.owner
            trace_ctx = None
            if tracer.enabled and ticket.span.enabled:
                if item.size > 1:
                    # One fused item simulates many batches: the worker's
                    # ``simulate`` span hangs off this group span, next
                    # to the per-member batch spans.
                    span = self._group_spans[item.key] = ticket.span.child(
                        "fused", batches=item.size)
                else:
                    span = ticket.batch_spans.get(item.key)
                trace_ctx = span.context() if span is not None else None
            self.fleet.submit(item.key, item.runner, item.payload,
                              priority=self._priority(ticket),
                              trace=trace_ctx)
            self._dispatched_at[item.key] = time.time()

    def _on_result(self, item_key, result):
        """Land one fleet item's result and deliver it (lock held)."""
        started = self._dispatched_at.pop(item_key, None)
        landed = self.resolver.complete(item_key, result)
        if started is not None and landed:
            # Feed the Retry-After estimator: per-batch wall-clock (a
            # fused item's elapsed spreads over its member batches).
            per_batch = (time.time() - started) / len(landed)
            self._item_seconds = (
                per_batch if self._item_seconds is None
                else 0.7 * self._item_seconds + 0.3 * per_batch)
            for _ in landed:
                self._h_simulate.observe(per_batch)
        group_span = self._group_spans.pop(item_key, None)
        if group_span is not None:
            group_span.end()
        tracer = obs_trace.get_tracer()
        for work in landed:
            if work.put_s is not None:
                self._h_store_put.observe(work.put_s)
                span = work.subscribers[0][0].batch_spans.get(work.key) \
                    if work.subscribers else None
                if tracer.enabled and span is not None:
                    tracer.event("store", span, work.put_ts, work.put_s)
            if work.put_error is not None:
                # An unstorable result (a custom runner leaking tuple
                # extras, a full disk) must not take the pump thread
                # down with it: the batch is simply served uncached.
                _logger.warning(
                    "could not persist batch %r of namespace %s; serving "
                    "it uncached", work.key[1:3], work.key[0][:16],
                    exc_info=work.put_error)
            self._fold(work)

    def _fold(self, work):
        """Fold one landed batch into every subscribed ticket (lock held),
        closing each subscriber's live batch span as its delivery lands."""
        for ticket, batch in work.subscribers:
            if ticket.done.is_set():
                continue  # failed while folding an earlier batch
            span = ticket.batch_spans.pop(work.key, None)
            # A fault folding one ticket's result in (e.g. a malformed
            # runner result dict) fails that ticket alone — the service
            # and its other requests keep running.
            try:
                fold_t0 = time.perf_counter()
                ticket.trajectory.consume(batch, work.result)
                self._h_deliver.observe(time.perf_counter() - fold_t0)
                self._batches["delivered"].inc()
                if span is not None:
                    span.end()
                ticket._emit_new_rows()
                if not ticket.trajectory.round_in_flight:
                    self._advance(ticket)
            except Exception as exc:
                _logger.warning("request %s failed processing batch %s",
                                ticket.key[:16], batch.label(), exc_info=True)
                if span is not None:
                    span.end(outcome="failed")
                self._retire(ticket, "failed",
                             "internal error processing %s: %s"
                             % (batch.label(), exc))

    def _poll_parked(self):
        """Advance lease-parked batches, at most once per ``lease_poll_s``
        (lock held): answered ones fold in, reclaimed ones run here."""
        now = time.monotonic()
        if now - self._lease_poll_at < self.lease_poll_s:
            return
        self._lease_poll_at = now
        landed, items = self.resolver.poll_parked()
        for item in items:
            self._batches["simulated"].inc()
            self._lease_events["reclaimed"].inc()
            for owner, _ in self.resolver.inflight[item.key].subscribers:
                span = owner.batch_spans.get(item.key)
                if span is not None:
                    span.annotate(lease="reclaimed")
        self._submit(items)
        for work in landed:
            self._lease_events["answered"].inc(len(work.subscribers))
            self._fold(work)

    # ------------------------------------------------------------------ #
    def requests(self):
        """Progress snapshots of every in-flight request."""
        with self._lock:
            return [ticket.progress() for ticket in self._tickets.values()]

    def status(self):
        """The compact service status served by ``GET /v1/status``."""
        with self._lock:
            return {
                "in_flight_requests": len(self._tickets),
                "completed_requests": self._requests["completed"].value,
                "failed_requests": self._requests["failed"].value,
                "cancelled_requests": self._requests["cancelled"].value,
                "simulated_batches": self._batches["simulated"].value,
                "inflight_batches": len(self.resolver.inflight),
                "lease_waiting_batches": len(self.resolver.parked),
                "admission_open": self.admission_open,
                "rejected_saturated": self._rejected["saturated"].value,
                "rejected_quota": self._rejected["quota"].value,
                "namespaces": sorted(self._views),
                "fleet": self.fleet.stats(),
                "store_root": self.store.root,
                "heartbeats": self.fleet.heartbeats(),
            }

    def metrics(self):
        """The full operational ledger as one stable JSON-able document.

        Everything the system already tracks, in one place: admission
        state and caps, the request lifecycle counters, the batch-source
        ledger (cached / simulated / shared / released / leased /
        delivered), the fleet's queue and worker health (including
        per-worker heartbeat ages and retry counts), per-namespace store
        statistics, and the ``cluster`` ledger — attached remote workers
        and cross-replica lease counters, present with a stable shape
        even when the replica runs standalone.  Served by
        ``GET /v1/metrics``; keys are append-only across PRs so scrapers
        can rely on them.  The numbers are read from the broker's,
        fleet's and lease manager's counters, the same ones the
        Prometheus exposition renders.

        The whole document is assembled inside the broker lock, so every
        number in one snapshot reflects a single instant, and the
        balance invariants (``admitted == in_flight + completed + failed
        + cancelled``; ``delivered <= cached + shared + simulated +
        leased``) hold in every snapshot.
        """
        with self._lock:
            now = time.monotonic()
            quota = None
            if self.quota is not None:
                quota = {
                    "packets_per_s": self.quota.packets_per_s,
                    "burst_packets": self.quota.burst_packets,
                    "buckets": {
                        str(client): round(bucket.level(now), 3)
                        for client, bucket in sorted(
                            self._buckets.items(),
                            key=lambda item: str(item[0]))
                    },
                }
            stores = {}
            for digest, view in sorted(self._views.items()):
                stores[digest] = {
                    "records": len(view),
                    "hits": view.hits,
                    "misses": view.misses,
                }
            return {
                "admission": {
                    "open": self.admission_open,
                    "max_inflight_batches": self.max_inflight_batches,
                    "max_requests": self.max_requests,
                    "rejected_saturated": self._rejected["saturated"].value,
                    "rejected_quota": self._rejected["quota"].value,
                    "retry_after_s": round(self._retry_after_s(), 3),
                    "quota": quota,
                },
                "requests": {
                    "in_flight": len(self._tickets),
                    "completed": self._requests["completed"].value,
                    "failed": self._requests["failed"].value,
                    "cancelled": self._requests["cancelled"].value,
                    "admitted": self._requests["admitted"].value,
                },
                "batches": {
                    "inflight": len(self.resolver.inflight),
                    "simulated": self._batches["simulated"].value,
                    "cached": self._batches["cached"].value,
                    "shared": self._batches["shared"].value,
                    "released": self._batches["released"].value,
                    "leased": self._batches["lease-parked"].value,
                    "delivered": self._batches["delivered"].value,
                },
                "fleet": self.fleet.stats(),
                "stores": stores,
                "cluster": self._cluster_metrics(),
                "store_root": self.store.root,
                "heartbeats": self.fleet.heartbeats(),
            }

    def _cluster_metrics(self):
        """The ``cluster`` metrics section (lock held); stable shape."""
        leases = self.leases
        ledger = ({"owner": None, "ttl_s": None, "held": 0}
                  if leases is None else
                  {"owner": leases.owner, "ttl_s": leases.ttl_s,
                   "held": leases.held})
        for event, child in self._lease_events.items():
            ledger[event] = child.value
        ledger.update(enabled=leases is not None,
                      waiting=len(self.resolver.parked),
                      waited=self._batches["lease-parked"].value)
        return {"replica": ledger["owner"],
                "remote_workers": self.fleet.remote_stats(),
                "leases": ledger}

    def __repr__(self):
        return ("CharacterisationBroker(in_flight=%d, completed=%d, "
                "simulated_batches=%d)"
                % (len(self._tickets), self._requests["completed"].value,
                   self._batches["simulated"].value))

