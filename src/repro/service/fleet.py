"""A persistent worker fleet pulling batch-granular work items.

The sweep layer's :class:`~repro.analysis.sweep.SweepExecutor` is built
for one-shot runs: it is handed a whole grid, builds a pool, drains it,
tears it down.  A long-lived service needs the opposite lifetime — the
pool outlives any single request, and the unit of dispatch is one
:class:`~repro.analysis.adaptive.MeasurementBatch`, so a thousand-point
request cannot head-of-line-block a three-point one: their batches
interleave in a single priority queue.

:class:`WorkerFleet` provides that with two backends:

``thread``
    Worker threads in this process.  The link simulator spends most of
    its time inside numpy kernels that release the GIL, so threads give
    real parallelism without pickling, and are the default for the
    in-process service.
``process``
    Long-lived ``multiprocessing`` worker processes.  Each worker owns a
    depth-1 task queue, so the parent always knows exactly which item a
    worker holds: when a worker dies mid-batch (OOM kill, segfault, an
    ``os._exit`` deep in native code), its item is requeued — up to
    ``max_retries`` times — and a replacement worker is started.  Workers
    post heartbeats over their own pipe; :meth:`heartbeats` reports each
    worker's last-seen age.

Remote workers
--------------
Either backend can additionally be fed by **remote workers**: agents on
other hosts that attach over the service's HTTP boundary (``python -m
repro.service.worker --connect URL``; see :mod:`repro.service.worker`).
:meth:`WorkerFleet.register_remote` hands the front door a
:class:`RemoteWorkerHandle` that pulls items from the *same* priority
heap local workers drain — so priorities, promotion and queued-item
cancellation need no remote-specific code at all — under the process
backend's depth-1 discipline: one outstanding item per worker, so the
parent always knows exactly what a dead worker held.  A remote worker
that stops heartbeating, breaks its stream or detaches mid-item has its
item requeued through the same ``max_retries`` path as a dead process
worker; a stale result arriving after requeue is refused (the item may
already be re-executing elsewhere).

Determinism
-----------
A work item is ``(runner, batch)`` and the batch carries its own derived
:class:`~numpy.random.SeedSequence` — *which worker* runs it (local
thread, child process or remote host), in what order, or on the
how-many-th retry is invisible in the result, the same invariance the
executor backends guarantee.  A runner *exception* is deterministic, so
it is never retried: it comes back as a captured ``{"error": ...}``
result in the executor's vocabulary.  Only worker death triggers a
retry.
"""

import heapq
import itertools
import os
import queue
import threading
import time
import traceback

from repro.obs import trace as obs_trace

__all__ = ["FleetError", "RemoteWorkerHandle", "WorkerFleet"]


class FleetError(RuntimeError):
    """The fleet was used outside its lifecycle or lost a worker for good."""


def _capture(runner, batch):
    """Run one item, capturing failures in the executor's error format."""
    try:
        return dict(runner(batch)), None
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        detail = "%s: %s\n%s" % (type(exc).__name__, exc,
                                 traceback.format_exc())
        return None, detail


def _traced_capture(runner, batch, trace, worker):
    """:func:`_capture` under a resumed ``simulate`` span (when traced).

    The span is made *current* for the worker thread so the kernel
    phase hooks (transmit/channel/front-end/decode, BCJR sweeps) nest
    under it.  With tracing off — or an untraced item — this is one
    attribute load on top of the plain call.
    """
    tracer = obs_trace.get_tracer()
    if trace is None or not tracer.enabled:
        return _capture(runner, batch)
    with tracer.resume(trace, "simulate", worker=worker,
                       label=batch.label()):
        return _capture(runner, batch)


def _process_worker_main(worker_id, conn, heartbeat_s, trace_dir=None):
    """Long-lived process worker: heartbeat thread + one-item task loop.

    All messages travel over this worker's own duplex pipe.  That
    per-worker choice is deliberate: a shared ``multiprocessing.Queue``
    guards its write end with a semaphore *shared by every worker*, so a
    worker dying mid-``put`` (exactly what the retry machinery exists
    for) would leave the semaphore locked and poison the whole fleet.  A
    per-worker pipe has a single writing process — a dying worker can
    only break its own pipe, which the parent reads as EOF.

    A task is ``(seq, runner, batch, trace)``: ``trace`` is a
    :mod:`repro.obs.trace` context string, or ``None`` when untraced,
    and never influences the work itself.
    """
    if trace_dir:
        obs_trace.configure(trace_dir, proc=worker_id)
    send_lock = threading.Lock()  # main loop and heartbeat thread share it
    stop_beat = threading.Event()

    def send(message):
        with send_lock:
            conn.send(message)

    def beat():
        while not stop_beat.wait(heartbeat_s):
            try:
                send(("heartbeat", worker_id, time.time()))
            except OSError:
                return  # the parent closed its end of the pipe

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        send(("heartbeat", worker_id, time.time()))
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            seq, runner, batch, trace = task
            result, error = _traced_capture(runner, batch, trace, worker_id)
            send(("result", worker_id, seq, result, error))
    finally:
        stop_beat.set()


class _Item:
    """One queued work item and its bookkeeping."""

    __slots__ = ("seq", "item_id", "runner", "batch", "priority", "attempts",
                 "delivered", "trace")

    def __init__(self, seq, item_id, runner, batch, priority, trace=None):
        self.seq = seq
        self.item_id = item_id
        self.runner = runner
        self.batch = batch
        self.priority = priority
        self.attempts = 0
        self.delivered = False
        self.trace = trace  # obs span context riding to the executor


class RemoteWorkerHandle:
    """The fleet-side end of one attached remote worker.

    Owned by whoever speaks to the remote agent — in the assembled
    service, the HTTP handler thread of its ``POST /v1/workers/attach``
    stream.  The protocol is depth-1, mirroring the process backend:

    * :meth:`next_task` pops the next priority-ordered item (blocking up
      to a timeout) and records it as this worker's outstanding item; it
      refuses to pop while one is outstanding, instead waiting for its
      completion.
    * :meth:`complete` resolves the outstanding item with the agent's
      result; a stale ``seq`` (the item was requeued after this worker
      was presumed dead) is refused so one item can never resolve twice
      with contradictory results.
    * :meth:`beat` keeps the worker alive in the fleet's heartbeat table
      while a long batch executes remotely.
    * :meth:`detach` withdraws the worker; an outstanding item is
      requeued (up to the fleet's ``max_retries``, then failed), exactly
      like a dead process worker's.
    """

    def __init__(self, fleet, name):
        self._fleet = fleet
        self.name = name
        self.detached = False
        self.attached_at = time.time()
        self.last_beat = time.monotonic()
        self.completed = 0
        self._item = None

    # ------------------------------------------------------------------ #
    @property
    def active(self):
        """Whether the worker should keep pulling (fleet up, not detached)."""
        fleet = self._fleet
        return not self.detached and fleet._running and not fleet._stopping

    @property
    def executing(self):
        """Whether an item is outstanding on this worker."""
        return self._item is not None

    def idle_s(self, now=None):
        """Seconds since this worker was last heard from."""
        now = time.monotonic() if now is None else now
        return now - self.last_beat

    def overdue(self, timeout_s, now=None):
        """Whether an outstanding item's worker has gone silent too long."""
        return self._item is not None and self.idle_s(now) > timeout_s

    # ------------------------------------------------------------------ #
    def next_task(self, timeout=1.0):
        """The next work item for this worker, or ``None`` on timeout.

        Blocks up to ``timeout`` seconds.  While an item is outstanding
        this never pops another (depth-1); it waits for the completion
        instead, so a ``None`` doubles as the caller's cue to send a
        keep-alive and run its watchdog check.  Returns ``None``
        immediately once the worker is detached or the fleet stops.
        """
        fleet = self._fleet
        deadline = time.monotonic() + max(0.0, timeout)
        with fleet._lock:
            while True:
                if not self.active:
                    return None
                if self._item is None:
                    item = fleet._pop_queued()
                    if item is not None:
                        self._item = item
                        fleet._inflight[item.seq] = item
                        item.attempts += 1
                        self.last_beat = time.monotonic()
                        fleet._heartbeat[self.name] = time.time()
                        return item
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                fleet._lock.wait(remaining)

    def complete(self, seq, result, error=None):
        """Resolve the outstanding item; ``False`` when ``seq`` is stale."""
        fleet = self._fleet
        with fleet._lock:
            item = self._item
            if self.detached or item is None or item.seq != seq:
                return False
            self._item = None
            fleet._inflight.pop(item.seq, None)
            self.completed += 1
            fleet.remote_completed += 1
            self.last_beat = time.monotonic()
            fleet._heartbeat[self.name] = time.time()
            fleet._finish(item, result, error)
            fleet._lock.notify_all()
            return True

    def beat(self):
        """Record a liveness signal; ``False`` once detached."""
        fleet = self._fleet
        with fleet._lock:
            if self.detached:
                return False
            self.last_beat = time.monotonic()
            fleet._heartbeat[self.name] = time.time()
            return True

    def detach(self, requeue=True):
        """Withdraw this worker; requeue (or fail) its outstanding item.

        Idempotent.  With ``requeue`` (the death/disconnect path) the
        outstanding item goes back on the heap at its own priority, its
        attempt counted against the fleet's ``max_retries`` exactly like
        a dead process worker's; past the cap it is failed with an error
        result.  ``requeue=False`` fails the item outright (an explicit
        operator eviction, where re-running is not wanted).
        """
        fleet = self._fleet
        with fleet._lock:
            if self.detached:
                return False
            self.detached = True
            if fleet._remote.get(self.name) is self:
                fleet._remote.pop(self.name, None)
                fleet._heartbeat.pop(self.name, None)
            fleet.remote_detached += 1
            item, self._item = self._item, None
            if item is not None:
                fleet._inflight.pop(item.seq, None)
                if item.delivered:
                    pass  # already resolved (e.g. fleet stop failed it)
                elif fleet._stopping or not fleet._running:
                    # Requeueing onto a stopping fleet would strand the
                    # item: nothing will ever drain the heap again.
                    fleet._finish(item, None, "fleet stopped")
                elif not requeue or item.attempts > fleet.max_retries:
                    fleet._finish(
                        item, None,
                        "remote worker %s detached running %s "
                        "(%d attempt(s))%s"
                        % (self.name, item.batch.label(), item.attempts,
                           "" if requeue else "; not requeued"))
                else:
                    fleet.retried += 1
                    fleet.remote_requeued += 1
                    heapq.heappush(fleet._heap,
                                   (item.priority, item.seq, item))
                    fleet._queued[item.item_id] = item
            fleet._lock.notify_all()
            return True

    def __repr__(self):
        return ("RemoteWorkerHandle(%r, executing=%r, completed=%d, "
                "detached=%r)" % (self.name, self.executing, self.completed,
                                  self.detached))


class WorkerFleet:
    """Long-lived workers draining one priority queue of batch items.

    Parameters
    ----------
    workers:
        Worker count (default ``os.cpu_count()``, at least 1).
    backend:
        ``"thread"`` (default) or ``"process"`` (see the module
        docstring for the trade-off).
    mp_context:
        Optional :mod:`multiprocessing` context or start-method name for
        the process backend.
    heartbeat_s:
        Process-worker heartbeat interval in seconds.
    max_retries:
        How many times a work item is re-dispatched after the worker
        running it died, before it is failed with an error result.
    compute_slots:
        Thread backend only: how many workers may *execute* a runner at
        the same time (default ``min(workers, os.cpu_count())``).  The
        numpy kernels release the GIL around every small operation, so
        on a host with fewer cores than workers the oversubscribed
        threads hand the GIL back and forth at kernel granularity —
        measured multi-x wall-clock inflation of each item on a
        single-core host.  Queueing, heartbeats and result streaming
        stay fully concurrent; only the compute sections serialise down
        to the hardware's real parallelism.

    Usage: :meth:`start` (or use as a context manager), then
    :meth:`submit` items — ``submit(item_id, runner, batch,
    priority=...)``; lower priority tuples run first — and drain
    ``(item_id, result)`` pairs with :meth:`poll`.  Results arrive in
    completion order; an item that failed carries ``{"error": ...}``.
    """

    def __init__(self, workers=None, backend="thread", mp_context=None,
                 heartbeat_s=1.0, max_retries=2, compute_slots=None):
        if backend not in ("thread", "process"):
            raise ValueError("unknown backend %r (use 'thread' or 'process')"
                             % (backend,))
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        if compute_slots is not None and compute_slots < 1:
            raise ValueError("compute_slots must be positive")
        self.backend = backend
        self.workers = workers or os.cpu_count() or 1
        self.mp_context = mp_context
        self.heartbeat_s = float(heartbeat_s)
        self.max_retries = int(max_retries)
        self.compute_slots = min(
            self.workers,
            compute_slots or max(os.cpu_count() or 1, 1),
        )
        self._compute_gate = threading.BoundedSemaphore(self.compute_slots)
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.retried = 0
        self.restarted = 0
        self._seq = itertools.count()
        self._lock = threading.Condition()
        self._heap = []            # (priority, seq, _Item)
        self._queued = {}          # item_id -> _Item still awaiting dispatch
        self._inflight = {}        # seq -> _Item, dispatched and unresolved
        self._done = queue.Queue()  # (item_id, result dict)
        self._heartbeat = {}       # worker name -> last-seen timestamp
        self._running = False
        self._stopping = False
        # thread backend
        self._threads = []
        # process backend
        self._context = None
        self._procs = {}           # worker name -> (Process, parent Connection)
        self._assigned = {}        # worker name -> seq it currently holds
        self._idle = set()
        self._pump_threads = []
        self._worker_ids = itertools.count()
        # remote workers (either backend)
        self._remote = {}          # worker name -> RemoteWorkerHandle
        self.remote_attached = 0
        self.remote_detached = 0
        self.remote_completed = 0
        self.remote_requeued = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        if self._running:
            raise FleetError("fleet already started")
        self._running = True
        self._stopping = False
        if self.backend == "thread":
            for _ in range(self.workers):
                name = "fleet-thread-%d" % next(self._worker_ids)
                thread = threading.Thread(target=self._thread_worker_main,
                                          args=(name,), daemon=True)
                self._heartbeat[name] = time.time()
                self._threads.append(thread)
                thread.start()
            return self
        import multiprocessing

        context = self.mp_context
        if isinstance(context, str):
            context = multiprocessing.get_context(context)
        self._context = context or multiprocessing.get_context()
        for _ in range(self.workers):
            self._spawn_process_worker()
        collector = threading.Thread(target=self._collector_main, daemon=True)
        feeder = threading.Thread(target=self._feeder_main, daemon=True)
        self._pump_threads = [collector, feeder]
        collector.start()
        feeder.start()
        return self

    def stop(self):
        """Stop workers; unfinished items come back as error results."""
        with self._lock:
            if not self._running:
                return
            self._stopping = True
            self._lock.notify_all()
        if self.backend == "thread":
            for thread in self._threads:
                thread.join(timeout=10.0)
            self._threads = []
        else:
            for _, conn in list(self._procs.values()):
                try:
                    conn.send(None)
                except OSError:
                    pass
            for thread in self._pump_threads:
                thread.join(timeout=10.0)
            self._pump_threads = []
            for proc, conn in list(self._procs.values()):
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
                conn.close()
            self._procs = {}
        for handle in list(self._remote.values()):
            # Their attach streams notice _stopping and exit on their own;
            # detaching here makes the outstanding items' fate immediate
            # rather than waiting on a handler thread's next wake-up.
            handle.detach(requeue=False)
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight = {}
            while self._heap:
                leftovers.append(heapq.heappop(self._heap)[2])
            self._queued = {}
            self._running = False
            for item in leftovers:
                self._finish(item, None, "fleet stopped")

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # ------------------------------------------------------------------ #
    # Submission and results
    # ------------------------------------------------------------------ #
    def submit(self, item_id, runner, batch, priority=(), trace=None):
        """Queue one batch; lower ``priority`` tuples are dispatched first.

        ``trace`` is an optional span context the executing worker
        resumes its ``simulate`` span from; it never affects results.
        """
        with self._lock:
            if not self._running or self._stopping:
                raise FleetError("fleet is not running; start() it first")
            item = _Item(next(self._seq), item_id, runner, batch,
                         tuple(priority), trace=trace)
            heapq.heappush(self._heap, (item.priority, item.seq, item))
            self._queued[item_id] = item
            self.submitted += 1
            self._lock.notify_all()
        return item.item_id

    def cancel(self, item_id):
        """Withdraw a queued item before any worker picks it up.

        Returns ``True`` when the item was still queued: it will never
        run and never produce a result — the caller must not wait for
        one.  Returns ``False`` once the item was dispatched (its result
        arrives through :meth:`poll` as usual) or the id is unknown.
        Used by the broker's cancellation path to hand un-started work
        back without perturbing anything a worker already holds.
        """
        with self._lock:
            item = self._queued.get(item_id)
            if item is None or item.delivered or item.seq in self._inflight:
                return False
            self._queued.pop(item_id, None)
            # Stale heap entries are skipped at pop time, exactly like a
            # promotion's superseded duplicates.
            item.delivered = True
            self.cancelled += 1
            return True

    def promote(self, item_id, priority):
        """Raise a queued item's priority; no-op once it is dispatched.

        Used by the broker when an urgent request subscribes to a batch a
        lazier request already enqueued: without this the shared batch
        would keep its original queue position and the urgent request
        would inherit the lazy one's completion latency.  Implemented as
        a lazy decrease-key: the better entry is pushed and the stale one
        is skipped at pop time.
        """
        priority = tuple(priority)
        with self._lock:
            item = self._queued.get(item_id)
            if item is None or item.delivered or priority >= item.priority:
                return False
            item.priority = priority
            heapq.heappush(self._heap, (priority, item.seq, item))
            self._lock.notify_all()
            return True

    def _pop_queued(self):
        """Next live queued item, skipping stale promotion duplicates.

        Called with the lock held; returns ``None`` when nothing is
        queued.
        """
        while self._heap:
            entry_priority, _, item = heapq.heappop(self._heap)
            if item.delivered or item.seq in self._inflight:
                continue  # duplicate of an already-dispatched entry
            if entry_priority != item.priority:
                continue  # superseded by a promotion
            self._queued.pop(item.item_id, None)
            return item
        return None

    # ------------------------------------------------------------------ #
    # Remote workers
    # ------------------------------------------------------------------ #
    def register_remote(self, name=None):
        """Attach a remote worker; its :class:`RemoteWorkerHandle`.

        ``name`` identifies the worker across reconnects: an agent
        re-attaching under a name that is still registered (its previous
        stream broke before the fleet noticed) evicts the old handle —
        latest attach wins, and the old handle's outstanding item is
        requeued through the normal retry path.
        """
        with self._lock:
            if not self._running or self._stopping:
                raise FleetError("fleet is not running; start() it first")
            name = str(name) if name else "remote-%d" % next(self._worker_ids)
            stale = self._remote.get(name)
        if stale is not None:
            stale.detach(requeue=True)
        with self._lock:
            if not self._running or self._stopping:
                raise FleetError("fleet is not running; start() it first")
            handle = RemoteWorkerHandle(self, name)
            self._remote[name] = handle
            self._heartbeat[name] = time.time()
            self.remote_attached += 1
            return handle

    def remote_handle(self, name):
        """The live handle registered under ``name``, or ``None``."""
        with self._lock:
            return self._remote.get(name)

    def remote_stats(self):
        """The remote-worker ledger for the ``/v1/metrics`` document."""
        now = time.monotonic()
        with self._lock:
            workers = {
                handle.name: {
                    "alive": True,
                    "last_seen_s": round(handle.idle_s(now), 3),
                    "executing": handle.executing,
                    "completed": handle.completed,
                }
                for handle in sorted(self._remote.values(),
                                     key=lambda h: h.name)
            }
            return {
                "attached": workers,
                "attached_total": self.remote_attached,
                "detached_total": self.remote_detached,
                "completed": self.remote_completed,
                "requeued": self.remote_requeued,
            }

    @property
    def capacity(self):
        """Workers that can hold an item at once: local plus remote."""
        return self.workers + len(self._remote)

    def reap_overdue_remotes(self, timeout_s):
        """Detach remote workers silent too long with an item outstanding.

        The attach stream's ping writes catch a cleanly-broken
        connection; this watchdog (run from the service pump) catches
        the rest — a worker whose host froze or vanished without
        resetting the TCP stream.  Detaching requeues the held item
        through the normal retry path.  Returns how many were reaped.
        """
        now = time.monotonic()
        with self._lock:
            overdue = [handle for handle in self._remote.values()
                       if handle.overdue(timeout_s, now)]
        for handle in overdue:
            handle.detach(requeue=True)
        return len(overdue)

    def poll(self, timeout=0.0):
        """Completed ``(item_id, result)`` pairs, oldest first.

        Blocks up to ``timeout`` seconds for the *first* result, then
        drains whatever else is ready without blocking.
        """
        out = []
        try:
            out.append(self._done.get(timeout=timeout) if timeout > 0
                       else self._done.get_nowait())
            while True:
                out.append(self._done.get_nowait())
        except queue.Empty:
            pass
        return out

    @property
    def pending(self):
        """Items submitted but neither completed nor cancelled."""
        return self.submitted - self.completed - self.cancelled

    def heartbeats(self, now=None):
        """Seconds since each worker was last seen alive."""
        now = time.time() if now is None else now
        with self._lock:
            return {name: now - seen
                    for name, seen in sorted(self._heartbeat.items())}

    def stats(self):
        return {
            "backend": self.backend,
            "workers": self.workers,
            "compute_slots": self.compute_slots,
            "submitted": self.submitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "pending": self.pending,
            "queued": len(self._queued),
            "executing": len(self._inflight),
            "retried": self.retried,
            "workers_restarted": self.restarted,
            "remote_workers": len(self._remote),
            "remote_completed": self.remote_completed,
            "remote_requeued": self.remote_requeued,
        }

    def _finish(self, item, result, error):
        """Deliver one item's result, exactly once (called under the lock).

        The once-guard matters at shutdown: stop() error-fails items whose
        worker outlived the join timeout, and that straggler thread may
        still complete the item afterwards — without the guard a caller
        would see two contradictory results for one item_id.
        """
        if item.delivered:
            return
        item.delivered = True
        if error is not None:
            # Match the executor's capture rows: first line in the result,
            # full detail available to whoever logs it.
            result = {"error": error.splitlines()[0]}
        self.completed += 1
        self._done.put((item.item_id, result))

    # ------------------------------------------------------------------ #
    # Thread backend
    # ------------------------------------------------------------------ #
    def _thread_worker_main(self, name):
        while True:
            with self._lock:
                item = None
                while not self._stopping:
                    item = self._pop_queued()
                    if item is not None:
                        break
                    self._heartbeat[name] = time.time()
                    self._lock.wait(timeout=self.heartbeat_s)
                if item is None:
                    return
                self._inflight[item.seq] = item
                self._heartbeat[name] = time.time()
            with self._compute_gate:
                result, error = _traced_capture(item.runner, item.batch,
                                                item.trace, name)
            with self._lock:
                self._inflight.pop(item.seq, None)
                self._heartbeat[name] = time.time()
                self._finish(item, result, error)

    # ------------------------------------------------------------------ #
    # Process backend
    # ------------------------------------------------------------------ #
    def _spawn_process_worker(self):
        name = "fleet-proc-%d" % next(self._worker_ids)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        proc = self._context.Process(
            target=_process_worker_main,
            args=(name, child_conn, self.heartbeat_s, obs_trace.sink_dir()),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the parent keeps only its own end
        self._procs[name] = (proc, parent_conn)
        self._heartbeat[name] = time.time()
        self._idle.add(name)
        return name

    def _feeder_main(self):
        """Assign heap items to idle workers; watch for worker death."""
        while True:
            with self._lock:
                if self._stopping:
                    return
                while self._idle:
                    item = self._pop_queued()
                    if item is None:
                        break
                    name = self._idle.pop()
                    _, conn = self._procs[name]
                    self._inflight[item.seq] = item
                    self._assigned[name] = item.seq
                    item.attempts += 1
                    try:
                        conn.send((item.seq, item.runner, item.batch,
                                   item.trace))
                    except OSError:
                        self._reap_worker(name)
                    except Exception as exc:
                        # The item itself cannot be shipped (unpicklable
                        # runner or batch): fail it deterministically and
                        # keep both the worker and this thread alive.
                        self._inflight.pop(item.seq, None)
                        self._assigned.pop(name, None)
                        self._idle.add(name)
                        self._finish(
                            item, None,
                            "work item %s cannot be shipped to a process "
                            "worker: %s: %s" % (item.batch.label(),
                                                type(exc).__name__, exc))
                for name, (proc, _) in list(self._procs.items()):
                    if not proc.is_alive():
                        self._reap_worker(name)
                self._lock.wait(timeout=0.2)

    def _reap_worker(self, name):
        """Requeue (or fail) a dead worker's item; start a replacement.

        Called with the lock held.  A worker that died *between* items is
        simply replaced; one that died holding an item triggers the
        retry path.
        """
        proc, conn = self._procs.pop(name)
        conn.close()
        self._heartbeat.pop(name, None)
        self._idle.discard(name)
        seq = self._assigned.pop(name, None)
        if seq is not None:
            item = self._inflight.pop(seq, None)
            if item is not None:
                if item.attempts > self.max_retries:
                    self._finish(
                        item, None,
                        "worker died running %s (%d attempt(s)); giving up"
                        % (item.batch.label(), item.attempts))
                else:
                    self.retried += 1
                    heapq.heappush(self._heap,
                                   (item.priority, item.seq, item))
                    self._queued[item.item_id] = item
        if not self._stopping:
            self.restarted += 1
            self._spawn_process_worker()

    def _collector_main(self):
        """Drain worker messages into heartbeats and completed results."""
        from multiprocessing.connection import wait as connection_wait

        while True:
            with self._lock:
                if self._stopping:
                    return
                conns = {conn: name
                         for name, (_, conn) in self._procs.items()}
            try:
                ready = connection_wait(list(conns), timeout=0.2)
            except OSError:
                # The feeder reaped a dead worker (closing its connection)
                # between our snapshot and the wait; rebuild and retry.
                continue
            for conn in ready:
                name = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died (possibly mid-message), or the feeder
                    # reaped it and closed the connection after our
                    # snapshot.  Reap now rather than spinning on the
                    # readable-at-EOF connection until the feeder notices.
                    with self._lock:
                        if name in self._procs:
                            self._procs[name][0].join(timeout=1.0)
                            self._reap_worker(name)
                            self._lock.notify_all()
                    continue
                kind = message[0]
                with self._lock:
                    if kind == "heartbeat":
                        _, name, seen = message
                        if name in self._procs:
                            self._heartbeat[name] = seen
                    elif kind == "result":
                        _, name, seq, result, error = message
                        if name in self._procs:
                            self._heartbeat[name] = time.time()
                            self._assigned.pop(name, None)
                            self._idle.add(name)
                            self._lock.notify_all()
                        item = self._inflight.pop(seq, None)
                        if item is not None:
                            self._finish(item, result, error)

    def __repr__(self):
        return ("WorkerFleet(backend=%r, workers=%d, pending=%d, "
                "completed=%d)" % (self.backend, self.workers, self.pending,
                                   self.completed))
