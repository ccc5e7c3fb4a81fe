"""A persistent worker fleet pulling batch-granular work items.

A long-lived service needs a worker pool that outlives any single
request, with one :class:`~repro.analysis.adaptive.MeasurementBatch` as
the unit of dispatch, so a thousand-point request cannot
head-of-line-block a three-point one: their batches interleave in a
single priority queue.  :class:`WorkerFleet` is that pool, and the
sweep layer's ``SweepExecutor("process")`` runs on it too, one item per
operating point.

One handle protocol
-------------------
Every worker drives the same depth-1 :class:`WorkerHandle`, so the fleet
always knows exactly which item a worker holds, and a lost worker's item
takes one requeue-or-fail path whatever the worker was.  All workers
pull from the *same* heap (priorities, promotion and queued-item
cancellation need no per-kind code) and execute items through the same
capture.  Three kinds of worker drive a handle:

``thread`` backend
    Worker threads in this process.  The link simulator spends most of
    its time inside numpy kernels that release the GIL, so threads give
    real parallelism without pickling, and are the default for the
    in-process service.
``process`` backend
    Long-lived ``multiprocessing`` child processes, each behind one
    small driver thread that ships the handle's items down the child's
    own pipe and forwards the child's heartbeats and results.  When a
    child dies mid-batch (OOM kill, segfault, an ``os._exit`` deep in
    native code), the driver reads EOF, detaches the handle — which
    requeues the item — and starts a replacement child.
remote workers
    Agents on other hosts that attach over the service's HTTP boundary
    (``python -m repro.service.worker --connect URL``), on either
    backend.  :meth:`WorkerFleet.register_remote` hands the front door
    the handle; its attach-stream handler thread drives it.  A remote
    worker that stops heartbeating, breaks its stream or detaches
    mid-item has its item requeued; a stale result arriving after
    requeue is refused (the item may already be re-executing elsewhere).

Determinism
-----------
A work item is ``(runner, batch)`` and the batch carries its own derived
:class:`~numpy.random.SeedSequence` — *which worker* runs it (local
thread, child process or remote host), in what order, or on the
how-many-th retry is invisible in the result, the same invariance the
executor backends guarantee.  A runner *exception* is deterministic, so
it is never retried: it comes back as a captured ``{"error": ...}``
result in the executor's vocabulary (its first line; the fleet logs the
full traceback once, at WARNING, naming the item).  Only worker death
triggers a retry.
"""

import heapq
import itertools
import logging
import os
import queue
import threading
import time

from repro.analysis.adaptive import capture_result
from repro.obs import trace as obs_trace

__all__ = ["FleetError", "WorkerFleet", "WorkerHandle"]

_logger = logging.getLogger(__name__)


class FleetError(RuntimeError):
    """The fleet was used outside its lifecycle or lost a worker for good."""


def _traced_capture(runner, batch, trace, worker, **attrs):
    """:func:`~repro.analysis.adaptive.capture_result` under a resumed
    ``simulate`` span (when traced).

    Every worker kind executes its items through this: thread workers,
    child processes and remote agents (which add ``remote=True`` to the
    span's ``attrs``).  The span is made *current* for the executing
    thread so the kernel phase hooks (transmit/channel/front-end/decode,
    BCJR sweeps) nest under it.  With tracing off — or an untraced item
    — this is one attribute load on top of the plain call.
    """
    tracer = obs_trace.get_tracer()
    if trace is None or not tracer.enabled:
        return capture_result(runner, batch)
    with tracer.resume(trace, "simulate", worker=worker,
                       label=batch.label(), **attrs):
        return capture_result(runner, batch)


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
                send(("heartbeat",))
            except OSError:
                return  # the parent closed its end of the pipe

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        send(("heartbeat",))
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            seq, runner, batch, trace = task
            result, error = _traced_capture(runner, batch, trace, worker_id)
            send(("result", seq, result, error))
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


class WorkerHandle:
    """The fleet-side end of one worker, whatever the worker is.

    Every worker drives one: a thread worker directly, a child process
    through its driver thread, a remote agent through the HTTP handler
    thread of its ``POST /v1/workers/attach`` stream.  The protocol is
    depth-1, so the fleet always knows exactly which item a worker holds:

    * :meth:`next_task` pops the next priority-ordered item (blocking up
      to a timeout) and records it as this worker's outstanding item; it
      refuses to pop while one is outstanding, instead waiting for its
      completion.
    * :meth:`complete` resolves the outstanding item with the worker's
      result; a stale ``seq`` (the item was requeued after this worker
      was presumed dead) is refused so one item can never resolve twice
      with contradictory results.
    * :meth:`beat` keeps the worker alive in the fleet's heartbeat table
      while a long batch executes.
    * :meth:`detach` withdraws the worker; an outstanding item is
      requeued (up to the fleet's ``max_retries``, then failed).  This is
      the fleet's one requeue-or-fail decision: a dead child process and
      a vanished remote agent both end here.
    """

    def __init__(self, fleet, name, remote=False):
        self._fleet = fleet
        self.name = name
        self.remote = remote
        self.detached = False
        self.completed = 0
        self._item = None
        self._touch()

    def _touch(self):
        self.last_beat = time.monotonic()  # for the watchdog
        self.last_seen = time.time()  # for heartbeats()

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
                        self._touch()
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
            if self.remote:
                fleet.remote_completed += 1
            self._touch()
            fleet._finish(item, result, error)
            if self.remote:
                # A remote result arrives on another thread than the one
                # waiting in next_task for it.  Local workers complete on
                # their own thread, and a wake-up here would only push
                # the idle waiters behind them in the condition's queue.
                fleet._lock.notify_all()
            return True

    def beat(self):
        """Record a liveness signal; ``False`` once detached."""
        with self._fleet._lock:
            if self.detached:
                return False
            self._touch()
            return True

    def detach(self, requeue=True):
        """Withdraw this worker; requeue (or fail) its outstanding item.

        Idempotent.  With ``requeue`` (the death/disconnect path) the
        outstanding item goes back on the heap at its own priority, its
        attempt counted against the fleet's ``max_retries``; past the cap
        it is failed with an error result.  ``requeue=False`` fails the
        item outright (an explicit operator eviction, where re-running is
        not wanted).
        """
        fleet = self._fleet
        with fleet._lock:
            if self.detached:
                return False
            self.detached = True
            workers = fleet._remote if self.remote else fleet._local
            if workers.get(self.name) is self:
                del workers[self.name]
            if self.remote:
                fleet.remote_detached += 1
            item, self._item = self._item, None
            if item is not None:
                fleet._inflight.pop(item.seq, None)
                if item.delivered or fleet._stopping or not fleet._running:
                    # Requeueing onto a stopping fleet would strand the
                    # item: nothing will ever drain the heap again.
                    fleet._finish(item, None, "fleet stopped")
                elif not requeue or item.attempts > fleet.max_retries:
                    lost = ("remote worker %s detached" % self.name
                            if self.remote else "worker died")
                    fleet._finish(
                        item, None,
                        "%s running %s (%d attempt(s)); %s"
                        % (lost, item.batch.label(), item.attempts,
                           "giving up" if requeue else "not requeued"))
                else:
                    fleet.retried += 1
                    if self.remote:
                        fleet.remote_requeued += 1
                    heapq.heappush(fleet._heap,
                                   (item.priority, item.seq, item))
                    fleet._queued[item.item_id] = item
            fleet._lock.notify_all()
            return True

    def __repr__(self):
        return ("WorkerHandle(%r, executing=%r, completed=%d, "
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
        Heartbeat interval in seconds: how often an idle local worker
        checks in, and a child process beats while it executes.
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
        self._running = False
        self._stopping = False
        self._threads = []         # thread workers or child-process drivers
        self._context = None       # multiprocessing context (process backend)
        self._worker_ids = itertools.count()
        self._local = {}           # worker name -> WorkerHandle, this host
        self._remote = {}          # worker name -> WorkerHandle, attached
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
            target, prefix = self._thread_worker_main, "fleet-thread"
        else:
            import multiprocessing

            context = self.mp_context
            if isinstance(context, str):
                context = multiprocessing.get_context(context)
            self._context = context or multiprocessing.get_context()
            target, prefix = self._process_driver_main, "fleet-proc"
        for _ in range(self.workers):
            thread = threading.Thread(target=target,
                                      args=(self._new_local(prefix),),
                                      daemon=True)
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self):
        """Stop workers; unfinished items come back as error results."""
        with self._lock:
            if not self._running:
                return
            self._stopping = True
            self._lock.notify_all()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        with self._lock:
            handles = list(self._local.values()) + list(self._remote.values())
        for handle in handles:
            # Remote attach streams notice _stopping and exit on their
            # own; detaching here makes the outstanding items' fate
            # immediate, and takes every stopped worker out of the
            # heartbeat table.
            handle.detach(requeue=False)
        with self._lock:
            while self._heap:
                self._finish(heapq.heappop(self._heap)[2], None,
                             "fleet stopped")
            self._queued = {}
            self._running = False

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
        """Attach a remote worker; its :class:`WorkerHandle`.

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
            handle = WorkerHandle(self, name, remote=True)
            self._remote[name] = handle
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
            handles = list(self._local.values()) + list(self._remote.values())
        return {handle.name: now - handle.last_seen
                for handle in sorted(handles, key=lambda h: h.name)}

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
            # full detail (the worker's traceback) logged here, once.
            _logger.warning("work item %s failed: %s", item.batch.label(),
                            error)
            result = {"error": error.splitlines()[0]}
        self.completed += 1
        self._done.put((item.item_id, result))

    # ------------------------------------------------------------------ #
    # Local workers: threads, and child processes behind driver threads
    # ------------------------------------------------------------------ #
    def _new_local(self, prefix):
        """Register a handle for a new local worker named ``prefix-N``."""
        with self._lock:
            handle = WorkerHandle(self, "%s-%d" % (prefix,
                                                   next(self._worker_ids)))
            self._local[handle.name] = handle
            return handle

    def _thread_worker_main(self, handle):
        while handle.active:
            item = handle.next_task(timeout=self.heartbeat_s)
            if item is None:
                handle.beat()
                continue
            with self._compute_gate:
                result, error = _traced_capture(item.runner, item.batch,
                                                item.trace, handle.name)
            handle.complete(item.seq, result, error)

    def _spawn_child(self, name):
        """Start the child process for worker ``name``; ``(proc, conn)``."""
        # Under the lock: with fork, a child started while another
        # child's pipe end is still open here would inherit that end and
        # keep the other child's death from ever reading as EOF.
        with self._lock:
            conn, child_conn = self._context.Pipe(duplex=True)
            proc = self._context.Process(
                target=_process_worker_main,
                args=(name, child_conn, self.heartbeat_s,
                      obs_trace.sink_dir()),
                daemon=True,
            )
            proc.start()
            child_conn.close()  # the parent keeps only its own end
        return proc, conn

    def _process_driver_main(self, handle):
        """Drive one child process through ``handle``; replace it on death.

        Sends each item :meth:`WorkerHandle.next_task` returns down the
        child's pipe, forwards the child's heartbeats to
        :meth:`WorkerHandle.beat` and its result to
        :meth:`WorkerHandle.complete`.  On EOF (the child died) the
        handle is detached with ``requeue=True`` and a replacement child
        is started under a fresh handle.
        """
        proc, conn = self._spawn_child(handle.name)
        while handle.active:
            item = handle.next_task(timeout=self.heartbeat_s)
            if item is not None:
                try:
                    conn.send((item.seq, item.runner, item.batch,
                               item.trace))
                except OSError:
                    pass  # the child is gone: the pump below reads EOF
                except Exception as exc:
                    # The item itself cannot be shipped (unpicklable
                    # runner or batch): fail it deterministically and
                    # keep the child.
                    handle.complete(
                        item.seq, None,
                        "work item %s cannot be shipped to a process "
                        "worker: %s: %s" % (item.batch.label(),
                                            type(exc).__name__, exc))
            if self._pump_child(handle, proc, conn):
                continue
            handle.detach(requeue=True)
            conn.close()
            proc.join(timeout=1.0)
            with self._lock:
                if self._stopping:
                    return
                self.restarted += 1
                handle = self._new_local("fleet-proc")
            proc, conn = self._spawn_child(handle.name)
        try:
            conn.send(None)
        except OSError:
            pass
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        conn.close()

    @staticmethod
    def _pump_child(handle, proc, conn):
        """Forward the child's messages to ``handle``; ``False`` on death.

        Reads until the handle holds no item and the pipe is drained, or
        until the fleet stops (an outstanding item is then left for
        :meth:`stop` to fail).
        """
        try:
            while handle.executing or conn.poll():
                if not conn.poll(0.2):
                    if not proc.is_alive():
                        return False
                    if not handle.active:
                        return True
                    continue
                message = conn.recv()
                if message[0] == "heartbeat":
                    handle.beat()
                else:
                    _, seq, result, error = message
                    handle.complete(seq, result, error)
        except (EOFError, OSError):
            return False
        return True

    def __repr__(self):
        return ("WorkerFleet(backend=%r, workers=%d, pending=%d, "
                "completed=%d)" % (self.backend, self.workers, self.pending,
                                   self.completed))
