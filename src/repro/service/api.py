"""The service front door: in-process object and localhost HTTP endpoint.

:class:`Service` assembles the subsystem — a
:class:`~repro.service.fleet.WorkerFleet`, a
:class:`~repro.service.broker.CharacterisationBroker` and a pump thread
that folds completed fleet items back into the broker — behind two
entry points:

in process
    ``service.submit(request)`` returns the broker's
    :class:`~repro.service.broker.RequestTicket`; stream
    ``ticket.rows()`` as points finish or block on ``ticket.result()``.

over HTTP
    :func:`serve` binds a stdlib :class:`ThreadingHTTPServer` (localhost
    by default) speaking JSON: ``POST /v1/characterise`` with a
    :meth:`~repro.service.requests.CharacterisationRequest.to_dict` body
    answers with a **JSON-lines stream** — an ``accepted`` line, then one
    ``row`` event per finished point as batches complete (each carrying
    a progress snapshot: points done, packets spent, cache/simulated
    split), interleaved with periodic ``progress`` keep-alives, then
    ``done``.  ``GET /v1/requests`` reports per-request progress,
    ``GET /v1/status`` the broker and fleet counters,
    ``GET /v1/metrics`` the full operational ledger,
    ``POST /v1/requests/<key>/cancel`` releases one consumer's interest
    in an in-flight request, and ``POST /v1/shutdown`` stops the daemon
    (``?drain=1`` finishes in-flight requests first).  ``python -m
    repro.service`` runs exactly this (see :mod:`repro.service.__main__`).

as a cluster
    ``POST /v1/workers/attach`` is the remote-worker work channel: a
    ``python -m repro.service.worker --connect URL`` agent attaches and
    the response becomes a JSON-lines stream of ``task`` events (plus
    ``ping`` keep-alives), each carrying one priority-ordered work item;
    the agent posts results back to ``POST /v1/workers/<name>/result``
    and liveness to ``POST /v1/workers/<name>/beat``.  A broken stream
    or silent worker has its item requeued, exactly like a dead local
    process worker (see :mod:`repro.service.fleet`).  Passing
    ``lease_ttl_s`` to :class:`Service` enables cross-replica store
    leases, so several daemons sharing one store directory never
    simulate the same batch concurrently (see
    :mod:`repro.service.cluster`).

The HTTP layer adds no scheduling semantics of its own: every byte of a
row is produced by the broker, so curl-ed curves are bit-for-bit the
``Experiment.run`` curves.

Production contract
-------------------
Admission is bounded (see
:class:`~repro.service.broker.CharacterisationBroker`): a saturated
submit answers ``429`` with a computed ``Retry-After`` header, a
quota-exceeded or draining one ``503`` — both with a JSON error body
that :func:`stream_request` and :func:`fetch_json` surface as a typed
:class:`ServiceHTTPError`.  A client that hangs up mid-stream is
detected (at the next event or keep-alive write) and its interest in
the request is released through the broker's cancel path, so abandoned
work stops holding fleet budget; pass ``?detach=1`` to opt out and keep
the request running fire-and-forget.  A server-side fault mid-stream
emits a terminal ``{"event": "error", ...}`` line before the connection
closes, so clients can always distinguish truncation from completion.
"""

import json
import logging
import math
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.store import ResultStore
from repro.analysis.sweep import _json_default
from repro.obs.trace import TRACE_HEADER
from repro.service.broker import (CharacterisationBroker, ServiceError,
                                  ServiceSaturated)
from repro.service.cluster import LeaseManager
from repro.service.fleet import FleetError, WorkerFleet
from repro.service.requests import CharacterisationRequest
from repro.service.transport import decode_payload, encode_payload

__all__ = ["Service", "ServiceHTTPError", "RetryPolicy", "serve",
           "stream_request", "fetch_json", "cancel_request"]

_logger = logging.getLogger(__name__)


class ServiceHTTPError(ServiceError):
    """A service HTTP endpoint answered an error status.

    Carries what the raw :class:`urllib.error.HTTPError` discards: the
    parsed JSON error ``body`` the server sent, the ``status`` code, and
    ``retry_after_s`` (parsed from the ``Retry-After`` header on a
    ``429``, else ``None``) so callers can implement honest backoff
    without scraping headers themselves.
    """

    def __init__(self, status, body, retry_after_s=None):
        body = dict(body or {})
        message = body.get("error") or ("HTTP %d" % status)
        super().__init__("HTTP %d: %s" % (status, message))
        self.status = int(status)
        self.body = body
        self.retry_after_s = retry_after_s

    @property
    def saturated(self):
        return self.status == 429


def _raise_service_http_error(exc):
    """Convert an ``HTTPError`` into a :class:`ServiceHTTPError`."""
    try:
        body = json.loads(exc.read() or b"{}")
    except (ValueError, OSError):
        body = {}
    retry_after = exc.headers.get("Retry-After") if exc.headers else None
    if retry_after is not None:
        try:
            retry_after = float(retry_after)
        except ValueError:
            retry_after = None
    raise ServiceHTTPError(exc.code, body,
                           retry_after_s=retry_after) from exc


class RetryPolicy:
    """Opt-in retry with jittered exponential backoff for service clients.

    Pass one to :func:`stream_request` or :func:`fetch_json` and a
    retryable :class:`ServiceHTTPError` — by default the admission
    statuses, ``429`` (saturated) and ``503`` (draining) — is retried
    up to ``attempts`` total tries instead of surfacing on the first.
    The wait before try ``n`` is ``base_s * 2**n`` capped at ``max_s``,
    but never *less* than the server's ``Retry-After`` when the response
    carried one — the server's estimate is honest, backing off less
    than it asks just burns the next attempt.  Full jitter (a uniform
    draw over ``[wait * (1 - jitter), wait]``) keeps a thundering herd
    of identical clients from re-arriving in lockstep.

    With ``connect=True`` connection-level failures
    (:class:`urllib.error.URLError`, :class:`ConnectionError`) retry on
    the same schedule — useful for clients racing a daemon's startup.
    """

    def __init__(self, attempts=5, base_s=0.2, max_s=30.0, jitter=0.5,
                 statuses=(429, 503), connect=False, sleep=None, rng=None):
        if not attempts >= 1:
            raise ValueError("attempts must be at least 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self.attempts = int(attempts)
        self.base_s = float(base_s)
        self.max_s = float(max_s)
        self.jitter = float(jitter)
        self.statuses = frozenset(int(status) for status in statuses)
        self.connect = bool(connect)
        self._sleep = time.sleep if sleep is None else sleep
        self._rng = random.Random() if rng is None else rng
        self.retries = 0  # total sleeps taken, across every call()

    def delay_s(self, attempt, retry_after_s=None):
        """The jittered wait before retry number ``attempt`` (0-based)."""
        wait = min(self.max_s, self.base_s * (2 ** attempt))
        if retry_after_s is not None:
            wait = max(wait, float(retry_after_s))
        return wait * (1.0 - self.jitter * self._rng.random())

    def _retryable(self, exc):
        if isinstance(exc, ServiceHTTPError):
            return exc.status in self.statuses
        return self.connect and isinstance(
            exc, (urllib.error.URLError, ConnectionError))

    def call(self, func):
        """Run ``func()`` under this policy; the last error propagates."""
        for attempt in range(self.attempts):
            try:
                return func()
            except Exception as exc:
                if attempt + 1 >= self.attempts or not self._retryable(exc):
                    raise
                retry_after = getattr(exc, "retry_after_s", None)
                self.retries += 1
                self._sleep(self.delay_s(attempt, retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    def __repr__(self):
        return ("RetryPolicy(attempts=%d, base_s=%g, max_s=%g, statuses=%s)"
                % (self.attempts, self.base_s, self.max_s,
                   sorted(self.statuses)))


class Service:
    """The assembled characterisation service, in process.

    Parameters
    ----------
    store:
        A :class:`~repro.analysis.store.ResultStore` (or a directory
        path for one).
    workers, backend, mp_context:
        Fleet shape — see :class:`~repro.service.fleet.WorkerFleet`.
    runner:
        Optional chunk-runner override for every request (default: the
        link runner).
    poll_s:
        Pump thread poll interval; only shutdown latency, never results.
    max_inflight_batches, max_requests, quota:
        Admission-control knobs, passed through to
        :class:`~repro.service.broker.CharacterisationBroker` — ``None``
        keeps the pre-hardening unbounded behaviour.
    lease_ttl_s:
        Enables cross-replica store leases with this TTL: several
        replicas (service processes, possibly on different hosts)
        sharing one store directory then never simulate the same batch
        concurrently — see :mod:`repro.service.cluster`.  ``None``
        (default) runs standalone.  Alternatively pass a ready
        :class:`~repro.service.cluster.LeaseManager` as ``leases``.
    replica_id:
        This replica's identity in lease files and metrics (default:
        hostname-pid derived).
    remote_timeout_s:
        Watchdog for attached remote workers: one holding a work item
        and silent this long is presumed dead, detached, and its item
        requeued.  Must comfortably exceed the worker agent's heartbeat
        interval.
    stop_timeout_s:
        How long :meth:`stop` waits for the pump thread to exit before
        declaring it wedged (and refusing future :meth:`start` calls).
    """

    def __init__(self, store, workers=None, backend="thread", runner=None,
                 mp_context=None, poll_s=0.05, max_inflight_batches=None,
                 max_requests=None, quota=None, lease_ttl_s=None,
                 leases=None, replica_id=None, remote_timeout_s=60.0,
                 stop_timeout_s=10.0):
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        if leases is None and lease_ttl_s is not None:
            leases = LeaseManager.for_store(store.root, owner=replica_id,
                                            ttl_s=lease_ttl_s)
        self.leases = leases
        self.fleet = WorkerFleet(workers=workers, backend=backend,
                                 mp_context=mp_context)
        self.broker = CharacterisationBroker(
            store, self.fleet, runner=runner,
            max_inflight_batches=max_inflight_batches,
            max_requests=max_requests, quota=quota, leases=leases)
        self.remote_timeout_s = float(remote_timeout_s)
        self.poll_s = float(poll_s)
        self.stop_timeout_s = float(stop_timeout_s)
        self._pump = None
        self._wedged = False
        self._stopping = threading.Event()

    # ------------------------------------------------------------------ #
    def start(self):
        if self._wedged:
            raise ServiceError(
                "a previous stop() left the pump thread wedged; this "
                "Service cannot be restarted — build a fresh one")
        if self._pump is not None:
            raise ServiceError("service already started")
        self.fleet.start()
        self._stopping.clear()
        self._pump = threading.Thread(target=self._pump_main, daemon=True,
                                      name="service-pump")
        self._pump.start()
        return self

    def stop(self, drain=False, timeout=None):
        """Stop pumping and workers; in-flight requests fail cleanly.

        With ``drain=True`` the shutdown is graceful: admission closes
        first, in-flight requests run to completion (bounded by
        ``timeout`` seconds, ``None`` for no bound), and only then do
        the pump and fleet stop — nothing in flight is failed unless the
        drain deadline expires first.

        If the pump thread refuses to exit within ``stop_timeout_s``
        the service logs and raises :class:`ServiceError` after a
        best-effort fleet stop, and :meth:`start` refuses from then on —
        a wedged pump silently orphaned is exactly the bug this guards
        against.
        """
        if self._pump is None:
            return
        if drain:
            self.broker.close_admission()
            if not self.broker.drain(timeout=timeout):
                _logger.warning(
                    "drain deadline (%.1f s) expired with requests still "
                    "in flight; they will be failed", timeout)
        self._stopping.set()
        self._pump.join(timeout=self.stop_timeout_s)
        if self._pump.is_alive():
            self._wedged = True
            _logger.error(
                "service pump thread failed to stop within %.1f s; the "
                "service is wedged and cannot be restarted",
                self.stop_timeout_s)
            self.fleet.stop()
            self.broker.shutdown("service stopped (pump wedged)")
            raise ServiceError(
                "service pump thread failed to stop within %.1f s"
                % self.stop_timeout_s)
        self._pump = None
        self.fleet.stop()
        self.broker.shutdown()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def _pump_main(self):
        while not self._stopping.is_set():
            # The pump must outlive any single fault: the broker already
            # scopes per-result failures to their tickets, and anything
            # that still escapes is logged rather than allowed to kill
            # the thread and silently hang every future request.
            try:
                self.broker.pump(timeout=self.poll_s)
                self.fleet.reap_overdue_remotes(self.remote_timeout_s)
            except Exception:
                _logger.exception("service pump survived an unexpected error")
                time.sleep(self.poll_s)

    # ------------------------------------------------------------------ #
    def submit(self, request, trace=None):
        """Submit one request; returns its (possibly shared) ticket.

        ``trace`` is an optional ``X-Repro-Trace`` span context the
        request's trace continues from (see :mod:`repro.obs.trace`).
        """
        if self._pump is None:
            raise ServiceError("service is not running; start() it first")
        if not isinstance(request, CharacterisationRequest):
            request = CharacterisationRequest.from_dict(request)
        return self.broker.submit(request, trace=trace)

    def characterise(self, request, timeout=None):
        """Submit and block: the final rows, in grid order."""
        return self.submit(request).result(timeout=timeout)

    def cancel(self, request_key, reason="cancelled by client"):
        """Release one consumer's interest in an in-flight request."""
        return self.broker.cancel(request_key, reason=reason)

    def status(self):
        """Broker and fleet counters (served by ``GET /v1/status``)."""
        return self.broker.status()

    def metrics(self):
        """The full operational ledger (served by ``GET /v1/metrics``)."""
        return self.broker.metrics()

    def prometheus_text(self):
        """Prometheus text exposition (``GET /v1/metrics?format=prometheus``)."""
        return self.broker.prometheus_text()

    def __repr__(self):
        return "Service(store=%r, fleet=%r)" % (self.store.root, self.fleet)


# ---------------------------------------------------------------------- #
# HTTP front door (stdlib only)
# ---------------------------------------------------------------------- #
def _to_json(payload):
    return (json.dumps(payload, default=_json_default) + "\n").encode("utf-8")


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    # HTTP/1.0 framing: the row stream has no known length, so the
    # connection close delimits it — every stdlib/curl client handles
    # that, and it keeps the handler free of chunked-encoding bookkeeping.
    protocol_version = "HTTP/1.0"

    def log_message(self, fmt, *args):  # route access noise to logging
        _logger.debug("%s - %s", self.address_string(), fmt % args)

    @property
    def service(self):
        return self.server.service

    def _send_json(self, status, payload, headers=None):
        body = _to_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status, text):
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        split = urllib.parse.urlsplit(self.path)
        path = split.path
        if path == "/v1/status":
            return self._send_json(200, self.service.status())
        if path == "/v1/metrics":
            query = urllib.parse.parse_qs(split.query)
            if "prometheus" in query.get("format", []):
                return self._send_text(200, self.service.prometheus_text())
            return self._send_json(200, self.service.metrics())
        if path == "/v1/requests":
            return self._send_json(200,
                                   {"requests": self.service.broker.requests()})
        return self._send_json(404, {"error": "unknown path %s" % path})

    def do_POST(self):
        split = urllib.parse.urlsplit(self.path)
        path = split.path
        query = urllib.parse.parse_qs(split.query)
        if path == "/v1/shutdown":
            return self._shutdown(drain="1" in query.get("drain", []))
        if path == "/v1/workers/attach":
            return self._worker_attach(
                (query.get("name") or [None])[0])
        if path.startswith("/v1/workers/") and path.endswith("/result"):
            return self._worker_result(
                path[len("/v1/workers/"):-len("/result")])
        if path.startswith("/v1/workers/") and path.endswith("/beat"):
            name = path[len("/v1/workers/"):-len("/beat")]
            handle = self.service.fleet.remote_handle(name)
            if handle is None or not handle.beat():
                return self._send_json(
                    404, {"error": "no attached remote worker %r" % name})
            return self._send_json(200, {"worker": name, "alive": True})
        if path.startswith("/v1/requests/") and path.endswith("/cancel"):
            key = path[len("/v1/requests/"):-len("/cancel")]
            if self.service.cancel(key):
                return self._send_json(200, {"request": key,
                                             "cancelled": True})
            return self._send_json(
                404, {"error": "no in-flight request %s (unknown key, or "
                               "it already finished)" % key})
        if path != "/v1/characterise":
            return self._send_json(404, {"error": "unknown path %s" % path})
        return self._characterise(detach="1" in query.get("detach", []))

    def _shutdown(self, drain):
        # With drain, admission must be closed before the "draining"
        # reply goes out: a client that reads the reply and immediately
        # submits is guaranteed its 503.
        if drain:
            self.service.broker.close_admission()
        self._send_json(200, {"status": "draining" if drain else "stopping"})

        # shutdown() must come from another thread: it joins the
        # serve_forever loop this handler is running under.  With drain,
        # the HTTP loop only stops once in-flight tickets finished — the
        # pump keeps folding results in throughout.
        def _stop():
            if drain:
                self.service.broker.drain()
            self.server.shutdown()

        threading.Thread(target=_stop, daemon=True).start()
        return None

    def _characterise(self, detach):
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
            request = CharacterisationRequest.from_dict(payload)
        except (TypeError, ValueError) as exc:
            return self._send_json(400, {"error": str(exc)})
        try:
            ticket = self.service.submit(
                request, trace=self.headers.get(TRACE_HEADER))
        except ServiceSaturated as exc:
            # The admission-control contract: 429 plus an honest integer
            # Retry-After (ceil — never tell a client to come back early).
            return self._send_json(
                429, {"error": str(exc),
                      "retry_after_s": exc.retry_after_s},
                headers={"Retry-After":
                         str(max(1, math.ceil(exc.retry_after_s)))})
        except ServiceError as exc:
            return self._send_json(503, {"error": str(exc)})
        except Exception as exc:
            # A synchronous submit fault (e.g. a corrupt store record hit
            # during warm replay) must come back as JSON, not as a
            # dropped connection and a server-side traceback.
            _logger.exception("submit failed for %s", request)
            return self._send_json(500, {"error": "%s: %s"
                                         % (type(exc).__name__, exc)})
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        accepted = {
            "event": "accepted",
            "request": ticket.key,
            "namespace": ticket.digest,
            "points": request.num_points(),
            "detach": bool(detach),
        }
        if ticket.span.enabled:
            # Echo the trace id so an untraced client can still find its
            # waterfall in the sink (`repro-trace show DIR <id>`).
            accepted["trace"] = ticket.span.trace_id
        self.wfile.write(_to_json(accepted))
        self.wfile.flush()
        try:
            for event in ticket.stream(
                    heartbeat_s=self.server.stream_heartbeat_s):
                self.wfile.write(_to_json(event))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up.  Detected at the next write — the
            # keep-alive heartbeat bounds how long that takes on a slow
            # point.  Release this consumer's interest so abandoned work
            # stops holding fleet budget (a coalesced twin keeps the
            # ticket alive); ?detach=1 keeps the old fire-and-forget
            # behaviour.
            if not detach:
                self.service.cancel(ticket.key,
                                    reason="client disconnected")
        except Exception as exc:
            # A server-side fault mid-stream: emit a terminal error event
            # so the client can tell truncation from completion, then
            # release our interest (unless detached) — the connection is
            # closing either way and nobody is left to consume the rows.
            _logger.exception("streaming request %s failed", ticket.key[:16])
            try:
                self.wfile.write(_to_json({
                    "event": "error",
                    "request": ticket.key,
                    "error": "%s: %s" % (type(exc).__name__, exc),
                }))
                self.wfile.flush()
            except OSError:
                pass  # the pipe is gone too; nothing more to tell anyone
            if not detach:
                self.service.cancel(
                    ticket.key, reason="server-side stream fault: %s" % exc)
        return None

    # ------------------------------------------------------------------ #
    # Remote-worker work channel
    # ------------------------------------------------------------------ #
    def _worker_attach(self, name):
        """The streaming side of the work channel: tasks out, pings between.

        This handler thread *is* the attached worker's dispatcher: it
        owns the :class:`~repro.service.fleet.WorkerHandle`, pulls
        priority-ordered items (depth-1 — the next only after the
        previous result arrived through ``_worker_result``) and writes
        each as a ``task`` event.  Quiet stretches carry ``ping``
        keep-alives, whose writes double as disconnect detection: a
        worker whose connection died is detached and its outstanding
        item requeued the moment a ping bounces.
        """
        try:
            handle = self.service.fleet.register_remote(name)
        except FleetError as exc:
            return self._send_json(503, {"error": str(exc)})
        self.server.attach_streams.add(threading.current_thread())
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        ping_s = self.server.worker_ping_s
        try:
            self.wfile.write(_to_json({
                "event": "attached", "worker": handle.name,
                "ping_s": ping_s,
            }))
            self.wfile.flush()
            while handle.active:
                item = handle.next_task(timeout=ping_s)
                if item is None:
                    if not handle.active:
                        break
                    self.wfile.write(_to_json({"event": "ping"}))
                    self.wfile.flush()
                    continue
                task = {
                    "event": "task",
                    "seq": item.seq,
                    "label": item.batch.label(),
                    "payload": encode_payload((item.runner, item.batch)),
                }
                if item.trace is not None:
                    # Span context piggybacks on the task event so the
                    # agent's simulate span joins the request's trace;
                    # absent when tracing is off (historical shape).
                    task["trace"] = item.trace
                self.wfile.write(_to_json(task))
                self.wfile.flush()
            # "detached" = the watchdog (or a newer attach under the same
            # name) evicted this worker while the service runs on — it
            # should re-attach; "stopped" = service shutdown, don't.
            fleet = self.service.fleet
            stopping = fleet._stopping or not fleet._running
            self.wfile.write(_to_json({
                "event": "bye",
                "reason": "stopped" if stopping else "detached",
            }))
            self.wfile.flush()
        except OSError:
            pass  # the agent hung up; detach below requeues its item
        finally:
            handle.detach(requeue=True)
            self.server.attach_streams.discard(threading.current_thread())
        return None

    def _worker_result(self, name):
        """Accept one completed item from an attached remote worker."""
        handle = self.service.fleet.remote_handle(name)
        if handle is None:
            return self._send_json(
                404, {"error": "no attached remote worker %r" % name})
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
            seq = int(payload["seq"])
            error = payload.get("error")
            result = None
            if error is None:
                result = dict(decode_payload(payload["payload"]))
        except (KeyError, TypeError, ValueError) as exc:
            return self._send_json(400, {"error": str(exc)})
        accepted = handle.complete(seq, result, error)
        # A refused result is not an error: the worker was presumed dead
        # and its item requeued — the agent should just pull on.
        return self._send_json(200, {"worker": name, "seq": seq,
                                     "accepted": bool(accepted)})


def serve(service, host="127.0.0.1", port=0, heartbeat_s=10.0,
          worker_ping_s=1.0):
    """Bind the HTTP front door; returns the (not yet serving) server.

    ``port=0`` picks a free port — read the real one back from
    ``server.server_address``.  Call ``server.serve_forever()`` to run;
    ``POST /v1/shutdown`` (or ``server.shutdown()``) stops it.

    ``heartbeat_s`` is the keep-alive cadence of the row stream: a
    synthetic ``progress`` event is written whenever that many seconds
    pass without a real one, which doubles as the disconnect detector
    for abandoned clients (``None`` disables both).  ``worker_ping_s``
    is the same for the remote-worker attach streams: the task-wait
    granularity and the ping cadence that detects a hung-up agent.
    """

    class _FrontDoorServer(ThreadingHTTPServer):
        # The stdlib default accept backlog (5) resets connections the
        # moment a burst of clients arrives together; admission control
        # is the broker's job, so the listener itself must not shed load
        # before a request ever reaches it.
        request_queue_size = 128

    server = _FrontDoorServer((host, port), _ServiceRequestHandler)
    server.daemon_threads = True
    server.service = service
    server.stream_heartbeat_s = (None if heartbeat_s is None
                                 else float(heartbeat_s))
    server.worker_ping_s = float(worker_ping_s)
    # Live attach-stream handler threads.  A clean daemon exit waits for
    # this to empty: each handler leaves only after writing its ``bye``,
    # which remote agents need to tell a graceful stop from a crash.
    server.attach_streams = set()
    return server


# ---------------------------------------------------------------------- #
# Client helpers (used by the example, the CI smoke job and tests)
# ---------------------------------------------------------------------- #
def stream_request(base_url, request, timeout=300.0, detach=False,
                   retry=None, trace=None):
    """POST a request to a running service; yield its parsed event stream.

    An error status (a saturated 429, a draining 503, a malformed 400)
    raises :class:`ServiceHTTPError` carrying the parsed JSON error body
    and any ``Retry-After`` value, instead of letting the raw
    ``urllib.error.HTTPError`` escape with the body unread.

    ``retry`` (a :class:`RetryPolicy`) re-submits on the retryable
    statuses — honouring the 429's ``Retry-After`` — until the stream
    opens.  Only the submit is retried, never a stream that already
    produced events: re-submitting *is* safe (identical requests
    coalesce, stored batches replay), but splicing two event streams
    would not be.

    ``trace`` (a ``"trace_id:span_id"`` context, e.g. from a local
    :class:`repro.obs.trace.Span`'s ``context()``) rides the
    ``X-Repro-Trace`` header so the service-side trace continues the
    caller's.
    """
    if isinstance(request, CharacterisationRequest):
        request = request.to_dict()
    url = base_url.rstrip("/") + "/v1/characterise"
    if detach:
        url += "?detach=1"
    headers = {"Content-Type": "application/json"}
    if trace is not None:
        headers[TRACE_HEADER] = trace
    http_request = urllib.request.Request(
        url,
        data=json.dumps(request, default=_json_default).encode("utf-8"),
        headers=headers,
    )

    def _open():
        try:
            return urllib.request.urlopen(http_request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            _raise_service_http_error(exc)

    response = _open() if retry is None else retry.call(_open)
    with response:
        for line in response:
            line = line.strip()
            if line:
                yield json.loads(line)


def fetch_json(url, data=None, timeout=30.0, retry=None):
    """GET (or POST, with ``data``) one JSON document from the service.

    POST bodies are labelled ``Content-Type: application/json``; an
    error status raises :class:`ServiceHTTPError` with the parsed body.
    ``retry`` (a :class:`RetryPolicy`) retries the whole exchange on the
    policy's retryable statuses (and, with its ``connect=True``, on
    connection failures — e.g. polling a daemon that is still binding).
    """
    headers = {} if data is None else {"Content-Type": "application/json"}
    http_request = urllib.request.Request(
        url, data=None if data is None else json.dumps(data).encode("utf-8"),
        headers=headers)

    def _once():
        try:
            with urllib.request.urlopen(http_request,
                                        timeout=timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            _raise_service_http_error(exc)

    if retry is None:
        return _once()
    return retry.call(_once)


def cancel_request(base_url, request_key, timeout=30.0):
    """POST the cancel endpoint for ``request_key``; the parsed reply.

    Raises :class:`ServiceHTTPError` (status 404) when the key names no
    in-flight request — unknown, or already finished.
    """
    return fetch_json(
        base_url.rstrip("/") + "/v1/requests/%s/cancel" % request_key,
        data={}, timeout=timeout)
