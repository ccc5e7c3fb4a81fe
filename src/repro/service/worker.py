"""The remote worker agent: attach to a service, pull batches, post results.

::

    python -m repro.service.worker --connect http://host:8423

This is the *other* host's half of the fleet's remote-worker protocol
(see :mod:`repro.service.fleet`): the agent POSTs
``/v1/workers/attach`` and the response becomes a JSON-lines stream of
work — ``task`` events carrying one pickled ``(runner, batch)`` item
each (base64, :func:`repro.service.transport.decode_payload`),
interleaved with ``ping`` keep-alives while the queue is empty.  The
agent executes each item with the exact capture semantics of a local
fleet worker and posts the outcome to ``/v1/workers/<name>/result``;
while a long batch runs, a side thread posts
``/v1/workers/<name>/beat`` so the service's watchdog knows the worker
is alive and not dead mid-item.

Failure behaviour mirrors the process backend's: if the agent dies (or
its host does), the service requeues the outstanding item after the
stream breaks or the heartbeat goes silent — up to the fleet's retry
cap, with bit-for-bit results either way because the batch carries its
own seed.  If the *service* dies, the agent re-attaches with backoff
until ``--retries`` consecutive failures, then exits; a ``bye`` event
with reason ``"stopped"`` (graceful service shutdown) ends the agent
immediately, while reason ``"detached"`` (the watchdog presumed us dead
— a long GC pause, a network wobble) triggers a clean re-attach.

Trust model: work items are pickles, and unpickling executes arbitrary
code — only ever connect an agent to a service you trust (see
:mod:`repro.service.transport`).
"""

import argparse
import json
import logging
import os
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.obs import configure_logging
from repro.obs import trace as obs_trace
from repro.service.fleet import _traced_capture
from repro.service.transport import decode_payload, encode_payload

__all__ = ["WorkerAgent", "main"]

_logger = logging.getLogger(__name__)


class WorkerAgent:
    """One remote worker: attach loop, task execution, result posting.

    Importable so tests (and embedders) can run an agent on a thread
    against an in-process service instead of shelling out.  ``stop()``
    asks the agent to exit after the current item; the run loop also
    exits on the service's ``bye``/``stopped`` signal.
    """

    def __init__(self, base_url, name=None, heartbeat_s=5.0,
                 http_timeout_s=30.0):
        self.base_url = base_url.rstrip("/")
        self.requested_name = name
        self.name = name          # canonical name, assigned at attach
        self.heartbeat_s = float(heartbeat_s)
        self.http_timeout_s = float(http_timeout_s)
        self.completed = 0
        self.attaches = 0
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    def stop(self):
        """Ask the run loop to exit after the item in hand (thread-safe)."""
        self._stop.set()

    def _post_json(self, path, payload):
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request,
                                    timeout=self.http_timeout_s) as response:
            return json.loads(response.read())

    def _beat_while(self, done):
        """Post liveness beats until ``done`` is set (runs on a thread)."""
        while not done.wait(self.heartbeat_s):
            try:
                self._post_json("/v1/workers/%s/beat" % self.name, {})
            except (OSError, urllib.error.URLError, ValueError):
                return  # the service is gone; the main loop will notice

    def _execute(self, event):
        """Run one ``task`` event; ``True`` while the channel is healthy."""
        seq = int(event["seq"])
        try:
            runner, batch = decode_payload(event["payload"])
        except Exception as exc:  # noqa: BLE001 - reported as the result
            result, error = None, ("undecodable work item: %s: %s"
                                   % (type(exc).__name__, exc))
        else:
            done = threading.Event()
            beater = threading.Thread(target=self._beat_while, args=(done,),
                                      daemon=True)
            beater.start()
            try:
                # The batch's span context rode the task event (see the
                # service's attach handler), so this simulate span — and
                # the kernel phase spans under it — joins the request's
                # trace even though it runs on another host.
                result, error = _traced_capture(
                    runner, batch, event.get("trace"), self.name,
                    remote=True)
            finally:
                done.set()
        body = {"seq": seq}
        if error is not None:
            body["error"] = error
        else:
            body["payload"] = encode_payload(result)
        try:
            reply = self._post_json("/v1/workers/%s/result" % self.name, body)
        except (OSError, urllib.error.URLError, ValueError):
            # The service vanished with our result in hand.  Losing it is
            # safe: the broken stream requeues the item, and the batch's
            # own seed makes the re-run bit-for-bit identical.
            return False
        if not reply.get("accepted"):
            _logger.info("result for item %d refused (stale after requeue)",
                         seq)
        else:
            self.completed += 1
        return True

    def attach_once(self):
        """One attach stream, drained until it ends.

        Returns ``"stopped"`` (service said bye, don't come back),
        ``"detached"`` (service evicted us; re-attach), or ``"lost"``
        (connection/stream failure; re-attach with backoff).
        """
        query = ""
        if self.requested_name:
            query = "?" + urllib.parse.urlencode(
                {"name": self.requested_name})
        request = urllib.request.Request(
            self.base_url + "/v1/workers/attach" + query, data=b"",
            headers={"Content-Type": "application/json"})
        try:
            response = urllib.request.urlopen(request,
                                              timeout=self.http_timeout_s)
        except (OSError, urllib.error.URLError, ValueError):
            return "lost"
        self.attaches += 1
        with response:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    return "lost"
                kind = event.get("event")
                if kind == "attached":
                    self.name = event["worker"]
                    _logger.info("attached to %s as %r", self.base_url,
                                 self.name)
                elif kind == "task":
                    if not self._execute(event):
                        return "lost"
                elif kind == "bye":
                    return event.get("reason", "stopped")
                if self._stop.is_set():
                    return "stopped"
        return "lost"

    def run(self, retries=10, backoff_s=1.0, max_backoff_s=30.0):
        """Attach and work until the service stops (or is gone for good).

        ``retries`` bounds *consecutive* connection failures — any
        successful attach resets the count.  Returns the number of
        completed items.
        """
        failures = 0
        while not self._stop.is_set():
            attaches_before = self.attaches
            outcome = self.attach_once()
            if outcome == "stopped":
                break
            if outcome == "detached":
                failures = 0
                continue
            if self.attaches > attaches_before:
                failures = 0  # the stream worked for a while; fresh count
            failures += 1
            if failures > retries:
                _logger.warning("giving up on %s after %d consecutive "
                                "failures", self.base_url, failures)
                break
            delay = min(max_backoff_s, backoff_s * (2 ** (failures - 1)))
            if self._stop.wait(delay):
                break
        return self.completed

    def __repr__(self):
        return ("WorkerAgent(%r, name=%r, completed=%d)"
                % (self.base_url, self.name, self.completed))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Remote worker agent: attaches to a running "
                    "characterisation service and executes its batch work "
                    "items on this host.  Only connect to a service you "
                    "trust: work items are pickled code.")
    parser.add_argument("--connect", required=True, metavar="URL",
                        help="service base URL, e.g. http://host:8423")
    parser.add_argument("--name", default=None,
                        help="stable worker name (re-attaching under the "
                             "same name evicts a stale predecessor); "
                             "default: service-assigned")
    parser.add_argument("--heartbeat-s", type=float, default=5.0,
                        help="liveness beat interval while executing a "
                             "batch (default: 5; keep well under the "
                             "service's remote_timeout_s)")
    parser.add_argument("--retries", type=int, default=10,
                        help="consecutive attach failures before giving up")
    parser.add_argument("--backoff-s", type=float, default=1.0,
                        help="initial re-attach backoff (doubles per "
                             "failure, capped at 30 s)")
    parser.add_argument("--log-level", default="info",
                        help="root logging level for the repro.* loggers "
                             "(debug/info/warning/error; default: info)")
    parser.add_argument("--log-file", default=None, metavar="PATH",
                        help="append logs to PATH instead of stderr")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="emit obs spans for executed batches into this "
                             "trace sink (point it at the same directory as "
                             "the service's --trace-dir to get connected "
                             "waterfalls; default: $REPRO_TRACE_DIR, else "
                             "off)")
    args = parser.parse_args(argv)
    configure_logging(args.log_level, args.log_file)
    trace_dir = args.trace_dir or os.environ.get("REPRO_TRACE_DIR")
    if trace_dir:
        obs_trace.configure(trace_dir,
                            proc=args.name or "agent-%d" % os.getpid())
    agent = WorkerAgent(args.connect, name=args.name,
                        heartbeat_s=args.heartbeat_s)
    try:
        completed = agent.run(retries=args.retries, backoff_s=args.backoff_s)
    except KeyboardInterrupt:
        completed = agent.completed
    print("worker %s completed %d item(s)" % (agent.name or "-", completed),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
