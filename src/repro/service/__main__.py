"""Run the characterisation service as a localhost daemon.

::

    python -m repro.service --store bercurves/ [--port 8423] [--workers 4]

The announce line (``listening on http://...``) is printed once the
socket is bound — supervisors and the CI smoke job parse it to learn the
port when ``--port 0`` picked a free one.  ``POST /v1/shutdown`` stops
the daemon cleanly (``?drain=1`` finishes in-flight requests first);
Ctrl-C works too.

Admission control is off by default (the pre-hardening unbounded
behaviour); ``--max-inflight-batches``, ``--max-requests`` and
``--quota RATE[:BURST]`` bound it — see
:class:`repro.service.broker.CharacterisationBroker`.

Scale-out: ``--lease-ttl-s`` enables cross-replica store leases (several
daemons sharing one ``--store`` never simulate the same batch
concurrently), and remote hosts attach extra workers with ``python -m
repro.service.worker --connect URL`` — see :mod:`repro.service.cluster`
and :mod:`repro.service.worker`.
"""

import argparse
import os
import sys
import time

from repro.obs import configure_logging
from repro.obs import trace as obs_trace
from repro.service.api import Service, serve
from repro.service.broker import ClientQuota


def _quota(text):
    """Parse ``RATE[:BURST]`` (packets/s, burst packets) into a quota."""
    rate, _, burst = text.partition(":")
    try:
        return ClientQuota(float(rate),
                           float(burst) if burst else float(rate))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "expected RATE[:BURST] with positive numbers; got %r (%s)"
            % (text, exc))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-lived BER characterisation service: accepts "
                    "Scenario+axes requests over HTTP, dedupes them against "
                    "a ResultStore, schedules only the misses across a "
                    "worker fleet and streams rows back as JSON lines.")
    parser.add_argument("--store", required=True,
                        help="ResultStore directory (created on first write)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: localhost only)")
    parser.add_argument("--port", type=int, default=8423,
                        help="TCP port; 0 picks a free one (default: 8423)")
    parser.add_argument("--workers", type=int, default=None,
                        help="fleet worker count (default: CPU count)")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread", help="fleet backend")
    parser.add_argument("--max-inflight-batches", type=int, default=None,
                        help="admission cap on batches awaiting results; "
                             "past it, submits answer 429 + Retry-After "
                             "(default: unbounded)")
    parser.add_argument("--max-requests", type=int, default=None,
                        help="admission cap on concurrent in-flight "
                             "requests (default: unbounded)")
    parser.add_argument("--quota", type=_quota, default=None,
                        metavar="RATE[:BURST]",
                        help="per-client token-bucket packet quota: refill "
                             "rate in packets/s and optional burst size "
                             "(default: burst=rate)")
    parser.add_argument("--heartbeat-s", type=float, default=10.0,
                        help="keep-alive cadence of the row stream; also "
                             "bounds disconnect detection (default: 10)")
    parser.add_argument("--lease-ttl-s", type=float, default=None,
                        metavar="SECONDS",
                        help="enable cross-replica store leases with this "
                             "TTL: replicas sharing --store never simulate "
                             "the same batch concurrently (default: off; "
                             "see repro.service.cluster)")
    parser.add_argument("--replica-id", default=None,
                        help="this replica's identity in lease files and "
                             "metrics (default: hostname-pid derived)")
    parser.add_argument("--remote-timeout-s", type=float, default=60.0,
                        help="detach a remote worker holding an item after "
                             "this long without a heartbeat (default: 60)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write request/batch trace spans as JSON lines "
                             "into this directory (read them back with "
                             "python -m repro.obs.trace; default: "
                             "$REPRO_TRACE_DIR, else tracing off)")
    parser.add_argument("--log-level", default="warning",
                        help="root logging level for the repro.* loggers "
                             "(debug/info/warning/error; default: warning, "
                             "so supervisors parsing the announce line see "
                             "it first)")
    parser.add_argument("--log-file", default=None, metavar="PATH",
                        help="append logs to PATH instead of stderr")
    args = parser.parse_args(argv)

    configure_logging(args.log_level, args.log_file)
    trace_dir = args.trace_dir or os.environ.get("REPRO_TRACE_DIR")
    if trace_dir:
        obs_trace.configure(trace_dir, proc="service")

    service = Service(args.store, workers=args.workers, backend=args.backend,
                      max_inflight_batches=args.max_inflight_batches,
                      max_requests=args.max_requests, quota=args.quota,
                      lease_ttl_s=args.lease_ttl_s,
                      replica_id=args.replica_id,
                      remote_timeout_s=args.remote_timeout_s)
    service.start()
    server = serve(service, host=args.host, port=args.port,
                   heartbeat_s=args.heartbeat_s)
    host, port = server.server_address[:2]
    print("repro characterisation service listening on http://%s:%d "
          "(store: %s, %d %s worker(s))"
          % (host, port, service.store.root, service.fleet.workers,
             service.fleet.backend), flush=True)
    if trace_dir:
        # After the announce line: supervisors parse the first line only.
        print("tracing to %s (inspect with python -m repro.obs.trace)"
              % trace_dir, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        # Attached remote workers must hear their ``bye`` before the
        # process exits, or they cannot tell a graceful stop from a
        # crash and burn their re-attach retries against a dead port.
        # Each attach handler leaves ``server.attach_streams`` only
        # after its bye is written and flushed.
        deadline = time.time() + 5.0
        while server.attach_streams and time.time() < deadline:
            time.sleep(0.05)
        server.server_close()
        print("repro characterisation service stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
