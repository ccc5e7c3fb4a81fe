"""Run the link characteriser as a long-lived service.

Two demonstrations, both asserted (so this script doubles as the CI
service smoke test):

1. **In process** — start a :class:`Service`, submit two *overlapping*
   requests concurrently, stream rows as points finish, and check the
   dedup ledger: every shared batch was simulated exactly once, and both
   clients still received bit-for-bit the rows of their own serial
   ``Experiment.run``.
2. **As a daemon** — spawn ``python -m repro.service`` on a free port,
   submit the same two overlapping requests over HTTP (JSON in, JSON
   lines out), assert the second is served partly from cache — zero
   simulated batches for the shared operating points — then exercise
   the hardened front door: read the ``GET /v1/metrics`` ledgers,
   cancel a deep request mid-flight over HTTP and watch its stream end
   with a ``cancelled`` event, and finally shut the daemon down cleanly
   via ``POST /v1/shutdown``.

Run with::

    python examples/characterisation_service.py [store_dir]

The store directory defaults to a temporary one; pass a path to keep the
curves and re-run for a fully warm start.  Maintain the store afterwards
with ``python -m repro.analysis.store ls|stats|gc <store_dir>``.

Observability hooks (used by the CI obs-smoke job):

* ``REPRO_TRACE_DIR=DIR`` traces both demos into ``DIR`` — the
  in-process service directly, the daemon through the inherited
  environment — ready for ``python -m repro.obs.trace summarize DIR``.
* ``REPRO_PROM_SCRAPE=PATH`` fetches the daemon's
  ``GET /v1/metrics?format=prometheus`` exposition once the daemon is
  idle, validates it with the strict text-format parser, checks it
  carries the fleet families and that its completed-items count equals
  ``/v1/metrics`` ``fleet.completed``, and writes it to ``PATH``.
"""

import os
import re
import subprocess
import sys
import tempfile
import time

from repro.analysis.adaptive import StopRule
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.service import CharacterisationRequest, Service, cancel_request, \
    fetch_json, stream_request

SNRS_A = [4.0, 5.0, 6.0, 7.0]
SNRS_B = [6.0, 7.0, 8.0, 9.0]       # overlaps A at 6 and 7 dB
SHARED = sorted(set(SNRS_A) & set(SNRS_B))


def build_request(snrs, priority=0):
    return CharacterisationRequest(
        scenario=Scenario(decoder="bcjr", packet_bits=600),
        axes={"rate_mbps": [24], "snr_db": list(snrs)},
        stop=StopRule(rel_half_width=0.3, min_errors=20, ber_floor=1e-3,
                      max_packets=32),
        constants={"batch_size": 4},
        seed=23,
        batch_packets=4,
        priority=priority,
    )


def in_process_demo(store_dir):
    print("== in process: two overlapping requests, one worker fleet ==")
    with Service(ResultStore(store_dir), workers=2) as service:
        started = time.perf_counter()
        ticket_a = service.submit(build_request(SNRS_A))
        ticket_b = service.submit(build_request(SNRS_B, priority=1))
        for row in ticket_a.rows():    # streams as points finish
            print("  [stream A +%5.2fs] snr=%4.1f dB  ber=%9.3g  %s"
                  % (time.perf_counter() - started, row["snr_db"],
                     row["ber"], row["stop_reason"]))
        rows_a = ticket_a.result(timeout=300)
        rows_b = ticket_b.result(timeout=300)
        simulated = service.broker.status()["simulated_batches"]
        progress_b = ticket_b.progress()

    # Both clients got bit-for-bit their serial Experiment rows...
    assert rows_a == build_request(SNRS_A).experiment().run(
        SweepExecutor("serial"))
    assert rows_b == build_request(SNRS_B).experiment().run(
        SweepExecutor("serial"))
    # ...for strictly less simulation than two serial runs: the shared
    # 6 and 7 dB batches ran once, not twice.
    serial_batches = sum(r["batches"] for r in rows_a + rows_b)
    assert simulated < serial_batches, (simulated, serial_batches)
    print("  dedup: %d batches simulated for %d batches of demand "
          "(B reused %d via store/in-flight merge)\n"
          % (simulated, serial_batches,
             progress_b["batches_cached"] + progress_b["batches_shared"]))


def daemon_demo(store_dir):
    print("== as a daemon: HTTP JSON-lines front door ==")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--store", store_dir, "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        announce = daemon.stdout.readline()
        print("  " + announce.strip())
        base_url = "http://%s:%s" % re.search(
            r"http://([\d.]+):(\d+)", announce).groups()

        # First ask: cold (this daemon store is fresh on a default run).
        first_events = list(stream_request(base_url, build_request(SNRS_A)))
        assert first_events[-1]["event"] == "done"

        # Second, overlapping ask: the shared points must be answered
        # entirely from the store — zero simulated batches for them.
        events = list(stream_request(base_url, build_request(SNRS_B)))
        done = events[-1]
        assert done["event"] == "done"
        for point in done["progress"]["points"]:
            tag = ("shared, %d cached" % point["cached"]
                   if point["snr_db"] in SHARED
                   else "%d simulated" % point["simulated"])
            print("  snr=%4.1f dB  %-22s %s"
                  % (point["snr_db"], point["stop_reason"], tag))
            if point["snr_db"] in SHARED:
                assert point["simulated"] == 0, point
                assert point["cached"] == point["batches"], point

        # The metrics ledger is the operator's view of the same story:
        # admission open, and the overlap answered without simulation.
        metrics = fetch_json(base_url + "/v1/metrics")
        assert metrics["admission"]["open"] is True
        assert metrics["batches"]["simulated"] > 0
        assert metrics["batches"]["cached"] > 0
        print("  metrics: %d completed, %d batches simulated, %d cached"
              % (metrics["requests"]["completed"],
                 metrics["batches"]["simulated"],
                 metrics["batches"]["cached"]))

        # Cancel round trip: a deep request (8 cold points, 64-packet
        # budget) cancelled right after admission — its stream must end
        # with a ``cancelled`` event and the ledger must record it.
        deep = CharacterisationRequest(
            scenario=Scenario(decoder="bcjr", packet_bits=600),
            axes={"rate_mbps": [24],
                  "snr_db": [10.0 + 0.5 * i for i in range(8)]},
            stop=StopRule(rel_half_width=0.2, min_errors=50,
                          max_packets=64),
            constants={"batch_size": 4},
            seed=23,
            batch_packets=4,
        )
        events = stream_request(base_url, deep)
        accepted = next(events)
        assert accepted["event"] == "accepted"
        time.sleep(0.3)  # let the fleet queue fill so the cancel has
        reply = cancel_request(base_url, accepted["request"])  # work to free
        assert reply == {"request": accepted["request"], "cancelled": True}
        terminal = list(events)[-1]
        assert terminal["event"] == "cancelled", terminal
        metrics = fetch_json(base_url + "/v1/metrics")
        assert metrics["requests"]["cancelled"] == 1
        # Batches already executing when the cancel landed finish and
        # land in the store (work paid for is never wasted); only queued
        # ones are handed back, so "released" may legitimately be zero.
        print("  cancel: request %s… withdrawn mid-flight "
              "(ledger: %d cancelled request, %d queued batches released)"
              % (accepted["request"][:12],
                 metrics["requests"]["cancelled"],
                 metrics["batches"]["released"]))

        scrape_path = os.environ.get("REPRO_PROM_SCRAPE")
        if scrape_path:
            from urllib.request import urlopen

            from repro.obs import parse_exposition
            # Let the cancelled request's executing batches land first:
            # on an idle daemon the scrape and the JSON ledger read the
            # same counters, so they must agree.
            deadline = time.time() + 60.0
            while True:
                metrics = fetch_json(base_url + "/v1/metrics")
                if not (metrics["fleet"]["pending"]
                        or metrics["batches"]["inflight"]):
                    break
                assert time.time() < deadline, "the daemon never went idle"
                time.sleep(0.1)
            with urlopen(base_url + "/v1/metrics?format=prometheus",
                         timeout=30) as response:
                exposition = response.read().decode("utf-8")
            parsed = parse_exposition(exposition)  # strict-grammar check
            for family in ("repro_requests_total", "repro_fleet_items_total",
                           "repro_fleet_workers_restarted_total",
                           "repro_fleet_remote_events_total",
                           "repro_fleet_worker_items_total"):
                assert family in parsed, "scrape lacks %s" % family
            completed = [value for _, labels, value
                         in parsed["repro_fleet_items_total"]["samples"]
                         if labels["event"] == "completed"]
            assert completed == [metrics["fleet"]["completed"]], \
                (completed, metrics["fleet"])
            with open(scrape_path, "w", encoding="utf-8") as handle:
                handle.write(exposition)
            print("  prometheus: %d families scraped to %s"
                  % (len(parsed), scrape_path))

        status = fetch_json(base_url + "/v1/status")
        print("  daemon served %d request(s); fleet %r"
              % (status["completed_requests"],
                 status["fleet"]["workers"]))
        assert fetch_json(base_url + "/v1/shutdown", data={}) \
            == {"status": "stopping"}
        assert daemon.wait(timeout=30) == 0
        print("  daemon shut down cleanly")
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            daemon.wait(timeout=10)


def main(store_dir):
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if trace_dir:
        from repro.obs import trace as obs_trace
        obs_trace.configure(trace_dir, proc="example")
        print("tracing to %s (inspect with python -m repro.obs.trace)\n"
              % trace_dir)
    in_process_demo(os.path.join(store_dir, "inprocess"))
    daemon_demo(os.path.join(store_dir, "daemon"))
    print("\nAll service assertions held.")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(tmp)
