"""Load-generator benchmark for the hardened service front door.

The service-side analogue of ``perf_service_throughput`` (ISSUE 7):
instead of two cooperating clients, this drives the HTTP front door the
way production traffic would — dozens of concurrent streaming clients
over overlapping SNR windows, a mix of warm (store-answered) and cold
(fleet-simulated) asks — and records the latency distribution clients
actually see: p50/p99 time-to-first-row, measured client-side from POST
to the first ``row`` event.

Two phases:

1. **Load phase** (timed, best-of-N): three windows are pre-warmed
   through the service, then ``CLIENTS_PER_WINDOW`` streaming clients
   per window fire concurrently over all six windows.  Every client's
   rows are asserted bit-for-bit against its serial ``Experiment.run``
   on every trial — concurrency may only move latency, never bytes.
   The fastest whole trial is kept (``fastest_result``), so elapsed,
   the percentiles and the batch ledger describe one coherent run.
2. **Saturation probe** (deterministic, untimed): a fleet pinned to one
   worker and a one-batch admission budget is held by a gated request;
   six concurrent clients must all receive HTTP 429 with an honest
   ``Retry-After`` of at least a second, and a retry after the held
   work drains must succeed with rows bit-for-bit equal to an unloaded
   run.  This is counted, not timed — saturation behaviour is part of
   the committed artifact.

Run with ``-m "not slow"`` to skip during quick test cycles.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.analysis.adaptive import StopRule, run_link_ber_batch
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.service.api import Service, ServiceHTTPError, serve, stream_request
from repro.service.requests import CharacterisationRequest

from _bench_utils import emit_with_rows, fastest_result, host_metadata

#: Figure-6 decoder on short packets: the per-batch cost is small enough
#: that scheduling and admission — the things under test — dominate.
WORKLOAD = {
    "rate_mbps": 24,
    "decoder": "bcjr",
    "packet_bits": 600,
    "batch_packets": 8,
    "seed": 23,
}

REL_HALF_WIDTH = 0.3
MIN_ERRORS = 20

#: Six overlapping windows; the first three are pre-warmed each trial.
WINDOWS = [
    (4.0, 5.0, 6.0),
    (5.0, 6.0, 7.0),
    (6.0, 7.0, 8.0),
    (4.0, 6.0, 8.0),
    (5.0, 7.0, 9.0),
    (7.0, 8.0, 9.0),
]
WARM_WINDOWS = WINDOWS[:3]
CLIENTS_PER_WINDOW = 3
SATURATION_CLIENTS = 6


def _request(snrs, scale):
    return CharacterisationRequest(
        scenario=Scenario(decoder=WORKLOAD["decoder"],
                          packet_bits=WORKLOAD["packet_bits"]),
        axes={"rate_mbps": [WORKLOAD["rate_mbps"]], "snr_db": list(snrs)},
        stop=StopRule(rel_half_width=REL_HALF_WIDTH, min_errors=MIN_ERRORS,
                      max_packets=32 * scale),
        constants={"batch_size": WORKLOAD["batch_packets"]},
        seed=WORKLOAD["seed"],
        batch_packets=WORKLOAD["batch_packets"],
    )


@pytest.mark.slow
def test_perf_service_load(scale, tmp_path):
    serial = {snrs: _request(snrs, scale).experiment().run(
        SweepExecutor("serial")) for snrs in WINDOWS}

    # ------------------------------------------------------------------ #
    # Load phase: mixed warm/cold concurrent streaming clients.
    # ------------------------------------------------------------------ #
    trial_seq = iter(range(1000))

    def _load_trial():
        store = ResultStore(str(tmp_path / ("store-%d" % next(trial_seq))))
        with Service(store, workers=4) as service:
            server = serve(service, port=0, heartbeat_s=5.0)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            base_url = "http://%s:%d" % (host, port)
            try:
                for snrs in WARM_WINDOWS:  # untimed pre-warm
                    list(stream_request(base_url, _request(snrs, scale)))

                outcomes, failures = [], []
                go = threading.Event()

                def client(snrs):
                    go.wait(30.0)
                    start = time.perf_counter()
                    first, rows = None, []
                    try:
                        for event in stream_request(base_url,
                                                    _request(snrs, scale)):
                            if event["event"] == "row":
                                if first is None:
                                    first = time.perf_counter() - start
                                rows.append(event["row"])
                    except Exception as exc:
                        failures.append((snrs, exc))
                        return
                    outcomes.append(
                        {"snrs": snrs, "warm": snrs in WARM_WINDOWS,
                         "time_to_first_row_s": first, "rows": rows})

                clients = [threading.Thread(target=client, args=(snrs,))
                           for snrs in WINDOWS
                           for _ in range(CLIENTS_PER_WINDOW)]
                for worker in clients:
                    worker.start()
                start = time.perf_counter()
                go.set()
                for worker in clients:
                    worker.join(timeout=600)
                    assert not worker.is_alive(), "a load client hung"
                elapsed = time.perf_counter() - start
                assert not failures, failures

                # Bit-for-bit on every trial, every client: load may only
                # move latency, never bytes.
                for outcome in outcomes:
                    assert sorted(outcome["rows"],
                                  key=lambda r: r["snr_db"]) \
                        == serial[outcome["snrs"]]
                return {
                    "elapsed": elapsed,
                    "ttfr": sorted(o["time_to_first_row_s"]
                                   for o in outcomes),
                    "warm_ttfr": [o["time_to_first_row_s"]
                                  for o in outcomes if o["warm"]],
                    "batches_simulated":
                        service.broker.status()["simulated_batches"],
                }
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    trial = fastest_result(_load_trial, elapsed=lambda t: t["elapsed"])
    ttfr = np.asarray(trial["ttfr"], dtype=float)

    # ------------------------------------------------------------------ #
    # Saturation probe: pinned capacity, deterministic 429s, clean retry.
    # ------------------------------------------------------------------ #
    gate = threading.Event()

    def gated_runner(batch):
        gate.wait(60.0)
        return dict(run_link_ber_batch(batch))

    probe_request = _request(WINDOWS[0], scale)
    rejections, probe_failures = [], []
    with Service(ResultStore(str(tmp_path / "store-sat")), workers=1,
                 runner=gated_runner, max_inflight_batches=1) as service:
        server = serve(service, port=0, heartbeat_s=5.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base_url = "http://%s:%d" % (host, port)
        try:
            held = service.submit(_request((3.0,), scale))

            def saturated_client():
                try:
                    list(stream_request(base_url, probe_request))
                    probe_failures.append("a client was admitted while "
                                          "the budget was held")
                except ServiceHTTPError as exc:
                    rejections.append(exc)
                except Exception as exc:
                    probe_failures.append(exc)

            probes = [threading.Thread(target=saturated_client)
                      for _ in range(SATURATION_CLIENTS)]
            for worker in probes:
                worker.start()
            for worker in probes:
                worker.join(timeout=60)
                assert not worker.is_alive(), "a saturation probe hung"
            assert not probe_failures, probe_failures
            assert len(rejections) == SATURATION_CLIENTS
            assert all(r.status == 429 and r.retry_after_s >= 1.0
                       for r in rejections)

            # Drain the held work, then the retry must be admitted and
            # bit-for-bit identical to an unloaded run.
            gate.set()
            held.result(timeout=600)
            retry_rows = [event["row"]
                          for event in stream_request(base_url,
                                                      probe_request)
                          if event["event"] == "row"]
            unloaded = probe_request.experiment(
                runner=gated_runner).run(SweepExecutor("serial"))
            assert sorted(retry_rows, key=lambda r: r["snr_db"]) == unloaded
            rejected_total = service.broker.status()["rejected_saturated"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    summary = {
        "benchmark": "service_load",
        "workload": WORKLOAD,
        "rel_half_width": REL_HALF_WIDTH,
        "min_errors": MIN_ERRORS,
        "max_packets_per_point": 32 * scale,
        "windows": len(WINDOWS),
        "warm_windows": len(WARM_WINDOWS),
        "clients": len(WINDOWS) * CLIENTS_PER_WINDOW,
        "elapsed_sec": round(trial["elapsed"], 4),
        "batches_simulated": trial["batches_simulated"],
        "time_to_first_row_sec": {
            "p50": round(float(np.percentile(ttfr, 50)), 4),
            "p99": round(float(np.percentile(ttfr, 99)), 4),
            "max": round(float(ttfr.max()), 4),
            "warm_p50": round(float(np.percentile(
                np.asarray(trial["warm_ttfr"], dtype=float), 50)), 4),
        },
        "saturation": {
            "capacity_batches": 1,
            "workers": 1,
            "concurrent_clients": SATURATION_CLIENTS,
            "accepted": 1,
            "rejected_429": rejected_total,
            "retry_after_s_min": round(min(r.retry_after_s
                                           for r in rejections), 3),
            "retry_succeeded_bitforbit": True,
        },
        "host": host_metadata(),
    }
    emit_with_rows(
        "perf_service_load",
        "Characterisation service under concurrent streaming load",
        json.dumps(summary),
        [row for snrs in WINDOWS for row in serial[snrs]],
    )

    # Every client streamed (a first row before its stream ended), and
    # the saturation counts are exactly the deterministic design.
    assert ttfr.size == len(WINDOWS) * CLIENTS_PER_WINDOW
    assert np.isfinite(ttfr).all(), summary
    assert rejected_total == SATURATION_CLIENTS, summary
