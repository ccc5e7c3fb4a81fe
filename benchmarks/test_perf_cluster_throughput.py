"""Scale-out benchmark for the cluster subsystem (ISSUE 8).

Two questions, one JSON row:

1. **Remote workers** (timed, fastest-of-N): the same cold workload runs
   through a one-worker service twice — alone, then with one
   :class:`~repro.service.worker.WorkerAgent` attached over the real
   HTTP boundary (capacity 1 vs 1+1).  Rows are asserted bit-for-bit
   against the serial ``Experiment.run`` on every trial: attaching a
   host may only move wall-clock, never bytes.  The row reports both
   elapsed times, the speedup, and how many items the remote actually
   executed.
2. **Cross-replica dedup** (deterministic, untimed): two lease-enabled
   services share one store and characterise overlapping windows
   concurrently.  The row reports total batches simulated across the
   pair against the two-independent-replicas cost — the lease saving —
   and asserts the dedup contract: the pair simulates exactly the
   one-service union, strictly fewer than two unshared runs.

Run with ``-m "not slow"`` to skip during quick test cycles.
"""

import json
import threading
import time

import pytest

from repro.analysis.adaptive import StopRule
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.service.api import Service, serve
from repro.service.requests import CharacterisationRequest
from repro.service.worker import WorkerAgent

from _bench_utils import emit_with_rows, fastest_result, host_metadata

WORKLOAD = {
    "rate_mbps": 24,
    "decoder": "bcjr",
    "packet_bits": 600,
    "batch_packets": 8,
    "seed": 23,
}

REL_HALF_WIDTH = 0.3
MIN_ERRORS = 20

#: The remote-worker phase characterises one six-point window cold.
THROUGHPUT_SNRS = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0)

#: The dedup phase overlaps two windows on one shared store.
WINDOW_A = (4.0, 5.5, 7.0, 8.5)
WINDOW_B = (5.5, 7.0, 8.5, 9.5)


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


def _run_replica(store_root, request, serial, *, attach_agent):
    """One cold run through a one-worker service; its timing facts.

    With ``attach_agent`` a WorkerAgent joins over real HTTP before the
    request is submitted, so the fleet schedules across 1+1 workers.
    """
    agent = agent_thread = None
    with Service(ResultStore(store_root), workers=1, poll_s=0.02) as service:
        server = serve(service, port=0, heartbeat_s=5.0, worker_ping_s=0.2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            if attach_agent:
                agent = WorkerAgent("http://%s:%d" % (host, port),
                                    name="bench-agent", heartbeat_s=0.5)
                agent_thread = threading.Thread(
                    target=agent.run, kwargs={"retries": 3,
                                              "backoff_s": 0.1},
                    daemon=True)
                agent_thread.start()
                deadline = time.time() + 30.0
                while service.fleet.remote_handle("bench-agent") is None:
                    assert time.time() < deadline, "agent never attached"
                    time.sleep(0.02)
            start = time.perf_counter()
            rows = service.submit(request).result(timeout=600)
            elapsed = time.perf_counter() - start
            assert rows == serial  # scheduling may never change bytes
            return {
                "elapsed": elapsed,
                "batches": service.broker.status()["simulated_batches"],
                "remote_completed": service.fleet.remote_completed,
            }
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
    # Leaving the Service context stopped the fleet: the agent saw the
    # bye and exited; joining here keeps trials from leaking threads.


def _dedup_probe(tmp_path, scale):
    """Two lease-enabled replicas, one store, overlapping windows."""
    request_a, request_b = (_request(WINDOW_A, scale),
                            _request(WINDOW_B, scale))
    serial_a = request_a.experiment().run(SweepExecutor("serial"))
    serial_b = request_b.experiment().run(SweepExecutor("serial"))

    def alone(root, request):
        with Service(str(root), workers=2) as service:
            service.submit(request).result(timeout=600)
            return service.broker.status()["simulated_batches"]

    alone_a = alone(tmp_path / "dedup-alone-a", request_a)
    alone_b = alone(tmp_path / "dedup-alone-b", request_b)
    with Service(str(tmp_path / "dedup-union"), workers=2) as reference:
        reference.submit(request_a).result(timeout=600)
        reference.submit(request_b).result(timeout=600)
        union = reference.broker.status()["simulated_batches"]

    shared = str(tmp_path / "dedup-shared")
    with Service(shared, workers=2, lease_ttl_s=10.0,
                 replica_id="bench-r1", poll_s=0.02) as r1, \
            Service(shared, workers=2, lease_ttl_s=10.0,
                    replica_id="bench-r2", poll_s=0.02) as r2:
        r1.broker.lease_poll_s = r2.broker.lease_poll_s = 0.05
        ticket_a = r1.submit(request_a)
        ticket_b = r2.submit(request_b)
        assert ticket_a.result(timeout=600) == serial_a
        assert ticket_b.result(timeout=600) == serial_b
        simulated = (r1.broker.status()["simulated_batches"]
                     + r2.broker.status()["simulated_batches"])
        waited = (r1.broker.metrics()["cluster"]["leases"]["waited"]
                  + r2.broker.metrics()["cluster"]["leases"]["waited"])
    # The dedup contract: exactly the union, strictly under 2x serial.
    assert simulated == union
    assert simulated < alone_a + alone_b
    return {
        "replicas": 2,
        "batches_two_independent": alone_a + alone_b,
        "batches_union": union,
        "batches_simulated": simulated,
        "batches_saved": alone_a + alone_b - simulated,
        "lease_waited_batches": waited,
        "saving_ratio": round(1.0 - simulated / (alone_a + alone_b), 4),
    }, serial_a + serial_b


@pytest.mark.slow
def test_perf_cluster_throughput(scale, tmp_path):
    request = _request(THROUGHPUT_SNRS, scale)
    serial = request.experiment().run(SweepExecutor("serial"))

    trial_seq = iter(range(1000))

    def local_trial():
        return _run_replica(str(tmp_path / ("local-%d" % next(trial_seq))),
                            request, serial, attach_agent=False)

    def remote_trial():
        return _run_replica(str(tmp_path / ("remote-%d" % next(trial_seq))),
                            request, serial, attach_agent=True)

    local = fastest_result(local_trial, elapsed=lambda t: t["elapsed"])
    remote = fastest_result(remote_trial, elapsed=lambda t: t["elapsed"])
    assert remote["remote_completed"] > 0, remote

    dedup, dedup_rows = _dedup_probe(tmp_path, scale)

    summary = {
        "benchmark": "cluster_throughput",
        "workload": WORKLOAD,
        "rel_half_width": REL_HALF_WIDTH,
        "min_errors": MIN_ERRORS,
        "max_packets_per_point": 32 * scale,
        "points": len(THROUGHPUT_SNRS),
        "local_fleet": {
            "workers": 1,
            "elapsed_sec": round(local["elapsed"], 4),
            "batches_simulated": local["batches"],
            "batches_per_sec": round(local["batches"] / local["elapsed"], 3),
        },
        "remote_attached": {
            "workers": "1+1",
            "elapsed_sec": round(remote["elapsed"], 4),
            "batches_simulated": remote["batches"],
            "batches_per_sec": round(remote["batches"] / remote["elapsed"],
                                     3),
            "remote_completed": remote["remote_completed"],
        },
        "speedup": round(local["elapsed"] / remote["elapsed"], 3),
        "dedup": dedup,
        "host": host_metadata(),
    }
    emit_with_rows(
        "perf_cluster_throughput",
        "Cluster scale-out: remote workers and cross-replica dedup",
        json.dumps(summary),
        serial + dedup_rows,
    )

    # The committed artifact's invariants, independent of host speed.
    assert local["batches"] == remote["batches"] == \
        summary["remote_attached"]["batches_simulated"]
    assert dedup["batches_saved"] > 0, summary
    assert dedup["saving_ratio"] > 0.0, summary
