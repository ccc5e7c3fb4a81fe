"""Scale out across hosts: two replicas, one store, one remote worker.

The distributed smoke test (and CI ``cluster-smoke`` job).  It spawns
the full cluster topology as real processes and asserts the contract
end to end:

1. Two ``python -m repro.service`` daemons share one result store,
   each with a lease manager (``--lease-ttl-s``) and a distinct
   ``--replica-id``.
2. One ``python -m repro.service.worker`` agent attaches to replica 1
   over HTTP and pulls work from its fleet alongside the local threads.
3. Two *overlapping* characterisation requests stream concurrently,
   one against each replica.

Asserted invariants — the script exits non-zero if any fails:

* **Bytes**: each stream's rows are bit-for-bit the rows of a serial
  ``Experiment.run`` for the same request.  Leases, remote workers and
  scheduling may move where a batch runs, never what it computes.
* **Dedup**: total batches simulated across the pair equals the
  one-service *union* count — every unique ``(namespace, point,
  batch)`` simulated exactly once cluster-wide — which is strictly
  fewer than two independent runs.
* **Participation**: the remote agent completed at least one item, and
  every process (two daemons, one agent) shuts down cleanly with
  exit code 0.

Run with::

    python examples/cluster_smoke.py [row.json]

With a path argument the summary is also written there as a single
JSON row (the CI job uploads it as an artifact).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time

from repro.analysis.adaptive import StopRule
from repro.analysis.scenario import Scenario
from repro.analysis.sweep import SweepExecutor
from repro.service import CharacterisationRequest, Service, fetch_json, \
    stream_request

# The windows overlap at 5.5, 7 and 8.5 dB (the dedup demand).  A's
# unshared high-SNR tail (10 and 10.5 dB run to the packet budget)
# guarantees replica 1 a pile of uncontended local batches, so the
# remote agent attached to it provably pulls work whichever replica
# wins the shared-point lease races.
SNRS_A = [5.5, 7.0, 8.5, 10.0, 10.5]
SNRS_B = [5.5, 7.0, 8.5, 9.5]


def build_request(snrs):
    return CharacterisationRequest(
        scenario=Scenario(decoder="bcjr", packet_bits=600),
        axes={"rate_mbps": [24], "snr_db": list(snrs)},
        stop=StopRule(rel_half_width=0.3, min_errors=20, max_packets=32),
        constants={"batch_size": 4},
        seed=23,
        batch_packets=4,
    )


def subprocess_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_replica(store_dir, replica_id):
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--store", store_dir, "--port", "0", "--workers", "2",
         "--lease-ttl-s", "10", "--replica-id", replica_id,
         "--heartbeat-s", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=subprocess_env())
    announce = daemon.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", announce)
    assert match, "no announce line from %s: %r" % (replica_id, announce)
    url = "http://%s:%s" % match.groups()
    print("  %s listening on %s" % (replica_id, url))
    return daemon, url


def reference_counts(scratch_dir):
    """Serial reference rows plus the independent and union batch counts.

    Both counts come from one-replica :class:`Service` runs — the same
    scheduler the cluster uses — so they are comparable batch for
    batch: ``independent`` is the cost of two services that share
    nothing, ``union`` the cost when one service answers both requests
    from one store — the floor any dedup scheme can reach.
    """
    serial_a = build_request(SNRS_A).experiment().run(SweepExecutor("serial"))
    serial_b = build_request(SNRS_B).experiment().run(SweepExecutor("serial"))
    independent = 0
    for index, snrs in enumerate((SNRS_A, SNRS_B)):
        with Service(os.path.join(scratch_dir, "alone-%d" % index),
                     workers=2) as service:
            service.submit(build_request(snrs)).result(timeout=300)
            independent += service.broker.status()["simulated_batches"]
    with Service(os.path.join(scratch_dir, "union"), workers=2) as service:
        service.submit(build_request(SNRS_A)).result(timeout=300)
        service.submit(build_request(SNRS_B)).result(timeout=300)
        union = service.broker.status()["simulated_batches"]
    return serial_a, serial_b, independent, union


def main(row_path=None):
    print("== cluster smoke: 2 replicas + 1 remote worker, shared store ==")
    with tempfile.TemporaryDirectory() as tmp:
        serial_a, serial_b, independent, union = reference_counts(tmp)

        shared = os.path.join(tmp, "shared")
        replica_1, url_1 = spawn_replica(shared, "smoke-r1")
        replica_2, url_2 = spawn_replica(shared, "smoke-r2")
        agent = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--connect", url_1, "--name", "smoke-agent",
             "--heartbeat-s", "0.5"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=subprocess_env())
        try:
            deadline = time.time() + 60.0
            while "smoke-agent" not in fetch_json(
                    url_1 + "/v1/metrics")["cluster"]["remote_workers"][
                        "attached"]:
                assert time.time() < deadline, "agent never attached"
                time.sleep(0.1)
            print("  smoke-agent attached to smoke-r1")

            rows, failures = {}, []

            def client(url, snrs):
                try:
                    rows[tuple(snrs)] = [
                        event["row"]
                        for event in stream_request(url, build_request(snrs))
                        if event["event"] == "row"]
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append((snrs, exc))

            clients = [threading.Thread(target=client, args=(url_1, SNRS_A)),
                       threading.Thread(target=client, args=(url_2, SNRS_B))]
            for worker in clients:
                worker.start()
            for worker in clients:
                worker.join(timeout=300)
                assert not worker.is_alive(), "a smoke client hung"
            assert not failures, failures

            # Bytes: both streams match their serial Experiment rows.
            key = lambda row: row["snr_db"]  # noqa: E731
            assert sorted(rows[tuple(SNRS_A)], key=key) == serial_a
            assert sorted(rows[tuple(SNRS_B)], key=key) == serial_b

            metrics_1 = fetch_json(url_1 + "/v1/metrics")
            metrics_2 = fetch_json(url_2 + "/v1/metrics")
            simulated = (metrics_1["batches"]["simulated"]
                         + metrics_2["batches"]["simulated"])
            remote_completed = metrics_1["cluster"]["remote_workers"][
                "completed"]

            # Dedup: exactly the union, strictly under two loner runs.
            if simulated != union:
                for name, m in (("r1", metrics_1), ("r2", metrics_2)):
                    print("  DEBUG %s cluster=%s batches=%s"
                          % (name, m["cluster"], m["batches"]))
            assert simulated == union, (simulated, union)
            assert simulated < independent, (simulated, independent)
            # Participation: the remote agent actually pulled work.
            assert remote_completed > 0, metrics_1["cluster"]

            for url in (url_1, url_2):
                assert fetch_json(url + "/v1/shutdown", data={}) \
                    == {"status": "stopping"}
            assert replica_1.wait(timeout=30) == 0
            assert replica_2.wait(timeout=30) == 0
            # Replica 1 stopping sends the agent a ``bye`` with reason
            # "stopped"; the stock agent exits 0 on it.
            assert agent.wait(timeout=30) == 0
            print("  all three processes shut down cleanly")
        finally:
            for proc in (agent, replica_1, replica_2):
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10)

    row = {
        "benchmark": "cluster_smoke",
        "replicas": 2,
        "remote_workers": 1,
        "remote_completed": remote_completed,
        "batches_two_independent": independent,
        "batches_union": union,
        "batches_simulated": simulated,
        "batches_saved": independent - simulated,
        "saving_ratio": round(1.0 - simulated / independent, 4),
        "per_replica_simulated": {
            "smoke-r1": metrics_1["batches"]["simulated"],
            "smoke-r2": metrics_2["batches"]["simulated"],
        },
    }
    print("  dedup: %d batches simulated for %d of demand "
          "(union %d, saved %d, remote completed %d)"
          % (simulated, independent, union, row["batches_saved"],
             remote_completed))
    print(json.dumps(row))
    if row_path:
        with open(row_path, "w", encoding="utf-8") as handle:
            json.dump(row, handle)
            handle.write("\n")
        print("  row written to %s" % row_path)
    print("\nAll cluster smoke assertions held.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
