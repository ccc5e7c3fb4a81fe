"""Tests for the cluster subsystem: store leases, remote workers, and
the multi-replica acceptance harness.

Everything here leans on one fact: batch ``k`` of a point is a pure
function of ``(spec, point, k)``, so leases and remote scheduling can
only change *where* a batch's bytes come from — every test closes with
a bit-for-bit comparison against the serial ``Experiment.run``.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.analysis.adaptive import (StopRule, batch_store_key,
                                     run_link_ber_batch)
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.service.api import Service, fetch_json, serve, stream_request
from repro.service.cluster import LEASE_DIRNAME, LeaseManager
from repro.service.fleet import FleetError, WorkerFleet
from repro.service.requests import CharacterisationRequest
from repro.service.worker import WorkerAgent

SCENARIO = Scenario(decoder="bcjr", packet_bits=600)
STOP = StopRule(rel_half_width=0.35, min_errors=15, max_packets=16)

#: Overlapping windows for the two-replica tests: 5.5 and 8.0 are shared.
SNRS_A = (4.0, 5.5, 8.0)
SNRS_B = (5.5, 8.0, 9.5)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def request(snrs=(4.0, 6.0), **overrides):
    kwargs = dict(
        scenario=SCENARIO,
        axes={"rate_mbps": [24], "snr_db": list(snrs)},
        stop=STOP,
        constants={"batch_size": 4},
        seed=23,
        batch_packets=4,
    )
    kwargs.update(overrides)
    return CharacterisationRequest(**kwargs)


def first_round_keys(req):
    """``(digest, point_key, batch_index)`` for each first-round batch."""
    experiment = req.experiment()
    digest = experiment.store_digest()
    return [(digest, batch_store_key(batch), batch.index)
            for batch in experiment.trajectory().start_round()]


def scratch_batch():
    """A real MeasurementBatch outside every test window (for hold items)."""
    return request([2.5]).experiment().trajectory().start_round()[0]


def _gated_stub(gate):
    """A runner parked at ``gate``; its result subscribes to nothing."""
    def runner(batch):
        gate.wait(60.0)
        return {"errors": 0, "trials": 1}
    return runner


def _stub_runner(batch):
    """A trivial runner for items a test resolves by hand."""
    return {"errors": 0, "trials": 1}


def _serve_in_thread(service, worker_ping_s=0.2):
    server = serve(service, port=0, heartbeat_s=5.0,
                   worker_ping_s=worker_ping_s)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, "http://%s:%d" % (host, port)


def _wait_until(predicate, timeout=30.0, message="condition not reached"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        time.sleep(0.05)


def _lease_ledger(broker):
    """The broker's ``cluster.leases`` metrics section."""
    return broker.metrics()["cluster"]["leases"]


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------- #
# LeaseManager unit tests (no clock: `now` is always explicit)
# ---------------------------------------------------------------------- #
class TestLeaseManager:
    KEY = ("cafe" * 16, (24, 0, 4, 0), 3)

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="ttl_s"):
            LeaseManager(tmp_path, ttl_s=0.0)

    def test_for_store_nests_under_the_store_root(self, tmp_path):
        manager = LeaseManager.for_store(tmp_path, owner="a")
        assert manager.root == os.path.join(str(tmp_path), LEASE_DIRNAME)

    def test_acquire_free_then_contended(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        b = LeaseManager(tmp_path, owner="b", ttl_s=30.0)
        assert a.acquire(*self.KEY, now=100.0) is True
        assert b.acquire(*self.KEY, now=101.0) is False
        assert a.held == 1 and b.held == 0
        assert a.stats()["acquired"] == 1 and b.stats()["contended"] == 1
        holder = b.holder(*self.KEY, now=101.0)
        assert holder["owner"] == "a"
        assert holder["expires_in_s"] == pytest.approx(29.0)

    def test_reacquire_is_idempotent_and_restamps(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        assert a.acquire(*self.KEY, now=100.0)
        assert a.acquire(*self.KEY, now=120.0)  # same owner: re-stamped
        assert a.held == 1
        record = a.holder(*self.KEY, now=120.0)
        assert record["acquired_at"] == 120.0

    def test_stale_lease_is_reclaimed(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=10.0)
        b = LeaseManager(tmp_path, owner="b", ttl_s=10.0)
        assert a.acquire(*self.KEY, now=100.0)
        assert b.acquire(*self.KEY, now=105.0) is False
        assert b.acquire(*self.KEY, now=111.0) is True  # past a's TTL
        assert b.stats()["reclaimed_stale"] == 1 and b.held == 1
        # The original owner discovers the loss at refresh time.
        assert a.refresh(now=200.0, min_interval_s=0.0) == 0
        assert a.stats()["lost"] == 1 and a.held == 0
        # ... and must not unlink the new owner's lease.
        assert a.release(*self.KEY) is False
        assert b.holder(*self.KEY, now=111.0)["owner"] == "b"

    def test_unparseable_lease_file_is_reclaimed_once_old(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        path = a._path(*self.KEY)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json {")  # a crash mid-write
        os.utime(path, (0.0, 0.0))  # aged past any TTL
        assert a.acquire(*self.KEY, now=100.0) is True
        assert a.stats()["reclaimed_stale"] == 1

    def test_young_unreadable_lease_file_is_contended_not_reclaimed(
            self, tmp_path):
        # O_CREAT|O_EXCL makes a lease file visible before its creator
        # stamps it under the flock: an examiner reading empty bytes
        # from a *young* file must contend (the stamp is coming), not
        # reclaim — reclaiming would hand the lease to both replicas.
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        path = a._path(*self.KEY)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8"):
            pass  # empty: exactly what a mid-creation examiner sees
        now = time.time()
        assert a.acquire(*self.KEY, now=now) is False
        assert a.stats()["contended"] == 1
        assert a.stats()["reclaimed_stale"] == 0
        # The same file aged past the TTL is a crashed creator: reclaim.
        os.utime(path, (now - 31.0, now - 31.0))
        assert a.acquire(*self.KEY, now=now) is True
        assert a.stats()["reclaimed_stale"] == 1

    def test_release_unlinks_only_our_lease(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        assert a.release(*self.KEY) is False  # never held: a quiet no-op
        assert a.acquire(*self.KEY, now=100.0)
        assert a.release(*self.KEY) is True
        assert a.stats()["released"] == 1 and a.held == 0
        assert a.holder(*self.KEY, now=100.0) is None
        assert not os.path.exists(a._path(*self.KEY))

    def test_refresh_restamps_held_leases_and_throttles(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        other = ("beef" * 16, (24, 0, 4, 0), 0)
        assert a.acquire(*self.KEY, now=100.0)
        assert a.acquire(*other, now=100.0)
        assert a.refresh(now=120.0, min_interval_s=0.0) == 2
        assert a.holder(*self.KEY, now=120.0)["acquired_at"] == 120.0
        # Within the throttle window the refresh is a no-op.
        assert a.refresh(now=121.0, min_interval_s=10.0) == 0

    def test_release_all_clears_the_held_set(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        other = ("beef" * 16, (24, 0, 4, 0), 0)
        assert a.acquire(*self.KEY, now=100.0)
        assert a.acquire(*other, now=100.0)
        assert a.release_all() == 2
        assert a.held == 0
        b = LeaseManager(tmp_path, owner="b", ttl_s=30.0)
        assert b.acquire(*self.KEY, now=100.0)  # truly free again

    def test_stats_shape(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=5.0)
        assert a.stats() == {
            "owner": "a", "ttl_s": 5.0, "held": 0, "acquired": 0,
            "contended": 0, "reclaimed_stale": 0, "released": 0, "lost": 0,
        }


# ---------------------------------------------------------------------- #
# Broker lease integration: park, answer, reclaim, cancel
# ---------------------------------------------------------------------- #
class TestBrokerLeases:
    def _service(self, root, replica_id, **overrides):
        kwargs = dict(workers=2, lease_ttl_s=10.0, replica_id=replica_id,
                      poll_s=0.02)
        kwargs.update(overrides)
        service = Service(str(root), **kwargs)
        service.broker.lease_poll_s = 0.05
        return service

    def test_parked_batch_is_answered_from_the_store(self, tmp_path):
        # A fake peer holds every lease for the point, so this replica
        # can never simulate; the peer's "result" arrives by writing the
        # store out-of-band, exactly like a winning replica would.
        req = request([4.0])
        shared = tmp_path / "store"
        peer = LeaseManager.for_store(shared, owner="peer", ttl_s=60.0)
        with self._service(shared, "waiter") as service:
            for digest, point_key, _ in first_round_keys(req):
                for index in range(8):
                    assert peer.acquire(digest, point_key, index)
            ticket = service.submit(req)
            _wait_until(lambda: _lease_ledger(service.broker)["waited"] >= 1,
                        message="the held batch never parked")
            serial = req.experiment(store=ResultStore(str(shared))).run(
                SweepExecutor("serial"))
            rows = ticket.result(timeout=60)
            assert rows == serial
            assert service.broker.status()["simulated_batches"] == 0
            assert _lease_ledger(service.broker)["answered"] >= 1
            assert _lease_ledger(service.broker)["reclaimed"] == 0

    def test_stale_lease_is_reclaimed_and_simulated_locally(self, tmp_path):
        req = request([4.0])
        shared = tmp_path / "store"
        peer = LeaseManager.for_store(shared, owner="crashed", ttl_s=1.0)
        with self._service(shared, "survivor") as service:
            (digest, point_key, batch_index) = first_round_keys(req)[0]
            assert peer.acquire(digest, point_key, batch_index)
            ticket = service.submit(req)
            _wait_until(lambda: _lease_ledger(service.broker)["waited"] >= 1,
                        message="the held batch never parked")
            # The peer never refreshes: past its TTL the survivor
            # reclaims the lease and simulates the batch itself.
            rows = ticket.result(timeout=60)
            assert rows == req.experiment().run(SweepExecutor("serial"))
            assert _lease_ledger(service.broker)["reclaimed"] >= 1
            assert service.leases.stats()["reclaimed_stale"] >= 1

    def test_killed_replica_lease_is_recovered(self, tmp_path):
        # The crash path for real: a subprocess replica takes the lease,
        # is SIGKILLed mid-batch (no cleanup runs), and the survivor
        # must recover via TTL expiry — rows bit-for-bit regardless.
        req = request([4.0])
        shared = tmp_path / "store"
        digest, point_key, batch_index = first_round_keys(req)[0]
        script = (
            "import sys, time\n"
            "from repro.service.cluster import LeaseManager\n"
            "manager = LeaseManager.for_store(sys.argv[1], owner='doomed',\n"
            "                                 ttl_s=1.0)\n"
            "point = tuple(int(w) for w in sys.argv[3].split(','))\n"
            "assert manager.acquire(sys.argv[2], point, int(sys.argv[4]))\n"
            "print('held', flush=True)\n"
            "time.sleep(120)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(shared), digest,
             ",".join(str(int(w)) for w in point_key), str(batch_index)],
            stdout=subprocess.PIPE, text=True, env=_subprocess_env())
        try:
            assert proc.stdout.readline().strip() == "held"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            with self._service(shared, "survivor") as service:
                ticket = service.submit(req)
                rows = ticket.result(timeout=60)
                assert rows == req.experiment().run(SweepExecutor("serial"))
                stats = service.leases.stats()
                assert (_lease_ledger(service.broker)["reclaimed"] >= 1
                        or stats["reclaimed_stale"] >= 1)
                assert stats["held"] == 0  # everything released on delivery
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    def test_cancel_while_parked_releases_the_waiters(self, tmp_path):
        req = request([4.0])
        shared = tmp_path / "store"
        peer = LeaseManager.for_store(shared, owner="peer", ttl_s=60.0)
        with self._service(shared, "waiter") as service:
            digest, point_key, batch_index = first_round_keys(req)[0]
            assert peer.acquire(digest, point_key, batch_index)
            ticket = service.submit(req)
            _wait_until(lambda: _lease_ledger(service.broker)["waited"] >= 1,
                        message="the held batch never parked")
            assert service.cancel(ticket.key) is True
            _wait_until(
                lambda: service.status()["lease_waiting_batches"] == 0,
                message="cancel left batches parked")
            # The service stays healthy: an unrelated ask completes.
            rows = service.characterise(request([9.0]), timeout=60)
            assert rows == request([9.0]).experiment().run(
                SweepExecutor("serial"))

    def test_two_replicas_share_one_store_bit_for_bit(self, tmp_path):
        # The in-process acceptance core: two lease-enabled services on
        # one store, overlapping windows, submitted concurrently.  Rows
        # must equal the serial runs and no batch may be simulated twice
        # across the pair — the total equals the one-service union.
        shared = tmp_path / "shared"
        with Service(str(tmp_path / "union"), workers=2) as reference:
            reference.submit(request(SNRS_A)).result(timeout=120)
            reference.submit(request(SNRS_B)).result(timeout=120)
            union = reference.broker.status()["simulated_batches"]
        serial_a = request(SNRS_A).experiment().run(SweepExecutor("serial"))
        serial_b = request(SNRS_B).experiment().run(SweepExecutor("serial"))
        with self._service(shared, "r1") as r1, \
                self._service(shared, "r2") as r2:
            ticket_a = r1.submit(request(SNRS_A))
            ticket_b = r2.submit(request(SNRS_B))
            assert ticket_a.result(timeout=120) == serial_a
            assert ticket_b.result(timeout=120) == serial_b
            simulated = (r1.broker.status()["simulated_batches"]
                         + r2.broker.status()["simulated_batches"])
            assert simulated == union
            # Every parked batch resolved: answered by the peer's store
            # append or reclaimed after its lease lapsed — none linger.
            for broker in (r1.broker, r2.broker):
                leases = _lease_ledger(broker)
                assert (leases["answered"] + leases["reclaimed"]
                        == leases["waited"])
                assert broker.status()["lease_waiting_batches"] == 0

    def test_results_persist_before_their_lease_is_released(
            self, tmp_path, monkeypatch):
        # Wrap the real release: a successful batch's record must already
        # be visible when its lease goes, and an error result (never
        # persisted) must still release its lease.  8.0 is shared by both
        # windows, so the replicas contend for its failing batch.
        def flaky_runner(batch):
            if batch.point.params["snr_db"] == 8.0:
                raise RuntimeError("bad operating point")
            return dict(run_link_ber_batch(batch))

        shared = tmp_path / "store"
        store = ResultStore(str(shared))
        snr_of = {
            tuple(int(w) for w in point.seed_sequence.spawn_key):
                point.coordinates["snr_db"]
            for snrs in (SNRS_A, SNRS_B)
            for point in request(snrs).experiment().spec()
        }
        releases = []
        real_release = LeaseManager.release

        def checked_release(self, digest, point_key, batch_index):
            record = store.view(digest).peek(point_key, batch_index, 4)
            releases.append((snr_of[tuple(point_key)], record is not None))
            return real_release(self, digest, point_key, batch_index)

        monkeypatch.setattr(LeaseManager, "release", checked_release)
        with self._service(shared, "r1", runner=flaky_runner) as r1, \
                self._service(shared, "r2", runner=flaky_runner) as r2:
            ticket_a = r1.submit(request(SNRS_A))
            ticket_b = r2.submit(request(SNRS_B))
            rows = ticket_a.result(timeout=120) + ticket_b.result(timeout=120)
        for row in rows:
            assert (row["stop_reason"] == "error") == (row["snr_db"] == 8.0)
        stored = [visible for snr, visible in releases if snr != 8.0]
        failed = [visible for snr, visible in releases if snr == 8.0]
        assert stored and all(stored)
        assert failed and not any(failed)

    def test_metrics_cluster_document_shape(self, tmp_path):
        with self._service(tmp_path / "store", "r1") as service:
            service.characterise(request([4.0]), timeout=60)
            cluster = service.metrics()["cluster"]
            assert cluster["replica"] == "r1"
            assert cluster["leases"]["enabled"] is True
            assert cluster["leases"]["owner"] == "r1"
            assert cluster["leases"]["acquired"] >= 1
            assert cluster["leases"]["held"] == 0
            assert cluster["remote_workers"]["attached"] == {}
        # Lease-disabled services publish the same stable shape.
        with Service(str(tmp_path / "plain"), workers=1) as plain:
            cluster = plain.metrics()["cluster"]
            assert cluster["replica"] is None
            assert cluster["leases"]["enabled"] is False
            assert set(cluster["remote_workers"]) >= {
                "attached", "attached_total", "completed", "requeued"}


# ---------------------------------------------------------------------- #
# Remote workers at the fleet layer (no HTTP)
# ---------------------------------------------------------------------- #
class TestRemoteWorkerHandle:
    @pytest.fixture()
    def busy_fleet(self):
        """A one-worker fleet whose local worker is parked on a gate."""
        gate = threading.Event()
        fleet = WorkerFleet(workers=1).start()
        fleet.submit("hold", _gated_stub(gate), scratch_batch())
        _wait_until(lambda: len(fleet._inflight) == 1,
                    message="the local worker never took the hold item")
        yield fleet, gate
        gate.set()
        fleet.stop()

    def test_register_requires_a_running_fleet(self):
        fleet = WorkerFleet(workers=1)
        with pytest.raises(FleetError, match="not running"):
            fleet.register_remote("w")

    def test_pull_complete_roundtrip(self, busy_fleet):
        fleet, _gate = busy_fleet
        handle = fleet.register_remote("w1")
        assert fleet.capacity == 2
        assert handle.next_task(timeout=0.1) is None  # nothing queued yet
        fleet.submit("job", _stub_runner, scratch_batch())
        item = handle.next_task(timeout=5.0)
        assert item is not None and item.item_id == "job"
        assert handle.executing
        assert handle.complete(item.seq, {"errors": 1, "trials": 400}) is True
        assert not handle.executing
        assert fleet.stats()["remote_completed"] == 1
        results = fleet.poll(timeout=5.0)
        assert ("job", {"errors": 1, "trials": 400}) in results
        stats = fleet.remote_stats()
        assert stats["attached"]["w1"]["completed"] == 1
        assert stats["attached_total"] == 1

    def test_detach_requeues_and_refuses_the_stale_result(self, busy_fleet):
        fleet, _gate = busy_fleet
        handle = fleet.register_remote("w1")
        fleet.submit("job", _stub_runner, scratch_batch())
        item = handle.next_task(timeout=5.0)
        assert handle.detach(requeue=True) is True  # presumed dead
        assert handle.detach(requeue=True) is False  # idempotent
        assert fleet.stats()["remote_requeued"] == 1
        assert fleet.stats()["retried"] == 1
        # The stale completion must be refused: the item may already be
        # re-executing elsewhere.
        assert handle.complete(item.seq, {"errors": 0, "trials": 400}) is False
        # A successor pulls the requeued item and resolves it for real.
        successor = fleet.register_remote("w2")
        retried = successor.next_task(timeout=5.0)
        assert retried is not None and retried.item_id == "job"
        assert retried.attempts == 2
        assert successor.complete(retried.seq, {"errors": 2, "trials": 400})
        assert ("job", {"errors": 2, "trials": 400}) in fleet.poll(timeout=5.0)

    def test_detach_past_the_retry_cap_fails_the_item(self, tmp_path):
        gate = threading.Event()
        fleet = WorkerFleet(workers=1, max_retries=0).start()
        try:
            fleet.submit("hold", _gated_stub(gate), scratch_batch())
            _wait_until(lambda: len(fleet._inflight) == 1)
            handle = fleet.register_remote("w1")
            fleet.submit("job", _stub_runner, scratch_batch())
            item = handle.next_task(timeout=5.0)
            assert item is not None
            handle.detach(requeue=True)
            results = dict(fleet.poll(timeout=5.0))
            assert "remote worker w1 detached" in results["job"]["error"]
        finally:
            gate.set()
            fleet.stop()

    def test_reattach_under_the_same_name_evicts_the_stale_handle(
            self, busy_fleet):
        fleet, _gate = busy_fleet
        first = fleet.register_remote("w")
        fleet.submit("job", _stub_runner, scratch_batch())
        item = first.next_task(timeout=5.0)
        assert item is not None
        second = fleet.register_remote("w")  # latest attach wins
        assert first.detached and not second.detached
        assert fleet.remote_handle("w") is second
        assert fleet.stats()["remote_requeued"] == 1
        retried = second.next_task(timeout=5.0)
        assert retried is not None and retried.item_id == "job"
        assert second.complete(retried.seq, {"errors": 0, "trials": 400})

    def test_reap_overdue_remotes_is_the_silent_death_watchdog(
            self, busy_fleet):
        fleet, _gate = busy_fleet
        handle = fleet.register_remote("w1")
        # Idle remotes are never reaped, however silent: no item at risk.
        assert fleet.reap_overdue_remotes(0.0) == 0
        fleet.submit("job", _stub_runner, scratch_batch())
        item = handle.next_task(timeout=5.0)
        assert item is not None
        assert handle.beat() is True  # a beat keeps it alive...
        assert fleet.reap_overdue_remotes(10.0) == 0
        assert fleet.reap_overdue_remotes(0.0) == 1  # ...but not forever
        assert handle.detached and fleet.stats()["remote_requeued"] == 1
        assert handle.beat() is False


# ---------------------------------------------------------------------- #
# Remote workers over the real HTTP boundary
# ---------------------------------------------------------------------- #
class TestRemoteWorkerHTTP:
    def test_agent_executes_the_work_bit_for_bit(self, tmp_path):
        gate = threading.Event()
        service = Service(ResultStore(tmp_path / "store"), workers=1,
                          poll_s=0.02).start()
        server, thread, base_url = _serve_in_thread(service)
        agent = WorkerAgent(base_url, name="hands", heartbeat_s=0.2)
        agent_thread = threading.Thread(
            target=agent.run, kwargs={"retries": 3, "backoff_s": 0.1},
            daemon=True)
        try:
            # Park the only local worker: every request batch must travel
            # through the remote agent.
            service.fleet.submit("hold", _gated_stub(gate), scratch_batch())
            _wait_until(lambda: len(service.fleet._inflight) == 1)
            agent_thread.start()
            _wait_until(
                lambda: service.fleet.remote_handle("hands") is not None,
                message="the agent never attached")
            ticket = service.submit(request())
            rows = ticket.result(timeout=120)
            assert rows == request().experiment().run(SweepExecutor("serial"))
            remote_completed = service.fleet.stats()["remote_completed"]
            assert remote_completed >= 1
            assert agent.completed == remote_completed
            metrics = service.metrics()
            remote = metrics["cluster"]["remote_workers"]
            assert remote["attached"]["hands"]["completed"] >= 1
            assert remote["completed"] >= 1
        finally:
            gate.set()
            service.stop()  # the agent sees bye reason "stopped" and exits
            agent_thread.join(timeout=10)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not agent_thread.is_alive()

    def test_agent_killed_mid_batch_is_requeued_bit_for_bit(self, tmp_path):
        # An agent that dies holding an item — os._exit the moment a task
        # arrives, before any result is posted.  The service must notice
        # the broken stream, requeue through the retry path, and the
        # local fleet must finish with rows identical to serial.
        dying_agent = (
            "import os, sys\n"
            "from repro.service.worker import WorkerAgent\n"
            "class Dying(WorkerAgent):\n"
            "    def _execute(self, event):\n"
            "        os._exit(9)\n"
            "Dying(sys.argv[1], name='doomed', heartbeat_s=0.2)"
            ".run(retries=0)\n"
        )
        gate = threading.Event()
        service = Service(ResultStore(tmp_path / "store"), workers=1,
                          poll_s=0.02).start()
        server, thread, base_url = _serve_in_thread(service)
        service.fleet.submit("hold", _gated_stub(gate), scratch_batch())
        _wait_until(lambda: len(service.fleet._inflight) == 1)
        proc = subprocess.Popen(
            [sys.executable, "-c", dying_agent, base_url],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_subprocess_env())
        try:
            _wait_until(
                lambda: service.fleet.remote_handle("doomed") is not None,
                message="the doomed agent never attached")
            ticket = service.submit(request([4.0]))
            _wait_until(lambda: service.fleet.stats()["remote_requeued"] >= 1,
                        message="the dead agent's item was never requeued")
            assert proc.wait(timeout=30) == 9
            gate.set()  # free the local worker to run the requeued item
            rows = ticket.result(timeout=120)
            assert rows == request([4.0]).experiment().run(
                SweepExecutor("serial"))
            assert service.fleet.stats()["retried"] >= 1
        finally:
            if proc.poll() is None:
                proc.kill()
            gate.set()
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


# ---------------------------------------------------------------------- #
# The multi-replica acceptance harness: real daemons, one store
# ---------------------------------------------------------------------- #
class TestMultiReplicaAcceptance:
    def _spawn_replica(self, store_root, replica_id):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--store",
             str(store_root), "--port", "0", "--workers", "2",
             "--lease-ttl-s", "10", "--replica-id", replica_id,
             "--heartbeat-s", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_subprocess_env())
        line = proc.stdout.readline()
        match = re.search(r"http://([0-9.]+):(\d+)", line)
        assert match, "no announce line from %s: %r" % (replica_id, line)
        return proc, "http://%s:%s" % match.groups()

    def _simulated_alone(self, root, req):
        with Service(str(root), workers=2) as service:
            service.submit(req).result(timeout=120)
            return service.broker.status()["simulated_batches"]

    def test_two_daemons_one_store_overlapping_streams(self, tmp_path):
        serial_a = request(SNRS_A).experiment().run(SweepExecutor("serial"))
        serial_b = request(SNRS_B).experiment().run(SweepExecutor("serial"))
        alone_a = self._simulated_alone(tmp_path / "alone-a",
                                        request(SNRS_A))
        alone_b = self._simulated_alone(tmp_path / "alone-b",
                                        request(SNRS_B))
        with Service(str(tmp_path / "union"), workers=2) as reference:
            reference.submit(request(SNRS_A)).result(timeout=120)
            reference.submit(request(SNRS_B)).result(timeout=120)
            union = reference.broker.status()["simulated_batches"]

        shared = tmp_path / "shared"
        replica_1, url_1 = self._spawn_replica(shared, "replica-1")
        replica_2, url_2 = self._spawn_replica(shared, "replica-2")
        agent = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker", "--connect",
             url_1, "--name", "acceptance-agent", "--heartbeat-s", "0.5"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_subprocess_env())
        try:
            _wait_until(
                lambda: "acceptance-agent" in fetch_json(
                    url_1 + "/v1/metrics")["cluster"]["remote_workers"][
                        "attached"],
                message="the remote agent never attached to replica 1")

            rows, failures = {}, []

            def client(url, snrs):
                try:
                    rows[snrs] = [event["row"] for event in
                                  stream_request(url, request(snrs))
                                  if event["event"] == "row"]
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append((snrs, exc))

            clients = [
                threading.Thread(target=client, args=(url_1, SNRS_A)),
                threading.Thread(target=client, args=(url_2, SNRS_B)),
            ]
            for worker in clients:
                worker.start()
            for worker in clients:
                worker.join(timeout=300)
                assert not worker.is_alive(), "an acceptance client hung"
            assert not failures, failures

            key = lambda row: row["snr_db"]  # noqa: E731
            assert sorted(rows[SNRS_A], key=key) == serial_a
            assert sorted(rows[SNRS_B], key=key) == serial_b

            metrics_1 = fetch_json(url_1 + "/v1/metrics")
            metrics_2 = fetch_json(url_2 + "/v1/metrics")
            simulated = (metrics_1["batches"]["simulated"]
                         + metrics_2["batches"]["simulated"])
            # The dedup contract: across both replicas every unique
            # batch is simulated exactly once — the union count — which
            # is strictly fewer than two independent serial runs.
            assert simulated == union
            assert simulated < alone_a + alone_b
            for metrics, replica in ((metrics_1, "replica-1"),
                                     (metrics_2, "replica-2")):
                cluster = metrics["cluster"]
                assert cluster["replica"] == replica
                assert cluster["leases"]["enabled"] is True
                assert cluster["leases"]["waiting"] == 0
            assert metrics_1["cluster"]["remote_workers"][
                "attached_total"] >= 1
        finally:
            for url in (url_1, url_2):
                try:
                    fetch_json(url + "/v1/shutdown", data={})
                except Exception:  # noqa: BLE001 - already gone is fine
                    pass
            for proc in (replica_1, replica_2, agent):
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
            replica_1.stdout.close()
            replica_2.stdout.close()
        assert replica_1.returncode == 0
        assert replica_2.returncode == 0
        # The agent saw bye "stopped" from replica 1's drain and exited
        # cleanly rather than spinning on re-attach.
        assert agent.returncode == 0

    def test_lease_files_live_under_the_store_root(self, tmp_path):
        # The on-disk protocol is part of the contract: operators point
        # replicas at one directory and the leases ride along inside it.
        shared = tmp_path / "store"
        with Service(str(shared), workers=1, lease_ttl_s=30.0,
                     replica_id="r1") as service:
            gate = threading.Event()
            service.broker.lease_poll_s = 0.05
            req = request([4.0])
            ticket = service.submit(req)
            lease_root = shared / LEASE_DIRNAME
            ticket.result(timeout=60)
            assert lease_root.is_dir()
            # All leases released after delivery: only empty namespace
            # directories (and no lease files) remain.
            leftovers = [path for path in lease_root.rglob("*.lease")]
            assert leftovers == []
            gate.set()
