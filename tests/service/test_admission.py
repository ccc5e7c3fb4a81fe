"""Tests for the broker's production hardening (ISSUE 7).

Admission control (in-flight caps and per-client quotas), typed
saturation errors with honest retry hints, client-initiated cancellation
with the released-batch ledger, graceful drain, and the metrics
document.  The invariant under test throughout: none of these mechanisms
may ever change a surviving request's rows — they only decide *whether*
work is admitted and *when* abandoned work is handed back.
"""

import threading
import time

import pytest

from repro.analysis.adaptive import StopRule, run_link_ber_batch
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.service.broker import (CharacterisationBroker, ClientQuota,
                                  ServiceError, ServiceSaturated)
from repro.service.fleet import WorkerFleet
from repro.service.requests import CharacterisationRequest

SCENARIO = Scenario(decoder="bcjr", packet_bits=600)
STOP = StopRule(rel_half_width=0.35, min_errors=15, max_packets=16)


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


def pump_until_done(broker, tickets, timeout=60.0):
    deadline = time.time() + timeout
    while not all(ticket.done.is_set() for ticket in tickets):
        assert time.time() < deadline, "broker did not finish in time"
        broker.pump(timeout=0.1)


def gated(gate):
    """A runner parked at ``gate`` — same bytes as the link runner."""
    def gated_runner(batch):
        gate.wait(30.0)
        return dict(run_link_ber_batch(batch))
    return gated_runner


class TestTokenBucket:
    def test_charges_refills_and_rejects_deterministically(self):
        bucket = ClientQuota(packets_per_s=10, burst_packets=20).bucket()
        # A full bucket affords its burst exactly once.
        assert bucket.try_take(20, now=0.0) == 0.0
        # Short 5 tokens: the wait is the refill time for the shortfall.
        assert bucket.try_take(5, now=0.0) == pytest.approx(0.5)
        # One second later 10 tokens refilled; 5 are affordable again.
        assert bucket.try_take(5, now=1.0) == 0.0
        # Above the burst is never affordable, whatever the level.
        assert bucket.try_take(21, now=100.0) is None

    def test_quota_validates_its_shape(self):
        with pytest.raises(ValueError, match="packets_per_s"):
            ClientQuota(packets_per_s=0, burst_packets=10)
        with pytest.raises(ValueError, match="burst_packets"):
            ClientQuota(packets_per_s=1, burst_packets=0)


class TestPacketCost:
    def test_cost_is_the_tighter_of_budget_and_grid_cap(self):
        assert request([4.0, 6.0]).packet_cost() == 2 * STOP.max_packets
        assert request([4.0, 6.0], budget=5).packet_cost() == 5
        assert request([4.0], budget=1000).packet_cost() == STOP.max_packets


class TestSaturation:
    def test_inflight_batch_cap_rejects_with_retry_hint(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate),
                max_inflight_batches=1)
            held = broker.submit(request([4.0]))
            with pytest.raises(ServiceSaturated) as excinfo:
                broker.submit(request([6.0]))
            assert excinfo.value.retry_after_s >= 1.0
            assert broker.status()["rejected_saturated"] == 1
            # An identical ask coalesces for free even at saturation.
            assert broker.submit(request([4.0])) is held
            # After the in-flight work drains, the retry succeeds and its
            # rows are bit-for-bit what an unloaded run produces.
            gate.set()
            pump_until_done(broker, [held])
            retried = broker.submit(request([6.0]))
            pump_until_done(broker, [retried])
        assert retried.result() == request([6.0]).experiment(
            runner=gated(gate)).run(SweepExecutor("serial"))
        assert held.result() == request([4.0]).experiment(
            runner=gated(gate)).run(SweepExecutor("serial"))

    def test_request_cap_rejects_the_second_request(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate),
                max_requests=1)
            held = broker.submit(request([4.0]))
            with pytest.raises(ServiceSaturated, match="request"):
                broker.submit(request([6.0]))
            gate.set()
            pump_until_done(broker, [held])
            # Capacity freed: the same ask is now admitted.
            pump_until_done(broker, [broker.submit(request([6.0]))])

    def test_caps_must_be_positive(self, tmp_path):
        with WorkerFleet(workers=1, backend="thread") as fleet:
            store = ResultStore(tmp_path / "store")
            with pytest.raises(ValueError, match="max_inflight_batches"):
                CharacterisationBroker(store, fleet, max_inflight_batches=0)
            with pytest.raises(ValueError, match="max_requests"):
                CharacterisationBroker(store, fleet, max_requests=0)


class TestClientQuota:
    def test_quota_is_charged_per_client(self, tmp_path):
        cost = request([4.0, 6.0]).packet_cost()  # 32 packets
        with WorkerFleet(workers=2, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet,
                quota=ClientQuota(packets_per_s=1, burst_packets=cost))
            first = broker.submit(request([4.0, 6.0], client_id="alice"))
            # Alice's bucket is empty; her next distinct ask must wait.
            with pytest.raises(ServiceSaturated, match="alice") as excinfo:
                broker.submit(request([5.0, 7.0], client_id="alice"))
            assert excinfo.value.retry_after_s > 0
            assert broker.status()["rejected_quota"] == 1
            # Bob has his own bucket and is admitted immediately.
            second = broker.submit(request([5.0, 7.0], client_id="bob"))
            pump_until_done(broker, [first, second])
        assert second.result() == request([5.0, 7.0]).experiment(
        ).run(SweepExecutor("serial"))

    def test_ask_above_the_burst_is_never_admissible(self, tmp_path):
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet,
                quota=(1000.0, 8.0))  # tuple form coerces to ClientQuota
            with pytest.raises(ServiceError, match="never"):
                broker.submit(request([4.0, 6.0], client_id="alice"))
            assert broker.status()["rejected_quota"] == 1
            # A budget below the burst brings the same grid under quota.
            affordable = broker.submit(request([4.0, 6.0], budget=8,
                                               client_id="alice"))
            pump_until_done(broker, [affordable])


class TestCancellation:
    def test_cancel_releases_exclusive_unstarted_batches(self, tmp_path):
        # The ISSUE acceptance shape: two overlapping requests share the
        # 5.5 batch through the in-flight merge; cancelling the second
        # frees only its exclusive un-started 8.0 work, and the survivor
        # still produces bit-for-bit serial rows.
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate))
            survivor = broker.submit(request([4.0, 5.5]))
            time.sleep(0.1)  # the single worker now holds 4.0's batch 0
            doomed = broker.submit(request([5.5, 8.0]))
            assert doomed.progress()["batches_shared"] == 1

            assert broker.cancel(doomed.key) is True
            # The ledger shows exactly the exclusive queued batch freed.
            assert broker.metrics()["batches"]["released"] == 1
            assert fleet.stats()["cancelled"] == 1
            assert broker.status()["cancelled_requests"] == 1
            assert doomed.cancelled and doomed.done.is_set()
            with pytest.raises(ServiceError, match="cancelled by client"):
                doomed.result()
            events = list(doomed.stream())
            assert events[-1]["event"] == "cancelled"

            # Cancelling again (or an unknown key) is a clean no-op.
            assert broker.cancel(doomed.key) is False
            assert broker.cancel("no-such-request") is False

            gate.set()
            pump_until_done(broker, [survivor])
        assert survivor.result() == request([4.0, 5.5]).experiment(
            runner=gated(gate)).run(SweepExecutor("serial"))

    def test_coalesced_interest_protects_the_shared_ticket(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate))
            ticket = broker.submit(request([4.0]))
            twin = broker.submit(request([4.0]))
            assert twin is ticket and ticket.interest == 2
            # One consumer hanging up must not kill its twin's stream.
            assert ticket.cancel() is True
            assert not ticket.cancelled
            gate.set()
            pump_until_done(broker, [ticket])
        assert ticket.result() == request([4.0]).experiment(
            runner=gated(gate)).run(SweepExecutor("serial"))
        assert broker.status()["cancelled_requests"] == 0

    def test_last_interest_unit_releases_for_real(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate))
            ticket = broker.submit(request([4.0, 6.0]))
            broker.submit(request([4.0, 6.0]))  # interest 2
            assert ticket.cancel() is True
            assert ticket.cancel() is True      # last unit: released
            assert ticket.cancelled
            assert broker.status()["cancelled_requests"] == 1
            gate.set()

    def test_fused_group_is_withdrawn_only_when_fully_orphaned(
            self, tmp_path):
        # With the built-in link runner a round's same-shape batches ride
        # one fused fleet item; cancelling their only subscriber while
        # the item is still queued must withdraw it and release every
        # member batch in the ledger.
        blocker_gate = threading.Event()

        def blocker(_batch):
            blocker_gate.wait(30.0)
            return {"errors": 0, "trials": 1}

        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path / "store"),
                                            fleet)
            fleet.submit("blocker", blocker, None)
            time.sleep(0.1)  # the single worker is parked on the blocker
            ticket = broker.submit(request([4.0, 6.0]))
            dispatched = ticket.progress()["batches_simulated"]
            assert dispatched == 2

            assert broker.cancel(ticket.key) is True
            assert broker.metrics()["batches"]["released"] == dispatched
            assert broker.status()["inflight_batches"] == 0
            assert fleet.stats()["cancelled"] >= 1
            blocker_gate.set()
            # The stray blocker result must not confuse the broker.
            broker.pump(timeout=1.0)

    def test_executing_batch_still_lands_in_the_store(self, tmp_path):
        # Work a worker already holds is never wasted: after the only
        # subscriber cancels, the executing batch completes, persists,
        # and a later identical request replays it from the store.
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate))
            ticket = broker.submit(request([4.0]))
            time.sleep(0.1)  # batch 0 is executing
            assert broker.cancel(ticket.key) is True
            gate.set()
            deadline = time.time() + 30.0
            while fleet.stats()["completed"] < 1:
                assert time.time() < deadline
                broker.pump(timeout=0.1)
            broker.pump(timeout=0.2)
            warm = broker.submit(request([4.0]))
            # The executing batch was persisted on completion, so the
            # retry resumes past it instead of re-simulating it.
            assert warm.progress()["batches_cached"] >= 1
            pump_until_done(broker, [warm])
        assert warm.result() == request([4.0]).experiment(
            runner=gated(gate)).run(SweepExecutor("serial"))


class TestDrainAndAdmissionGate:
    def test_drain_finishes_inflight_and_blocks_new_work(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate))
            ticket = broker.submit(request([4.0]))
            broker.close_admission()
            with pytest.raises(ServiceError, match="draining"):
                broker.submit(request([6.0]))
            # Someone must keep pumping while drain blocks (the Service
            # pump thread, in the assembled service).
            pump = threading.Thread(
                target=pump_until_done, args=(broker, [ticket]), daemon=True)
            pump.start()
            gate.set()
            assert broker.drain(timeout=30.0) is True
            pump.join(timeout=30.0)
            assert ticket.result() == request([4.0]).experiment(
                runner=gated(gate)).run(SweepExecutor("serial"))
            # Re-opening admission restores normal service.
            broker.open_admission()
            pump_until_done(broker, [broker.submit(request([6.0]))])

    def test_drain_deadline_reports_failure(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate))
            broker.submit(request([4.0]))
            assert broker.drain(timeout=0.2) is False
            gate.set()


class TestMetrics:
    def test_metrics_exports_every_ledger(self, tmp_path):
        gate = threading.Event()
        with WorkerFleet(workers=2, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet, runner=gated(gate),
                max_inflight_batches=64, max_requests=8,
                quota=ClientQuota(packets_per_s=1000, burst_packets=1000))
            gate.set()
            done = broker.submit(request([4.0], client_id="alice"))
            pump_until_done(broker, [done])
            gate.clear()
            # Three batches onto two workers: one stays queued, so the
            # cancel below has something to release into the ledger.
            held = broker.submit(request([6.0, 8.0, 9.0]))
            time.sleep(0.1)
            broker.cancel(held.key)
            gate.set()

            metrics = broker.metrics()
        admission = metrics["admission"]
        assert admission["open"] is True
        assert admission["max_inflight_batches"] == 64
        assert admission["max_requests"] == 8
        assert admission["rejected_saturated"] == 0
        assert admission["retry_after_s"] >= 1.0
        assert "alice" in admission["quota"]["buckets"]
        requests = metrics["requests"]
        assert requests == {"in_flight": 0, "completed": 1, "failed": 0,
                            "cancelled": 1, "admitted": 2}
        batches = metrics["batches"]
        assert batches["simulated"] >= 1
        assert batches["released"] >= 1
        assert batches["delivered"] <= (batches["cached"] + batches["shared"]
                                        + batches["simulated"]
                                        + batches["leased"])
        assert metrics["fleet"]["workers"] == 2
        for stats in metrics["stores"].values():
            assert set(stats) == {"records", "hits", "misses"}

    def test_status_reports_admission_state(self, tmp_path):
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path / "store"),
                                            fleet)
            broker.close_admission()
            status = broker.status()
        assert status["admission_open"] is False
        assert status["rejected_saturated"] == 0
        assert status["cancelled_requests"] == 0
