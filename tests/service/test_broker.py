"""Tests for the characterisation broker.

The acceptance contract (ISSUE 5): two concurrent overlapping requests
produce bit-for-bit the rows of serial ``Experiment.run``s of each,
while simulating strictly fewer total batches than the serial pair —
plus coalescing, warm-store instant answers, partial resume, priority
ordering and capture-mode error rows.
"""

import threading
import time

import pytest

from repro.analysis.adaptive import StopRule, run_link_ber_batch
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore, read_sidecar_stats
from repro.analysis.sweep import SweepExecutor
from repro.service.broker import CharacterisationBroker, ServiceError
from repro.service.fleet import WorkerFleet
from repro.service.requests import CharacterisationRequest

SCENARIO = Scenario(decoder="bcjr", packet_bits=600)
STOP = StopRule(rel_half_width=0.35, min_errors=15, max_packets=16)


def request(snrs, **overrides):
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


def serial_rows(req, store=None):
    return req.experiment(store=store).run(SweepExecutor("serial"))


def pump_until_done(broker, tickets, timeout=60.0):
    deadline = time.time() + timeout
    while not all(ticket.done.is_set() for ticket in tickets):
        assert time.time() < deadline, "broker did not finish in time"
        broker.pump(timeout=0.1)


@pytest.fixture()
def broker(tmp_path):
    with WorkerFleet(workers=2, backend="thread") as fleet:
        yield CharacterisationBroker(ResultStore(tmp_path / "store"), fleet)


class TestDedupAcceptance:
    def test_concurrent_overlap_matches_serial_with_fewer_batches(
            self, broker):
        # Two requests sharing two operating points, in flight together.
        req_a = request([4.0, 5.5, 8.0])
        req_b = request([5.5, 8.0, 9.5])
        ticket_a = broker.submit(req_a)
        ticket_b = broker.submit(req_b)
        pump_until_done(broker, [ticket_a, ticket_b])

        rows_a = ticket_a.result()
        rows_b = ticket_b.result()
        # Bit-for-bit the serial Experiment rows — packets spent and stop
        # reasons included.
        assert rows_a == serial_rows(req_a)
        assert rows_b == serial_rows(req_b)

        # Strictly fewer simulated batches than the serial pair: every
        # batch of the shared points ran exactly once.
        serial_batches = (sum(row["batches"] for row in rows_a)
                          + sum(row["batches"] for row in rows_b))
        assert broker.status()["simulated_batches"] < serial_batches
        # Where the saving came from is accounted per ticket: a shared
        # batch reached B through the in-flight merge or the store, never
        # through a second simulation.
        progress_b = ticket_b.progress()
        saved = (progress_b["batches_cached"] + progress_b["batches_shared"])
        assert saved > 0
        for ticket in (ticket_a, ticket_b):
            progress = ticket.progress()
            assert (progress["batches_cached"] + progress["batches_shared"]
                    + progress["batches_simulated"]) == progress["batches"]
            # Streaming streamed: a first row landed, no later than the end.
            assert progress["time_to_first_row_s"] is not None
            assert progress["time_to_first_row_s"] <= progress["elapsed_s"]

    def test_disjoint_requests_do_not_dedup(self, broker):
        ticket_a = broker.submit(request([4.0]))
        ticket_b = broker.submit(request([9.5]))
        pump_until_done(broker, [ticket_a, ticket_b])
        total = (sum(r["batches"] for r in ticket_a.result())
                 + sum(r["batches"] for r in ticket_b.result()))
        assert broker.status()["simulated_batches"] == total


class TestCoalescing:
    def test_identical_inflight_requests_share_one_ticket(self, tmp_path):
        gate = threading.Event()

        def gated_runner(batch):
            gate.wait(30.0)
            return dict(run_link_ber_batch(batch))

        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=gated_runner)
            first = broker.submit(request([4.0, 6.0]))
            second = broker.submit(request([4.0, 6.0]))
            assert second is first
            assert first.progress()["coalesced_submissions"] == 1
            gate.set()
            pump_until_done(broker, [first])
        assert first.result() == request([4.0, 6.0]).experiment(
            runner=gated_runner).run(SweepExecutor("serial"))


class TestStoreIntegration:
    def test_warm_request_completes_inside_submit(self, broker):
        req = request([4.0, 6.0])
        cold = broker.submit(req)
        pump_until_done(broker, [cold])
        submitted_before = broker.fleet.stats()["submitted"]

        warm = broker.submit(request([4.0, 6.0]))
        # No pumping: every batch came from the store synchronously.
        assert warm.done.is_set()
        assert warm is not cold  # completed tickets are not coalesced
        assert warm.result() == cold.result()
        progress = warm.progress()
        assert progress["batches_simulated"] == 0
        assert progress["batches_cached"] == progress["batches"]
        assert broker.fleet.stats()["submitted"] == submitted_before
        assert progress["time_to_first_row_s"] < 1.0

    def test_tighter_request_resumes_at_the_missing_batches(self, broker):
        loose = broker.submit(request([4.0, 6.0]))
        pump_until_done(broker, [loose])
        loose_batches = sum(r["batches"] for r in loose.result())

        tight_req = request([4.0, 6.0],
                            stop=StopRule(rel_half_width=0.2, min_errors=40,
                                          max_packets=40))
        tight = broker.submit(tight_req)
        pump_until_done(broker, [tight])
        assert tight.result() == serial_rows(tight_req)
        progress = tight.progress()
        tight_batches = sum(r["batches"] for r in tight.result())
        assert progress["batches_cached"] == loose_batches
        assert progress["batches_simulated"] == tight_batches - loose_batches

    def test_service_batches_land_in_the_store_for_experiments(self, broker):
        req = request([4.0, 6.0])
        ticket = broker.submit(req)
        pump_until_done(broker, [ticket])
        # The batch Experiment front door sees what the service filed.
        experiment = req.experiment(store=broker.store)
        assert experiment.run(SweepExecutor("serial")) == ticket.result()
        assert experiment.last_store_stats["misses"] == 0

    def test_cancelled_request_flushes_its_store_usage(self, tmp_path):
        # ``repro-store gc`` ages namespaces on the usage sidecar, so a
        # request's lookups must reach it however the request ends.
        gate = threading.Event()

        def gated_runner(batch):
            gate.wait(30.0)
            return dict(run_link_ber_batch(batch))

        one_batch = StopRule(max_packets=4)
        alone = request([4.0], stop=one_batch)
        wider = request([4.0, 6.0], stop=one_batch)
        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=gated_runner)
            gate.set()
            first = broker.submit(alone)
            pump_until_done(broker, [first])
            gate.clear()
            # 4.0 is a store hit; 6.0 misses and parks at the gate.
            second = broker.submit(wider)
            assert second.progress()["batches_cached"] == 1
            assert broker.cancel(second.key) is True
            broker.shutdown()
            gate.set()
        view = broker.store.view(alone.store_digest(runner=gated_runner))
        stats = read_sidecar_stats(view.path)
        assert (stats["hits"], stats["misses"], stats["uses"]) == (1, 2, 2)

    def test_unstorable_result_is_served_uncached(self, tmp_path):
        # The service's put-failure policy: log, serve the rows, keep
        # pumping; the batches stay unstored, so a repeat simulates them
        # again.
        def pair_runner(batch):
            return dict(run_link_ber_batch(batch), pair=(1, 2))

        req = request([4.0, 6.0])
        with WorkerFleet(workers=2, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=pair_runner)
            first = broker.submit(req)
            pump_until_done(broker, [first])
            second = broker.submit(req)
            assert second is not first
            pump_until_done(broker, [second])
        rows = first.result()
        assert rows == req.experiment(runner=pair_runner).run(
            SweepExecutor("serial"))
        assert second.result() == rows
        batches = sum(row["batches"] for row in rows)
        assert second.progress()["batches_simulated"] == batches
        assert broker.status()["simulated_batches"] == 2 * batches
        view = broker.store.view(req.store_digest(runner=pair_runner))
        assert len(view) == 0


class TestScheduling:
    def test_lower_priority_number_dispatches_first(self, tmp_path):
        order = []
        gate = threading.Event()

        def recording_runner(batch):
            gate.wait(30.0)
            order.append((batch.point.params["snr_db"], batch.index))
            return dict(run_link_ber_batch(batch))

        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=recording_runner)
            bulk = broker.submit(request([4.0, 4.5], priority=5))
            time.sleep(0.1)  # the single worker now sits at the gate
            urgent = broker.submit(request([9.0], priority=0))
            gate.set()
            pump_until_done(broker, [bulk, urgent])
        # The urgent request's first batch ran before the bulk request's
        # queued (non-claimed) batches: batch-granular dispatch means the
        # big ask cannot head-of-line-block the small one.
        first_urgent = order.index((9.0, 0))
        queued_bulk = [i for i, (snr, _) in enumerate(order)
                       if snr in (4.0, 4.5)][1:]  # [0] was gated, not queued
        assert queued_bulk, "bulk request should have needed more batches"
        assert first_urgent < queued_bulk[0]

    def test_urgent_subscriber_promotes_a_queued_shared_batch(self, tmp_path):
        order = []
        gate = threading.Event()

        def recording_runner(batch):
            gate.wait(30.0)
            order.append((batch.point.params["snr_db"], batch.index))
            return dict(run_link_ber_batch(batch))

        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=recording_runner)
            bulk = broker.submit(request([4.0, 4.5, 5.0], priority=5))
            time.sleep(0.1)  # the single worker holds 4.0's batch 0
            urgent = broker.submit(request([5.0], priority=0))
            gate.set()
            pump_until_done(broker, [bulk, urgent])
        # The shared 5.0 batch was already queued at priority 5; the
        # urgent subscription pulled it ahead of 4.5's queued batch.
        assert order[0] == (4.0, 0)
        assert order[1] == (5.0, 0)
        assert urgent.result() == serial_rows(request([5.0]))

    def test_progress_reports_per_point_sources(self, broker):
        ticket = broker.submit(request([4.0, 6.0]))
        pump_until_done(broker, [ticket])
        progress = ticket.progress()
        assert progress["points_done"] == progress["points_total"] == 2
        for point in progress["points"]:
            assert point["stop_reason"] is not None
            assert point["cached"] + point["simulated"] + point["shared"] \
                == point["batches"]


class TestFailure:
    def test_runner_error_stops_the_point_not_the_service(self, tmp_path):
        def flaky_runner(batch):
            if batch.point.params["snr_db"] == 6.0:
                raise RuntimeError("bad operating point")
            return dict(run_link_ber_batch(batch))

        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=flaky_runner)
            ticket = broker.submit(request([4.0, 6.0]))
            pump_until_done(broker, [ticket])
        rows = ticket.result()
        by_snr = {row["snr_db"]: row for row in rows}
        assert by_snr[6.0]["stop_reason"] == "error"
        assert "RuntimeError: bad operating point" in by_snr[6.0]["error"]
        assert by_snr[4.0]["stop_reason"] is not None
        assert by_snr[4.0]["stop_reason"] != "error"
        # Error batches are never persisted: the failing point left no
        # records, the healthy one left all of its batches.
        req = request([4.0, 6.0])
        view = broker.store.view(req.store_digest(runner=flaky_runner))
        spawn_keys = {
            point.coordinates["snr_db"]:
                tuple(int(w) for w in point.seed_sequence.spawn_key)
            for point in req.experiment().spec()
        }
        assert view.known_batches(spawn_keys[6.0]) == []
        assert len(view.known_batches(spawn_keys[4.0])) \
            == by_snr[4.0]["batches"]

    def test_shutdown_fails_inflight_tickets(self, tmp_path):
        gate = threading.Event()

        def gated_runner(batch):
            gate.wait(5.0)
            return dict(run_link_ber_batch(batch))

        with WorkerFleet(workers=1, backend="thread") as fleet:
            broker = CharacterisationBroker(ResultStore(tmp_path), fleet,
                                            runner=gated_runner)
            ticket = broker.submit(request([4.0]))
            broker.shutdown("maintenance window")
            gate.set()
        assert ticket.done.is_set()
        with pytest.raises(ServiceError, match="maintenance window"):
            ticket.result()
