"""Tests for the long-lived worker fleet.

Covers both backends: result parity with an in-process run of the same
batches (determinism is carried entirely by the batch's derived seed),
priority ordering, error capture in the executor's vocabulary,
heartbeats, and — for the process backend — retry after a worker dies
mid-batch, with numpy-array payloads riding the pipes both ways.
"""

import logging
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.adaptive import MeasurementBatch, run_link_ber_batch
from repro.analysis.sweep import SweepSpec
from repro.obs import parse_exposition
from repro.service.fleet import FleetError, WorkerFleet

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend tests pin the fork start method",
)

SPEC = SweepSpec({"rate_mbps": [24], "snr_db": [4.0, 6.0, 8.0]},
                 constants={"packet_bits": 600, "batch_size": 4}, seed=23)


def batches(num_per_point=2, num_packets=4):
    out = []
    for point in SPEC:
        for index in range(num_per_point):
            out.append(MeasurementBatch(point, index, num_packets))
    return out


def drain(fleet, expected, timeout=60.0):
    """Collect ``expected`` results from the fleet or time out."""
    results = {}
    deadline = time.time() + timeout
    while len(results) < expected:
        remaining = deadline - time.time()
        assert remaining > 0, "timed out with %d/%d results" % (
            len(results), expected)
        for item_id, result in fleet.poll(timeout=min(remaining, 0.5)):
            results[item_id] = result
    return results


def reference_results(items):
    return {item_id: dict(run_link_ber_batch(batch))
            for item_id, batch in items}


# Module-level runners so the process backend can pickle them by reference
# (the tests pin mp_context="fork", under which the already-imported test
# module resolves in the child).
def _failing_runner(batch):
    raise RuntimeError("boom at %s" % batch.label())


def _kill_once_runner(batch):
    """Die abruptly on the first attempt, succeed on the retry.

    The result carries the batch's array payload back, doubled, next to
    the link counts.
    """
    marker = batch.point.params["kill_marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(13)  # no exception, no cleanup: a genuine worker death
    return dict(run_link_ber_batch(batch),
                echo=2.0 * batch.point.params["data"])


def _echo_runner(item):
    return item


def _array_runner(batch):
    """Echo the batch's array payload in two dtypes."""
    data = batch.point.params["data"]
    return {"echo": data * (batch.index + 1),
            "c64": (data + 1j).astype(np.complex64)}


def array_batches():
    """Batches whose params carry a numpy array, so both the task and the
    result pickle large contiguous buffers."""
    spec = SweepSpec({"tag": [0, 1, 2]},
                     constants={"data": np.linspace(0.0, 1.0, 2048)}, seed=23)
    return [MeasurementBatch(point, index, 1)
            for point in spec for index in range(2)]


class TestThreadFleet:
    def test_results_match_an_in_process_run(self):
        items = [(("item", i), batch) for i, batch in enumerate(batches())]
        with WorkerFleet(workers=3, backend="thread") as fleet:
            for item_id, batch in items:
                fleet.submit(item_id, run_link_ber_batch, batch)
            results = drain(fleet, len(items))
        assert results == reference_results(items)
        assert fleet.stats()["completed"] == len(items)

    def test_compute_gate_bounds_executing_runners(self):
        # Four workers, one compute slot: runners must never overlap,
        # while every item still completes through the shared queue.
        peak = {"now": 0, "max": 0}
        meter = threading.Lock()

        def metered_runner(batch):
            with meter:
                peak["now"] += 1
                peak["max"] = max(peak["max"], peak["now"])
            time.sleep(0.05)
            with meter:
                peak["now"] -= 1
            return {"errors": 0, "trials": 1}

        with WorkerFleet(workers=4, backend="thread",
                         compute_slots=1) as fleet:
            assert fleet.compute_slots == 1
            for i in range(8):
                fleet.submit(("gated", i), metered_runner, batches()[0])
            results = drain(fleet, 8)
        assert len(results) == 8
        assert peak["max"] == 1

    def test_compute_slots_default_respects_the_host(self):
        fleet = WorkerFleet(workers=64, backend="thread")
        assert fleet.compute_slots == min(64, os.cpu_count() or 1)
        assert fleet.stats()["compute_slots"] == fleet.compute_slots

    def test_runner_exceptions_come_back_as_error_results(self):
        with WorkerFleet(workers=1, backend="thread") as fleet:
            fleet.submit("bad", _failing_runner, batches()[0])
            results = drain(fleet, 1)
        assert "RuntimeError: boom" in results["bad"]["error"]

    def test_lower_priority_tuples_run_first(self):
        order = []
        gate = threading.Event()

        def gated_runner(batch):
            gate.wait(30.0)
            order.append(batch.point.params["tag"])
            return {"errors": 0, "trials": 1}

        def tagged_batch(tag):
            spec = SweepSpec({"snr_db": [4.0]}, constants={"tag": tag}, seed=1)
            return MeasurementBatch(list(spec)[0], 0, 1)

        with WorkerFleet(workers=1, backend="thread") as fleet:
            # One item occupies the single worker at the gate; the rest
            # queue up and must drain lowest-priority-tuple first.
            fleet.submit("gate", gated_runner, tagged_batch("gate"),
                         priority=(0,))
            time.sleep(0.1)
            fleet.submit("slow", gated_runner, tagged_batch("slow"),
                         priority=(5,))
            fleet.submit("urgent", gated_runner, tagged_batch("urgent"),
                         priority=(1,))
            fleet.submit("normal", gated_runner, tagged_batch("normal"),
                         priority=(3,))
            gate.set()
            drain(fleet, 4)
        assert order == ["gate", "urgent", "normal", "slow"]

    def test_promote_pulls_a_queued_item_forward(self):
        order = []
        gate = threading.Event()

        def gated_runner(batch):
            gate.wait(30.0)
            order.append(batch.point.params["tag"])
            return {"errors": 0, "trials": 1}

        def tagged_batch(tag):
            spec = SweepSpec({"snr_db": [4.0]}, constants={"tag": tag}, seed=1)
            return MeasurementBatch(list(spec)[0], 0, 1)

        with WorkerFleet(workers=1, backend="thread") as fleet:
            fleet.submit("gate", gated_runner, tagged_batch("gate"),
                         priority=(0,))
            time.sleep(0.1)
            fleet.submit("slow", gated_runner, tagged_batch("slow"),
                         priority=(5,))
            fleet.submit("later", gated_runner, tagged_batch("later"),
                         priority=(6,))
            assert fleet.promote("later", (1,)) is True
            assert fleet.promote("missing", (0,)) is False
            gate.set()
            results = drain(fleet, 3)
        # The promoted item ran ahead of the better-submitted "slow", and
        # its stale duplicate heap entry produced no second execution.
        assert order == ["gate", "later", "slow"]
        assert len(results) == 3

    def test_cancel_withdraws_a_queued_item_before_it_runs(self):
        ran = []
        gate = threading.Event()

        def gated_runner(batch):
            gate.wait(30.0)
            ran.append(batch.index)
            return {"errors": 0, "trials": 1}

        with WorkerFleet(workers=1, backend="thread") as fleet:
            first, second = batches()[:2]
            fleet.submit("running", gated_runner, first)
            time.sleep(0.1)  # the single worker now holds "running"
            fleet.submit("doomed", gated_runner, second)
            # Queued, untouched by any worker: cancellable exactly once.
            assert fleet.cancel("doomed") is True
            assert fleet.cancel("doomed") is False
            # Dispatched or unknown items are not.
            assert fleet.cancel("running") is False
            assert fleet.cancel("never-submitted") is False
            gate.set()
            results = drain(fleet, 1)
            assert "running" in results
            # The ledger balances: nothing lost, nothing double-freed.
            stats = fleet.stats()
            assert stats["cancelled"] == 1
            assert stats["submitted"] == 2
            assert stats["completed"] == 1
            assert stats["pending"] == 0
            # The cancelled item never produced a result and never ran.
            assert fleet.poll(timeout=0.2) == []
            assert ran == [first.index]

    def test_failure_detail_is_logged_once_naming_the_item(self, caplog):
        batch = batches()[0]
        with caplog.at_level(logging.WARNING, logger="repro.service.fleet"):
            with WorkerFleet(workers=1, backend="thread") as fleet:
                fleet.submit("bad", _failing_runner, batch)
                results = drain(fleet, 1)
        # The result carries the first line; the log carries the rest.
        assert results["bad"]["error"] == "RuntimeError: boom at %s" \
            % batch.label()
        (record,) = [r for r in caplog.records if r.name == "repro.service.fleet"]
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert batch.label() in message
        assert "Traceback (most recent call last)" in message
        assert "_failing_runner" in message

    def test_heartbeats_cover_every_worker(self):
        with WorkerFleet(workers=2, backend="thread") as fleet:
            beats = fleet.heartbeats()
            assert len(beats) == 2
            assert all(age < 60.0 for age in beats.values())

    def test_ledger_loses_no_update_under_contention(self):
        # More workers than cores, a tiny switch interval, and items that
        # do nothing but finish: every completion increments registry
        # children from a different thread, so a lost update would break
        # the balance below.
        items = 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerFleet(workers=8, backend="thread",
                             heartbeat_s=0.05) as fleet:
                for index in range(items):
                    fleet.submit(index, _echo_runner, index)
                results = drain(fleet, items)
                stats = fleet.stats()
                per_worker = parse_exposition(fleet.registry.render())[
                    "repro_fleet_worker_items_total"]["samples"]
        finally:
            sys.setswitchinterval(interval)
        assert results == {index: {"result": index}
                           for index in range(items)}
        assert stats["submitted"] == stats["completed"] == items
        assert stats["pending"] == 0
        assert sum(value for _, _, value in per_worker) == items

    def test_submit_requires_a_running_fleet(self):
        fleet = WorkerFleet(workers=1, backend="thread")
        with pytest.raises(FleetError, match="start"):
            fleet.submit("x", run_link_ber_batch, batches()[0])

    def test_stop_fails_leftover_items_instead_of_hanging(self):
        gate = threading.Event()

        def stuck_runner(batch):
            gate.wait(5.0)
            return {"errors": 0, "trials": 1}

        fleet = WorkerFleet(workers=1, backend="thread")
        fleet.start()
        fleet.submit("a", stuck_runner, batches()[0])
        fleet.submit("b", stuck_runner, batches()[1])
        time.sleep(0.05)
        gate.set()
        fleet.stop()
        results = dict(fleet.poll())
        # Whatever had not finished by stop() comes back as an error
        # result rather than silently disappearing.
        for item_id in ("a", "b"):
            if item_id in results and "error" in results[item_id]:
                assert results[item_id]["error"] == "fleet stopped"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_stopped_workers_leave_the_heartbeat_table(backend):
    fleet = WorkerFleet(workers=2, backend=backend, mp_context="fork")
    fleet.start()
    first = set(fleet.heartbeats())
    assert len(first) == 2
    fleet.stop()
    assert fleet.heartbeats() == {}
    with fleet:  # stop -> start, as Service supports
        second = set(fleet.heartbeats())
        assert len(second) == 2 and not second & first
    assert fleet.heartbeats() == {}


class TestProcessFleet:
    def test_results_match_an_in_process_run(self):
        items = [(("item", i), batch) for i, batch in enumerate(batches())]
        arrays = [(("array", i), batch)
                  for i, batch in enumerate(array_batches())]
        with WorkerFleet(workers=2, backend="process",
                         mp_context="fork") as fleet:
            for item_id, batch in items:
                fleet.submit(item_id, run_link_ber_batch, batch)
            for item_id, batch in arrays:
                fleet.submit(item_id, _array_runner, batch)
            results = drain(fleet, len(items) + len(arrays))
        assert {item_id: results[item_id] for item_id, _ in items} \
            == reference_results(items)
        for item_id, batch in arrays:
            expected = _array_runner(batch)
            for key, value in expected.items():
                assert results[item_id][key].dtype == value.dtype
                np.testing.assert_array_equal(results[item_id][key], value)

    def test_worker_death_retries_the_item_and_restarts_the_worker(
            self, tmp_path):
        marker = str(tmp_path / "first-attempt-died")
        data = np.arange(100, dtype=np.float64)
        spec = SweepSpec({"snr_db": [4.0]},
                         constants={"rate_mbps": 24, "packet_bits": 600,
                                    "batch_size": 4, "kill_marker": marker,
                                    "data": data},
                         seed=23)
        batch = MeasurementBatch(list(spec)[0], 0, 4)
        with WorkerFleet(workers=1, backend="process", mp_context="fork",
                         heartbeat_s=0.1) as fleet:
            fleet.submit("fragile", _kill_once_runner, batch)
            results = drain(fleet, 1, timeout=60.0)
            stats = fleet.stats()
        assert os.path.exists(marker), "the first attempt should have died"
        # The retried result is bit-for-bit the normal one: the batch
        # carries its own seed derivation, so the replacement worker
        # cannot land on different bytes.
        retried = dict(results["fragile"])
        np.testing.assert_array_equal(retried.pop("echo"), 2.0 * data)
        assert retried == dict(run_link_ber_batch(batch))
        assert stats["retried"] == 1
        assert stats["workers_restarted"] >= 1

    def test_unpicklable_item_fails_cleanly_without_killing_the_fleet(self):
        items = batches()
        with WorkerFleet(workers=1, backend="process",
                         mp_context="fork") as fleet:
            fleet.submit("unshippable", lambda batch: None, items[0])
            results = drain(fleet, 1)
            assert "cannot be shipped" in results["unshippable"]["error"]
            # The feeder and worker both survived: real work still runs.
            fleet.submit("fine", run_link_ber_batch, items[1])
            results = drain(fleet, 1)
        assert results["fine"] == dict(run_link_ber_batch(items[1]))

    def test_worker_death_beyond_max_retries_fails_the_item(self, tmp_path):
        spec = SweepSpec({"snr_db": [4.0]},
                         constants={"always": True}, seed=23)
        batch = MeasurementBatch(list(spec)[0], 0, 4)
        with WorkerFleet(workers=1, backend="process", mp_context="fork",
                         max_retries=1, heartbeat_s=0.1) as fleet:
            fleet.submit("doomed", _always_die_runner, batch)
            results = drain(fleet, 1, timeout=60.0)
        assert "worker died" in results["doomed"]["error"]


def _always_die_runner(batch):
    os._exit(13)
