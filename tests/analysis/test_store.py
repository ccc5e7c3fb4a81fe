"""Tests for the content-addressed result store and batch-level resume.

The acceptance contract (ISSUE 4): with a warm :class:`ResultStore`,
re-running an :class:`Experiment` with a *tighter* :class:`StopRule`
simulates only the missing batch indices, and the final rows — packets
spent and stop reasons included — are bit-for-bit identical to a cold
run with the same rule.  The store layer itself must round-trip numpy
values exactly and refuse anything it cannot round-trip, naming the key.
"""

import json

import numpy as np
import pytest

from repro.analysis.adaptive import StopRule, run_link_ber_batch
from repro.analysis.scenario import Experiment, Scenario
from repro.analysis.store import ResultStore, StoreError, StoreView
from repro.analysis.sweep import SweepExecutor, SweepSpec

POINT_A = (1, 2, 3, 4)
POINT_B = (5, 6, 7, 8)


class TestStoreView:
    def view(self, tmp_path, name="deadbeef"):
        return ResultStore(tmp_path).view(name)

    def test_miss_then_put_then_hit(self, tmp_path):
        view = self.view(tmp_path)
        assert view.get(POINT_A, 0, 8) is None
        view.put(POINT_A, 0, 8, {"errors": 3, "trials": 4800})
        assert view.get(POINT_A, 0, 8) == {"errors": 3, "trials": 4800}
        assert (view.hits, view.misses) == (1, 1)

    def test_round_trip_is_exact_for_numpy_values(self, tmp_path):
        view = self.view(tmp_path)
        array = np.array([[0.1, 2.0 ** -52], [np.pi, -1e300]])
        counts = np.array([1, 2, 3], dtype=np.int16)
        view.put(POINT_A, 2, 4, {
            "errors": np.int64(7), "trials": 2400,
            "curve": array, "counts": counts,
            "nested": {"ratio": np.float64(0.25), "tags": ["a", "b"]},
        })
        # A fresh view re-reads from disk, so this exercises the full
        # JSON round trip, not the in-memory index.
        fresh = self.view(tmp_path)
        result = fresh.get(POINT_A, 2, 4)
        assert result["errors"] == 7 and isinstance(result["errors"], int)
        assert result["trials"] == 2400
        assert result["curve"].dtype == array.dtype
        assert result["curve"].shape == array.shape
        assert (result["curve"] == array).all()  # bit-for-bit, not isclose
        assert result["counts"].dtype == np.int16
        assert (result["counts"] == counts).all()
        assert result["nested"] == {"ratio": 0.25, "tags": ["a", "b"]}

    def test_batches_and_points_are_independent_keys(self, tmp_path):
        view = self.view(tmp_path)
        view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100})
        view.put(POINT_A, 1, 8, {"errors": 2, "trials": 100})
        view.put(POINT_B, 0, 8, {"errors": 3, "trials": 100})
        assert view.get(POINT_A, 1, 8)["errors"] == 2
        assert view.get(POINT_B, 0, 8)["errors"] == 3
        assert view.known_batches(POINT_A) == [0, 1]
        assert len(view) == 3

    def test_put_is_idempotent(self, tmp_path):
        view = self.view(tmp_path)
        view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100})
        view.put(POINT_A, 0, 8, {"errors": 999, "trials": 1})
        assert self.view(tmp_path).get(POINT_A, 0, 8)["errors"] == 1

    def test_num_packets_mismatch_is_an_error_not_a_hit(self, tmp_path):
        view = self.view(tmp_path)
        view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100})
        with pytest.raises(StoreError, match="8 packets"):
            view.get(POINT_A, 0, 4)

    def test_peek_never_counts_a_miss_and_sees_peer_appends(self, tmp_path):
        # The lease-poller's probe: absent batches cost no miss (a
        # waiting replica polls every fraction of a second), hits count
        # normally, and a result appended by *another* view of the same
        # file is visible without constructing a fresh view.
        view = self.view(tmp_path)
        for _ in range(10):
            assert view.peek(POINT_A, 0, 8) is None
        assert (view.hits, view.misses) == (0, 0)
        peer = self.view(tmp_path)
        peer.put(POINT_A, 0, 8, {"errors": 3, "trials": 4800})
        assert view.peek(POINT_A, 0, 8) == {"errors": 3, "trials": 4800}
        assert (view.hits, view.misses) == (1, 0)

    def test_unstorable_values_are_rejected_naming_the_key(self, tmp_path):
        view = self.view(tmp_path)
        with pytest.raises(StoreError, match="'measurement'"):
            view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100,
                                     "measurement": object()})
        with pytest.raises(StoreError, match="'pair'"):
            view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100,
                                     "pair": (1, 2)})
        with pytest.raises(StoreError, match="'gains'"):
            view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100,
                                     "gains": np.array([1 + 2j])})
        # Nothing half-written: the file holds no record for the key.
        assert self.view(tmp_path).get(POINT_A, 0, 8) is None

    def test_truncated_trailing_line_is_dropped(self, tmp_path):
        view = self.view(tmp_path)
        view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100})
        view.put(POINT_A, 1, 8, {"errors": 2, "trials": 100})
        with open(view.path, "a", encoding="utf-8") as handle:
            handle.write('{"point": [5, 6, 7, 8], "batch": 0, "num')  # killed run
        fresh = self.view(tmp_path)
        assert fresh.get(POINT_A, 1, 8)["errors"] == 2
        assert fresh.get(POINT_B, 0, 8) is None

    def test_header_line_carries_format_and_metadata(self, tmp_path):
        view = StoreView(str(tmp_path / "cafe.jsonl"),
                         metadata={"runner": "x.y"})
        view.put(POINT_A, 0, 8, {"errors": 1, "trials": 100})
        with open(view.path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["format"] == 1
        assert header["metadata"] == {"runner": "x.y"}

    def test_future_format_versions_are_refused(self, tmp_path):
        path = tmp_path / "beef.jsonl"
        path.write_text('{"format": 99}\n')
        with pytest.raises(StoreError, match="format"):
            StoreView(str(path)).get(POINT_A, 0, 8)

    def test_store_digest_names_must_be_hex(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError, match="hex"):
            store.view("../escape")
        assert store.digests() == []


# ---------------------------------------------------------------------- #
# End-to-end resume through the Experiment front door
# ---------------------------------------------------------------------- #
SCENARIO = Scenario(decoder="bcjr", packet_bits=600)
LOOSE = StopRule(rel_half_width=0.35, min_errors=15, max_packets=16)
TIGHT = StopRule(rel_half_width=0.2, min_errors=40, max_packets=40)


def experiment(stop, store=None):
    return Experiment(
        scenario=SCENARIO,
        sweep=SweepSpec({"rate_mbps": [24], "snr_db": [4.0, 5.5, 8.0]},
                        constants={"batch_size": 4}, seed=23),
        stop=stop,
        batch_packets=4,
        store=store,
    )


def pair_runner(batch):
    """The link runner plus an extra the store cannot round-trip."""
    return dict(run_link_ber_batch(batch), pair=(1, 2))


class TestExperimentResume:
    def test_cold_run_with_store_matches_storeless_run(self, tmp_path):
        plain = experiment(LOOSE).run(SweepExecutor("serial"))
        cold = experiment(LOOSE, ResultStore(tmp_path))
        assert cold.run(SweepExecutor("serial")) == plain
        assert cold.last_store_stats["hits"] == 0
        assert cold.last_store_stats["misses"] == sum(
            row["batches"] for row in plain)

    def test_warm_rerun_simulates_nothing_and_is_bit_for_bit(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = experiment(LOOSE, store)
        cold_rows = cold.run(SweepExecutor("serial"))
        warm = experiment(LOOSE, store)
        warm_rows = warm.run(SweepExecutor("serial"))
        assert warm_rows == cold_rows  # packets spent and stop reasons included
        assert warm.last_store_stats["misses"] == 0
        assert warm.last_store_stats["hits"] == cold.last_store_stats["misses"]

    def test_tighter_rerun_simulates_only_the_missing_batches(self, tmp_path):
        store = ResultStore(tmp_path)
        loose = experiment(LOOSE, store)
        loose_rows = loose.run(SweepExecutor("serial"))
        loose_batches = sum(row["batches"] for row in loose_rows)

        resumed = experiment(TIGHT, store)
        resumed_rows = resumed.run(SweepExecutor("serial"))
        fresh_rows = experiment(TIGHT).run(SweepExecutor("serial"))
        # Exact: the resumed run's rows are bit-for-bit the cold tight
        # run's rows, spend and stop reasons included.
        assert resumed_rows == fresh_rows
        # Incremental: only the batch indices the loose run never reached
        # were simulated.  (The tight trajectory replays every batch the
        # loose run stored, then extends it.)
        tight_batches = sum(row["batches"] for row in fresh_rows)
        assert tight_batches > loose_batches  # the ask actually got tighter
        assert resumed.last_store_stats["hits"] == loose_batches
        assert resumed.last_store_stats["misses"] == tight_batches - loose_batches

    def test_resume_is_backend_invariant(self, tmp_path):
        store = ResultStore(tmp_path)
        experiment(LOOSE, store).run(SweepExecutor("serial"))
        resumed = experiment(TIGHT, store)
        rows = resumed.run(SweepExecutor("process", max_workers=2))
        assert rows == experiment(TIGHT).run(SweepExecutor("serial"))

    def test_different_stop_rules_share_one_namespace(self, tmp_path):
        store = ResultStore(tmp_path)
        experiment(LOOSE, store).run(SweepExecutor("serial"))
        experiment(TIGHT, store).run(SweepExecutor("serial"))
        assert len(store.digests()) == 1

    def test_budget_counts_cached_batches_like_simulated_ones(self, tmp_path):
        store = ResultStore(tmp_path)

        def budgeted(store_arg):
            return Experiment(
                scenario=SCENARIO,
                sweep=SweepSpec({"rate_mbps": [24], "snr_db": [4.0, 8.0]},
                                constants={"batch_size": 4}, seed=23),
                stop=StopRule(rel_half_width=0.05, min_errors=10 ** 6,
                              max_packets=10 ** 6),
                batch_packets=4,
                budget=24,
                store=store_arg,
            )

        cold_rows = budgeted(store).run(SweepExecutor("serial"))
        warm_rows = budgeted(store).run(SweepExecutor("serial"))
        assert warm_rows == cold_rows
        assert all(row["stop_reason"] == "budget" for row in warm_rows)
        assert sum(row["packets"] for row in warm_rows) <= 24

    def test_unstorable_result_raises_naming_the_key(self, tmp_path):
        # Experiment's put-failure policy: the StoreError propagates, so
        # a batch run cannot be silently left uncached.
        unstorable = Experiment(
            scenario=SCENARIO,
            sweep=SweepSpec({"rate_mbps": [24], "snr_db": [4.0, 8.0]},
                            constants={"batch_size": 4}, seed=23),
            stop=LOOSE, batch_packets=4, store=ResultStore(tmp_path),
            runner=pair_runner)
        with pytest.raises(StoreError, match="'pair'"):
            unstorable.run(SweepExecutor("serial"))
