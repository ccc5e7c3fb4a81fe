"""Tests for the sweep execution subsystem.

The contract under test is the one the module docstring states: rows
depend only on the :class:`SweepSpec`, never on the executor.  Backend,
worker count, chunk size and dispatch order must not change a single bit
of the output, and per-point failures must surface the failing operating
point.  Multi-worker tests are marked ``slow`` so the default
``-m "not slow"`` cycle stays fast; the single-worker process-backend
smoke test stays in the fast path for pickling coverage.
"""

import os
import time

import pytest

from repro.analysis.scenario import run_scenario_point
from repro.analysis.sweep import (
    SweepError,
    SweepExecutor,
    SweepSpec,
    executor_from_env,
    point_spawn_key,
    rows_to_json,
)

#: A miniature Figure-6-style workload: QAM16 1/2 BER across SNRs.  Small
#: packets keep the fast-path tests quick; the slow acceptance test below
#: uses the paper's real 1704-bit packets.
SMALL_LINK_CONSTANTS = {
    "decoder": "bcjr",
    "packet_bits": 600,
    "num_packets": 4,
    "batch_size": 4,
}


def small_link_spec(snrs=(5.0, 6.5, 8.0), seed=23):
    return SweepSpec(
        {"rate_mbps": [24], "snr_db": list(snrs)},
        constants=SMALL_LINK_CONSTANTS,
        seed=seed,
    )


def echo_seed(point):
    """Picklable runner returning only the point's derived seed."""
    return {"seed": point.seed}


def fail_at_seven(point):
    """Picklable runner that fails on the 7 dB operating point."""
    if point["snr_db"] == 7.0:
        raise ValueError("demapper fell over")
    return {"ok": True}


def doubled_snr(point):
    """Picklable runner returning a bare number, not a mapping."""
    return 2.0 * point["snr_db"]


def die_once(point):
    """Picklable runner whose first attempt kills its worker process."""
    marker = point["kill_marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(13)  # no exception, no cleanup: a genuine worker death
    return echo_seed(point)


def always_die(point):
    """Picklable runner that kills every worker it runs on."""
    os._exit(13)


class TestSweepSpec:
    def test_grid_is_row_major_over_axes(self):
        spec = SweepSpec({"a": [1, 2], "b": ["x", "y"]})
        coords = [point.coordinates for point in spec]
        assert coords == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert [point.index for point in spec] == [0, 1, 2, 3]
        assert len(spec) == 4

    def test_constants_merge_into_params_but_not_coordinates(self):
        spec = SweepSpec({"snr_db": [5.0]}, constants={"packet_bits": 600})
        (point,) = spec.points()
        assert point.params == {"packet_bits": 600, "snr_db": 5.0}
        assert point.coordinates == {"snr_db": 5.0}
        assert "packet_bits" not in point.label()
        assert "snr_db=5.0" in point.label()

    def test_axis_constant_overlap_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec({"snr_db": [5.0]}, constants={"snr_db": 6.0})

    def test_empty_axis_yields_no_points(self):
        spec = SweepSpec({"snr_db": []})
        assert len(spec) == 0
        assert spec.points() == []
        assert SweepExecutor().run(spec, echo_seed) == []

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec({})

    def test_invalid_executor_arguments_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor("threads")
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)
        with pytest.raises(ValueError):
            SweepExecutor().run(SweepSpec({"a": [1]}), echo_seed, on_error="abort")


class TestSeedDerivation:
    def test_two_points_never_share_a_stream(self):
        spec = SweepSpec({"rate_mbps": [6, 12, 24], "snr_db": [4.0, 6.0, 8.0]})
        points = spec.points()
        seeds = {point.seed for point in points}
        keys = {point_spawn_key(point.coordinates) for point in points}
        assert len(seeds) == len(points)
        assert len(keys) == len(points)

    def test_seeds_stable_across_point_ordering(self):
        ascending = SweepSpec({"snr_db": [4.0, 6.0, 8.0]}, seed=7)
        descending = SweepSpec({"snr_db": [8.0, 6.0, 4.0]}, seed=7)
        by_snr = {p.coordinates["snr_db"]: p.seed for p in ascending}
        for point in descending:
            assert point.seed == by_snr[point.coordinates["snr_db"]]

    def test_seeds_stable_across_chunk_sizes_and_worker_counts(self):
        spec = SweepSpec({"snr_db": [4.0, 5.0, 6.0, 7.0, 8.0]}, seed=11)
        reference = SweepExecutor("serial").run(spec, echo_seed)
        for workers in (1, 2, 5):
            executor = SweepExecutor("process", max_workers=workers)
            assert executor.run(spec, echo_seed) == reference

    def test_constants_do_not_move_points_onto_new_streams(self):
        small = SweepSpec({"snr_db": [5.0]}, constants={"num_packets": 4}, seed=3)
        large = SweepSpec({"snr_db": [5.0]}, constants={"num_packets": 400}, seed=3)
        assert small.points()[0].seed == large.points()[0].seed

    def test_master_seed_changes_every_stream(self):
        seeds_a = [p.seed for p in SweepSpec({"snr_db": [4.0, 6.0]}, seed=1)]
        seeds_b = [p.seed for p in SweepSpec({"snr_db": [4.0, 6.0]}, seed=2)]
        assert not set(seeds_a) & set(seeds_b)

    def test_distinct_types_get_distinct_keys(self):
        assert point_spawn_key({"v": 1}) != point_spawn_key({"v": 1.0})
        assert point_spawn_key({"v": 1}) != point_spawn_key({"v": "1"})
        assert point_spawn_key({"v": True}) != point_spawn_key({"v": 1})


class TestExecution:
    def test_serial_rows_are_params_plus_results(self):
        spec = small_link_spec(snrs=(5.0,))
        (row,) = SweepExecutor("serial").run(spec, run_scenario_point)
        assert row["rate_mbps"] == 24 and row["snr_db"] == 5.0
        assert row["packet_bits"] == 600
        assert row["num_bits"] == 4 * 600
        assert 0.0 <= row["ber"] <= 1.0

    def test_single_worker_process_backend_matches_serial(self):
        spec = small_link_spec(snrs=(5.0, 8.0))
        serial = SweepExecutor("serial").run(spec, run_scenario_point)
        process = SweepExecutor("process", max_workers=1).run(
            spec, run_scenario_point
        )
        assert process == serial

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_multi_worker_rows_identical_to_serial(self, workers):
        spec = small_link_spec()
        serial = SweepExecutor("serial").run(spec, run_scenario_point)
        parallel = SweepExecutor("process", max_workers=workers).run(
            spec, run_scenario_point)
        assert parallel == serial

    def test_session_reuses_one_pool_across_runs(self):
        # Inside session() the pool is created once and reused; rows are
        # identical to pool-per-run execution (the pool is pure transport).
        spec = small_link_spec(snrs=(5.0, 8.0))
        executor = SweepExecutor("process", max_workers=1)
        fresh = executor.run(spec, run_scenario_point)
        with executor.session():
            assert executor._pool is not None
            pool = executor._pool
            first = executor.run(spec, run_scenario_point)
            second = executor.run(spec, run_scenario_point)
            assert executor._pool is pool  # still the same pool
            with executor.session():  # re-entrant: nested reuses the outer
                assert executor._pool is pool
        assert executor._pool is None  # torn down on exit
        assert first == fresh
        assert second == fresh

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_non_dict_results_are_wrapped(self, backend):
        spec = SweepSpec({"snr_db": [4.0, 6.5]})
        rows = SweepExecutor(backend, max_workers=1,
                             mp_context="fork").run(spec, doubled_snr)
        assert rows == [{"snr_db": 4.0, "result": 8.0},
                        {"snr_db": 6.5, "result": 13.0}]

    def test_session_is_a_noop_for_serial(self):
        executor = SweepExecutor("serial")
        with executor.session():
            assert executor._pool is None
            rows = executor.run(small_link_spec(snrs=(5.0,)), run_scenario_point)
        assert len(rows) == 1

    def test_rows_to_json_round_trips(self):
        import json

        spec = small_link_spec(snrs=(5.0, 8.0))
        rows = SweepExecutor("serial").run(spec, run_scenario_point)
        parsed = [json.loads(line) for line in rows_to_json(rows).splitlines()]
        assert parsed == rows

    def test_rows_to_json_round_trips_numpy_extras(self):
        import json

        import numpy as np

        rows = [{
            "count": np.int32(7),
            "ratio": np.float64(0.125),
            "curve": np.array([[1.0, 0.5], [0.25, 2.0 ** -40]]),
            "bins": np.arange(3, dtype=np.int64),
        }]
        (line,) = rows_to_json(rows).splitlines()
        parsed = json.loads(line)
        # numpy scalars become exact Python numbers, arrays nested lists.
        assert parsed["count"] == 7 and isinstance(parsed["count"], int)
        assert parsed["ratio"] == 0.125
        assert parsed["curve"] == [[1.0, 0.5], [0.25, 2.0 ** -40]]
        assert parsed["bins"] == [0, 1, 2]

    def test_rows_to_json_names_the_offending_key(self):
        rows = [
            {"snr_db": 5.0, "ber": 1e-3},
            {"snr_db": 7.0, "measurement": object()},
        ]
        with pytest.raises(TypeError) as excinfo:
            rows_to_json(rows)
        message = str(excinfo.value)
        assert "'measurement'" in message
        assert "row 1" in message
        assert "object" in message

    def test_executor_from_env_selects_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert executor_from_env().backend == "serial"
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "")
        assert executor_from_env().backend == "serial"
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        assert executor_from_env().backend == "serial"
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", " 4 ")
        executor = executor_from_env()
        assert executor.backend == "process"
        assert executor.max_workers == 4

    @pytest.mark.parametrize("raw", ["nope", "0", "-2", "2.5", "four"])
    def test_executor_from_env_rejects_bad_worker_counts(self, monkeypatch, raw):
        # A typo'd or non-positive worker count must fail loudly, naming
        # the environment variable, not silently run serial or crash deep
        # inside the pool.
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS") as excinfo:
            executor_from_env()
        assert raw.strip() in str(excinfo.value)


class TestErrorSurfacing:
    def spec(self):
        return SweepSpec({"rate_mbps": [24], "snr_db": [5.0, 7.0, 9.0]})

    def test_serial_raise_names_the_operating_point(self):
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor("serial").run(self.spec(), fail_at_seven)
        message = str(excinfo.value)
        assert "snr_db=7.0" in message
        assert "rate_mbps=24" in message
        assert "demapper fell over" in message
        assert excinfo.value.point.coordinates["snr_db"] == 7.0

    def test_process_raise_names_the_operating_point(self):
        # The worker formats the failure before it crosses the process
        # boundary: the caller sees the operating point and the original
        # traceback text, not a bare pickled traceback.
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor("process", max_workers=1).run(
                self.spec(), fail_at_seven
            )
        message = str(excinfo.value)
        assert "snr_db=7.0" in message
        assert "demapper fell over" in message
        assert "ValueError" in message

    def test_sweep_survives_a_worker_death(self, tmp_path):
        # The first attempt kills its child process; the fleet requeues
        # the point onto a replacement child, which lands on the same
        # seed, so the rows are the serial rows.
        marker = str(tmp_path / "first-attempt-died")
        spec = SweepSpec({"snr_db": [4.0, 5.0, 6.0]},
                         constants={"kill_marker": marker}, seed=11)
        rows = SweepExecutor("process", max_workers=1,
                             mp_context="fork").run(spec, die_once)
        assert os.path.exists(marker), "the first attempt should have died"
        assert rows == SweepExecutor("serial").run(spec, die_once)

    def test_a_point_that_keeps_killing_workers_is_named(self):
        spec = SweepSpec({"rate_mbps": [24], "snr_db": [5.0]})
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor("process", max_workers=1,
                          mp_context="fork").run(spec, always_die)
        message = str(excinfo.value)
        assert "snr_db=5.0" in message
        assert "worker died" in message
        assert excinfo.value.point.coordinates["snr_db"] == 5.0

    def test_capture_keeps_the_healthy_points(self):
        rows = SweepExecutor("serial").run(self.spec(), fail_at_seven,
                                           on_error="capture")
        assert [row.get("ok") for row in rows] == [True, None, True]
        failed = rows[1]
        assert failed["snr_db"] == 7.0
        assert failed["error"] == "ValueError: demapper fell over"


#: The slow acceptance workload: a real Figure-6 SNR sweep (QAM16 1/2,
#: 1704-bit packets, BCJR) across eight SNR points.
FIG6_SWEEP_CONSTANTS = {
    "decoder": "bcjr",
    "packet_bits": 1704,
    "num_packets": 32,
    "batch_size": 32,
}


def _timed(executor, spec):
    start = time.perf_counter()
    rows = executor.run(spec, run_scenario_point)
    return rows, time.perf_counter() - start


@pytest.mark.slow
def test_four_worker_fig6_sweep_matches_serial_and_scales_with_cores():
    """Acceptance: a 4-worker Figure-6 sweep is bit-for-bit serial, and
    faster by at least 0.75x the usable core count (up to four cores).

    The parallel runs are timed inside a started session after one
    warm-up run, so the bound is on the sweep itself, not on spawning
    the fleet.  Serial and parallel runs alternate, three of each, and
    each keeps its fastest: a slow window on a shared host then lands on
    both sides instead of on whichever ran during it.
    """
    spec = SweepSpec(
        {"rate_mbps": [24], "snr_db": [4.0, 4.75, 5.5, 6.25, 7.0, 7.75, 8.5, 9.0]},
        constants=FIG6_SWEEP_CONSTANTS,
        seed=23,
    )
    serial_executor = SweepExecutor("serial")
    executor = SweepExecutor("process", max_workers=4)
    serial_times, parallel_times = [], []
    with executor.session():
        warm = executor.run(spec, run_scenario_point)  # warm-up
        for _ in range(3):
            serial, elapsed = _timed(serial_executor, spec)
            serial_times.append(elapsed)
            parallel, elapsed = _timed(executor, spec)
            parallel_times.append(elapsed)
            # Bit-for-bit, element-for-element, on every run.
            assert parallel == serial and warm == serial

    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(
            "only %d CPU visible: wall-clock speedup is not physically "
            "possible here (rows were still verified bit-for-bit)" % cpus
        )
    speedup = min(serial_times) / min(parallel_times)
    expected = 0.75 * min(4, cpus)
    assert speedup >= expected, (
        "4-worker sweep took %.2fs vs %.2fs serial: %.2fx, expected >= %.2fx"
        % (min(parallel_times), min(serial_times), speedup, expected)
    )
