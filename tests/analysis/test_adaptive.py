"""Tests for the adaptive BER characterisation subsystem.

The contracts under test:

* **Stopping** — a :class:`StopRule` fires for the right reason at the
  right accumulated state (convergence, error target, zero-error floor,
  traffic cap), and ranks unsettled points loosest-first.
* **Batch invariance** — batch ``k`` of a point draws from a stream that
  depends only on ``(point, k)``: stopping decisions, worker count and
  scheduling order can decide only *whether* batch ``k`` runs, never what
  it contains.
* **Scheduler determinism** (the acceptance property) — for a fixed spec,
  rule and budget, the serial and multi-worker process backends produce
  bit-for-bit identical rows, including packets spent and stop reasons.
* **Budget reallocation** — traffic freed by early-stopped points flows to
  the loosest (high-SNR) points, and an exhausted budget stops the rest
  with reason ``"budget"``.
"""

import numpy as np
import pytest

from repro.analysis.adaptive import (
    AdaptivePointState,
    AdaptiveScheduler,
    AdaptiveTrajectory,
    MeasurementBatch,
    StopRule,
    batch_seed_sequence,
    run_link_ber_batch,
)
from repro.analysis.ber_stats import BerMeasurement
from repro.analysis.scenario import Experiment, Scenario, run_scenario_point
from repro.analysis.sweep import SweepError, SweepExecutor, SweepSpec

#: A miniature link workload: small packets keep every test here fast.
SMALL_CONSTANTS = {"decoder": "bcjr", "packet_bits": 600, "batch_size": 8}


def small_spec(snrs=(4.0, 6.0, 8.5), seed=23):
    return SweepSpec(
        {"rate_mbps": [24], "snr_db": list(snrs)},
        constants=SMALL_CONSTANTS,
        seed=seed,
    )


def one_point(snr_db=5.0, seed=23):
    (point,) = SweepSpec(
        {"rate_mbps": [24], "snr_db": [snr_db]}, constants=SMALL_CONSTANTS,
        seed=seed,
    ).points()
    return point


def seed_echo_runner(batch):
    """Picklable chunk-runner recording which stream a batch drew from."""
    return {"errors": 1, "trials": 100,
            "seeds": np.array([batch.seed], dtype=np.uint64)}


class _FixedSequenceRunner:
    """Deterministic error counts per batch index (picklable)."""

    def __init__(self, errors_by_batch, trials=1000):
        self.errors_by_batch = tuple(errors_by_batch)
        self.trials = trials

    def __call__(self, batch):
        errors = self.errors_by_batch[min(batch.index, len(self.errors_by_batch) - 1)]
        return {"errors": errors, "trials": self.trials}


def fail_on_second_batch(batch):
    if batch.index == 1:
        raise RuntimeError("decoder exploded")
    return {"errors": 0, "trials": 1000}


class TestStopRule:
    def test_converged_needs_min_errors_and_a_tight_interval(self):
        rule = StopRule(rel_half_width=0.2, min_errors=50)
        loose = BerMeasurement(10, 100)
        assert rule.evaluate(loose, packets_spent=8) is None
        tight = BerMeasurement(400, 4000)  # rel half-width ~ 1.96/sqrt(400) ~ 0.10
        assert rule.evaluate(tight, packets_spent=8) == "converged"
        # Same interval but too few errors: keep going.
        assert StopRule(rel_half_width=0.2, min_errors=500).evaluate(tight, 8) is None

    def test_target_errors_fires_first(self):
        rule = StopRule(rel_half_width=0.2, min_errors=10, target_errors=100)
        assert rule.evaluate(BerMeasurement(150, 1500), 8) == "target_errors"

    def test_zero_error_floor(self):
        rule = StopRule(rel_half_width=0.2, ber_floor=1e-3)
        # Upper bound ~ 3.84/trials: 1000 trials is not enough, 10000 is.
        assert rule.evaluate(BerMeasurement(0, 1000), 8) is None
        assert rule.evaluate(BerMeasurement(0, 10_000), 8) == "ber_floor"

    def test_max_packets_cap(self):
        rule = StopRule(rel_half_width=None, max_packets=64)
        assert rule.evaluate(BerMeasurement(1, 100), 32) is None
        assert rule.evaluate(BerMeasurement(1, 100), 64) == "max_packets"
        assert rule.evaluate(None, 64) == "max_packets"

    def test_no_data_keeps_running(self):
        assert StopRule().evaluate(None, 0) is None

    def test_looseness_ranks_zero_error_points_loosest(self):
        rule = StopRule(ber_floor=1e-4)
        settled = rule.looseness(BerMeasurement(400, 4000))
        zero = rule.looseness(BerMeasurement(0, 4000))
        assert zero > settled
        assert rule.looseness(None) == np.inf

    def test_replace(self):
        rule = StopRule(rel_half_width=0.2, min_errors=30)
        capped = rule.replace(max_packets=64)
        assert capped.max_packets == 64
        assert capped.rel_half_width == 0.2
        assert rule.max_packets is None
        assert capped == StopRule(rel_half_width=0.2, min_errors=30, max_packets=64)

    def test_validation(self):
        with pytest.raises(ValueError):
            StopRule(rel_half_width=0.0)
        with pytest.raises(ValueError):
            StopRule(ber_floor=0.0)
        with pytest.raises(ValueError):
            StopRule(max_packets=0)
        with pytest.raises(ValueError):
            StopRule(confidence=1.0)


class TestBatchSeeding:
    def test_batches_extend_the_point_spawn_key(self):
        point = one_point()
        seq = batch_seed_sequence(point.seed_sequence, 3)
        assert tuple(seq.spawn_key) == tuple(point.seed_sequence.spawn_key) + (3,)
        assert seq.entropy == point.seed_sequence.entropy

    def test_distinct_batches_distinct_points_never_share_streams(self):
        points = small_spec().points()
        seeds = {
            MeasurementBatch(point, index, 8).seed
            for point in points for index in range(4)
        }
        assert len(seeds) == len(points) * 4

    def test_batch_stream_is_independent_of_how_many_batches_run(self):
        # Batch 2's content is the same whether the point runs 3 batches or
        # 10 -- the heart of stopping-decision invariance.
        point = one_point()
        again = one_point()
        assert MeasurementBatch(point, 2, 8).seed == MeasurementBatch(again, 2, 8).seed

    def test_absolute_packet_indices(self):
        point = one_point()
        batch = MeasurementBatch(point, 3, num_packets=5)
        assert batch.first_packet_index == 15


class TestRunPointAdaptive:
    """One point measured adaptively: batches run until the rule fires."""

    def run_one(self, runner, rule):
        (row,) = AdaptiveScheduler(stop=rule, batch_packets=8).run(
            small_spec(snrs=(5.0,)), runner)
        return row

    def test_stops_when_converged_and_accumulates(self):
        runner = _FixedSequenceRunner([0, 0, 400, 400])
        rule = StopRule(rel_half_width=0.2, min_errors=100, max_packets=400)
        row = self.run_one(runner, rule)
        assert row["stop_reason"] == "converged"
        assert row["batches"] == 3
        assert row["packets"] == 24
        assert row["errors"] == 400
        assert row["trials"] == 3000
        assert row["ber_low"] < row["ber"] < row["ber_high"]

    def test_cap_hits_when_never_converging(self):
        runner = _FixedSequenceRunner([0])
        rule = StopRule(rel_half_width=0.01, min_errors=1, max_packets=32)
        row = self.run_one(runner, rule)
        assert row["stop_reason"] == "max_packets"
        assert row["packets"] == 32

    def test_missing_count_keys_are_reported(self):
        state = AdaptivePointState(one_point())
        with pytest.raises(ValueError, match="trials|errors"):
            state.consume(state.next_batch(8), {"bit_errors": 1})


class TestExtrasMerging:
    def run_state(self, results):
        state = AdaptivePointState(one_point())
        for index, result in enumerate(results):
            state.consume(MeasurementBatch(state.point, index, 8), result)
        return state.row()

    def test_arrays_concatenate_in_batch_order(self):
        row = self.run_state([
            {"errors": 1, "trials": 10, "values": np.array([1.0, 2.0])},
            {"errors": 1, "trials": 10, "values": np.array([3.0])},
        ])
        assert list(row["values"]) == [1.0, 2.0, 3.0]

    def test_numbers_sum_and_strings_keep_last(self):
        row = self.run_state([
            {"errors": 1, "trials": 10, "packet_errors": 2, "label": "first"},
            {"errors": 1, "trials": 10, "packet_errors": 3, "label": "second"},
        ])
        assert row["packet_errors"] == 5
        assert row["label"] == "second"

    def test_mergeable_objects_fold_via_merge(self):
        row = self.run_state([
            {"errors": 1, "trials": 10, "m": BerMeasurement(2, 100)},
            {"errors": 1, "trials": 10, "m": BerMeasurement(5, 300)},
        ])
        assert (row["m"].errors, row["m"].bits) == (7, 400)

    def test_counts_accumulate_into_one_measurement(self):
        row = self.run_state([{"errors": 3, "trials": 100},
                              {"errors": 5, "trials": 100}])
        assert (row["errors"], row["trials"]) == (8, 200)
        assert row["ber"] == pytest.approx(0.04)


class TestAdaptiveScheduler:
    def rule(self):
        return StopRule(rel_half_width=0.25, min_errors=40, ber_floor=2e-3,
                        max_packets=48)

    def test_serial_rows_make_sense(self):
        rows = AdaptiveScheduler(stop=self.rule(), batch_packets=8).run(
            small_spec(), run_link_ber_batch
        )
        assert [row["snr_db"] for row in rows] == [4.0, 6.0, 8.5]
        for row in rows:
            assert row["stop_reason"] in (
                "converged", "target_errors", "ber_floor", "max_packets"
            )
            assert row["packets"] == 8 * row["batches"]
            assert row["trials"] == row["packets"] * 600
        # The noisy low-SNR point settles long before the cap; the clean
        # high-SNR tail keeps (or caps out) collecting -- adaptivity.
        assert rows[0]["stop_reason"] == "converged"
        assert rows[0]["packets"] < rows[-1]["packets"]

    def test_default_chunk_runner_is_the_link_runner(self):
        scheduler = AdaptiveScheduler(stop=self.rule(), batch_packets=8)
        assert scheduler.run(small_spec()) == scheduler.run(
            small_spec(), run_link_ber_batch
        )

    def test_serial_and_process_backends_are_bit_for_bit_identical(self):
        """Acceptance: fixed spec + budget => identical rows (packets spent
        and stop reasons included) on serial and 4-worker process backends."""
        spec = small_spec()
        stop = self.rule()
        serial = AdaptiveScheduler(stop=stop, batch_packets=8, budget=96).run(
            spec, run_link_ber_batch
        )
        process = AdaptiveScheduler(
            stop=stop, batch_packets=8, budget=96,
            executor=SweepExecutor("process", max_workers=4),
        ).run(spec, run_link_ber_batch)
        assert process == serial  # element-for-element, reasons and spend too

    def test_budget_exhaustion_stops_remaining_points(self):
        # Budget covers exactly one round of three batches: everything
        # unconverged after it stops with reason "budget".
        rows = AdaptiveScheduler(
            stop=StopRule(rel_half_width=0.01, min_errors=10**9, max_packets=10**6),
            batch_packets=8, budget=24,
        ).run(small_spec(), _FixedSequenceRunner([5]))
        assert [row["packets"] for row in rows] == [8, 8, 8]
        assert {row["stop_reason"] for row in rows} == {"budget"}
        assert sum(row["packets"] for row in rows) <= 24

    def test_budget_flows_to_the_loosest_points(self):
        # Three points; the runner makes point 0 converge immediately while the
        # others stay loose.  The freed budget must be spent on the loose
        # points, not returned.
        class Runner:
            def __call__(self, batch):
                if batch.point.coordinates["snr_db"] == 4.0:
                    return {"errors": 2500, "trials": 10_000}
                return {"errors": 0, "trials": 10_000}

        rows = AdaptiveScheduler(
            stop=StopRule(rel_half_width=0.2, min_errors=100, max_packets=80),
            batch_packets=8, budget=96,
        ).run(small_spec(), Runner())
        assert rows[0]["stop_reason"] == "converged"
        assert rows[0]["packets"] == 8
        # 96 - 8 = 88 packets left for the two loose points (=> 40 each in
        # whole batches under the per-point cap, with index tie-breaks).
        assert rows[1]["packets"] + rows[2]["packets"] > 2 * rows[0]["packets"]
        assert sum(row["packets"] for row in rows) <= 96

    def test_pure_budget_mode_runs_round_robin(self):
        rows = AdaptiveScheduler(stop=None, batch_packets=8, budget=48).run(
            small_spec(), _FixedSequenceRunner([1])
        )
        assert [row["packets"] for row in rows] == [16, 16, 16]
        assert {row["stop_reason"] for row in rows} == {"budget"}

    def test_unbounded_scheduler_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveScheduler(stop=None)
        with pytest.raises(ValueError):
            AdaptiveScheduler(stop=StopRule(rel_half_width=0.2))
        with pytest.raises(ValueError):
            AdaptiveScheduler(stop=StopRule(max_packets=8), batch_packets=0)
        with pytest.raises(ValueError):
            AdaptiveScheduler(stop=StopRule(max_packets=8)).run(
                small_spec(), _FixedSequenceRunner([1]), on_error="abort"
            )

    def test_raise_mode_names_the_failing_batch(self):
        with pytest.raises(SweepError) as excinfo:
            AdaptiveScheduler(stop=StopRule(max_packets=32), batch_packets=8).run(
                small_spec(), fail_on_second_batch
            )
        assert "batch=1" in str(excinfo.value)
        assert "decoder exploded" in str(excinfo.value)

    def test_capture_mode_quarantines_the_failing_point(self):
        class FailAtSix:
            def __call__(self, batch):
                if batch.point.coordinates["snr_db"] == 6.0:
                    raise RuntimeError("bad point")
                return {"errors": 1000, "trials": 2000}

        rows = AdaptiveScheduler(
            stop=StopRule(rel_half_width=0.3, min_errors=10, max_packets=16),
            batch_packets=8,
        ).run(small_spec(), FailAtSix(), on_error="capture")
        assert rows[1]["stop_reason"] == "error"
        assert "bad point" in rows[1]["error"]
        assert rows[1]["packets"] == 0
        assert rows[0]["stop_reason"] == "converged"
        assert rows[2]["stop_reason"] == "converged"

    def test_failed_batches_still_debit_the_budget(self):
        # The budget counts dispatched traffic: a batch whose runner fails
        # in capture mode is not refunded, so a failing point cannot make
        # the sweep exceed its global cap.
        class AlwaysFail:
            def __call__(self, batch):
                raise RuntimeError("boom")

        rows = AdaptiveScheduler(stop=None, batch_packets=8, budget=8).run(
            small_spec(snrs=(4.0, 6.0)), AlwaysFail(), on_error="capture"
        )
        # Budget funded exactly one batch; it went to the first point and
        # was spent even though the batch errored, so the second point got
        # nothing at all.
        assert rows[0]["stop_reason"] == "error"
        assert rows[1]["stop_reason"] == "budget"
        assert [row["packets"] for row in rows] == [0, 0]

    def test_batch_streams_are_what_the_scheduler_actually_uses(self):
        # The seeds consumed by a scheduled run are exactly the per-batch
        # derived streams, in batch order per point.
        rows = AdaptiveScheduler(stop=StopRule(max_packets=16),
                                 batch_packets=8).run(
            small_spec(), seed_echo_runner
        )
        for row, point in zip(rows, small_spec().points()):
            expected = [MeasurementBatch(point, k, 8).seed for k in range(2)]
            assert list(row["seeds"]) == expected


class TestAdaptiveLinkPointRunner:
    """The link runners: adaptive depth through Experiment(stop=...),
    fixed depth through run_scenario_point, and the satellite
    passthroughs."""

    def constants(self, **extra):
        constants = dict(SMALL_CONSTANTS, num_packets=48)
        constants.update(extra)
        return constants

    def adaptive(self, spec, rule, batch_packets=8, executor=None):
        return Experiment(sweep=spec, stop=rule,
                          batch_packets=batch_packets).run(
            executor or SweepExecutor("serial"))

    def test_stop_param_is_refused_by_the_fixed_point_runner(self):
        # Adaptive depth is an Experiment argument; a stop param must not
        # silently run at fixed depth.
        spec = SweepSpec({"rate_mbps": [24], "snr_db": [5.0]},
                         constants=self.constants(stop=StopRule(max_packets=8)),
                         seed=23)
        with pytest.raises(SweepError, match=r"Experiment\(stop=\.\.\.\)"):
            SweepExecutor("serial").run(spec, run_scenario_point)

    def test_adaptive_mode_stops_early_and_reports_spend(self):
        spec = SweepSpec({"rate_mbps": [24], "snr_db": [4.0]},
                         constants=SMALL_CONSTANTS, seed=23)
        (row,) = self.adaptive(
            spec, StopRule(rel_half_width=0.25, min_errors=40, max_packets=48))
        assert row["stop_reason"] == "converged"
        assert row["packets"] < 48  # the cap, not the depth
        assert row["trials"] == row["packets"] * 600
        assert row["ber_low"] <= row["ber"] <= row["ber_high"]

    def test_adaptive_rows_identical_across_backends(self):
        spec = SweepSpec({"rate_mbps": [24], "snr_db": [4.0, 8.5]},
                         constants=SMALL_CONSTANTS, seed=23)
        rule = StopRule(rel_half_width=0.25, min_errors=40, max_packets=48)
        serial = self.adaptive(spec, rule)
        process = self.adaptive(
            spec, rule,
            executor=SweepExecutor("process", max_workers=2))
        assert process == serial

    def test_fading_passthrough_changes_the_channel(self):
        awgn = SweepSpec({"rate_mbps": [24], "snr_db": [12.0]},
                         constants=self.constants(num_packets=16), seed=23)
        faded = SweepSpec(
            {"rate_mbps": [24], "snr_db": [12.0]},
            constants=self.constants(
                num_packets=16,
                fading={"doppler_hz": 20.0, "packet_interval_s": 0.05},
            ),
            seed=23,
        )
        (clean,) = SweepExecutor("serial").run(awgn, run_scenario_point)
        (dirty,) = SweepExecutor("serial").run(faded, run_scenario_point)
        # 12 dB AWGN is error-free at this size; Rayleigh fades are not.
        assert clean["bit_errors"] == 0
        assert dirty["bit_errors"] > 0
        # Deterministic: same spec, same rows (and picklable through a pool).
        (again,) = SweepExecutor("process", max_workers=1).run(
            faded, run_scenario_point
        )
        assert again == dirty

    def test_fading_trace_is_batch_invariant(self):
        # The fading process is seeded per point, sampled at absolute packet
        # indices: an adaptive run's trace is one continuous process.
        spec = SweepSpec(
            {"rate_mbps": [24], "snr_db": [8.0]},
            constants=dict(SMALL_CONSTANTS, fading={"doppler_hz": 200.0,
                                                    "packet_interval_s": 0.01}),
            seed=23,
        )
        # Cap-bound: the statistics never converge before 16 packets.
        rule = StopRule(rel_half_width=1e-9, min_errors=10**9, max_packets=16)
        for batch_packets in (4, 8, 16):
            (row,) = self.adaptive(spec, rule, batch_packets=batch_packets)
            assert row["packets"] == 16
            # Different batch splits draw different noise, but the per-point
            # fading realisation they ride on is shared; the measured BER
            # must stay in the same fade-dominated ballpark.
            assert row["errors"] > 0

    def test_llr_format_passthrough_quantises(self):
        float_spec = SweepSpec({"rate_mbps": [24], "snr_db": [6.0]},
                               constants=self.constants(num_packets=8), seed=23)
        coarse = SweepSpec(
            {"rate_mbps": [24], "snr_db": [6.0]},
            constants=self.constants(num_packets=8, llr_format=3),
            seed=23,
        )
        named = SweepSpec(
            {"rate_mbps": [24], "snr_db": [6.0]},
            constants=self.constants(
                num_packets=8, llr_format={"total_bits": 3, "max_abs": 8.0}
            ),
            seed=23,
        )
        (reference,) = SweepExecutor("serial").run(float_spec, run_scenario_point)
        (quantised,) = SweepExecutor("serial").run(coarse, run_scenario_point)
        (from_dict,) = SweepExecutor("serial").run(named, run_scenario_point)
        # 3-bit quantisation must change the decode (same seed, same noise).
        assert quantised["ber"] != reference["ber"]
        assert from_dict["bit_errors"] == quantised["bit_errors"]

    def test_llr_format_rejects_floats_and_bools_clearly(self):
        for bad in (6.0, np.float64(6.0), True, False):
            spec = SweepSpec(
                {"rate_mbps": [24], "snr_db": [6.0]},
                constants=self.constants(num_packets=4, llr_format=bad),
                seed=23,
            )
            with pytest.raises(SweepError, match="llr_format"):
                SweepExecutor("serial").run(spec, run_scenario_point)


class TestTrafficSaving:
    """Adaptive stopping versus the fixed-depth grid with the same
    worst-point guarantee, on the Figure-6 workload (24 Mb/s, BCJR,
    1704-bit packets, eight SNR points)."""

    SNRS = [4.0, 4.75, 5.5, 6.25, 7.0, 7.75, 8.5, 9.0]

    def run(self, rule):
        return Experiment(
            scenario=Scenario(decoder="bcjr", packet_bits=1704),
            sweep=SweepSpec({"rate_mbps": [24], "snr_db": self.SNRS},
                            constants={"batch_size": 8}, seed=23),
            stop=rule, batch_packets=8,
        ).run(SweepExecutor("serial"))

    @staticmethod
    def worst_looseness(rows, rule):
        """The worst point's Wilson looseness under ``rule``'s ask.

        A zero-error point whose upper bound is below the floor has
        proved its BER is beyond what the ask can resolve, so it counts
        as exactly meeting the target, never as tighter.
        """
        worst = 0.0
        for row in rows:
            measurement = BerMeasurement(row["errors"], row["trials"])
            looseness = rule.looseness(measurement)
            if (measurement.errors == 0
                    and measurement.interval[1] <= rule.ber_floor):
                looseness = min(looseness, rule.rel_half_width)
            worst = max(worst, looseness)
        return worst

    def test_fixed_depth_spends_at_least_twice_the_packets(self):
        rule = StopRule(rel_half_width=0.25, min_errors=30, ber_floor=1e-4,
                        max_packets=96)
        adaptive = self.run(rule)
        # The smallest uniform depth with the same worst-point guarantee
        # is what the hungriest adaptive point needed.  Each adaptive
        # point's batches are a prefix of its fixed-depth batches, so the
        # comparison is exact, not statistical.
        depth = max(row["packets"] for row in adaptive)
        fixed = self.run(StopRule(rel_half_width=None, max_packets=depth))
        adaptive_total = sum(row["packets"] for row in adaptive)
        fixed_total = sum(row["packets"] for row in fixed)
        assert fixed_total == len(self.SNRS) * depth
        assert fixed_total >= 2 * adaptive_total
        assert self.worst_looseness(adaptive, rule) \
            <= self.worst_looseness(fixed, rule) + 1e-12
        # Adaptivity expressed itself: some point stopped on statistics.
        assert any(row["stop_reason"] in ("converged", "ber_floor")
                   for row in adaptive)


class TestStopRuleSerialisation:
    def test_to_dict_from_dict_round_trips(self):
        rule = StopRule(rel_half_width=0.2, min_errors=30, target_errors=100,
                        ber_floor=1e-4, max_packets=64, confidence=0.9)
        rebuilt = StopRule.from_dict(rule.to_dict())
        assert rebuilt == rule

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="patience"):
            StopRule.from_dict({"max_packets": 16, "patience": 3})


class TestAdaptiveTrajectory:
    """The pull-based state machine must replay the scheduler exactly."""

    def rule(self):
        return StopRule(rel_half_width=0.25, min_errors=40, ber_floor=2e-3,
                        max_packets=48)

    def drive(self, trajectory, runner, consume_order=None):
        """Run a trajectory by hand, serially, optionally scrambling the
        order results are consumed in within each round."""
        while True:
            batches = trajectory.start_round()
            if not batches:
                break
            results = [(batch, dict(runner(batch))) for batch in batches]
            if consume_order is not None:
                results = consume_order(results)
            for batch, result in results:
                trajectory.consume(batch, result)
        assert trajectory.finished
        return trajectory.rows()

    def test_hand_driven_trajectory_matches_the_scheduler(self):
        scheduler_rows = AdaptiveScheduler(
            stop=self.rule(), batch_packets=8, budget=96
        ).run(small_spec(), run_link_ber_batch)
        trajectory = AdaptiveTrajectory(small_spec(), stop=self.rule(),
                                        batch_packets=8, budget=96)
        assert self.drive(trajectory, run_link_ber_batch) == scheduler_rows

    def test_consume_order_within_a_round_is_irrelevant(self):
        forward = AdaptiveTrajectory(small_spec(), stop=self.rule(),
                                     batch_packets=8)
        backward = AdaptiveTrajectory(small_spec(), stop=self.rule(),
                                      batch_packets=8)
        rows = self.drive(forward, run_link_ber_batch)
        reversed_rows = self.drive(backward, run_link_ber_batch,
                                   consume_order=lambda r: r[::-1])
        assert reversed_rows == rows

    def test_budget_exhaustion_marks_active_points(self):
        trajectory = AdaptiveTrajectory(
            small_spec(),
            stop=StopRule(rel_half_width=0.01, min_errors=10**9,
                          max_packets=10**6),
            batch_packets=8, budget=24,
        )
        rows = self.drive(trajectory, run_link_ber_batch)
        assert all(row["stop_reason"] == "budget" for row in rows)
        assert trajectory.budget_left < 8  # cannot fund another batch

    def test_start_round_refuses_while_in_flight(self):
        trajectory = AdaptiveTrajectory(small_spec(), stop=self.rule(),
                                        batch_packets=8)
        trajectory.start_round()
        assert trajectory.round_in_flight
        with pytest.raises(RuntimeError, match="in flight"):
            trajectory.start_round()

    def test_consume_rejects_batches_it_never_started(self):
        trajectory = AdaptiveTrajectory(small_spec(), stop=self.rule(),
                                        batch_packets=8)
        stranger = MeasurementBatch(one_point(), 5, 8)
        with pytest.raises(ValueError, match="not started"):
            trajectory.consume(stranger, {"errors": 0, "trials": 100})

    def test_error_results_stop_the_point(self):
        trajectory = AdaptiveTrajectory(small_spec(snrs=(5.0,)),
                                        stop=self.rule(), batch_packets=8)
        (batch,) = trajectory.start_round()
        state = trajectory.consume(batch, {"error": "decoder exploded"})
        assert state.stop_reason == "error"
        assert trajectory.finished
        assert trajectory.rows()[0]["error"] == "decoder exploded"

    def test_unbounded_trajectory_is_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            AdaptiveTrajectory(small_spec(), stop=StopRule(rel_half_width=0.3),
                               batch_packets=8)
