"""Tests for the closed-loop link: decode windows, replay, experiments.

The load-bearing property throughout is *chunk invariance*: every decoded
packet is a pure function of its absolute index, so windows tile, batch
sizes don't matter, and the declarative experiment produces bit-for-bit
identical rows across executors, worker counts, batch quanta and store
temperatures.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis.adaptive import MeasurementBatch
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.channel.awgn import awgn
from repro.mac.evaluation import SoftRateEvaluation
from repro.mac.rateadapt import (ClosedLoopLink, MinstrelController,
                                 PrecomputedOutcomes, RateAdaptExperiment,
                                 RateAdaptScenario, RateFeedback,
                                 SampleRateController, oracle_trajectory,
                                 replay_trajectory, run_rate_adapt_batch)
from repro.mac.rateadapt.closedloop import LinkTrajectory
from repro.mac.softrate import SoftRateController
from repro.phy.params import RATE_TABLE
from repro.phy.receiver import Receiver
from repro.phy.transmitter import Transmitter
from repro.softphy.ber_estimator import BerEstimator

SMALL_RATES = RATE_TABLE[:3]


def small_link(**overrides):
    kwargs = dict(snr_db=10.0, doppler_hz=40.0, packet_bits=200, seed=7,
                  rates=SMALL_RATES, decoder="bcjr")
    kwargs.update(overrides)
    return ClosedLoopLink(**kwargs)


def synthetic_outcomes(num_packets=24, num_rates=3):
    """Deterministic outcomes whose optimal rate walks up and down."""
    optimal = np.clip(np.round(
        1 + np.sin(np.arange(num_packets) / 3.0) * (num_rates - 1)
    ).astype(int), 0, num_rates - 1)
    success = np.zeros((num_packets, num_rates), dtype=bool)
    for i, opt in enumerate(optimal):
        success[i, :opt + 1] = True
    pber = np.where(success, 1e-9, 1e-1)
    return PrecomputedOutcomes(success, pber, pber.copy()), optimal


class TestTrajectories:
    def test_oracle_tracks_the_optimal_rate(self):
        outcomes, optimal = synthetic_outcomes()
        oracle = oracle_trajectory(outcomes, 200, rates=SMALL_RATES)
        assert oracle.name == "oracle"
        assert np.array_equal(oracle.chosen_indices, optimal)
        assert np.array_equal(oracle.optimal_indices, optimal)
        assert oracle.delivered.all()  # every synthetic packet has a rate
        assert oracle.selection_fractions()["accurate"] == 1.0

    def test_oracle_pays_for_outage_packets(self):
        outcomes, _ = synthetic_outcomes(num_packets=4)
        outcomes.success[2, :] = False  # no rate delivers packet 2
        oracle = oracle_trajectory(outcomes, 200, rates=SMALL_RATES)
        assert not oracle.delivered[2]
        assert oracle.chosen_indices[2] == 0
        assert oracle.airtime_us[2] > 0.0
        assert oracle.delivered_packets == 3

    def test_replay_scores_delivery_at_the_chosen_rate(self):
        outcomes, optimal = synthetic_outcomes()
        controller = SoftRateController(lower_pber=1e-7, upper_pber=1e-5,
                                        rates=SMALL_RATES, backoff_packets=2)
        trajectory = replay_trajectory(controller, outcomes, 200)
        assert trajectory.name == "softrate"
        assert trajectory.num_packets == outcomes.num_packets
        expected = outcomes.success[np.arange(outcomes.num_packets),
                                    trajectory.chosen_indices]
        assert np.array_equal(trajectory.delivered, expected)
        assert np.array_equal(trajectory.optimal_indices, optimal)
        fractions = trajectory.selection_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_replay_is_deterministic_for_every_controller_kind(self):
        for make in (lambda: SoftRateController(rates=SMALL_RATES),
                     lambda: SampleRateController(rates=SMALL_RATES,
                                                  packet_bits=200),
                     lambda: MinstrelController(rates=SMALL_RATES,
                                                packet_bits=200)):
            outcomes, _ = synthetic_outcomes()
            first = replay_trajectory(make(), outcomes, 200)
            second = replay_trajectory(make(), outcomes, 200)
            assert np.array_equal(first.chosen_indices, second.chosen_indices)
            assert np.array_equal(first.airtime_us, second.airtime_us)

    def test_rate_count_mismatch_rejected(self):
        outcomes, _ = synthetic_outcomes(num_rates=3)
        with pytest.raises(ValueError, match="8 rates .* decoded at 3"):
            replay_trajectory(SoftRateController(), outcomes, 200)

    def test_row_is_flat_and_json_able(self):
        outcomes, _ = synthetic_outcomes()
        row = replay_trajectory(
            SampleRateController(rates=SMALL_RATES, packet_bits=200),
            outcomes, 200).row()
        assert row["controller"] == "samplerate"
        assert set(row) >= {"packets", "delivered_packets", "achieved_mbps",
                            "total_airtime_us", "underselect", "accurate",
                            "overselect"}
        json.dumps(row)

    def test_empty_trajectory_reads_zero_throughput(self):
        empty = LinkTrajectory("idle", [], [], [], [], 200, SMALL_RATES)
        assert empty.achieved_mbps == 0.0
        assert empty.selection_fractions()["accurate"] == 0.0


class TestDecodeWindow:
    def test_gains_tile_across_windows(self):
        link = small_link()
        whole = link.gains(0, 12)
        parts = np.concatenate([link.gains(0, 4), link.gains(4, 4),
                                link.gains(8, 4)])
        assert np.array_equal(whole, parts)

    def test_windows_tile_bit_for_bit(self):
        link = small_link()
        whole = link.decode_window(0, 12)
        parts = [link.decode_window(first, 4) for first in (0, 4, 8)]
        assert np.array_equal(whole.success,
                              np.vstack([p.success for p in parts]))
        assert np.array_equal(whole.pber_estimate,
                              np.vstack([p.pber_estimate for p in parts]))
        assert np.array_equal(whole.pber_actual,
                              np.vstack([p.pber_actual for p in parts]))

    def test_batch_size_does_not_change_outcomes(self):
        link = small_link()
        coarse = link.decode_window(0, 12, batch_size=16)
        fine = link.decode_window(0, 12, batch_size=5)
        assert np.array_equal(coarse.success, fine.success)
        assert np.array_equal(coarse.pber_estimate, fine.pber_estimate)

    def test_matches_the_figure7_precompute(self):
        # SoftRateEvaluation.precompute is the first_index=0 window of the
        # same link — one code path, so the matrices agree bit for bit.
        evaluation = SoftRateEvaluation(snr_db=10.0, doppler_hz=40.0,
                                        num_packets=6, packet_bits=200,
                                        seed=7, rates=SMALL_RATES)
        from_eval = evaluation.precompute("bcjr", batch_size=3)
        from_link = small_link(doppler_hz=40.0).decode_window(0, 6,
                                                              batch_size=3)
        assert np.array_equal(from_eval.success, from_link.success)
        assert np.array_equal(from_eval.pber_estimate, from_link.pber_estimate)


def per_packet_reference(link, first_index, num_packets, batch_size):
    """The per-packet decode loop ``decode_window`` ran before it drove the
    shared PHY chain, frozen here as an independent reference."""
    estimator = BerEstimator(link.decoder)
    gains = link.gains(first_index, num_packets)
    success = np.zeros((num_packets, len(link.rates)), dtype=bool)
    pber_estimate = np.ones((num_packets, len(link.rates)))
    pber_actual = np.ones((num_packets, len(link.rates)))
    for rate_idx, rate in enumerate(link.rates):
        transmitter = Transmitter(rate)
        receiver = Receiver(rate, decoder=link.decoder)
        geometry = receiver.geometry(link.packet_bits)
        for first in range(0, num_packets, batch_size):
            count = min(batch_size, num_packets - first)
            tx_bits = np.empty((count, link.packet_bits), dtype=np.uint8)
            softs = []
            for offset in range(count):
                row = first + offset
                index = first_index + row
                payload = link.noise.payload(index, link.packet_bits)
                tx_bits[offset] = payload
                samples = transmitter.transmit(payload)
                gain = gains[row]
                rng = link.noise.rng_for(index, purpose="noise")
                received = awgn(samples * gain, link.snr_db, rng=rng)
                csi = np.full(geometry.num_symbols, np.abs(gain) ** 2)
                softs.append(receiver.front_end(
                    received, link.packet_bits, channel_gain=gain,
                    csi_weights=csi))
            decoded = receiver.decode_batch(np.vstack(softs),
                                            link.packet_bits)
            errors = tx_bits != decoded.bits
            rows = slice(first, first + count)
            success[rows, rate_idx] = ~errors.any(axis=1)
            pber_actual[rows, rate_idx] = errors.mean(axis=1)
            if decoded.llr is not None:
                pber_estimate[rows, rate_idx] = estimator.packet_ber(
                    np.abs(decoded.llr), rate.modulation)
    return PrecomputedOutcomes(success, pber_estimate, pber_actual)


class TestFrozenPerPacketReference:
    """``decode_window`` against the per-packet loop it replaced: every
    rate, every decoder, two Dopplers, a window off the stream's start."""

    @pytest.mark.parametrize("batch_size", [3, 16])
    @pytest.mark.parametrize("doppler_hz", [10.0, 80.0])
    @pytest.mark.parametrize("decoder", ["bcjr", "sova", "viterbi"])
    def test_matches_bit_for_bit(self, decoder, doppler_hz, batch_size):
        link = ClosedLoopLink(snr_db=6.0, doppler_hz=doppler_hz,
                              packet_bits=48, seed=11, decoder=decoder)
        got = link.decode_window(5, 7, batch_size=batch_size)
        expected = per_packet_reference(link, 5, 7, batch_size)
        assert got.num_rates == len(RATE_TABLE)
        assert not expected.success.all()  # some rates fail at 6 dB
        assert np.array_equal(got.success, expected.success)
        assert np.array_equal(got.pber_estimate, expected.pber_estimate)
        assert np.array_equal(got.pber_actual, expected.pber_actual)


class TestRunRateAdaptBatch:
    def test_batch_decodes_its_absolute_window(self):
        scenario = RateAdaptScenario(decoder="bcjr", packet_bits=200,
                                     snr_db=10.0, doppler_hz=None)
        experiment = RateAdaptExperiment(scenario,
                                         axes={"doppler_hz": [40.0]},
                                         num_packets=8, batch_packets=4,
                                         seed=3)
        point = experiment.experiment.spec().points()[0]
        batch = MeasurementBatch(point, index=1, num_packets=4)
        result = run_rate_adapt_batch(batch)
        assert result["trials"] == 4
        link = ClosedLoopLink(snr_db=10.0, doppler_hz=40.0, packet_bits=200,
                              seed=point.seed, decoder="bcjr")
        expected = link.decode_window(4, 4)
        assert np.array_equal(result["success"], expected.success)
        assert np.array_equal(result["pber_estimate"], expected.pber_estimate)
        assert result["errors"] == int(
            (~expected.success.any(axis=1)).sum())


@pytest.fixture(scope="module")
def experiment_setup(tmp_path_factory):
    """One cold store-backed run shared by the invariance tests."""
    store_dir = tmp_path_factory.mktemp("ratestore")
    scenario = RateAdaptScenario(decoder="bcjr", packet_bits=200,
                                 snr_db=10.0, doppler_hz=None)
    axes = {"doppler_hz": [10.0, 40.0]}

    def make(num_packets=12, batch_packets=4, directory=store_dir):
        return RateAdaptExperiment(
            scenario, axes=axes, num_packets=num_packets,
            batch_packets=batch_packets, seed=3,
            store=ResultStore(directory))

    cold = make()
    rows = cold.run()
    return {"make": make, "rows": rows, "cold_stats": cold.last_store_stats,
            "store_dir": store_dir}


class TestRateAdaptExperiment:
    def test_cold_run_shape_and_serialisability(self, experiment_setup):
        rows = experiment_setup["rows"]
        # 2 points x (oracle + 3 default controllers).
        assert len(rows) == 2 * 4
        names = {row["controller"] for row in rows}
        assert names == {"oracle", "softrate", "samplerate", "minstrel"}
        for row in rows:
            assert row["packets"] == 12
            assert row["doppler_hz"] in (10.0, 40.0)
            assert 0.0 <= row["achieved_mbps"] <= row["oracle_mbps"] * 10
        json.dumps(rows)
        assert experiment_setup["cold_stats"]["misses"] > 0

    def test_warm_rerun_simulates_nothing_and_matches(self, experiment_setup):
        warm = experiment_setup["make"]()
        rows = warm.run()
        assert warm.last_store_stats["misses"] == 0
        assert warm.last_store_stats["hits"] > 0
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(experiment_setup["rows"], sort_keys=True)

    def test_process_executor_matches_serial(self, experiment_setup,
                                             tmp_path):
        executor = SweepExecutor("process", max_workers=2)
        rows = experiment_setup["make"](directory=tmp_path / "fresh").run(
            executor=executor)
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(experiment_setup["rows"], sort_keys=True)

    def test_worker_env_does_not_change_rows(self, experiment_setup,
                                             monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        rows = experiment_setup["make"](directory=tmp_path / "env").run()
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(experiment_setup["rows"], sort_keys=True)

    def test_batch_quantum_does_not_change_rows(self, experiment_setup,
                                                tmp_path):
        # 5 does not divide 12: the decode overshoots to 15 packets and the
        # experiment trims back to the requested trajectory length.
        rows = experiment_setup["make"](
            batch_packets=5, directory=tmp_path / "quantum").run()
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(experiment_setup["rows"], sort_keys=True)

    def test_longer_rerun_resumes_the_shorter_runs_batches(
            self, experiment_setup):
        # num_packets lives in the stop rule, not the store namespace: the
        # 12-packet run left 3 batches per point, so a 16-packet run only
        # simulates the fourth.
        longer = experiment_setup["make"](num_packets=16)
        rows = longer.run()
        stats = longer.last_store_stats
        assert stats["hits"] == 6
        assert stats["misses"] == 2
        assert all(row["packets"] == 16 for row in rows)

    def test_store_digest_is_stable_across_instances(self, experiment_setup):
        assert experiment_setup["make"]().store_digest() == \
            experiment_setup["make"](num_packets=999).store_digest()

    def test_controller_instances_do_not_leak_state_across_points(self):
        # Passing an instance captures its *configuration*; a fresh
        # controller is rebuilt per point, so dirtying the original between
        # construction and run() must not change the rows.
        scenario = RateAdaptScenario(decoder="bcjr", packet_bits=200,
                                     snr_db=10.0, doppler_hz=None)

        def experiment_with(controller):
            return RateAdaptExperiment(
                scenario, axes={"doppler_hz": [10.0, 40.0]}, num_packets=8,
                batch_packets=4, seed=3, controllers=[controller])

        clean_rows = experiment_with(SampleRateController(packet_bits=200)).run()
        dirty = SampleRateController(packet_bits=200)
        experiment = experiment_with(dirty)
        for _ in range(40):
            dirty.observe(RateFeedback(0, False))
        dirty_rows = experiment.run()
        assert json.dumps(dirty_rows, sort_keys=True) == \
            json.dumps(clean_rows, sort_keys=True)
        assert [row["controller"] for row in clean_rows] == \
            ["oracle", "samplerate"] * 2
