"""Tests for the declarative Scenario/Experiment front door.

Two contracts are under test:

* :class:`Scenario` is validated at construction, round-trips through
  ``to_dict``/``from_dict`` and has a canonical, field-sensitive
  ``content_hash`` (the store namespace anchor).
* :class:`Experiment` subsumes the fixed-depth executor path and the
  adaptive scheduler path behind one ``run()``, producing exactly the
  rows those layers produce.
"""

import numpy as np
import pytest

from repro.analysis.adaptive import AdaptiveScheduler, StopRule, run_link_ber_batch
from repro.analysis.scenario import Experiment, Scenario, run_scenario_point
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor, SweepSpec

#: A miniature link workload shared by the equivalence tests.
SMALL = {"decoder": "bcjr", "packet_bits": 600}


def small_sweep(snrs=(5.0, 8.0), constants=(), seed=23):
    return SweepSpec({"rate_mbps": [24], "snr_db": list(snrs)},
                     constants=dict(constants), seed=seed)


class TestScenarioValidation:
    def test_defaults_are_the_figure6_link(self):
        scenario = Scenario()
        assert scenario.decoder == "bcjr"
        assert scenario.packet_bits == 1704
        assert scenario.fading is None and scenario.llr_format is None
        assert scenario.demapper_scaled is False

    def test_rejects_bad_rate(self):
        for bad in (0, -6, "24", True):
            with pytest.raises(ValueError, match="rate_mbps"):
                Scenario(rate_mbps=bad)

    def test_rejects_bad_snr(self):
        with pytest.raises(ValueError, match="snr_db"):
            Scenario(snr_db="6 dB")

    def test_rejects_bad_packet_bits(self):
        for bad in (0, -1, 600.5, "600"):
            with pytest.raises(ValueError, match="packet_bits"):
                Scenario(packet_bits=bad)

    def test_packet_bits_normalised_to_int(self):
        assert Scenario(packet_bits=np.int64(600)).packet_bits == 600
        assert isinstance(Scenario(packet_bits=600.0).packet_bits, int)

    def test_rejects_float_and_bool_llr_format(self):
        for bad in (6.0, np.float64(6.0), True, False):
            with pytest.raises(ValueError, match="llr_format"):
                Scenario(llr_format=bad)
        with pytest.raises(ValueError, match="llr_format"):
            Scenario(llr_format=0)

    def test_rejects_unknown_fading_keys(self):
        with pytest.raises(ValueError, match="doppler_mhz"):
            Scenario(fading={"doppler_mhz": 20.0})
        with pytest.raises(ValueError, match="fading"):
            Scenario(fading=-3.0)
        with pytest.raises(ValueError, match="fading"):
            Scenario(fading="rayleigh")

    def test_demapper_scaled_normalised_to_bool(self):
        assert Scenario(demapper_scaled=1).demapper_scaled is True
        assert Scenario(demapper_scaled=0).demapper_scaled is False


class TestScenarioSerialisation:
    def scenario(self):
        return Scenario(rate_mbps=24, snr_db=6.0, decoder="sova",
                        packet_bits=600, fading={"doppler_hz": 20.0},
                        llr_format=4, demapper_scaled=True)

    def test_to_dict_from_dict_round_trip(self):
        scenario = self.scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="snr"):
            Scenario.from_dict({"snr": 6.0})

    def test_content_hash_is_stable_and_field_sensitive(self):
        scenario = self.scenario()
        assert scenario.content_hash() == self.scenario().content_hash()
        assert scenario.content_hash() == Scenario.from_dict(
            scenario.to_dict()).content_hash()
        changed = [
            scenario.replace(snr_db=7.0),
            scenario.replace(decoder="bcjr"),
            scenario.replace(packet_bits=1704),
            scenario.replace(fading=None),
            scenario.replace(llr_format=None),
            scenario.replace(demapper_scaled=False),
        ]
        hashes = {c.content_hash() for c in changed} | {scenario.content_hash()}
        assert len(hashes) == len(changed) + 1

    def test_value_types_are_part_of_the_identity(self):
        # Mirrors the sweep layer's seed tokens: 24 and 24.0 are distinct.
        assert Scenario(rate_mbps=24).content_hash() \
            != Scenario(rate_mbps=24.0).content_hash()

    def test_object_valued_fields_are_not_declarative(self):
        def gain(_index):
            return 1.0

        faded = Scenario(fading=gain)
        assert not faded.is_declarative
        with pytest.raises(ValueError, match="fading"):
            faded.to_dict()
        with pytest.raises(ValueError, match="fading"):
            faded.content_hash()

    def test_params_omits_unset_fields(self):
        assert Scenario(decoder="bcjr", packet_bits=600).params() == {
            "decoder": "bcjr", "packet_bits": 600,
        }
        assert Scenario(rate_mbps=24, snr_db=6.0, decoder=None,
                        packet_bits=None).params() == {
            "rate_mbps": 24, "snr_db": 6.0,
        }
        assert Scenario(demapper_scaled=True).params()["demapper_scaled"] is True

    def test_scenarios_are_hashable_even_with_mapping_fields(self):
        mapped = Scenario(fading={"doppler_hz": 20.0},
                          llr_format={"total_bits": 4, "max_abs": 8.0})
        same = Scenario(fading={"doppler_hz": 20.0},
                        llr_format={"max_abs": 8.0, "total_bits": 4})
        assert hash(mapped) == hash(same) and mapped == same
        assert len({mapped, same, Scenario()}) == 2  # usable as set members

    def test_from_params_picks_link_fields_and_ignores_workload_knobs(self):
        params = {"rate_mbps": 24, "snr_db": 5.0, "decoder": "bcjr",
                  "packet_bits": 600, "num_packets": 4, "batch_size": 4,
                  "stop": None, "window": 32}
        scenario = Scenario.from_params(params)
        assert scenario == Scenario(rate_mbps=24, snr_db=5.0,
                                    decoder="bcjr", packet_bits=600)


class TestExperimentValidation:
    def test_sweep_is_required(self):
        with pytest.raises(ValueError, match="SweepSpec"):
            Experiment(scenario=Scenario())

    def test_scenario_type_is_checked(self):
        with pytest.raises(TypeError, match="Scenario"):
            Experiment(scenario={"decoder": "bcjr"}, sweep=small_sweep())

    def test_stop_constant_is_rejected(self):
        spec = small_sweep(constants={"stop": StopRule(max_packets=8)})
        with pytest.raises(ValueError, match="Experiment-level"):
            Experiment(scenario=Scenario(), sweep=spec)

    def test_adaptive_knobs_need_a_stop_rule(self):
        with pytest.raises(ValueError, match="budget"):
            Experiment(scenario=Scenario(), sweep=small_sweep(), budget=64)
        with pytest.raises(ValueError, match="batch_packets"):
            Experiment(scenario=Scenario(), sweep=small_sweep(), batch_packets=8)

    def test_store_needs_scenario_and_stop(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="Scenario"):
            Experiment(sweep=small_sweep(), stop=StopRule(max_packets=8),
                       store=store)
        with pytest.raises(ValueError, match="stop"):
            Experiment(scenario=Scenario(), sweep=small_sweep(), store=store)

    def test_scenario_axis_collision_names_the_parameter(self):
        experiment = Experiment(
            scenario=Scenario(snr_db=6.0, **SMALL),
            sweep=small_sweep(),
        )
        with pytest.raises(ValueError, match="snr_db"):
            experiment.spec()

    def test_scenario_constant_collision_names_the_parameter(self):
        experiment = Experiment(
            scenario=Scenario(**SMALL),
            sweep=small_sweep(constants={"packet_bits": 1704}),
        )
        with pytest.raises(ValueError, match="packet_bits"):
            experiment.spec()

    def test_spec_merges_scenario_params_into_constants(self):
        experiment = Experiment(
            scenario=Scenario(**SMALL),
            sweep=small_sweep(constants={"num_packets": 4}),
        )
        spec = experiment.spec()
        assert spec.constants == {"decoder": "bcjr", "packet_bits": 600,
                                  "num_packets": 4}
        assert spec.seed_entropy == small_sweep().seed_entropy


class TestExperimentRuns:
    def constants(self, **extra):
        constants = {"num_packets": 4, "batch_size": 4}
        constants.update(extra)
        return constants

    def test_fixed_depth_rows_match_the_executor_path(self):
        experiment = Experiment(
            scenario=Scenario(**SMALL),
            sweep=small_sweep(constants=self.constants()),
        )
        rows = experiment.run(SweepExecutor("serial"))
        merged = SweepSpec(
            {"rate_mbps": [24], "snr_db": [5.0, 8.0]},
            constants=dict(SMALL, **self.constants()), seed=23,
        )
        reference = SweepExecutor("serial").run(merged, run_scenario_point)
        assert rows == reference
        assert rows[0]["num_bits"] == 4 * 600

    def test_adaptive_rows_match_the_scheduler_path(self):
        stop = StopRule(rel_half_width=0.3, min_errors=20, max_packets=16)
        experiment = Experiment(
            scenario=Scenario(**SMALL),
            sweep=small_sweep(constants={"batch_size": 4}),
            stop=stop,
            batch_packets=4,
        )
        rows = experiment.run(SweepExecutor("serial"))
        merged = SweepSpec(
            {"rate_mbps": [24], "snr_db": [5.0, 8.0]},
            constants=dict(SMALL, batch_size=4), seed=23,
        )
        reference = AdaptiveScheduler(
            stop=stop, batch_packets=4, executor=SweepExecutor("serial"),
        ).run(merged, run_link_ber_batch)
        assert rows == reference
        assert all(row["stop_reason"] is not None for row in rows)

    def test_custom_runner_is_dispatched(self):
        experiment = Experiment(
            sweep=small_sweep(), runner=_echo_params_runner,
        )
        rows = experiment.run(SweepExecutor("serial"))
        assert [row["echo_snr"] for row in rows] == [5.0, 8.0]

    def test_batch_packets_resolution_mirrors_the_legacy_defaults(self):
        spec = small_sweep(constants={"batch_size": 8})
        stop = StopRule(max_packets=8)
        assert Experiment(scenario=Scenario(), sweep=spec,
                          stop=stop).resolved_batch_packets() == 8
        spec = small_sweep(constants={"batch_size": 8, "batch_packets": 2})
        assert Experiment(scenario=Scenario(), sweep=spec,
                          stop=stop).resolved_batch_packets() == 2
        assert Experiment(scenario=Scenario(), sweep=spec, stop=stop,
                          batch_packets=16).resolved_batch_packets() == 16

    def test_os_entropy_sweeps_keep_one_spec_and_digest(self, tmp_path):
        # SweepSpec(seed=None) draws fresh OS entropy at construction; the
        # experiment must capture that entropy once, so repeated spec() /
        # store_digest() calls describe the grid actually executed and a
        # warm re-run of the same Experiment object resumes.
        experiment = Experiment(
            scenario=Scenario(**SMALL),
            sweep=SweepSpec({"rate_mbps": [24], "snr_db": [5.0]},
                            constants={"batch_size": 4}, seed=None),
            stop=StopRule(max_packets=8), batch_packets=4,
            store=ResultStore(tmp_path),
        )
        assert experiment.store_digest() == experiment.store_digest()
        assert experiment.spec().seed_entropy == experiment.spec().seed_entropy
        cold = experiment.run(SweepExecutor("serial"))
        assert experiment.last_store_stats["misses"] > 0
        warm = experiment.run(SweepExecutor("serial"))
        assert warm == cold
        assert experiment.last_store_stats["misses"] == 0

    def test_store_digest_is_independent_of_stop_and_budget(self, tmp_path):
        def build(stop, budget):
            return Experiment(
                scenario=Scenario(**SMALL),
                sweep=small_sweep(constants={"batch_size": 4}),
                stop=stop, budget=budget, batch_packets=4,
                store=ResultStore(tmp_path),
            )

        loose = build(StopRule(rel_half_width=0.5, max_packets=8), None)
        tight = build(StopRule(rel_half_width=0.1, max_packets=64), 512)
        assert loose.store_digest() == tight.store_digest()

    def test_store_digest_tracks_what_batches_depend_on(self, tmp_path):
        def build(scenario=Scenario(**SMALL), seed=23, batch_packets=4,
                  constants={"batch_size": 4}):
            return Experiment(
                scenario=scenario,
                sweep=small_sweep(constants=constants, seed=seed),
                stop=StopRule(max_packets=8), batch_packets=batch_packets,
                store=ResultStore(tmp_path),
            )

        base = build().store_digest()
        assert build(scenario=Scenario(decoder="sova", packet_bits=600)
                     ).store_digest() != base
        assert build(seed=24).store_digest() != base
        assert build(batch_packets=8).store_digest() != base
        assert build(constants={"batch_size": 2}).store_digest() != base
        # ...but not on the axis values: extending an axis reuses the
        # namespace (per-point spawn keys already separate the points).
        extended = Experiment(
            scenario=Scenario(**SMALL),
            sweep=SweepSpec({"rate_mbps": [24], "snr_db": [5.0, 6.5, 8.0]},
                            constants={"batch_size": 4}, seed=23),
            stop=StopRule(max_packets=8), batch_packets=4,
            store=ResultStore(tmp_path),
        )
        assert extended.store_digest() == base


def _echo_params_runner(point):
    return {"echo_snr": point["snr_db"]}


class TestBatchGranularHooks:
    """Experiment.trajectory()/store_view(): the service's dispatch hooks."""

    def experiment(self, **overrides):
        kwargs = dict(
            scenario=Scenario(**SMALL),
            sweep=SweepSpec({"rate_mbps": [24], "snr_db": [5.0, 8.0]},
                            constants={"batch_size": 4}, seed=23),
            stop=StopRule(rel_half_width=0.3, min_errors=20, max_packets=16),
            batch_packets=4,
        )
        kwargs.update(overrides)
        return Experiment(**kwargs)

    def test_trajectory_requires_the_adaptive_path(self):
        fixed = Experiment(
            scenario=Scenario(**SMALL),
            sweep=SweepSpec({"rate_mbps": [24], "snr_db": [5.0]},
                            constants={"num_packets": 4}, seed=23),
        )
        with pytest.raises(ValueError, match="adaptive"):
            fixed.trajectory()

    def test_store_view_is_none_without_a_store(self):
        assert self.experiment().store_view() is None

    def test_hand_driven_trajectory_reproduces_run(self):
        experiment = self.experiment()
        trajectory = experiment.trajectory()
        runner = experiment.resolved_runner()
        while True:
            batches = trajectory.start_round()
            if not batches:
                break
            for batch in batches:
                trajectory.consume(batch, dict(runner(batch)))
        assert trajectory.rows() == experiment.run(SweepExecutor("serial"))

    def test_run_flushes_the_store_stats_sidecar(self, tmp_path):
        from repro.analysis.store import ResultStore, read_sidecar_stats

        store = ResultStore(tmp_path)
        experiment = self.experiment(store=store)
        experiment.run(SweepExecutor("serial"))
        stats = read_sidecar_stats(store.view(experiment.store_digest()).path)
        assert stats["misses"] == experiment.last_store_stats["misses"]
        assert stats["uses"] == 1
