"""Equivalence contract of the fused multi-point simulation rounds.

The fused path (`repro.analysis.fused`) exists purely for throughput, so
its whole correctness story is *equivalence*:

* Under the exact float64 policy a fused group must produce **bit-for-bit**
  the counts the per-batch runner produces — across every 802.11a/g rate,
  every decoder, with fading, with the scaled demapper and with every
  declarative ``llr_format`` spelling.
* Under the approximate float32 policy both paths use the same
  reduced-precision kernels (including the :class:`~repro.phy.demapper.LlrTable`
  fast path), so they agree with each other exactly and with the float64
  reference to BER-level tolerance.
* The :class:`~repro.analysis.adaptive.AdaptiveScheduler`'s ``fused`` flag
  is a pure throughput knob: rows with it on and off are identical.
* float32 results live under a *different* scenario content hash (and
  therefore a different store namespace) than float64 ones, while the
  float64 default leaves every pre-existing hash unchanged.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.adaptive import (
    AdaptiveScheduler,
    MeasurementBatch,
    StopRule,
    run_link_ber_batch,
)
from repro.analysis.fused import (
    FusedBatchGroup,
    FusedBatchRunner,
    fuse_key,
    plan_fused_round,
    run_fused_group,
)
from repro.analysis.scenario import Scenario
from repro.analysis.sweep import SweepSpec
from repro.phy.demapper import LlrTable, axis_soft_values
from repro.phy.dtype import FLOAT32, FLOAT64, dtype_policy
from repro.phy.params import RATE_TABLE

#: Small packets keep the 8-rate x 3-decoder sweep affordable.
PACKET_BITS = 240
BATCH_PACKETS = 6
DECODERS = ("viterbi", "sova", "bcjr")


def make_batches(snrs=(5.0, 8.0), constants=None, seed=23, num_batches=2,
                 batch_packets=BATCH_PACKETS, rates=(24,)):
    """Per-point measurement batches for a small sweep grid."""
    base = {"decoder": "bcjr", "packet_bits": PACKET_BITS}
    base.update(constants or {})
    spec = SweepSpec({"rate_mbps": list(rates), "snr_db": list(snrs)},
                     constants=base, seed=seed)
    return [MeasurementBatch(point, index, batch_packets)
            for point in spec.points() for index in range(num_batches)]


def assert_fused_bit_exact(batches):
    """The fused group reproduces the per-batch runner's counts exactly."""
    fused = run_fused_group(batches)
    reference = [run_link_ber_batch(batch) for batch in batches]
    assert len(fused) == len(reference)
    for got, expected in zip(fused, reference):
        for key in ("errors", "trials", "packet_errors"):
            assert got[key] == expected[key], (key, got, expected)


class TestFusedBitExactness:
    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize(
        "rate_mbps", [int(rate.data_rate_mbps) for rate in RATE_TABLE])
    def test_all_rates_and_decoders(self, rate_mbps, decoder):
        batches = make_batches(
            snrs=(6.0, 9.0), rates=(rate_mbps,), num_batches=1,
            constants={"decoder": decoder})
        assert_fused_bit_exact(batches)

    def test_multiple_batches_per_point(self):
        assert_fused_bit_exact(make_batches(snrs=(4.0, 6.0, 8.0)))

    def test_fading(self):
        assert_fused_bit_exact(make_batches(
            constants={"fading": {"doppler_hz": 50.0}}))

    def test_demapper_scaled(self):
        assert_fused_bit_exact(make_batches(
            constants={"demapper_scaled": True}))

    @pytest.mark.parametrize("llr_format", [None, 6, {"total_bits": 5,
                                                      "max_abs": 4.0}])
    def test_llr_formats(self, llr_format):
        assert_fused_bit_exact(make_batches(
            constants={"llr_format": llr_format}))

    def test_decode_chunking_is_invisible(self):
        batches = make_batches(snrs=(5.0, 7.0), num_batches=2)
        by_default = run_fused_group(batches)
        tiny_chunks = run_fused_group(batches, decode_chunk=5)
        assert by_default == tiny_chunks


#: Decode chunk widths the grouping property is checked at: one packet,
#: a width that splits batches mid-way, and the sweet-spot sizes.
CHUNK_WIDTHS = (1, 7, 16, 32)


@functools.lru_cache(maxsize=None)
def grouping_pool(fading, scaled):
    """Same-``fuse_key`` batches of uneven sizes at three SNRs, each with
    its solo per-batch result.

    Max-log BCJR decisions do not change when a packet's soft values are
    scaled, so the scaled demapper is paired with a narrow LLR format,
    whose saturation makes a wrong per-packet scale change the counts.
    """
    constants = {"demapper_scaled": scaled,
                 "llr_format": 4 if scaled else None}
    if fading:
        constants["fading"] = {"doppler_hz": 50.0}
    spec = SweepSpec({"rate_mbps": [24], "snr_db": [4.0, 5.5, 7.0]},
                     constants=dict(constants, decoder="bcjr",
                                    packet_bits=PACKET_BITS), seed=29)
    batches = [MeasurementBatch(point, index, size)
               for point, size in zip(spec.points(), (3, 5, 2))
               for index in (0, 1)]
    return batches, [run_link_ber_batch(batch) for batch in batches]


class TestGroupingInvariance:
    """A batch's counts do not depend on which batches share its fused
    group, where it sits in the group, or where decode chunks split it."""

    @settings(max_examples=30, deadline=None)
    @given(fading=st.booleans(), scaled=st.booleans(),
           order=st.permutations(range(6)),
           cuts=st.sets(st.integers(1, 5)),
           chunk=st.sampled_from(CHUNK_WIDTHS))
    def test_counts_equal_the_solo_run(self, fading, scaled, order, cuts,
                                       chunk):
        batches, solo = grouping_pool(fading, scaled)
        edges = [0] + sorted(cuts) + [len(order)]
        for lo, hi in zip(edges, edges[1:]):
            members = order[lo:hi]
            results = run_fused_group([batches[i] for i in members],
                                      decode_chunk=chunk)
            for i, got in zip(members, results):
                for key in ("errors", "trials", "packet_errors"):
                    assert got[key] == solo[i][key], (i, key, got, solo[i])


class TestFusedFloat32:
    def test_matches_per_batch_float32_exactly(self):
        # Both paths run the same reduced-precision kernels row by row,
        # so fusion changes nothing even under the approximate policy.
        batches = make_batches(constants={"dtype": "float32"})
        assert_fused_bit_exact(batches)

    def test_tolerance_against_float64_reference(self):
        exact = make_batches(snrs=(6.0, 8.0), num_batches=2)
        approx = make_batches(snrs=(6.0, 8.0), num_batches=2,
                              constants={"dtype": "float32"})
        for exact_row, approx_row in zip(run_fused_group(exact),
                                         run_fused_group(approx)):
            assert exact_row["trials"] == approx_row["trials"]
            # Reduced precision may flip individual marginal decisions but
            # must not move the error statistics: the counts at these
            # operating points stay within 2% of the traffic of each other.
            budget = max(10, int(0.02 * exact_row["trials"]))
            assert abs(exact_row["errors"] - approx_row["errors"]) <= budget


class TestDtypePolicy:
    def test_resolution(self):
        assert dtype_policy(None) is FLOAT64
        assert dtype_policy("float64") is FLOAT64
        assert dtype_policy("float32") is FLOAT32
        assert dtype_policy(FLOAT32) is FLOAT32

    def test_policy_attributes(self):
        assert FLOAT64.exact and not FLOAT32.exact
        assert FLOAT64.float_dtype == np.float64
        assert FLOAT64.complex_dtype == np.complex128
        assert FLOAT32.float_dtype == np.float32
        assert FLOAT32.complex_dtype == np.complex64

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            dtype_policy("float16")


class TestLlrTable:
    @pytest.mark.parametrize("axis_bits", [1, 2, 3])
    def test_lookup_error_bounded_by_bin_width(self, axis_bits):
        table = LlrTable(axis_bits)
        step = 2.0 * table.limit / table.bins
        rng = np.random.default_rng(7)
        coords = rng.uniform(-8.5, 8.5, size=4096)
        exact = axis_soft_values(coords, axis_bits, dtype=np.float64)
        looked_up = table.lookup(coords)
        # The soft expressions have |slope| <= 1 in the coordinate, so a
        # nearest-bin lookup is off by at most half a bin (plus float32
        # rounding of the stored values).
        assert np.max(np.abs(looked_up - exact)) <= 0.51 * step + 1e-4

    def test_saturates_outside_limit(self):
        table = LlrTable(1)
        inside = table.lookup(np.array([table.limit - 1e-6]))
        outside = table.lookup(np.array([table.limit + 5.0]))
        np.testing.assert_allclose(outside, inside, atol=0.02)


class TestScenarioDtypeHash:
    def test_default_hash_unchanged(self):
        # "float64" (and None) must hash identically to a scenario that
        # never heard of the dtype field: pre-existing stores keep their
        # namespaces.
        base = Scenario()
        assert Scenario(dtype="float64").content_hash() == base.content_hash()
        assert Scenario(dtype=None).content_hash() == base.content_hash()
        assert "dtype" not in base.to_dict()
        assert "dtype" not in base.params()

    def test_float32_versions_the_hash(self):
        base = Scenario()
        reduced = Scenario(dtype="float32")
        assert reduced.content_hash() != base.content_hash()
        assert reduced.params()["dtype"] == "float32"

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            Scenario(dtype="float16")


class TestPlanning:
    def test_groups_by_key_and_keeps_singles(self):
        fusable = make_batches(snrs=(5.0, 6.0, 7.0), num_batches=1)
        lone = make_batches(snrs=(5.0,), num_batches=1,
                            constants={"packet_bits": 120})
        unfusable = make_batches(snrs=(5.0, 6.0), num_batches=1,
                                 constants={"fading": lambda index: 1.0})
        groups, singles = plan_fused_round(fusable + lone + unfusable)
        assert len(groups) == 1 and len(groups[0]) == 3
        assert set(singles) == set(lone + unfusable)

    def test_max_group_splits(self):
        batches = make_batches(snrs=(5.0,), num_batches=8)
        groups, singles = plan_fused_round(batches, max_group=3)
        assert [len(group) for group in groups] == [3, 3, 2]
        assert singles == []

    def test_fuse_key_unfusable_spellings(self):
        fused_params = make_batches(num_batches=1)[0].point.params
        assert fuse_key(fused_params) is not None
        assert fuse_key(dict(fused_params, snr_db=lambda: 5.0)) is None
        assert fuse_key(dict(fused_params, llr_format=True)) is None
        assert fuse_key(dict(fused_params, dtype="float16")) is None

    def test_runner_falls_back_per_batch_on_fused_failure(self, monkeypatch):
        import repro.analysis.fused as fused_mod

        batches = make_batches(snrs=(5.0, 6.0), num_batches=1)
        calls = []

        def per_batch(batch):
            calls.append(batch.point.index)
            return run_link_ber_batch(batch)

        def explode(*_args, **_kwargs):
            raise RuntimeError("fused pass cannot run")

        monkeypatch.setattr(fused_mod, "run_fused_group", explode)
        result = FusedBatchRunner(per_batch)(FusedBatchGroup(batches))
        assert sorted(calls) == [0, 1]
        assert result["results"] == [run_link_ber_batch(b) for b in batches]


class TestSchedulerKnob:
    def test_fused_flag_is_bit_invisible(self):
        spec = SweepSpec(
            {"rate_mbps": [24], "snr_db": [4.0, 6.0, 8.0]},
            constants={"decoder": "bcjr", "packet_bits": PACKET_BITS},
            seed=23)
        stop = StopRule(min_errors=20, max_packets=24)
        fused_rows = AdaptiveScheduler(
            stop=stop, batch_packets=8, fused=True).run(spec)
        plain_rows = AdaptiveScheduler(
            stop=stop, batch_packets=8, fused=False).run(spec)
        assert fused_rows == plain_rows
