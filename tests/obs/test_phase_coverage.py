"""Phase coverage: every path that drives the PHY chain reports the same
four phases, and their packet counts add up to the packets simulated."""

import pytest

from repro.analysis.adaptive import MeasurementBatch, run_link_ber_batch
from repro.analysis.fused import run_fused_group
from repro.analysis.sweep import SweepSpec
from repro.mac.rateadapt import ClosedLoopLink
from repro.obs.phases import set_phase_hook
from repro.phy.params import RATE_TABLE

CHAIN_PHASES = ("transmit", "channel", "front-end", "decode")


@pytest.fixture
def phase_calls():
    calls = []
    previous = set_phase_hook(
        lambda name, ts, dur, attrs: calls.append((name, dur, attrs)))
    yield calls
    set_phase_hook(previous)


def packets_per_phase(calls):
    """Summed ``packets`` attr per chain phase; checks every other call is a
    BCJR sweep and every duration is non-negative."""
    totals = dict.fromkeys(CHAIN_PHASES, 0)
    for name, dur, attrs in calls:
        assert dur >= 0.0, (name, dur)
        if name.startswith("bcjr."):
            continue
        assert name in totals, "unexpected phase %r" % name
        totals[name] += attrs["packets"]
    return totals


def link_batches(sizes, snrs=(5.0, 7.0, 9.0)):
    spec = SweepSpec({"rate_mbps": [24], "snr_db": list(snrs)},
                     constants={"decoder": "bcjr", "packet_bits": 120,
                                "batch_size": 8},
                     seed=5)
    return [MeasurementBatch(point, 0, size)
            for point, size in zip(spec.points(), sizes)]


def test_per_batch_runner_reports_each_kernel_pass(phase_calls):
    # 40 packets run as two simulator kernel passes (32 + 8).
    (batch,) = link_batches([40], snrs=(6.0,))
    run_link_ber_batch(batch)
    assert packets_per_phase(phase_calls) == dict.fromkeys(CHAIN_PHASES, 40)
    assert sum(name == "transmit" for name, _, _ in phase_calls) == 2


def test_fused_group_reports_once_for_all_members(phase_calls):
    run_fused_group(link_batches([3, 5, 2]))
    assert packets_per_phase(phase_calls) == dict.fromkeys(CHAIN_PHASES, 10)
    assert sum(name == "decode" for name, _, _ in phase_calls) == 1


def test_decode_window_reports_every_rate_and_chunk(phase_calls):
    link = ClosedLoopLink(snr_db=8.0, doppler_hz=40.0, packet_bits=48,
                          seed=3, rates=RATE_TABLE[:2], decoder="bcjr")
    link.decode_window(4, 5, batch_size=3)
    # 5 packets at each of 2 rates, in chunks of 3 + 2.
    assert packets_per_phase(phase_calls) == dict.fromkeys(CHAIN_PHASES, 10)
    assert sum(name == "channel" for name, _, _ in phase_calls) == 4
