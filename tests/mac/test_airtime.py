"""Tests for the 802.11a/g airtime model.

The frame-duration numbers are hand-computed from the 802.11a OFDM timing
(20 us PLCP preamble+SIGNAL, 4 us symbols, SERVICE+tail = 22 bits) so the
model is pinned to the standard rather than to itself.
"""

import pytest

from repro.mac.rateadapt.airtime import (ACK_BITS, PLCP_PREAMBLE_US,
                                         PLCP_SIGNAL_US, SERVICE_BITS,
                                         TAIL_BITS, AirtimeModel,
                                         default_airtime_model)
from repro.phy.params import RATE_TABLE, SYMBOL_DURATION_US, rate_by_mbps


class TestFrameDurations:
    def test_1500_byte_frame_at_6_mbps(self):
        # ceil((16 + 12000 + 6) / 24) = 501 symbols -> 20 + 4 * 501 us.
        model = AirtimeModel()
        assert model.data_duration_us(rate_by_mbps(6.0), 12000) == 2024.0

    def test_1500_byte_frame_at_54_mbps(self):
        # ceil(12022 / 216) = 56 symbols -> 20 + 4 * 56 us.
        model = AirtimeModel()
        assert model.data_duration_us(rate_by_mbps(54.0), 12000) == 244.0

    def test_symbol_padding_rounds_up(self):
        # 2 payload bits and 24 payload bits at 6 Mb/s both fit one or two
        # symbols: 16 + p + 6 <= 24 only for p <= 2.
        model = AirtimeModel()
        assert model.data_duration_us(rate_by_mbps(6.0), 2) == 24.0
        assert model.data_duration_us(rate_by_mbps(6.0), 3) == 28.0

    def test_payload_must_be_positive(self):
        with pytest.raises(ValueError):
            AirtimeModel().data_duration_us(rate_by_mbps(6.0), 0)

    def test_duration_never_increases_with_rate(self):
        model = AirtimeModel()
        durations = [model.data_duration_us(rate, 12000) for rate in RATE_TABLE]
        assert durations == sorted(durations, reverse=True)


class TestAckTiming:
    def test_ack_rate_is_highest_mandatory_not_exceeding_data_rate(self):
        model = AirtimeModel()
        expected = {6.0: 6.0, 9.0: 6.0, 12.0: 12.0, 18.0: 12.0,
                    24.0: 24.0, 36.0: 24.0, 48.0: 24.0, 54.0: 24.0}
        for rate in RATE_TABLE:
            assert (model.ack_rate_for(rate).data_rate_mbps
                    == expected[rate.data_rate_mbps])

    def test_ack_duration_at_24_mbps(self):
        # ceil((16 + 112 + 6) / 96) = 2 symbols -> 28 us.
        model = AirtimeModel()
        assert model.ack_duration_us(rate_by_mbps(54.0)) == 28.0

    def test_ack_duration_at_6_mbps(self):
        # ceil(134 / 24) = 6 symbols -> 44 us.
        model = AirtimeModel()
        assert model.ack_duration_us(rate_by_mbps(6.0)) == 44.0

    def test_ack_bits_are_a_14_byte_mac_frame(self):
        assert ACK_BITS == 14 * 8


class TestInterframeAndBackoff:
    def test_difs_is_sifs_plus_two_slots(self):
        assert AirtimeModel().difs_us == 34.0

    def test_first_attempt_expected_backoff(self):
        # E[uniform(0, 15)] = 7.5 slots of 9 us.
        assert AirtimeModel().expected_backoff_us(0) == 67.5

    def test_backoff_doubles_then_caps(self):
        model = AirtimeModel()
        values = [model.expected_backoff_us(a) for a in range(12)]
        assert values[1] == 0.5 * 31 * 9.0
        assert values == sorted(values)
        # (15 + 1) << 6 = 1024 hits cw_max + 1; later attempts are flat.
        cap = 0.5 * 1023 * 9.0
        assert values[6] == cap
        assert all(v == cap for v in values[6:])

    def test_backoff_can_be_disabled(self):
        model = AirtimeModel(include_backoff=False)
        assert model.expected_backoff_us(0) == 0.0
        assert model.expected_backoff_us(9) == 0.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            AirtimeModel().expected_backoff_us(-1)

    def test_contention_window_must_be_power_of_two_minus_one(self):
        with pytest.raises(ValueError):
            AirtimeModel(cw_min=16)
        with pytest.raises(ValueError):
            AirtimeModel(cw_max=1000)
        with pytest.raises(ValueError):
            AirtimeModel(cw_min=63, cw_max=31)


class TestWholeExchanges:
    def test_packet_airtime_composition(self):
        # DIFS + backoff + DATA + SIFS + ACK, all hand-computed above.
        model = AirtimeModel()
        assert model.packet_airtime_us(rate_by_mbps(6.0), 12000) == \
            34.0 + 67.5 + 2024.0 + 16.0 + 44.0
        assert model.packet_airtime_us(rate_by_mbps(54.0), 12000) == \
            34.0 + 67.5 + 244.0 + 16.0 + 28.0

    def test_lossless_is_first_attempt(self):
        model = AirtimeModel()
        for rate in RATE_TABLE:
            assert model.lossless_tx_us(rate, 1704) == \
                model.packet_airtime_us(rate, 1704, attempt=0)

    def test_throughput_below_nominal_rate(self):
        # Overhead means saturation throughput never reaches the PHY rate,
        # and bits / us is Mb/s directly.
        model = AirtimeModel()
        for rate in RATE_TABLE:
            mbps = model.throughput_mbps(rate, 12000)
            assert 0.0 < mbps < rate.data_rate_mbps
        assert model.throughput_mbps(rate_by_mbps(54.0), 12000) == \
            pytest.approx(12000 / 389.5)


class TestChunkInvariance:
    def test_airtime_is_a_pure_function_of_its_arguments(self):
        """Per-packet airtimes priced in chunks match one whole pass.

        This is the property the closed-loop driver relies on: the model
        holds no per-call state, so a trajectory's airtime column is
        bit-for-bit identical no matter how the trajectory was chunked.
        """
        model = AirtimeModel()
        # A deterministic mix of rates, payload sizes and retry counts.
        schedule = [(RATE_TABLE[(3 * i) % len(RATE_TABLE)], 1 + (i % 5) * 100,
                     i % 4) for i in range(64)]
        whole = [model.packet_airtime_us(rate, bits, attempt)
                 for rate, bits, attempt in schedule]
        boundaries = [0, 7, 20, 21, 50, len(schedule)]
        chunked = []
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            chunk_model = AirtimeModel()  # fresh instance per chunk
            chunked.extend(
                chunk_model.packet_airtime_us(rate, bits, attempt)
                for rate, bits, attempt in schedule[start:stop])
        assert chunked == whole


class TestSerialisation:
    def test_round_trip(self):
        model = AirtimeModel(slot_us=20.0, sifs_us=10.0, cw_min=31,
                             cw_max=255, include_backoff=False)
        clone = AirtimeModel.from_dict(model.to_dict())
        assert clone == model
        assert clone.to_dict() == model.to_dict()

    def test_equality(self):
        assert AirtimeModel() == default_airtime_model()
        assert AirtimeModel() != AirtimeModel(include_backoff=False)
        assert AirtimeModel() != "not a model"


# ---------------------------------------------------------------------- #
# Differential check against SampleRate's tx_time (Bicket's thesis), as
# written in the bitrate-lab simulator.  The reference is transcribed here
# (OFDM branch), not imported, so this file pins both formulas.
# ---------------------------------------------------------------------- #
#: The reference's 802.11a/g constants, in microseconds.
REF_DIFS_US = 28
REF_SIFS_US = 9
REF_ACK_US = 304
REF_HEADER_US = 20
#: The reference's average backoff per retry count.  Its source says this
#: is 802.11b data ("TODO: find g data").
REF_BACKOFF_US = [0, 155, 315, 635, 1275, 2555, 5115]


def reference_tx_time(mbps, retries, nbytes):
    """SampleRate's ``tx_time`` for an ``nbytes`` OFDM packet.

    ``difs + backoff[r] + (r + 1) * (sifs + ack + header + n * 8 / b)``.
    """
    backoff_r = (REF_BACKOFF_US[retries] if retries < len(REF_BACKOFF_US)
                 else REF_BACKOFF_US[-1])
    return REF_DIFS_US + backoff_r + (retries + 1) * (
        REF_SIFS_US + REF_ACK_US + REF_HEADER_US + nbytes * 8 / mbps)


#: DIFS: this model uses the 802.11a (5 GHz) DIFS, SIFS + 2 slots
#: = 16 + 2 * 9 = 34 us.  The reference's 28 us is the 802.11g
#: short-slot DIFS (10 + 2 * 9), paired below with a SIFS that is not.
DIFS_DELTA_US = 34 - REF_DIFS_US
#: SIFS: 802.11a's SIFS is 16 us.  The reference's 9 us is the OFDM slot
#: time, not a SIFS (802.11g's SIFS is 10 us).
SIFS_DELTA_US = 16 - REF_SIFS_US
#: ACK: the reference charges a flat 304 us, the 802.11b ACK (192 us long
#: DSSS preamble + the same 112-bit frame at 1 Mb/s) that its source notes
#: is used even for OFDM ("Somehow 6mb acks aren't used").  This model
#: sends the ACK as an OFDM frame at the mandatory control rate.
DSSS_LONG_PLCP_US = 192
#: Backoff: this model charges the expected draw from [0, CW] at every
#: attempt, with the 802.11a window (CWmin 15, 9 us slots) doubling per
#: retry up to CWmax 1023; the reference reads its 802.11b table, which
#: charges nothing before the first attempt.
CW_MIN_80211A = 15
CW_MAX_80211A = 1023
SLOT_80211A_US = 9.0
#: Payload sizes checked: the reference's 1500 bytes and this repo's
#: 1704-bit (213-byte) Figure-6 packet.
REFERENCE_NBYTES = (1500, 213)


class TestSampleRateReference:
    def model_total(self, model, rate, retries, nbytes):
        """This model's airtime for one packet sent with ``retries`` retries."""
        return sum(model.packet_airtime_us(rate, nbytes * 8, attempt)
                   for attempt in range(retries + 1))

    def test_interframe_spaces(self):
        model = AirtimeModel()
        assert model.difs_us == REF_DIFS_US + DIFS_DELTA_US
        assert model.sifs_us == REF_SIFS_US + SIFS_DELTA_US

    def test_header_is_preamble_plus_signal_and_padding(self):
        # The reference's flat 20 us header is exactly PLCP preamble +
        # SIGNAL; this model adds the SERVICE and tail bits and pads the
        # DATA field to whole 4 us symbols.
        assert PLCP_PREAMBLE_US + PLCP_SIGNAL_US == REF_HEADER_US
        model = AirtimeModel()
        for rate in RATE_TABLE:
            mbps = rate.data_rate_mbps
            for nbytes in REFERENCE_NBYTES:
                data = model.data_duration_us(rate, nbytes * 8)
                padding = (data - REF_HEADER_US
                           - (SERVICE_BITS + nbytes * 8 + TAIL_BITS) / mbps)
                assert 0.0 <= padding < SYMBOL_DURATION_US, (mbps, nbytes)

    def test_ack_is_the_same_frame_at_the_control_rate(self):
        assert REF_ACK_US == DSSS_LONG_PLCP_US + ACK_BITS / 1.0
        model = AirtimeModel()
        for rate in RATE_TABLE:
            ack = model.ack_duration_us(rate)
            assert ack == model.data_duration_us(model.ack_rate_for(rate),
                                                 ACK_BITS)
            assert ack < REF_ACK_US

    def test_backoff_is_the_expected_contention_window(self):
        model = AirtimeModel()
        assert (model.cw_min, model.cw_max, model.slot_us) \
            == (CW_MIN_80211A, CW_MAX_80211A, SLOT_80211A_US)
        assert REF_BACKOFF_US[0] == 0
        for attempt in range(len(REF_BACKOFF_US)):
            window = min((CW_MIN_80211A + 1) << attempt,
                         CW_MAX_80211A + 1) - 1
            assert model.expected_backoff_us(attempt) \
                == 0.5 * window * SLOT_80211A_US

    def test_every_rate_and_retry_count_reconciles_term_by_term(self):
        """This model's airtime is the reference's plus the named deltas."""
        model = AirtimeModel()
        for rate in RATE_TABLE:
            mbps = rate.data_rate_mbps
            for nbytes in REFERENCE_NBYTES:
                payload = nbytes * 8 / mbps
                header_delta = (model.data_duration_us(rate, nbytes * 8)
                                - payload - REF_HEADER_US)
                ack_delta = model.ack_duration_us(rate) - REF_ACK_US
                for retries in range(7):
                    backoff_delta = (
                        sum(model.expected_backoff_us(attempt)
                            for attempt in range(retries + 1))
                        - REF_BACKOFF_US[retries])
                    # Every attempt in this model is a whole exchange
                    # that re-contends with its own DIFS and backoff; the
                    # reference charges one DIFS and one backoff per
                    # packet, then (r + 1) times the rest.
                    expected = (
                        reference_tx_time(mbps, retries, nbytes)
                        + DIFS_DELTA_US + retries * model.difs_us
                        + backoff_delta
                        + (retries + 1) * (SIFS_DELTA_US + ack_delta
                                           + header_delta))
                    assert self.model_total(model, rate, retries, nbytes) \
                        == pytest.approx(expected, rel=1e-12), \
                        (mbps, nbytes, retries)
