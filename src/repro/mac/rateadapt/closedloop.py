"""Closed-loop rate-adaptation trajectories over a time-varying channel.

The expensive part of comparing rate controllers is not the controllers —
it is decoding every packet at every rate so that any controller's choice
(and the per-packet *optimal* rate) can be scored against the same channel
realisation.  This module splits the problem the same way the Figure 7
evaluation does, but makes both halves first-class and chunkable:

* :meth:`ClosedLoopLink.decode_window` produces the rate-major
  ``(packets, rates)`` outcome matrices for an arbitrary *window* of the
  packet stream.  Every per-packet quantity is a pure function of the
  absolute packet index — payloads and noise through
  :class:`~repro.channel.reproducible.ReproducibleNoise`, fading through
  the absolute transmission time handed to
  :class:`~repro.channel.fading.JakesFadingProcess` — so decoding packets
  ``[0, 12)`` in one window or in three windows of four yields bit-for-bit
  identical matrices.  That property is what lets
  :func:`run_rate_adapt_batch` serve as an adaptive chunk-runner whose
  batches are content-addressed units of work in the result store.
* :func:`replay_trajectory` runs any
  :class:`~repro.mac.rateadapt.controllers.RateController` packet-by-packet
  over decoded outcome matrices — cheap, sequential and deterministic, so
  controllers are a *replay-layer* concern: one stored decode serves every
  controller, and a warm store rerun simulates zero packets no matter how
  many controllers are compared.

Scoring uses the :mod:`~repro.mac.rateadapt.airtime` model: a trajectory's
achieved throughput is payload bits delivered over airtime consumed, the
only scoreboard on which a failed 54 Mb/s gamble and a timid 6 Mb/s crawl
are priced honestly against each other.
"""

from functools import partial

import numpy as np

from repro.analysis.link import ChainSegment, LinkRunResult, run_chain
from repro.channel.awgn import awgn
from repro.channel.fading import JakesFadingProcess
from repro.channel.reproducible import ReproducibleNoise
from repro.mac.rateadapt.airtime import default_airtime_model
from repro.mac.rateadapt.controllers import (RateFeedback, classify_selection,
                                             optimal_rate_index)
from repro.phy.params import RATE_TABLE
from repro.phy.receiver import Receiver
from repro.phy.transmitter import Transmitter
from repro.softphy.ber_estimator import BerEstimator


class PrecomputedOutcomes:
    """Per-packet, per-rate decode outcomes used by controller replay.

    Attributes
    ----------
    success:
        ``(packets, rates)`` boolean: decoded without any bit error.
    pber_estimate:
        ``(packets, rates)`` predicted per-packet BER from the SoftPHY
        hints.
    pber_actual:
        ``(packets, rates)`` ground-truth per-packet BER.
    """

    def __init__(self, success, pber_estimate, pber_actual):
        self.success = success
        self.pber_estimate = pber_estimate
        self.pber_actual = pber_actual

    @property
    def num_packets(self):
        return self.success.shape[0]

    @property
    def num_rates(self):
        return self.success.shape[1]


class LinkTrajectory:
    """One controller's packet-by-packet run over a channel realisation.

    Attributes
    ----------
    name:
        Controller label (``"softrate"``, ``"samplerate"``, ...).
    chosen_indices, optimal_indices:
        Per-packet chosen and oracle-optimal rate indices.
    delivered:
        Per-packet boolean: the packet decoded cleanly at the chosen rate.
    airtime_us:
        Per-packet airtime consumed (successful or not).
    """

    def __init__(self, name, chosen_indices, optimal_indices, delivered,
                 airtime_us, packet_bits, rates):
        self.name = str(name)
        self.chosen_indices = np.asarray(chosen_indices, dtype=np.int64)
        self.optimal_indices = np.asarray(optimal_indices, dtype=np.int64)
        self.delivered = np.asarray(delivered, dtype=bool)
        self.airtime_us = np.asarray(airtime_us, dtype=np.float64)
        self.packet_bits = int(packet_bits)
        self.rates = tuple(rates)

    @property
    def num_packets(self):
        return int(self.chosen_indices.size)

    @property
    def delivered_packets(self):
        return int(self.delivered.sum())

    @property
    def total_airtime_us(self):
        return float(self.airtime_us.sum())

    @property
    def achieved_mbps(self):
        """Payload bits delivered per microsecond of airtime (== Mb/s)."""
        total = self.total_airtime_us
        if total == 0.0:
            return 0.0
        return self.delivered_packets * self.packet_bits / total

    def selection_fractions(self):
        """Figure 7 vocabulary: underselect / accurate / overselect."""
        if self.num_packets == 0:
            return {"underselect": 0.0, "accurate": 0.0, "overselect": 0.0}
        chosen, optimal = self.chosen_indices, self.optimal_indices
        n = float(self.num_packets)
        return {
            "underselect": float((chosen < optimal).sum()) / n,
            "accurate": float((chosen == optimal).sum()) / n,
            "overselect": float((chosen > optimal).sum()) / n,
        }

    def row(self):
        """Flat JSON-able metrics row (for benchmarks and the service)."""
        row = {
            "controller": self.name,
            "packets": self.num_packets,
            "delivered_packets": self.delivered_packets,
            "total_airtime_us": self.total_airtime_us,
            "achieved_mbps": self.achieved_mbps,
        }
        row.update(self.selection_fractions())
        return row

    def __repr__(self):
        return ("LinkTrajectory(%s, packets=%d, achieved=%.2f Mb/s)"
                % (self.name, self.num_packets, self.achieved_mbps))


def replay_trajectory(controller, outcomes, packet_bits, airtime=None,
                      name=None):
    """Run ``controller`` packet-by-packet over decoded ``outcomes``.

    The controller chooses a rate, the outcome matrices say whether that
    rate would have delivered the packet and what the SoftPHY hint was,
    and the airtime model prices the attempt.  Deterministic and cheap —
    the decode cost was paid (once, possibly from the store) in
    :meth:`ClosedLoopLink.decode_window`.
    """
    if len(controller.rates) != outcomes.num_rates:
        raise ValueError(
            "controller adapts over %d rates but the outcomes were decoded "
            "at %d" % (len(controller.rates), outcomes.num_rates))
    airtime = airtime or default_airtime_model()
    n = outcomes.num_packets
    chosen_indices = np.empty(n, dtype=np.int64)
    optimal_indices = np.empty(n, dtype=np.int64)
    delivered = np.empty(n, dtype=bool)
    airtime_us = np.empty(n, dtype=np.float64)
    for index in range(n):
        chosen = controller.choose()
        chosen_indices[index] = chosen
        optimal_indices[index] = optimal_rate_index(outcomes.success[index])
        success = bool(outcomes.success[index, chosen])
        delivered[index] = success
        cost = airtime.packet_airtime_us(controller.rates[chosen], packet_bits)
        airtime_us[index] = cost
        controller.observe(RateFeedback(
            chosen, success,
            pber_estimate=float(outcomes.pber_estimate[index, chosen]),
            airtime_us=cost,
        ))
    return LinkTrajectory(
        name if name is not None else getattr(controller, "kind", None)
        or type(controller).__name__,
        chosen_indices, optimal_indices, delivered, airtime_us,
        packet_bits, controller.rates,
    )


def oracle_trajectory(outcomes, packet_bits, rates=RATE_TABLE, airtime=None):
    """The per-packet oracle: always transmit at the optimal rate.

    When no rate delivers the packet the oracle still pays the most robust
    rate's airtime for the failed attempt, so its throughput is an honest
    upper bound, not an artifact of skipping doomed packets.
    """
    airtime = airtime or default_airtime_model()
    n = outcomes.num_packets
    chosen_indices = np.empty(n, dtype=np.int64)
    delivered = np.empty(n, dtype=bool)
    airtime_us = np.empty(n, dtype=np.float64)
    for index in range(n):
        optimal = optimal_rate_index(outcomes.success[index])
        chosen_indices[index] = optimal
        delivered[index] = bool(outcomes.success[index, optimal])
        airtime_us[index] = airtime.packet_airtime_us(rates[optimal],
                                                      packet_bits)
    return LinkTrajectory("oracle", chosen_indices, chosen_indices.copy(),
                          delivered, airtime_us, packet_bits, rates)


class ClosedLoopLink:
    """A packet stream over a fading link, decodable window by window.

    Parameters
    ----------
    snr_db:
        Mean AWGN SNR (10 dB in the paper's Figure 7).
    doppler_hz:
        Fading Doppler frequency.
    packet_bits:
        Payload size per packet.
    packet_interval_s:
        Time between successive packet starts — the knob that sets how
        fast the channel decorrelates between packets.
    seed:
        Master seed for payloads, noise and the fading trace.
    rates:
        Rate table the stream is decoded against.
    decoder:
        Decoder name (``"bcjr"``, ``"sova"``, ``"viterbi"``).
    """

    def __init__(self, snr_db=10.0, doppler_hz=20.0, packet_bits=1704,
                 packet_interval_s=2e-3, seed=0, rates=RATE_TABLE,
                 decoder="bcjr"):
        self.snr_db = float(snr_db)
        self.doppler_hz = float(doppler_hz)
        self.packet_bits = int(packet_bits)
        self.packet_interval_s = float(packet_interval_s)
        self.seed = seed
        self.rates = tuple(rates)
        self.decoder = decoder
        self.noise = ReproducibleNoise(seed)
        self.fading = JakesFadingProcess(doppler_hz=doppler_hz, seed=seed)

    def gains(self, first_index, num_packets):
        """Fading gains for a window of absolute packet indices.

        A pure function of absolute transmission times, so windows tile:
        ``gains(0, 12) == concat(gains(0, 4), gains(4, 4), gains(8, 4))``
        bit for bit.
        """
        times = ((first_index + np.arange(num_packets))
                 * self.packet_interval_s)
        return np.atleast_1d(self.fading.gain(times))

    def _add_noise(self, indices, samples, snrs):
        """Chain noise source: each packet noised from its own index's
        generator, so a packet's noise never depends on its window."""
        return np.stack([
            awgn(row, snr, rng=self.noise.rng_for(int(index), purpose="noise"))
            for row, snr, index in zip(samples, snrs, indices)
        ])

    def decode_window(self, first_index, num_packets, batch_size=16,
                      estimator=None):
        """Decode packets ``[first_index, first_index + num_packets)`` at
        every rate.

        Returns :class:`PrecomputedOutcomes` whose rows depend only on
        each packet's absolute index — never on the window bounds or
        ``batch_size`` — which is the chunk-invariance contract the store
        and the sweep executor rely on.
        """
        estimator = estimator or BerEstimator(self.decoder)
        gains = self.gains(first_index, num_packets)
        success = np.zeros((num_packets, len(self.rates)), dtype=bool)
        pber_estimate = np.ones((num_packets, len(self.rates)))
        pber_actual = np.ones((num_packets, len(self.rates)))

        for rate_idx, rate in enumerate(self.rates):
            transmitter = Transmitter(rate)
            receiver = Receiver(rate, decoder=self.decoder)
            for first in range(0, num_packets, batch_size):
                rows = slice(first, min(first + batch_size, num_packets))
                indices = first_index + np.arange(rows.start, rows.stop)
                tx_bits = np.stack([self.noise.payload(int(index),
                                                       self.packet_bits)
                                    for index in indices])
                segment = ChainSegment(
                    tx_bits, partial(self._add_noise, indices),
                    np.full(len(indices), self.snr_db), gains[rows])
                decoded = run_chain(transmitter, receiver, self.packet_bits,
                                    [segment])
                run = LinkRunResult(tx_bits, decoded.bits, decoded.llr, None)
                success[rows, rate_idx] = ~run.packet_errors
                pber_actual[rows, rate_idx] = run.packet_ber
                if decoded.llr is not None:
                    pber_estimate[rows, rate_idx] = estimator.packet_ber(
                        np.abs(decoded.llr), rate.modulation
                    )
        return PrecomputedOutcomes(success, pber_estimate, pber_actual)

    def run(self, controller, num_packets, first_index=0, batch_size=16,
            airtime=None, name=None):
        """Decode a window and replay ``controller`` over it."""
        outcomes = self.decode_window(first_index, num_packets,
                                      batch_size=batch_size)
        return replay_trajectory(controller, outcomes, self.packet_bits,
                                 airtime=airtime, name=name)

    def __repr__(self):
        return ("ClosedLoopLink(snr_db=%.1f, doppler_hz=%.1f, decoder=%s, "
                "packet_bits=%d)" % (self.snr_db, self.doppler_hz,
                                     self.decoder, self.packet_bits))


def run_rate_adapt_batch(batch):
    """Adaptive chunk-runner: decode one batch of the packet stream.

    The content-addressed unit of work behind
    :class:`~repro.mac.rateadapt.scenario.RateAdaptScenario` experiments.
    Batch ``k`` of a trajectory with quantum ``q`` decodes absolute packets
    ``[k*q, (k+1)*q)``; the master seed is the point's derived seed, so the
    decoded matrices are a pure function of ``(spec entropy, coordinates,
    batch index)`` — bit-for-bit invariant to executors, worker counts and
    round scheduling, and safely shareable across every controller and
    every stop rule.

    Returns the adaptive vocabulary: ``errors`` counts *outage* packets
    (no rate delivered them — so the row's ``ber`` reads as outage
    probability), ``trials`` the packets decoded, and the per-window
    ``success`` / ``pber_estimate`` matrices as extras that concatenate
    across batches into the full trajectory matrices.
    """
    params = batch.point.params
    link = ClosedLoopLink(
        snr_db=float(params["snr_db"]),
        doppler_hz=float(params["doppler_hz"]),
        packet_bits=int(params.get("packet_bits", 1704)),
        packet_interval_s=float(params.get("packet_interval_s", 2e-3)),
        seed=batch.point.seed,
        decoder=params.get("decoder", "bcjr"),
    )
    first_index = batch.first_packet_index
    outcomes = link.decode_window(
        first_index, batch.num_packets,
        batch_size=int(params.get("batch_size", 16)),
    )
    outage = int((~outcomes.success.any(axis=1)).sum())
    return {
        "errors": outage,
        "trials": batch.num_packets,
        "success": outcomes.success,
        "pber_estimate": outcomes.pber_estimate,
    }


__all__ = [
    "ClosedLoopLink",
    "LinkTrajectory",
    "PrecomputedOutcomes",
    "oracle_trajectory",
    "replay_trajectory",
    "run_rate_adapt_batch",
]
