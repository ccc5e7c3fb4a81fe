"""Batched end-to-end link simulation.

A :class:`LinkSimulator` owns a transmitter, a channel and a receiver for
one operating point (PHY rate, SNR, decoder) and pushes packets through the
whole chain.  The entire chain is batch-vectorised: a batch of packets
flows through transmit, channel and receive as 2-D arrays with no
per-packet Python iteration, which is what makes the paper's
BER-characterisation experiments feasible in pure Python.

Batching design
---------------
:func:`run_chain` is the one function that runs the PHY chain: the link
simulator, the fused multi-point rounds (:mod:`repro.analysis.fused`) and
the closed-loop rate-adaptation link
(:mod:`repro.mac.rateadapt.closedloop`) all hand it a list of
:class:`ChainSegment` s and get decoded bits and LLRs back.  It moves
``(packets, ...)`` tensors through the batch-native APIs of the PHY
layer::

    payload bits   (packets, packet_bits)   drawn by the caller
    tx samples     (packets, num_samples)   one Transmitter.transmit_batch
    channel        (packets, num_samples)   per-segment fading gain as one
                                            broadcast multiply, then the
                                            segment's own noise source
    soft values    (packets, 2*(bits+6))    Receiver.front_end_batch  } in
    decoded        (packets, packet_bits)   Receiver.decode_batch     } chunks

and it is the one place that reports the ``transmit``, ``channel``,
``front-end`` and ``decode`` phases (see :mod:`repro.obs.phases`).  Every
stage is row-independent, so where segments meet and where decode chunks
split them never changes a row; the noise sources are never fused, so each
segment's random stream is exactly what it would draw alone.

For the simulator, per-packet SNRs and fading gains come from evaluating
the user-supplied callables once per packet index (the only per-packet
Python left -- the values are *applied* vectorised).  Payload bits and
channel noise are drawn from two independent generators spawned from the
master seed; both draws are chunk-invariant along the packet axis, so
results are identical for any ``batch_size`` split of the same run.

The simulator is deliberately independent of the latency-insensitive
framework: the LI pipelines in :mod:`repro.system.pipelines` reuse the same
block functions, so results agree, but the direct path avoids the
per-token scheduling overhead when only aggregate statistics are needed.

Layers above
------------
Most callers should not construct a :class:`LinkSimulator` directly: the
declarative front door (:class:`repro.analysis.scenario.Scenario` +
:class:`repro.analysis.scenario.Experiment`) builds one per operating
point/batch — via
:func:`repro.analysis.sweep.link_simulator_for_params` — and layers
sweeping, adaptive stopping, process sharding and store-backed resume on
top without changing a simulated bit.
"""

import time
from collections import namedtuple
from functools import partial

import numpy as np

from repro.channel.awgn import awgn_batch
from repro.obs.phases import get_phase_hook
from repro.phy.dtype import dtype_policy
from repro.phy.receiver import Receiver, ReceiveResult
from repro.phy.transmitter import Transmitter

#: Packets per fused kernel pass.  The BCJR recursions dominate the
#: chain's runtime and their per-packet cost falls with batch width until
#: the backward sweep's working set outgrows the cache: measured on the
#: Figure-6 workload the sweet spot is ~32 packets per decode, with cost
#: rising again past ~48.  :func:`run_chain` therefore decodes in chunks
#: of this many packets, and ``LinkSimulator.run`` *fuses* consecutive
#: batches into kernel passes of up to this many packets; thanks to
#: chunk-invariant RNG draws the results are bit-for-bit independent of
#: both widths.
FUSED_PACKET_TARGET = 32


class ChainSegment(namedtuple(
        "ChainSegment", "tx_bits noise snrs gains llr_scale",
        defaults=(None, None))):
    """One stretch of packets for :func:`run_chain`.

    Attributes
    ----------
    tx_bits:
        ``(packets, packet_bits)`` payload bits.
    noise:
        Callable ``noise(samples, snrs) -> received`` adding this
        segment's channel noise, drawn from the segment's own generator(s).
    snrs:
        ``(packets,)`` Es/N0 per packet, in dB.
    gains:
        Optional ``(packets,)`` complex flat-fading gains; the receiver
        equalises with them and weights its soft values by ``|gain|**2``.
    llr_scale:
        Optional ``(packets,)`` scaled-demapper factors (see
        :meth:`~repro.phy.receiver.Receiver.front_end_batch`).
    """

    __slots__ = ()


def _joined(rows):
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _channel(samples, segments):
    """Each segment's fading gains, then its own noise source."""
    received = []
    offset = 0
    for segment in segments:
        count = len(segment.tx_bits)
        faded = samples[offset:offset + count]
        if segment.gains is not None:
            faded = faded * segment.gains[:, np.newaxis]
        received.append(segment.noise(faded, segment.snrs))
        offset += count
    return _joined(received)


def run_chain(transmitter, receiver, packet_bits, segments,
              chunk=FUSED_PACKET_TARGET):
    """Drive ``segments`` through transmit, channel, front end and decode.

    One :meth:`~repro.phy.transmitter.Transmitter.transmit_batch` over
    every segment's bits; then, per segment, its fading gains and its own
    noise source (random streams are never fused); then front end and
    decode over ``chunk``-wide slices.  Segments share a fading mode:
    either all carry gains or none does, and likewise ``llr_scale``.

    Returns a :class:`~repro.phy.receiver.ReceiveResult` whose ``bits``
    and ``llr`` (``None`` for hard Viterbi) are ``(packets, packet_bits)``
    in segment order.  Each phase is reported once per call with the
    call's packet count; phase hooks read the clock only, so traced and
    untraced runs produce identical tensors.
    """
    total = sum(len(segment.tx_bits) for segment in segments)
    attrs = {"packets": total}
    hook = get_phase_hook()
    if hook is not None:
        phase_ts = time.time()
        phase_t0 = time.perf_counter()
    samples = transmitter.transmit_batch(
        _joined([segment.tx_bits for segment in segments]))
    if hook is not None:
        hook("transmit", phase_ts, time.perf_counter() - phase_t0, attrs)
        phase_ts = time.time()
        phase_t0 = time.perf_counter()
    received = _channel(samples, segments)
    # The transmitted samples are not needed past the channel; freeing
    # them here keeps them out of the decoder's peak footprint.
    del samples
    if hook is not None:
        hook("channel", phase_ts, time.perf_counter() - phase_t0, attrs)

    gains = csi = llr_scale = None
    if segments[0].gains is not None:
        gains = _joined([segment.gains for segment in segments])
        num_symbols = receiver.geometry(packet_bits).num_symbols
        csi = np.broadcast_to((np.abs(gains) ** 2)[:, np.newaxis],
                              (total, num_symbols))
    if segments[0].llr_scale is not None:
        llr_scale = _joined([segment.llr_scale for segment in segments])
    # Front end and decode interleave across chunks, so their durations
    # accumulate over the loop and each reports once, anchored at its
    # first chunk's start.
    bits, llrs = [], []
    fe_dur = dec_dur = fe_ts = dec_ts = 0.0
    for start in range(0, total, chunk):
        rows = slice(start, min(start + chunk, total))
        if hook is not None:
            if start == 0:
                fe_ts = time.time()
            t0 = time.perf_counter()
        soft = receiver.front_end_batch(
            received[rows], packet_bits,
            channel_gains=None if gains is None else gains[rows],
            csi_weights=None if csi is None else csi[rows],
            llr_scale=None if llr_scale is None else llr_scale[rows],
        )
        if hook is not None:
            fe_dur += time.perf_counter() - t0
            if start == 0:
                dec_ts = time.time()
            t0 = time.perf_counter()
        decoded = receiver.decode_batch(soft, packet_bits)
        if hook is not None:
            dec_dur += time.perf_counter() - t0
        bits.append(decoded.bits)
        llrs.append(decoded.llr)
    if hook is not None:
        hook("front-end", fe_ts, fe_dur, attrs)
        hook("decode", dec_ts, dec_dur, attrs)
    return ReceiveResult(_joined(bits),
                         None if llrs[0] is None else _joined(llrs))


class LinkRunResult:
    """Everything measured from one batch of simulated packets.

    Attributes
    ----------
    tx_bits:
        ``(packets, bits)`` transmitted payload bits.
    rx_bits:
        ``(packets, bits)`` decoded payload bits.
    llr:
        ``(packets, bits)`` signed decoder LLRs (``None`` for hard Viterbi).
    snr_db:
        Per-packet SNR actually applied (useful when the channel varies).
    """

    def __init__(self, tx_bits, rx_bits, llr, snr_db):
        self.tx_bits = tx_bits
        self.rx_bits = rx_bits
        self.llr = llr
        self.snr_db = snr_db

    @classmethod
    def from_runs(cls, runs):
        """Merge a sequence of runs (same geometry) into one result.

        Unlike chaining :meth:`concatenate`, this copies each array exactly
        once no matter how many runs are merged, so accumulating ``B``
        batches costs O(B) instead of O(B**2).
        """
        runs = list(runs)
        if not runs:
            raise ValueError("at least one run is required")
        if len(runs) == 1:
            return runs[0]
        llr = None
        if all(run.llr is not None for run in runs):
            llr = np.vstack([run.llr for run in runs])
        return cls(
            np.vstack([run.tx_bits for run in runs]),
            np.vstack([run.rx_bits for run in runs]),
            llr,
            np.concatenate([run.snr_db for run in runs]),
        )

    @property
    def hints(self):
        """Unsigned SoftPHY hints, or ``None`` for hard-output decoding."""
        return None if self.llr is None else np.abs(self.llr)

    @property
    def bit_errors(self):
        """Boolean array marking each decoded bit that differs from the transmitted bit."""
        return self.tx_bits != self.rx_bits

    @property
    def num_bits(self):
        return self.tx_bits.size

    @property
    def bit_error_rate(self):
        """Aggregate BER over every packet in the run."""
        return float(np.mean(self.bit_errors))

    @property
    def packet_ber(self):
        """Ground-truth per-packet BER."""
        return np.mean(self.bit_errors, axis=1)

    @property
    def packet_errors(self):
        """Boolean array: ``True`` for packets containing at least one bit error."""
        return self.bit_errors.any(axis=1)

    @property
    def packet_error_rate(self):
        """Fraction of packets with at least one bit error."""
        return float(np.mean(self.packet_errors))

    def concatenate(self, other):
        """Merge two runs (same geometry) into one result."""
        return LinkRunResult.from_runs([self, other])

    def __repr__(self):
        return "LinkRunResult(packets=%d, bits=%d, ber=%.3g)" % (
            self.tx_bits.shape[0],
            self.num_bits,
            self.bit_error_rate,
        )


class LinkSimulator:
    """Transmit/receive many packets through an AWGN (or faded) link.

    Parameters
    ----------
    phy_rate:
        The :class:`~repro.phy.params.PhyRate` to run at.
    snr_db:
        Es/N0 of the AWGN component, in dB.  May be a scalar or a callable
        ``packet_index -> snr_db`` for swept-SNR experiments.
    decoder:
        Decoder name, class or instance (see :func:`repro.phy.receiver.make_decoder`).
    packet_bits:
        Payload bits per packet (the paper's Figure 6 uses 1704).
    seed:
        Master seed for payload and noise generation.
    llr_format:
        Optional fixed-point format for the demapper output (hardware
        bit-width studies).
    demapper_scaled:
        ``True`` to use the ideal (SNR-scaled) demapper instead of the
        hardware one.
    fading_gain:
        Optional callable ``packet_index -> complex gain`` applying flat
        fading per packet; the receiver equalises with the same gain and
        weights its soft values by ``|gain|**2``.
    dtype:
        Working-precision policy (see :mod:`repro.phy.dtype`) threaded
        through the transmitter, channel and receiver.  The float64
        default is the exact reference chain; float32 is an opt-in
        approximate fast path (payload bits and noise are still drawn in
        the precision-invariant streams, so only kernel arithmetic
        changes).
    """

    def __init__(
        self,
        phy_rate,
        snr_db,
        decoder="bcjr",
        packet_bits=1704,
        seed=0,
        llr_format=None,
        demapper_scaled=False,
        fading_gain=None,
        dtype=None,
    ):
        self.phy_rate = phy_rate
        self.snr_db = snr_db
        self.packet_bits = int(packet_bits)
        self.seed = seed
        self.fading_gain = fading_gain
        self.dtype_policy = dtype_policy(dtype)
        self.transmitter = Transmitter(phy_rate, dtype=self.dtype_policy)
        self.receiver = Receiver(
            phy_rate,
            decoder=decoder,
            llr_format=llr_format,
            demapper_scaled=demapper_scaled,
            snr_db=snr_db if demapper_scaled and np.isscalar(snr_db) else None,
            dtype=self.dtype_policy,
        )
        # Independent payload and noise streams: each batch draws both as
        # one (packets, ...) tensor, and numpy's chunk-invariant fills make
        # the streams -- and therefore the results -- independent of how a
        # run is split into batches.
        bits_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
        self._bits_rng = np.random.default_rng(bits_seq)
        self._noise_rng = np.random.default_rng(noise_seq)

    def _snrs_for(self, indices):
        if callable(self.snr_db):
            return np.array([float(self.snr_db(int(i))) for i in indices])
        return np.full(len(indices), float(self.snr_db))

    def _gains_for(self, indices):
        if self.fading_gain is None:
            return None
        return np.array([complex(self.fading_gain(int(i))) for i in indices])

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self, num_packets, batch_size=32, start_index=0):
        """Simulate ``num_packets`` packets and return a :class:`LinkRunResult`.

        Packets are processed in batches so the batched kernels stay busy
        without exhausting memory; the per-batch results are collected and
        merged once at the end.

        Consecutive batches are fused into kernel passes of up to
        :data:`FUSED_PACKET_TARGET` packets (never fewer than
        ``batch_size``), which keeps the decoder in its measured
        per-packet sweet spot.  Because both RNG streams draw
        chunk-invariantly along the packet axis, the results are
        bit-for-bit identical for *any* batch split of the same run.
        """
        if num_packets < 1:
            raise ValueError("at least one packet is required")
        kernel_batch = max(batch_size, min(num_packets, FUSED_PACKET_TARGET))
        batches = []
        for first in range(0, num_packets, kernel_batch):
            count = min(kernel_batch, num_packets - first)
            batches.append(self._run_batch(count, start_index + first))
        return LinkRunResult.from_runs(batches)

    def _run_batch(self, count, first_index):
        indices = first_index + np.arange(count)
        # int64 draws consume one raw word per bit, which keeps the stream
        # chunk-invariant for any packet size (narrow dtypes buffer several
        # values per word, so their streams depend on the batch split).
        tx_bits = self._bits_rng.integers(
            0, 2, size=(count, self.packet_bits), dtype=np.int64
        ).astype(np.uint8)
        snrs = self._snrs_for(indices)
        noise = partial(awgn_batch, rng=self._noise_rng,
                        dtype=self.dtype_policy)
        decoded = run_chain(
            self.transmitter, self.receiver, self.packet_bits,
            [ChainSegment(tx_bits, noise, snrs, self._gains_for(indices))],
        )
        return LinkRunResult(tx_bits, decoded.bits, decoded.llr, snrs)

    def __repr__(self):
        return "LinkSimulator(rate=%s, decoder=%s)" % (
            self.phy_rate.name,
            self.receiver.decoder.name,
        )
