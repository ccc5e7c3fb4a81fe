"""Fused multi-point simulation rounds.

An adaptive round (and a characterisation-service dispatch cycle) typically
carries one small :class:`~repro.analysis.adaptive.MeasurementBatch` per
operating point — at the default 8-32 packets each, far below the decoder's
measured per-packet sweet spot (see
:data:`repro.analysis.link.FUSED_PACKET_TARGET`).  This module groups the
batches of a round that share a *link configuration shape* (same rate,
decoder, packet size, LLR format, demapper scaling and precision policy —
differing only in SNR and fading) and pushes each group through the PHY
chain as one tensor pass:

* one payload-bit concatenation and one :meth:`Transmitter.transmit_batch`,
* per-batch channel application (each batch keeps its own noise generator
  and fading trace — the RNG streams are *never* fused),
* one :meth:`Receiver.front_end_batch` with a per-packet ``llr_scale``
  array standing in for the per-point scaled demappers,
* one chunked :meth:`Receiver.decode_batch` sized to the decoder's
  sweet spot.

Bit-exactness contract
----------------------
Under the exact float64 :class:`~repro.phy.dtype.DTypePolicy` a fused group
produces **bit-for-bit** the counts the per-batch path
(:func:`repro.analysis.adaptive.run_link_ber_batch`) produces, because

* every chain kernel is row-independent, so concatenating packets along the
  batch axis cannot change any row's value;
* payload bits and noise are still drawn per batch from the batch's own
  derived generators (the chunk-invariant streams the store keys encode);
* the scaled demapper's per-point ``Es/N0 * S_modulation`` factor is
  reproduced as the *identical* Python-float scalar per packet, applied in
  the same elementwise multiply.

Under float32 the fused and per-batch paths are both approximate and agree
to tolerance only (see :mod:`repro.phy.dtype`).
"""

import time

import numpy as np

from repro.analysis.link import FUSED_PACKET_TARGET
from repro.analysis.sweep import _resolve_fading, _resolve_llr_format
from repro.obs.phases import get_phase_hook
from repro.channel.awgn import awgn_batch
from repro.phy.demapper import MODULATION_SCALE
from repro.phy.dtype import dtype_policy
from repro.phy.params import rate_by_mbps
from repro.phy.receiver import Receiver
from repro.phy.transmitter import Transmitter

#: Batches per fused group.  Bounds the peak sample-tensor footprint of a
#: group (the front end holds every member's received samples at once)
#: while keeping each group far above the fusion break-even point.
MAX_GROUP_BATCHES = 64


def fuse_key(params):
    """The fusion-compatibility key of one batch's parameters, or ``None``.

    Batches whose points share a key can be simulated as one fused group:
    the key pins everything that shapes the tensors and the receiver
    (rate, decoder, packet size, LLR format, demapper scaling, precision
    policy, whether fading is present), while SNR and the fading values —
    which fused rounds apply per packet — deliberately stay out.

    ``None`` marks an unfusable point: object-valued (non-declarative)
    parameters such as an SNR callable, a decoder instance, a gain
    callable or a fixed-point format object, whose behaviour the fused
    path cannot reproduce from the declarative spelling.
    """
    snr = params.get("snr_db")
    rate = params.get("rate_mbps")
    decoder = params.get("decoder", "bcjr")
    llr_format = params.get("llr_format")
    fading = params.get("fading")
    if rate is None or snr is None or callable(snr):
        return None
    if not isinstance(decoder, str):
        return None
    if callable(fading):
        return None
    if isinstance(llr_format, bool) or (
            llr_format is not None and not isinstance(llr_format, (int, dict))):
        return None
    fmt = llr_format
    if isinstance(fmt, dict):
        fmt = tuple(sorted(fmt.items()))
    try:
        policy_name = dtype_policy(params.get("dtype")).name
    except (ValueError, TypeError):
        return None
    return (
        float(rate),
        decoder,
        int(params.get("packet_bits", 1704)),
        fmt,
        bool(params.get("demapper_scaled", False)),
        policy_name,
        fading is not None,
    )


class FusedBatchGroup:
    """A picklable bundle of same-shape measurement batches.

    Presents the minimal point-like surface the dispatch layers need
    (``point``, ``label``), so a group can travel through the same
    executor/fleet plumbing as a single batch.
    """

    __slots__ = ("batches",)

    def __init__(self, batches):
        self.batches = list(batches)
        if not self.batches:
            raise ValueError("a fused group needs at least one batch")

    @property
    def point(self):
        """The first member's point (labels, coordinates for reporting)."""
        return self.batches[0].point

    @property
    def num_packets(self):
        return sum(batch.num_packets for batch in self.batches)

    def __len__(self):
        return len(self.batches)

    def label(self):
        return "fused x%d [%s; ...]" % (len(self.batches),
                                        self.batches[0].label())

    def __repr__(self):
        return "FusedBatchGroup(batches=%d, packets=%d)" % (
            len(self.batches), self.num_packets)


def run_fused_group(batches, decode_chunk=FUSED_PACKET_TARGET):
    """Simulate a list of same-``fuse_key`` batches in one tensor pass.

    Returns one ``{"errors", "trials", "packet_errors"}`` mapping per
    batch, aligned with the input — exactly what
    :func:`repro.analysis.adaptive.run_link_ber_batch` returns for each,
    and (under float64) bit-for-bit equal to it; see the module docstring
    for the contract and its mechanism.
    """
    batches = list(batches)
    if not batches:
        return []
    params = batches[0].point.params
    rate = rate_by_mbps(params["rate_mbps"])
    packet_bits = int(params.get("packet_bits", 1704))
    policy = dtype_policy(params.get("dtype"))
    scaled = bool(params.get("demapper_scaled", False))
    transmitter = Transmitter(rate, dtype=policy)
    # The fused receiver is always built in hardware-demapper mode: a
    # scaled group reproduces each point's Es/N0 scaling through the
    # per-packet llr_scale array instead of a per-point demapper.
    receiver = Receiver(
        rate,
        decoder=params.get("decoder", "bcjr"),
        llr_format=_resolve_llr_format(params.get("llr_format")),
        demapper_scaled=False,
        dtype=policy,
    )

    # Per-batch draws and channel parameters.  The generators replicate
    # LinkSimulator's derivation exactly: two streams spawned from the
    # batch seed, payload bits as one chunk-invariant int64 draw.
    tx_rows, noise_rngs, snr_rows, gain_rows, scale_rows = [], [], [], [], []
    for batch in batches:
        bparams = batch.point.params
        bits_seq, noise_seq = np.random.SeedSequence(batch.seed).spawn(2)
        bits_rng = np.random.default_rng(bits_seq)
        noise_rngs.append(np.random.default_rng(noise_seq))
        tx_rows.append(
            bits_rng.integers(
                0, 2, size=(batch.num_packets, packet_bits), dtype=np.int64
            ).astype(np.uint8)
        )
        snr = bparams["snr_db"]
        snr_rows.append(np.full(batch.num_packets, float(snr)))
        fading = _resolve_fading(bparams.get("fading"), batch.point.seed)
        if fading is None:
            gain_rows.append(None)
        else:
            indices = batch.first_packet_index + np.arange(batch.num_packets)
            gain_rows.append(
                np.array([complex(fading(int(i))) for i in indices])
            )
        if scaled:
            # The same Python-float scalar the point's own scaled demapper
            # would have computed, replicated across the batch's packets.
            scale_rows.append(np.full(
                batch.num_packets,
                10.0 ** (snr / 10.0) * MODULATION_SCALE[rate.modulation.name],
            ))

    total = sum(batch.num_packets for batch in batches)
    # Phase hooks observe stage wall-clock only — never values — so the
    # traced and untraced passes produce identical tensors.
    hook = get_phase_hook()
    if hook is not None:
        phase_ts = time.time()
        phase_t0 = time.perf_counter()
    samples = transmitter.transmit_batch(np.concatenate(tx_rows, axis=0))
    if hook is not None:
        hook("transmit", phase_ts, time.perf_counter() - phase_t0,
             {"packets": total})

    # Channel, per batch: fading gains, then AWGN from the batch's own
    # noise generator (the one stage that must not fuse across batches).
    gains_all = None
    csi_all = None
    if any(g is not None for g in gain_rows):
        gains_all = np.concatenate(gain_rows)
        num_symbols = receiver.geometry(packet_bits).num_symbols
        csi_all = np.broadcast_to(
            (np.abs(gains_all) ** 2)[:, np.newaxis], (total, num_symbols)
        )
    if hook is not None:
        phase_ts = time.time()
        phase_t0 = time.perf_counter()
    received_rows = []
    offset = 0
    for batch, noise_rng, snrs, gains in zip(batches, noise_rngs, snr_rows,
                                             gain_rows):
        segment = samples[offset:offset + batch.num_packets]
        if gains is not None:
            segment = segment * gains[:, np.newaxis]
        received_rows.append(
            awgn_batch(segment, snrs, rng=noise_rng, dtype=policy)
        )
        offset += batch.num_packets
    received = np.concatenate(received_rows, axis=0)
    llr_scales = np.concatenate(scale_rows) if scaled else None
    if hook is not None:
        hook("channel", phase_ts, time.perf_counter() - phase_t0,
             {"packets": total})

    # Fused receive: front end and decode over every member at once,
    # chunked to the decoder's sweet spot (row-independent, so chunk
    # boundaries may fall anywhere).  The two stages interleave across
    # chunks, so their hook durations accumulate over the loop and each
    # reports once, anchored at its first chunk's start.
    rx_rows = []
    fe_dur = dec_dur = 0.0
    fe_ts = dec_ts = 0.0
    for start in range(0, total, decode_chunk):
        stop = min(start + decode_chunk, total)
        if hook is not None:
            if start == 0:
                fe_ts = time.time()
            t0 = time.perf_counter()
        soft = receiver.front_end_batch(
            received[start:stop], packet_bits,
            channel_gains=None if gains_all is None else gains_all[start:stop],
            csi_weights=None if csi_all is None else csi_all[start:stop],
            llr_scale=None if llr_scales is None else llr_scales[start:stop],
        )
        if hook is not None:
            fe_dur += time.perf_counter() - t0
            if start == 0:
                dec_ts = time.time()
            t0 = time.perf_counter()
        rx_rows.append(receiver.decode_batch(soft, packet_bits).bits)
        if hook is not None:
            dec_dur += time.perf_counter() - t0
    if hook is not None:
        hook("front-end", fe_ts, fe_dur, {"packets": total})
        hook("decode", dec_ts, dec_dur, {"packets": total})
    rx_bits = np.vstack(rx_rows)

    results = []
    offset = 0
    for batch, tx_bits in zip(batches, tx_rows):
        bit_errors = tx_bits != rx_bits[offset:offset + batch.num_packets]
        results.append({
            "errors": int(bit_errors.sum()),
            "trials": int(bit_errors.size),
            "packet_errors": int(bit_errors.any(axis=1).sum()),
        })
        offset += batch.num_packets
    return results


class FusedBatchRunner:
    """Picklable runner executing a :class:`FusedBatchGroup` in one pass.

    Returns ``{"results": [...]}`` with one chunk-runner mapping per
    member batch, aligned with ``group.batches``.  If the fused pass
    itself fails, every member is retried individually through the
    wrapped per-batch ``chunk_runner`` so one poisoned configuration
    cannot take down its round-mates; a member that still fails yields a
    captured ``{"error": ...}`` mapping in its slot.
    """

    def __init__(self, chunk_runner):
        self.chunk_runner = chunk_runner

    def __call__(self, group):
        try:
            return {"results": run_fused_group(group.batches)}
        except Exception:  # noqa: BLE001 - fall back to the per-batch path
            import traceback

            results = []
            for batch in group.batches:
                try:
                    results.append(dict(self.chunk_runner(batch)))
                except Exception as exc:  # noqa: BLE001 - captured per slot
                    results.append({
                        "error": "%s: %s\n%s" % (
                            type(exc).__name__, exc, traceback.format_exc()),
                    })
            return {"results": results}

    def __eq__(self, other):
        return (isinstance(other, FusedBatchRunner)
                and self.chunk_runner == other.chunk_runner)

    def __repr__(self):
        return "FusedBatchRunner(%r)" % (self.chunk_runner,)


def plan_fused_round(batches, max_group=MAX_GROUP_BATCHES):
    """Partition a round's batches into fused groups and leftovers.

    Returns ``(groups, singles)``: every :class:`FusedBatchGroup` bundles
    at least two batches sharing a :func:`fuse_key` (split at
    ``max_group`` members to bound peak memory); ``singles`` keeps the
    unfusable points and the lone members of their key in dispatch order.
    """
    by_key = {}
    singles = []
    for batch in batches:
        key = fuse_key(batch.point.params)
        if key is None:
            singles.append(batch)
        else:
            by_key.setdefault(key, []).append(batch)
    groups = []
    for members in by_key.values():
        if len(members) < 2:
            singles.extend(members)
            continue
        for start in range(0, len(members), max_group):
            chunk = members[start:start + max_group]
            if len(chunk) < 2:
                singles.extend(chunk)
            else:
                groups.append(FusedBatchGroup(chunk))
    return groups, singles
