"""The 802.11a/g receive pipeline.

The receiver mirrors the transmit chain of Figure 1: OFDM demodulation, soft
demapping, deinterleaving, depuncturing, soft-decision decoding and
descrambling.  The decoder is pluggable -- hard Viterbi, SOVA or SW-BCJR --
which is the axis the paper's case study explores.

Two call styles are offered:

* :meth:`Receiver.receive` processes one packet end to end.
* :meth:`Receiver.front_end_batch` plus :meth:`Receiver.decode_batch`
  process a whole batch of packets: every front-end stage and the trellis
  decode are vectorised across the batch, which is how the BER experiments
  push millions of bits through the pure-Python decoders in reasonable
  time.  :meth:`Receiver.front_end` is the batch-of-one wrapper, so the two
  paths are bit-exact by construction.

Batched front-end shapes (P packets, S OFDM symbols per packet)::

    samples          (P, S * 80)        complex time-domain input
    symbols          (P, S * 48)        one stacked FFT + per-packet equalise
    soft values      (P, S * N_CBPS)    vectorised Tosato/Bisaglia demap
    deinterleaved    (P, S * N_CBPS)    per-symbol permutation
    depunctured      (P, 2 * (bits+6))  one scatter with erasures
    decoded bits     (P, bits)          batched trellis decode + one
                                        keystream XOR to descramble
"""

import numpy as np

from repro.phy.bcjr import BcjrDecoder
from repro.phy.convolutional import IEEE80211_CODE, depuncture
from repro.phy.decoder_base import ConvolutionalDecoder
from repro.phy.demapper import Demapper
from repro.phy.dtype import dtype_policy
from repro.phy.interleaver import Interleaver
from repro.phy.ofdm import OfdmDemodulator
from repro.phy.scrambler import descramble
from repro.phy.sova import SovaDecoder
from repro.phy.transmitter import FrameGeometry
from repro.phy.viterbi import ViterbiDecoder

#: Decoder classes known to the receiver, keyed by their registry name.
DECODER_CLASSES = {
    ViterbiDecoder.name: ViterbiDecoder,
    SovaDecoder.name: SovaDecoder,
    BcjrDecoder.name: BcjrDecoder,
}


class ReceiveResult:
    """Output of the receive chain for one packet (or a batch).

    Attributes
    ----------
    bits:
        Decoded, descrambled payload bits; shape ``(num_data_bits,)`` for a
        single packet or ``(batch, num_data_bits)``.
    llr:
        Per-bit signed LLRs from the decoder (``None`` for hard Viterbi).
        The sign refers to the *scrambled* bit value; the magnitude -- the
        SoftPHY hint -- is unaffected by descrambling.
    """

    def __init__(self, bits, llr=None):
        self.bits = bits
        self.llr = llr

    @property
    def hints(self):
        """Unsigned SoftPHY hints (LLR magnitudes), or ``None``."""
        if self.llr is None:
            return None
        return np.abs(self.llr)

    def __repr__(self):
        return "ReceiveResult(bits=%s, soft=%s)" % (
            getattr(self.bits, "shape", None),
            self.llr is not None,
        )


def make_decoder(decoder, dtype=None, **kwargs):
    """Build a decoder from a name, class or ready instance.

    ``dtype`` (a :mod:`repro.phy.dtype` policy) is forwarded only to
    decoder classes advertising ``supports_dtype``; the others always
    compute in float64 and simply up-cast reduced-precision soft inputs.
    A ready instance is returned unchanged.
    """
    if isinstance(decoder, ConvolutionalDecoder):
        return decoder
    if isinstance(decoder, type) and issubclass(decoder, ConvolutionalDecoder):
        cls = decoder
    else:
        try:
            cls = DECODER_CLASSES[decoder]
        except (KeyError, TypeError):
            raise ValueError(
                "unknown decoder %r (expected one of %s, a decoder class or "
                "an instance)" % (decoder, ", ".join(sorted(DECODER_CLASSES)))
            ) from None
    if dtype is not None and getattr(cls, "supports_dtype", False):
        kwargs.setdefault("dtype", dtype)
    return cls(**kwargs)


class Receiver:
    """Full 802.11a/g receive chain for one PHY rate.

    Parameters
    ----------
    phy_rate:
        The :class:`~repro.phy.params.PhyRate` the transmitter used.
    decoder:
        Decoder name (``"viterbi"``, ``"sova"``, ``"bcjr"``), class or
        instance.
    scrambler_seed:
        Must match the transmitter's seed.
    demapper_scaled:
        Forwarded to :class:`~repro.phy.demapper.Demapper`: ``False`` is the
        paper's hardware demapper (no SNR/modulation scaling).
    snr_db:
        SNR assumed by a scaled demapper.
    llr_format:
        Optional fixed-point format applied to the demapper output,
        modelling the narrow hardware datapath.
    dtype:
        Working-precision policy (see :mod:`repro.phy.dtype`), threaded
        through the demodulator, demapper, depuncturer and (for decoders
        that support it) the trellis decode — every coercion the chain
        performs uses the policy's dtypes, so a float32 chain never
        silently up-casts mid-stream.  Default: the exact float64 path.
    """

    def __init__(
        self,
        phy_rate,
        decoder="viterbi",
        scrambler_seed=0x7F,
        demapper_scaled=False,
        snr_db=None,
        llr_format=None,
        code=IEEE80211_CODE,
        dtype=None,
    ):
        self.phy_rate = phy_rate
        self.scrambler_seed = scrambler_seed
        self.code = code
        self.dtype_policy = dtype_policy(dtype)
        self.decoder = make_decoder(decoder, dtype=self.dtype_policy)
        self.demapper = Demapper(
            phy_rate.modulation,
            snr_db=snr_db,
            scaled=demapper_scaled,
            output_format=llr_format,
            dtype=self.dtype_policy,
        )
        self.interleaver = Interleaver(phy_rate)
        self.demodulator = OfdmDemodulator(dtype=self.dtype_policy)

    def geometry(self, num_data_bits):
        """Frame geometry (must match the transmitter's)."""
        return FrameGeometry(self.phy_rate, num_data_bits, code=self.code)

    # ------------------------------------------------------------------ #
    # Front end: everything before the trellis decoder
    # ------------------------------------------------------------------ #
    def front_end(self, samples, num_data_bits, channel_gain=None, csi_weights=None):
        """Demodulate, demap, deinterleave and depuncture one packet.

        Thin batch-of-one wrapper around :meth:`front_end_batch`, so the
        two paths are bit-exact by construction.

        Parameters
        ----------
        samples:
            Received complex baseband samples for the frame.
        num_data_bits:
            Payload size the transmitter used (known to the receiver via
            the PLCP header, which is not modelled).
        channel_gain:
            Optional (scalar) flat-fading gain for ideal equalisation.
        csi_weights:
            Optional per-OFDM-symbol weights applied to the soft values
            (channel-state information).

        Returns
        -------
        numpy.ndarray
            Depunctured soft values ready for a trellis decoder, length
            ``2 * (num_data_bits + memory)``.
        """
        samples = np.asarray(samples, dtype=self.dtype_policy.complex_dtype)
        gains = None if channel_gain is None else np.array([complex(channel_gain)])
        csi = None
        if csi_weights is not None:
            csi = np.asarray(
                csi_weights, dtype=self.dtype_policy.float_dtype
            )[np.newaxis, :]
        return self.front_end_batch(
            samples[np.newaxis, :], num_data_bits, channel_gains=gains, csi_weights=csi
        )[0]

    def front_end_batch(
        self, samples, num_data_bits, channel_gains=None, csi_weights=None,
        llr_scale=None,
    ):
        """Batched front end: ``(packets, samples)`` in, soft values out.

        Every stage operates on the whole batch at once (see the module
        docstring for the per-stage shapes); there is no per-packet Python
        iteration.

        Parameters
        ----------
        samples:
            ``(packets, num_samples)`` received complex baseband samples.
        num_data_bits:
            Payload size the transmitter used (shared by every packet).
        channel_gains:
            Optional ``(packets,)`` complex flat-fading gains for ideal
            per-packet equalisation.
        csi_weights:
            Optional ``(packets, num_symbols)`` per-OFDM-symbol weights
            applied to the soft values (channel-state information).
        llr_scale:
            Optional per-packet ``Es/N0 * S_modulation`` factors (shape
            ``(packets,)``) forwarded to the demapper — how a fused round
            applies a *different* scaled-demapper SNR per operating point.

        Returns
        -------
        numpy.ndarray
            ``(packets, 2 * (num_data_bits + memory))`` depunctured soft
            values ready for a batched trellis decode.
        """
        samples = np.asarray(samples, dtype=self.dtype_policy.complex_dtype)
        if samples.ndim != 2:
            raise ValueError("front_end_batch expects a (packets, samples) array")
        geometry = self.geometry(num_data_bits)
        symbols = self.demodulator.demodulate_batch(
            samples, channel_gains=channel_gains
        )
        weights = None
        if csi_weights is not None:
            weights = np.repeat(
                np.asarray(csi_weights, dtype=self.dtype_policy.float_dtype),
                48, axis=-1
            )[..., : symbols.shape[1]]
        soft = self.demapper.demap(symbols, weights=weights,
                                   llr_scale=llr_scale)
        deinterleaved = self.interleaver.deinterleave(soft)
        transmitted = deinterleaved[:, : geometry.coded_bits]
        return depuncture(
            transmitted, self.phy_rate.code_rate, geometry.unpunctured_bits,
            dtype=self.dtype_policy.float_dtype,
        )

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_batch(self, soft_batch, num_data_bits):
        """Decode a ``(batch, length)`` array of depunctured soft values."""
        result = self.decoder.decode(np.asarray(soft_batch), num_data_bits)
        # Every packet shares the scrambler seed, so the whole batch is
        # descrambled with one keystream XOR.
        descrambled = descramble(result.bits, seed=self.scrambler_seed)
        return ReceiveResult(bits=descrambled, llr=result.llr)

    def receive(self, samples, num_data_bits, channel_gain=None, csi_weights=None):
        """Process one packet end to end."""
        soft = self.front_end(
            samples,
            num_data_bits,
            channel_gain=channel_gain,
            csi_weights=csi_weights,
        )
        batch = self.decode_batch(soft[np.newaxis, :], num_data_bits)
        llr = None if batch.llr is None else batch.llr[0]
        return ReceiveResult(bits=batch.bits[0], llr=llr)

    def __repr__(self):
        return "Receiver(rate=%s, decoder=%s)" % (
            self.phy_rate.name,
            self.decoder.name,
        )


def receive(samples, phy_rate, num_data_bits, decoder="viterbi", **kwargs):
    """Convenience wrapper: receive one packet."""
    receiver = Receiver(phy_rate, decoder=decoder, **kwargs)
    return receiver.receive(samples, num_data_bits)
