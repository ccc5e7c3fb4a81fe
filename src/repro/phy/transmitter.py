"""The 802.11a/g transmit pipeline.

The transmitter chains the blocks on the left-hand side of the paper's
Figure 1: scrambler, convolutional encoder (with termination tail),
puncturer, pad-to-symbol, interleaver, constellation mapper and OFDM
modulator.  The :class:`Transmitter` object applies the whole chain to one
packet; :class:`FrameGeometry` records every intermediate length so the
receiver (and the tests) can reconstruct exactly which transmitted positions
carry payload, tail and padding.

Batching
--------
:meth:`Transmitter.transmit_batch` is the batch-native entry point: a whole
``(packets, num_data_bits)`` bit matrix flows through the chain as 2-D
arrays with no per-packet Python iteration.  The per-stage shapes are::

    payload bits      (packets, num_data_bits)        uint8
    scrambled bits    (packets, num_data_bits)        XOR with cached keystream
    coded bits        (packets, coded_bits)           batched shift-register XOR
                                                      + one puncture gather
    padded bits       (packets, padded_bits)
    interleaved bits  (packets, padded_bits)          per-symbol permutation
    symbols           (packets, padded_bits / bps)    constellation lookup table
    samples           (packets, num_samples)          one stacked IFFT

:meth:`Transmitter.transmit` is a thin batch-of-one wrapper, so the two
paths are bit-exact by construction.  The per-stage methods
(:meth:`~Transmitter.scramble`, :meth:`~Transmitter.encode`, ...) remain the
single-packet building blocks used by the latency-insensitive pipelines.
"""

import numpy as np

from repro.phy.convolutional import IEEE80211_CODE, punctured_length, puncture
from repro.phy.interleaver import Interleaver
from repro.phy.mapper import Mapper
from repro.phy.ofdm import OfdmModulator
from repro.phy.scrambler import scramble


class FrameGeometry:
    """Derived lengths for a packet of ``num_data_bits`` at a given rate.

    Attributes
    ----------
    num_data_bits:
        Payload bits in the packet.
    num_trellis_steps:
        Payload plus the encoder's termination tail.
    coded_bits:
        Punctured coded bits actually transmitted (before padding).
    padded_bits:
        Coded bits after padding up to a whole number of OFDM symbols.
    num_symbols:
        OFDM symbols in the frame.
    num_samples:
        Complex time-domain samples (including cyclic prefixes).
    """

    def __init__(self, phy_rate, num_data_bits, code=IEEE80211_CODE, cyclic_prefix=16):
        if num_data_bits < 1:
            raise ValueError("a packet needs at least one data bit")
        self.phy_rate = phy_rate
        self.num_data_bits = int(num_data_bits)
        self.num_trellis_steps = self.num_data_bits + code.memory
        self.coded_bits = punctured_length(self.num_trellis_steps, phy_rate.code_rate)
        ncbps = phy_rate.coded_bits_per_symbol
        self.num_symbols = int(np.ceil(self.coded_bits / ncbps))
        self.padded_bits = self.num_symbols * ncbps
        self.pad_bits = self.padded_bits - self.coded_bits
        self.num_samples = self.num_symbols * (64 + cyclic_prefix)
        self.unpunctured_bits = self.num_trellis_steps * code.outputs_per_input

    @property
    def duration_us(self):
        """On-air duration of the frame at 4 us per OFDM symbol."""
        return self.num_symbols * 4.0

    def __repr__(self):
        return "FrameGeometry(rate=%s, data=%d, symbols=%d)" % (
            self.phy_rate.name,
            self.num_data_bits,
            self.num_symbols,
        )


class Transmitter:
    """Full 802.11a/g transmit chain for one PHY rate.

    Parameters
    ----------
    phy_rate:
        The :class:`~repro.phy.params.PhyRate` to transmit at.
    scrambler_seed:
        Non-zero 7-bit scrambler seed shared with the receiver.
    code:
        Convolutional mother code (the 802.11 K=7 code by default).
    dtype:
        Working-precision policy for the mapper and OFDM modulator (see
        :mod:`repro.phy.dtype`).  The bit-domain stages are dtype-free;
        the float64 default is bit-for-bit the historical chain.
    """

    def __init__(self, phy_rate, scrambler_seed=0x7F, code=IEEE80211_CODE,
                 dtype=None):
        self.phy_rate = phy_rate
        self.scrambler_seed = scrambler_seed
        self.code = code
        self.interleaver = Interleaver(phy_rate)
        self.mapper = Mapper(phy_rate.modulation, dtype=dtype)
        self.modulator = OfdmModulator(dtype=dtype)

    def geometry(self, num_data_bits):
        """Frame geometry for a packet of ``num_data_bits``."""
        return FrameGeometry(self.phy_rate, num_data_bits, code=self.code)

    # ------------------------------------------------------------------ #
    # Individual stages (exposed for the LI pipeline wrappers and tests)
    # ------------------------------------------------------------------ #
    def scramble(self, bits):
        """Scramble the payload bits."""
        return scramble(np.asarray(bits, dtype=np.uint8), seed=self.scrambler_seed)

    def encode(self, scrambled_bits):
        """Convolutionally encode (terminated) and puncture."""
        coded = self.code.encode(scrambled_bits, terminate=True)
        return puncture(coded, self.phy_rate.code_rate)

    def pad(self, coded_bits):
        """Zero-pad the coded stream to a whole number of OFDM symbols."""
        ncbps = self.phy_rate.coded_bits_per_symbol
        remainder = coded_bits.size % ncbps
        if remainder == 0:
            return np.asarray(coded_bits, dtype=np.uint8)
        pad = np.zeros(ncbps - remainder, dtype=np.uint8)
        return np.concatenate([np.asarray(coded_bits, dtype=np.uint8), pad])

    def map_symbols(self, interleaved_bits):
        """Map interleaved coded bits onto constellation symbols."""
        return self.mapper.map(interleaved_bits)

    # ------------------------------------------------------------------ #
    # Whole-packet transmit
    # ------------------------------------------------------------------ #
    def transmit_batch(self, bits):
        """Run the transmit chain on a ``(packets, num_data_bits)`` bit matrix.

        Every stage operates on the whole 2-D array at once (see the module
        docstring for the per-stage shapes); there is no per-packet Python
        iteration.  Returns the complex baseband samples as a
        ``(packets, num_samples)`` array.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError("transmit_batch expects a (packets, bits) array")
        scrambled = self.scramble(bits)
        coded = self.code.encode(scrambled, terminate=True)
        punctured = puncture(coded, self.phy_rate.code_rate)
        ncbps = self.phy_rate.coded_bits_per_symbol
        remainder = punctured.shape[1] % ncbps
        if remainder:
            pad = np.zeros((punctured.shape[0], ncbps - remainder), dtype=np.uint8)
            punctured = np.concatenate([punctured, pad], axis=1)
        interleaved = self.interleaver.interleave(punctured)
        symbols = self.mapper.map_batch(interleaved)
        return self.modulator.modulate_batch(symbols)

    def transmit(self, bits):
        """Run the whole transmit chain on a payload bit array.

        Thin wrapper around :meth:`transmit_batch` with a batch of one;
        returns the complex baseband samples of the frame.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        return self.transmit_batch(bits[np.newaxis, :])[0]

    def __repr__(self):
        return "Transmitter(rate=%s)" % self.phy_rate.name


def transmit(bits, phy_rate, scrambler_seed=0x7F):
    """Convenience wrapper: transmit ``bits`` at ``phy_rate``."""
    return Transmitter(phy_rate, scrambler_seed=scrambler_seed).transmit(bits)
