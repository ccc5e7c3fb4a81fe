"""Additive white Gaussian noise channel.

The SNR convention matches the paper's (and the demapper's): ``Es/N0`` per
data subcarrier, with the constellations normalised to unit average energy.
Because the OFDM modulator and demodulator use the orthonormal FFT, noise of
variance ``N0`` added to the time-domain samples appears with the same
variance on every subcarrier, so the channel can simply add complex Gaussian
noise of total variance ``N0 = 10**(-snr_db / 10)`` to the time samples.
"""

import numpy as np


def snr_db_to_linear(snr_db):
    """Convert an SNR in dB to a linear power ratio."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def noise_variance_for_snr(snr_db, signal_power=1.0):
    """Total complex-noise variance ``N0`` for the given SNR and signal power."""
    return signal_power / snr_db_to_linear(snr_db)


def awgn(samples, snr_db, rng=None, signal_power=1.0):
    """Return ``samples`` plus complex white Gaussian noise at ``snr_db``.

    Parameters
    ----------
    samples:
        Complex baseband samples.
    snr_db:
        Es/N0 in decibels.
    rng:
        Optional :class:`numpy.random.Generator` for reproducibility.
    signal_power:
        Average signal power per constellation symbol (1.0 for the
        normalised 802.11 constellations).
    """
    rng = np.random.default_rng() if rng is None else rng
    samples = np.asarray(samples, dtype=np.complex128)
    variance = noise_variance_for_snr(snr_db, signal_power)
    scale = np.sqrt(variance / 2.0)
    noise = rng.normal(scale=scale, size=samples.shape) + 1j * rng.normal(
        scale=scale, size=samples.shape
    )
    return samples + noise


def awgn_batch(samples, snr_db, rng=None, signal_power=1.0, dtype=None):
    """Batched AWGN: noise a ``(packets, samples)`` array in one draw.

    Parameters
    ----------
    samples:
        ``(packets, num_samples)`` complex baseband samples.
    snr_db:
        Es/N0 in decibels -- a scalar shared by every packet, or a
        ``(packets,)`` array applying a different SNR per packet.
    rng:
        Optional :class:`numpy.random.Generator` for reproducibility.
    signal_power:
        Average signal power per constellation symbol.
    dtype:
        Optional :mod:`repro.phy.dtype` policy (or name).  The default is
        the exact float64 path; under float32 the result is cast to
        complex64 *after* the float64 noise draw and add, so the random
        stream — and therefore the store's seed-derivation contract — is
        invariant to the precision choice.

    Notes
    -----
    The noise is drawn as one ``(packets, num_samples, 2)`` standard-normal
    tensor (real/imaginary interleaved per packet) and scaled by each
    packet's noise amplitude afterwards.  Because numpy's Generator fills
    C-order and draws chunk-invariantly along the leading axis, splitting a
    run into smaller batches consumes an identical random stream -- results
    do not depend on the batch size.
    """
    from repro.phy.dtype import dtype_policy

    policy = dtype_policy(dtype)
    rng = np.random.default_rng() if rng is None else rng
    samples = np.asarray(samples, dtype=policy.complex_dtype)
    if samples.ndim != 2:
        raise ValueError("awgn_batch expects a (packets, samples) array")
    variance = noise_variance_for_snr(np.asarray(snr_db, dtype=float), signal_power)
    scale = np.broadcast_to(
        np.atleast_1d(np.sqrt(variance / 2.0)), (samples.shape[0],)
    )
    noise = rng.standard_normal(samples.shape + (2,))
    out = samples + scale[:, np.newaxis] * (noise[..., 0] + 1j * noise[..., 1])
    if not policy.exact:
        out = out.astype(policy.complex_dtype)
    return out


class AwgnChannel:
    """Object form of the AWGN channel, with a persistent random stream.

    Parameters
    ----------
    snr_db:
        Es/N0 in decibels.
    seed:
        Seed for the channel's random generator; passing the same seed (and
        sending the same number of samples) reproduces the same noise.
    """

    def __init__(self, snr_db, seed=None):
        self.snr_db = float(snr_db)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.samples_processed = 0

    @property
    def noise_variance(self):
        """Total complex noise variance ``N0``."""
        return noise_variance_for_snr(self.snr_db)

    def reset(self):
        """Restart the noise stream from the original seed."""
        self._rng = np.random.default_rng(self.seed)
        self.samples_processed = 0

    def __call__(self, samples):
        """Apply the channel to a block of samples."""
        samples = np.asarray(samples, dtype=np.complex128)
        self.samples_processed += samples.size
        return awgn(samples, self.snr_db, rng=self._rng)

    def __repr__(self):
        return "AwgnChannel(snr_db=%.1f)" % self.snr_db
