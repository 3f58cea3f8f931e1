"""Feature vectors for classification.

The wavelet-packet path uses fourteen statistics (ten time-domain, four
frequency-domain) of the reconstructed informative packet; the decomposition
path uses seven time-domain statistics of each intrinsic mode function.  One
moments kernel serves both; it deliberately normalizes skewness and kurtosis
by (N-1) times powers of the RMS, not by central-moment conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

WPT_FEATURE_NAMES = (
    "mean",
    "std",
    "rms",
    "peak",
    "skewness",
    "kurtosis",
    "crest_factor",
    "clearance_factor",
    "shape_factor",
    "impulse_factor",
    "mean_square_frequency",
    "one_step_autocorr",
    "frequency_center",
    "standard_frequency",
)

EEMD_FEATURE_NAMES = (
    "energy_ratio",
    "peak_to_peak",
    "std",
    "rms",
    "crest_factor",
    "skewness",
    "kurtosis",
)


def magnitude_spectrum(x, sample_rate_hz):
    """One-sided DFT magnitude spectrum of x along its last axis.

    Forward transform is unnormalized; M = floor(len/2)+1 bins at
    f_k = k * Fs / len.  The frequency features are ratios of spectral sums,
    so the normalization cancels.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise DomainError("need at least 2 samples for a spectrum")
    mags = np.abs(np.fft.rfft(x))
    freqs = np.arange(mags.shape[-1]) * sample_rate_hz / x.shape[-1]
    return freqs, mags


def _moments(x):
    """Row-wise mean, std (ddof 1), RMS, skewness and kurtosis of a (k, n)
    matrix.  The powers of the RMS go through float_power, libm's pow as for
    a Python float; array ** rounds differently."""
    n = x.shape[1]
    mean = np.mean(x, axis=1)
    rms = np.sqrt(np.mean(x**2, axis=1))
    if not rms.all():
        raise DomainError(f"ratio features undefined for all-zero row {np.argmin(rms) + 1}")
    centered = x - mean[:, None]
    skewness = np.sum(centered**3, axis=1) / ((n - 1) * np.float_power(rms, 3))
    kurtosis = np.sum(centered**4, axis=1) / ((n - 1) * np.float_power(rms, 4))
    return mean, np.std(x, axis=1, ddof=1), rms, skewness, kurtosis


def wpt_features(x, sample_rate_hz):
    """The fourteen statistics of a reconstructed wavelet packet, as an array
    in WPT_FEATURE_NAMES order."""
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise DomainError("need at least 4 samples")
    (a1,), (a2,), (a3,), (a5,), (a6,) = _moments(x[None, :])
    a4 = float(np.max(np.abs(x)))
    a7 = a4 / a3
    mean_sqrt_abs = float(np.mean(np.sqrt(np.abs(x))))
    mean_abs = float(np.mean(np.abs(x)))
    a8 = a4 / mean_sqrt_abs**2
    a9 = a3 / mean_abs
    a10 = a4 / mean_abs
    freqs, mags = magnitude_spectrum(x, sample_rate_hz)
    total = float(np.sum(mags))
    if total == 0.0:
        raise DomainError("spectral features undefined for the all-zero signal")
    dt = 1.0 / sample_rate_hz
    a11 = float(np.sum(freqs**2 * mags) / total)
    a12 = float(np.sum(np.cos(2 * np.pi * freqs * dt) * mags) / total)
    a13 = float(np.sum(freqs * mags) / total)
    a14 = float(np.sum((freqs - a13) ** 2 * mags) / total)
    return np.array([a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14])


def eemd_features(imfs):
    """The seven statistics of each IMF of an ImfSet, as an (n_imfs, 7) matrix
    in EEMD_FEATURE_NAMES order, row i - 1 for IMF i.  The energy-ratio
    denominator runs over the IMFs only; the residue is excluded."""
    if imfs.n_imfs == 0:
        raise DomainError("no IMFs to featurize")
    c = np.asarray(imfs.imfs, dtype=float)
    energies = np.sum(c**2, axis=1)
    total_energy = float(sum(energies.tolist()))  # left to right; np.sum rounds differently
    if total_energy == 0.0:
        raise DomainError("energy ratio undefined: all IMFs are zero")
    _, std, rms, skewness, kurtosis = _moments(c)
    peak = np.max(c, axis=1)
    return np.column_stack([energies / total_energy, peak - np.min(c, axis=1), std, rms,
                            peak / rms, skewness, kurtosis])
