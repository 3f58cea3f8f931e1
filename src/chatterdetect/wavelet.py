"""Wavelet packet decomposition with the db10 basis.

The filter pair is generated by spectral factorization of the Daubechies
binomial polynomial.  The transform is a periodized orthogonal filter bank:
the input is zero-padded to a multiple of 2^level (zeros add no energy and
crop away exactly), every decimation level then has even length and the
analysis operator is exactly orthogonal, so packet energies sum to the
signal energy and the sum of single-packet reconstructions returns the
input.  Packets are indexed 1..2^k in ascending frequency order via the
Gray-code permutation of the filter-bank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from math import comb

import numpy as np

from .errors import DomainError
from .ingest import TimeSeries

MAX_LEVEL = 4


@dataclass(frozen=True)
class WaveletFilters:
    lowpass: np.ndarray
    highpass: np.ndarray


@dataclass(frozen=True)
class FrequencyBand:
    low_hz: float
    high_hz: float

    def overlaps(self, other):
        """True when the overlap has nonzero measure."""
        return self.low_hz < other.high_hz and self.high_hz > other.low_hz


def db10_filters():
    """The 20-tap orthonormal db10 pair.

    Spectral factorization: the binomial polynomial's roots are mapped to
    z-plane root pairs and the minimum-phase half is kept, together with
    the ten zeros at z = -1.
    """
    p = 10
    # P(y) = sum_k C(p-1+k, k) y^k, highest degree first for np.roots
    poly = [comb(p - 1 + k, k) for k in range(p)]
    zroots = []
    for y in np.roots(poly[::-1]):
        # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0
        zpair = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
        zroots.append(zpair[np.argmin(np.abs(zpair))])
    roots = np.concatenate([np.full(p, -1.0 + 0j), np.asarray(zroots)])
    lo = np.real(np.poly(roots))
    lo = lo * (np.sqrt(2.0) / lo.sum())
    hi = (lo[::-1] * (-1.0) ** np.arange(lo.size)).copy()
    return WaveletFilters(lo, hi)


@cache
def _db10():
    # computed on first use, so runs that never decompose skip the
    # factorization (and the LAPACK work buffers it allocates)
    return db10_filters()


def _gray(b):
    # natural-order node index of the packet at frequency rank b
    return b ^ (b >> 1)


def _analysis_step(x, taps):
    """Periodic correlate-and-downsample; len(x) must be even."""
    wrapped = x[np.arange(x.size + taps.size - 1) % x.size]
    return np.correlate(wrapped, taps, mode="valid")[0::2]


def _synthesis_step(coeffs, taps):
    """Transpose of the analysis step: upsample and circularly convolve."""
    up = np.zeros(2 * coeffs.size)
    up[0::2] = coeffs
    wrapped = up[np.arange(1 - taps.size, up.size) % up.size]
    return np.convolve(wrapped, taps, mode="valid")


@dataclass(frozen=True)
class PacketTree:
    """Wavelet-packet tree; packets frequency-ordered and 1-based."""

    sample_rate_hz: float
    original_length: int
    # levels[k] is a (2^k, padded / 2^k) array; row b is natural-order node b
    levels: dict = field(repr=False)

    @property
    def level(self):
        return max(self.levels)

    def leaves(self):
        """The same tree holding only its deepest level, which is all that
        `reconstruct_packet` and `energy_ratios` read at that level."""
        return replace(self, levels={self.level: self.levels[self.level]})

    def packet(self, level, packet_index):
        """Coefficients of the packet at `packet_index` (frequency order)."""
        self._check(level, packet_index)
        return self.levels[level][_gray(packet_index - 1)]

    def packets(self, level):
        return [self.packet(level, j + 1) for j in range(2**level)]

    def _check(self, level, packet_index):
        if level not in self.levels:
            raise DomainError(f"level {level} not held; the tree holds {sorted(self.levels)}")
        if not 1 <= packet_index <= 2**level:
            raise DomainError(
                f"packet index {packet_index} outside 1..{2**level} at level {level}"
            )


def check_level(level):
    """Refuse a decomposition depth outside 1..MAX_LEVEL."""
    if not 1 <= level <= MAX_LEVEL:
        raise DomainError(f"level must lie in 1..{MAX_LEVEL}, got {level}")


def wpt_decompose(ts, level):
    """Full db10 wavelet-packet decomposition of a time series up to `level`."""
    check_level(level)
    n = ts.samples.size
    if n < 2**level:
        raise DomainError(f"series of length {n} too short for level {level}")
    filters = _db10()
    block = 2**level
    # level 0: the input zero-padded to a multiple of 2^level, as one row
    node = np.zeros((1, int(np.ceil(n / block)) * block))
    node[0, :n] = ts.samples
    levels = {}
    for k in range(1, level + 1):
        node = np.stack([_analysis_step(parent, taps) for parent in node
                         for taps in (filters.lowpass, filters.highpass)])
        levels[k] = node
    return PacketTree(ts.sample_rate_hz, n, levels)


def reconstruct_packet(tree, level, packet_index):
    """Time-domain signal carrying only the selected packet's content."""
    tree._check(level, packet_index)
    b = _gray(packet_index - 1)
    coeffs = tree.levels[level][b]
    filters = _db10()
    for _ in range(level):
        taps = filters.highpass if b & 1 else filters.lowpass
        coeffs = _synthesis_step(coeffs, taps)
        b >>= 1
    return TimeSeries(coeffs[: tree.original_length], tree.sample_rate_hz)


def energy_ratios(tree, level):
    """Fraction of total packet energy held by each packet at `level`."""
    tree._check(level, 1)
    energies = np.sum(tree.levels[level] ** 2, axis=1)[_gray(np.arange(2**level))]
    total = energies.sum()
    if total == 0.0:
        raise DomainError("energy ratios undefined for the all-zero signal")
    return energies / total


def packet_band(level, packet_index, sample_rate_hz):
    """Nominal frequency band of a frequency-ordered packet."""
    if level < 1:
        raise DomainError(f"level must be positive, got {level}")
    if not 1 <= packet_index <= 2**level:
        raise DomainError(
            f"packet index {packet_index} outside 1..{2**level} at level {level}"
        )
    width = sample_rate_hz / 2 ** (level + 1)
    return FrequencyBand((packet_index - 1) * width, packet_index * width)


def predict_informative_packets(band, level, sample_rate_hz):
    """Packets whose band overlaps `band` with nonzero measure.

    The top packet ends exactly at the Nyquist frequency, so a band at or
    above it overlaps none.
    """
    if not (0 <= band.low_hz < band.high_hz):
        raise DomainError("band must satisfy 0 <= low < high")
    return {j for j in range(1, 2**level + 1)
            if packet_band(level, j, sample_rate_hz).overlaps(band)}
