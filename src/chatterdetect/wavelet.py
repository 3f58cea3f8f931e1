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

from dataclasses import dataclass, field
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


def daubechies_filters(n_vanishing_moments):
    """Orthonormal Daubechies filter pair with the given vanishing moments.

    Spectral factorization: the binomial polynomial's roots are mapped to
    z-plane root pairs and the minimum-phase half is kept, together with
    the required zeros at z = -1.
    """
    p = n_vanishing_moments
    if p < 1:
        raise DomainError("need at least one vanishing moment")
    if p == 1:  # Haar
        lo = np.array([1.0, 1.0]) / np.sqrt(2.0)
    else:
        # P(y) = sum_k C(p-1+k, k) y^k, highest degree first for np.roots
        poly = [comb(p - 1 + k, k) for k in range(p)]
        yroots = np.roots(poly[::-1])
        zroots = []
        for y in yroots:
            # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0
            zpair = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
            zroots.append(zpair[np.argmin(np.abs(zpair))])
        roots = np.concatenate([np.full(p, -1.0 + 0j), np.asarray(zroots)])
        lo = np.real(np.poly(roots))
        lo = lo * (np.sqrt(2.0) / lo.sum())
    hi = (lo[::-1] * (-1.0) ** np.arange(lo.size)).copy()
    return WaveletFilters(lo, hi)


def db10_filters():
    """The 20-tap db10 pair."""
    return daubechies_filters(10)


@cache
def _db10():
    # computed on first use, so runs that never decompose skip the
    # factorization (and the LAPACK work buffers it allocates)
    return db10_filters()


def _gray(b):
    # natural-order node index of the packet at frequency rank b
    return b ^ (b >> 1)


def _wrap_tail(x, count):
    """First `count` samples of the periodic extension of x."""
    reps = int(np.ceil(count / x.size))
    return np.tile(x, reps)[:count]


def _analysis_step(x, taps):
    """Periodic correlate-and-downsample; len(x) must be even."""
    wrapped = np.concatenate([x, _wrap_tail(x, taps.size - 1)])
    return np.correlate(wrapped, taps, mode="valid")[0::2]


def _synthesis_step(coeffs, taps, parent_len):
    """Transpose of the analysis step: upsample and circularly convolve."""
    up = np.zeros(parent_len)
    up[0::2] = coeffs
    head = _wrap_tail(up[::-1], taps.size - 1)[::-1]
    wrapped = np.concatenate([head, up])
    return np.convolve(wrapped, taps, mode="valid")


@dataclass(frozen=True)
class PacketTree:
    """Full wavelet-packet tree; packets frequency-ordered and 1-based."""

    level: int
    sample_rate_hz: float
    original_length: int
    padded_length: int
    # _nodes[(k, b)] holds the coefficients of natural-order node b at level k
    _nodes: dict = field(repr=False)

    def packet(self, level, packet_index):
        """Coefficients of the packet at `packet_index` (frequency order)."""
        self._check(level, packet_index)
        return self._nodes[(level, _gray(packet_index - 1))]

    def packets(self, level):
        return [self.packet(level, j + 1) for j in range(2**level)]

    def _check(self, level, packet_index):
        if not 1 <= level <= self.level:
            raise DomainError(f"level {level} outside 1..{self.level}")
        if not 1 <= packet_index <= 2**level:
            raise DomainError(
                f"packet index {packet_index} outside 1..{2**level} at level {level}"
            )


def wpt_decompose(ts, level):
    """Full db10 wavelet-packet decomposition of a time series up to `level`."""
    if not 1 <= level <= MAX_LEVEL:
        raise DomainError(f"level must lie in 1..{MAX_LEVEL}, got {level}")
    x = np.asarray(ts.samples, dtype=float)
    n = x.size
    if n < 2**level:
        raise DomainError(f"series of length {n} too short for level {level}")
    filters = _db10()
    block = 2**level
    padded = int(np.ceil(n / block)) * block
    if padded > n:
        x = np.concatenate([x, np.zeros(padded - n)])
    nodes = {(0, 0): x}
    for k in range(level):
        for b in range(2**k):
            parent = nodes[(k, b)]
            nodes[(k + 1, 2 * b)] = _analysis_step(parent, filters.lowpass)
            nodes[(k + 1, 2 * b + 1)] = _analysis_step(parent, filters.highpass)
    return PacketTree(
        level=level,
        sample_rate_hz=ts.sample_rate_hz,
        original_length=n,
        padded_length=padded,
        _nodes=nodes,
    )


def reconstruct_packet(tree, level, packet_index):
    """Time-domain signal carrying only the selected packet's content."""
    tree._check(level, packet_index)
    b = _gray(packet_index - 1)
    coeffs = tree._nodes[(level, b)]
    filters = _db10()
    for k in range(level, 0, -1):
        parent_len = tree.padded_length // 2 ** (k - 1)
        taps = filters.highpass if b & 1 else filters.lowpass
        coeffs = _synthesis_step(coeffs, taps, parent_len)
        b >>= 1
    return TimeSeries(coeffs[: tree.original_length], tree.sample_rate_hz)


def energy_ratios(tree, level):
    """Fraction of total packet energy held by each packet at `level`."""
    tree._check(level, 1)
    energies = np.array([float(np.sum(p**2)) for p in tree.packets(level)])
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
    """Packets whose band overlaps `band` with nonzero measure."""
    nyquist = sample_rate_hz / 2
    if not (0 <= band.low_hz < band.high_hz):
        raise DomainError("band must satisfy 0 <= low < high")
    chosen = set()
    for j in range(1, 2**level + 1):
        if packet_band(level, j, sample_rate_hz).overlaps(band):
            chosen.add(j)
    if band.low_hz >= nyquist:
        return set()
    return chosen
