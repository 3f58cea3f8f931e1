"""Selection of the informative wavelet packet and the informative IMF for a
cutting configuration.

The informative component is the one whose frequency band overlaps the
configuration's chatter band and carries the highest relative energy,
averaged over the chatter-labeled training data.  It is not necessarily the
highest-energy component overall: stable cutting concentrates energy in the
low packets, so candidates are restricted to the chatter-band overlap set.

Both policies work on precomputed per-sample rows (energy ratios or band
fractions), so a realization re-selects without decomposing again.  Both
return the selection record written into reports; ties break toward the
lower index.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .wavelet import packet_band, predict_informative_packets

_NO_ROWS = "no chatter-labeled training samples for selection"


def select_packet(ratio_rows, band, level, sample_rate_hz):
    """Pick the packet with the highest mean energy ratio among the packets
    overlapping `band`.

    ratio_rows holds one row of 2^level energy ratios (packet j at position
    j - 1) per chatter-labeled training sample.
    """
    if len(ratio_rows) == 0:
        raise DomainError(_NO_ROWS)
    candidates = sorted(predict_informative_packets(band, level, sample_rate_hz))
    if not candidates:
        raise DomainError(
            f"chatter band ({band.low_hz}, {band.high_hz}) overlaps no packet "
            f"below the Nyquist frequency {sample_rate_hz / 2} Hz"
        )
    means = np.mean([[row[j - 1] for j in candidates] for row in ratio_rows], axis=0)
    best = int(np.argmax(means))  # argmax takes the first (lowest index) tie
    chosen = candidates[best]
    chosen_band = packet_band(level, chosen, sample_rate_hz)
    return {
        "kind": "packet",
        "level": level,
        "index": chosen,
        "mean_energy_ratio": float(means[best]),
        "candidates": {str(j): float(m) for j, m in zip(candidates, means)},
        "band_hz": [chosen_band.low_hz, chosen_band.high_hz],
    }


def in_band_fraction(imf, band, sample_rate_hz):
    """Share of the IMF's spectral energy inside `band` (0 for a zero IMF)."""
    imf = np.asarray(imf, dtype=float)
    spectrum = np.abs(np.fft.rfft(imf)) ** 2
    total = float(spectrum.sum())
    if total == 0.0:
        return 0.0
    freqs = np.arange(spectrum.size) * sample_rate_hz / imf.size
    mask = (freqs >= band.low_hz) & (freqs <= band.high_hz)
    return float(spectrum[mask].sum()) / total


def select_imf(fraction_rows):
    """Pick the 1-based IMF index whose chatter-band fraction is highest on
    average.

    fraction_rows holds one row of in_band_fraction values per
    chatter-labeled training sample.  Rows may differ in length: an IMF
    index absent from a decomposition contributes zero to the average.
    """
    rows = [np.asarray(row, dtype=float) for row in fraction_rows]
    if not rows:
        raise DomainError(_NO_ROWS)
    if any(row.size == 0 for row in rows):
        raise DomainError("every training decomposition needs at least one IMF")
    scores = np.zeros(max(row.size for row in rows))
    for row in rows:
        scores[: row.size] += row
    scores /= len(rows)
    chosen = int(np.argmax(scores)) + 1
    return {
        "kind": "imf",
        "index": chosen,
        "band_overlap_score": float(scores[chosen - 1]),
        "scores": [float(v) for v in scores],
    }
