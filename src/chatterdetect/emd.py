"""Empirical Mode Decomposition by envelope-mean sifting, plus the
noise-assisted ensemble variant (EEMD)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class SiftStop:
    """Stoppage settings for one sifting run.

    Sifting stops once the normalized squared change between consecutive
    sweeps drops below sd_threshold and the candidate satisfies the
    extrema/zero-crossing count condition, or after max_sweeps sweeps.
    """

    sd_threshold: float = 0.2
    max_sweeps: int = 100


@dataclass(frozen=True)
class ImfSet:
    imfs: list  # list of np.ndarray, fastest oscillation first
    residue: np.ndarray

    @property
    def n_imfs(self):
        return len(self.imfs)

    def reconstruct(self):
        total = self.residue.copy()
        for c in self.imfs:
            total += c
        return total


@dataclass(frozen=True)
class EemdParams:
    ensemble_size: int = 200
    noise_std_fraction: float = 0.2
    max_imfs: int = 10
    sift_stop: SiftStop = field(default_factory=SiftStop)
    master_seed: int = 0

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ValidationError("ensemble_size must be positive")
        if not 0.0 <= self.noise_std_fraction <= 0.2:
            raise ValidationError("noise_std_fraction must lie in [0, 0.2]")
        if self.max_imfs < 1:
            raise ValidationError("max_imfs must be positive")


def find_extrema(x):
    """Indices of strict local maxima and minima.

    Flat runs count once, at their (left-rounded) midpoint.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.array([], dtype=int), np.array([], dtype=int)
    d = np.diff(x)
    nz = np.flatnonzero(d)
    # consecutive non-zero differences a < b bracket a run of equal samples
    # (a+1 .. b) that is a peak when the signal rises into it and falls out
    up = d[nz] > 0
    down = d[nz] < 0
    mid = (nz[:-1] + 1 + nz[1:]) // 2
    return mid[up[:-1] & down[1:]], mid[down[:-1] & up[1:]]


def zero_crossings(x):
    """Number of sign changes, ignoring exact zeros."""
    s = np.sign(x)
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[:-1] != s[1:]))


def _mirrored_knots(idx, val, n, n_mirror=2):
    """Extend extrema beyond both ends by reflecting the outermost ones."""
    k = min(n_mirror, idx.size)
    left_t = (-idx[:k])[::-1]
    left_v = val[:k][::-1]
    right_t = (2 * (n - 1) - idx[-k:])[::-1]
    right_v = val[-k:][::-1]
    t = np.concatenate([left_t, idx, right_t])
    v = np.concatenate([left_v, val, right_v])
    keep = np.concatenate([[True], np.diff(t) > 0])
    return t[keep], v[keep]


def _natural_spline(t, v, n):
    """Natural cubic spline through the knots (t, v), evaluated at 0..n-1.

    Performs the arithmetic of scipy.interpolate's natural cubic spline in
    the same order (the tridiagonal system solve_banded passes to LAPACK
    gtsv, Hermite coefficients, PPoly power-sum evaluation), so the values
    are bitwise equal to it, but without its per-call validation and
    wrapping.  t must be strictly increasing, and t and v finite.
    """
    t = t.astype(float)
    k = t.size
    dx = np.diff(t)
    slope = np.diff(v) / dx
    # the tridiagonal system scipy hands to gtsv, natural ends written as
    # scipy writes them (zero second derivative)
    lower = np.concatenate([dx[1:], dx[-1:]])
    main = np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1:]])
    upper = np.concatenate([dx[:1], dx[:-1]])
    b = np.empty(k)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (v[1] - v[0])
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (v[-1] - v[-2])
    d, info = dgtsv(lower, main, upper, b, 1, 1, 1, 1)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(f"spline system not solvable (gtsv info {info})")
    tc = (d[:-1] + d[1:] - 2 * slope) / dx
    c0 = tc / dx
    c1 = (slope - d[:-1]) / dx - tc
    grid = np.arange(n, dtype=float)
    i = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, k - 2)
    s = grid - t[i]
    z = s * s
    out = 0.0 + v[i]
    out += d[i] * s
    out += c1[i] * z
    z *= s
    out += c0[i] * z
    return out


def envelope_mean(x, extrema=None):
    """Mean of the upper and lower cubic-spline envelopes, or None when the
    signal has too few extrema to envelope (monotonic-like).

    extrema, when given, is find_extrema(x), so a caller that already has
    it does not compute it again.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    maxima, minima = find_extrema(x) if extrema is None else extrema
    if maxima.size < 2 or minima.size < 2:
        return None
    tu, vu = _mirrored_knots(maxima, x[maxima], n)
    tl, vl = _mirrored_knots(minima, x[minima], n)
    return (_natural_spline(tu, vu, n) + _natural_spline(tl, vl, n)) / 2.0


def sift_imf(r, stop=None):
    """Extract one IMF from a residue.

    Returns (imf, is_monotonic).  is_monotonic is True when the residue has
    fewer than two maxima or minima, in which case imf is None.
    """
    if stop is None:
        stop = SiftStop()
    h = np.asarray(r, dtype=float).copy()
    m = envelope_mean(h)
    if m is None:
        return None, True
    for _ in range(stop.max_sweeps):
        h_new = h - m
        denom = float(np.sum(h**2))
        sd = float(np.sum(m**2)) / denom if denom > 0 else 0.0
        h = h_new
        extrema = find_extrema(h)
        if sd < stop.sd_threshold:
            # the IMF condition: extrema and zero crossings differ by <= 1
            maxima, minima = extrema
            if abs((maxima.size + minima.size) - zero_crossings(h)) <= 1:
                break
        m = envelope_mean(h, extrema)
        if m is None:
            break
    return h, False


def _as_signal(x):
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise DomainError("need at least 4 samples to decompose")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"sample {bad[0]} is not finite ({x[bad[0]]})")
    return x


def emd(x, max_imfs=10, stop=None):
    """Plain EMD: successive sifting until a monotonic residue remains."""
    x = _as_signal(x)
    if stop is None:
        stop = SiftStop()
    residue = x.copy()
    imfs = []
    while len(imfs) < max_imfs:
        imf, monotonic = sift_imf(residue, stop)
        if monotonic:
            break
        imfs.append(imf)
        residue = residue - imf
    return ImfSet(imfs, residue)


def _eemd_member(x, sigma, params, member_index):
    rng = np.random.default_rng([params.master_seed, member_index])
    noise = rng.standard_normal(x.size)
    perturbed = x + params.noise_std_fraction * sigma * noise
    return emd(perturbed, params.max_imfs, params.sift_stop)


def eemd(x, params=None, n_workers=1):
    """Ensemble EMD: average the IMFs of noise-perturbed decompositions.

    Each ensemble member derives its own random stream from
    (master_seed, member index), and members are aggregated by index, so the
    result is bitwise identical for any worker count.
    """
    x = _as_signal(x)
    if params is None:
        params = EemdParams()
    sigma = float(np.std(x))
    if sigma == 0.0 or params.noise_std_fraction == 0.0:
        return emd(x, params.max_imfs, params.sift_stop)
    members = [None] * params.ensemble_size
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = {
                pool.submit(_eemd_member, x, sigma, params, e): e
                for e in range(params.ensemble_size)
            }
            for fut, e in futures.items():
                members[e] = fut.result()
    else:
        for e in range(params.ensemble_size):
            members[e] = _eemd_member(x, sigma, params, e)
    n_imfs = max(m.n_imfs for m in members)
    n = x.size
    stacked = np.zeros((params.ensemble_size, n_imfs, n))
    residues = np.zeros((params.ensemble_size, n))
    for e, m in enumerate(members):
        for i, c in enumerate(m.imfs):
            stacked[e, i] = c
        residues[e] = m.residue
    mean_imfs = [stacked[:, i, :].mean(axis=0) for i in range(n_imfs)]
    return ImfSet(mean_imfs, residues.mean(axis=0))
