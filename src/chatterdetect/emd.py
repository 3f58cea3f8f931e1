"""Empirical Mode Decomposition by envelope-mean sifting, plus the
noise-assisted ensemble variant (EEMD).

Every function here takes a 2-D batch of signals, one per row, and sifts
the rows in lockstep: each row keeps its own stop tests and leaves the
batch when it stops.  A 1-D signal is a batch of one and keeps the 1-D
return values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, ValidationError

# Samples that eemd sifts as one batch (rows x samples per row).  More rows
# share numpy's per-call cost over more work, but the work arrays and the
# batch's IMFs grow with them: at 1000 samples a row, 32 rows sifted about
# 13% faster than 16 and held about 9 MB at the peak instead of 6.
BATCH_SAMPLES = 16 * 1000

# Sifting stops once the normalized squared change between sweeps drops below
# SD_THRESHOLD and extrema and zero crossings differ by at most one, or after
# MAX_SWEEPS sweeps; emd extracts at most MAX_IMFS IMFs from MIN_SAMPLES or more.
SD_THRESHOLD = 0.2
MAX_SWEEPS = 100
MAX_IMFS = 10
MIN_SAMPLES = 4


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
    master_seed: int = 0

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ValidationError("ensemble_size must be positive")
        if not 0.0 <= self.noise_std_fraction <= 0.2:
            raise ValidationError("noise_std_fraction must lie in [0, 0.2]")
        if self.master_seed < 0:  # numpy's seed sequences take no negative entropy
            raise ValidationError(f"master_seed must be non-negative, got {self.master_seed}")


class _Work:
    """Work arrays that the sweeps of one decomposition reuse.

    A sweep writes its large intermediates into these instead of fresh
    temporaries: page-faulting fresh 100 KB+ arrays every sweep costs about
    as much as the arithmetic.
    """

    def __init__(self):
        self.buffers = {}

    def __call__(self, key, dtype, *shapes):
        """Uninitialized arrays of the given shapes, carved from one buffer
        that the next call with this key reuses."""
        sizes = [math.prod(shape) for shape in shapes]
        buf = self.buffers.get(key)
        if buf is None or buf.size < sum(sizes):
            buf = self.buffers[key] = np.empty(sum(sizes), dtype)
        out, at = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(buf[at : at + size].reshape(shape))
            at += size
        return out


def find_extrema(x):
    """Indices of strict local maxima and minima.

    Flat runs count once, at their (left-rounded) midpoint.  For a 1-D
    signal, returns (maxima, minima) index arrays.  For a 2-D batch, maxima
    and minima are each a (rows, columns) pair in row-major order, as
    np.nonzero gives them.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        (_, maxima), (_, minima) = find_extrema(x[None])
        return maxima, minima
    k, n = x.shape
    if n < 3:
        empty = np.array([], dtype=int)
        return (empty, empty), (empty, empty)
    flat = np.ascontiguousarray(x).ravel()
    up, down = flat[1:] > flat[:-1], flat[1:] < flat[:-1]
    if np.count_nonzero(up) + np.count_nonzero(down) == up.size:
        # no flat runs: a peak is a sample the signal rises into and falls
        # out of.  Comparing across the flattened rows is faster than on
        # 2-D slices; a sample at either end of a row is no extremum.
        out = []
        for mask in (up[:-1] & down[1:], down[:-1] & up[1:]):
            mask[n - 2 :: n] = mask[n - 1 :: n] = False
            at = np.flatnonzero(mask) + 1
            rows = at // n
            out.append((rows, at - rows * n))
        return tuple(out)
    d = np.diff(x, axis=1).ravel()
    nz = np.flatnonzero(d)
    rows = nz // (n - 1)
    # consecutive non-zero differences a < b of one row bracket a run of
    # equal samples (a+1 .. b) that is a peak when the signal rises into it
    # and falls out
    up, down = d[nz] > 0, d[nz] < 0
    rows, same = rows[:-1], rows[:-1] == rows[1:]
    mid = (nz[:-1] + 1 + nz[1:]) // 2 - rows * (n - 1)
    peak = up[:-1] & down[1:] & same
    trough = down[:-1] & up[1:] & same
    return (rows[peak], mid[peak]), (rows[trough], mid[trough])


def zero_crossings(x):
    """Number of sign changes, ignoring exact zeros; for a 2-D batch, an
    array of one count per row."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return int(zero_crossings(x[None])[0])
    neg, pos = x < 0, x > 0
    if np.count_nonzero(neg) + np.count_nonzero(pos) == x.size:
        return np.count_nonzero(neg[:, 1:] != neg[:, :-1], axis=1)
    s = np.sign(x).ravel()
    nz = np.flatnonzero(s)
    rows = nz // x.shape[1]
    s = s[nz]
    change = (s[:-1] != s[1:]) & (rows[:-1] == rows[1:])
    return np.bincount(rows[:-1][change], minlength=x.shape[0])


def _mirrored_knots(cols, vals, counts, n, t, v):
    """Write into t and v the spline knots of one envelope per block: the
    block's extrema, with the outermost two at each end reflected about the
    ends of a row of n samples.

    cols and vals are the extrema positions and values, block after block,
    and counts the number in each block (at least 2).  Extrema lie strictly
    inside a row, as find_extrema finds them, so reflected knots never
    coincide.  t and v hold cols.size + 4 * counts.size entries.
    """
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    start = first + 4 * np.arange(counts.size)
    end = start + counts + 3
    inner = np.ones(t.size, dtype=bool)
    inner[start] = inner[start + 1] = inner[end - 1] = inner[end] = False
    t[inner], v[inner] = cols, vals
    t[start], v[start] = -cols[first + 1], vals[first + 1]
    t[start + 1], v[start + 1] = -cols[first], vals[first]
    t[end - 1], v[end - 1] = 2 * (n - 1) - cols[last], vals[last]
    t[end], v[end] = 2 * (n - 1) - cols[last - 1], vals[last - 1]


def _natural_spline(t, v, sizes, n, out, work):
    """Natural cubic splines through blocks of knots, block b evaluated at
    0..n-1 into row b of the (len(sizes), n) array out.  work is the _Work
    that holds the intermediates.

    Block b is the next sizes[b] entries of the integer knot positions t
    (increasing within a block) and the values v.  All blocks form one
    block-diagonal tridiagonal system, with zero couplings between blocks,
    and LAPACK gtsv solves it with the bits it gives each block alone.  The
    arithmetic is that of scipy.interpolate's natural cubic spline in the
    same order (the system solve_banded passes to gtsv, Hermite
    coefficients, PPoly power-sum evaluation), so the values are bitwise
    equal to it, but without its per-call validation and wrapping.
    """
    sizes = np.asarray(sizes)
    knots = t.size
    start = np.cumsum(sizes) - sizes
    end = start + sizes - 1
    between = end[:-1]  # differences that span two blocks
    tf, b, main, dx, slope, lower, upper, s, z, term = work(
        "spline", float, (knots,), (knots,), (knots,), *[(knots - 1,)] * 4, *[out.shape] * 3
    )
    (edges,) = work("spline index", np.intp, (knots,))
    tf[:] = t
    np.subtract(tf[1:], tf[:-1], out=dx)
    dx[between] = 1.0  # never used, and 0 where two blocks share a knot position
    np.subtract(v[1:], v[:-1], out=slope)
    # the natural ends, as scipy writes them (zero second derivative):
    # -0.5 * 0.0 * dx**2 + 3 * dv at a block's start, 0.5 * 0.0 * dx**2 +
    # 3 * dv at its end
    b_start, b_end = 3 * slope[start], 3 * slope[end - 1] + 0.0
    slope /= dx
    # the tridiagonal system scipy hands to gtsv
    np.multiply(dx[1:], slope[:-1], out=b[1:-1])
    np.multiply(dx[:-1], slope[1:], out=main[1:-1])
    b[1:-1] += main[1:-1]
    b[1:-1] *= 3
    b[start], b[end] = b_start, b_end
    lower[:-1] = dx[1:]
    lower[end - 1] = dx[end - 1]
    lower[between] = 0.0
    np.add(dx[:-1], dx[1:], out=main[1:-1])
    main[1:-1] *= 2
    main[start] = 2 * dx[start]
    main[end] = 2 * dx[end - 1]
    upper[1:] = dx[:-1]
    upper[start] = dx[start]
    upper[between] = 0.0
    d, info = dgtsv(lower, main, upper, b, 1, 1, 1, 1)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(f"spline system not solvable (gtsv info {info})")
    # Hermite coefficients, in the memory of the solved system
    tc, c0, c1 = lower, upper, main[:-1]
    np.add(d[:-1], d[1:], out=tc)
    np.multiply(2, slope, out=c0)
    tc -= c0
    tc /= dx
    np.divide(tc, dx, out=c0)
    np.subtract(slope, d[:-1], out=c1)
    c1 /= dx
    c1 -= tc
    # the interval of every grid point: knots clipped to the grid bound the
    # points of each interval, and the first and last interval of a block
    # also take the points beyond its end knots
    np.clip(t, 0, n, out=edges)
    edges[start] = 0
    edges[end] = n
    counts = np.diff(edges)
    counts[between] = 0
    grid = np.arange(n, dtype=float)
    i = np.repeat(np.arange(knots - 1), counts).reshape(out.shape)
    np.take(tf, i, out=s, mode="clip")
    np.subtract(grid, s, out=s)
    np.multiply(s, s, out=z)
    # PPoly's power sum: (((0 + v) + d s) + c1 s^2) + c0 s^3
    np.take(v, i, out=out, mode="clip")
    out += 0.0
    np.take(d, i, out=term, mode="clip")
    term *= s
    out += term
    np.take(c1, i, out=term, mode="clip")
    term *= z
    out += term
    z *= s
    np.take(c0, i, out=term, mode="clip")
    term *= z
    out += term


def envelope_mean(x, extrema=None, out=None, work=None):
    """Mean of the upper and lower cubic-spline envelopes, or None when the
    signal has too few extrema to envelope (monotonic-like).

    extrema, when given, is find_extrema(x), so a caller that already has
    it does not compute it again.  For a 2-D batch, returns one mean per
    row, NaN where a row has fewer than two maxima or minima; a caller may
    leave a row out by leaving its extrema out.  out, when given, receives
    the 2-D result, and work is the _Work of an enclosing decomposition.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        maxima, minima = find_extrema(x) if extrema is None else extrema
        if maxima.size < 2 or minima.size < 2:
            return None
        batch = tuple((np.zeros(i.size, dtype=int), i) for i in (maxima, minima))
        return envelope_mean(x[None], batch)[0]
    k, n = x.shape
    if work is None:
        work = _Work()
    (rmax, cmax), (rmin, cmin) = find_extrema(x) if extrema is None else extrema
    nmax = np.bincount(rmax, minlength=k)
    nmin = np.bincount(rmin, minlength=k)
    ok = (nmax >= 2) & (nmin >= 2)
    if out is None:
        out = np.empty(x.shape)
    out[~ok] = np.nan
    if not ok.any():
        return out
    # one block list: the upper envelopes of the kept rows, then their lower ones
    rows = np.concatenate([rmax, rmin])
    cols = np.concatenate([cmax, cmin])
    if not ok.all():
        keep = ok[rows]
        rows, cols = rows[keep], cols[keep]
    counts = np.concatenate([nmax[ok], nmin[ok]])
    (t,) = work("knot positions", np.intp, (cols.size + 4 * counts.size,))
    (v,) = work("knot values", float, (t.size,))
    _mirrored_knots(cols, x[rows, cols], counts, n, t, v)
    (envelopes,) = work("envelopes", float, (counts.size, n))
    _natural_spline(t, v, counts + 4, n, envelopes, work)
    mean, lower = np.split(envelopes, 2)
    mean += lower
    mean /= 2.0
    out[ok] = mean
    return out


def sift_imf(r, work=None):
    """Extract one IMF from a residue.

    Returns (imf, is_monotonic).  is_monotonic is True when the residue has
    fewer than two maxima or minima, in which case imf is None.  For a 2-D
    batch, imf has one row per residue (NaN where monotonic) and
    is_monotonic one flag per row.  Every row runs its own stop tests and
    leaves the batch when it stops.  work, when given, is the _Work of an
    enclosing decomposition.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        imf, monotonic = sift_imf(r[None], work)
        return (None, True) if monotonic[0] else (imf[0], False)
    if work is None:
        work = _Work()
    imf = np.full(r.shape, np.nan)
    h, m, square = work("sift", float, r.shape, r.shape, r.shape)
    h[:] = r
    envelope_mean(h, out=m, work=work)
    monotonic = np.isnan(m[:, 0])
    # batch row j holds residue live[j]; rows that stop are swapped out, so
    # the live rows are always the first live.size rows of h and m
    live = _drop_rows(monotonic, np.arange(r.shape[0]), h, m)
    for _ in range(MAX_SWEEPS):
        if not live.size:
            break
        hs, ms, sq = h[: live.size], m[: live.size], square[: live.size]
        np.square(hs, out=sq)
        denom = sq.sum(axis=1)
        np.square(ms, out=sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            sd = np.where(denom > 0, sq.sum(axis=1) / denom, 0.0)
        hs -= ms
        extrema = find_extrema(hs)
        done = sd < SD_THRESHOLD
        if done.any():
            # the IMF condition: extrema and zero crossings differ by <= 1
            (rmax, cmax), (rmin, cmin) = extrema
            n_extrema = np.bincount(rmax, minlength=live.size) + np.bincount(
                rmin, minlength=live.size
            )
            done[done] = np.abs(n_extrema[done] - zero_crossings(hs[done])) <= 1
            keep_max, keep_min = ~done[rmax], ~done[rmin]
            extrema = (rmax[keep_max], cmax[keep_max]), (rmin[keep_min], cmin[keep_min])
        # rows whose extrema were left out get NaN means, as flat rows do
        envelope_mean(hs, extrema, out=ms, work=work)
        stopped = np.isnan(ms[:, 0])
        imf[live[stopped]] = hs[stopped]
        live = _drop_rows(stopped, live, h, m)
    imf[live] = h[: live.size]
    return imf, monotonic


def _drop_rows(drop, live, *arrays):
    """Remove the batch rows flagged in drop: move the last kept rows of
    every array into their places, and return live with the same moves."""
    kept = drop.size - np.count_nonzero(drop)
    holes = np.flatnonzero(drop[:kept])
    movers = kept + np.flatnonzero(~drop[kept:])
    for a in arrays:
        a[holes] = a[movers]
    live = live.copy()
    live[holes] = live[movers]
    return live[:kept]


def _as_signal(x):
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DomainError("need a signal or a 2-D batch of signals, one per row")
    if x.shape[-1] < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples to decompose")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        value = x.flat[bad[0]]
        if x.ndim == 1:
            raise DomainError(f"sample {bad[0]} is not finite ({value})")
        row, col = divmod(int(bad[0]), x.shape[1])
        raise DomainError(f"row {row} sample {col} is not finite ({value})")
    return x


def check_window_len(window_len):
    """Refuse an EEMD window too short to decompose."""
    if window_len < MIN_SAMPLES:
        raise DomainError(f"window_len must be at least {MIN_SAMPLES} for EEMD, got {window_len}")


def emd(x, work=None):
    """Plain EMD: successive sifting until a monotonic residue remains or
    MAX_IMFS IMFs are out.

    For a 2-D batch, returns one ImfSet per row.  The rows sift each IMF
    in lockstep, and a row leaves the batch once its residue is monotonic.
    work, when given, is a _Work whose arrays the sifting reuses.
    """
    x = _as_signal(x)
    if x.ndim == 1:
        return emd(x[None], work)[0]
    if work is None:
        work = _Work()
    residue = x.copy()
    imfs = [[] for _ in range(x.shape[0])]
    live = np.arange(x.shape[0])
    for _ in range(MAX_IMFS):
        if not live.size:
            break
        imf, monotonic = sift_imf(residue[live], work)
        live, imf = live[~monotonic], imf[~monotonic]
        for row, c in zip(live, imf):
            imfs[row].append(c.copy())
        residue[live] = residue[live] - imf
    return [ImfSet(c, r.copy()) for c, r in zip(imfs, residue)]


def eemd(x, params=None):
    """Ensemble EMD: average the IMFs of noise-perturbed decompositions.

    Member e of a window adds noise drawn from (master_seed, e), scaled by
    noise_std_fraction times the window's standard deviation.  For a 2-D
    batch of windows, returns one ImfSet per row.  The members of all
    windows are sifted together, BATCH_SAMPLES samples at a time, and each
    window's mean is taken over its members in index order as soon as they
    finish.  Every row is sifted on its own stop tests, so the result is
    bitwise identical for any batch composition and equal to decomposing
    each window alone.  A window with zero standard deviation, or zero
    noise_std_fraction, gets plain EMD.
    """
    x = _as_signal(x)
    if x.ndim == 1:
        return eemd(x[None], params)[0]
    if params is None:
        params = EemdParams()
    n_windows, n = x.shape
    size = params.ensemble_size
    sigma = [float(np.std(w)) for w in x]
    # (window, member) rows; member None is a window's plain EMD
    jobs = []
    for w in range(n_windows):
        plain = sigma[w] == 0.0 or params.noise_std_fraction == 0.0
        jobs += [(w, None)] if plain else [(w, e) for e in range(size)]
    if any(e is not None for _, e in jobs):
        noise = np.stack([
            np.random.default_rng([params.master_seed, e]).standard_normal(n)
            for e in range(size)
        ])
    results = [None] * n_windows
    sums = {}
    work = _Work()
    step = max(1, BATCH_SAMPLES // n)
    for first in range(0, len(jobs), step):
        batch = jobs[first : first + step]
        rows = np.stack([
            x[w] if e is None else x[w] + params.noise_std_fraction * sigma[w] * noise[e]
            for w, e in batch
        ])
        for (w, e), member in zip(batch, emd(rows, work)):
            if e is None:
                results[w] = member
            elif e == 0:
                sums[w] = member
            else:
                _add_member(sums[w], member)
            if e == size - 1:
                total = sums.pop(w)
                results[w] = ImfSet([c / size for c in total.imfs], total.residue / size)
    return results


def _add_member(total, member):
    """Add member's IMFs and residue into total, in place: members summed in
    index order, as np.mean sums them, a member without some IMF adding
    nothing there."""
    for i, c in enumerate(member.imfs):
        if i < total.n_imfs:
            total.imfs[i] += c
        else:
            total.imfs.append(c)
    np.add(total.residue, member.residue, out=total.residue)
