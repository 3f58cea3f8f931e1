import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from chatterdetect import (
    DomainError,
    EemdParams,
    SiftStop,
    ValidationError,
    eemd,
    emd,
    envelope_mean,
    find_extrema,
    sift_imf,
)
from chatterdetect.emd import _natural_spline, zero_crossings

# the submodule; the package attribute chatterdetect.emd is the function
emd_module = importlib.import_module("chatterdetect.emd")


def two_tone(n=512, fs=1000.0):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * 5 * t) + 0.4 * np.sin(2 * np.pi * 60 * t)


def reference_extrema(x):
    """The original per-index loop, kept as the oracle for find_extrema."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.array([], dtype=int), np.array([], dtype=int)
    d = np.diff(x)
    nz = np.flatnonzero(d)
    maxima, minima = [], []
    for a, b in zip(nz[:-1], nz[1:]):
        if d[a] > 0 and d[b] < 0:
            maxima.append((a + 1 + b) // 2)
        elif d[a] < 0 and d[b] > 0:
            minima.append((a + 1 + b) // 2)
    return np.asarray(maxima, dtype=int), np.asarray(minima, dtype=int)


def reference_mirrored_knots(idx, val, n, n_mirror=2):
    """Extrema extended beyond both ends by reflecting the outermost ones:
    the original per-signal code, kept as part of the envelope oracle."""
    k = min(n_mirror, idx.size)
    left_t = (-idx[:k])[::-1]
    left_v = val[:k][::-1]
    right_t = (2 * (n - 1) - idx[-k:])[::-1]
    right_v = val[-k:][::-1]
    t = np.concatenate([left_t, idx, right_t])
    v = np.concatenate([left_v, val, right_v])
    keep = np.concatenate([[True], np.diff(t) > 0])
    return t[keep], v[keep]


def reference_envelope_mean(x):
    """scipy's natural cubic splines through the mirrored extrema: the
    oracle for envelope_mean."""
    maxima, minima = reference_extrema(x)
    if maxima.size < 2 or minima.size < 2:
        return None
    grid = np.arange(x.size)
    tu, vu = reference_mirrored_knots(maxima, x[maxima], x.size)
    tl, vl = reference_mirrored_knots(minima, x[minima], x.size)
    upper = CubicSpline(tu, vu, bc_type="natural")(grid)
    lower = CubicSpline(tl, vl, bc_type="natural")(grid)
    return (upper + lower) / 2.0


# plateau-rich signals: small rounded integers, runs of repeated values, and
# general floats
signals = st.one_of(
    st.lists(st.integers(-3, 3), min_size=0, max_size=300),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 6)), max_size=80).map(
        lambda runs: [v for v, k in runs for _ in range(k)]
    ),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=300),
).map(lambda values: np.asarray(values, dtype=float))


@st.composite
def batches(draw):
    """2-D batches for the row-wise helpers.  Values on a coarse grid make
    flat runs, some touching a row's ends or running on across the next
    row's start in the flattened array; constant rows and rows of fewer
    than 3 samples are included."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    values = st.integers(-2, 2) if draw(st.booleans()) else st.floats(-1e3, 1e3)
    x = np.asarray(draw(st.lists(values, min_size=k * n, max_size=k * n)),
                   dtype=float).reshape(k, n)
    for row in draw(st.sets(st.integers(0, k - 1))):
        x[row] = draw(st.integers(-2, 2))
    return x


class TestRowWise:
    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_find_extrema_rows_match_one_row(self, x):
        (rmax, cmax), (rmin, cmin) = find_extrema(x)
        for row in range(x.shape[0]):
            maxima, minima = find_extrema(x[row])
            assert np.array_equal(cmax[rmax == row], maxima)
            assert np.array_equal(cmin[rmin == row], minima)
            ref_max, ref_min = reference_extrema(x[row])
            assert np.array_equal(maxima, ref_max) and np.array_equal(minima, ref_min)
        # row-major order, as np.nonzero gives
        for rows, cols in ((rmax, cmax), (rmin, cmin)):
            assert np.all(np.diff(rows * (x.shape[1] + 1) + cols) > 0)

    @settings(max_examples=300, deadline=None)
    @given(batches())
    def test_zero_crossings_rows_match_one_row(self, x):
        counts = zero_crossings(x)
        assert counts.shape == (x.shape[0],)
        for row in range(x.shape[0]):
            s = np.sign(x[row])
            s = s[s != 0]
            assert counts[row] == zero_crossings(x[row]) == np.count_nonzero(s[:-1] != s[1:])

    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_envelope_mean_rows_match_one_row(self, x):
        means = envelope_mean(x)
        for row in range(x.shape[0]):
            expected = envelope_mean(x[row])
            if expected is None:
                assert np.all(np.isnan(means[row]))
            else:
                assert np.array_equal(means[row], expected)


def mixed_batch(n=512):
    """Rows that stop sifting in different ways: a monotone row, a row with
    one IMF and then a monotone residue, rows whose first IMF needs more
    than 3 sweeps, and noise with many IMFs."""
    t = np.arange(n) / n
    rng = np.random.default_rng(5)
    return np.stack([
        np.linspace(0.0, 1.0, n),
        np.sin(2 * np.pi * 12 * t) + 3 * t,
        np.sin(2 * np.pi * 5 * t) + 0.3 * np.sin(2 * np.pi * 150 * t) * ((t * 10 % 3) < 0.6),
        rng.standard_normal(n).cumsum(),
        rng.standard_normal(n),
        np.sin(2 * np.pi * 5 * t) + 0.4 * np.sin(2 * np.pi * 60 * t),
    ])


def reference_emd(x, max_imfs, stop):
    """The original one-signal sifting loop over the reference extrema and
    scipy's splines: the oracle for the lockstep batch."""
    residue, imfs = x.copy(), []
    while len(imfs) < max_imfs:
        h = residue.copy()
        m = reference_envelope_mean(h)
        if m is None:
            break
        for _ in range(stop.max_sweeps):
            denom = float(np.sum(h**2))
            sd = float(np.sum(m**2)) / denom if denom > 0 else 0.0
            h = h - m
            if sd < stop.sd_threshold:
                maxima, minima = reference_extrema(h)
                s = np.sign(h)
                s = s[s != 0]
                if abs(maxima.size + minima.size - np.count_nonzero(s[:-1] != s[1:])) <= 1:
                    break
            m = reference_envelope_mean(h)
            if m is None:
                break
        imfs.append(h)
        residue = residue - h
    return emd_module.ImfSet(imfs, residue)


def assert_same(a, b):
    assert a.n_imfs == b.n_imfs
    for ca, cb in zip(a.imfs + [a.residue], b.imfs + [b.residue]):
        assert np.array_equal(ca, cb)


class TestLockstep:
    @pytest.mark.parametrize("max_imfs, stop", [(3, SiftStop(0.2, 3)), (10, SiftStop())])
    def test_batch_emd_equals_one_row_emd(self, max_imfs, stop):
        x = mixed_batch()
        batch = emd(x, max_imfs, stop)
        assert len(batch) == x.shape[0]
        for row, result in zip(x, batch):
            assert_same(result, emd(row, max_imfs, stop))
            assert_same(result, reference_emd(row, max_imfs, stop))
        counts = [r.n_imfs for r in batch]
        assert counts[0] == 0 and counts[1] == 1
        if max_imfs == 3:
            assert counts[3] == counts[4] == 3

    def test_rows_stop_on_their_own_tests(self):
        x = mixed_batch()
        capped, capped_mono = sift_imf(x, SiftStop(0.2, 3))
        free, _ = sift_imf(x, SiftStop(0.2, 100))
        assert list(capped_mono) == [True] + [False] * 5
        assert np.all(np.isnan(capped[0]))
        for row in range(1, x.shape[0]):
            imf, monotonic = sift_imf(x[row], SiftStop(0.2, 3))
            assert not monotonic and np.array_equal(capped[row], imf)
        # the intermittent, random-walk and noise rows hit the sweep cap;
        # the tonal rows stop on the sd and IMF tests before it
        hit = [not np.array_equal(capped[r], free[r]) for r in range(1, x.shape[0])]
        assert hit == [False, True, True, True, False]

    def test_eemd_independent_of_batch_size(self, monkeypatch):
        # windows straddle batches when each holds 1, 2 or 5 rows; a
        # constant window takes the plain path
        x = mixed_batch(256)
        x[0] = 1.5
        params = EemdParams(ensemble_size=3, master_seed=4)
        default = eemd(x, params)
        assert default[0].n_imfs == 0
        for rows in (1, 2, 5):
            monkeypatch.setattr(emd_module, "BATCH_SAMPLES", rows * x.shape[1])
            for got, want in zip(eemd(x, params), default):
                assert_same(got, want)
        for row, want in zip(x, default):
            assert_same(eemd(row, params), want)

    def test_batch_checks_samples(self):
        x = mixed_batch(64)
        x[2, 9] = np.inf
        with pytest.raises(DomainError, match="row 2 sample 9"):
            emd(x)
        with pytest.raises(DomainError):
            emd(np.zeros((2, 3, 64)))


class TestFindExtrema:
    @settings(max_examples=300, deadline=None)
    @given(signals)
    def test_matches_reference_loop(self, x):
        maxima, minima = find_extrema(x)
        ref_max, ref_min = reference_extrema(x)
        assert maxima.dtype == ref_max.dtype and minima.dtype == ref_min.dtype
        assert np.array_equal(maxima, ref_max)
        assert np.array_equal(minima, ref_min)

    def test_single_hump(self):
        x = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        maxima, minima = find_extrema(x)
        assert list(maxima) == [2] and minima.size == 0

    def test_alternating(self):
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        maxima, minima = find_extrema(x)
        assert list(maxima) == [1, 3, 5]
        assert list(minima) == [2, 4]

    def test_flat_top_counts_once(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        maxima, minima = find_extrema(x)
        assert list(maxima) == [2]

    def test_flat_run_even_length_left_midpoint(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        maxima, _ = find_extrema(x)
        assert list(maxima) == [1]

    def test_monotone_has_none(self):
        maxima, minima = find_extrema(np.arange(10.0))
        assert maxima.size == 0 and minima.size == 0

    def test_sine_counts(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 5 * t)
        maxima, minima = find_extrema(x)
        assert maxima.size == 5 and minima.size == 5

    def test_short_input(self):
        maxima, minima = find_extrema(np.array([1.0, 2.0]))
        assert maxima.size == 0 and minima.size == 0


class TestZeroCrossings:
    def test_sine(self):
        t = np.arange(1000) / 1000.0
        assert zero_crossings(np.sin(2 * np.pi * 5 * t + 0.3)) == 10

    def test_exact_zeros_ignored(self):
        assert zero_crossings(np.array([1.0, 0.0, 1.0, -1.0])) == 1

    def test_constant(self):
        assert zero_crossings(np.ones(10)) == 0


class TestEnvelopeMean:
    @settings(max_examples=300, deadline=None)
    @given(signals)
    def test_bitwise_equal_to_scipy_splines(self, x):
        expected = reference_envelope_mean(x)
        for m in (envelope_mean(x), envelope_mean(x, find_extrema(x))):
            if expected is None:
                assert m is None
            else:
                assert np.array_equal(m, expected)

    def test_singular_spline_system_raises(self):
        # repeated knots zero the diagonal; the solver's status must not
        # be ignored, also when the singular block sits among good ones
        good = np.array([-3, -1, 1, 3, 5, 7])
        t = np.concatenate([good, np.zeros(3, dtype=int), good])
        v = np.arange(t.size, dtype=float) % 4
        work = emd_module._Work()
        _natural_spline(good, v[:6], [6], 5, (np.empty((1, 5)),), work)
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            _natural_spline(t, v, [6, 3, 6], 5, (np.empty((3, 5)),), work)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(1, 9), st.floats(-1e3, 1e3)),
                             min_size=4, max_size=12), min_size=1, max_size=6),
           st.integers(1, 40), st.integers(-20, 5))
    def test_blocks_match_scipy_one_by_one(self, blocks, n, offset):
        # one block-diagonal solve gives each block scipy's bits
        t = np.concatenate([offset + np.cumsum([g for g, _ in b]) for b in blocks])
        v = np.asarray([y for b in blocks for _, y in b])
        sizes = [len(b) for b in blocks]
        split = len(blocks) // 2
        out = (np.empty((split, n)), np.empty((len(blocks) - split, n)))
        _natural_spline(t, v, sizes, n, out, emd_module._Work())
        got = np.vstack(out)
        grid = np.arange(n)
        at = np.cumsum([0] + sizes)
        for row, (lo, hi) in enumerate(zip(at[:-1], at[1:])):
            spline = CubicSpline(t[lo:hi], v[lo:hi], bc_type="natural")
            assert np.array_equal(got[row], spline(grid))

    def test_pure_sine_mean_near_zero(self):
        t = np.arange(2000) / 1000.0
        m = envelope_mean(np.sin(2 * np.pi * 10 * t))
        rms = np.sqrt(np.mean(m[100:-100] ** 2))
        assert rms < 0.01

    def test_offset_sine_recovers_offset(self):
        t = np.arange(2000) / 1000.0
        m = envelope_mean(3.0 + np.sin(2 * np.pi * 10 * t))
        assert abs(np.mean(m[100:-100]) - 3.0) < 0.01

    def test_monotone_returns_none(self):
        assert envelope_mean(np.arange(100.0)) is None

    def test_too_few_extrema_returns_none(self):
        x = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        assert envelope_mean(x) is None or envelope_mean(x).size == x.size

    def test_envelope_brackets_signal_between_extrema(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 8 * t) * (1 + 0.3 * np.sin(2 * np.pi * 1 * t))
        m = envelope_mean(x)
        maxima, minima = find_extrema(x)
        interior = slice(maxima[0], maxima[-1])
        assert np.all(m[interior] <= np.max(x) + 1e-9)
        assert np.all(m[interior] >= np.min(x) - 1e-9)


class TestSiftImf:
    def test_monotone_flagged(self):
        imf, monotonic = sift_imf(np.arange(50.0))
        assert monotonic and imf is None

    def test_sine_passes_through(self):
        t = np.arange(2000) / 1000.0
        x = np.sin(2 * np.pi * 10 * t)
        imf, monotonic = sift_imf(x)
        assert not monotonic
        core = slice(200, -200)
        assert np.corrcoef(imf[core], x[core])[0, 1] > 0.999

    def test_imf_condition_holds(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512)
        imf, monotonic = sift_imf(x)
        assert not monotonic
        maxima, minima = find_extrema(imf)
        assert abs((maxima.size + minima.size) - zero_crossings(imf)) <= 1

    def test_sweep_cap_respected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256)
        imf, _ = sift_imf(x, SiftStop(sd_threshold=0.0, max_sweeps=3))
        assert imf is not None


class TestEmd:
    def test_reconstruction_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512)
        result = emd(x)
        assert np.max(np.abs(result.reconstruct() - x)) < 1e-9

    def test_two_tone_separation(self):
        x = two_tone()
        result = emd(x)
        assert result.n_imfs >= 2
        t = np.arange(512) / 1000.0
        fast = 0.4 * np.sin(2 * np.pi * 60 * t)
        core = slice(50, -50)
        assert np.corrcoef(result.imfs[0][core], fast[core])[0, 1] > 0.99

    def test_trend_lands_in_residue(self):
        t = np.arange(512) / 1000.0
        trend = 2.0 * t
        result = emd(two_tone() + trend)
        core = slice(50, -50)
        assert np.corrcoef(result.residue[core], trend[core])[0, 1] > 0.99

    def test_imf_ordering_fast_to_slow(self):
        result = emd(two_tone())
        counts = [zero_crossings(c) for c in result.imfs[:2]]
        assert counts[0] > counts[1]

    def test_max_imfs_cap(self):
        rng = np.random.default_rng(1)
        result = emd(rng.standard_normal(2048), max_imfs=3)
        assert result.n_imfs <= 3

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            emd(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        x = two_tone()
        x[37] = bad
        with pytest.raises(DomainError, match="sample 37"):
            emd(x)
        with pytest.raises(DomainError, match="sample 37"):
            eemd(x, EemdParams(ensemble_size=2))

    def test_invariants_over_many_signals(self):
        # reconstruction stays exact and every extracted component keeps the
        # extrema/zero-crossing count property across a mixed population
        rng = np.random.default_rng(7)
        worst = 0.0
        violations = 0
        for trial in range(40):
            if trial % 2 == 0:
                x = rng.standard_normal(256)
            else:
                t = np.arange(512) / 1000.0
                f1, f2 = rng.uniform(3, 12), rng.uniform(40, 90)
                x = (np.sin(2 * np.pi * f1 * t)
                     + rng.uniform(0.2, 0.8) * np.sin(2 * np.pi * f2 * t)
                     + rng.uniform(-1, 1) * t)
            result = emd(x)
            worst = max(worst, float(np.max(np.abs(result.reconstruct() - x))))
            for c in result.imfs:
                maxima, minima = find_extrema(c)
                if abs((maxima.size + minima.size) - zero_crossings(c)) > 1:
                    violations += 1
        assert worst < 1e-9
        assert violations == 0


def intermittent_signal():
    # low tone with short high-frequency bursts: the classic mode-mixing case
    fs = 1000.0
    t = np.arange(1000) / fs
    x = np.sin(2 * np.pi * 5 * t)
    mask = np.zeros(t.size)
    for start in (100, 400, 700):
        mask[start : start + 60] = 1.0
    return x + 0.3 * np.sin(2 * np.pi * 150 * t) * mask, fs


def low_freq_fraction(c, fs, cutoff_hz=20.0):
    spectrum = np.abs(np.fft.rfft(c)) ** 2
    freqs = np.arange(spectrum.size) * fs / c.size
    return spectrum[freqs < cutoff_hz].sum() / spectrum.sum()


class TestEemd:
    def test_reduces_mode_mixing(self):
        x, fs = intermittent_signal()
        plain = emd(x)
        params = EemdParams(ensemble_size=50, noise_std_fraction=0.2,
                            master_seed=3)
        ensembled = eemd(x, params)
        plain_frac = low_freq_fraction(plain.imfs[0], fs)
        eemd_frac = low_freq_fraction(ensembled.imfs[0], fs)
        # without noise assistance the low tone leaks into the first
        # component wherever the bursts are absent
        assert plain_frac > 0.5
        assert eemd_frac < 0.05

    def test_deterministic_for_fixed_seed(self):
        x, _ = intermittent_signal()
        params = EemdParams(ensemble_size=8, master_seed=11)
        a = eemd(x, params)
        b = eemd(x, params)
        assert a.n_imfs == b.n_imfs
        for ca, cb in zip(a.imfs, b.imfs):
            assert np.array_equal(ca, cb)
        assert np.array_equal(a.residue, b.residue)

    def test_worker_count_invariant(self):
        x, _ = intermittent_signal()
        params = EemdParams(ensemble_size=8, master_seed=5)
        serial = eemd(x, params, n_workers=1)
        threaded = eemd(x, params, n_workers=4)
        for ca, cb in zip(serial.imfs, threaded.imfs):
            assert np.array_equal(ca, cb)
        assert np.array_equal(serial.residue, threaded.residue)

    def test_seed_changes_result(self):
        x, _ = intermittent_signal()
        a = eemd(x, EemdParams(ensemble_size=4, master_seed=0))
        b = eemd(x, EemdParams(ensemble_size=4, master_seed=1))
        assert any(
            not np.array_equal(ca, cb) for ca, cb in zip(a.imfs, b.imfs)
        )

    def test_zero_noise_matches_plain(self):
        x = two_tone()
        plain = emd(x)
        limiting = eemd(x, EemdParams(ensemble_size=10, noise_std_fraction=0.0))
        assert limiting.n_imfs == plain.n_imfs
        for ca, cb in zip(limiting.imfs, plain.imfs):
            assert np.array_equal(ca, cb)

    def test_constant_signal_matches_plain_path(self):
        x = np.full(64, 2.0)
        result = eemd(x, EemdParams(ensemble_size=4, noise_std_fraction=0.2))
        assert result.n_imfs == 0
        assert np.array_equal(result.residue, x)

    def test_golden_digest(self):
        # SHA-256 of the IMFs and residue as computed by the scipy-spline
        # implementation; a faster sifting must reproduce it bit for bit
        rng = np.random.default_rng(2024)
        t = np.arange(1000) / 1000.0
        x = (np.sin(2 * np.pi * 7 * t) + 0.5 * np.sin(2 * np.pi * 90 * t)
             + 0.3 * rng.standard_normal(1000))
        result = eemd(x, EemdParams(ensemble_size=20, master_seed=3))
        digest = hashlib.sha256()
        for c in result.imfs + [result.residue]:
            digest.update(np.ascontiguousarray(c, dtype="<f8").tobytes())
        assert result.n_imfs == 6
        assert digest.hexdigest() == (
            "3f3ade3c4257a463181a645db8f4b8b5615b2a6325967ff840fa88a039a490c9"
        )

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            EemdParams(ensemble_size=0)
        with pytest.raises(ValidationError):
            EemdParams(noise_std_fraction=0.5)
        with pytest.raises(ValidationError):
            EemdParams(noise_std_fraction=-0.1)
        with pytest.raises(ValidationError):
            EemdParams(max_imfs=0)
