"""Raw signal ingestion: CSV loading, anti-alias filtering, decimation, labeled
segment cutting and fixed-length windowing."""

from __future__ import annotations

import functools
import json
import os
import warnings
from dataclasses import dataclass, field
from enum import Enum
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, ValidationError


class Label(Enum):
    STABLE = "stable"
    MILD = "mild"
    CHATTER = "chatter"
    UNKNOWN = "unknown"

    @classmethod
    def parse(cls, text):
        key = text.strip().lower()
        aliases = {
            "stable": cls.STABLE,
            "no chatter": cls.STABLE,
            "mild": cls.MILD,
            "intermediate": cls.MILD,
            "mild chatter": cls.MILD,
            "chatter": cls.CHATTER,
            "unknown": cls.UNKNOWN,
        }
        if key not in aliases:
            raise ValidationError(f"unknown label {text!r}")
        return aliases[key]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled acceleration trace."""

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not 0 < self.sample_rate_hz < inf:
            raise ValidationError(f"sample_rate_hz must be finite and positive, "
                                  f"got {self.sample_rate_hz}")
        if self.samples.size == 0:
            raise ValidationError("time series must be nonempty")
        if not np.isfinite(self.samples).all():
            i = int(np.flatnonzero(~np.isfinite(self.samples))[0])
            raise ValidationError(f"sample {i} is not finite ({self.samples.flat[i]})")

    @property
    def duration_s(self):
        return self.samples.size / self.sample_rate_hz

    @property
    def end_time_s(self):
        return self.start_time_s + self.duration_s


@dataclass(frozen=True)
class LabelInterval:
    start_s: float
    end_s: float
    label: Label

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ValidationError(
                f"interval start {self.start_s} must precede end {self.end_s}"
            )


@dataclass(frozen=True)
class CuttingConfig:
    """One stickout case: an identifier plus its chatter frequency band."""

    stickout_id: str
    chatter_band_hz: tuple[float, float]

    def __post_init__(self):
        low, high = self.chatter_band_hz
        if not 0 < low < high < inf:
            raise ValidationError(
                f"stickout {self.stickout_id!r}: chatter band must satisfy "
                f"0 < low < high < inf, got {self.chatter_band_hz}"
            )


# Chatter bands per stickout length (inches), as identified from the cutting
# test spectra.  Keys accept both the inch label and the cm value.
STICKOUT_BANDS = {
    "2": (900.0, 1000.0),
    "2.5": (1200.0, 1300.0),
    "3.5": (1600.0, 1700.0),
    "4.5": (2900.0, 3000.0),
    "5.08": (900.0, 1000.0),
    "6.35": (1200.0, 1300.0),
    "8.89": (1600.0, 1700.0),
    "11.43": (2900.0, 3000.0),
}


def config_for_stickout(stickout_id):
    """Build a CuttingConfig with the band from the stickout table."""
    if stickout_id not in STICKOUT_BANDS:
        raise ValidationError(
            f"no built-in chatter band for stickout {stickout_id!r}; give it a "
            "chatter_band_hz in the manifest's configs map"
        )
    return CuttingConfig(stickout_id, STICKOUT_BANDS[stickout_id])


@dataclass(frozen=True)
class Segment:
    """A labeled slice of a recording.  label: 0 = chatter-free, 1 = chatter."""

    series: TimeSeries
    label: int
    source: tuple[str, int]


# FilterCascade.apply pipelines a signal of at least _MIN_BLOCKS blocks of
# _BLOCK samples through at least _MIN_SECTIONS sections, the sizes from which
# the pipeline was measured faster than one sosfilt call on a 2-core x86
# machine.  Each block costs two sosfilt calls of about 20 us and a handover,
# so a shorter signal or cascade filters faster in one call.
_BLOCK = 8192
_MIN_BLOCKS = 3
_MIN_SECTIONS = 30


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _two_stage(sosfilt, sos, x):
    """`sosfilt(sos, x)` for float64 sos and 1-D x, as a pipeline over blocks
    on two threads.

    A one-worker executor runs the first half of the sections on block k+1
    while the calling thread runs the second half on block k; sosfilt releases
    the GIL, so the two overlap.  Each half carries its state from block to
    block, so every sample sees the arithmetic of the single call.  The
    executor re-raises a worker exception here and joins its thread on exit.
    """
    from concurrent.futures import ThreadPoolExecutor

    half = sos.shape[0] // 2
    head, tail = sos[:half], sos[half:]
    starts = range(0, x.size, _BLOCK)
    out = np.empty_like(x)
    head_zi, tail_zi = np.zeros((half, 2)), np.zeros((tail.shape[0], 2))

    def run_head(i):
        # one worker runs the blocks one at a time and in order, so the head's
        # state chains from block to block through head_zi
        nonlocal head_zi
        out[i : i + _BLOCK], head_zi = sosfilt(head, x[i : i + _BLOCK], zi=head_zi)
        return i

    # map yields a block's start once the head has written it into `out`, so
    # no filtered block is held beside `out`
    with ThreadPoolExecutor(1, thread_name_prefix="FilterCascade.apply") as pool:
        for i in pool.map(run_head, starts):
            out[i : i + _BLOCK], tail_zi = sosfilt(tail, out[i : i + _BLOCK], zi=tail_zi)
    return out


@dataclass(frozen=True)
class FilterCascade:
    """Chain of second-order recursive sections; empty cascade is the identity.

    scipy.signal is imported by the functions that design or filter, not by
    this module, so that commands which never filter do not pay for loading it.
    """

    sos: np.ndarray  # shape (n_sections, 6)

    @property
    def n_sections(self):
        return self.sos.shape[0]

    def apply(self, x):
        """The cascade's output, bitwise equal to one `sosfilt(sos, x)` call.

        A 1-D signal of at least 3 blocks through 30 or more float64
        sections, in a process allowed more than one CPU, is filtered on two
        threads (`_two_stage`); anything else takes the single call.
        """
        x = np.asarray(x, dtype=float)
        if self.n_sections == 0:
            return x.copy()
        from scipy.signal import sosfilt

        if (x.ndim == 1 and x.size >= _MIN_BLOCKS * _BLOCK
                and self.n_sections >= _MIN_SECTIONS and self.sos.dtype == np.float64
                and _usable_cpus() > 1):
            return _two_stage(sosfilt, self.sos, x)
        return sosfilt(self.sos, x)

    def response(self, freqs_hz, sample_rate_hz):
        """Complex frequency response at the given frequencies."""
        freqs_hz = np.atleast_1d(freqs_hz)
        if self.n_sections == 0:
            return np.ones_like(freqs_hz, dtype=complex)
        from scipy.signal import sosfreqz

        _, h = sosfreqz(self.sos, worN=freqs_hz, fs=sample_rate_hz)
        return h


def _parse_float(token, path, line_number, what):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} value {token!r}", line_number, path) from None
    if not isfinite(value):
        raise ParseError(f"non-finite {what} value {token!r}", line_number, path)
    return value


def _read_lines(path):
    """The file's lines as text-mode reading splits them (universal newlines),
    without a leading byte-order mark.

    A byte sequence that is not UTF-8 is a ParseError naming the file and line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # decoded with the mark, so the error's byte offset counts from the file's start
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(
            f"not valid UTF-8 ({exc.reason} at byte {exc.start})",
            head.count(b"\n") + 1,
            path,
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_json(path):
    """A UTF-8 JSON file's document; a ParseError names the line of bad input."""
    text = "\n".join(_read_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", exc.lineno, path) from None
    except ValueError as exc:  # an integer literal longer than Python converts
        raise ParseError(f"not valid JSON: {exc}", None, path) from None


def json_float(value, what):
    """A number read from JSON as a finite float.

    A bool, string, null or other non-number, an integer too large for a
    float and a non-finite value are a ValidationError naming `what`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(
            f"{what} must be finite, got an integer beyond the float range") from None
    if not isfinite(number):
        raise ValidationError(f"{what} must be finite, got {number}")
    return number


def _json_id(value, what):
    """A JSON string or non-boolean number as text; anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{what} must be a string or a number, got {value!r}")
    return str(value)


def _tokens(line):
    """The non-empty comma-separated tokens of a line, stripped."""
    return [t.strip() for t in line.split(",") if t.strip() != ""]


def _is_header(tokens):
    """A first line is a header when its first non-empty token is not a number."""
    if not tokens:
        return False
    try:
        float(tokens[0])
    except ValueError:
        return True
    return False


def _read_rows(path):
    """Numeric rows from numpy's C reader, or None when it refuses the file or
    the rows are not 1 or 2 finite columns; the line scan then decides."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # -sig: drop a byte-order mark
            header = _is_header(_tokens(fh.readline()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              encoding="utf-8-sig", skiprows=int(header))
    except ValueError:  # a token it cannot parse, a ragged row or bad UTF-8
        return None
    if rows.shape[0] == 0 or rows.shape[1] not in (1, 2) or not np.isfinite(rows).all():
        return None
    return rows


def _scan_timeseries(path, sample_rate_hz):
    """load_timeseries, line by line in Python.

    Raises the ParseError or ValidationError that names the offending line,
    and accepts what numpy's reader refuses: underscore digits (`1_000`),
    whitespace-only lines and stray commas.
    """
    rows = []
    n_cols = None
    for line_number, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        tokens = _tokens(raw)
        if line_number == 1 and _is_header(tokens):
            continue
        if len(tokens) not in (1, 2):
            raise ParseError(
                f"expected 1 or 2 columns, got {len(tokens)}", line_number, path
            )
        if n_cols is None:
            n_cols = len(tokens)
        elif len(tokens) != n_cols:
            raise ParseError(
                f"inconsistent column count ({len(tokens)} vs {n_cols})",
                line_number,
                path,
            )
        if n_cols == 2:
            rows.append((_parse_float(tokens[0], path, line_number, "time"),
                         _parse_float(tokens[1], path, line_number, "acceleration")))
        else:
            rows.append((_parse_float(tokens[0], path, line_number, "acceleration"),))
    if not rows:
        raise ValidationError(f"{path}: empty time-series file")
    return _series(np.array(rows), path, sample_rate_hz)


def _series(rows, path, sample_rate_hz):
    """TimeSeries from (n, 1) or (n, 2) rows, checking the time column if any."""
    start = 0.0
    if rows.shape[1] == 2:
        t = rows[:, 0]
        deltas = np.diff(t)
        if np.any(deltas <= 0):
            raise ValidationError(f"{path}: time column is not strictly increasing")
        dt = 1.0 / sample_rate_hz
        if deltas.size and np.max(np.abs(deltas - dt)) > 1e-6 * dt:
            bad = int(np.argmax(np.abs(deltas - dt)))
            raise ValidationError(
                f"{path}: sample spacing {deltas[bad]:.6g}s at row {bad + 1} "
                f"does not match 1/{sample_rate_hz:g}Hz"
            )
        start = float(t[0])
    return TimeSeries(np.ascontiguousarray(rows[:, -1]), sample_rate_hz, start)


def load_timeseries(path, sample_rate_hz):
    """Read a one- or two-column CSV (time_s, acceleration) into a TimeSeries.

    Files are UTF-8; line 1 is a header when its first non-empty token is not
    a number.  Two-column files are checked for uniform sampling at the
    stated rate (1e-6 relative tolerance on successive deltas).  Well-formed
    files are parsed by numpy's C reader; any file it refuses goes through
    the line scan, which names the offending line.
    """
    if not 0 < sample_rate_hz < inf:
        raise DomainError(f"sample_rate_hz must be finite and positive, got {sample_rate_hz}")
    rows = _read_rows(path)
    if rows is None:
        return _scan_timeseries(path, sample_rate_hz)
    return _series(rows, path, sample_rate_hz)


def load_labels(path):
    """Read a label CSV of `start_s,end_s,label` rows, after an optional header."""
    intervals = []
    for line_number, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line_number == 1 and _is_header(_tokens(line)):
            continue
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) != 3:
            raise ParseError(f"expected 3 columns, got {len(tokens)}", line_number, path)
        start = _parse_float(tokens[0], path, line_number, "start_s")
        end = _parse_float(tokens[1], path, line_number, "end_s")
        try:
            intervals.append(LabelInterval(start, end, Label.parse(tokens[2])))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {line_number}: {exc}") from None
    return intervals


@dataclass(frozen=True)
class ManifestRecord:
    signal_path: str
    label_path: str
    stickout_id: str
    sample_rate_hz: float = 10000.0
    file_id: str = ""


@dataclass(frozen=True)
class Manifest:
    records: list[ManifestRecord]
    configs: dict[str, CuttingConfig] = field(default_factory=dict)

    def config(self, stickout_id):
        if stickout_id in self.configs:
            return self.configs[stickout_id]
        return config_for_stickout(stickout_id)


def load_manifest(path):
    """Read a dataset manifest (JSON).

    Accepts either a bare list of records or an object with `records` and an
    optional `configs` map of stickout_id -> {chatter_band_hz: [lo, hi]}.
    Relative signal/label paths are resolved against the manifest location.
    """
    path = Path(path)
    doc = read_json(path)
    if isinstance(doc, list):
        raw_records, raw_configs = doc, {}
    elif isinstance(doc, dict):
        raw_records = doc.get("records", [])
        raw_configs = doc.get("configs", {})
    else:
        raise ValidationError(
            f"{path}: manifest must be a list of records or an object, "
            f"got {type(doc).__name__}"
        )
    if not isinstance(raw_records, list) or not isinstance(raw_configs, dict):
        raise ValidationError(f"{path}: records must be a list and configs an object")
    records, first_with_id = [], {}
    for i, rec in enumerate(raw_records):
        if not isinstance(rec, dict):
            raise ValidationError(f"{path}: manifest record {i} is not an object")
        try:
            signal_path = str((path.parent / rec["signal_path"]).resolve())
            label_path = str((path.parent / rec["label_path"]).resolve())
            rate = json_float(rec.get("sample_rate_hz", 10000.0), "sample_rate_hz")
            if rate <= 0:
                raise ValueError(f"sample_rate_hz must be positive, got {rate}")
            records.append(
                ManifestRecord(
                    signal_path=signal_path,
                    label_path=label_path,
                    stickout_id=_json_id(rec["stickout_id"], "stickout_id"),
                    sample_rate_hz=rate,
                    file_id=_json_id(rec.get("file_id", f"rec{i:04d}"), "file_id"),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"{path}: manifest record {i} missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: manifest record {i}: {exc}") from None
        # sample ids start with the file id; a shared one would merge two files' samples
        j = first_with_id.setdefault(records[-1].file_id, i)
        if j != i:
            raise ValidationError(
                f"{path}: manifest records {j} and {i} share file_id {records[-1].file_id!r}")
    configs = {}
    for sid, spec in raw_configs.items():
        band = spec.get("chatter_band_hz") if isinstance(spec, dict) else None
        if not (isinstance(band, list) and len(band) == 2):
            raise ValidationError(
                f"{path}: config {sid!r} needs chatter_band_hz as two numbers, got {band!r}"
            )
        try:
            edges = tuple(json_float(f, f"stickout {sid!r}: chatter band edge") for f in band)
            configs[sid] = CuttingConfig(sid, edges)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return Manifest(records, configs)


def design_lowpass(order, cutoff_hz, sample_rate_hz):
    """Digital Butterworth low-pass as a cascade of second-order sections,
    `scipy.signal.butter`'s, kept per (order, cutoff, rate) within a process.

    Order 0 is accepted and yields the identity cascade.  A direct-form
    realization of high orders is numerically unusable, hence the cascade.
    Even so, the design breaks down at high orders and at cutoffs very low or
    near Nyquist: a design that fails, or has a non-finite coefficient or a
    DC gain off 1 by more than 1e-6, is a DomainError.
    """
    if order < 0 or order % 2 != 0:
        raise DomainError(f"filter order must be a nonnegative even integer, got {order}")
    if order == 0:
        return FilterCascade(np.empty((0, 6)))
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise DomainError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {sample_rate_hz / 2}) Hz"
        )
    return FilterCascade(_butter_sos(order, cutoff_hz, sample_rate_hz).copy())


@functools.lru_cache(maxsize=8)
def _butter_sos(order, cutoff_hz, sample_rate_hz):
    """butter's sections, read-only; lru_cache keeps no refusal, so each is raised anew."""
    from scipy.signal import butter

    degenerate = DomainError(
        f"order-{order} low-pass at {cutoff_hz:g} Hz for {sample_rate_hz:g} Hz "
        "sampling is numerically degenerate; lower the order or move the cutoff"
    )
    # butter raises ValueError when the normalized cutoff underflows to 0 and
    # OverflowError when its analog prototype's gain overflows near Nyquist;
    # its other breakdowns return broken sections, with floating-point warnings
    with np.errstate(all="ignore"):
        try:
            sos = butter(order, cutoff_hz, btype="low", fs=sample_rate_hz, output="sos")
        except (ValueError, OverflowError):
            raise degenerate from None
        dc_gain = np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1))
    if not (np.isfinite(sos).all() and abs(dc_gain - 1) <= 1e-6):
        raise degenerate
    sos.flags.writeable = False  # callers get copies, which sosfilt can write
    return sos


def filter_and_downsample(ts, filt, target_rate_hz):
    """Causal low-pass filtering followed by integer-factor decimation."""
    if not 0 < target_rate_hz < inf:
        raise DomainError(f"target_rate_hz must be finite and positive, got {target_rate_hz}")
    ratio = ts.sample_rate_hz / target_rate_hz
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9 * max(1.0, ratio):
        raise DomainError(
            f"sample rate ratio {ratio:g} is not a positive integer"
        )
    if ts.samples.size < factor:
        raise DomainError(
            f"{ts.samples.size} samples are fewer than the decimation factor "
            f"{factor}, so none would remain"
        )
    filtered = filt.apply(ts.samples)
    n_keep = (filtered.size // factor) * factor
    decimated = filtered[:n_keep:factor]
    return TimeSeries(decimated, target_rate_hz, ts.start_time_s)


def cut_segments(ts, labels, file_id=""):
    """Cut one Segment per non-Unknown interval.

    Stable maps to label 0; Chatter and Mild both map to label 1, since mild
    chatter always counts as chatter.
    """
    eps = 0.5 / ts.sample_rate_hz
    prev_end = None
    for iv in sorted(labels, key=lambda iv: iv.start_s):
        if iv.start_s < ts.start_time_s - eps or iv.end_s > ts.end_time_s + eps:
            raise ValidationError(
                f"interval [{iv.start_s}, {iv.end_s}]s outside series span "
                f"[{ts.start_time_s}, {ts.end_time_s}]s"
            )
        if prev_end is not None and iv.start_s < prev_end - eps:
            raise ValidationError(
                f"interval starting at {iv.start_s}s overlaps the previous one"
            )
        prev_end = iv.end_s
    segments = []
    for index, iv in enumerate(labels):
        if iv.label is Label.UNKNOWN:
            continue
        binary = 0 if iv.label is Label.STABLE else 1
        i0 = int(round((iv.start_s - ts.start_time_s) * ts.sample_rate_hz))
        i1 = int(round((iv.end_s - ts.start_time_s) * ts.sample_rate_hz))
        i0 = max(i0, 0)
        i1 = min(i1, ts.samples.size)
        if i1 <= i0:
            continue
        segments.append(
            Segment(
                TimeSeries(ts.samples[i0:i1], ts.sample_rate_hz, iv.start_s),
                binary,
                (file_id, index),
            )
        )
    return segments


def window_segments(segments, window_len):
    """Split segments into consecutive non-overlapping fixed-length windows.

    Trailing remainders shorter than window_len are discarded; windows
    inherit their parent's label.
    """
    if window_len < 2:
        raise DomainError("window_len must be at least 2")
    windows = []
    for seg in segments:
        n = seg.series.samples.size
        fs = seg.series.sample_rate_hz
        for w in range(n // window_len):
            i0 = w * window_len
            sub = TimeSeries(
                seg.series.samples[i0 : i0 + window_len],
                fs,
                seg.series.start_time_s + i0 / fs,
            )
            windows.append(Segment(sub, seg.label, seg.source))
    return windows
