"""Seeded input generator for the benchmark.

Follows the signal model of ``tests/synthetic_corpus.py`` (spindle
harmonics, white noise and, for chatter, a tone inside the configuration's
chatter band) with one change that matters for timing: the classes overlap.
Both classes draw harmonic amplitudes and noise level from the same ranges,
and the chatter tone amplitude is drawn from a range that starts at zero, so
the weakest chatter samples look like stable ones.  A separable corpus lets
forest trees stop after one split and the SVM converge at once, which hides
the cost of the tree and solver code.

Amplitudes and noise levels are drawn on a stratified grid: file i always
draws from the same stratum of the range, and only the position inside the
stratum, the phases and the noise samples depend on the seed.  Every seed
thus yields the same mix of easy and hard samples in the same files, and
with the program's split seed held fixed the same strata land in the test
sets, so accuracy and work vary little between seeds.

Every function takes an output directory and a seed and writes only there.
Run as a script, the module runs one generator in its own interpreter; see
``main``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

FS = 10000.0
RAW_FS = 160000.0
SPINDLE_HZ = 60.0

# Stickout id -> (chatter band, centre of the chatter tone); the four
# configurations of the paper's transfer study.  Each tone, with its jitter,
# stays inside one level-4 wavelet packet (312.5 Hz wide at 10 kHz) and at
# least 15 Hz from its edges, so every seed selects the same packet.
CONFIGS = {
    "2": ((900.0, 1000.0), 975.0),
    "2.5": ((1200.0, 1300.0), 1280.0),
    "3.5": ((1600.0, 1700.0), 1650.0),
    "4.5": ((2900.0, 3000.0), 2950.0),
}
TONE_JITTER_HZ = 15.0

NOISE_STD = (0.1, 0.3)
# Raw recordings test ingest and transfer, not class overlap: their chatter
# stands clear of the noise, which keeps transfer accuracy steady.
RAW_TONE_AMP = (0.3, 1.0)
MILD_SCALE = 0.5  # mild intervals carry half the chatter tone


def stratified(rng, n, low, high, shuffle=0):
    """n draws from [low, high): draw i lies in stratum i of n equal strata,
    or, with a nonzero `shuffle`, in a stratum fixed by that constant."""
    strata = np.random.default_rng(shuffle).permutation(n) if shuffle else np.arange(n)
    return low + (high - low) * (strata + rng.uniform(0.0, 1.0, n)) / n


def write_csv(path, fmt, *columns):
    """Write columns as CSV rows of `fmt` (one %-format per row); several
    times faster than np.savetxt, which formats row by row."""
    n = len(columns[0])
    values = np.column_stack(columns).ravel().tolist()
    Path(path).write_text(((fmt + "\n") * n) % tuple(values))


def turning_signal(rng, n, fs, noise_std, tone_amp, tone_hz):
    """Spindle harmonics plus white noise plus an optional chatter tone."""
    t = np.arange(n) / fs
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    a1, a2 = rng.uniform(0.4, 0.7), rng.uniform(0.2, 0.4)
    return (
        a1 * np.sin(2 * np.pi * SPINDLE_HZ * t + phase[0])
        + a2 * np.sin(2 * np.pi * 2 * SPINDLE_HZ * t + phase[1])
        + tone_amp * np.sin(2 * np.pi * tone_hz * t + phase[2])
        + noise_std * rng.standard_normal(n)
    )


def _in_band_noise_rms(noise_std):
    """RMS of white noise inside one of the 16 level-4 wavelet packets."""
    return noise_std / 4.0


def _write_manifest(out_dir, records, stickouts):
    manifest = {
        "records": records,
        "configs": {s: {"chatter_band_hz": list(CONFIGS[s][0])} for s in stickouts},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


def write_segment_corpus(out_dir, seed, n_segments, seg_len, tone_amp, stickout="2"):
    """One stickout configuration of 10 kHz one-column CSV segments.

    Each file holds one labelled segment; half the files are chatter, with a
    tone amplitude drawn from `tone_amp` = (low, high); a low of zero makes
    the classes overlap.  Returns the manifest path and the input sizes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    n_chatter = n_segments // 2
    labels = np.array([1] * n_chatter + [0] * (n_segments - n_chatter))
    noise = stratified(rng, n_segments, *NOISE_STD, shuffle=1)
    amps = np.zeros(n_segments)
    amps[:n_chatter] = stratified(rng, n_chatter, *tone_amp)
    tone = CONFIGS[stickout][1]
    records = []
    hard = 0
    for i in range(n_segments):
        tone_hz = tone + rng.uniform(-TONE_JITTER_HZ, TONE_JITTER_HZ)
        x = turning_signal(rng, seg_len, FS, noise[i], amps[i], tone_hz)
        name = "chatter" if labels[i] else "stable"
        sig = out_dir / f"signal_{i:03d}.csv"
        lab = out_dir / f"labels_{i:03d}.csv"
        write_csv(sig, "%.9g", x)
        lab.write_text(f"start_s,end_s,label\n0.0,{seg_len / FS},{name}\n")
        records.append({
            "signal_path": sig.name, "label_path": lab.name,
            "stickout_id": stickout, "sample_rate_hz": FS, "file_id": f"seg{i:03d}",
        })
        if labels[i] and amps[i] / np.sqrt(2) < _in_band_noise_rms(noise[i]):
            hard += 1
    sizes = {
        "files": n_segments,
        "raw_rows": n_segments * seg_len,
        "segments": n_segments,
        # chatter samples whose tone is weaker than the noise in its packet
        "overlap_frac": hard / max(1, n_chatter),
    }
    return _write_manifest(out_dir, records, [stickout]), sizes


# Label layout of one raw recording, as fractions of its duration: every
# recording has a stable, an unknown, a mild and a chatter interval, in an
# order that alternates between files.
_LAYOUTS = (
    (("stable", 0.30), ("unknown", 0.10), ("mild", 0.25), ("chatter", 0.35)),
    (("chatter", 0.35), ("unknown", 0.10), ("stable", 0.30), ("mild", 0.25)),
)


def write_raw_recordings(out_dir, seed, files_per_config, duration_s):
    """Raw 160 kHz two-column (time, acceleration) recordings of all four
    configurations, with multi-interval label files.

    Besides the cutting signal each recording carries a 25 kHz tone and
    wide-band noise that the anti-alias filter must remove.  Returns a list
    of (stickout, signal path, label path, file id) and the input sizes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    n = int(round(duration_s * RAW_FS))
    n_files = files_per_config * len(CONFIGS)
    noise = stratified(rng, n_files, *NOISE_STD, shuffle=1)
    amps = stratified(rng, n_files, *RAW_TONE_AMP)
    t = np.arange(n) / RAW_FS
    recordings = []
    segments = 0
    for f in range(n_files):
        stickout = list(CONFIGS)[f % len(CONFIGS)]
        tone = CONFIGS[stickout][1] + rng.uniform(-TONE_JITTER_HZ, TONE_JITTER_HZ)
        x = (
            turning_signal(rng, n, RAW_FS, noise[f], 0.0, tone)
            + 0.3 * np.sin(2 * np.pi * 25000.0 * t + rng.uniform(0, 2 * np.pi))
        )
        rows = ["start_s,end_s,label"]
        start = 0
        for label, share in _LAYOUTS[(f // len(CONFIGS)) % 2]:
            end = min(n, start + int(round(share * n)))
            scale = {"chatter": 1.0, "mild": MILD_SCALE}.get(label, 0.0)
            if scale:
                x[start:end] += scale * amps[f] * np.sin(
                    2 * np.pi * tone * t[start:end] + rng.uniform(0, 2 * np.pi)
                )
            rows.append(f"{start / RAW_FS:.8f},{end / RAW_FS:.8f},{label}")
            segments += label != "unknown"
            start = end
        file_id = f"raw{f:03d}_{stickout}"
        sig = out_dir / f"{file_id}.csv"
        lab = out_dir / f"{file_id}_labels.csv"
        write_csv(sig, "%.8f,%.6f", t, x)
        lab.write_text("\n".join(rows) + "\n")
        recordings.append((stickout, sig, lab, file_id))
    sizes = {"files": n_files, "raw_rows": n_files * n, "segments": segments}
    return recordings, sizes


def write_preprocessed_manifest(out_dir, recordings, preprocessed_dir):
    """Manifest over the 10 kHz files that ``preprocess`` wrote."""
    out_dir = Path(out_dir)
    records = [
        {
            "signal_path": str(Path(preprocessed_dir) / f"{Path(sig).stem}_preprocessed.csv"),
            "label_path": str(lab),
            "stickout_id": stickout,
            "sample_rate_hz": FS,
            "file_id": file_id,
        }
        for stickout, sig, lab, file_id in recordings
    ]
    return _write_manifest(out_dir, records, list(CONFIGS))


GENERATORS = {"segments": write_segment_corpus, "raw": write_raw_recordings}


def main(argv):
    """argv[1] is a JSON object: ``generator`` names an entry of GENERATORS,
    the other keys are its arguments.  Prints the generator's result and
    input sizes as one JSON line, with paths as strings."""
    spec = json.loads(argv[1])
    result, sizes = GENERATORS[spec.pop("generator")](**spec)
    print(json.dumps({"result": result, "sizes": sizes}, default=str))


if __name__ == "__main__":
    main(sys.argv)
