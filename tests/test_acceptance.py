"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Criterion 10 needs the public dataset and is skipped unless
CHATTER_DATASET_MANIFEST points at its manifest."""

import json
import os

import numpy as np
import pytest

from chatterdetect import (
    EemdParams,
    FrequencyBand,
    TimeSeries,
    eemd,
    eemd_features,
    emd,
    energy_ratios,
    find_extrema,
    load_manifest,
    predict_informative_packets,
    prepare_from_manifest,
    reconstruct_packet,
    rfe_rank,
    train_boosting,
    train_forest,
    train_logistic,
    train_svm,
    wpt_decompose,
    wpt_features,
)
from chatterdetect.cli import main as cli_main
from chatterdetect.emd import zero_crossings
from synthetic_corpus import make_segments, write_corpus_files
from test_features import oracle_eemd_features, oracle_wpt_features

FS = 10000.0


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_packet_band_prediction():
    cases = [
        ((900.0, 1000.0), {3, 4}),
        ((1200.0, 1300.0), {4, 5}),
        ((1600.0, 1700.0), {6}),
        ((2900.0, 3000.0), {10}),
    ]
    got = [predict_informative_packets(FrequencyBand(*band), 4, FS) for band, _ in cases]
    ok = got == [want for _, want in cases]
    report(1, ok, f"predicted packet sets {got}")


def test_criterion_2_reconstruction_and_energy():
    rng = np.random.default_rng(0)
    grid = [(n, level) for n in (256, 1000, 4096) for level in (1, 2, 3, 4)]
    worst_rec, worst_energy = 0.0, 0.0
    for trial in range(100):
        n, level = grid[trial % len(grid)]
        x = rng.standard_normal(n)
        tree = wpt_decompose(TimeSeries(x, FS), level)
        total = np.zeros(n)
        energy = 0.0
        for j in range(1, 2**level + 1):
            total += reconstruct_packet(tree, level, j).samples
            energy += float(np.sum(tree.packet(level, j) ** 2))
        worst_rec = max(worst_rec,
                        float(np.linalg.norm(total - x) / np.linalg.norm(x)))
        worst_energy = max(worst_energy,
                           abs(energy - np.sum(x**2)) / float(np.sum(x**2)))
    ok = worst_rec <= 1e-8 and worst_energy <= 1e-6
    report(2, ok, f"worst reconstruction {worst_rec:.2e}, "
                  f"worst energy mismatch {worst_energy:.2e} over 100 signals")


def test_criterion_3_band_localization():
    x = TimeSeries(np.sin(2 * np.pi * 900.0 * np.arange(10000) / FS), FS)
    top4 = int(np.argmax(energy_ratios(wpt_decompose(x, 4), 4))) + 1
    top1 = int(np.argmax(energy_ratios(wpt_decompose(x, 1), 1))) + 1
    ok = top4 == 3 and top1 == 1
    report(3, ok, f"900 Hz argmax packet: level 4 -> {top4}, level 1 -> {top1}")


def test_criterion_4_emd_invariants():
    rng = np.random.default_rng(1)
    worst = 0.0
    violations = 0
    for trial in range(100):
        if trial % 2 == 0:
            x = rng.standard_normal(256)
        else:
            t = np.arange(512) / 1000.0
            x = (np.sin(2 * np.pi * rng.uniform(3, 12) * t)
                 + rng.uniform(0.2, 0.8) * np.sin(2 * np.pi * rng.uniform(40, 90) * t)
                 + rng.uniform(-1, 1) * t)
        result = emd(x)
        rel = float(np.linalg.norm(result.reconstruct() - x) / np.linalg.norm(x))
        worst = max(worst, rel)
        for c in result.imfs:
            maxima, minima = find_extrema(c)
            if abs((maxima.size + minima.size) - zero_crossings(c)) > 1:
                violations += 1
    monotone = emd(np.linspace(0.0, 1.0, 64))
    ok = worst <= 1e-9 and violations == 0 and monotone.n_imfs == 0
    report(4, ok, f"worst reconstruction {worst:.2e}, IMF-condition violations "
                  f"{violations}, monotone input gave {monotone.n_imfs} IMFs")


def test_criterion_5_eemd_determinism():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1000)
    params = EemdParams(ensemble_size=200, master_seed=9)
    runs = [eemd(x, params) for _ in range(4)]
    identical = all(
        r.n_imfs == runs[0].n_imfs
        and all(np.array_equal(a, b) for a, b in zip(r.imfs, runs[0].imfs))
        and np.array_equal(r.residue, runs[0].residue)
        for r in runs[1:]
    )
    limiting = eemd(x, EemdParams(ensemble_size=1, noise_std_fraction=0.0))
    plain = emd(x)
    limit_err = max(
        (float(np.max(np.abs(a - b))) for a, b in zip(limiting.imfs, plain.imfs)),
        default=0.0,
    )
    ok = identical and limiting.n_imfs == plain.n_imfs and limit_err <= 1e-9
    report(5, ok, f"bitwise identical across 4 runs: {identical}; "
                  f"zero-noise deviation from plain decomposition {limit_err:.2e}")


def test_criterion_6_feature_oracle():
    rng = np.random.default_rng(3)

    def rel_dev(got, want):
        return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(16, 48))
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        got = wpt_features(x, FS)
        want = np.asarray(oracle_wpt_features(x, FS))
        worst = max(worst, rel_dev(got, want))
        from chatterdetect import ImfSet

        imfs = ImfSet([x, rng.standard_normal(n)], np.zeros(n))
        got7 = eemd_features(imfs)[0]
        want7 = np.asarray(oracle_eemd_features(imfs.imfs, 1))
        worst = max(worst, rel_dev(got7, want7))
    t = np.arange(4000) / FS
    sine = np.sin(2 * np.pi * 950.0 * t)
    vals = wpt_features(sine, FS)
    crest_err = abs(vals[6] - np.sqrt(2)) / np.sqrt(2)
    a12_err = abs(vals[11] - np.cos(2 * np.pi * 950.0 / FS))
    ok = worst <= 1e-10 and crest_err <= 0.01 and a12_err <= 1e-3
    report(6, ok, f"worst oracle deviation {worst:.2e} over 1000 vectors; "
                  f"crest error {crest_err:.4f}, autocorr error {a12_err:.2e}")


def test_criterion_7_classifier_oracles():
    trainers = {
        "svm": lambda X, y: train_svm(X, y),
        "logistic": lambda X, y: train_logistic(X, y),
        "forest": lambda X, y: train_forest(X, y, seed=0),
        "boosting": lambda X, y: train_boosting(X, y),
    }
    worst_acc = 1.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.standard_normal((200, 4)),
                       rng.standard_normal((200, 4)) + 3.0])
        y = np.repeat([0, 1], 200)
        perm = rng.permutation(400)
        tr, te = perm[:280], perm[280:]
        for trainer in trainers.values():
            model = trainer(X[tr], y[tr])
            worst_acc = min(worst_acc, float(np.mean(model.predict(X[te]) == y[te])))
    X = np.array([[-1.0], [1.0]])
    y01 = np.array([0, 1])
    svm = train_svm(X, y01)
    midpoint_err = abs(svm.decision_function(np.array([[0.0]]))[0])
    logit = train_logistic(X, y01)
    prob_err = abs(logit.predict_proba(np.array([[0.0]]))[0] - 0.5)
    rng = np.random.default_rng(20)
    Xb = np.vstack([rng.standard_normal((50, 3)),
                    rng.standard_normal((50, 3)) + 1.0])
    dev = train_boosting(Xb, np.repeat([0, 1], 50)).train_deviances
    non_increasing = all(b <= a + 1e-9 for a, b in zip(dev, dev[1:]))
    ok = (worst_acc >= 0.95 and midpoint_err <= 1e-6 and prob_err <= 1e-6
          and non_increasing)
    report(7, ok, f"worst blob test accuracy {worst_acc:.3f}; midpoint offset "
                  f"{midpoint_err:.1e}; boundary probability error {prob_err:.1e}; "
                  f"deviance non-increasing: {non_increasing}")


def test_criterion_8_rfe_recovery():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((150, 14))
        informative = (1, 6, 11)
        y = (sum(X[:, i] for i in informative) > 0).astype(int)
        ranking = rfe_rank(X, y, lambda A, b: train_svm(A, b))
        assert sorted(ranking.order) == list(range(14))
        assert ranking.n_features == 14
        if set(ranking.order[:3]) == set(informative):
            hits += 1
    ok = hits >= 9
    report(8, ok, f"informative features topped the ranking in {hits}/10 datasets")


@pytest.fixture(scope="module")
def synthetic_manifest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_corpus")
    segments = make_segments(seed=0, n_stable=12, n_chatter=12, seg_len=2000)
    return tmp, write_corpus_files(tmp, segments)


def test_criterion_9_end_to_end_pipeline(synthetic_manifest, capsys):
    tmp, manifest = synthetic_manifest
    failures = []
    lines = []
    for method in ("wpt", "eemd"):
        for classifier in ("svm", "logreg", "forest", "boost"):
            argv = [
                "evaluate-within", "--manifest", str(manifest),
                "--stickout", "synth", "--method", method,
                "--classifier", classifier, "--realizations", "10",
                "--seed", "0", "--out", str(tmp / "reports"),
            ]
            if method == "wpt":
                argv += ["--level", "3"]
            else:
                argv += ["--ensemble-size", "8", "--window-len", "1000"]
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0
            best = json.loads(out.strip().splitlines()[-1])["best"]
            lines.append(f"{method}/{classifier}: "
                         f"{best['mean_test']:.3f}+/-{best['std_test']:.3f}")
            if best["mean_test"] < 0.95 or best["std_test"] > 0.05:
                failures.append(lines[-1])
    report(9, not failures, "; ".join(lines))


def test_criterion_10_reference_dataset():
    manifest_path = os.environ.get("CHATTER_DATASET_MANIFEST")
    if not manifest_path:
        print("ACCEPTANCE 10: SKIP - reference dataset manifest not provided")
        pytest.skip("set CHATTER_DATASET_MANIFEST to run the dataset criterion")
    from chatterdetect import ExperimentSpec, run_transfer, run_within

    manifest = load_manifest(manifest_path)
    envelopes = {"2": (0.939, 0.058), "2.5": (1.000, 0.0),
                 "3.5": (0.840, 0.150), "4.5": (0.875, 0.112)}
    inside = 0
    details = []
    for sid, (mean, std) in envelopes.items():
        prep = prepare_from_manifest(manifest, sid, "wpt", level=4)
        best = run_within(ExperimentSpec("svm"), prep).best_row()["mean_test"]
        lo, hi = mean - 2 * std, mean + 2 * std
        if lo <= best <= hi:
            inside += 1
        details.append(f"{sid}in: {best:.3f} vs {mean:.3f}+/-{2 * std:.3f}")
    transfer_best = run_transfer(
        ExperimentSpec("svm"),
        prepare_from_manifest(manifest, "4.5", "eemd"),
        prepare_from_manifest(manifest, "2", "eemd"),
    ).best_row()["mean_test"]
    ok = inside >= 3 and transfer_best > 0.80
    report(10, ok, f"{inside}/4 cases inside the reference envelopes "
                   f"({'; '.join(details)}); transfer accuracy {transfer_best:.3f}")
