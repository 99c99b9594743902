"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a single bracketed PASS line (run with -s to see them)
carrying the measured numbers next to their bounds. The heavy entries are
the full-coordinate gradient check (~6 s) and the eight-subject
cross-validated mask-ratio sweep (~10 min serially, ~5 min on two
processes); the rest run in seconds.
"""

import json
import math
import time

import jsonschema
import numpy as np

import fdtools
import oracles
from repseg import autodiff as ad
from repseg import cli
from repseg.dataio import (CHECKPOINT_SCHEMA, MANIFEST_SCHEMA, REPORT_SCHEMA,
                           write_report)
from repseg.experiments import SWEEP_RATIOS, mask_ratio_sweep
from repseg.masking import (apply_mask, combined_loss, cross_entropy,
                            draw_mask, masked_mse, one_hot)
from repseg.metrics import (Segment, confusion_matrix, count_loa,
                            labels_to_segments, sample_f1, segmental_iou_f1)
from repseg.model import Model, ModelConfig, SignalWindow, param_shapes
from repseg.synth import make_cohort, windowize
from repseg.train import TrainConfig, train_fold
from repseg.velocity import (chair_rising_velocity, estimate_gravity,
                             find_still_window, integrate_velocity, lowpass,
                             VelocityParams)


def test_criterion_1_gradients_match_finite_differences():
    """Analytic gradient of the combined objective vs central differences,
    every coordinate of every parameter, max relative error < 1e-4 in
    under 60 s."""
    t0 = time.perf_counter()
    mc = ModelConfig(d_model=16, n_heads=2, n_layers=1, dropout=0.0,
                     window_len=80, n_channels=6, n_classes=6, ffn_dim=32,
                     tcn_layers=3, tcn_channels=8)
    rng = np.random.default_rng(7)
    model = Model(mc, rng=rng)
    window = rng.normal(0.0, 1.0, size=(80, 6))
    labels = rng.integers(0, 6, size=80)
    onehot = one_hot(labels, 6)
    spec = draw_mask(80, 6, 8, 0.8, rng)
    masked = apply_mask(SignalWindow(window, 100.0), spec)
    smask = spec.sample_mask()

    def objective():
        ce = cross_entropy(model.classify(window), onehot)
        mse = masked_mse(window, model.reconstruct(masked), smask)
        return combined_loss(ce, mse, TrainConfig().eta)

    with ad.Tape() as tape:
        tape.backward(objective())
    worst, checked = fdtools.max_rel_error(
        model.params, lambda: objective().item(), h=1e-5)
    elapsed = time.perf_counter() - t0

    assert checked == model.param_count()
    assert worst < 1e-4
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS gradcheck {checked}/{model.param_count()} "
          f"coords, max rel err {worst:.3e} < 1e-4, {elapsed:.1f} s < 60 s")


def test_criterion_2_loss_identities():
    t_len, n_classes = 50, 6
    rng = np.random.default_rng(3)

    # uniform prediction scores ln(C)/C regardless of the labels
    uniform = ad.constant(np.full((t_len, n_classes), 1.0 / n_classes))
    labels = rng.integers(0, n_classes, size=t_len)
    ce = cross_entropy(uniform, one_hot(labels, n_classes)).item()
    target = math.log(n_classes) / n_classes
    assert abs(ce - target) < 1e-9

    # reconstruction values outside the mask cannot move the penalty
    spec = draw_mask(t_len, n_classes, 10, 0.6, rng)
    smask = spec.sample_mask()
    target_sig = rng.normal(size=(t_len, n_classes))
    recon_a = rng.normal(size=(t_len, n_classes))
    recon_b = recon_a.copy()
    recon_b[~smask] = rng.normal(size=int((~smask).sum())) * 1e6
    mse_a = masked_mse(target_sig, ad.constant(recon_a), smask).item()
    mse_b = masked_mse(target_sig, ad.constant(recon_b), smask).item()
    assert mse_a == mse_b

    # combined loss is the exact float expression eta * ce + mse
    triples = [(500.0, 0.377, 0.051), (7.25, 1.3e-3, 2.9),
               (0.0, 0.4, 0.9), (1.0, 0.0, 0.0), (500.0, ce, mse_a)]
    for eta, ce_v, mse_v in triples:
        got = combined_loss(ad.constant(np.float64(ce_v)),
                            ad.constant(np.float64(mse_v)), eta).item()
        assert got == eta * ce_v + mse_v

    print(f"\n[criterion 2] PASS uniform CE {ce:.10f} vs ln(6)/6 "
          f"{target:.10f} (diff {abs(ce - target):.2e} < 1e-9); "
          f"out-of-mask MSE invariance exact; (eta, 1) mixing exact "
          f"on {len(triples)} triples")


def test_criterion_3_tcn_influence_radius():
    """A logit at time t can see features within 127 samples and no
    further for the 7-layer stack with dilations 1..64 (k=3)."""
    mc = ModelConfig(d_model=16, n_heads=2, n_layers=1, dropout=0.0,
                     window_len=512, n_channels=6, n_classes=6, ffn_dim=32,
                     tcn_layers=7, tcn_channels=8)
    radius = mc.influence_radius
    assert radius == 127
    centre = 256

    def changed_rows(model, feats):
        with ad.no_grad():
            base = model.tcn_logits(ad.constant(feats)).data
            bumped = feats.copy()
            bumped[centre] += 1.0
            after = model.tcn_logits(ad.constant(bumped)).data
        return np.nonzero(np.any(after != base, axis=1))[0]

    # random weights: influence never escapes the window
    rng = np.random.default_rng(11)
    rows = changed_rows(Model(mc, rng=rng),
                        rng.normal(size=(512, mc.d_model)))
    assert rows.size > 0
    assert rows.min() >= centre - radius
    assert rows.max() <= centre + radius

    # all-positive weights on a positive input: every relu stays live, so
    # the perturbation reaches exactly the closed interval centre +- 127
    positive = {name: np.full(shape, 0.1)
                for name, shape in param_shapes(mc).items()}
    feats = np.abs(rng.normal(size=(512, mc.d_model))) + 0.5
    rows = changed_rows(Model(mc, params=positive), feats)
    assert np.array_equal(rows, np.arange(centre - radius,
                                          centre + radius + 1))
    print(f"\n[criterion 3] PASS influence confined to |dt| <= {radius} "
          f"(rows outside bit-identical); saturating weights reach exactly "
          f"[{centre - radius}, {centre + radius}]")


def test_criterion_4_metric_oracles():
    """All four metric routines agree exactly with independent brute-force
    references on 100 randomized label-sequence cases."""
    rng = np.random.default_rng(2026)
    loa_entries = 0
    for case in range(100):
        n_classes = int(rng.integers(3, 7))
        length = int(rng.integers(40, 140))
        truth_l, pred_l = oracles.random_label_case(
            rng, length=length, n_classes=n_classes)
        truth_a, pred_a = np.array(truth_l), np.array(pred_l)

        rep = sample_f1(truth_a, pred_a, n_classes)
        ref = oracles.sample_counts_ref(truth_l, pred_l, n_classes)
        for c, (tp, fp, fn) in ref.items():
            if tp + fp + fn == 0:
                assert rep.per_class[c] is None
                continue
            s = rep.per_class[c]
            assert (s.tp, s.fp, s.fn) == (tp, fp, fn)
            assert (s.precision, s.recall, s.f1) == \
                oracles.prf_ref(tp, fp, fn)

        t_segs = labels_to_segments(truth_a)
        p_segs = labels_to_segments(pred_a)
        srep = segmental_iou_f1(t_segs, p_segs, threshold=0.75)
        sref = oracles.segmental_report_ref(t_segs, p_segs, 0.75)
        for c, entry in sref.items():
            if entry is None:
                assert srep.per_class[c] is None
                continue
            s = srep.per_class[c]
            assert (s.tp, s.fp, s.fn, s.precision, s.recall, s.f1) == entry
        got_tp = sum(s.tp for s in srep.per_class.values() if s)
        assert got_tp == oracles.max_tp_exhaustive(t_segs, p_segs, 0.75)

        counts = confusion_matrix(truth_a, pred_a, n_classes,
                                  normalize=False)
        ref_counts, ref_norm = oracles.confusion_ref(
            truth_l, pred_l, n_classes)
        assert np.array_equal(counts, np.array(ref_counts, dtype=float))
        assert np.array_equal(confusion_matrix(truth_a, pred_a, n_classes),
                              np.array(ref_norm))

        n_subjects = 2 + case % 4
        per_subject = []
        for _ in range(n_subjects):
            t_l, p_l = oracles.random_label_case(rng, n_classes=n_classes)
            per_subject.append((labels_to_segments(np.array(t_l)),
                                labels_to_segments(np.array(p_l))))
        loa = count_loa(per_subject, n_classes=n_classes)
        for c, entry in loa.per_class.items():
            got = (entry.mean_diff, entry.std_diff, entry.lower, entry.upper)
            assert got == oracles.loa_ref(list(entry.pairs))
            loa_entries += 1

    print(f"\n[criterion 4] PASS 100 randomized cases: sample f1, "
          f"segmental f1 @ 0.75 (rescan + exhaustive max-TP), confusion, "
          f"and {loa_entries} agreement entries all exactly equal")


def test_criterion_5_overfits_eight_windows():
    t0 = time.perf_counter()
    recs, _ = make_cohort(1, plan=[(1, 2), (2, 2), (4, 1)], seed=3)
    pairs = windowize(recs[0], 160)
    pairs = pairs[::max(1, len(pairs) // 8)][:8]
    assert len(pairs) == 8
    samples = np.stack([w.samples for w, _ in pairs])
    labels = np.stack([lab for _, lab in pairs])

    mc = ModelConfig(d_model=16, n_heads=2, n_layers=1, dropout=0.0,
                     window_len=160, n_channels=6, n_classes=6, ffn_dim=32,
                     tcn_layers=5, tcn_channels=8)
    tc = TrainConfig(batch_size=4, epochs=300, learning_rate=1e-2, seed=0,
                     mask_ratio=0.5, patch_len=16)
    result = train_fold(samples, labels, mc, tc)
    acc = oracles.sample_accuracy(result.model, samples, labels)
    elapsed = time.perf_counter() - t0

    assert acc >= 0.95
    assert elapsed < 300.0
    print(f"\n[criterion 5] PASS sample accuracy {acc:.4f} >= 0.95 after "
          f"{len(result.epochs)} epochs on 8 windows, {elapsed:.1f} s "
          f"< 300 s")


def test_criterion_6_masked_training_benefit(tmp_path):
    """Eight-subject leave-one-subject-out benchmark: training with the
    masked reconstruction route (ratio 0.8, eta 500) must not degrade mean
    macro sample-f1 by more than 0.02 against the ratio-0 baseline, and
    the full ratio sweep emits a table plus a schema-valid report."""
    t0 = time.perf_counter()
    recs, _ = make_cohort(8, plan=[(1, 2), (2, 2), (4, 1)], seed=42)
    subject_windows = {}
    for rec in recs:
        pairs = windowize(rec, 160)
        subject_windows[rec.subject_id] = (
            np.stack([w.samples for w, _ in pairs]),
            np.stack([lab for _, lab in pairs]))

    mc = ModelConfig(d_model=16, n_heads=2, n_layers=1, dropout=0.0,
                     window_len=160, n_channels=6, n_classes=6, ffn_dim=32,
                     tcn_layers=5, tcn_channels=8)
    tc = TrainConfig(batch_size=16, epochs=12, learning_rate=1e-2, seed=0,
                     eta=500.0, patch_len=16)
    sweep = mask_ratio_sweep(subject_windows, mc, tc, ratios=SWEEP_RATIOS)
    elapsed = time.perf_counter() - t0

    print("\n" + sweep.format_table())
    baseline = sweep.row(0.0).mean_macro_sample_f1
    masked = sweep.row(0.8).mean_macro_sample_f1
    assert len(sweep.row(0.0).seeds) == 3
    assert len(sweep.row(0.8).seeds) == 3
    assert masked >= baseline - 0.02
    assert elapsed < 3600.0

    report = {"format_version": 1, "kind": "run_report", "command": "sweep",
              "seed": tc.seed, "wall_clock_s": elapsed,
              "sweep": sweep.table_section()}
    path = write_report(tmp_path / "sweep_report.json", report)
    jsonschema.validate(json.loads(path.read_text()), REPORT_SCHEMA)

    print(f"[criterion 6] PASS masked mean {masked:.4f} >= baseline "
          f"{baseline:.4f} - 0.02 (margin {masked - baseline + 0.02:+.4f}); "
          f"{len(sweep.rows)} ratios swept in {elapsed:.0f} s < 3600 s")


def test_criterion_7_velocity_analytics():
    fs, dt = 100.0, 0.01

    # constant extra acceleration integrates to a*t, no filtering involved
    g = 9.81
    a_extra = 0.8
    sig = np.full(500, g)
    sig[200:] += a_extra
    params = VelocityParams(g_prime=g, still_window=(0, 200), dt=dt)
    v = integrate_velocity(sig, params)
    expected = a_extra * 300 * dt
    int_err = abs(v[-1] - expected)
    assert int_err < 1e-9

    # one full-sine acceleration cycle of amplitude A over duration D:
    # velocity starts and ends at rest and peaks mid-burst at A*D/pi
    amp, dur_samples = 1.8, 200
    g2 = 9.7
    vertical = np.full(900, g2)
    u = np.arange(dur_samples) / dur_samples
    vertical[400:600] += amp * np.sin(2.0 * np.pi * u)
    segs = [Segment(400, 600, 4)]
    res = chair_rising_velocity(vertical, segs, sample_rate=fs)
    peak_true = amp * (dur_samples * dt) / math.pi
    peak_rel = abs(res.kinematics[0].peak_speed - peak_true) / peak_true
    assert peak_rel < 0.05

    # gravity recovered from generated data within 0.05 of the profile
    recs, profiles = make_cohort(1, plan=[(4, 2)], seed=21)
    vert = recs[0].signal[:, 0]
    still = find_still_window(vert, before=labels_first_chair(recs[0]))
    g_err = abs(estimate_gravity(vert, still) - profiles[0].g_prime)
    assert g_err < 0.05

    # filter: unit DC gain, >= 20 dB down at 40 Hz
    const = np.full(1000, 5.0)
    dc_err = np.abs(lowpass(const, 20.0, fs=fs) / 5.0 - 1.0).max()
    assert dc_err < 1e-6
    t = np.arange(3000) / fs
    hi = np.sin(2 * np.pi * 40.0 * t)
    mid = slice(500, 2500)
    ratio = np.abs(lowpass(hi, 20.0, fs=fs)[mid]).max() / \
        np.abs(hi[mid]).max()
    atten_db = -20.0 * math.log10(ratio)
    assert atten_db >= 20.0

    print(f"\n[criterion 7] PASS integral err {int_err:.2e} < 1e-9; burst "
          f"peak within {100 * peak_rel:.2f}% < 5%; gravity err "
          f"{g_err:.4f} < 0.05; DC gain err {dc_err:.1e} < 1e-6; "
          f"{atten_db:.1f} dB >= 20 dB at 40 Hz")


def labels_first_chair(rec):
    """Start index of the first chair-rising segment, for a quiet prefix."""
    chair = [s for s in rec.segments if s.class_id in (4, 5)]
    return chair[0].start if chair else None


SMOKE_CONFIG = {
    "model": {"d_model": 8, "n_heads": 2, "n_layers": 1, "dropout": 0.1,
              "window_len": 80, "n_channels": 6, "n_classes": 6,
              "ffn_dim": 16, "tcn_layers": 3, "tcn_channels": 4},
    "train": {"epochs": 2, "batch_size": 8, "learning_rate": 3e-3,
              "mask_ratio": 0.5, "patch_len": 10, "seed": 0},
}


def _smoke_pipeline(root):
    """generate -> train --losocv -> evaluate -> velocity, all in-process.

    Returns {relative name: canonical json} for every artifact plus the
    raw bytes of the files that must be byte-identical across reruns."""
    data = root / "data"
    out = root / "run"
    out.mkdir()
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMOKE_CONFIG))

    assert cli.main(["generate", "--subjects", "2", "--seed", "5",
                     "--plan", "1:2,4:1", "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(cfg), "--losocv", "--seed", "0"]) == 0
    ckpts = [out / "fold_s00.json", out / "fold_s01.json"]
    assert cli.main(["evaluate", "--data", str(data),
                     "--checkpoints", str(ckpts[0]), str(ckpts[1]),
                     "--report", str(out / "eval_report.json")]) == 0
    assert cli.main(["velocity", "--data", str(data), "--subject", "s00",
                     "--use-true-labels",
                     "--report", str(out / "velocity_report.json")]) == 0

    jsonschema.validate(
        json.loads((data / "manifest.json").read_text()), MANIFEST_SCHEMA)
    for ckpt in ckpts:
        jsonschema.validate(json.loads(ckpt.read_text()), CHECKPOINT_SCHEMA)
    reports = {}
    for name in ("train_report.json", "eval_report.json",
                 "velocity_report.json"):
        doc = json.loads((out / name).read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        reports[name] = doc

    frozen = {name: (data / name).read_bytes()
              for name in ("manifest.json", "s00.csv", "s01.csv")}
    frozen.update({c.name: c.read_bytes() for c in ckpts})
    return reports, frozen


def _strip_volatile(obj):
    """Drop wall-clock times and dataset paths; every other value must
    reproduce bit-exactly."""
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in ("wall_clock_s", "dataset")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def test_criterion_8_end_to_end_reproducibility(tmp_path, capsys):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    reports_a, frozen_a = _smoke_pipeline(run_a)
    reports_b, frozen_b = _smoke_pipeline(run_b)
    capsys.readouterr()  # drop the two pipelines' console tables

    for name, blob in frozen_a.items():
        assert frozen_b[name] == blob, f"{name} differs between reruns"
    for name, doc in reports_a.items():
        assert _strip_volatile(doc) == _strip_volatile(reports_b[name]), \
            f"{name} metric values differ between reruns"

    print(f"\n[criterion 8] PASS pipeline ran twice: {len(frozen_a)} files "
          f"byte-identical, {len(reports_a)} schema-valid reports "
          f"metric-identical after dropping wall-clock and path fields")
