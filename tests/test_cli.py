"""Command-line checks, driven through main() in-process: every subcommand
end to end on a small dataset, exit codes, and report validity."""

import base64
import json
import os
import re

import jsonschema
import numpy as np
import pytest

from repseg import forked
from repseg.cli import main
from repseg.dataio import (REPORT_SCHEMA, _digest, load_checkpoint,
                           read_dataset, save_checkpoint, write_dataset)
from repseg.model import Model, ModelConfig
from repseg.synth import CLASS_NAMES, make_cohort
from oracles import read_report
from test_train import _no_child_left

CONFIG = {
    "model": dict(d_model=8, n_heads=2, n_layers=1, dropout=0.0,
                  window_len=80, ffn_dim=16, tcn_layers=3, tcn_channels=4),
    "train": dict(batch_size=8, epochs=2, seed=0, mask_ratio=0.5,
                  patch_len=10, learning_rate=3e-3),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + config file shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    code = main(["generate", "--subjects", "3", "--seed", "11",
                 "--plan", "1:2,4:1", "--out", str(root / "data")])
    assert code == 0
    (root / "config.json").write_text(json.dumps(CONFIG))
    return root


def test_generate_is_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["generate", "--subjects", "2", "--seed", "3",
                     "--plan", "4:2", "--out", str(tmp_path / name)]) == 0
    out = capsys.readouterr().out
    assert CLASS_NAMES[4] in out and CLASS_NAMES[5] in out
    for f in ["manifest.json", "s00.csv", "s01.csv"]:
        assert (tmp_path / "a" / f).read_bytes() \
            == (tmp_path / "b" / f).read_bytes()


def test_generate_chair_pairing(tmp_path, capsys):
    assert main(["generate", "--subjects", "1", "--seed", "0",
                 "--plan", "4:5", "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    counts = manifest["subjects"][0]["segment_counts"]
    assert counts["4"] == 5 and counts["5"] == 5
    assert "sit_to_stand" in out


def test_generate_bad_plan_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--plan", "banana", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("subjects", ["-1", "0"])
def test_generate_without_subjects_is_data_error(tmp_path, capsys, subjects):
    code = main(["generate", "--subjects", subjects,
                 "--out", str(tmp_path / "d")])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_generate_negative_seed_is_data_error_naming_the_seed(tmp_path,
                                                              capsys):
    code = main(["generate", "--subjects", "2", "--seed", "-1",
                 "--out", str(tmp_path / "d")])
    assert code == 3
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_generate_bout_without_repetitions_is_data_error_naming_the_bout(
        tmp_path, capsys):
    code = main(["generate", "--subjects", "2", "--plan", "2:3,1:0",
                 "--out", str(tmp_path / "d")])
    assert code == 3
    assert capsys.readouterr().err \
        == "error: plan bout 1:0 needs at least one repetition\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("threshold", ["nan", "1.5", "0", "-0.5", "x"])
def test_iou_threshold_outside_the_unit_interval_is_usage_error(
        workspace, tmp_path, capsys, threshold):
    data = str(workspace / "data")
    report = tmp_path / "report.json"
    for argv in (["train", "--data", data, "--losocv",
                  "--config", str(workspace / "config.json"),
                  "--out", str(tmp_path / "o")],
                 ["evaluate", "--data", data, "--oracle",
                  "--report", str(report)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--iou-threshold", threshold])
        assert exc.value.code == 2
        assert "expected a number in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not report.exists()


def test_train_losocv_writes_checkpoints_and_report(workspace):
    out = workspace / "run"
    code = main(["train", "--data", str(workspace / "data"),
                 "--config", str(workspace / "config.json"),
                 "--losocv", "--out", str(out)])
    assert code == 0
    report = read_report(out / "train_report.json")
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["command"] == "train"
    assert [f["test_subject"] for f in report["folds"]] \
        == ["s00", "s01", "s02"]
    assert "loa" in report and "aggregate" in report
    for fold in report["folds"]:
        model = load_checkpoint(out / fold["checkpoint"])
        assert model.config.d_model == 8
        curves = fold["loss_curves"]
        assert len(curves["loss"]) == len(curves["epoch"]) == 2


def test_train_jobs_flag_is_usage_error(workspace, tmp_path, capsys):
    # LOSOCV folds share the CPUs of the affinity set (taskset)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(workspace / "data"), "--losocv",
              "--config", str(workspace / "config.json"),
              "--jobs", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.forked
def test_diverging_losocv_fold_is_numerical_failure(workspace, tmp_path,
                                                    capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {**CONFIG, "train": {**CONFIG["train"], "learning_rate": 1e30}}))
    out = tmp_path / "o"
    assert main(["train", "--data", str(workspace / "data"), "--losocv",
                 "--config", str(config), "--out", str(out)]) == 4
    assert "numerical failure: non-finite loss" in capsys.readouterr().err
    assert not out.exists()
    _no_child_left()


def test_train_single_model(workspace, tmp_path):
    code = main(["train", "--data", str(workspace / "data"),
                 "--config", str(workspace / "config.json"),
                 "--epochs", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "model.json").exists()
    report = read_report(tmp_path / "train_report.json")
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["train_config"]["epochs"] == 1  # flag overrode the file


def test_train_enumerates_config_violations(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"d_model": 9, "n_heads": 2},
                               "train": {"epochs": 0}}))
    code = main(["train", "--data", str(workspace / "data"),
                 "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "model config" in err and "train config" in err


@pytest.mark.parametrize("doc", [5, [CONFIG], "model", None])
def test_train_config_that_is_not_an_object_is_data_error(
        workspace, tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["train", "--data", str(workspace / "data"),
                 "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"{bad} must be a JSON object, got" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_config_section_that_is_not_an_object_is_data_error(
        workspace, tmp_path, capsys):
    for doc, named in (({"model": 5}, "model"),
                       ({"model": CONFIG["model"], "train": [1]}, "train"),
                       ({"train": None}, "train")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["train", "--data", str(workspace / "data"),
                     "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{bad}: {named} must be a JSON object, got" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, field, value", [
    ("train", "batch_size", 2.5), ("train", "epochs", True),
    ("train", "eta", True), ("model", "n_layers", 1.5)])
def test_train_config_value_of_the_wrong_type_is_data_error(
        workspace, tmp_path, capsys, section, field, value):
    doc = {name: dict(CONFIG[name]) for name in CONFIG}
    doc[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["train", "--data", str(workspace / "data"),
                 "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["early_stop_patience", "class_weighting",
                                   "beta1"])
def test_train_config_without_early_stopping_or_class_weights(
        workspace, tmp_path, capsys, field):
    doc = {"model": CONFIG["model"],
           "train": {**CONFIG["train"], field: 3}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["train", "--data", str(workspace / "data"),
                 "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{bad}: train.{field} is not a known field" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("given_by", ["flag", "config"])
def test_negative_seed_is_data_error_before_the_dataset_is_read(
        tmp_path, capsys, given_by):
    argv = ["train", "--data", str(tmp_path / "no_data"),
            "--out", str(tmp_path / "o")]
    if given_by == "flag":
        argv += ["--seed", "-1"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**CONFIG, "train": {**CONFIG["train"], "seed": -1}}))
        argv += ["--config", str(config)]
    assert main(argv) == 3
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, given_by, value", [
    ("eta", "flag", "nan"), ("eta", "flag", "inf"),
    ("learning_rate", "flag", "nan"), ("learning_rate", "flag", "inf"),
    ("learning_rate", "config", float("inf")),
    ("eta", "config", float("nan"))])
def test_non_finite_eta_or_learning_rate_is_data_error_before_reading(
        tmp_path, capsys, field, given_by, value):
    argv = ["train", "--data", str(tmp_path / "no_data"),
            "--out", str(tmp_path / "o")]
    if given_by == "flag":
        argv += [f"--{field.replace('_', '-')}", value]
    else:
        config = tmp_path / "config.json"
        # json writes these as the Infinity and NaN that Python reads back
        config.write_text(json.dumps(
            {**CONFIG, "train": {**CONFIG["train"], field: value}}))
        argv += ["--config", str(config)]
    assert main(argv) == 3
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_evaluate_checks_checkpoints_before_reading_the_dataset(tmp_path,
                                                                capsys):
    ckpt = tmp_path / "corrupt.json"
    ckpt.write_text("[]")
    data = tmp_path / "data"
    data.mkdir()  # no manifest
    report = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--checkpoints", str(ckpt),
                 "--report", str(report)]) == 3
    assert f"{ckpt} must be a JSON object" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_checkpoints(workspace, capsys):
    run = workspace / "run"
    ckpts = sorted(str(p) for p in run.glob("fold_*.json"))
    report_path = workspace / "eval_report.json"
    code = main(["evaluate", "--data", str(workspace / "data"),
                 "--checkpoints", *ckpts,
                 "--report", str(report_path)])
    assert code == 0
    report = read_report(report_path)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["iou_threshold"] == 0.75
    assert len(report["checkpoints"]) == 3
    out = capsys.readouterr().out
    assert "fold_s00.json" in out
    for row in report["checkpoints"]:
        assert "loa" in row
        assert len(row["confusion"]) == 6
    assert isinstance(report["aggregate"]["mean_macro_segmental_f1"], float)


def test_evaluate_matches_losocv_fold(workspace, tmp_path):
    """A fold section of `train --losocv` and `evaluate` of that fold's
    checkpoint on the held-out subject alone score identically."""
    fold = read_report(workspace / "run" / "train_report.json")["folds"][0]
    rec, = read_dataset(workspace / "data",
                        subjects=[fold["test_subject"]]).recordings
    # the profiles the workspace fixture's `generate` wrote
    _, profiles = make_cohort(3, plan=[(1, 2), (4, 1)], seed=11)
    prof, = [p for p in profiles if p.subject_id == rec.subject_id]
    manifest = json.loads((workspace / "data" / "manifest.json").read_text())
    write_dataset(tmp_path / "held_out", [rec], [prof], manifest["seed"],
                  manifest["plan"])
    report_path = tmp_path / "eval.json"
    assert main(["evaluate", "--data", str(tmp_path / "held_out"),
                 "--checkpoints",
                 str(workspace / "run" / fold["checkpoint"]),
                 "--report", str(report_path)]) == 0
    row = read_report(report_path)["checkpoints"][0]
    for key in ("sample_accuracy", "sample_f1", "segmental", "confusion"):
        assert row[key] == fold[key], key


def test_evaluate_unknown_model_config_key_is_data_error(workspace,
                                                         tmp_path, capsys):
    doc = json.loads((workspace / "run" / "fold_s00.json").read_text())
    doc["model_config"]["width"] = 3
    doc["sha256"] = _digest({"model_config": doc["model_config"],
                             "params": doc["params"]})
    ckpt = tmp_path / "extra_key.json"
    ckpt.write_text(json.dumps(doc))
    code = main(["evaluate", "--data", str(workspace / "data"),
                 "--checkpoints", str(ckpt)])
    assert code == 3
    assert f"{ckpt}: model_config.width is not a known field" \
        in capsys.readouterr().err


def test_evaluate_class_count_mismatch_is_data_error(workspace, tmp_path,
                                                    capsys):
    model = Model(ModelConfig(**{**CONFIG["model"], "n_classes": 4}),
                  rng=np.random.default_rng(0))
    ckpt = save_checkpoint(tmp_path / "four_classes.json", model)
    code = main(["evaluate", "--data", str(workspace / "data"),
                 "--checkpoints", str(ckpt)])
    assert code == 3
    assert "4 classes" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("n_classes", 9),
                                          ("n_channels", 3)])
@pytest.mark.parametrize("command", ["evaluate", "velocity"])
def test_checkpoint_that_does_not_fit_the_dataset_is_data_error(
        workspace, tmp_path, capsys, command, field, value):
    model = Model(ModelConfig(**{**CONFIG["model"], field: value}),
                  rng=np.random.default_rng(0))
    ckpt = save_checkpoint(tmp_path / "misfit.json", model)
    argv = {"evaluate": ["--checkpoints", str(ckpt)],
            "velocity": ["--subject", "s00", "--checkpoint", str(ckpt)]}
    report = tmp_path / "report.json"
    code = main([command, "--data", str(workspace / "data"), *argv[command],
                 "--report", str(report)])
    assert code == 3
    assert f"misfit.json: checkpoint expects {model.config.n_channels} " \
           f"channels and {model.config.n_classes} classes" \
        in capsys.readouterr().err
    assert not report.exists()


def test_velocity_reads_its_checkpoint_before_the_csv(workspace, tmp_path,
                                                       capsys):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    (data / "s00.csv").write_text("not a csv\n")
    ckpt = tmp_path / "broken.json"
    ckpt.write_text("{")
    code = main(["velocity", "--data", str(data), "--subject", "s00",
                 "--checkpoint", str(ckpt)])
    assert code == 3
    assert f"{ckpt} is not JSON" in capsys.readouterr().err


def test_non_finite_sample_is_data_error(workspace, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    lines = (data / "s00.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "nan"
    lines[1] = ",".join(cells)
    (data / "s00.csv").write_text("\n".join(lines) + "\n")
    ckpt = workspace / "run" / "fold_s00.json"
    for argv in (["evaluate", "--data", str(data), "--checkpoints",
                  str(ckpt)],
                 ["velocity", "--data", str(data), "--subject", "s00",
                  "--use-true-labels"]):
        report = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--report", str(report)]) == 3
        assert not report.exists()


def test_velocity_reads_only_its_subject(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    (data / "s01.csv").write_text("not a csv\n")
    argv = ["velocity", "--data", str(data), "--use-true-labels"]
    assert main(argv + ["--subject", "s00"]) == 0
    report = tmp_path / "unknown.json"
    assert main(argv + ["--subject", "s09", "--report", str(report)]) == 3
    # unquoted, as every other data error reads
    assert capsys.readouterr().err \
        == "error: no subjects ['s09'] in dataset\n"
    assert not report.exists()


def test_evaluate_oracle_is_perfect(workspace, tmp_path):
    report_path = tmp_path / "oracle.json"
    code = main(["evaluate", "--data", str(workspace / "data"),
                 "--oracle", "--report", str(report_path)])
    assert code == 0
    report = read_report(report_path)
    jsonschema.validate(report, REPORT_SCHEMA)
    row = report["checkpoints"][0]
    assert row["sample_accuracy"] == 1.0
    for score in row["sample_f1"]["per_class"].values():
        if score is not None:
            assert score["f1"] == 1.0
    assert row["sample_f1"]["macro_f1"] == 1.0
    assert row["segmental"]["macro_f1"] == 1.0
    for entry in row["loa"]["per_class"].values():
        assert entry["mean_diff"] == 0.0
        assert entry["std_diff"] == 0.0
        assert entry["lower"] == 0.0 and entry["upper"] == 0.0


def test_evaluate_without_checkpoints_errors(workspace, capsys):
    code = main(["evaluate", "--data", str(workspace / "data")])
    assert code == 3
    assert "--checkpoints or --oracle" in capsys.readouterr().err


def test_velocity_true_labels(workspace, capsys):
    report_path = workspace / "vel_report.json"
    code = main(["velocity", "--data", str(workspace / "data"),
                 "--subject", "s00", "--use-true-labels",
                 "--report", str(report_path)])
    assert code == 0
    report = read_report(report_path)
    jsonschema.validate(report, REPORT_SCHEMA)
    vel = report["velocity"]
    assert len(vel["repetitions"]) == 2  # one chair pair in the plan
    rec_rows = json.loads(
        (workspace / "data" / "manifest.json").read_text()
    )["subjects"][0]["rows"]
    assert len(vel["velocity"]) == rec_rows  # trace covers the recording
    out = capsys.readouterr().out
    assert "g' =" in out and "sit_to_stand" in out


def test_velocity_predicted_labels(workspace):
    ckpt = workspace / "run" / "fold_s00.json"
    code = main(["velocity", "--data", str(workspace / "data"),
                 "--subject", "s00", "--checkpoint", str(ckpt)])
    assert code == 0


@pytest.mark.parametrize("sources, expected", [
    (("checkpoint", "labels"), 2), (("labels", "checkpoint"), 2), ((), 3)],
    ids=["checkpoint_first", "labels_first", "neither"])
def test_velocity_takes_exactly_one_label_source(workspace, tmp_path, capsys,
                                                 sources, expected):
    # the checkpoint does not exist: with both flags it must not be read
    flags = {"checkpoint": ["--checkpoint", str(tmp_path / "missing.json")],
             "labels": ["--use-true-labels"]}
    report = tmp_path / "r.json"
    argv = ["velocity", "--data", str(workspace / "data"), "--subject", "s00",
            *[flag for source in sources for flag in flags[source]],
            "--report", str(report)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    err = capsys.readouterr().err
    assert ("not allowed with argument" in err) == (expected == 2)
    assert ("pass --checkpoint or --use-true-labels" in err) \
        == (expected == 3)
    assert not report.exists()


@pytest.mark.parametrize("command", ["evaluate", "velocity"])
def test_window_longer_than_a_recording_names_the_subject(
        workspace, tmp_path, capsys, command):
    model = Model(ModelConfig(**{**CONFIG["model"], "window_len": 20000}),
                  rng=np.random.default_rng(0))
    ckpt = save_checkpoint(tmp_path / "long.json", model)
    argv = {"evaluate": ["--checkpoints", str(ckpt)],
            "velocity": ["--subject", "s01", "--checkpoint", str(ckpt)]}
    report = tmp_path / "report.json"
    code = main([command, "--data", str(workspace / "data"), *argv[command],
                 "--report", str(report)])
    assert code == 3
    subject = {"evaluate": "s00", "velocity": "s01"}[command]
    assert re.search(rf"error: subject {subject}: recording of \d+ samples "
                     rf"is shorter than one window \(20000\)",
                     capsys.readouterr().err)
    assert not report.exists()


def test_velocity_without_chair_segments(tmp_path, capsys):
    assert main(["generate", "--subjects", "1", "--seed", "2",
                 "--plan", "1:3", "--out", str(tmp_path / "d")]) == 0
    code = main(["velocity", "--data", str(tmp_path / "d"),
                 "--subject", "s00", "--use-true-labels",
                 "--report", str(tmp_path / "r.json")])
    assert code == 0
    report = read_report(tmp_path / "r.json")
    assert report["velocity"]["repetitions"] == []
    assert "no chair-rising segments" in report["notes"]
    assert "no chair-rising segments" in capsys.readouterr().out


def _never_still_dataset(tmp_path):
    """A one-subject dataset whose vertical axis never goes quiet."""
    import csv
    rng = np.random.default_rng(0)
    d = tmp_path / "d"
    assert main(["generate", "--subjects", "1", "--seed", "2",
                 "--plan", "4:1", "--out", str(d)]) == 0
    rows = list(csv.reader((d / "s00.csv").read_text().splitlines()))
    for i, row in enumerate(rows[1:]):
        row[1] = repr(float(9.6 + 2.0 * np.sin(i / 3.0)
                            + rng.normal(0, 0.4)))
    (d / "s00.csv").write_text(
        "\n".join(",".join(r) for r in rows) + "\n")
    return d


def test_velocity_still_window_failure_exit_code(tmp_path, capsys):
    d = _never_still_dataset(tmp_path)
    code = main(["velocity", "--data", str(d), "--subject", "s00",
                 "--use-true-labels"])
    assert code == 4
    assert "--still-window" in capsys.readouterr().err


def test_velocity_user_still_window_too_dynamic_gets_no_hint(tmp_path,
                                                             capsys):
    # the hint to pass --still-window is for the automatic search alone
    d = _never_still_dataset(tmp_path)
    code = main(["velocity", "--data", str(d), "--subject", "s00",
                 "--use-true-labels", "--still-window", "0:200"])
    assert code == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "too dynamic" in err
    assert "--still-window" not in err


@pytest.mark.parametrize("window", ["5:3", "7:7", "-1:100", "0:x"])
def test_velocity_still_window_not_start_before_end_is_usage_error(
        workspace, tmp_path, capsys, window):
    with pytest.raises(SystemExit) as exc:
        main(["velocity", "--data", str(workspace / "data"),
              "--subject", "s00", "--use-true-labels",
              f"--still-window={window}",
              "--report", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "0 <= start < end" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_velocity_still_window_past_the_recording_is_data_error(
        workspace, tmp_path, capsys):
    code = main(["velocity", "--data", str(workspace / "data"),
                 "--subject", "s00", "--use-true-labels",
                 "--still-window", "0:100000",
                 "--report", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: still window 0:100000 ends past subject s00's" in err
    assert "override" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "velocity"])
def test_seed_is_usage_error_where_nothing_is_drawn(workspace, tmp_path,
                                                    capsys, command):
    argv = {"evaluate": ["--oracle"],
            "velocity": ["--subject", "s00", "--use-true-labels"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(workspace / "data"), *argv,
              "--seed", "0", "--report", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_missing_dataset_is_data_error(tmp_path, capsys):
    code = main(["evaluate", "--data", str(tmp_path / "nope"), "--oracle"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["checkpoint", "manifest", "config"])
def test_file_that_is_not_json_is_data_error_naming_it(workspace, tmp_path,
                                                       capsys, kind):
    bad = tmp_path / ("manifest.json" if kind == "manifest" else "bad.json")
    bad.write_text("{")
    data = str(tmp_path if kind == "manifest" else workspace / "data")
    good = save_checkpoint(tmp_path / "good.json", Model(
        ModelConfig(**CONFIG["model"]), rng=np.random.default_rng(0)))
    report = tmp_path / "report.json"
    argv = {"checkpoint": ["evaluate", "--data", data, "--checkpoints",
                           str(good), str(bad), "--report", str(report)],
            "manifest": ["evaluate", "--data", data, "--oracle",
                         "--report", str(report)],
            "config": ["train", "--data", data, "--config", str(bad),
                       "--out", str(tmp_path / "o")]}[kind]
    assert main(argv) == 3
    assert f"error: {bad} is not JSON" in capsys.readouterr().err
    assert not report.exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("part", ["top", "model_config", "params", "block"])
def test_checkpoint_part_that_is_not_an_object_is_data_error(
        workspace, tmp_path, capsys, part):
    doc = json.loads((workspace / "run" / "fold_s00.json").read_text())
    block = next(iter(doc["params"]))
    if part == "block":
        doc["params"][block] = 5
    elif part != "top":
        doc[part] = []
    doc["sha256"] = _digest({"model_config": doc["model_config"],
                             "params": doc["params"]})
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps([] if part == "top" else doc))
    named = {"top": f"{ckpt}", "model_config": f"{ckpt}: model_config",
             "params": f"{ckpt}: params",
             "block": f"{ckpt}: params.{block}"}[part]
    for argv in (["evaluate", "--data", str(workspace / "data"),
                  "--checkpoints", str(ckpt)],
                 ["velocity", "--data", str(workspace / "data"),
                  "--subject", "s00", "--checkpoint", str(ckpt)]):
        report = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--report", str(report)]) == 3
        assert f"{named} must be a JSON object" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize("part", ["top", "subjects", "entry", "profile"])
def test_manifest_part_that_is_not_an_object_is_data_error(
        workspace, tmp_path, capsys, part):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((data / "manifest.json").read_text())
    if part == "top":
        manifest = []
    elif part == "subjects":
        manifest["subjects"] = 5
    elif part == "entry":
        manifest["subjects"][1] = 5
    else:
        manifest["subjects"][0]["profile"] = [1]
    (data / "manifest.json").write_text(json.dumps(manifest))
    report = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--oracle",
                 "--report", str(report)]) == 3
    named = {"top": "manifest.json must be a JSON object",
             "subjects": "subjects must be a JSON array",
             "entry": "subjects[1] must be a JSON object",
             "profile": "subjects[0].profile must be a JSON object"}[part]
    assert named in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("field, value", [("shape", "ab"), ("shape", [None]),
                                          ("data", 5), ("data", None)])
def test_checkpoint_field_of_the_wrong_type_is_data_error(
        workspace, tmp_path, capsys, field, value):
    model = Model(ModelConfig(**CONFIG["model"]),
                  rng=np.random.default_rng(0))
    doc = json.loads(save_checkpoint(tmp_path / "good.json",
                                     model).read_text())
    doc["params"]["embed.w"][field] = value
    doc["sha256"] = _digest({"model_config": doc["model_config"],
                             "params": doc["params"]})
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    for argv in (["evaluate", "--data", str(workspace / "data"),
                  "--checkpoints", str(ckpt)],
                 ["velocity", "--data", str(workspace / "data"),
                  "--subject", "s00", "--checkpoint", str(ckpt)]):
        report = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--report", str(report)]) == 3
        assert re.search(rf"params\.embed\.w\.{field}(\[\d+\])* must be",
                         capsys.readouterr().err)
        assert not report.exists()


@pytest.mark.parametrize("rows", ["12", None, 1.5])
def test_manifest_rows_of_the_wrong_type_is_data_error(
        workspace, tmp_path, capsys, rows):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["subjects"][0]["rows"] = rows
    (data / "manifest.json").write_text(json.dumps(manifest))
    report = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--oracle",
                 "--report", str(report)]) == 3
    assert "subjects[0].rows must be a JSON integer" in capsys.readouterr().err
    assert not report.exists()


def test_manifest_rows_beyond_the_file_is_data_error_without_allocating(
        workspace, tmp_path, capsys):
    # rows is parsed before it is trusted: 10**12 rows of six float64s
    # would be 43.7 TiB
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["subjects"][0]["rows"] = 10 ** 12
    (data / "manifest.json").write_text(json.dumps(manifest))
    report = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--oracle",
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest says 1000000000000" in err
    assert "MemoryError" not in err
    assert not report.exists()


@pytest.mark.parametrize("field, value", [("d_model", "x"),
                                          ("d_model", 8.0),
                                          ("dropout", "0")])
def test_checkpoint_model_config_of_the_wrong_type_is_data_error(
        workspace, tmp_path, capsys, field, value):
    model = Model(ModelConfig(**CONFIG["model"]),
                  rng=np.random.default_rng(0))
    doc = json.loads(save_checkpoint(tmp_path / "good.json",
                                     model).read_text())
    doc["model_config"][field] = value
    doc["sha256"] = _digest({"model_config": doc["model_config"],
                             "params": doc["params"]})
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    for argv in (["evaluate", "--data", str(workspace / "data"),
                  "--checkpoints", str(ckpt)],
                 ["velocity", "--data", str(workspace / "data"),
                  "--subject", "s00", "--checkpoint", str(ckpt)]):
        report = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--report", str(report)]) == 3
        assert f"{field} must be" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize("edit", ["nan", "-inf", "seven_bytes", "not_base64",
                                  "missing", "renamed", "transposed"])
@pytest.mark.parametrize("command", ["evaluate", "velocity"])
def test_checkpoint_parameter_block_that_does_not_decode_is_data_error(
        workspace, tmp_path, capsys, command, edit):
    model = Model(ModelConfig(**CONFIG["model"]),
                  rng=np.random.default_rng(0))
    doc = json.loads(save_checkpoint(tmp_path / "good.json",
                                     model).read_text())
    params = doc["params"]
    if edit in ("nan", "-inf"):
        values = np.zeros(CONFIG["model"]["d_model"])
        values[3] = float(edit)
        params["embed.b"]["data"] = base64.b64encode(
            values.astype("<f8").tobytes()).decode("ascii")
    elif edit == "seven_bytes":
        params["embed.b"]["data"] = base64.b64encode(bytes(7)).decode("ascii")
    elif edit == "not_base64":
        params["embed.b"]["data"] = "AAAA*AAA"
    elif edit == "missing":
        del params["embed.b"]
    elif edit == "renamed":
        params["embed.bias"] = params.pop("embed.b")
    else:
        params["embed.w"]["shape"] = params["embed.w"]["shape"][::-1]
    name = {"renamed": "embed.bias", "transposed": "embed.w"}.get(edit,
                                                                  "embed.b")
    doc["sha256"] = _digest({"model_config": doc["model_config"],
                             "params": doc["params"]})
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    argv = {"evaluate": ["--checkpoints", str(ckpt)],
            "velocity": ["--subject", "s00", "--checkpoint", str(ckpt)]}
    report = tmp_path / "report.json"
    code = main([command, "--data", str(workspace / "data"), *argv[command],
                 "--report", str(report)])
    assert code == 3
    assert f"error: {ckpt}: parameter {name} " in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("path, value, code", [
    ("subjects", [], 3),
    ("subjects.0.file", 5, 3),
    ("subjects.0.file", None, 3),
    ("subjects.0.subject_id", 5, 3),
    ("subjects.0.subject_id", ["s00"], 3),
    ("seed", None, 3),
    ("seed", 1.5, 3),
    ("seed", "11", 3),
    ("plan", 5, 3),
    ("plan", [1, 2], 3),
    ("plan", [[1.5, 2]], 3),
    ("plan", [[None, 2]], 3),
    ("sample_rate", None, 3),
    ("sample_rate", 0, 3),
    ("class_names", ["background"], 3),  # the schema says an object
])
def test_manifest_field_of_the_wrong_type(workspace, tmp_path, capsys, path,
                                          value, code):
    data = tmp_path / "data"
    data.mkdir()
    for src in (workspace / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((data / "manifest.json").read_text())
    *parents, field = [int(k) if k.isdigit() else k for k in path.split(".")]
    parent = manifest
    for key in parents:
        parent = parent[key]
    parent[field] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    report = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--oracle",
                 "--report", str(report)]) == code
    if code == 3:
        # the walker names the field, or the first bad item within it
        named = re.escape(re.sub(r"\.(\d+)", r"[\1]", path))
        assert re.search(rf"{named}(\[\d+\])* must be",
                         capsys.readouterr().err)
    assert report.exists() == (code == 0)


def test_directory_given_as_input_file_is_data_error(workspace, tmp_path,
                                                     capsys):
    report = tmp_path / "report.json"
    for argv in (["evaluate", "--data", str(workspace / "data"),
                  "--checkpoints", str(tmp_path), "--report", str(report)],
                 ["train", "--data", str(workspace / "data"),
                  "--config", str(tmp_path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err
    assert not report.exists()
    assert not (tmp_path / "o").exists()


@pytest.mark.forked
def test_predict_split_leaves_evaluate_and_velocity_reports_unchanged(
        workspace, tmp_path, monkeypatch):
    """Reports of `evaluate` and `velocity --checkpoint` are the same whether
    `predict` sees one CPU or two, apart from wall-clock times."""
    model = Model(ModelConfig(**CONFIG["model"]),
                  rng=np.random.default_rng(5))
    ckpt = save_checkpoint(tmp_path / "ckpt.json", model)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    reports = {}
    for n_cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n_cpus: set(range(n)))
        for argv in (["evaluate", "--data", str(workspace / "data"),
                      "--checkpoints", str(ckpt)],
                     ["velocity", "--data", str(workspace / "data"),
                      "--subject", "s00", "--checkpoint", str(ckpt),
                      "--still-window", "0:100"]):
            path = tmp_path / f"{argv[0]}_{n_cpus}.json"
            assert main(argv + ["--report", str(path)]) == 0
            report = read_report(path)
            report.pop("wall_clock_s")
            reports[argv[0], n_cpus] = report
        if n_cpus == 1:
            assert not forks
    assert bool(forks) == (forked.blas_threads() is not None)
    assert reports["evaluate", 1] == reports["evaluate", 2]
    assert reports["velocity", 1] == reports["velocity", 2]
