"""File-format checks: CSV/manifest round trips are bit-exact, checkpoint
checksums catch corruption, and every document validates against its
published schema."""

import json

import jsonschema
import numpy as np
import pytest

from repseg.dataio import (
    CHECKPOINT_SCHEMA,
    MANIFEST_SCHEMA,
    REPORT_SCHEMA,
    ChecksumError,
    DataFormatError,
    load_checkpoint,
    read_dataset,
    read_report,
    save_checkpoint,
    write_dataset,
    write_report,
)
from repseg.model import Model, ModelConfig
from repseg.synth import make_cohort

TINY = dict(d_model=8, n_heads=2, n_layers=1, dropout=0.1, window_len=40,
            ffn_dim=16, tcn_layers=3, tcn_channels=4)


@pytest.fixture(scope="module")
def cohort():
    return make_cohort(2, plan=[(1, 2), (4, 1)], seed=5)


def test_dataset_roundtrip_is_bit_exact(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, seed=5,
                  plan=[(1, 2), (4, 1)])
    ds = read_dataset(tmp_path / "ds")
    assert ds.seed == 5
    assert ds.plan == [(1, 2), (4, 1)]
    assert ds.subject_ids() == ["s00", "s01"]
    for got, want in zip(ds.recordings, recordings):
        assert np.array_equal(got.signal, want.signal)  # repr round-trips
        assert np.array_equal(got.labels, want.labels)
        assert got.segments == want.segments
    assert ds.by_subject("s01").subject_id == "s01"
    with pytest.raises(KeyError):
        ds.by_subject("s99")


def test_read_dataset_parses_only_the_listed_subjects(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2), (4, 1)])
    (tmp_path / "ds" / "s00.csv").write_text("not a csv\n")  # never opened
    ds = read_dataset(tmp_path / "ds", subjects=["s01"])
    assert ds.subject_ids() == ["s01"]
    assert np.array_equal(ds.recordings[0].signal, recordings[1].signal)
    with pytest.raises(KeyError, match="s07"):
        read_dataset(tmp_path / "ds", subjects=["s01", "s07"])


def test_read_dataset_keeps_manifest_order(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2), (4, 1)])
    ds = read_dataset(tmp_path / "ds", subjects=["s01", "s00"])
    assert ds.subject_ids() == ["s00", "s01"]


def test_dataset_write_is_deterministic(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "a", recordings, profiles, 5, [(1, 2)])
    write_dataset(tmp_path / "b", recordings, profiles, 5, [(1, 2)])
    for name in ["manifest.json", "s00.csv", "s01.csv"]:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_manifest_schema_and_tamper_detection(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2), (4, 1)])
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    jsonschema.validate(manifest, MANIFEST_SCHEMA)

    # manifest row count must match the table
    manifest["subjects"][0]["rows"] -= 1
    (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError):
        read_dataset(tmp_path / "ds")


def test_dataset_rejects_bad_label(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2)])
    csv_path = tmp_path / "ds" / "s00.csv"
    lines = csv_path.read_text().splitlines()
    first = lines[1].rsplit(",", 1)[0]
    lines[1] = first + ",17"  # label outside [0, 6)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        read_dataset(tmp_path / "ds")


def test_dataset_rejects_non_finite_sample(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2)])
    csv_path = tmp_path / "ds" / "s00.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[2] = "nan"  # ay of row 3
    lines[4] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"s00\.csv.*row 3"):
        read_dataset(tmp_path / "ds")


def test_missing_manifest(tmp_path):
    with pytest.raises(DataFormatError):
        read_dataset(tmp_path)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = Model(ModelConfig(**TINY), rng=np.random.default_rng(3))
    path = save_checkpoint(tmp_path / "ckpt.json", model)
    jsonschema.validate(json.loads(path.read_text()), CHECKPOINT_SCHEMA)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for k, p in model.params.items():
        got = loaded.params[k]
        assert got.data.dtype == np.float64
        assert np.array_equal(got.data, p.data)
        assert got.requires_grad


def test_checkpoint_corruption_detected(tmp_path):
    model = Model(ModelConfig(**TINY), rng=np.random.default_rng(3))
    path = save_checkpoint(tmp_path / "ckpt.json", model)
    doc = json.loads(path.read_text())
    block = doc["params"]["embed.w"]["data"]
    flipped = ("A" if block[10] != "A" else "B")
    doc["params"]["embed.w"]["data"] = block[:10] + flipped + block[11:]
    path.write_text(json.dumps(doc))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)
    doc["kind"] = "something"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_checkpoint_refuses_non_finite_parameters(tmp_path):
    model = Model(ModelConfig(**TINY), rng=np.random.default_rng(3))
    model.params["embed.b"].data[0] = np.inf
    with pytest.raises(ValueError, match="embed.b"):
        save_checkpoint(tmp_path / "ckpt.json", model)
    assert not (tmp_path / "ckpt.json").exists()


def test_loaded_checkpoint_predicts_identically(tmp_path):
    model = Model(ModelConfig(**TINY), rng=np.random.default_rng(4))
    window = np.random.default_rng(0).normal(size=(40, 6))
    path = save_checkpoint(tmp_path / "m.json", model)
    loaded = load_checkpoint(path)
    assert np.array_equal(model.predict_labels(window),
                          loaded.predict_labels(window))


def test_report_roundtrip_and_schema(tmp_path):
    report = {
        "format_version": 1,
        "kind": "run_report",
        "command": "evaluate",
        "seed": 7,
        "wall_clock_s": 1.25,
        "iou_threshold": 0.75,
        "folds": [{
            "test_subject": "s00",
            "train_subjects": ["s01", "s02"],
            "sample_f1": {"per_class": {"0": {"tp": 5, "fp": 1, "fn": 0,
                                              "precision": 5 / 6,
                                              "recall": 1.0,
                                              "f1": 10 / 11},
                                        "3": None},
                          "macro_f1": 10 / 11},
            "confusion": [[1.0, 0.0], [0.25, 0.75]],
        }],
        "aggregate": {"mean_macro_sample_f1": 10 / 11},
    }
    jsonschema.validate(report, REPORT_SCHEMA)
    path = write_report(tmp_path / "report.json", report)
    assert read_report(path) == report

    with pytest.raises(DataFormatError):
        write_report(tmp_path / "bad.json", {"kind": "run_report"})
    with pytest.raises(ValueError):
        write_report(tmp_path / "nan.json",
                     {**report, "wall_clock_s": float("nan")})
    assert not (tmp_path / "nan.json").exists()
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**report, "command": "dance"}, REPORT_SCHEMA)
