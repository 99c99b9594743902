"""File-format checks: CSV/manifest round trips are bit-exact, checkpoint
checksums catch corruption, and every document validates against its
published schema."""

import json

import jsonschema
import numpy as np
import pytest

from repseg.cli import main
from repseg.dataio import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SCHEMA,
    CSV_BLOCK_ROWS,
    MANIFEST_SCHEMA,
    REPORT_SCHEMA,
    ChecksumError,
    DataFormatError,
    _checkpoint_payload,
    _digest,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_dataset,
    write_report,
)
from repseg.model import Model, ModelConfig
from repseg.synth import N_CLASSES, Recording, SubjectProfile, make_cohort
from oracles import digest_ref, read_report, write_subject_csv_ref
from test_train import SPLITS, _no_child_left, _split_across

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
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert (manifest["seed"], manifest["plan"]) == (5, [[1, 2], [4, 1]])
    assert ds.subject_ids() == ["s00", "s01"]
    for got, want in zip(ds.recordings, recordings):
        assert np.array_equal(got.signal, want.signal)  # repr round-trips
        assert np.array_equal(got.labels, want.labels)
        assert got.segments == want.segments


def test_read_dataset_parses_only_the_listed_subjects(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2), (4, 1)])
    (tmp_path / "ds" / "s00.csv").write_text("not a csv\n")  # never opened
    ds = read_dataset(tmp_path / "ds", subjects=["s01"])
    assert ds.subject_ids() == ["s01"]
    assert np.array_equal(ds.recordings[0].signal, recordings[1].signal)
    with pytest.raises(ValueError,
                       match=r"^no subjects \['s07'\] in dataset$"):
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


def _assert_written_as_the_reference(out_dir, recordings):
    for rec in recordings:
        ref = out_dir / f"{rec.subject_id}.ref"
        write_subject_csv_ref(ref, rec)
        assert (out_dir / f"{rec.subject_id}.csv").read_bytes() \
            == ref.read_bytes()
    for got, want in zip(read_dataset(out_dir).recordings, recordings):
        assert np.array_equal(got.signal, want.signal)
        assert np.array_equal(np.signbit(got.signal), np.signbit(want.signal))
        assert np.array_equal(got.labels, want.labels)


def _assert_split_write_as_the_reference(tmp_path, recordings, profiles,
                                         seed, plan):
    """`write_dataset` on one CPU, then on two: one fork for the child's
    share on two (where this platform splits at all), none on one; each
    time every CSV is the reference writer's, and the manifests agree."""
    for n_cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            forks = _split_across(mp, n_cpus)
            write_dataset(tmp_path / f"on_{n_cpus}", recordings, profiles,
                          seed, plan)
        assert len(forks) == (1 if SPLITS and n_cpus == 2 else 0)
        _no_child_left()
        _assert_written_as_the_reference(tmp_path / f"on_{n_cpus}",
                                         recordings)
    assert (tmp_path / "on_1" / "manifest.json").read_bytes() \
        == (tmp_path / "on_2" / "manifest.json").read_bytes()


@pytest.mark.forked
def test_dataset_csv_matches_the_row_by_row_writer(tmp_path):
    # three subjects, so the shares on two CPUs are unequal (2 + 1)
    recordings, profiles = make_cohort(3, plan=[(1, 2), (4, 1)], seed=5)
    _assert_split_write_as_the_reference(tmp_path, recordings, profiles, 5,
                                         [(1, 2), (4, 1)])


@pytest.mark.forked
def test_dataset_csv_matches_the_row_by_row_writer_on_awkward_floats(
        tmp_path):
    # samples whose repr has an exponent or a sign, in recordings that end
    # inside a row block, on a block boundary and after one row
    awkward = [1e-05, -0.0, 1e+16, 5e-324, 123456789.125, -1e-05, -1e+16,
               -5e-324, 1.7976931348623157e+308, 0.1, -2.5, 0.0]
    rng = np.random.default_rng(0)
    recordings, profiles = [], []
    for n, rows in enumerate((2500, CSV_BLOCK_ROWS, 1)):
        signal = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(
            -20, 20, size=(rows, 6))
        signal.flat[::3] = np.resize(awkward, signal.flat[::3].size)
        labels = np.repeat(rng.integers(0, N_CLASSES, size=rows // 100 + 1),
                           100)[:rows]
        recordings.append(Recording(f"s{n:02d}", signal, labels))
        profiles.append(SubjectProfile(f"s{n:02d}", {}, {}))
    _assert_split_write_as_the_reference(tmp_path, recordings, profiles, 0,
                                         [])


@pytest.mark.forked
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_unwritable_csv_exits_3_naming_it_and_leaves_no_manifest(
        tmp_path, monkeypatch, capsys, n_cpus):
    """s01.csv falls in the child's share on two CPUs: its OSError crosses
    to the caller, which raises what the serial write raises."""
    out = tmp_path / "ds"
    (out / "s01.csv").mkdir(parents=True)
    forks = _split_across(monkeypatch, n_cpus)
    assert main(["generate", "--subjects", "3", "--seed", "5",
                 "--out", str(out)]) == 3
    assert len(forks) == (1 if SPLITS and n_cpus == 2 else 0)
    err = capsys.readouterr().err
    assert "s01.csv" in err and "Is a directory" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()
    _no_child_left()


def test_a_failed_write_removes_an_earlier_manifest(tmp_path, cohort):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2)])
    (tmp_path / "ds" / "s01.csv").unlink()
    (tmp_path / "ds" / "s01.csv").mkdir()
    with pytest.raises(IsADirectoryError, match="s01.csv"):
        write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2)])
    assert not (tmp_path / "ds" / "manifest.json").exists()


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


def _cell(row: str, col: int, value: str) -> str:
    cells = row.split(",")
    cells[col] = value
    return ",".join(cells)


@pytest.mark.parametrize("row, edit", [
    (3, lambda r: _cell(r, 7, "1.5")),  # a label that is not an integer
    (2, lambda r: _cell(r, 2, "x")),    # a sample that is not a number
    (4, lambda r: _cell(r, 0, "4.0")),  # an index that is not an integer
    (4, lambda r: _cell(r, 0, "9")),    # an index that is not the row number
    (5, lambda r: _cell(r, 7, "")),     # a missing cell
    (3, lambda r: "\n" + r),            # a blank line before the row
    (5, lambda r: r.rsplit(",", 1)[0]),  # a row one cell short
    (5, lambda r: r + ",0"),             # a row one cell long
], ids=["float_label", "text_sample", "float_index", "wrong_index",
        "empty_cell", "blank_line", "short_row", "long_row"])
def test_bad_csv_row_is_a_data_error_naming_file_and_row(tmp_path, cohort,
                                                          row, edit):
    recordings, profiles = cohort
    write_dataset(tmp_path / "ds", recordings, profiles, 5, [(1, 2)])
    csv_path = tmp_path / "ds" / "s00.csv"
    lines = csv_path.read_text().splitlines()
    lines[1 + row] = edit(lines[1 + row])
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=rf"^s00\.csv: bad row {row}$"):
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


@pytest.mark.parametrize("config", [TINY, {}], ids=["tiny", "full_scale"])
def test_streamed_digest_equals_the_one_shot_digest(tmp_path, config):
    model = Model(ModelConfig(**config), rng=np.random.default_rng(3))
    payload = _checkpoint_payload(model)
    assert _digest(payload) == digest_ref(payload)
    # a checkpoint whose checksum was hashed in one piece still loads
    doc = {"format_version": CHECKPOINT_FORMAT, "kind": "checkpoint",
           "sha256": digest_ref(payload), **payload}
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert np.array_equal(load_checkpoint(path).data, model.data)


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
