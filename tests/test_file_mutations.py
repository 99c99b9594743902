"""Deterministic mutation test of every JSON document the program reads or
writes, against the schema walker `dataio._check`.

Every field of a valid manifest, checkpoint and config, nested fields and
list items included, is set in turn to each of seven values of the wrong
shape, and removed. The reader must then either return or raise what
`cli.main` reports as a data error (exit 3), never anything else; and a
document that jsonschema finds invalid against the shipped schema must fail
with a DataFormatError. Each manifest and checkpoint mutant also goes through
`main`, which exits 0 with a report or 3 without one. Train, evaluate and
velocity reports are mutated in their first array items only, and
`write_report` must agree with jsonschema on each.
"""

import copy
import functools
import json
import operator

import jsonschema
import numpy as np
import pytest

from repseg.cli import DATA_ERRORS, main
from repseg.dataio import (CHECKPOINT_SCHEMA, CONFIG_SCHEMA, MANIFEST_SCHEMA,
                           REPORT_SCHEMA, DataFormatError, _check, _digest,
                           load_checkpoint, read_config, read_dataset,
                           save_checkpoint, write_dataset, write_report)
from repseg.model import Model, ModelConfig
from repseg.synth import make_cohort
from repseg.train import TrainConfig
from test_cli import CONFIG

WRONG_VALUES = (None, True, -1, 1.5, "x", [], {})
REMOVED = object()


def field_paths(doc, prefix=(), first_items=False):
    """Every key path inside a parsed JSON document, parents first; with
    `first_items`, paths into the first item of each array only."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:1] if first_items else doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,), first_items)


def mutants(doc, first_items=False):
    """(path, value, mutated copy) for each path and each wrong value."""
    for path in field_paths(doc, first_items=first_items):
        for value in (*WRONG_VALUES, REMOVED):
            bad = copy.deepcopy(doc)
            *parents, last = path
            parent = functools.reduce(operator.getitem, parents, bad)
            if value is REMOVED:
                del parent[last]
            else:
                parent[last] = value
            yield path, value, bad


def _check_outcomes(cases, schema, read):
    """Run `read` on each case; return how many were read and rejected."""
    validator = jsonschema.Draft7Validator(schema)
    counts = {"read": 0, "rejected": 0}
    for path, value, doc in cases:
        schema_ok = validator.is_valid(doc)
        try:
            _check(doc, schema, "doc")
            walker_ok = True
        except DataFormatError:
            walker_ok = False
        # the walker and jsonschema agree on every mutant
        assert walker_ok == schema_ok, (path, value)
        try:
            read(doc)
        except DATA_ERRORS as exc:
            assert schema_ok or isinstance(exc, DataFormatError), (path,
                                                                   value)
            counts["rejected"] += 1
        else:
            assert schema_ok, (path, value)
            counts["read"] += 1
    return counts


def _through_main(read, argv, report):
    """`read` a mutant, then run `main(argv)` on the same file: it exits 0
    with a report or 3 without one, and 3 whenever `read` raised."""
    def run():
        report.unlink(missing_ok=True)
        code = main([*argv, "--report", str(report)])
        assert code in (0, 3) and report.exists() == (code == 0), code
        return code

    def read_and_run(doc):
        try:
            read(doc)
        except DATA_ERRORS:
            assert run() == 3
            raise
        run()
    return read_and_run


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations") / "data"
    recordings, profiles = make_cohort(1, plan=[(1, 1)], seed=0)
    write_dataset(root, recordings, profiles, seed=0, plan=[(1, 1)])
    return root


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    model = Model(ModelConfig(**CONFIG["model"]),
                  rng=np.random.default_rng(0))
    path = tmp_path_factory.mktemp("mutations") / "ckpt.json"
    return json.loads(save_checkpoint(path, model).read_text())


def test_every_manifest_mutant_reads_or_is_a_data_error(dataset_dir,
                                                        tmp_path):
    manifest_path = dataset_dir / "manifest.json"
    original = manifest_path.read_text()
    manifest = json.loads(original)

    def read(doc):
        manifest_path.write_text(json.dumps(doc))
        read_dataset(dataset_dir)

    evaluate = ["evaluate", "--data", str(dataset_dir), "--oracle"]
    try:
        counts = _check_outcomes(
            mutants(manifest), MANIFEST_SCHEMA,
            _through_main(read, evaluate, tmp_path / "report.json"))
    finally:
        manifest_path.write_text(original)
    # the profile is never parsed, so its mutants read
    assert counts["read"] > 0 and counts["rejected"] > 0, counts


def test_every_checkpoint_mutant_loads_or_is_a_data_error(tmp_path,
                                                          dataset_dir,
                                                          checkpoint_doc):
    path = tmp_path / "ckpt.json"

    def read(doc):
        path.write_text(json.dumps(doc))
        load_checkpoint(path)

    def resealed():
        for path, value, doc in mutants(checkpoint_doc):
            if path[0] in ("model_config", "params"):
                doc["sha256"] = _digest({"model_config": doc.get(
                    "model_config"), "params": doc.get("params")})
            yield path, value, doc

    evaluate = ["evaluate", "--data", str(dataset_dir), "--checkpoints",
                str(path)]
    counts = _check_outcomes(
        resealed(), CHECKPOINT_SCHEMA,
        _through_main(read, evaluate, tmp_path / "report.json"))
    # removing an optional model_config field leaves a loadable default
    assert counts["read"] > 0 and counts["rejected"] > 0, counts


def test_every_config_mutant_loads_or_is_a_data_error(tmp_path):
    path = tmp_path / "config.json"

    def read(doc):
        path.write_text(json.dumps(doc))
        model, train = read_config(path)
        ModelConfig(**model), TrainConfig(**train)

    counts = _check_outcomes(mutants(CONFIG), CONFIG_SCHEMA, read)
    # a removed field leaves its default
    assert counts["read"] > 0 and counts["rejected"] > 0, counts


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """A LOSOCV train report, an evaluate and a velocity report, parsed."""
    root = tmp_path_factory.mktemp("reports")
    data, run = str(root / "data"), root / "run"
    config = root / "config.json"
    config.write_text(json.dumps(
        {**CONFIG, "train": {**CONFIG["train"], "epochs": 1}}))
    for argv in (["generate", "--subjects", "2", "--plan", "1:1,4:1",
                  "--out", data],
                 ["train", "--data", data, "--config", str(config),
                  "--losocv", "--out", str(run)],
                 ["evaluate", "--data", data, "--checkpoints",
                  str(run / "fold_s00.json"), "--report",
                  str(root / "evaluate.json")],
                 ["velocity", "--data", data, "--subject", "s00",
                  "--use-true-labels", "--report",
                  str(root / "velocity.json")]):
        assert main(argv) == 0, argv
    return {"train": json.loads((run / "train_report.json").read_text()),
            **{name: json.loads((root / f"{name}.json").read_text())
               for name in ("evaluate", "velocity")}}


@pytest.mark.parametrize("command", ["train", "evaluate", "velocity"])
def test_every_report_mutant_is_written_or_is_a_data_error(reports, tmp_path,
                                                           command):
    path = tmp_path / "report.json"
    counts = _check_outcomes(mutants(reports[command], first_items=True),
                             REPORT_SCHEMA,
                             functools.partial(write_report, path))
    assert counts["read"] > 0 and counts["rejected"] > 0, counts


def _copy_dataset(src, dst):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_mutants_through_main_exit_3_without_a_report(dataset_dir, tmp_path,
                                                      checkpoint_doc, capsys):
    data = _copy_dataset(dataset_dir, tmp_path / "rows")
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["subjects"][0]["rows"] = -1
    (data / "manifest.json").write_text(json.dumps(manifest))
    report = tmp_path / "rows.json"
    assert main(["evaluate", "--data", str(data), "--oracle",
                 "--report", str(report)]) == 3
    assert "subjects[0].rows must be >= 0" in capsys.readouterr().err
    assert not report.exists()

    doc = copy.deepcopy(checkpoint_doc)
    doc["params"]["embed.w"]["shape"][0] = -1
    doc["sha256"] = _digest({"model_config": doc["model_config"],
                             "params": doc["params"]})
    ckpt = tmp_path / "shape.json"
    ckpt.write_text(json.dumps(doc))
    report = tmp_path / "shape_report.json"
    assert main(["evaluate", "--data", str(dataset_dir), "--checkpoints",
                 str(ckpt), "--report", str(report)]) == 3
    assert "params.embed.w.shape[0] must be >= 0" in capsys.readouterr().err
    assert not report.exists()


def test_profile_field_of_any_value_is_not_read(dataset_dir, tmp_path):
    data = _copy_dataset(dataset_dir, tmp_path / "profile")
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["subjects"][0]["profile"]["amp_scale"] = 5
    (data / "manifest.json").write_text(json.dumps(manifest))
    report = tmp_path / "report.json"
    assert main(["evaluate", "--data", str(data), "--oracle",
                 "--report", str(report)]) == 0
    assert report.exists()
