"""File formats: per-subject CSV signal tables plus a JSON manifest for
datasets, checksummed JSON checkpoints, JSON config files, and versioned
JSON run reports.

MANIFEST_SCHEMA, CHECKPOINT_SCHEMA, CONFIG_SCHEMA and REPORT_SCHEMA are the
one statement of each field's JSON type, and `_check` is the one code that
checks a document against them. The readers check a document against its
schema, then what no schema can say (CSV rows, segment counts, checksum,
parameter names, shapes and finite values), and raise DataFormatError;
`write_report` checks a report before it opens the file. CONFIG_SCHEMA is
derived from the ModelConfig and TrainConfig field annotations, and their
value ranges stay with the classes. Nothing parses a manifest subject's
`profile`.

Plain text everywhere: the files are diff-friendly, language-neutral, and
small at the scales this package targets. Floats are written with repr, which
round-trips IEEE-754 doubles exactly; checkpoint parameter blocks are base64
raw little-endian float64, so load(save(model)) is bit-identical.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import re
import typing
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import forked
from .model import Model, ModelConfig, param_shapes
from .synth import CLASS_NAMES, N_CLASSES, Recording, SubjectProfile
from .train import TrainConfig

DATASET_FORMAT = 1
CHECKPOINT_FORMAT = 1
REPORT_FORMAT = 1

CSV_COLUMNS = ("t_index", "ax", "ay", "az", "gx", "gy", "gz", "label")
# rows `write_dataset` formats at a time: a whole subject's Python floats
# at once would raise the process's peak memory
CSV_BLOCK_ROWS = 1024


class DataFormatError(ValueError):
    """A file failed structural validation."""


class ChecksumError(DataFormatError):
    """A checkpoint payload does not match its recorded checksum."""


_JSON_TYPE = {dict: "object", list: "array", str: "string", bool: "boolean",
              int: "integer", float: "number", type(None): "null"}


def _check(value, schema: dict, where: str, path: str = "") -> None:
    """DataFormatError unless the parsed JSON `value` matches `schema`.

    Reads the keywords this module's schemas use: type, const, enum,
    required, properties, additionalProperties, items, minItems, maxItems,
    minimum, exclusiveMinimum and pattern, and the schema `false`, which no
    value matches (an `additionalProperties: false` key is unknown).
    Stricter than JSON Schema in two ways: an integer is never a float such
    as 2.0, and true and false are never numbers. A NaN, which Python's json
    module reads, fails every bound. `where` names the file, `path` the
    field.
    """
    if schema is False:
        raise DataFormatError(f"{where}: {path} is not a known field")
    kind = _JSON_TYPE[type(value)]

    def fail(what: str, got=kind):
        raise DataFormatError(f"{where}{': ' if path else ''}{path} must be "
                              f"{what}, got {got}")

    allowed = [schema["const"]] if "const" in schema else schema.get("enum")
    if allowed is not None and (kind, value) not in [
            (_JSON_TYPE[type(a)], a) for a in allowed]:
        fail(" or ".join(map(json.dumps, allowed)), json.dumps(value))
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and kind not in types \
            and not (kind == "integer" and "number" in types):
        fail(" or ".join(f"a JSON {t}" for t in types))
    if kind in ("integer", "number"):
        if "minimum" in schema and not value >= schema["minimum"]:
            fail(f">= {schema['minimum']}", value)
        if "exclusiveMinimum" in schema \
                and not value > schema["exclusiveMinimum"]:
            fail(f"> {schema['exclusiveMinimum']}", value)
    elif kind == "string":
        if "pattern" in schema and not re.search(schema["pattern"], value):
            fail(f"a string matching {schema['pattern']}", json.dumps(value))
    elif kind == "array":
        if len(value) < schema.get("minItems", 0):
            fail(f"a JSON array of at least {schema['minItems']} items",
                 f"{len(value)} items")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"a JSON array of at most {schema['maxItems']} items",
                 f"{len(value)} items")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), where, f"{path}[{i}]")
    elif kind == "object":
        for key in schema.get("required", []):
            if key not in value:
                raise DataFormatError(f"{where}: {path}{'.' if path else ''}"
                                      f"{key} is missing")
        for key, item in value.items():
            _check(item, schema.get("properties", {}).get(
                key, schema.get("additionalProperties", {})), where,
                f"{path}.{key}" if path else key)


def _read_json(path, schema: dict):
    """The JSON document in the file at `path`, checked against `schema`;
    a file that is not JSON is a DataFormatError naming it."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{path} is not JSON: {exc}") from exc
    _check(doc, schema, str(path))
    return doc


# ---------------------------------------------------------------- datasets

@dataclass
class Dataset:
    """A manifest-backed cohort: one recording per subject."""

    sample_rate: float
    recordings: list[Recording]

    def subject_ids(self) -> list[str]:
        return [r.subject_id for r in self.recordings]


def _segment_counts(segments) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in segments:
        counts[str(s.class_id)] = counts.get(str(s.class_id), 0) + 1
    return counts


def _write_subject_csv(path: Path, rec: Recording) -> None:
    """One subject's CSV: the header, then the rows as the csv module's
    default dialect writes them ("\r\n" at the end, and no quotes around a
    float's repr or an int), formatted `CSV_BLOCK_ROWS` at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for lo in range(0, rec.signal.shape[0], CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            fh.writelines(
                f"{i},{','.join(map(repr, row))},{label}\r\n"
                for i, row, label in zip(range(lo, hi),
                                         rec.signal[lo:hi].tolist(),
                                         rec.labels[lo:hi].tolist()))


def write_dataset(out_dir, recordings: list[Recording],
                  profiles: list[SubjectProfile], seed: int,
                  plan: list[tuple[int, int]]) -> Path:
    """Write one CSV per subject plus manifest.json; returns the manifest.

    The subjects' CSVs are shared round-robin over forked processes
    (`forked.map_items`). A file that cannot be written raises the OSError
    its `open` or write raised, before manifest.json is written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not recordings:
        raise ValueError("need at least one recording")
    if len(recordings) != len(profiles):
        raise ValueError("recordings and profiles differ in length")
    if len({r.sample_rate for r in recordings}) != 1:
        raise ValueError("recordings disagree on sample rate")
    if any(r.subject_id != p.subject_id for r, p in zip(recordings, profiles)):
        raise ValueError("recording/profile subject ids disagree")
    path = out_dir / "manifest.json"
    path.unlink(missing_ok=True)  # a manifest from an earlier write
    csvs = [out_dir / f"{rec.subject_id}.csv" for rec in recordings]
    forked.map_items(lambda pair: _write_subject_csv(*pair),
                     list(zip(csvs, recordings)))
    manifest = {
        "format_version": DATASET_FORMAT,
        "kind": "dataset",
        "sample_rate": float(recordings[0].sample_rate),
        "seed": int(seed),
        "plan": [[int(c), int(n)] for c, n in plan],
        "class_names": {str(c): CLASS_NAMES[c] for c in range(N_CLASSES)},
        "subjects": [{
            "subject_id": rec.subject_id,
            "file": csv.name,
            "rows": int(rec.signal.shape[0]),
            "segment_counts": _segment_counts(rec.segments),
            "profile": prof.to_dict(),
        } for rec, prof, csv in zip(recordings, profiles, csvs)],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# one CSV row as `np.loadtxt` parses it: the index and the label must be
# integer literals, the six samples float literals
_CSV_ROW = np.dtype([("t_index", np.int64), ("samples", np.float64, (6,)),
                     ("label", np.int64)])


def _parse_rows(lines: list[str], max_rows: int) -> np.ndarray:
    """The rows of `lines` as `_CSV_ROW` records, read by numpy's C parser;
    ValueError at the first line that is blank or not one row."""
    if "" in lines:  # np.loadtxt would skip a blank line
        raise ValueError("blank line")
    with warnings.catch_warnings():
        # no data rows is a count for the caller to check, not a warning
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=_CSV_ROW, delimiter=",",
                          comments=None, ndmin=1, max_rows=max_rows)


def _first_bad_line(lines: list[str]) -> int:
    """The index of the first line that `_parse_rows` refuses alone, in
    lines it refused together."""
    for n, line in enumerate(lines):
        try:
            _parse_rows([line], 1)
        except ValueError:
            return n
    raise AssertionError("every line parses alone")


def _read_subject_csv(path: Path, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Signal (rows, 6) and labels (rows,) of one subject's CSV, parsed in
    one call and then checked as a whole; each error names the file and,
    where there is one, the first bad row."""
    with open(path) as fh:
        # a row takes at least 16 bytes ("0,0,0,0,0,0,0,0\n"), so the file
        # bounds the rows read whatever `rows` the manifest claims
        capacity = min(rows, os.fstat(fh.fileno()).st_size // 16)
        lines = fh.read().splitlines()
    header = lines.pop(0).split(",") if lines else None
    if header != list(CSV_COLUMNS):
        raise DataFormatError(f"{path.name}: bad header {header}")
    try:
        table = _parse_rows(lines, capacity + 1)
    except ValueError:
        raise DataFormatError(
            f"{path.name}: bad row {_first_bad_line(lines)}") from None
    n = table.size
    if n > capacity:
        raise DataFormatError(f"{path.name}: more rows than manifest "
                              f"declares ({rows})")
    misnumbered = np.flatnonzero(table["t_index"] != np.arange(n))
    if misnumbered.size:
        raise DataFormatError(f"{path.name}: bad row {misnumbered[0]}")
    signal = np.ascontiguousarray(table["samples"])
    labels = np.ascontiguousarray(table["label"])
    if n != rows:
        raise DataFormatError(f"{path.name}: {n} rows, manifest says {rows}")
    bad = ~np.isfinite(signal).all(axis=1)
    if bad.any():
        raise DataFormatError(f"{path.name}: non-finite sample in row "
                              f"{int(np.argmax(bad))}")
    if labels.size and (labels.min() < 0 or labels.max() >= N_CLASSES):
        raise DataFormatError(f"{path.name}: label outside [0, {N_CLASSES})")
    return signal, labels


def read_dataset(dataset_dir, subjects=None) -> Dataset:
    """Read a dataset directory; `subjects` (ids) limits parsing to those
    subjects, kept in manifest order. An id the manifest lacks is a
    ValueError."""
    dataset_dir = Path(dataset_dir)
    manifest_path = dataset_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataFormatError(f"no manifest.json under {dataset_dir}")
    manifest = _read_json(manifest_path, MANIFEST_SCHEMA)
    entries = manifest["subjects"]
    if subjects is not None:
        missing = set(subjects) - {e["subject_id"] for e in entries}
        if missing:
            raise ValueError(f"no subjects {sorted(missing)} in dataset")
        entries = [e for e in entries if e["subject_id"] in subjects]
    sample_rate = float(manifest["sample_rate"])
    recordings = []
    for entry in entries:
        signal, labels = _read_subject_csv(dataset_dir / entry["file"],
                                           entry["rows"])
        rec = Recording(subject_id=entry["subject_id"], signal=signal,
                        labels=labels, sample_rate=sample_rate)
        if _segment_counts(rec.segments) != entry["segment_counts"]:
            raise DataFormatError(
                f"{entry['file']}: segment counts disagree with manifest")
        recordings.append(rec)
    return Dataset(sample_rate=sample_rate, recordings=recordings)


# -------------------------------------------------------------- checkpoints

def _checkpoint_payload(model: Model) -> dict:
    return {
        "model_config": model.config.to_dict(),
        "params": {
            name: {
                "shape": list(p.shape),
                "data": base64.b64encode(
                    p.data.astype("<f8").tobytes(order="C")).decode("ascii"),
            }
            for name, p in model.params.items()
        },
    }


def _digest(payload: dict) -> str:
    """SHA-256 of the payload's canonical JSON (sorted keys, no spaces),
    fed to the hash chunk by chunk so the whole text never exists at once
    (7.9 MB for the full-scale model)."""
    digest = hashlib.sha256()
    for chunk in json.JSONEncoder(
            sort_keys=True, separators=(",", ":")).iterencode(payload):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def save_checkpoint(path, model: Model) -> Path:
    bad = [name for name, p in model.params.items()
           if not np.isfinite(p.data).all()]
    if bad:
        raise ValueError(f"refusing to save non-finite parameters {bad}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _checkpoint_payload(model)
    doc = {
        "format_version": CHECKPOINT_FORMAT,
        "kind": "checkpoint",
        "sha256": _digest(payload),
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_checkpoint(path) -> Model:
    """The model in the checkpoint file at `path`. DataFormatError naming
    the file, and the parameter where there is one, unless the blocks are
    exactly the config's parameters, each base64 of finite float64 values
    in the config's shape."""
    doc = _read_json(path, CHECKPOINT_SCHEMA)
    if _digest({k: doc[k] for k in ("model_config", "params")}) \
            != doc["sha256"]:
        raise ChecksumError(f"{path}: payload does not match its checksum")
    config = ModelConfig(**doc["model_config"])
    shapes = param_shapes(config)
    blocks = doc["params"]
    unknown = sorted(blocks.keys() - shapes.keys())
    if unknown:
        raise DataFormatError(f"{path}: parameter {unknown[0]} is not in the "
                              f"model config's layout")
    params = {}
    for name, shape in shapes.items():
        where = f"{path}: parameter {name}"
        if name not in blocks:
            raise DataFormatError(f"{where} is missing")
        block = blocks[name]
        try:
            arr = np.frombuffer(base64.b64decode(block["data"], validate=True),
                                dtype="<f8")
        except ValueError as exc:  # binascii.Error is a ValueError
            raise DataFormatError(f"{where} is not base64 of float64 "
                                  f"values: {exc}") from None
        if arr.size != math.prod(block["shape"]):
            raise DataFormatError(f"{where} has {arr.size} values for shape "
                                  f"{block['shape']}")
        if tuple(block["shape"]) != shape:
            raise DataFormatError(f"{where} has shape {block['shape']}, the "
                                  f"model config gives {list(shape)}")
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{where} holds a non-finite value")
        params[name] = arr.reshape(shape)
    return Model(config, params=params)


# ------------------------------------------------------------------ configs

def read_config(path) -> tuple[dict, dict]:
    """The "model" and "train" sections of a config file, each {} when
    absent, checked against CONFIG_SCHEMA."""
    doc = _read_json(path, CONFIG_SCHEMA)
    return doc.get("model", {}), doc.get("train", {})


# ------------------------------------------------------------------ reports

def write_report(path, report: dict) -> Path:
    """Check and write a report; a NaN or infinity raises ValueError, and a
    report that breaks REPORT_SCHEMA DataFormatError, before the file is
    opened."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    check_report_structure(json.loads(text))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def check_report_structure(report: dict, where: str = "report") -> None:
    """DataFormatError unless the parsed `report` matches REPORT_SCHEMA."""
    _check(report, REPORT_SCHEMA, where)


# JSON-Schema documents for the file kinds. Every document the program reads
# or writes is checked against its schema with `_check`; the test suite
# checks `_check` against jsonschema on mutated documents.

_F1_REPORT_SCHEMA = {
    "type": "object",
    "required": ["per_class", "macro_f1"],
    "properties": {
        "per_class": {
            "type": "object",
            "additionalProperties": {
                "type": ["object", "null"],
                "required": ["tp", "fp", "fn", "precision", "recall", "f1"],
                "properties": {
                    "tp": {"type": "number"},
                    "fp": {"type": "number"},
                    "fn": {"type": "number"},
                    "precision": {"type": "number"},
                    "recall": {"type": "number"},
                    "f1": {"type": "number"},
                },
            },
        },
        "macro_f1": {"type": ["number", "null"]},
    },
}

_LOA_SCHEMA = {
    "type": "object",
    "required": ["ddof", "per_class"],
    "properties": {
        "ddof": {"type": "integer"},
        "per_class": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["mean_diff", "std_diff", "lower", "upper",
                             "pairs"],
                "properties": {
                    "mean_diff": {"type": "number"},
                    "std_diff": {"type": "number"},
                    "lower": {"type": "number"},
                    "upper": {"type": "number"},
                    "pairs": {"type": "array",
                              "items": {"type": "array",
                                        "items": {"type": "number"}}},
                },
            },
        },
    },
}

_KINEMATICS_ROW_SCHEMA = {
    "type": "object",
    "required": ["class_id", "start", "end", "duration_s", "peak_speed"],
    "properties": {
        "class_id": {"type": "integer"},
        "start": {"type": "integer"},
        "end": {"type": "integer"},
        "duration_s": {"type": "number"},
        "peak_speed": {"type": "number"},
    },
}

_CURVES_SCHEMA = {
    "type": "object",
    "required": ["epoch", "loss", "ce", "mse"],
    "properties": {
        "epoch": {"type": "array", "items": {"type": "integer"}},
        "loss": {"type": "array", "items": {"type": "number"}},
        "ce": {"type": "array", "items": {"type": "number"}},
        "mse": {"type": "array", "items": {"type": "number"}},
    },
}

_FOLD_SCHEMA = {
    "type": "object",
    "required": ["test_subject", "train_subjects"],
    "properties": {
        "test_subject": {"type": "string"},
        "train_subjects": {"type": "array", "items": {"type": "string"}},
        "checkpoint": {"type": "string"},
        "loss_curves": _CURVES_SCHEMA,
        "sample_f1": _F1_REPORT_SCHEMA,
        "segmental": _F1_REPORT_SCHEMA,
        "confusion": {"type": "array",
                      "items": {"type": "array", "items": {"type": "number"}}},
        "sample_accuracy": {"type": "number"},
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["format_version", "kind", "command", "wall_clock_s"],
    "properties": {
        "format_version": {"const": REPORT_FORMAT},
        "kind": {"const": "run_report"},
        "command": {"enum": ["train", "evaluate", "velocity", "sweep"]},
        "seed": {"type": "integer"},
        "wall_clock_s": {"type": "number"},
        "model_config": {"type": "object"},
        "train_config": {"type": "object"},
        "dataset": {"type": "string"},
        "iou_threshold": {"type": "number"},
        "folds": {"type": "array", "items": _FOLD_SCHEMA},
        "checkpoints": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["checkpoint", "sample_f1", "segmental"],
                "properties": {
                    "checkpoint": {"type": "string"},
                    "sample_accuracy": {"type": "number"},
                    "sample_f1": _F1_REPORT_SCHEMA,
                    "segmental": _F1_REPORT_SCHEMA,
                    "confusion": {
                        "type": "array",
                        "items": {"type": "array",
                                  "items": {"type": "number"}}},
                    "loa": _LOA_SCHEMA,
                },
            },
        },
        "aggregate": {
            "type": "object",
            "properties": {
                "mean_macro_sample_f1": {"type": ["number", "null"]},
                "mean_macro_segmental_f1": {"type": ["number", "null"]},
            },
        },
        "loa": _LOA_SCHEMA,
        "sweep": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["mask_ratio", "seeds", "mean_macro_sample_f1"],
                "properties": {
                    "mask_ratio": {"type": "number"},
                    "seeds": {"type": "array", "items": {"type": "integer"}},
                    "mean_macro_sample_f1": {"type": ["number", "null"]},
                    "per_seed": {
                        "type": "array",
                        "items": {"type": ["number", "null"]},
                    },
                },
            },
        },
        "velocity": {
            "type": "object",
            "required": ["g_prime", "still_window", "repetitions"],
            "properties": {
                "g_prime": {"type": "number"},
                "still_window": {"type": "array",
                                 "items": {"type": "integer"}},
                "repetitions": {"type": "array",
                                "items": _KINEMATICS_ROW_SCHEMA},
                "velocity": {"type": "array", "items": {"type": "number"}},
            },
        },
        "subject": {"type": "string"},
        "notes": {"type": "string"},
    },
}

MANIFEST_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["format_version", "kind", "sample_rate", "seed", "plan",
                 "class_names", "subjects"],
    "properties": {
        "format_version": {"const": DATASET_FORMAT},
        "kind": {"const": "dataset"},
        "sample_rate": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
        "plan": {"type": "array",
                 "items": {"type": "array", "items": {"type": "integer"},
                           "minItems": 2, "maxItems": 2}},
        "class_names": {"type": "object",
                        "additionalProperties": {"type": "string"}},
        "subjects": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["subject_id", "file", "rows", "segment_counts",
                             "profile"],
                "properties": {
                    "subject_id": {"type": "string"},
                    "file": {"type": "string"},
                    "rows": {"type": "integer", "minimum": 0},
                    "segment_counts": {
                        "type": "object",
                        "additionalProperties": {"type": "integer"}},
                    "profile": {"type": "object"},
                },
            },
        },
    },
}


def _config_schema(cls) -> dict:
    """The schema of a config dataclass, from its field annotations: an
    `int` field takes a JSON integer, a `float` field a number, `X | None`
    also null, and no other key is allowed."""
    hints = typing.get_type_hints(cls)
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            f.name: {"type": [_JSON_TYPE[t] for t in
                              typing.get_args(hints[f.name])
                              or (hints[f.name],)]}
            for f in fields(cls)},
    }


CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "properties": {"model": _config_schema(ModelConfig),
                   "train": _config_schema(TrainConfig)},
}


CHECKPOINT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["format_version", "kind", "sha256", "model_config",
                 "params"],
    "properties": {
        "format_version": {"const": CHECKPOINT_FORMAT},
        "kind": {"const": "checkpoint"},
        "sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "model_config": CONFIG_SCHEMA["properties"]["model"],
        "params": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["shape", "data"],
                "properties": {
                    "shape": {"type": "array",
                              "items": {"type": "integer", "minimum": 0}},
                    "data": {"type": "string"},
                },
            },
        },
    },
}
