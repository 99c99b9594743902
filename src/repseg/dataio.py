"""File formats: per-subject CSV signal tables plus a JSON manifest for
datasets, checksummed JSON checkpoints, JSON config files, and versioned
JSON run reports.

MANIFEST_SCHEMA, CHECKPOINT_SCHEMA, CONFIG_SCHEMA and REPORT_SCHEMA are the
one statement of each field's JSON type, and `_check` is the one code that
checks a document against them. The readers check a document against its
schema, then what no schema can say (CSV rows, segment counts, checksum,
parameter sizes), and raise DataFormatError; `write_report` checks a report
before it opens the file. CONFIG_SCHEMA is derived from the ModelConfig and
TrainConfig field annotations, and their value ranges stay with the classes.
Nothing parses a manifest subject's `profile`.

Plain text everywhere: the files are diff-friendly, language-neutral, and
small at the scales this package targets. Floats are written with repr, which
round-trips IEEE-754 doubles exactly; checkpoint parameter blocks are base64
raw little-endian float64, so load(save(model)) is bit-identical.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import math
import os
import re
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .metrics import labels_to_segments
from .model import Model, ModelConfig
from .synth import CLASS_NAMES, N_CLASSES, Recording, SubjectProfile
from .train import TrainConfig

DATASET_FORMAT = 1
CHECKPOINT_FORMAT = 1
REPORT_FORMAT = 1

CSV_COLUMNS = ("t_index", "ax", "ay", "az", "gx", "gy", "gz", "label")


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
    seed: int
    plan: list[tuple[int, int]]
    recordings: list[Recording]

    def subject_ids(self) -> list[str]:
        return [r.subject_id for r in self.recordings]

    def by_subject(self, subject_id: str) -> Recording:
        for rec in self.recordings:
            if rec.subject_id == subject_id:
                return rec
        raise KeyError(f"no subject {subject_id!r} in dataset")


def _segment_counts(segments) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in segments:
        counts[str(s.class_id)] = counts.get(str(s.class_id), 0) + 1
    return counts


def write_dataset(out_dir, recordings: list[Recording],
                  profiles: list[SubjectProfile], seed: int,
                  plan: list[tuple[int, int]]) -> Path:
    """Write one CSV per subject plus manifest.json; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not recordings:
        raise ValueError("need at least one recording")
    if len(recordings) != len(profiles):
        raise ValueError("recordings and profiles differ in length")
    if len({r.sample_rate for r in recordings}) != 1:
        raise ValueError("recordings disagree on sample rate")
    subjects = []
    for rec, prof in zip(recordings, profiles):
        if rec.subject_id != prof.subject_id:
            raise ValueError("recording/profile subject ids disagree")
        name = f"{rec.subject_id}.csv"
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for i in range(rec.signal.shape[0]):
                writer.writerow(
                    [i] + [repr(float(v)) for v in rec.signal[i]]
                    + [int(rec.labels[i])])
        subjects.append({
            "subject_id": rec.subject_id,
            "file": name,
            "rows": int(rec.signal.shape[0]),
            "segment_counts": _segment_counts(rec.segments),
            "profile": prof.to_dict(),
        })
    manifest = {
        "format_version": DATASET_FORMAT,
        "kind": "dataset",
        "sample_rate": float(recordings[0].sample_rate),
        "seed": int(seed),
        "plan": [[int(c), int(n)] for c, n in plan],
        "class_names": {str(c): CLASS_NAMES[c] for c in range(N_CLASSES)},
        "subjects": subjects,
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read_subject_csv(path: Path, rows: int) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise DataFormatError(f"{path.name}: bad header {header}")
        # a row takes at least 16 bytes ("0,0,0,0,0,0,0,0\n"), so the file
        # bounds the arrays whatever `rows` the manifest claims
        capacity = min(rows, os.fstat(fh.fileno()).st_size // 16)
        signal = np.empty((capacity, 6))
        labels = np.empty(capacity, dtype=np.int64)
        n = 0
        for row in reader:
            if n >= capacity:
                raise DataFormatError(f"{path.name}: more rows than manifest "
                                      f"declares ({rows})")
            if len(row) != len(CSV_COLUMNS) or int(row[0]) != n:
                raise DataFormatError(f"{path.name}: bad row {n}")
            signal[n] = [float(v) for v in row[1:7]]
            labels[n] = int(row[7])
            n += 1
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
    KeyError."""
    dataset_dir = Path(dataset_dir)
    manifest_path = dataset_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataFormatError(f"no manifest.json under {dataset_dir}")
    manifest = _read_json(manifest_path, MANIFEST_SCHEMA)
    entries = manifest["subjects"]
    if subjects is not None:
        missing = set(subjects) - {e["subject_id"] for e in entries}
        if missing:
            raise KeyError(f"no subjects {sorted(missing)} in dataset")
        entries = [e for e in entries if e["subject_id"] in subjects]
    sample_rate = float(manifest["sample_rate"])
    recordings = []
    for entry in entries:
        signal, labels = _read_subject_csv(dataset_dir / entry["file"],
                                           entry["rows"])
        segments = labels_to_segments(labels)
        if _segment_counts(segments) != entry["segment_counts"]:
            raise DataFormatError(
                f"{entry['file']}: segment counts disagree with manifest")
        recordings.append(Recording(
            subject_id=entry["subject_id"], signal=signal, labels=labels,
            segments=segments, sample_rate=sample_rate))
    return Dataset(
        sample_rate=sample_rate,
        seed=manifest["seed"],
        plan=[(c, n) for c, n in manifest["plan"]],
        recordings=recordings,
    )


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
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    doc = _read_json(path, CHECKPOINT_SCHEMA)
    if _digest({k: doc[k] for k in ("model_config", "params")}) \
            != doc["sha256"]:
        raise ChecksumError(f"{path}: payload does not match its checksum")
    config = ModelConfig(**doc["model_config"])
    params = {}
    for name, block in doc["params"].items():
        raw = base64.b64decode(block["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if arr.size != math.prod(block["shape"]):
            raise DataFormatError(f"{path}: parameter {name} has {arr.size} "
                                  f"values for shape {block['shape']}")
        params[name] = arr.reshape(block["shape"])
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


def read_report(path) -> dict:
    return _read_json(path, REPORT_SCHEMA)


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
    "required": ["format_version", "kind", "command", "seed",
                 "wall_clock_s"],
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
