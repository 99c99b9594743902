"""Benchmark plumbing: windowing per subject, fold leakage guard, a tiny
end-to-end leave-one-subject-out run, and the sweep table layout."""

import os
import time

import numpy as np
import pytest

from repseg import forked
from repseg.dataio import write_dataset, read_dataset
from repseg.experiments import (
    default_sweep_seeds,
    losocv_benchmark,
    mask_ratio_sweep,
    run_fold,
    score,
    windows_by_subject,
)
from repseg.metrics import labels_to_segments
from repseg.model import ModelConfig
from repseg.synth import make_cohort
from repseg.train import Fold, TrainConfig

MC = ModelConfig(d_model=8, n_heads=2, n_layers=1, dropout=0.0,
                 window_len=80, ffn_dim=16, tcn_layers=3, tcn_channels=4)
TC = TrainConfig(batch_size=8, epochs=2, seed=0, mask_ratio=0.5,
                 patch_len=10, learning_rate=3e-3)


@pytest.fixture(scope="module")
def tiny_windows(tmp_path_factory):
    recordings, profiles = make_cohort(3, plan=[(1, 2), (4, 1)], seed=9)
    root = tmp_path_factory.mktemp("ds")
    write_dataset(root, recordings, profiles, seed=9, plan=[(1, 2), (4, 1)])
    return windows_by_subject(read_dataset(root), window_len=80)


def test_windows_by_subject_shapes(tiny_windows):
    assert sorted(tiny_windows) == ["s00", "s01", "s02"]
    for samples, labels in tiny_windows.values():
        assert samples.ndim == 3 and samples.shape[1:] == (80, 6)
        assert labels.shape == samples.shape[:2]


def test_run_fold_outcome_structure(tiny_windows):
    fold = Fold("s00", ("s01", "s02"))
    out = run_fold(tiny_windows, fold, MC, TC)
    assert out.fold == fold
    assert 0.0 <= out.scores["sample_accuracy"] <= 1.0
    assert set(out.sample_report) == {"per_class", "macro_f1"}
    assert len(out.scores["confusion"]) == 6
    assert out.curves["epoch"] == [1, 2]
    assert out.params is not None and "embed.w" in out.params
    # the held-out subject has labeled segments
    assert labels_to_segments(out.labels[0])


def test_run_fold_rejects_leaky_fold(tiny_windows):
    with pytest.raises(ValueError):
        run_fold(tiny_windows, Fold("s00", ("s00", "s01")), MC, TC)
    with pytest.raises(ValueError):
        run_fold(tiny_windows, Fold("s99", ("s01",)), MC, TC)


def test_losocv_benchmark_and_determinism(tiny_windows):
    a = losocv_benchmark(tiny_windows, MC, TC)
    b = losocv_benchmark(tiny_windows, MC, TC)
    assert [o.fold.test_subject for o in a.outcomes] == ["s00", "s01", "s02"]
    assert a.mean_macro_sample_f1 == b.mean_macro_sample_f1
    assert [o.scores["sample_accuracy"] for o in a.outcomes] \
        == [o.scores["sample_accuracy"] for o in b.outcomes]
    assert set(a.aggregate_section()) == {"mean_macro_sample_f1",
                                          "mean_macro_segmental_f1"}
    folds = a.fold_sections()
    assert len(folds) == 3
    assert folds[0]["train_subjects"] == ["s01", "s02"]
    assert a.loa["per_class"]  # chair classes present in every subject


def test_score_builds_segments_per_subject():
    # the first subject ends inside a class-1 repetition and the second
    # starts with one: two repetitions, not one across the boundary
    first = np.array([0, 0, 1, 1, 1])
    second = np.array([1, 1, 0, 0, 0])
    section = score([(first, first), (second, second)], n_classes=3)
    assert section["segmental"]["per_class"]["1"]["tp"] == 2
    assert section["segmental"]["macro_f1"] == 1.0
    assert section["loa"]["per_class"]["1"]["pairs"] == [[1, 1], [1, 1]]
    assert section["sample_accuracy"] == 1.0
    assert section["sample_f1"]["per_class"]["1"]["tp"] == 5
    assert "loa" not in score([(first, first)], n_classes=3)


def test_default_sweep_seeds():
    assert default_sweep_seeds(0.0) == [0, 1, 2]
    assert default_sweep_seeds(0.8) == [0, 1, 2]
    assert default_sweep_seeds(0.4) == [0]


@pytest.mark.forked
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity is a Linux call")
def test_mask_ratio_sweep_values_do_not_depend_on_the_cpu_count(
        tiny_windows, monkeypatch):
    """The pool has a worker per CPU of the affinity set; the values are
    the same with the real set as with one CPU of it."""
    def sweep():
        return [r.per_seed for r in mask_ratio_sweep(
            tiny_windows, MC, TC, ratios=(0.0, 0.5),
            seeds_for=lambda r: [0, 1]).rows]

    real = sweep()
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpu})
    assert sweep() == real


def _worker_cpus(_):
    time.sleep(0.1)  # long enough that every worker takes a task
    return os.getpid(), os.sched_getaffinity(0)


@pytest.mark.forked
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity is a Linux call")
def test_each_fold_pool_worker_runs_on_one_cpu_of_its_own():
    cpus = os.sched_getaffinity(0)
    with forked.single_cpu_pool(6) as pool:
        seen = dict(pool.map(_worker_cpus, range(6)))
    assert all(len(worker) == 1 and worker <= cpus
               for worker in seen.values())
    # one worker per CPU, never more, each on a CPU of its own
    assert len(seen) == forked.processes(6) <= len(cpus)
    assert len(set.union(*seen.values())) == len(seen)
    assert os.sched_getaffinity(0) == cpus  # the caller is not pinned


def test_mask_ratio_sweep_table(tiny_windows):
    result = mask_ratio_sweep(
        tiny_windows, MC, TC, ratios=(0.0, 0.5),
        seeds_for=lambda r: [0, 1] if r == 0.0 else [0])
    assert [r.mask_ratio for r in result.rows] == [0.0, 0.5]
    assert result.row(0.0).seeds == [0, 1]
    assert len(result.row(0.0).per_seed) == 2
    assert result.row(0.5).seeds == [0]
    table = result.table_section()
    assert table[0]["mask_ratio"] == 0.0
    assert "mask ratio" in result.format_table()
    with pytest.raises(KeyError):
        result.row(0.9)
