"""Training-loop checks: fold plans, the optimizer against a hand-rolled
update, loss bookkeeping identities, shared-encoder gradient flow in both
directions, and seed determinism."""

import os
import pickle
import weakref

import numpy as np
import pytest

from repseg import autodiff as ad
from repseg import forked
from repseg.dataio import CONFIG_SCHEMA, DataFormatError, _check
from repseg.masking import (apply_mask, combined_loss, cross_entropy,
                            draw_mask, masked_mse, one_hot)
from repseg.model import Model, ModelConfig, SignalWindow, init_params
from repseg.train import (
    Adam,
    StepRecord,
    TrainConfig,
    TrainingDivergedError,
    make_losocv,
    predict,
    sample_accuracy,
    train_fold,
)

TINY = dict(d_model=8, n_heads=2, n_layers=1, dropout=0.1, window_len=40,
            n_channels=6, n_classes=6, ffn_dim=16, tcn_layers=3,
            tcn_channels=4)


def tiny_model_config(**over):
    return ModelConfig(**{**TINY, **over})


def tiny_dataset(n_windows=4, t_len=40, n_channels=6, seed=0):
    """Synthetic windows whose labels are recoverable from channel 0."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 0.1, size=(n_windows, t_len, n_channels))
    labels = np.zeros((n_windows, t_len), dtype=np.int64)
    for w in range(n_windows):
        cls = 1 + (w % 5)
        a, b = t_len // 4, 3 * t_len // 4
        labels[w, a:b] = cls
        samples[w, a:b, 0] += cls  # class-coded offset, easy to overfit
    return samples, labels


def _split_across(monkeypatch, n_cpus) -> list:
    """Make `predict` and `train_fold` see `n_cpus` CPUs (None: the real
    affinity set); returns a list that gains one entry per `os.fork` the
    caller makes."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    if n_cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLITS = hasattr(os, "fork") and forked.blas_threads() is not None
can_split = pytest.mark.skipif(
    not SPLITS, reason="needs os.fork and a BLAS whose thread count can be "
                       "set")


def test_train_config_validation_and_roundtrip():
    cfg = TrainConfig(epochs=3, seed=7)
    assert cfg.batch_size == 16
    assert cfg.eta == 500.0
    assert cfg.mask_ratio == 0.8
    assert TrainConfig(**cfg.to_dict()) == cfg
    for bad in [dict(batch_size=0), dict(epochs=0), dict(learning_rate=0.0),
                dict(seed=-1), dict(mask_ratio=1.5), dict(eta=-1.0),
                dict(patch_len=0), dict(learning_rate=float("inf")),
                dict(learning_rate=float("nan")), dict(eta=float("inf")),
                dict(eta=float("nan"))]:
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    with pytest.raises(DataFormatError,
                       match="train.bogus is not a known field"):
        _check({"train": {"epochs": 1, "bogus": 2}}, CONFIG_SCHEMA,
               "config.json")


def test_make_losocv():
    folds = make_losocv(["a", "b", "c"])
    assert [f.test_subject for f in folds] == ["a", "b", "c"]
    assert folds[0].train_subjects == ("b", "c")
    held_out = {f.test_subject for f in folds}
    assert held_out == {"a", "b", "c"}
    for f in folds:
        assert f.test_subject not in f.train_subjects
        assert set(f.train_subjects) | {f.test_subject} == held_out
    with pytest.raises(ValueError):
        make_losocv(["solo"])
    with pytest.raises(ValueError):
        make_losocv(["a", "a", "b"])


def test_adam_matches_hand_formula():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(6)
    data, grad = w0.copy(), np.empty(6)
    opt = Adam(data, grad, learning_rate=0.01)
    m = np.zeros_like(w0)
    v = np.zeros_like(w0)
    x = w0.copy()
    for t in range(1, 4):
        g = rng.standard_normal(6)
        grad[:] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.01 * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(data, x, atol=1e-15)


def test_adam_zero_gradient_is_a_no_op():
    data = np.array([1.0, -2.0])
    opt = Adam(data, np.zeros(2))
    opt.step()
    assert np.array_equal(data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    data = np.array([3.0])
    opt = Adam(data, np.array([0.7]), learning_rate=0.05)
    opt.step()
    # bias-corrected first step moves by ~lr against the gradient sign
    assert data[0] == pytest.approx(3.0 - 0.05, abs=1e-8)


def test_adam_converges_on_quadratic_bowl():
    data, grad = np.array([3.0]), np.empty(1)
    opt = Adam(data, grad, learning_rate=0.05)
    for _ in range(500):
        grad[:] = 2.0 * data
        opt.step()
        if abs(data[0]) < 1e-3:
            break
    assert abs(data[0]) < 1e-3


def test_loss_records_satisfy_combination_identity():
    samples, labels = tiny_dataset()
    cfg = TrainConfig(batch_size=2, epochs=2, seed=1, mask_ratio=0.5,
                      eta=500.0, patch_len=10)
    res = train_fold(samples, labels, tiny_model_config(), cfg)
    assert len(res.steps) == 4  # 4 windows / batch 2 * 2 epochs
    for s in res.steps:
        assert s.loss == pytest.approx(500.0 * s.ce + s.mse, abs=1e-10)
    curves = res.curves()
    assert curves["epoch"] == [1, 2]
    assert len(curves["loss"]) == 2


def test_fixed_seed_reproduces_loss_curves():
    samples, labels = tiny_dataset()
    cfg = TrainConfig(batch_size=4, epochs=2, seed=9, mask_ratio=0.8,
                      patch_len=10)
    a = train_fold(samples, labels, tiny_model_config(), cfg)
    b = train_fold(samples, labels, tiny_model_config(), cfg)
    assert [(s.loss, s.ce, s.mse) for s in a.steps] \
        == [(s.loss, s.ce, s.mse) for s in b.steps]
    assert np.array_equal(a.model.data, b.model.data)


def test_mask_ratio_zero_keeps_reconstruction_params_fixed():
    samples, labels = tiny_dataset()
    mc = tiny_model_config(dropout=0.0)
    start = init_params(mc, np.random.default_rng(3))
    cfg = TrainConfig(batch_size=4, epochs=2, seed=3, mask_ratio=0.0,
                      patch_len=10)
    res = train_fold(samples, labels, mc, cfg, params=start)
    assert all(s.mse == 0.0 for s in res.steps)
    for k, p in res.model.params.items():
        if k.startswith("recon."):
            assert np.array_equal(p.data, start[k])  # no gradient ever
        else:
            assert not np.array_equal(p.data, start[k])


def test_encoder_trains_through_reconstruction_alone():
    # eta = 0 silences the classification loss; the encoder must still move
    samples, labels = tiny_dataset()
    mc = tiny_model_config(dropout=0.0)
    start = init_params(mc, np.random.default_rng(4))
    cfg = TrainConfig(batch_size=4, epochs=1, seed=4, mask_ratio=0.8,
                      eta=0.0, patch_len=10)
    res = train_fold(samples, labels, mc, cfg, params=start)
    moved = [k for k, p in res.model.params.items()
             if not np.array_equal(p.data, start[k])]
    assert any(k.startswith("enc0.") for k in moved)
    assert any(k.startswith("embed.") for k in moved)
    assert any(k.startswith("recon.") for k in moved)
    # the classification head saw zero gradient everywhere
    assert not any(k.startswith("tcn") for k in moved)


def test_divergence_raises_with_diagnostics():
    samples, labels = tiny_dataset()
    samples[1, 3, 2] = np.nan  # poisoned input -> non-finite loss
    cfg = TrainConfig(batch_size=4, epochs=3, seed=5, mask_ratio=0.5,
                      patch_len=10)
    with pytest.raises(TrainingDivergedError) as exc:
        train_fold(samples, labels, tiny_model_config(dropout=0.0), cfg)
    assert exc.value.step >= 1
    assert np.isnan(exc.value.ce)
    assert "ce=" in str(exc.value)


def test_divergence_error_keeps_every_field_through_pickle():
    # a LOSOCV fold diverging in a pool worker reaches the caller pickled
    error = TrainingDivergedError(2, 7, float("inf"), float("nan"), 1.5)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is TrainingDivergedError
    assert str(copy) == str(error)
    assert (copy.epoch, copy.step, copy.loss, copy.mse) == (2, 7, np.inf, 1.5)
    assert np.isnan(copy.ce)


@pytest.mark.forked
def test_diverged_step_leaves_the_params_passed_in_untouched():
    # the backward of every route runs before the step's loss is checked;
    # the gradients it left must not reach the caller's arrays
    samples, labels = tiny_dataset()
    samples[2, 7, 0] = np.nan
    mc = tiny_model_config()
    params = init_params(mc, np.random.default_rng(5))
    start = {k: v.copy() for k, v in params.items()}
    cfg = TrainConfig(batch_size=4, epochs=1, seed=5, mask_ratio=0.5,
                      patch_len=10)
    with pytest.raises(TrainingDivergedError) as exc:
        train_fold(samples, labels, mc, cfg, params=params)
    assert exc.value.step == 1
    for k, v in params.items():
        assert np.array_equal(v, start[k]), k


def _tensor_mean(terms):
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(terms))


def _check_one_step_matches_a_single_tape_batch_loss(monkeypatch, n_cpus):
    # the per-route backwards of a step must sum to the gradient of the
    # batch loss built whole on one tape and backwarded once
    samples, labels = tiny_dataset(n_windows=3)
    mc = tiny_model_config()  # dropout on: the RNG order must be kept
    cfg = TrainConfig(batch_size=3, epochs=1, seed=8, mask_ratio=0.5,
                      patch_len=10)
    start = init_params(mc, np.random.default_rng(2))
    grads = []
    monkeypatch.setattr(Adam, "step",
                        lambda opt: grads.append(opt.grad.copy()))
    forks = _split_across(monkeypatch, n_cpus)
    res = train_fold(samples, labels, mc, cfg, params=start)
    assert len(forks) == (n_cpus - 1 if SPLITS else 0)

    model = Model(mc, params=start)
    rng = np.random.default_rng(cfg.seed)
    ce_terms, mse_terms = [], []
    with ad.Tape() as tape:
        for i in rng.permutation(samples.shape[0]):
            window = SignalWindow(samples[i])
            ce_terms.append(cross_entropy(
                model.classify(window, model.dropout_keep(40, rng)),
                one_hot(labels[i], mc.n_classes)))
            spec = draw_mask(*samples.shape[1:], cfg.patch_len,
                             cfg.mask_ratio, rng)
            recon = model.reconstruct(apply_mask(window, spec),
                                      model.dropout_keep(40, rng))
            mse_terms.append(masked_mse(samples[i], recon,
                                        spec.sample_mask()))
        ce, mse = _tensor_mean(ce_terms), _tensor_mean(mse_terms)
        loss = combined_loss(ce, mse, cfg.eta)
    tape.backward(loss)

    assert res.steps == [StepRecord(1, 1, loss.item(), ce.item(),
                                    mse.item())]
    # the step's gradient vector, read through the trained model's views
    assert len(grads) == 1
    res.model.grad[:] = grads[0]
    for k, p in model.params.items():
        np.testing.assert_allclose(res.model.params[k].grad, p.grad,
                                   rtol=1e-12, atol=0, err_msg=k)


@pytest.mark.forked
def test_one_step_matches_a_single_tape_batch_loss(monkeypatch):
    _check_one_step_matches_a_single_tape_batch_loss(monkeypatch, 1)


@pytest.mark.forked
def test_a_split_step_matches_a_single_tape_batch_loss(monkeypatch):
    # the caller computes windows 0 and 1, the worker window 2
    _check_one_step_matches_a_single_tape_batch_loss(monkeypatch, 2)


def _forwards_after_a_freed_window(monkeypatch, n_windows, n_cpus):
    """Train one step of `n_windows` windows on `n_cpus` CPUs; per
    classification forward in this process, the softmax outputs made
    before it and how many of them are still alive."""
    samples, labels = tiny_dataset(n_windows=n_windows)
    cfg = TrainConfig(batch_size=n_windows, epochs=1, seed=3,
                      mask_ratio=0.5, patch_len=10)
    refs = []
    alive_at_forward = []
    softmax, classify = ad.softmax_rows, Model.classify

    def tracked_softmax(a):
        out = softmax(a)
        refs.append(weakref.ref(out.data))
        return out

    def tracked_classify(self, *args, **kwargs):
        alive_at_forward.append(
            (len(refs), sum(ref() is not None for ref in refs)))
        return classify(self, *args, **kwargs)

    monkeypatch.setattr(ad, "softmax_rows", tracked_softmax)
    monkeypatch.setattr(Model, "classify", tracked_classify)
    forks = _split_across(monkeypatch, n_cpus)
    train_fold(samples, labels, tiny_model_config(), cfg)
    assert len(forks) == (n_cpus - 1 if SPLITS else 0)
    return alive_at_forward


@pytest.mark.forked
def test_a_window_graph_is_freed_before_the_next_window_forward(
        monkeypatch):
    # every softmax output of window 0 (attention blocks of both routes and
    # the class probabilities) must be gone when window 1's forward starts
    (before_0, _), (before_1, alive) = _forwards_after_a_freed_window(
        monkeypatch, n_windows=2, n_cpus=1)
    assert before_0 == 0 and before_1 > 0
    assert alive == 0


@pytest.mark.forked
@can_split
def test_a_window_graph_is_freed_before_the_callers_next_forward_when_split(
        monkeypatch):
    # of four windows the caller computes two; the second forward must
    # find nothing of the first window's graph alive
    (before_0, _), (before_1, alive) = _forwards_after_a_freed_window(
        monkeypatch, n_windows=4, n_cpus=2)
    assert before_0 == 0 and before_1 > 0
    assert alive == 0


def test_validation_inputs():
    samples, labels = tiny_dataset()
    cfg = TrainConfig(epochs=1, patch_len=10)
    with pytest.raises(ValueError):
        train_fold(samples[:, :, :3], labels, tiny_model_config(), cfg)
    with pytest.raises(ValueError):
        train_fold(samples, labels[:, :-1], tiny_model_config(), cfg)
    with pytest.raises(ValueError):
        train_fold(samples, labels, tiny_model_config(),
                   TrainConfig(epochs=1, patch_len=7))  # 40 % 7 != 0


def test_overfit_small_set_reaches_high_accuracy():
    samples, labels = tiny_dataset(n_windows=4, seed=11)
    mc = tiny_model_config(dropout=0.0)
    cfg = TrainConfig(batch_size=2, epochs=100, seed=11, mask_ratio=0.5,
                      patch_len=10, learning_rate=1e-2)
    res = train_fold(samples, labels, mc, cfg)
    acc = sample_accuracy(res.model, samples, labels)
    assert acc >= 0.95
    # reconstruction learned alongside classification
    assert res.epochs[-1].mse < res.epochs[0].mse / 5.0


def test_predict_shapes_and_determinism():
    samples, labels = tiny_dataset(n_windows=2)
    mc = tiny_model_config()
    model = Model(mc, rng=np.random.default_rng(0))
    preds = predict(model, samples)
    assert preds.shape == labels.shape
    assert preds.dtype == np.int64
    assert np.array_equal(preds, predict(model, samples))
    single = predict(model, samples[0])
    assert single.shape == (1, labels.shape[1])
    assert np.array_equal(single[0], preds[0])


@pytest.mark.forked
@pytest.mark.parametrize("n_cpus", [1, 2, 3, None],
                         ids=["1cpu", "2cpus", "3cpus", "affinity"])
@pytest.mark.parametrize("n_windows", [1, 2, 3, 7])
def test_predict_matches_the_per_window_loop(monkeypatch, n_windows, n_cpus):
    samples, _ = tiny_dataset(n_windows=n_windows, seed=n_windows)
    model = Model(tiny_model_config(), rng=np.random.default_rng(3))
    expected = np.stack([model.predict_labels(w) for w in samples])
    forks = _split_across(monkeypatch, n_cpus)
    preds = predict(model, samples)
    assert preds.dtype == expected.dtype
    assert np.array_equal(preds, expected)
    shares = min(n_cpus or len(os.sched_getaffinity(0)), n_windows)
    assert len(forks) == (shares - 1 if SPLITS else 0)
    _no_child_left()


@pytest.fixture
def blas_threads():
    """BLAS set to three threads for the test; yields the count's getter."""
    get_threads, set_threads = forked.blas_threads()
    original = get_threads()
    set_threads(3)
    yield get_threads
    set_threads(original)


@pytest.mark.forked
@can_split
def test_predict_runs_blas_on_one_thread_and_restores_the_count(
        monkeypatch, blas_threads):
    get_threads = blas_threads
    seen = []
    real = Model.predict_labels

    def noting_threads(self, window):
        seen.append(get_threads())
        return real(self, window)

    monkeypatch.setattr(Model, "predict_labels", noting_threads)
    forks = _split_across(monkeypatch, 2)
    samples, _ = tiny_dataset(n_windows=4)
    predict(Model(tiny_model_config(), rng=np.random.default_rng(0)),
            samples)
    assert forks and seen == [1, 1]  # the caller's share: windows 0 and 1
    assert get_threads() == 3


@pytest.mark.forked
@can_split
@pytest.mark.parametrize("bad_window, error",
                         [(2, RuntimeError), (0, ValueError)],
                         ids=["in_a_child", "in_the_caller"])
def test_a_failing_share_raises_in_the_caller_and_leaves_no_child(
        monkeypatch, blas_threads, bad_window, error):
    samples, _ = tiny_dataset(n_windows=3)
    real = Model.predict_labels

    def failing(self, window):
        if np.array_equal(window, samples[bad_window]):
            raise ValueError("window rejected")
        return real(self, window)

    monkeypatch.setattr(Model, "predict_labels", failing)
    forks = _split_across(monkeypatch, 2)
    with pytest.raises(error):
        predict(Model(tiny_model_config(), rng=np.random.default_rng(0)),
                samples)
    assert forks
    assert blas_threads() == 3
    _no_child_left()


@pytest.fixture
def one_blas_thread():
    """BLAS set to one thread for the test, as the split runs it."""
    get_threads, set_threads = forked.blas_threads()
    original = get_threads()
    set_threads(1)
    yield
    set_threads(original)


@pytest.mark.forked
@can_split
@pytest.mark.parametrize("mask_ratio, dropout",
                         [(0.5, 0.1), (0.0, 0.1), (0.5, 0.0)],
                         ids=["masked", "unmasked", "no_dropout"])
def test_split_training_equals_the_serial_loop(monkeypatch, one_blas_thread,
                                               mask_ratio, dropout):
    # 7 windows in batches of 4 over 2 epochs: steps of 4, 3, 4 and 3
    # windows, so the caller computes 2 of each and the worker 2 or 1.
    # Unmasked, a window has one route; without dropout, no keep-mask is
    # drawn
    samples, labels = tiny_dataset(n_windows=7)
    cfg = TrainConfig(batch_size=4, epochs=2, seed=6, mask_ratio=mask_ratio,
                      patch_len=10)
    results = {}
    for n_cpus in (1, 2):
        forks = _split_across(monkeypatch, n_cpus)
        results[n_cpus] = train_fold(samples, labels,
                                     tiny_model_config(dropout=dropout), cfg)
        assert len(forks) == n_cpus - 1
        _no_child_left()
    serial, split = results[1], results[2]
    assert len(serial.steps) == 4
    assert split.steps == serial.steps
    assert split.epochs == serial.epochs
    for k, p in serial.model.params.items():
        assert np.array_equal(split.model.params[k].data, p.data), k


@pytest.mark.forked
def test_batches_of_one_window_train_serially(monkeypatch):
    samples, labels = tiny_dataset(n_windows=3)
    forks = _split_across(monkeypatch, 2)
    cfg = TrainConfig(batch_size=1, epochs=1, seed=2, patch_len=10)
    assert len(train_fold(samples, labels, tiny_model_config(),
                          cfg).steps) == 3
    one_window = TrainConfig(batch_size=4, epochs=2, seed=2, patch_len=10)
    assert len(train_fold(samples[:1], labels[:1], tiny_model_config(),
                          one_window).steps) == 2
    assert not forks


@pytest.mark.forked
@can_split
def test_a_nan_in_the_workers_share_diverges_as_the_serial_loop_does(
        monkeypatch):
    samples, labels = tiny_dataset()
    mc = tiny_model_config()
    cfg = TrainConfig(batch_size=4, epochs=1, seed=5, mask_ratio=0.5,
                      patch_len=10)
    # with the params passed in, the permutation is the RNG's first draw;
    # the worker computes the second half of the batch
    poisoned = np.random.default_rng(cfg.seed).permutation(4)[3]
    samples[poisoned, 7, 0] = np.nan
    classify = Model.classify
    errors = {}
    for n_cpus in (1, 2):
        seen_nan = []  # per classification forward made in this process

        def noting_classify(self, window, *args, **kwargs):
            seen_nan.append(bool(np.isnan(window.samples).any()))
            return classify(self, window, *args, **kwargs)

        monkeypatch.setattr(Model, "classify", noting_classify)
        params = init_params(mc, np.random.default_rng(5))
        start = {k: v.copy() for k, v in params.items()}
        forks = _split_across(monkeypatch, n_cpus)
        with pytest.raises(TrainingDivergedError) as exc:
            train_fold(samples, labels, mc, cfg, params=params)
        errors[n_cpus] = exc.value
        assert len(forks) == n_cpus - 1
        assert any(seen_nan) == (n_cpus == 1)
        for k, v in params.items():
            assert np.array_equal(v, start[k]), k
        _no_child_left()
    serial, split = errors[1], errors[2]
    assert (split.epoch, split.step) == (serial.epoch, serial.step) == (1, 1)
    assert np.isnan(serial.ce)
    assert np.array_equal([split.loss, split.ce, split.mse],
                          [serial.loss, serial.ce, serial.mse],
                          equal_nan=True)


@pytest.mark.forked
@can_split
@pytest.mark.parametrize("in_worker, error",
                         [(True, RuntimeError), (False, ValueError)],
                         ids=["in_the_worker", "in_the_caller"])
def test_a_failing_training_share_raises_in_the_caller_and_leaves_no_child(
        monkeypatch, blas_threads, in_worker, error):
    samples, labels = tiny_dataset()
    caller = os.getpid()
    classify = Model.classify

    def failing(self, *args, **kwargs):
        if (os.getpid() != caller) == in_worker:
            raise ValueError("window rejected")
        return classify(self, *args, **kwargs)

    monkeypatch.setattr(Model, "classify", failing)
    forks = _split_across(monkeypatch, 2)
    with pytest.raises(error):
        train_fold(samples, labels, tiny_model_config(),
                   TrainConfig(batch_size=4, epochs=2, patch_len=10))
    assert forks
    assert blas_threads() == 3
    _no_child_left()


@pytest.mark.forked
@can_split
def test_split_training_runs_blas_on_one_thread_and_restores_the_count(
        monkeypatch, blas_threads):
    seen = []
    classify = Model.classify

    def noting_threads(self, *args, **kwargs):
        seen.append(blas_threads())
        return classify(self, *args, **kwargs)

    monkeypatch.setattr(Model, "classify", noting_threads)
    forks = _split_across(monkeypatch, 2)
    samples, labels = tiny_dataset()
    train_fold(samples, labels, tiny_model_config(),
               TrainConfig(batch_size=4, epochs=1, patch_len=10))
    assert forks and seen == [1, 1]  # the caller's share: two windows
    assert blas_threads() == 3
