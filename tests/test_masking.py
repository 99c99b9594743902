"""Masking and loss checks: closed-form constants, direct numpy oracles for
both losses, exact zero/invariance identities, and an FD gradient check for
the cross-entropy through a softmax."""

import numpy as np
import pytest

import fdtools
from repseg import autodiff as ad
from repseg.masking import (
    LOG_EPS,
    LossWeights,
    MaskSpec,
    apply_mask,
    combined_loss,
    cross_entropy,
    draw_mask,
    masked_mse,
    one_hot,
)
from repseg.model import SignalWindow


def random_probs(rng, t_len, n_classes):
    p = rng.random((t_len, n_classes)) + 0.05
    return p / p.sum(axis=1, keepdims=True)


def test_draw_mask_counts_and_range():
    rng = np.random.default_rng(0)
    for ratio, expect in [(0.0, 0), (0.2, 4), (0.5, 10), (0.8, 16), (1.0, 20)]:
        spec = draw_mask(800, 6, 40, ratio, rng)
        assert spec.masked_patches.size == expect
        assert np.unique(spec.masked_patches).size == expect
        assert spec.mask_ratio == expect / 20
        if expect:
            assert spec.masked_patches.min() >= 0
            assert spec.masked_patches.max() < 20

    s1 = draw_mask(800, 6, 40, 0.8, np.random.default_rng(7))
    s2 = draw_mask(800, 6, 40, 0.8, np.random.default_rng(7))
    assert np.array_equal(s1.masked_patches, s2.masked_patches)


def test_draw_mask_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        draw_mask(810, 6, 40, 0.5, rng)  # not divisible
    with pytest.raises(ValueError):
        draw_mask(800, 6, 40, 1.5, rng)
    with pytest.raises(ValueError):
        MaskSpec(800, 6, 40, np.array([0, 0]))  # repeated patch
    with pytest.raises(ValueError):
        MaskSpec(800, 6, 40, np.array([20]))  # out of range


def test_apply_mask_zero_fills_whole_patches():
    rng = np.random.default_rng(2)
    w = SignalWindow(rng.standard_normal((120, 6)) + 5.0)
    spec = MaskSpec(120, 6, 20, np.array([1, 4]))
    masked = apply_mask(w, spec)

    assert np.all(masked.samples[20:40] == 0.0)
    assert np.all(masked.samples[80:100] == 0.0)
    keep = np.ones(120, dtype=bool)
    keep[20:40] = keep[80:100] = False
    assert np.array_equal(masked.samples[keep], w.samples[keep])
    assert np.all(w.samples != 0.0)  # input untouched

    mask = spec.sample_mask()
    assert mask.shape == (120, 6)
    assert mask.sum() == 2 * 20 * 6


def test_cross_entropy_uniform_is_lnC_over_C():
    for t_len, n_classes in [(37, 6), (800, 6), (10, 4)]:
        probs = ad.constant(np.full((t_len, n_classes), 1.0 / n_classes))
        onehot = one_hot(np.zeros(t_len, dtype=int), n_classes)
        ce = cross_entropy(probs, onehot)
        assert abs(ce.item() - np.log(n_classes) / n_classes) < 1e-12


def test_cross_entropy_matches_direct_numpy():
    rng = np.random.default_rng(3)
    t_len, n_classes = 51, 6
    probs = random_probs(rng, t_len, n_classes)
    labels = rng.integers(0, n_classes, size=t_len)

    ce = cross_entropy(ad.constant(probs), one_hot(labels, n_classes))
    want = -np.log(np.maximum(probs, LOG_EPS))[
        np.arange(t_len), labels].sum() / (t_len * n_classes)
    assert abs(ce.item() - want) < 1e-15

    perfect = one_hot(labels, n_classes)
    assert cross_entropy(ad.constant(perfect), perfect).item() == 0.0


def test_cross_entropy_clamps_zero_probability():
    onehot = one_hot(np.array([1, 1]), 3)
    probs = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    ce = cross_entropy(ad.constant(probs), onehot)
    assert np.isfinite(ce.item())
    assert abs(ce.item() - (-np.log(LOG_EPS)) / 6.0) < 1e-12


def test_cross_entropy_gradient_through_softmax():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((8, 6))
    onehot = one_hot(rng.integers(0, 6, size=8), 6)

    t = ad.parameter(logits)
    with ad.Tape() as tape:
        ce = cross_entropy(ad.softmax_rows(t), onehot)
    tape.backward(ce)

    err, _ = fdtools.max_rel_error(
        {"logits": t},
        lambda: cross_entropy(ad.softmax_rows(t), onehot).item(), h=1e-6)
    assert err < 1e-7


def test_masked_mse_matches_direct_numpy():
    rng = np.random.default_rng(6)
    t_len, n_ch = 60, 6
    x = rng.standard_normal((t_len, n_ch)) * 3.0
    xhat = rng.standard_normal((t_len, n_ch))
    spec = MaskSpec(t_len, n_ch, 10, np.array([0, 2, 5]))
    mask = spec.sample_mask()

    mse = masked_mse(x, ad.constant(xhat), mask)
    want = (mask * (x - xhat) ** 2).sum() / (n_ch * t_len)
    assert abs(mse.item() - want) < 1e-15


def test_masked_mse_empty_mask_is_exactly_zero_with_zero_grad():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 6))
    xhat = ad.parameter(rng.standard_normal((40, 6)))
    mask = np.zeros((40, 6), dtype=bool)

    with ad.Tape() as tape:
        mse = masked_mse(x, xhat, mask)
    tape.backward(mse)
    assert mse.item() == 0.0
    assert np.array_equal(xhat.grad, np.zeros((40, 6)))


def test_masked_mse_ignores_unmasked_predictions_bit_exactly():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 6))
    spec = MaskSpec(40, 6, 10, np.array([1, 3]))
    mask = spec.sample_mask()

    xhat = rng.standard_normal((40, 6))
    before = masked_mse(x, ad.constant(xhat), mask).item()
    tweaked = xhat.copy()
    tweaked[~mask] += rng.standard_normal((~mask).sum()) * 100.0
    after = masked_mse(x, ad.constant(tweaked), mask).item()
    assert before == after  # bit-exact invariance


def test_masked_mse_gradient():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 6))
    spec = MaskSpec(20, 6, 5, np.array([0, 2]))
    mask = spec.sample_mask()
    xhat = ad.parameter(rng.standard_normal((20, 6)))

    with ad.Tape() as tape:
        mse = masked_mse(x, xhat, mask)
    tape.backward(mse)
    want = 2.0 * mask * (xhat.data - x) / x.size
    assert np.abs(xhat.grad - want).max() < 1e-15


def test_combined_loss_linearity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        ce_v, mse_v = rng.random() * 2, rng.random()
        eta = rng.random() * 1000
        ce, mse = ad.constant(ce_v), ad.constant(mse_v)
        total = combined_loss(ce, mse, LossWeights(eta=eta)).item()
        want = eta * ce_v + mse_v
        assert abs(total - want) <= 1e-15 * max(1.0, abs(want))
    assert LossWeights().eta == 500.0


def test_one_hot_roundtrip_and_validation():
    labels = np.array([0, 3, 5, 1])
    enc = one_hot(labels, 6)
    assert enc.shape == (4, 6)
    assert np.array_equal(enc.argmax(axis=1), labels)
    assert np.array_equal(enc.sum(axis=1), np.ones(4))
    with pytest.raises(ValueError):
        one_hot(np.array([6]), 6)
    with pytest.raises(ValueError):
        one_hot(np.array([-1]), 6)
