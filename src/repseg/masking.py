"""Patch masking and the semi-supervised training losses.

A window is divided along time into contiguous patches of `patch_len`
samples; a drawn mask zeroes whole patches across all channels. The combined
training loss is eta * cross-entropy (per-sample classification, computed on
the unmasked window) + masked reconstruction MSE (computed on the masked
window against the original signal, masked samples only).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "draw_mask",
    "apply_mask",
    "one_hot",
    "cross_entropy",
    "masked_mse",
    "combined_loss",
    "LOG_EPS",
]

LOG_EPS = 1e-12  # probability clamp inside the cross-entropy log


def draw_mask(window_len: int, n_channels: int, patch_len: int,
              mask_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean (window_len, n_channels) mask, True where the signal is
    hidden: round(mask_ratio * n_patches) distinct patches, each across
    every channel."""
    if not 0.0 <= mask_ratio <= 1.0:
        raise ValueError(f"mask_ratio must be in [0, 1], got {mask_ratio}")
    if window_len % patch_len != 0:
        raise ValueError(
            f"window_len {window_len} not divisible by patch_len {patch_len}")
    n_patches = window_len // patch_len
    n_masked = int(round(mask_ratio * n_patches))
    hidden = np.zeros(n_patches, dtype=bool)
    hidden[rng.choice(n_patches, size=n_masked, replace=False)] = True
    return np.repeat(np.repeat(hidden, patch_len)[:, None], n_channels,
                     axis=1)


def apply_mask(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """A copy of the (T, N) window with the masked samples zero-filled."""
    if samples.shape != mask.shape:
        raise ValueError(f"window shape {samples.shape} does not match mask "
                         f"shape {mask.shape}")
    out = samples.copy()
    out[mask] = 0.0
    return out


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label outside [0, n_classes)")
    enc = np.zeros((labels.size, n_classes))
    enc[np.arange(labels.size), labels] = 1.0
    return enc


def cross_entropy(probs: Tensor, onehot: np.ndarray) -> Tensor:
    """-(1/(T*C)) sum y * log(p), log clamped at LOG_EPS.

    Normalizes by T*C (not by T), so a uniform prediction over C classes
    scores ln(C)/C regardless of window length.
    """
    t_len, n_classes = probs.shape
    if onehot.shape != (t_len, n_classes):
        raise ValueError(
            f"one-hot shape {onehot.shape} vs probs {probs.shape}")
    picked = ad.mul(ad.log_clamped(probs, LOG_EPS), ad.constant(onehot))
    return ad.scale(ad.sum_all(picked), -1.0 / (t_len * n_classes))


def masked_mse(target: np.ndarray, recon: Tensor,
               sample_mask: np.ndarray) -> Tensor:
    """(1/(N*T)) sum m * (x - x_hat)^2 over masked samples only.

    Normalizes by the full N*T (not the masked count); an empty mask gives
    exactly 0 with an exactly-zero gradient.
    """
    if recon.shape != target.shape or sample_mask.shape != target.shape:
        raise ValueError(
            f"shape mismatch: target {target.shape}, recon {recon.shape}, "
            f"mask {sample_mask.shape}")
    t_len, n_channels = target.shape
    diff = ad.sub(recon, ad.constant(target))
    sq = ad.mul(diff, diff)
    hidden = ad.mul(sq, ad.constant(sample_mask.astype(np.float64)))
    return ad.scale(ad.sum_all(hidden), 1.0 / (n_channels * t_len))


def combined_loss(ce: Tensor, mse: Tensor, eta: float) -> Tensor:
    """The loss mix eta * ce + mse."""
    return ad.add(ad.scale(ce, eta), mse)
