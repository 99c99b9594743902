"""Patch masking and the combined training objective.

The classification route scores the untouched window with a per-sample
cross-entropy normalized by T*C; the reconstruction route sees the masked
window and pays a squared error only on hidden samples, normalized by N*T.
The total is eta * CE + MSE.
"""

import math

import numpy as np

from repseg import autodiff as ad
from repseg.masking import (apply_mask, combined_loss, cross_entropy,
                            draw_mask, masked_mse, one_hot)

rng = np.random.default_rng(2)
T, N, C, P = 120, 6, 6, 20

hidden = draw_mask(T, N, patch_len=P, mask_ratio=0.8, rng=rng)
patches = np.flatnonzero(hidden[::P, 0])  # each patch's first row
print(f"patches: {T // P}, hidden: {patches.tolist()} "
      f"(ratio {patches.size / (T // P):.2f})")

window = rng.normal(size=(T, N))
masked = apply_mask(window, hidden)
print(f"zeroed samples: {int(hidden.sum())} of {T * N}")

# a uniform prediction scores exactly ln(C)/C, independent of the labels
labels = rng.integers(0, C, size=T)
uniform = ad.constant(np.full((T, C), 1.0 / C))
ce = cross_entropy(uniform, one_hot(labels, C))
print(f"uniform CE = {ce.item():.6f} (ln(6)/6 = {math.log(6) / 6:.6f})")

recon = ad.constant(rng.normal(size=(T, N)))
mse = masked_mse(window, recon, hidden)
total = combined_loss(ce, mse, eta=500.0)
print(f"MSE = {mse.item():.6f}")
print(f"total = 500 * CE + MSE = {total.item():.6f}")

# an empty mask silences the reconstruction term entirely
none_hidden = draw_mask(T, N, P, 0.0, rng)
mse0 = masked_mse(window, recon, none_hidden)
print(f"MSE with nothing masked = {mse0.item()}")
