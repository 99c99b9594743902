"""One training fold, start to finish.

Both routes run in every step: classification on the clean window,
reconstruction on the masked one, each route's loss backpropagated through
the shared encoder as soon as it exists, one Adam update. Watch the reconstruction term fall as the encoder
learns the signal.
"""

import time

import numpy as np

from repseg.model import ModelConfig
from repseg.synth import make_cohort, windowize
from repseg.train import TrainConfig, predict, train_fold

recs, _ = make_cohort(1, plan=[(1, 2), (2, 2), (4, 1)], seed=13)
pairs = windowize(recs[0], 160)
samples = np.stack([w.samples for w, _ in pairs])
labels = np.stack([lab for _, lab in pairs])
print(f"{samples.shape[0]} windows of {samples.shape[1]} samples")

mc = ModelConfig(d_model=16, n_heads=2, n_layers=1, dropout=0.0,
                 window_len=160, n_channels=6, n_classes=6, ffn_dim=32,
                 tcn_layers=4, tcn_channels=8)
tc = TrainConfig(batch_size=8, epochs=8, learning_rate=1e-2, seed=0,
                 mask_ratio=0.8, patch_len=16, eta=500.0)

t0 = time.perf_counter()
result = train_fold(samples, labels, mc, tc)
elapsed = time.perf_counter() - t0

print(f"{'epoch':>5}  {'total':>9}  {'ce':>9}  {'mse':>9}")
for ep in result.epochs:
    print(f"{ep.epoch:>5}  {ep.loss:>9.4f}  {ep.ce:>9.5f}  {ep.mse:>9.5f}")

acc = np.mean(predict(result.model, samples) == labels)
print(f"\ntrain accuracy {acc:.3f} after {elapsed:.1f} s "
      f"({len(result.steps)} optimizer steps)")
