"""Reverse-mode differentiation on plain float64 arrays.

Builds a tiny expression, runs one backward pass, and cross-checks a few
gradient entries against central finite differences.
"""

import numpy as np

from repseg import autodiff as ad

rng = np.random.default_rng(0)
w = ad.parameter(rng.normal(size=(4, 3)))
b = ad.parameter(np.zeros(3))
x = ad.constant(rng.normal(size=(5, 4)))

with ad.Tape() as tape:
    h = ad.relu(ad.linear(x, w, b))
    loss = ad.scale(ad.sum_all(ad.mul(h, h)), 1.0 / h.size)
    tape.backward(loss)

print(f"loss = {loss.item():.6f}")
print(f"w.grad norm = {np.linalg.norm(w.grad):.6f}")
print(f"b.grad      = {b.grad}")

# spot-check dL/dw[0,0] numerically
h_step = 1e-6
old = w.data[0, 0]
vals = []
for delta in (+h_step, -h_step):
    w.data[0, 0] = old + delta
    with ad.no_grad():
        hh = ad.relu(ad.linear(x, w, b))
        vals.append(ad.scale(ad.sum_all(ad.mul(hh, hh)), 1.0 / hh.size).item())
w.data[0, 0] = old
fd = (vals[0] - vals[1]) / (2.0 * h_step)
print(f"analytic dL/dw[0,0] = {w.grad[0, 0]:.10f}")
print(f"numeric  dL/dw[0,0] = {fd:.10f}")
