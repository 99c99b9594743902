"""Reverse-mode automatic differentiation on float64 numpy arrays.

Minimal tape-based engine: a `Tensor` wraps a contiguous float64 array, ops
record themselves on the innermost active `Tape`, and `Tape.backward(loss)`
replays the records in reverse, accumulating gradients into `Tensor.grad`.
Only the ops the model needs are provided; every op validates its shapes and
raises ValueError on mismatch rather than broadcasting silently.

A tape can run backward more than once. Each call runs the records made
since the previous call (the loss must be one of their outputs) and then
drops them, so a sum of losses can be backwarded term by term, each term's
graph freed before the next is built; leaves accumulate `.grad` over the
calls. A tensor whose record has already run has no graph behind it any
more: an op that reads it raises GraphError instead of treating it as a
leaf.

What the tape keeps: per op, the output's uid, each input's uid (plus the
tensor itself only for a leaf, whose `.grad` it fills) and the backward
closure. A closure captures only the arrays its gradient formula reads, so
an intermediate that no backward reads (the unscaled queries feeding
`scale`, say) is freed as soon as the forward code drops it.
`backward` pops each record once it has run, releasing that closure's
arrays. No backward writes into the gradient it receives, and intermediate
gradients are summed into fresh arrays, because `add` hands one array to
both of its inputs.

Importing this module raises glibc's malloc thresholds (see
`_keep_freed_memory_in_heap`), so the arrays ops allocate and free by the
thousand are reused from the process heap instead of being faulted in anew.
"""

from __future__ import annotations

import ctypes
import itertools
import platform
import warnings

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "GraphError",
    "no_grad",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "transpose",
    "relu",
    "log_clamped",
    "softmax_rows",
    "softmax_matmul",
    "layer_norm",
    "dilated_conv1d",
    "sum_all",
    "dropout",
    "keep_mask",
    "split_cols",
    "concat_cols",
]


class GraphError(RuntimeError):
    """Raised on tape misuse: double backward, detached loss, non-scalar loss,
    an op reading a tensor whose record backward already ran."""


class Tensor:
    """A float64 array plus gradient bookkeeping.

    `grad` is populated (as a plain ndarray) by `Tape.backward` for tensors
    with `requires_grad=True`; gradients accumulate across backward calls,
    on one tape or several. `uid` names the tensor on a tape; unlike
    `id()`, it is never reused after it is freed.
    """

    __slots__ = ("data", "requires_grad", "grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        # asarray keeps 0-d scalars 0-d (ascontiguousarray would promote to 1-d)
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.uid = _next_uid()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return (f"Tensor(shape={self.data.shape}, requires_grad="
                f"{self.requires_grad})")


_next_uid = itertools.count().__next__

# glibc's <malloc.h> parameter numbers and the values set at import
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOPT_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20),  # glibc's own ceiling
                     (_M_TRIM_THRESHOLD, 1 << 30))


def _keep_freed_memory_in_heap():
    """Keep freed arrays up to 32 MiB in the process heap (glibc only).

    By default glibc serves every block of 128 KiB or more with its own
    `mmap` and unmaps it on free, and trims the top of the heap once more
    than twice the last freed block is free. An attention block (200 KB at
    T=160, 5 MB at T=800) is above that line, so every forward got fresh
    zeroed pages from the kernel for each block: about 17.6k minor faults
    and 60 ms of system CPU per full-scale window. With the mmap threshold
    at 32 MiB and the trim threshold at 1 GiB, a freed block is reused by
    the next one. The cost: freed memory stays in the process, so RSS does
    not fall after a peak; the peak itself does not rise. Elsewhere than
    glibc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    failed = [param for param, value in _MALLOPT_SETTINGS
              if mallopt(param, value) != 1]
    if failed:
        warnings.warn(f"glibc mallopt refused parameters {failed}; freed "
                      f"arrays go back to the kernel", RuntimeWarning)


_keep_freed_memory_in_heap()


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class _Op:
    """One recorded op: `out` is the output's uid; `inputs` holds, per
    input, None when it needs no gradient, else (uid, tensor if it is a
    leaf of this tape, else None)."""

    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


# innermost active tape; None while no tape is open or inside no_grad()
_ACTIVE: list = []


class Tape:
    """Records ops executed inside its `with` block, in execution order.

    Execution order is a topological order of the graph, so backward simply
    walks the records reversed. Each backward runs and drops the records made
    since the previous one; a loss whose records already ran cannot be
    backwarded again, and no op may read an output of such a record.
    """

    def __init__(self):
        self._ops: list[_Op] = []
        self._produced: set[int] = set()  # outputs of records not yet run
        self._spent: set[int] = set()  # outputs of records already run

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.pop()
        if popped is not self:
            raise GraphError("tape nesting corrupted")
        return False

    def _record(self, out: Tensor, inputs, backward_fn):
        produced = self._produced
        entries = []
        for t in inputs:
            if not t.requires_grad:
                entries.append(None)
            elif t.uid in produced:
                entries.append((t.uid, None))
            elif t.uid in self._spent:
                raise GraphError("op input was produced by a record that "
                                 "backward already ran")
            else:
                entries.append((t.uid, t))
        self._ops.append(_Op(out.uid, tuple(entries), backward_fn))
        produced.add(out.uid)

    def backward(self, loss: Tensor):
        """Seed d(loss)/d(loss)=1, run the records made since the previous
        backward and accumulate gradients into leaf tensors."""
        if loss.data.size != 1:
            raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
        if loss.uid not in self._produced:
            if loss.uid in self._spent:
                raise GraphError("backward already ran the records of this loss")
            raise GraphError("loss was not produced under this tape since its "
                             "last backward (detached graph)")
        self._spent |= self._produced
        self._produced.clear()

        # local grad store for intermediates; leaves accumulate into .grad.
        # Popping each record frees its closure's arrays as soon as it ran.
        grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
        ops = self._ops
        while ops:
            op = ops.pop()
            g_out = grads.pop(op.out, None)
            if g_out is None:
                continue
            for entry, g in zip(op.inputs, op.backward_fn(g_out)):
                if g is None or entry is None:
                    continue
                uid, leaf = entry
                if leaf is not None:
                    leaf.accumulate_grad(g)
                else:
                    prev = grads.get(uid)
                    grads[uid] = g if prev is None else prev + g


class no_grad:
    """Context manager that suspends tape recording (forward only)."""

    def __enter__(self):
        _ACTIVE.append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.pop()
        return False


def _tape():
    return _ACTIVE[-1] if _ACTIVE else None


def _make(out_data, inputs, backward_fn) -> Tensor:
    rg = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=rg)
    tape = _tape()
    if tape is not None and rg:
        tape._record(out, inputs, backward_fn)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal shapes (a bias row goes through `linear`)."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data
    return _make(a_data * b_data, (a, b),
                 lambda g: (g * b_data, g * a_data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    return _make(a_data @ b_data, (a, b),
                 lambda g: (g @ b_data.T, a_data.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: x (T, D_in), w (D_in, D_out), bias b (D_out,).

    The bias is added in place to the matmul output, so the result is
    bit-identical to `x @ w + b` with one array fewer."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"linear bias must be ({w.shape[1]},), got {b.shape}")
    x_data, w_data = x.data, w.data
    out = x_data @ w_data
    out += b.data
    return _make(out, (x, w, b),
                 lambda g: (g @ w_data.T, x_data.T @ g, g.sum(axis=0)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects 2-D, got {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def log_clamped(a: Tensor, eps: float = 1e-12) -> Tensor:
    """log(max(a, eps)); gradient is 1/a above the clamp and 0 below it."""
    clamped = np.maximum(a.data, eps)
    live = a.data > eps
    return _make(np.log(clamped), (a,),
                 lambda g: (np.where(live, g / clamped, 0.0),))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, shifted by the row max for stability.

    Forward and backward each fill one fresh array in place; neither writes
    into its input or into the gradient it receives. The forward multiplies
    by each row's reciprocal sum rather than dividing; the backward forms
    the row dot product without a temporary, three passes over the block.
    """
    if a.data.ndim != 2:
        raise ValueError(f"softmax_rows expects 2-D, got {a.shape}")
    s = a.data - a.data.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s *= 1.0 / s.sum(axis=1, keepdims=True)

    def backward(g):
        out = g - np.einsum("ij,ij->i", g, s)[:, None]
        out *= s
        return (out,)

    return _make(s, (a,), backward)


# Bytes of one row tile of `softmax_matmul`'s output, so the tile the matmul
# writes is still in L2 (2 MiB per core on the reference Xeon) when the
# softmax passes over it. A 160-column block (1.25 KiB per row) fits in one
# tile; an 800-column one (6.25 KiB per row) takes 40-row tiles. One 800x800
# forward (d_k 16, one thread, median of 200 interleaved calls) took 1.55 ms
# at 256 KiB, against 2.03 / 1.71 / 1.67 / 1.64 ms at 64 / 128 / 512 / 1024.
SOFTMAX_TILE_BYTES = 256 << 10

# Largest bound on |logit| at which `softmax_matmul` exponentiates the logits
# without shifting each row by its max. e^-300 and e^300 are normal float64
# values (the range ends near e^-708 and e^709), so no exp overflows, no row
# sum overflows for any row length below 10^170 and no row flushes to zero,
# and each probability keeps the relative accuracy of the shifted form.
EXP_SAFE_BOUND = 300.0


def softmax_matmul(a: Tensor, b: Tensor) -> Tensor:
    """softmax_rows(matmul(a, b)) as one node, one row tile at a time.

    Each tile of the (T, S) output is filled by the matmul and then
    exponentiated and normalised in place while it is in cache, so no logit
    block exists apart from the probabilities, which backward keeps as
    `softmax_rows` does. By Cauchy-Schwarz every logit lies within
    B = max_i |a_i| * max_j |b_j| (row norms of `a`, column norms of `b`);
    when B <= `EXP_SAFE_BOUND` the tiles skip the row-max shift, otherwise
    (a large, infinite or NaN bound) each row is shifted by its max as in
    `softmax_rows`. Either way the probabilities differ from the two
    separate nodes' by rounding only. Backward forms each tile's
    dZ = P * (g - rowdot(g, P)) in one reused buffer and accumulates dA and
    dB from it; with a single tile it makes the float operations of the two
    separate nodes' backwards on the same P.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"softmax_matmul shape mismatch: {a.shape} @ "
                         f"{b.shape}")
    a_data, b_data = a.data, b.data
    t_len, s_len = a.shape[0], b.shape[1]
    rows = max(1, SOFTMAX_TILE_BYTES // (8 * max(s_len, 1)))
    tiles = [slice(lo, min(lo + rows, t_len)) for lo in range(0, t_len, rows)]
    bound = np.sqrt(
        np.einsum("ij,ij->i", a_data, a_data).max(initial=0.0)
        * np.einsum("ij,ij->j", b_data, b_data).max(initial=0.0))
    shift = not bound <= EXP_SAFE_BOUND
    p = np.empty((t_len, s_len))
    for sl in tiles:
        tile = p[sl]
        np.matmul(a_data[sl], b_data, out=tile)
        if shift:
            tile -= tile.max(axis=1, keepdims=True)
        np.exp(tile, out=tile)
        tile *= 1.0 / np.einsum("ij->i", tile)[:, None]

    def backward(g):
        g_a = np.empty_like(a_data)
        g_b = np.zeros_like(b_data)
        dz = np.empty((min(rows, t_len), s_len))
        for sl in tiles:
            dz_tile = dz[:sl.stop - sl.start]
            np.subtract(g[sl], np.einsum("ij,ij->i", g[sl], p[sl])[:, None],
                        out=dz_tile)
            dz_tile *= p[sl]
            np.matmul(dz_tile, b_data.T, out=g_a[sl])
            g_b += a_data[sl].T @ dz_tile
        return (g_a, g_b)

    return _make(p, (a, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Per-row normalization of a 2-D tensor with learned gain and bias."""
    if x.data.ndim != 2:
        raise ValueError(f"layer_norm expects 2-D, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_norm gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    gain_data = gain.data
    # the centred rows serve both the variance (numpy's own `var`
    # arithmetic, so bit-identical to it) and, scaled in place, xhat
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    var = (xhat * xhat).sum(axis=1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gain_data + bias.data

    def backward(g):
        g_gain = (g * xhat).sum(axis=0)
        g_bias = g.sum(axis=0)
        g_hat = g * gain_data
        m1 = g_hat.mean(axis=1, keepdims=True)
        m2 = (g_hat * xhat).mean(axis=1, keepdims=True)
        g_x = inv_std * (g_hat - m1 - xhat * m2)
        return (g_x, g_gain, g_bias)

    return _make(out, (x, gain, bias), backward)


def dilated_conv1d(x: Tensor, kernel: Tensor, bias: Tensor,
                   dilation: int) -> Tensor:
    """1-D convolution over time with zero 'same' padding.

    `x` is (T, C_in), `kernel` is (k, C_in, C_out) with odd k, and the output
    keeps length T: position t sees inputs at t + (j - (k-1)/2) * dilation,
    so the window is centered (non-causal).
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ValueError(
            f"conv expects x (T,Cin) and kernel (k,Cin,Cout), got "
            f"{x.shape} and {kernel.shape}")
    k, c_in, c_out = kernel.shape
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if x.shape[1] != c_in:
        raise ValueError(f"conv channel mismatch: x has {x.shape[1]}, "
                         f"kernel expects {c_in}")
    if bias.shape != (c_out,):
        raise ValueError(f"conv bias must be ({c_out},), got {bias.shape}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")

    t_len = x.shape[0]
    pad = dilation * (k - 1) // 2
    xp = np.zeros((t_len + 2 * pad, c_in))
    xp[pad:pad + t_len] = x.data

    k_data = kernel.data
    out = np.zeros((t_len, c_out))
    for j in range(k):
        out += xp[j * dilation:j * dilation + t_len] @ k_data[j]
    out += bias.data

    def backward(g):
        g_xp = np.zeros_like(xp)
        g_k = np.empty_like(k_data)
        for j in range(k):
            sl = slice(j * dilation, j * dilation + t_len)
            g_xp[sl] += g @ k_data[j].T
            g_k[j] = xp[sl].T @ g
        return (g_xp[pad:pad + t_len], g_k, g.sum(axis=0))

    return _make(out, (x, kernel, bias), backward)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar (shape ()) tensor."""
    shape = a.data.shape
    return _make(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.full(shape, float(g)),))


def keep_mask(shape: tuple, rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """Boolean dropout keep-mask: each entry True with probability 1-rate.

    Drawn apart from the forward, so a caller can draw the masks of every
    window in a fixed order and run only some of the forwards."""
    return rng.random(shape) >= rate


def dropout(a: Tensor, rate: float, keep: np.ndarray) -> Tensor:
    """Inverted dropout through a `keep_mask`: zero where it is False, scale
    the rest by 1/(1-rate) so the expectation is unchanged. Apply in
    training only."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if keep.shape != a.shape:
        raise ValueError(f"keep-mask shape {keep.shape} vs input {a.shape}")
    if rate == 0.0:
        return a
    # the closure holds the caller's one-byte mask, not a float64 copy;
    # a * keep * s rounds as a * (keep * s) does, since keep is 0 or 1
    scale = 1.0 / (1.0 - rate)

    def masked(x):
        out = x * keep
        out *= scale
        return out

    return _make(masked(a.data), (a,), lambda g: (masked(g),))


def split_cols(a: Tensor, n_parts: int) -> list[Tensor]:
    """Split a 2-D tensor into `n_parts` equal column blocks."""
    if a.data.ndim != 2 or a.shape[1] % n_parts != 0:
        raise ValueError(f"cannot split {a.shape} into {n_parts} column blocks")
    width = a.shape[1] // n_parts
    parts = []
    for i in range(n_parts):
        sl = slice(i * width, (i + 1) * width)

        def backward(g, sl=sl, shape=a.shape):
            g_full = np.zeros(shape)
            g_full[:, sl] = g
            return (g_full,)

        parts.append(_make(a.data[:, sl].copy(), (a,), backward))
    return parts


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors with equal row counts along columns."""
    rows = parts[0].shape[0]
    if any(p.data.ndim != 2 or p.shape[0] != rows for p in parts):
        raise ValueError("concat_cols needs 2-D tensors with equal row counts")
    edges = np.cumsum([0] + [p.shape[1] for p in parts])

    def backward(g):
        return tuple(g[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))

    return _make(np.concatenate([p.data for p in parts], axis=1),
                 tuple(parts), backward)
