"""Transformer encoder with a dilated temporal-convolution classification head
and a signal reconstruction head.

One shared encoder feeds two routes: `classify` maps a window to per-sample
class probabilities through a stack of residual dilated convolutions, and
`reconstruct` maps an (optionally masked) window back to signal space through
a two-layer head. Both routes read the same parameter tensors, so gradients
from either loss update the same encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ModelConfig",
    "Model",
    "positional_encoding",
    "param_shapes",
    "init_params",
]


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    Defaults are the full-scale configuration: 128-wide encoder, 8 heads,
    3 layers, 800-sample windows of 6 channels, 6 output classes, and a
    7-layer TCN head whose dilations double from 1 to 64.
    """

    d_model: int = 128
    n_heads: int = 8
    n_layers: int = 3
    dropout: float = 0.1
    window_len: int = 800
    n_channels: int = 6
    n_classes: int = 6
    ffn_dim: int | None = None
    tcn_layers: int = 7
    tcn_channels: int = 64
    kernel_size: int = 3

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("d_model", "n_heads", "n_layers", "window_len",
                     "n_channels", "n_classes", "ffn_dim", "tcn_layers",
                     "tcn_channels", "kernel_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def receptive_field(self) -> int:
        """Total TCN receptive field in samples (odd; radius is (rf-1)//2)."""
        spread = (self.kernel_size - 1) * sum(
            2 ** i for i in range(self.tcn_layers))
        return 1 + spread

    @property
    def influence_radius(self) -> int:
        return (self.receptive_field - 1) // 2

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def positional_encoding(t_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal position table: sin on even columns, cos on odd columns,
    wavelengths geometric from 2*pi to 10000*2*pi."""
    pos = np.arange(t_len)[:, None]
    i = np.arange(0, d_model, 2)[None, :]
    angle = pos / np.power(10000.0, i / d_model)
    pe = np.zeros((t_len, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)[:, : d_model // 2]
    return pe


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Canonical parameter layout: name -> shape, in a stable order."""
    d, n, c = config.d_model, config.n_channels, config.n_classes
    f, ch, k = config.ffn_dim, config.tcn_channels, config.kernel_size
    shapes: dict[str, tuple] = {"embed.w": (n, d), "embed.b": (d,)}
    for i in range(config.n_layers):
        p = f"enc{i}"
        shapes[f"{p}.ln1.g"] = (d,)
        shapes[f"{p}.ln1.b"] = (d,)
        for mat in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{mat}"] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{p}.attn.{b}"] = (d,)
        shapes[f"{p}.ln2.g"] = (d,)
        shapes[f"{p}.ln2.b"] = (d,)
        shapes[f"{p}.ffn.w1"] = (d, f)
        shapes[f"{p}.ffn.b1"] = (f,)
        shapes[f"{p}.ffn.w2"] = (f, d)
        shapes[f"{p}.ffn.b2"] = (d,)
    shapes["tcn_in.w"] = (d, ch)
    shapes["tcn_in.b"] = (ch,)
    for l in range(config.tcn_layers):
        shapes[f"tcn{l}.conv.k"] = (k, ch, ch)
        shapes[f"tcn{l}.conv.b"] = (ch,)
        shapes[f"tcn{l}.proj.w"] = (ch, ch)
        shapes[f"tcn{l}.proj.b"] = (ch,)
    shapes["tcn_out.w"] = (ch, c)
    shapes["tcn_out.b"] = (c,)
    shapes["recon.w1"] = (d, d)
    shapes["recon.b1"] = (d,)
    shapes["recon.w2"] = (d, n)
    shapes["recon.b2"] = (n,)
    return shapes


def _glorot(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    if len(shape) == 3:  # conv kernel (k, c_in, c_out)
        k, c_in, c_out = shape
        fan_in, fan_out = k * c_in, k * c_out
    else:
        fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh trainable parameters: Glorot-uniform mats, zero biases, unit
    layer-norm gains. The input embed uses std 0.02 instead of fan scaling
    so raw accelerometer rows (gravity offset ~9.8) enter at O(1)."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name == "embed.w":
            data = rng.normal(0.0, 0.02, size=shape)
        elif name.endswith(".g"):
            data = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            data = np.zeros(shape)
        else:
            data = _glorot(rng, shape)
        params[name] = data
    return params


class Model:
    """Shared-encoder model with classification and reconstruction routes.

    The model owns one float64 vector `data` that holds every parameter in
    `param_shapes` order, and each parameter's `.data` is a view of it.
    The arrays passed as `params` are copied in, so training a model never
    writes them. Only a model that trains has a gradient vector `grad` of
    the same layout: `gradient()` makes it and binds every parameter's
    `.grad` to its view; until then `grad` is None.
    """

    def __init__(self, config: ModelConfig,
                 params: dict[str, np.ndarray] | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        shapes = param_shapes(config)
        if params is None:
            if rng is None:
                raise ValueError("pass params or an rng to initialize them")
            params = init_params(config, rng)
        elif {k: np.shape(v) for k, v in params.items()} != shapes:
            raise ValueError("params do not match the config layout")
        self.data = np.empty(sum(math.prod(s) for s in shapes.values()))
        self.params: dict[str, Tensor] = {}
        for name, view in zip(shapes, self._views(self.data)):
            view[...] = params[name]
            self.params[name] = ad.parameter(view)
        self.grad: np.ndarray | None = None
        self._pe_cache: dict[int, Tensor] = {}

    def _views(self, vector: np.ndarray):
        """`vector` cut into one view per parameter, in `param_shapes`
        order."""
        offset = 0
        for shape in param_shapes(self.config).values():
            size = math.prod(shape)
            yield vector[offset:offset + size].reshape(shape)
            offset += size

    def gradient(self) -> np.ndarray:
        """The gradient vector, made zeroed on the first call, which binds
        every parameter's `.grad` to its view."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            for p, view in zip(self.params.values(), self._views(self.grad)):
                p.grad = view
        return self.grad

    def param_count(self) -> int:
        return self.data.size

    def _pe(self, t_len: int) -> Tensor:
        if t_len not in self._pe_cache:
            self._pe_cache[t_len] = ad.constant(
                positional_encoding(t_len, self.config.d_model))
        return self._pe_cache[t_len]

    def dropout_keep(self, t_len: int,
                     rng: np.random.Generator) -> list[np.ndarray] | None:
        """Keep-masks for one training forward of a `t_len`-sample window,
        one per dropout site in forward order (each layer's attention, then
        its FFN); None when the dropout rate is 0, which draws nothing."""
        rate = self.config.dropout
        if rate == 0.0:
            return None
        shape = (t_len, self.config.d_model)
        return [ad.keep_mask(shape, rate, rng)
                for _ in range(2 * self.config.n_layers)]

    def _dropout(self, x: Tensor, keep: np.ndarray | None) -> Tensor:
        if keep is None:
            return x
        return ad.dropout(x, self.config.dropout, keep)

    def _attention(self, x: Tensor, layer: int,
                   keep: np.ndarray | None = None) -> Tensor:
        p = self.params
        pre = f"enc{layer}.attn"
        q = ad.linear(x, p[f"{pre}.wq"], p[f"{pre}.bq"])
        k = ad.linear(x, p[f"{pre}.wk"], p[f"{pre}.bk"])
        v = ad.linear(x, p[f"{pre}.wv"], p[f"{pre}.bv"])
        # scaling q (T x d) instead of the T x T logits lets softmax_matmul
        # turn each tile of logits into probabilities where it made them
        q = ad.scale(q, 1.0 / np.sqrt(self.config.head_dim))
        heads_q = ad.split_cols(q, self.config.n_heads)
        heads_k = ad.split_cols(k, self.config.n_heads)
        heads_v = ad.split_cols(v, self.config.n_heads)
        outs = []
        for hq, hk, hv in zip(heads_q, heads_k, heads_v):
            # full bidirectional context, with no T x T logit block; no name
            # holds a head's T x T probabilities, so under no_grad each block
            # is freed before the next head's is made
            outs.append(ad.matmul(ad.softmax_matmul(hq, ad.transpose(hk)), hv))
        merged = ad.concat_cols(outs)
        out = ad.linear(merged, p[f"{pre}.wo"], p[f"{pre}.bo"])
        return self._dropout(out, keep)

    def _ffn(self, x: Tensor, layer: int,
             keep: np.ndarray | None = None) -> Tensor:
        p = self.params
        pre = f"enc{layer}.ffn"
        h = ad.relu(ad.linear(x, p[f"{pre}.w1"], p[f"{pre}.b1"]))
        out = ad.linear(h, p[f"{pre}.w2"], p[f"{pre}.b2"])
        return self._dropout(out, keep)

    def encode(self, window: np.ndarray,
               keep: list[np.ndarray] | None = None) -> Tensor:
        """Embed + positional encoding + pre-norm residual encoder stack
        over a (T, N) window.

        `keep` holds the training forward's `dropout_keep` masks; None runs
        without dropout, as evaluation does."""
        x = ad.constant(window)
        if x.data.ndim != 2 or x.shape[1] != self.config.n_channels:
            raise ValueError(
                f"window must be (T, {self.config.n_channels}), got "
                f"{x.shape}")
        n_layers = self.config.n_layers
        if keep is None:
            keep = [None] * (2 * n_layers)
        elif len(keep) != 2 * n_layers:
            raise ValueError(f"{len(keep)} keep-masks for {2 * n_layers} "
                             f"dropout sites")
        h = ad.add(ad.linear(x, self.params["embed.w"],
                             self.params["embed.b"]),
                   self._pe(x.shape[0]))
        for i in range(n_layers):
            p = self.params
            a = ad.layer_norm(h, p[f"enc{i}.ln1.g"], p[f"enc{i}.ln1.b"])
            h = ad.add(h, self._attention(a, i, keep[2 * i]))
            f = ad.layer_norm(h, p[f"enc{i}.ln2.g"], p[f"enc{i}.ln2.b"])
            h = ad.add(h, self._ffn(f, i, keep[2 * i + 1]))
        return h

    def tcn_logits(self, features: Tensor) -> Tensor:
        """Residual dilated-conv stack over encoder features -> (T, C) logits.

        Dilations run 1, 2, 4, ... so a logit at time t depends on features
        within influence_radius samples only."""
        p = self.params
        h = ad.linear(features, p["tcn_in.w"], p["tcn_in.b"])
        for l in range(self.config.tcn_layers):
            c = ad.relu(ad.dilated_conv1d(
                h, p[f"tcn{l}.conv.k"], p[f"tcn{l}.conv.b"], dilation=2 ** l))
            c = ad.linear(c, p[f"tcn{l}.proj.w"], p[f"tcn{l}.proj.b"])
            h = ad.add(h, c)
        return ad.linear(h, p["tcn_out.w"], p["tcn_out.b"])

    def classify(self, window: np.ndarray,
                 keep: list[np.ndarray] | None = None) -> Tensor:
        """Per-sample class probabilities (T, C); rows sum to 1."""
        feats = self.encode(window, keep)
        return ad.softmax_rows(self.tcn_logits(feats))

    def reconstruct(self, window: np.ndarray,
                    keep: list[np.ndarray] | None = None) -> Tensor:
        """Signal estimate (T, N) from the shared encoder features."""
        feats = self.encode(window, keep)
        p = self.params
        h = ad.relu(ad.linear(feats, p["recon.w1"], p["recon.b1"]))
        return ad.linear(h, p["recon.w2"], p["recon.b2"])

    def predict_labels(self, window: np.ndarray) -> np.ndarray:
        """Argmax class per sample, eval mode, no graph recording."""
        with ad.no_grad():
            probs = self.classify(window)
        return np.argmax(probs.data, axis=1)
