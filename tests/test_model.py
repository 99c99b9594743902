"""Model structure checks: manual-numpy attention oracle, residual identities,
positional encoding formula, TCN locality, and a sampled finite-difference
gradient spot check through both routes."""

import platform
import tracemalloc

import numpy as np
import pytest

import fdtools
from repseg import autodiff as ad
from repseg.dataio import CONFIG_SCHEMA, DataFormatError, _check
from repseg.masking import (apply_mask, combined_loss, cross_entropy,
                            draw_mask, masked_mse, one_hot)
from repseg.model import (
    Model,
    ModelConfig,
    init_params,
    param_shapes,
    positional_encoding,
)
from repseg.train import TrainConfig, train_fold

TINY = dict(d_model=8, n_heads=2, n_layers=1, dropout=0.1, window_len=40,
            ffn_dim=16, tcn_layers=3, tcn_channels=4)
TINY_CLASSES = ModelConfig(**TINY).n_classes


def tiny_model(seed=0, **over):
    cfg = ModelConfig(**{**TINY, **over})
    return Model(cfg, rng=np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(kernel_size=2)
    with pytest.raises(ValueError, match="kernel_size must be positive"):
        ModelConfig(kernel_size=-1)
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    cfg = ModelConfig()
    assert cfg.ffn_dim == 512
    assert cfg.head_dim == 16
    assert ModelConfig(**cfg.to_dict()) == cfg
    with pytest.raises(DataFormatError,
                       match="model.width is not a known field"):
        _check({"model": {**cfg.to_dict(), "width": 3}}, CONFIG_SCHEMA,
               "config.json")


def test_receptive_field_numbers():
    assert ModelConfig().receptive_field == 255
    assert ModelConfig().influence_radius == 127
    assert ModelConfig(**TINY).receptive_field == 15
    assert ModelConfig(**TINY).influence_radius == 7


def test_param_count_full_scale():
    model = Model(ModelConfig(), rng=np.random.default_rng(0))
    # hand total: embed 896, 3 encoder layers of 198272, tcn_in 8256,
    # 7 tcn layers of 16512, tcn_out 390, recon 17286
    assert model.param_count() == 737228


def test_positional_encoding_formula():
    d = 16
    pe = positional_encoding(50, d)
    assert pe.shape == (50, d)
    assert np.abs(pe).max() <= 1.0
    assert np.array_equal(pe[0, 0::2], np.zeros(d // 2))
    assert np.array_equal(pe[0, 1::2], np.ones(d // 2))
    for t, i in [(3, 0), (17, 2), (49, 6)]:
        angle = t / 10000.0 ** (i / d)
        assert np.isclose(pe[t, i], np.sin(angle), atol=1e-12)
        assert np.isclose(pe[t, i + 1], np.cos(angle), atol=1e-12)


def test_attention_matches_manual_numpy():
    model = tiny_model(seed=3)
    cfg = model.config
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, cfg.d_model))

    got = model._attention(ad.constant(x), 0).data

    p = {k: v.data for k, v in model.params.items()}
    q = x @ p["enc0.attn.wq"] + p["enc0.attn.bq"]
    k = x @ p["enc0.attn.wk"] + p["enc0.attn.bk"]
    v = x @ p["enc0.attn.wv"] + p["enc0.attn.bv"]
    dk = cfg.head_dim
    outs = []
    for h in range(cfg.n_heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dk)
        scores -= scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=1, keepdims=True)
        outs.append(w @ v[:, sl])
    want = np.concatenate(outs, axis=1) @ p["enc0.attn.wo"] + p["enc0.attn.bo"]

    assert np.abs(got - want).max() < 1e-12


def test_zeroed_blocks_leave_residual_stream_unchanged():
    model = tiny_model(seed=1)
    for i in range(model.config.n_layers):
        model.params[f"enc{i}.attn.wo"].data[:] = 0.0
        model.params[f"enc{i}.ffn.w2"].data[:] = 0.0
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, model.config.n_channels))

    got = model.encode(x).data
    want = (x @ model.params["embed.w"].data + model.params["embed.b"].data) \
        + positional_encoding(20, model.config.d_model)
    assert np.array_equal(got, want)


def test_classify_rows_are_probabilities():
    model = tiny_model(seed=4)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((30, 6)) + [9.8, 0, 0, 0, 0, 0]
    probs = model.classify(w).data
    assert probs.shape == (30, model.config.n_classes)
    assert np.all(np.isfinite(probs))
    assert np.all(probs > 0.0)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_reconstruct_shape():
    model = tiny_model(seed=6)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((25, 6))
    out = model.reconstruct(x)
    assert out.shape == (25, 6)


def test_tcn_head_locality_is_exact():
    # 3 conv layers, kernel 3: influence radius = 1 + 2 + 4 = 7 samples
    model = tiny_model(seed=9)
    radius = model.config.influence_radius
    rng = np.random.default_rng(10)
    feats = rng.standard_normal((40, model.config.d_model))
    bumped = feats.copy()
    bumped[20] += 1.0

    a = model.tcn_logits(ad.constant(feats)).data
    b = model.tcn_logits(ad.constant(bumped)).data
    changed = np.any(a != b, axis=1)

    assert changed[20]
    inside = np.arange(40)[np.abs(np.arange(40) - 20) <= radius]
    outside = np.setdiff1d(np.arange(40), inside)
    assert not changed[outside].any()


def test_param_init_deterministic_and_forward_repeatable():
    m1, m2 = tiny_model(seed=11), tiny_model(seed=11)
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)

    x = np.random.default_rng(12).standard_normal((20, 6))
    assert np.array_equal(m1.classify(x).data, m2.classify(x).data)
    assert np.array_equal(m1.classify(x).data, m1.classify(x).data)


def test_dropout_only_in_training():
    model = tiny_model(seed=13)
    x = np.random.default_rng(14).standard_normal((20, 6))
    keeps = [model.dropout_keep(20, np.random.default_rng(s)) for s in (1, 2)]
    t1, t2 = (model.classify(x, keep).data for keep in keeps)
    assert not np.array_equal(t1, t2)
    assert np.array_equal(model.classify(x).data, model.classify(x).data)
    with pytest.raises(ValueError):
        model.classify(x, keeps[0][1:])  # one keep-mask per dropout site
    assert tiny_model(seed=13, dropout=0.0).dropout_keep(
        20, np.random.default_rng(1)) is None


def test_params_layout_validation():
    cfg = ModelConfig(**TINY)
    params = init_params(cfg, np.random.default_rng(0))
    Model(cfg, params=params)  # matching layout accepted
    bad = dict(params)
    bad["embed.w"] = np.zeros((6, 7))
    with pytest.raises(ValueError):
        Model(cfg, params=bad)
    assert set(param_shapes(cfg)) == set(params)


@pytest.mark.forked  # train_fold splits its batch of two over two CPUs
def test_parameters_and_gradients_are_views_of_two_flat_vectors():
    cfg = ModelConfig(**TINY)
    params = init_params(cfg, np.random.default_rng(0))
    start = {k: v.copy() for k, v in params.items()}
    model = Model(cfg, params=params)
    assert model.grad is None  # a model built for inference has none
    grad = model.gradient()
    assert model.gradient() is grad is model.grad
    assert model.data.shape == grad.shape == (model.param_count(),)
    offset = 0
    for name, shape in param_shapes(cfg).items():
        p, size = model.params[name], int(np.prod(shape))
        for view, vector in ((p.data, model.data), (p.grad, grad)):
            assert view.shape == shape
            assert np.shares_memory(view, vector[offset:offset + size])
            assert not np.shares_memory(view, vector[:offset])
            assert not np.shares_memory(view, vector[offset + size:])
        assert np.array_equal(p.data, params[name])
        offset += size
    assert offset == model.data.size
    assert not any(np.shares_memory(model.data, v) for v in params.values())

    # training writes only its own copy of the arrays passed in
    rng = np.random.default_rng(1)
    labels = rng.integers(0, cfg.n_classes, size=(2, cfg.window_len))
    res = train_fold(rng.standard_normal((2, cfg.window_len, 6)), labels,
                     cfg, TrainConfig(batch_size=2, epochs=1, patch_len=10),
                     params=params)
    assert not np.array_equal(res.model.data, model.data)
    for name, v in params.items():
        assert np.array_equal(v, start[name]), name


def test_sampled_fd_gradients_through_both_routes():
    model = tiny_model(seed=15, dropout=0.0)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((16, 6))
    w_cls = rng.standard_normal((16, model.config.n_classes))
    w_rec = rng.standard_normal((16, 6))

    def graph_loss():
        probs = model.classify(x)
        recon = model.reconstruct(x)
        return ad.add(ad.sum_all(ad.mul(probs, ad.constant(w_cls))),
                      ad.sum_all(ad.mul(recon, ad.constant(w_rec))))

    with ad.Tape() as tape:
        loss = graph_loss()
    tape.backward(loss)

    coords = fdtools.sample_coords(model.params, 2, np.random.default_rng(17))
    err, checked = fdtools.max_rel_error(
        model.params, lambda: graph_loss().item(), coords=coords, h=1e-5)
    assert checked >= 2 * len(model.params) - 5
    assert err < 1e-5, f"max rel err {err:.3g} over {checked} coords"


class ReadOnlyGradTape(ad.Tape):
    """A tape that hands every backward closure a read-only gradient, so a
    closure writing into the gradient it receives raises. (A 0-d product
    can arrive as a numpy scalar, which is immutable already.)"""

    def _record(self, out, inputs, backward_fn):
        def guarded(g):
            if isinstance(g, np.ndarray):
                g.flags.writeable = False
            return backward_fn(g)

        super()._record(out, inputs, guarded)


def test_no_backward_writes_into_its_incoming_gradient():
    # one training step over both routes (dropout on, masked reconstruction)
    # must run with read-only gradients and match an ordinary tape exactly
    x = np.random.default_rng(18).standard_normal((40, 6))
    labels = np.arange(40) % TINY_CLASSES
    mask = draw_mask(40, 6, 10, 0.5, np.random.default_rng(19))
    grads = []
    for tape_cls in (ReadOnlyGradTape, ad.Tape):
        model = tiny_model(seed=20)
        rng = np.random.default_rng(21)
        with tape_cls() as tape:
            ce = cross_entropy(model.classify(x, model.dropout_keep(40, rng)),
                               one_hot(labels, TINY_CLASSES))
            recon = model.reconstruct(apply_mask(x, mask),
                                      model.dropout_keep(40, rng))
            loss = combined_loss(ce, masked_mse(x, recon, mask), 500.0)
        tape.backward(loss)
        grads.append({k: p.grad for k, p in model.params.items()})
    guarded, plain = grads
    for name, g in plain.items():
        assert g is not None, name
        assert np.array_equal(guarded[name], g), name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set on glibc only")
def test_warm_full_length_window_takes_no_page_faults():
    # each 800x800 attention block is 5 MB; freed blocks must be reused
    # from the heap, not returned to the kernel and faulted back in
    import resource  # POSIX only, like the skip condition

    model = Model(ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_dim=32,
                              tcn_layers=3, tcn_channels=8, window_len=800),
                  rng=np.random.default_rng(22))
    x = np.random.default_rng(23).standard_normal((800, 6))

    def forward_backward():
        with ad.Tape() as tape:
            loss = ad.sum_all(model.classify(x))
        tape.backward(loss)

    for step in (lambda: model.predict_labels(x), forward_backward):
        step()  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100, f"{faults} minor page faults"


@pytest.mark.parametrize("n_heads, n_layers", [(2, 1), (4, 2)])
def test_no_grad_forward_holds_one_attention_block(n_heads, n_layers):
    # each head's 800x800 probabilities (5 MB) must be freed before the next
    # head's are made, so no two blocks are alive at once
    model = Model(ModelConfig(d_model=16, n_heads=n_heads, n_layers=n_layers,
                              ffn_dim=32, tcn_layers=3, tcn_channels=8,
                              window_len=800),
                  rng=np.random.default_rng(24))
    x = np.random.default_rng(25).standard_normal((800, 6))
    model.predict_labels(x)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.predict_labels(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = 800 * 800 * 8
    assert peak < 1.5 * block, f"peak {peak / block:.2f} attention blocks"
