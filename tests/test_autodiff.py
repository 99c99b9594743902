"""Gradient checks for the autodiff core against central finite differences.

The FD oracle is the independent route: every op's analytic gradient must
match numeric differentiation of the same forward code to tight float64
tolerance on smooth inputs.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repseg import autodiff
from repseg.autodiff import (
    GraphError,
    Tape,
    Tensor,
    add,
    concat_cols,
    constant,
    dilated_conv1d,
    dropout,
    keep_mask,
    layer_norm,
    linear,
    log_clamped,
    matmul,
    mul,
    no_grad,
    parameter,
    relu,
    scale,
    softmax_matmul,
    softmax_rows,
    split_cols,
    sub,
    sum_all,
    transpose,
)


def fd_check(build, arrays, h=1e-6, tol=1e-6):
    """Compare tape gradients of scalar build(tensors) to central differences."""
    tensors = [parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        loss = build(tensors)
    tape.backward(loss)

    for ti, arr in enumerate(arrays):
        numeric = np.zeros_like(arr)
        for i in range(arr.size):
            vals = []
            for sgn in (+1.0, -1.0):
                pert = [a.copy() for a in arrays]
                pert[ti].reshape(-1)[i] += sgn * h
                vals.append(build([constant(p) for p in pert]).item())
            numeric.reshape(-1)[i] = (vals[0] - vals[1]) / (2.0 * h)
        got = tensors[ti].grad
        assert got is not None, f"no gradient for input {ti}"
        denom = max(np.abs(numeric).max(), 1e-8)
        err = np.abs(got - numeric).max() / denom
        assert err < tol, f"input {ti}: rel err {err:.3g}"


def rnd(rng, *shape):
    return rng.standard_normal(shape)


def test_add_sub_mul_scale_grads():
    rng = np.random.default_rng(0)
    a, b = rnd(rng, 4, 3), rnd(rng, 4, 3)

    fd_check(lambda t: sum_all(mul(add(t[0], t[1]), t[0])), [a, b])
    fd_check(lambda t: sum_all(mul(sub(t[0], t[1]), t[1])), [a, b])
    fd_check(lambda t: sum_all(scale(mul(t[0], t[0]), 2.5)), [a])


def test_matmul_chain_grad():
    rng = np.random.default_rng(2)
    a, b, c = rnd(rng, 4, 3), rnd(rng, 3, 5), rnd(rng, 5, 2)
    fd_check(lambda t: sum_all(matmul(matmul(t[0], t[1]), t[2])), [a, b, c])


def test_linear_grad():
    rng = np.random.default_rng(13)
    x, w, b = rnd(rng, 5, 4), rnd(rng, 4, 3), rnd(rng, 3)
    fd_check(lambda t: sum_all(mul(linear(t[0], t[1], t[2]),
                                   linear(t[0], t[1], t[2]))), [x, w, b])


def test_linear_is_bit_identical_to_matmul_plus_bias():
    # the same float operations as a separate matmul and bias add
    rng = np.random.default_rng(14)
    x_arr, w_arr, b_arr, c_arr = (rnd(rng, 7, 5), rnd(rng, 5, 3),
                                  rnd(rng, 3), rnd(rng, 7, 3))
    x, w, b = parameter(x_arr), parameter(w_arr), parameter(b_arr)
    with Tape() as tape:
        y = linear(x, w, b)
        loss = sum_all(mul(y, constant(c_arr)))
    tape.backward(loss)
    assert np.array_equal(y.data, x_arr @ w_arr + b_arr)
    assert np.array_equal(x.grad, c_arr @ w_arr.T)
    assert np.array_equal(w.grad, x_arr.T @ c_arr)
    assert np.array_equal(b.grad, c_arr.sum(axis=0))


def test_linear_shape_errors():
    x, w, b = (constant(np.zeros(s)) for s in ((4, 3), (3, 2), (2,)))
    for bad in (
            (constant(np.zeros(3)), w, b),             # 1-D input
            (x, constant(np.zeros((3, 2, 1))), b),     # 3-D weight
            (x, constant(np.zeros((4, 2))), b),        # inner dims differ
            (x, w, constant(np.zeros(3))),             # bias length
            (x, w, constant(np.zeros((1, 2))))):       # 2-D bias
        with pytest.raises(ValueError):
            linear(*bad)


def test_transpose_grad():
    rng = np.random.default_rng(3)
    a, b = rnd(rng, 4, 3), rnd(rng, 4, 3)
    fd_check(lambda t: sum_all(matmul(transpose(t[0]), t[1])), [a, b])


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(4)
    a = rnd(rng, 6, 4)
    a[np.abs(a) < 0.05] = 0.1
    fd_check(lambda t: sum_all(mul(relu(t[0]), relu(t[0]))), [a])


def test_log_clamped_grad_and_clamp():
    rng = np.random.default_rng(5)
    a = np.abs(rnd(rng, 5, 3)) + 0.5
    fd_check(lambda t: sum_all(log_clamped(t[0])), [a])

    # below the clamp the value is log(eps) and the gradient is zero
    x = parameter(np.array([[1e-15, 2.0]]))
    with Tape() as tape:
        y = sum_all(log_clamped(x, eps=1e-12))
    tape.backward(y)
    assert np.isclose(log_clamped(x).data[0, 0], np.log(1e-12))
    assert x.grad[0, 0] == 0.0
    assert np.isclose(x.grad[0, 1], 0.5)


def test_softmax_rows_grad_and_normalization():
    rng = np.random.default_rng(6)
    x = rnd(rng, 5, 7)
    w = rnd(rng, 5, 7)
    fd_check(lambda t: sum_all(mul(softmax_rows(t[0]), constant(w))), [x])

    s = softmax_rows(constant(x * 50.0))  # large logits stay finite
    assert np.all(np.isfinite(s.data))
    assert np.abs(s.data.sum(axis=1) - 1.0).max() < 1e-12

    # the in-place forward and backward write only into fresh arrays
    xt = parameter(x.copy())
    with Tape() as tape:
        s = softmax_rows(xt)
        loss = sum_all(mul(s, constant(w)))
    kept = s.data.copy()
    tape.backward(loss)
    assert np.array_equal(xt.data, x)
    assert np.array_equal(s.data, kept)


def largest_exp_argument(monkeypatch, a, b):
    """softmax_matmul(a, b)'s output and the largest value other than NaN
    it passed to np.exp: the largest logit without the row-max shift, 0.0
    with it."""
    seen, exp = [], np.exp

    def spy(x, *args, **kwargs):
        seen.append(np.nanmax(x))
        return exp(x, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", spy)
        p = softmax_matmul(constant(a), constant(b)).data
    return p, max(seen)


# the default bound exponentiates these logits unshifted; 0.0 forces the
# row-max shift
@pytest.mark.parametrize(
    "tile_rows, exp_safe_bound",
    [(8, autodiff.EXP_SAFE_BOUND), (2, autodiff.EXP_SAFE_BOUND),
     (3, autodiff.EXP_SAFE_BOUND), (8, 0.0), (2, 0.0), (3, 0.0)],
    ids=["one_tile", "four_tiles", "ragged_last_tile", "one_tile-shifted",
         "four_tiles-shifted", "ragged_last_tile-shifted"])
def test_softmax_matmul_grad_and_equality_to_two_ops(monkeypatch, tile_rows,
                                                     exp_safe_bound):
    rng = np.random.default_rng(16)
    a, b, w = rnd(rng, 8, 3), rnd(rng, 3, 5), rnd(rng, 8, 5)
    monkeypatch.setattr(autodiff, "SOFTMAX_TILE_BYTES", tile_rows * 8 * 5)
    monkeypatch.setattr(autodiff, "EXP_SAFE_BOUND", exp_safe_bound)
    fd_check(lambda t: sum_all(mul(softmax_matmul(t[0], t[1]),
                                   constant(w))), [a, b])

    grads = []
    for build in (softmax_matmul, lambda x, y: softmax_rows(matmul(x, y))):
        ta, tb = parameter(a.copy()), parameter(b.copy())
        with Tape() as tape:
            p = build(ta, tb)
            loss = sum_all(mul(p, constant(w)))
        tape.backward(loss)
        grads.append((p.data, ta.grad, tb.grad))
    (p, g_a, g_b), (p_ref, g_a_ref, g_b_ref) = grads
    assert np.abs(p - p_ref).max() <= 1e-15
    assert np.abs(g_a - g_a_ref).max() <= 1e-14
    assert np.abs(g_b - g_b_ref).max() <= 1e-14
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


def test_softmax_matmul_shifts_logits_beyond_the_bound():
    rng = np.random.default_rng(17)
    a, b = rnd(rng, 8, 3) * 30.0, rnd(rng, 3, 5) * 30.0
    logits = a @ b
    assert logits.max() - logits.min() > 1500.0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        p = softmax_matmul(constant(a), constant(b)).data
        p_ref = softmax_rows(constant(logits)).data
    assert np.all(np.isfinite(p))
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(p - p_ref).max() <= 1e-15


def test_softmax_matmul_skips_the_shift_at_the_bound(monkeypatch):
    # rows of norm at most 15 and columns of norm at most 20, both reached,
    # so the Cauchy-Schwarz bound is 300 exactly and logits reach +-300
    rng = np.random.default_rng(18)
    a = rng.integers(-10, 11, size=(800, 2)).astype(float)
    b = rng.integers(-14, 15, size=(2, 800)).astype(float)
    a[0], b[:, 0], b[:, 1] = (15.0, 0.0), (20.0, 0.0), (-20.0, 0.0)
    assert autodiff.EXP_SAFE_BOUND == 300.0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        p, largest = largest_exp_argument(monkeypatch, a, b)
        p_ref = softmax_rows(constant(a @ b)).data
    assert largest == 300.0  # exponentiated unshifted
    assert np.all(np.isfinite(p)) and p.min() > 0.0
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(p - p_ref).max() <= 1e-15
    monkeypatch.setattr(autodiff, "EXP_SAFE_BOUND", 299.0)
    assert largest_exp_argument(monkeypatch, a, b)[1] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_softmax_matmul_non_finite_input_takes_the_shifted_path(monkeypatch,
                                                                 bad):
    rng = np.random.default_rng(19)
    a, b = rnd(rng, 6, 3), rnd(rng, 3, 4)
    a[2, 1] = bad
    with np.errstate(invalid="ignore"):
        p, largest = largest_exp_argument(monkeypatch, a, b)
        monkeypatch.setattr(autodiff, "EXP_SAFE_BOUND", 0.0)
        p_shifted = softmax_matmul(constant(a), constant(b)).data
    assert largest == 0.0  # shifted
    assert np.isnan(p[2]).all()
    assert np.array_equal(p, p_shifted, equal_nan=True)


def test_softmax_matmul_shape_errors():
    with pytest.raises(ValueError, match="softmax_matmul shape mismatch"):
        softmax_matmul(constant(np.ones((4, 3))), constant(np.ones((2, 4))))
    with pytest.raises(ValueError, match="softmax_matmul shape mismatch"):
        softmax_matmul(constant(np.ones(3)), constant(np.ones((3, 4))))


def test_layer_norm_grad():
    rng = np.random.default_rng(7)
    x, gain, bias = rnd(rng, 6, 8), rnd(rng, 8) + 1.5, rnd(rng, 8)
    fd_check(
        lambda t: sum_all(mul(layer_norm(t[0], t[1], t[2]),
                              layer_norm(t[0], t[1], t[2]))),
        [x, gain, bias], tol=5e-6)


@pytest.mark.parametrize("shape", [(800, 128), (160, 16), (7, 5), (1, 3)])
@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
def test_layer_norm_forward_matches_numpy_var_bit_for_bit(shape, magnitude):
    rng = np.random.default_rng(shape[0] + shape[1])
    x = rnd(rng, *shape) * magnitude
    gain, bias = rnd(rng, shape[1]), rnd(rng, shape[1])
    inv_std = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    want = (x - x.mean(axis=1, keepdims=True)) * inv_std * gain + bias
    got = layer_norm(constant(x), constant(gain), constant(bias)).data
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_dilated_conv1d_grad(dilation):
    rng = np.random.default_rng(8 + dilation)
    x = rnd(rng, 12, 3)
    k = rnd(rng, 3, 3, 2) * 0.5
    b = rnd(rng, 2)
    fd_check(
        lambda t: sum_all(mul(dilated_conv1d(t[0], t[1], t[2], dilation),
                              dilated_conv1d(t[0], t[1], t[2], dilation))),
        [x, k, b], tol=5e-6)


def test_conv_same_length_and_centering():
    # identity kernel at the center tap reproduces the input exactly
    x = constant(np.arange(10.0).reshape(10, 1))
    k = np.zeros((3, 1, 1))
    k[1, 0, 0] = 1.0
    zero_bias = constant(np.zeros(1))
    y = dilated_conv1d(x, constant(k), zero_bias, dilation=4)
    assert y.shape == (10, 1)
    assert np.array_equal(y.data, x.data)

    # an off-center tap shifts by dilation and zero-pads the border
    k2 = np.zeros((3, 1, 1))
    k2[2, 0, 0] = 1.0
    y2 = dilated_conv1d(x, constant(k2), zero_bias, dilation=2)
    assert np.array_equal(y2.data[:8], x.data[2:])
    assert np.all(y2.data[8:] == 0.0)


def test_conv_shape_validation():
    x, b = constant(np.zeros((10, 3))), constant(np.zeros(2))
    with pytest.raises(ValueError):
        dilated_conv1d(x, constant(np.zeros((2, 3, 2))), b, 1)  # even k
    with pytest.raises(ValueError):
        dilated_conv1d(x, constant(np.zeros((3, 4, 2))), b, 1)  # channels
    with pytest.raises(ValueError):
        dilated_conv1d(x, constant(np.zeros((3, 3, 2))), b, 0)  # dilation


def test_split_concat_roundtrip_grad():
    rng = np.random.default_rng(11)
    x = rnd(rng, 5, 6)
    w = rnd(rng, 5, 6)

    def build(t):
        parts = split_cols(t[0], 3)
        back = concat_cols(parts[::-1])
        return sum_all(mul(back, constant(w)))

    fd_check(build, [x])

    parts = split_cols(constant(x), 3)
    assert np.array_equal(concat_cols(parts).data, x)


def test_two_consumer_accumulation():
    # y feeding two ops must receive the sum of both gradient paths
    x = parameter(np.array([[2.0, -1.0]]))
    c1 = constant(np.array([[3.0, 3.0]]))
    c2 = constant(np.array([[4.0, 4.0]]))
    with Tape() as tape:
        loss = sum_all(add(mul(x, c1), mul(x, c2)))
    tape.backward(loss)
    assert np.array_equal(x.grad, np.array([[7.0, 7.0]]))

    x2 = parameter(np.array([[5.0]]))
    with Tape() as tape:
        loss = sum_all(mul(x2, x2))
    tape.backward(loss)
    assert np.allclose(x2.grad, [[10.0]])


def test_tape_frees_an_intermediate_no_backward_reads():
    # matmul's output feeds only softmax_rows, whose backward reads its own
    # output: the tape must not keep the logits alive
    rng = np.random.default_rng(15)
    arrays = [rnd(rng, 6, 4), rnd(rng, 4, 6)]
    w = rnd(rng, 6, 6)

    def build(t):
        return sum_all(mul(softmax_rows(matmul(t[0], t[1])), constant(w)))

    x, y = (parameter(a.copy()) for a in arrays)
    with Tape() as tape:
        logits = matmul(x, y)
        alive = weakref.ref(logits.data)
        probs = softmax_rows(logits)
        del logits
        gc.collect()
        assert alive() is None
        loss = sum_all(mul(probs, constant(w)))
    tape.backward(loss)
    fd_check(build, arrays)


def test_many_dropped_temporaries_under_one_tape():
    # freed temporaries must not be confused with tensors created later;
    # with id() keys a new leaf can take a dead intermediate's id
    x = parameter(np.array([[1.5, -2.0, 0.5]]))
    leaves = []
    with Tape() as tape:
        total = sum_all(mul(x, x))
        for i in range(300):
            leaf = parameter(np.full((1, 3), 0.01 * i))
            tmp = mul(x, leaf)
            total = add(total, sum_all(tmp))
            del tmp
            leaves.append(leaf)
    tape.backward(total)
    want_x = 2.0 * x.data + sum(leaf.data for leaf in leaves)
    assert np.allclose(x.grad, want_x, rtol=1e-13, atol=0.0)
    for leaf in leaves:
        assert np.array_equal(leaf.grad, x.data)


def test_grad_accumulates_until_zeroed():
    x = parameter(np.ones((2, 2)))
    for expected in (1.0, 2.0):
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        assert np.all(x.grad == expected)


def test_backward_twice_raises():
    x = parameter(np.ones(3))
    with Tape() as tape:
        loss = sum_all(x)
    tape.backward(loss)
    with pytest.raises(GraphError):
        tape.backward(loss)


def test_consecutive_backwards_on_one_tape_match_separate_tapes():
    # two losses sharing leaves, each backwarded as soon as it exists, must
    # leave the same leaf gradients as one tape per loss
    rng = np.random.default_rng(30)
    arrays = [rnd(rng, 4, 5), rnd(rng, 5, 3), rnd(rng, 3)]
    w = rnd(rng, 4, 3)

    def first(x, y, b):
        return sum_all(mul(softmax_rows(linear(x, y, b)), constant(w)))

    def second(x, y, b):
        h = relu(matmul(x, y))
        return sum_all(mul(h, h))

    leaves = [parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        tape.backward(first(*leaves))
        tape.backward(second(*leaves))
    separate = [parameter(a.copy()) for a in arrays]
    for build in (first, second):
        with Tape() as t:
            loss = build(*separate)
        t.backward(loss)
    for got, want in zip(leaves, separate):
        assert np.array_equal(got.grad, want.grad)


def test_op_reading_an_already_backwarded_tensor_raises():
    # h's record ran with the first backward; treating h as a leaf would
    # silently drop the gradient path back to x
    x = parameter(np.array([[1.0, -2.0]]))
    with Tape() as tape:
        h = mul(x, x)
        tape.backward(sum_all(h))
        with pytest.raises(GraphError):
            sum_all(h)
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_backward_of_a_loss_recorded_before_the_previous_backward_raises():
    x = parameter(np.ones(3))
    with Tape() as tape:
        early = sum_all(mul(x, x))
        late = sum_all(x)
        tape.backward(late)
        with pytest.raises(GraphError):
            tape.backward(early)
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_non_scalar_raises():
    x = parameter(np.ones((2, 2)))
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(GraphError):
        tape.backward(y)


def test_backward_detached_raises():
    x = parameter(np.ones(3))
    loss = sum_all(x)  # no tape open
    with Tape() as tape:
        pass
    with pytest.raises(GraphError):
        tape.backward(loss)

    # produced under a different tape is also detached
    with Tape() as t1:
        loss = sum_all(x)
    with Tape() as t2:
        pass
    with pytest.raises(GraphError):
        t2.backward(loss)


def test_no_grad_suppresses_recording():
    x = parameter(np.ones(3))
    with Tape() as tape:
        with no_grad():
            y = sum_all(x)
        z = sum_all(x)
    tape.backward(z)
    assert np.all(x.grad == 1.0)
    with Tape() as t2:
        pass
    with pytest.raises(GraphError):
        t2.backward(y)


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(12)
    x = parameter(np.ones((200, 50)))
    keep = keep_mask(x.shape, 0.3, rng)
    with Tape() as tape:
        y = dropout(x, 0.3, keep)
        loss = sum_all(y)
    tape.backward(loss)

    kept = y.data != 0.0
    assert np.array_equal(kept, keep)
    assert np.allclose(y.data[kept], 1.0 / 0.7)
    assert abs(kept.mean() - 0.7) < 0.02
    # gradient is the same inverted mask
    assert np.allclose(x.grad[kept], 1.0 / 0.7)
    assert np.all(x.grad[~kept] == 0.0)

    z = dropout(x, 0.0, keep_mask(x.shape, 0.0, rng))
    assert z is x
    with pytest.raises(ValueError):
        dropout(x, 0.3, keep[:-1])


def test_dropout_keeps_its_byte_mask_and_rounds_as_a_float_mask():
    # the node scales a * keep by 1/(1-rate) where it used to multiply by
    # keep/(1-rate); both must round alike, signed zeros included
    rng = np.random.default_rng(31)
    a = rng.standard_normal((800, 128))
    g = rng.standard_normal(a.shape)
    rate = 0.1
    keep = keep_mask(a.shape, rate, rng)
    backward_fns = []

    class CapturingTape(Tape):
        def _record(self, out, inputs, backward_fn):
            backward_fns.append(backward_fn)
            super()._record(out, inputs, backward_fn)

    x = parameter(a)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with CapturingTape():
            y = dropout(x, rate, keep)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the output's 8 bytes per element, and no float64 copy of the mask
    assert held < 12 * a.size, f"{held / a.size:.1f} bytes per element"

    float_mask = keep / (1.0 - rate)
    assert np.array_equal(y.data.view(np.int64),
                          (a * float_mask).view(np.int64))
    (gx,) = backward_fns[0](g)
    assert np.array_equal(gx.view(np.int64), (g * float_mask).view(np.int64))


def test_float64_and_contiguity():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
    assert x.data.dtype == np.float64
    assert x.data.flags["C_CONTIGUOUS"]


def test_shape_mismatch_errors():
    a = constant(np.zeros((2, 3)))
    b = constant(np.zeros((3, 2)))
    for op in (add, sub, mul):
        with pytest.raises(ValueError):
            op(a, b)
    with pytest.raises(ValueError):
        add(a, constant(np.zeros(3)))  # no bias-row broadcast
    with pytest.raises(ValueError):
        matmul(a, constant(np.zeros((2, 2))))
