import re

import numpy as np
import pytest

from eisgan_soh import ndgrad as ng


#: the dtypes the ops compute in: float64, and float32 for GAN training
DTYPES = (np.float64, np.float32)


def make_bank(rng, k_out, r_in, k_w, dtype=np.float64):
    return ng.ConvKernelBank(
        ng.Tensor(rng.standard_normal((k_out, r_in, k_w)).astype(dtype)),
        ng.Tensor(rng.standard_normal(k_out).astype(dtype)))


def cast_bank(bank, dtype):
    return ng.ConvKernelBank(ng.Tensor(bank.kernels.data.astype(dtype)),
                             ng.Tensor(bank.biases.data.astype(dtype)))


def sum_loss(x):
    """The sum of every element of x as a scalar loss: a dense row of ones."""
    flat = ng.reshape(x, (1, x.size))
    total = ng.dense(flat, ng.Tensor(np.ones((1, x.size))), ng.Tensor(np.zeros(1)))
    return ng.reshape(total, ())


def central_diff(loss_fn, arrays, grads, h=1e-5, rel_tol=1e-4):
    """Compare analytic grads against central finite differences."""
    for arr, grad in zip(arrays, grads):
        flat = arr.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp = loss_fn()
            flat[i] = old - h
            lm = loss_fn()
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            an = grad.ravel()[i]
            denom = max(abs(fd), abs(an), 1e-6)
            assert abs(fd - an) / denom < rel_tol, f"index {i}: fd={fd} analytic={an}"


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv1d_identity_kernel():
    bank = ng.ConvKernelBank(ng.Tensor(np.ones((1, 1, 1))), ng.Tensor(np.zeros(1)))
    out = ng.conv1d(ng.Tensor([[[1.0, 2.0, 3.0]]]), bank, padding=0)
    np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0]]])


def test_conv1d_hand_sum():
    # kernel [1,1], bias 10: outputs are pairwise sums plus bias
    bank = ng.ConvKernelBank(ng.Tensor(np.ones((1, 1, 2))), ng.Tensor([10.0]))
    out = ng.conv1d(ng.Tensor([[[1.0, 2.0, 3.0]]]), bank, padding=0)
    np.testing.assert_array_equal(out.data, [[[13.0, 15.0]]])


def test_conv1d_bias_only():
    bank = ng.ConvKernelBank(ng.Tensor(np.zeros((2, 1, 3))), ng.Tensor([0.5, 0.5]))
    out = ng.conv1d(ng.Tensor(np.zeros((1, 1, 8))), bank, padding=1)
    assert np.all(out.data == 0.5)


def test_conv1d_output_length():
    rng = np.random.default_rng(0)
    bank = make_bank(rng, 3, 2, 5)
    out = ng.conv1d(ng.Tensor(rng.standard_normal((1, 2, 60))), bank, padding=2)
    assert out.shape == (1, 3, 60)


def test_conv1d_channel_mismatch_rejected():
    rng = np.random.default_rng(0)
    bank = make_bank(rng, 3, 2, 5)
    with pytest.raises(ng.ShapeError):
        ng.conv1d(ng.Tensor(rng.standard_normal((1, 4, 60))), bank, padding=2)


def test_conv1d_rejects_unbatched_input():
    bank = make_bank(np.random.default_rng(0), 3, 2, 5)
    with pytest.raises(ng.ShapeError, match=r"conv1d input shape \(2, 60\)"):
        ng.conv1d(ng.Tensor(np.zeros((2, 60))), bank, padding=2)


def test_conv1d_too_short_rejected():
    rng = np.random.default_rng(0)
    bank = make_bank(rng, 1, 1, 7)
    with pytest.raises(ng.ShapeError):
        ng.conv1d(ng.Tensor(rng.standard_normal((1, 1, 4))), bank, padding=1)


def test_conv1d_matches_triple_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r_in = rng.integers(1, 5)
        k_out = rng.integers(1, 9)
        k_w = rng.integers(1, 6)
        length = rng.integers(k_w, 65)
        pad = rng.integers(0, 3)
        x = rng.standard_normal((r_in, length))
        bank = make_bank(rng, k_out, r_in, k_w)
        out = ng.conv1d(ng.Tensor(x[None]), bank, padding=pad).data[0]
        xp = np.pad(x, ((0, 0), (pad, pad)))
        l_out = length + 2 * pad - k_w + 1
        ref = np.zeros((k_out, l_out))
        for o in range(k_out):
            for t in range(l_out):
                acc = bank.biases.data[o]
                for r in range(r_in):
                    for k in range(k_w):
                        acc += xp[r, t + k] * bank.kernels.data[o, r, k]
                ref[o, t] = acc
        assert np.abs(out - ref).max() < 1e-12


def reference_conv1d(x, bank, padding=0):
    """conv1d with the np.pad + sliding_window_view im2col; same GEMMs as
    ng.conv1d, whose im2col columns run over (position, batch).

    Its backward ignores `need` and always returns all three gradients.
    """
    w, b = bank.kernels, bank.biases
    k_out, r_in, k_w = w.shape
    batch, _, length = x.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    l_out = length + 2 * padding - k_w + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, k_w, axis=2)
    col = win.transpose(1, 3, 2, 0).reshape(r_in * k_w, l_out * batch)
    w_mat = w.data.reshape(k_out, r_in * k_w)
    out = ((w_mat @ col) + b.data[:, None]).reshape(k_out, l_out, batch).transpose(2, 0, 1)

    def bw(g, need):
        g_mat = g.transpose(1, 2, 0).reshape(k_out, l_out * batch)
        gw = (g_mat @ col.T).reshape(k_out, r_in, k_w)
        gbias = g_mat.sum(axis=1)
        gcol = (w_mat.T @ g_mat).reshape(r_in, k_w, l_out, batch).transpose(3, 0, 1, 2)
        gxp = np.zeros_like(xp)
        for k in range(k_w):
            gxp[:, :, k:k + l_out] += gcol[:, :, k, :]
        gx = gxp[:, :, padding:padding + length] if padding else gxp
        return gx, gw, gbias

    return ng._record(out, (x, w, b), bw)


def batch_major_conv1d(x, bank, padding=0):
    """conv1d as it was before batch-last memory: im2col columns over (batch,
    position), so its GEMMs and bias sums add in another order. It rounds
    differently from ng.conv1d and agrees with it to a tolerance."""
    w, b = bank.kernels, bank.biases
    k_out, r_in, k_w = w.shape
    batch, _, length = x.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    l_out = length + 2 * padding - k_w + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, k_w, axis=2)
    col = win.transpose(1, 3, 0, 2).reshape(r_in * k_w, batch * l_out)
    w_mat = w.data.reshape(k_out, r_in * k_w)
    out = (w_mat @ col).reshape(k_out, batch, l_out).transpose(1, 0, 2) \
        + b.data[None, :, None]

    def bw(g, need):
        g_mat = g.transpose(1, 0, 2).reshape(k_out, batch * l_out)
        gw = (g_mat @ col.T).reshape(k_out, r_in, k_w)
        gbias = g_mat.sum(axis=1)
        gcol = (w_mat.T @ g_mat).reshape(r_in, k_w, batch, l_out).transpose(2, 0, 1, 3)
        gxp = np.zeros_like(xp)
        for k in range(k_w):
            gxp[:, :, k:k + l_out] += gcol[:, :, k, :]
        gx = gxp[:, :, padding:padding + length] if padding else gxp
        return gx, gw, gbias

    return ng._record(out, (x, w, b), bw)


@pytest.mark.parametrize("batch", [1, 4])
def test_conv1d_bit_identical_to_pad_window_reference(batch):
    rng = np.random.default_rng(21)
    for k_w in range(1, 6):
        for pad in range(3):
            for r_in in (1, 3):
                k_out = int(rng.integers(1, 9))
                length = int(rng.integers(max(k_w - 2 * pad, 1), 40))
                x64 = rng.standard_normal((batch, r_in, length))
                bank64 = make_bank(rng, k_out, r_in, k_w)
                g64 = None
                for dtype, tol in zip(DTYPES, (1e-12, 1e-5)):
                    x, bank = x64.astype(dtype), cast_bank(bank64, dtype)
                    with ng.Tape():
                        out = ng.conv1d(ng.Tensor(x), bank, padding=pad)
                        ref = reference_conv1d(ng.Tensor(x), bank, padding=pad)
                    if g64 is None:
                        g64 = rng.standard_normal(out.shape)
                    g = g64.astype(dtype)
                    need = (True, True, True)
                    pairs = [(out.data, ref.data)] + list(zip(out.backward_fn(g, need),
                                                              ref.backward_fn(g, need)))
                    for got, want in pairs:
                        assert got.shape == want.shape and got.dtype == dtype
                        if r_in == 1 and batch == 1:
                            # the reference's reshape returns an overlapping strided
                            # view here, not a copy, so its GEMM rounds differently
                            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
                        else:
                            assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [1, 4])
def test_conv1d_wide_padding_on_short_input_matches_reference(batch):
    # padding at or beyond the input length: some taps land wholly in the
    # discarded margins, and col2im must skip them
    rng = np.random.default_rng(22)
    for k_w in range(1, 12, 2):
        for pad in sorted({(k_w - 1) // 2, k_w - 1}):
            for length in range(1, 5):
                if length + 2 * pad < k_w:
                    continue
                x64 = rng.standard_normal((batch, 3, length))
                bank64 = make_bank(rng, 4, 3, k_w)
                g64 = None
                for dtype, tol in zip(DTYPES, (1e-12, 1e-5)):
                    x, bank = x64.astype(dtype), cast_bank(bank64, dtype)
                    with ng.Tape():
                        out = ng.conv1d(ng.Tensor(x), bank, padding=pad)
                        ref = reference_conv1d(ng.Tensor(x), bank, padding=pad)
                    if g64 is None:
                        g64 = rng.standard_normal(out.shape)
                    g = g64.astype(dtype)
                    need = (True, True, True)
                    (gx, gw, gb), (rx, rw, rb) = (out.backward_fn(g, need),
                                                  ref.backward_fn(g, need))
                    assert gx.shape == rx.shape and np.array_equal(gx, rx)
                    assert np.array_equal(gb, rb)
                    assert gx.dtype == gw.dtype == gb.dtype == out.data.dtype == dtype
                    # with one output position the reference's reshape of the window
                    # view can stay a strided view, so its GEMMs round differently
                    for got, want in ((out.data, ref.data), (gw, rw)):
                        assert got.shape == want.shape
                        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("batch", [1, 4, 32])
def test_conv1d_agrees_with_batch_major_order_to_rounding(batch):
    # batch-last memory changes only the order in which the GEMMs and the
    # bias gradient add up; the old (batch, position) order agrees to rounding.
    # The absolute part of the tolerance scales with the array's largest
    # entry: an entry whose sum cancels to near 0 keeps the rounding of its terms
    rng = np.random.default_rng(23)
    for k_w, pad, r_in in ((5, 2, 2), (5, 2, 16), (3, 0, 3), (1, 1, 1), (4, 3, 2)):
        k_out, length = 8, 30
        x64 = rng.standard_normal((batch, r_in, length))
        bank64 = make_bank(rng, k_out, r_in, k_w)
        g64 = rng.standard_normal((batch, k_out, length + 2 * pad - k_w + 1))
        for dtype, tol in zip(DTYPES, (1e-12, 1e-5)):
            x, bank, g = x64.astype(dtype), cast_bank(bank64, dtype), g64.astype(dtype)
            with ng.Tape():
                out = ng.conv1d(ng.Tensor(x), bank, padding=pad)
                old = batch_major_conv1d(ng.Tensor(x), bank, padding=pad)
            need = (True, True, True)
            pairs = [(out.data, old.data)] + list(zip(out.backward_fn(g, need),
                                                      old.backward_fn(g, need)))
            for got, want in pairs:
                assert got.shape == want.shape and got.dtype == dtype
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def _op_with(op, value):
    """`op` on a (4, 2, 8) batch with `value` as its shape argument: the
    padding of a width-3 conv, the pool width, the upsample factor, or the
    (start, stop) of `rows`."""
    x = ng.Tensor(np.zeros((4, 2, 8)))
    if op == "conv1d":
        return ng.conv1d(x, make_bank(np.random.default_rng(0), 3, 2, 3), padding=value)
    if op == "rows":
        return ng.rows(x, *value)
    return getattr(ng, op)(x, value)


@pytest.mark.parametrize("op, value, message", [
    ("conv1d", -1, "padding must be an int >= 0, got -1"),
    ("conv1d", 1.0, "padding must be an int >= 0, got 1.0"),
    ("conv1d", True, "padding must be an int >= 0, got True"),
    ("avg_pool1d", 0, "width must be an int >= 1, got 0"),
    ("avg_pool1d", -1, "width must be an int >= 1, got -1"),
    ("avg_pool1d", 2.0, "width must be an int >= 1, got 2.0"),
    ("upsample_nearest", 0, "factor must be an int >= 1, got 0"),
    ("upsample_nearest", -2, "factor must be an int >= 1, got -2"),
    ("upsample_nearest", 1.5, "factor must be an int >= 1, got 1.5"),
    ("rows", (-1, 2), "start must be an int >= 0, got -1"),
    ("rows", (2, 2), "stop must be an int >= 3, got 2"),
    ("rows", (0, 2.0), "stop must be an int >= 1, got 2.0"),
    ("rows", (2, 5), r"rows 2:5 fall outside the batch of shape \(4, 2, 8\)"),
], ids=lambda v: repr(v) if not isinstance(v, str) or " " not in v else "")
def test_shape_arguments_refused_by_name(op, value, message):
    with pytest.raises(ng.ShapeError, match=message):
        _op_with(op, value)


def test_shape_arguments_accept_numpy_integers():
    assert _op_with("conv1d", np.int64(1)).shape == (4, 3, 8)
    assert _op_with("avg_pool1d", np.int32(2)).shape == (4, 2, 4)
    assert _op_with("upsample_nearest", np.uint8(3)).shape == (4, 2, 24)
    assert _op_with("rows", (np.int64(1), np.int64(4))).shape == (3, 2, 8)


def test_rows_matches_finite_differences():
    # two overlapping slices: row 3 takes the sum of both, row 0 nothing
    rng = np.random.default_rng(63)
    x = rng.standard_normal((6, 3))
    code = rng.standard_normal((3, 3))

    def run():
        xt = ng.Tensor(x)
        with ng.Tape() as tape:
            loss = ng.add(ng.gaussian_nll(ng.rows(xt, 1, 4), code),
                          ng.bce_logit_loss(ng.rows(xt, 3, 6), True))
            grads = ng.backward(tape, loss, [xt])
        return float(loss.data), grads

    _, grads = run()
    assert grads[0].shape == x.shape and not grads[0][0].any()
    central_diff(lambda: run()[0], [x], grads, rel_tol=1e-6)


def test_conv_stack_keeps_batch_last_memory(monkeypatch):
    # each conv input below the first of a trunk-like stack, and each conv
    # input of a generator-like stack, is a view of (channels, length, B)
    # memory, so no conv makes a transposing copy of its input
    rng = np.random.default_rng(64)
    banks = [make_bank(rng, 4, 2, 5), make_bank(rng, 4, 4, 5), make_bank(rng, 2, 4, 5)]
    inputs, conv = [], ng.conv1d

    def recording(x, bank, padding=0):
        inputs.append(x.data)
        return conv(x, bank, padding)

    monkeypatch.setattr(ng, "conv1d", recording)
    with ng.Tape():
        h = ng.Tensor(rng.standard_normal((6, 2, 16)))
        for bank in banks:   # the trunk's order: conv, lrelu, pool
            h = ng.avg_pool1d(ng.leaky_relu(ng.conv1d(h, bank, padding=2), 0.01), 2)
        h = ng.Tensor(rng.standard_normal((6, 2, 4)))
        for bank in banks:   # the generator's order: upsample, conv, lrelu
            h = ng.leaky_relu(ng.conv1d(ng.upsample_nearest(h, 2), bank, padding=2), 0.01)
    assert len(inputs) == 6
    for x in inputs[1:]:
        assert x.transpose(1, 2, 0).flags.c_contiguous


# ---------------------------------------------------------------------------
# dense / leaky_relu
# ---------------------------------------------------------------------------

def test_dense_identity():
    out = ng.dense(ng.Tensor([[1.0, 2.0]]), ng.Tensor(np.eye(2)), ng.Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_dense_hand_case():
    out = ng.dense(ng.Tensor([[2.0, 3.0]]), ng.Tensor([[1.0, 1.0]]), ng.Tensor([-1.0]))
    np.testing.assert_array_equal(out.data, [[4.0]])


def test_dense_zero_weights():
    out = ng.dense(ng.Tensor([[2.0, 3.0]]), ng.Tensor([[0.0, 0.0]]), ng.Tensor([7.0]))
    np.testing.assert_array_equal(out.data, [[7.0]])


def test_dense_shape_mismatch_rejected():
    with pytest.raises(ng.ShapeError):
        ng.dense(ng.Tensor([[1.0, 2.0, 3.0]]), ng.Tensor([[1.0, 1.0]]), ng.Tensor([0.0]))


def test_dense_rejects_unbatched_input():
    with pytest.raises(ng.ShapeError, match=r"dense shapes .* x\(2,\)"):
        ng.dense(ng.Tensor([1.0, 2.0]), ng.Tensor(np.eye(2)), ng.Tensor(np.zeros(2)))


def test_leaky_relu_values():
    out = ng.leaky_relu(ng.Tensor([[2.0, -1.0, 0.0]]), 0.01)
    np.testing.assert_allclose(out.data, [[2.0, -0.01, 0.0]])


def test_leaky_relu_alpha_range():
    with pytest.raises(ng.NdgradError):
        ng.leaky_relu(ng.Tensor([[1.0]]), 1.5)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_bce_logit_zero():
    for target in (True, False):
        out = ng.bce_logit_loss(ng.Tensor([[0.0]]), target)
        assert abs(float(out.data) - np.log(2)) < 1e-12


def test_bce_logit_limit_real():
    out = ng.bce_logit_loss(ng.Tensor([[500.0]]), True)
    assert float(out.data) < 1e-12


def test_bce_logit_fake_one():
    out = ng.bce_logit_loss(ng.Tensor([[1.0]]), False)
    assert abs(float(out.data) - np.log(1 + np.e)) < 1e-12


def test_bce_logit_stable_at_700():
    for logit in (-700.0, 700.0):
        for target in (True, False):
            assert np.isfinite(float(ng.bce_logit_loss(ng.Tensor([[logit]]), target).data))


def test_gaussian_nll_zero_residual():
    out = ng.gaussian_nll(ng.Tensor([[0.3]]), np.array([[0.3]]))
    assert abs(float(out.data) - 0.5 * np.log(2 * np.pi)) < 1e-12


def test_gaussian_nll_closed_form_value_and_gradient():
    # unit variance: sum((mu - c)^2) / (2 B) + k log(2 pi) / 2, and (mu - c) / B
    pred = ng.Tensor([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    code = np.array([[0.0, 1.0, 0.5], [2.0, 3.0, 1.0]])
    with ng.Tape() as tape:
        out = ng.gaussian_nll(pred, code)
        (grad,) = ng.backward(tape, out, [pred])
    assert float(out.data) == pytest.approx((1 + 9 + 0 + 4 + 0 + 4) / 4 + 1.5 * np.log(2 * np.pi),
                                            rel=1e-15)
    np.testing.assert_allclose(grad, [[0.5, -1.5, 0.0], [-1.0, 0.0, -1.0]], rtol=1e-15)


def test_gaussian_nll_empty_code():
    out = ng.gaussian_nll(ng.Tensor(np.zeros((1, 0))), np.zeros((1, 0)))
    assert float(out.data) == 0.0


def test_tensor_keeps_float32_and_holds_the_rest_as_float64():
    assert ng.Tensor(np.zeros(2, np.float32)).data.dtype == np.float32
    for data in ([1, 2], 1.0, np.arange(2), np.zeros(2, np.float16)):
        assert ng.Tensor(data).data.dtype == np.float64


def test_losses_of_float32_operands_are_float32():
    # np.log's float64 scalar in the NLL constant must not widen the loss
    pred = ng.Tensor(np.full((2, 3), 0.5, np.float32))
    with ng.Tape() as tape:
        loss = ng.add(ng.bce_logit_loss(pred, True),
                      ng.scale(ng.gaussian_nll(pred, np.zeros((2, 3))), np.float64(3.0)))
        (grad,) = ng.backward(tape, loss, [pred])
    assert {node.data.dtype for node in tape.nodes} == {np.dtype(np.float32)}
    assert grad.dtype == np.float32


@pytest.mark.parametrize("shape", [(3,), ()], ids=["1d", "0d"])
def test_gaussian_nll_rejects_unbatched_code(shape):
    with pytest.raises(ng.ShapeError, match="gaussian_nll code shape " + re.escape(str(shape))):
        ng.gaussian_nll(ng.Tensor(np.zeros(shape)), np.zeros(shape))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_disconnected_param_zero():
    x = ng.Tensor([[1.0, 2.0]])
    unused = ng.Tensor([5.0])
    with ng.Tape() as tape:
        loss = sum_loss(x)
        grads = ng.backward(tape, loss, [x, unused])
    np.testing.assert_array_equal(grads[1], [0.0])


def test_backward_rejects_nonscalar_loss():
    x = ng.Tensor([[1.0, 2.0]])
    with ng.Tape() as tape:
        out = ng.leaky_relu(x, 0.1)
        with pytest.raises(ng.ShapeError):
            ng.backward(tape, out, [x])


def test_dense_lrelu_chain_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    x = rng.standard_normal(6)

    def run():
        wt = ng.Tensor(w)
        bt = ng.Tensor(b)
        with ng.Tape() as tape:
            out = ng.leaky_relu(ng.dense(ng.Tensor(x[None]), wt, bt), 0.01)
            loss = sum_loss(out)
            grads = ng.backward(tape, loss, [wt, bt])
        return float(loss.data), grads

    _, grads = run()
    central_diff(lambda: run()[0], [w, b], grads, rel_tol=1e-6)


def test_all_ops_gradcheck_random_shapes():
    # full-chain gradient check across >=100 random shape/seed draws
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(100):
        r_in = int(rng.integers(1, 4))
        length = int(rng.integers(6, 20))
        k_out = int(rng.integers(1, 4))
        k_w = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 2))
        if length + 2 * pad < k_w:
            pad = k_w
        x = rng.standard_normal((r_in, length))
        kern = rng.standard_normal((k_out, r_in, k_w)) * 0.5
        bias = rng.standard_normal(k_out) * 0.1
        l_conv = length + 2 * pad - k_w + 1
        flat_dim = k_out * ((l_conv * 2) // 2)
        w2 = rng.standard_normal((3, flat_dim)) * 0.3
        b2 = rng.standard_normal(3) * 0.1
        code = rng.standard_normal(3)

        def run():
            bank = ng.ConvKernelBank(ng.Tensor(kern), ng.Tensor(bias))
            w2t = ng.Tensor(w2)
            b2t = ng.Tensor(b2)
            params = [bank.kernels, bank.biases, w2t, b2t]
            with ng.Tape() as tape:
                h = ng.conv1d(ng.Tensor(x[None]), bank, padding=pad)
                h = ng.upsample_nearest(h, 2)
                h = ng.avg_pool1d(h, 2)
                h = ng.leaky_relu(h, 0.01)
                h = ng.reshape(h, (1, flat_dim))
                out = ng.dense(h, w2t, b2t)
                loss = ng.add(ng.bce_logit_loss(out, bool(trial % 2)),
                              ng.scale(ng.gaussian_nll(out, code[None]), 0.1))
                grads = ng.backward(tape, loss, params)
            return float(loss.data), grads

        _, grads = run()
        central_diff(lambda: run()[0], [kern, bias, w2, b2], grads)
        checked += 1
    assert checked == 100


@pytest.mark.parametrize("width", [1, 2, 3])
def test_avg_pool1d_equals_mean_reference(width):
    rng = np.random.default_rng(22)
    for shape in ((1, 1, 7), (1, 3, 16), (4, 2, 31)):
        x = rng.standard_normal(shape)
        l_out = shape[-1] // width
        ref = x[..., :l_out * width].reshape(*shape[:-1], l_out, width).mean(axis=-1)
        assert np.array_equal(ng.avg_pool1d(ng.Tensor(x), width).data, ref)


# The formulas below are the ops as they were before the strided-slice and
# table-lookup kernels and needs-grad pruning; the current ops must match
# them bit for bit. Every reference backward ignores `need`.

def reference_dense(x, weights, bias):
    out = x.data @ weights.data.T + bias.data

    def bw(g, need):
        return g @ weights.data, g.T @ x.data, g.sum(axis=0)

    return ng._record(out, (x, weights, bias), bw)


def reference_leaky_relu(x, alpha):
    out = np.maximum(alpha * x.data, x.data)
    return ng._record(out, (x,), lambda g, need: (np.where(x.data > 0, g, alpha * g),))


def reference_avg_pool1d(x, width=2):
    l_out = x.data.shape[-1] // width
    trimmed = x.data[..., :l_out * width]
    out = trimmed.reshape(*x.data.shape[:-1], l_out, width).sum(axis=-1) / width

    def bw(g, need):
        gx = np.zeros_like(x.data)
        gx[..., :l_out * width] = np.repeat(g, width, axis=-1) / width
        return (gx,)

    return ng._record(out, (x,), bw)


def reference_upsample_nearest(x, factor=2):
    out = np.repeat(x.data, factor, axis=-1)
    return ng._record(out, (x,),
                      lambda g, need: (g.reshape(*x.data.shape, factor).sum(axis=-1),))


def reference_backward(tape, loss, params):
    """Reverse sweep that asks every op for every parent gradient."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(id(node))
        if g is None or node.backward_fn is None:
            continue
        need = (True,) * len(node.parents)
        for parent, pg in zip(node.parents, node.backward_fn(g, need)):
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [grads.get(id(p), np.zeros_like(p.data)) for p in params]


#: (module attribute, reference) for every op whose kernel or backward changed
REFERENCE_OPS = (("conv1d", reference_conv1d), ("dense", reference_dense),
                 ("leaky_relu", reference_leaky_relu),
                 ("avg_pool1d", reference_avg_pool1d),
                 ("upsample_nearest", reference_upsample_nearest),
                 ("backward", reference_backward))


def _op_and_reference(op, ref, x, arg, g_rng):
    """The op and its reference agree bit for bit, forward and backward, on
    `x` in each of DTYPES, and keep that dtype."""
    g = None
    for dtype in DTYPES:
        with ng.Tape():
            out = op(ng.Tensor(x.astype(dtype)), arg)
            want = ref(ng.Tensor(x.astype(dtype)), arg)
        assert out.shape == want.shape
        assert out.data.dtype == dtype and np.array_equal(out.data, want.data)
        if g is None:
            g = g_rng.standard_normal(out.shape)
        g_in = g.astype(dtype)
        (got_g,), (want_g,) = out.backward_fn(g_in, (True,)), want.backward_fn(g_in, (True,))
        assert got_g.shape == want_g.shape == x.shape
        assert got_g.dtype == dtype and np.array_equal(got_g, want_g)


ELEMENTWISE_SHAPES = ((1, 1, 15), (1, 3, 15), (4, 2, 31), (2, 16, 60), (5, 8))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_avg_pool1d_bit_identical_to_reference(width):
    rng = np.random.default_rng(30 + width)
    for shape in ELEMENTWISE_SHAPES:
        _op_and_reference(ng.avg_pool1d, reference_avg_pool1d,
                          rng.standard_normal(shape), width, rng)
    # odd length, dropped tail: 15 -> 7 at width 2, and the tail's gradient is 0
    with ng.Tape():
        out = ng.avg_pool1d(ng.Tensor(np.arange(15.0).reshape(1, 1, 15)), 2)
    assert out.shape == (1, 1, 7)
    assert out.backward_fn(np.ones((1, 1, 7)), (True,))[0][0, 0, -1] == 0.0


@pytest.mark.parametrize("factor", [1, 2, 3])
def test_upsample_nearest_bit_identical_to_reference(factor):
    rng = np.random.default_rng(40 + factor)
    for shape in ELEMENTWISE_SHAPES:
        _op_and_reference(ng.upsample_nearest, reference_upsample_nearest,
                          rng.standard_normal(shape), factor, rng)


@pytest.mark.parametrize("alpha", [0.01, 0.2])
def test_leaky_relu_bit_identical_to_reference(alpha):
    rng = np.random.default_rng(50)
    for shape in ELEMENTWISE_SHAPES:
        x = rng.standard_normal(shape)
        x.ravel()[::4] = 0.0   # the kink takes the alpha slope
        _op_and_reference(ng.leaky_relu, reference_leaky_relu, x, alpha, rng)


def take_leaky_relu_grad(x, g, alpha):
    """`leaky_relu`'s backward as a table lookup: the slope taken from
    [alpha, 1] by x > 0 in x's dtype and memory order, then times g."""
    slopes = np.array([alpha, 1.0], x.dtype)
    positive = (x > 0).view(np.uint8)
    grad = np.empty_like(positive, dtype=np.result_type(g, slopes))
    slopes.take(positive.ravel(order="K"), out=grad.ravel(order="K"), mode="clip")
    grad *= g
    return grad


@pytest.mark.parametrize("dtype, g_dtype", [(np.float64, np.float64), (np.float32, np.float32),
                                            (np.float64, np.float32)])
def test_leaky_relu_backward_equals_take_form_exactly(dtype, g_dtype):
    # (1 - alpha) + alpha rounds to exactly 1 for every alpha in (0, 1)
    rng = np.random.default_rng(52)
    tiny, below_one = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    alphas = [*rng.uniform(0.0, 1.0, 200), *10.0 ** -rng.uniform(0.0, 40.0, 100),
              tiny, 1e-300, 1e-45, 1e-38, 2.0 ** -24, 2.0 ** -53, 0.01, 0.2, 0.5,
              1.0 - 2.0 ** -24, below_one]
    x = rng.standard_normal((3, 4, 10)).astype(dtype)
    x.ravel()[::5] = 0.0
    x.ravel()[1::7] = -0.0
    x.ravel()[2::11] = np.nan
    for data in (x, x.transpose(1, 2, 0)):   # C order and a batch-last view
        g = rng.standard_normal(data.shape).astype(g_dtype)
        operand = ng._record(data, (), None)   # NaN passes, as in an op's output
        for alpha in alphas:
            with ng.Tape():
                out = ng.leaky_relu(operand, alpha)
            (got,) = out.backward_fn(g, (True,))
            want = take_leaky_relu_grad(data, g, alpha)
            assert got.dtype == want.dtype and got.strides == want.strides
            assert got.tobytes() == want.tobytes(), alpha


def test_leaky_relu_backward_refuses_a_gradient_it_would_narrow():
    # a float64 g would round into a float32 x's slope; the take form refused it too
    x = np.array([[1.0, -2.0, 0.0]], np.float32)
    g = np.ones((1, 3))
    with ng.Tape():
        out = ng.leaky_relu(ng.Tensor(x), 0.1)
    for backward in (lambda: out.backward_fn(g, (True,)),
                     lambda: take_leaky_relu_grad(x, g, 0.1)):
        with pytest.raises(TypeError):
            backward()


def _small_net_tape(rng, batched, dtype=np.float64):
    """A conv -> lrelu -> pool -> upsample -> pool -> dense chain on one tape,
    over five samples, or over one sample as a batch of one."""
    batch = 5 if batched else 1
    bank = make_bank(rng, 3, 2, 3, dtype)
    w = ng.Tensor(rng.standard_normal((4, 3 * 8)).astype(dtype))
    b = ng.Tensor(rng.standard_normal(4).astype(dtype))
    x = ng.Tensor(rng.standard_normal((batch, 2, 17)).astype(dtype))
    tape = ng.Tape()
    with tape:
        h = ng.avg_pool1d(ng.leaky_relu(ng.conv1d(x, bank, padding=1), 0.01), 2)
        h = ng.avg_pool1d(ng.upsample_nearest(h, 3), 3)
        h = ng.reshape(h, (batch, 24))
        h = ng.leaky_relu(ng.dense(h, w, b), 0.01)
        loss = ng.bce_logit_loss(h, True)
    return tape, loss, [bank.kernels, bank.biases, w, b]


@pytest.mark.parametrize("batched", [False, True])
def test_backward_subset_equals_full_run_restricted(batched):
    for dtype in DTYPES:
        tape, loss, params = _small_net_tape(np.random.default_rng(60), batched, dtype)
        full = ng.backward(tape, loss, params)
        assert all(a.dtype == dtype for a in full)
        assert all(np.array_equal(a, b)
                   for a, b in zip(full, reference_backward(tape, loss, params)))
        for subset in ([0], [1], [2, 3], [0, 3], [3, 1]):
            got = ng.backward(tape, loss, [params[i] for i in subset])
            for i, grad in zip(subset, got):
                assert np.array_equal(grad, full[i])


@pytest.mark.parametrize("op", ["conv1d", "dense"])
def test_backward_fn_returns_none_for_unneeded_parents(op):
    rng = np.random.default_rng(61)
    with ng.Tape():
        if op == "conv1d":
            out = ng.conv1d(ng.Tensor(rng.standard_normal((4, 2, 9))),
                            make_bank(rng, 3, 2, 3), padding=1)
        else:
            out = ng.dense(ng.Tensor(rng.standard_normal((4, 6))),
                           ng.Tensor(rng.standard_normal((3, 6))),
                           ng.Tensor(rng.standard_normal(3)))
    g = rng.standard_normal(out.shape)
    full = out.backward_fn(g, (True, True, True))
    gx, gw, gb = out.backward_fn(g, (True, False, False))
    assert gw is None and gb is None
    assert np.array_equal(gx, full[0])
    gx, gw, gb = out.backward_fn(g, (False, True, True))
    assert gx is None
    assert np.array_equal(gw, full[1]) and np.array_equal(gb, full[2])


def test_backward_never_asks_for_constant_inputs():
    rng = np.random.default_rng(62)
    tape, loss, params = _small_net_tape(rng, True)
    seen = []
    for node in tape.nodes:
        fn = node.backward_fn
        node.backward_fn = lambda g, need, fn=fn: seen.append(need) or fn(g, need)
    ng.backward(tape, loss, params[2:])   # the dense head only
    # the loss, the lrelu and the dense: the conv chain below is never called
    assert seen == [(True,), (True,), (False, True, True)]


def test_bce_backward_no_overflow_warning_at_large_negative_logit():
    import warnings
    logits = np.array([[-800.0], [-709.0], [0.0], [30.0]])
    for target in (True, False):
        with ng.Tape():
            out = ng.bce_logit_loss(ng.Tensor(logits), target)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (grad,) = out.backward_fn(np.float64(1.0), (True,))
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-logits))
        assert p[0, 0] == 0.0
        assert np.array_equal(grad, 1.0 * ((p - 1.0) if target else p) / 4)


def test_tape_replay_determinism():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 12))
    kern = rng.standard_normal((3, 2, 3))
    bias = rng.standard_normal(3)

    def run():
        bank = ng.ConvKernelBank(ng.Tensor(kern), ng.Tensor(bias))
        with ng.Tape() as tape:
            out = ng.leaky_relu(ng.conv1d(ng.Tensor(x), bank, padding=1), 0.01)
            loss = ng.scale(sum_loss(out), 1.0 / out.size)
            grads = ng.backward(tape, loss, [bank.kernels, bank.biases])
        return float(loss.data), grads

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_nonfinite_input_trapped():
    with pytest.raises(ng.NonFiniteError):
        ng.Tensor([1.0, np.nan])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamp_zero_gradient_no_change():
    p = ng.Tensor([1.0, -2.0])
    opt = ng.AdamP([p], lr=1e-3, max_norm=np.inf)
    opt.step([np.zeros(2)])
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamp_first_step_hand_trace():
    p = ng.Tensor([0.0])
    opt = ng.AdamP([p], lr=1e-3, max_norm=np.inf)
    opt.step([np.ones(1)])
    # bias-corrected first step: -lr * 1 / (1 + eps)
    expected = -1e-3 / (1 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-12


def test_adamp_monotone_under_constant_gradient():
    p = ng.Tensor([1.0])
    opt = ng.AdamP([p], lr=1e-2, max_norm=np.inf)
    values = [p.data[0]]
    for _ in range(5):
        opt.step([np.ones(1)])
        values.append(p.data[0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adamp_steps_parameters_through_views_of_one_flat_buffer():
    params = [ng.Tensor(np.ones((2, 3))), ng.Tensor([5.0]), ng.Tensor(np.zeros((1, 2, 2)))]
    opt = ng.AdamP(params, lr=1e-2, max_norm=np.inf)
    assert opt.flat.shape == (11,)
    assert [p.data.shape for p in params] == [(2, 3), (1,), (1, 2, 2)]
    for p in params:
        assert np.shares_memory(p.data, opt.flat)
    opt.step([np.ones((2, 3)), np.zeros(1), -np.ones((1, 2, 2))])
    assert np.all(params[0].data < 1.0) and params[1].data[0] == 5.0
    assert np.all(params[2].data > 0.0)
    assert np.array_equal(opt._m[7:], np.full(4, -(1.0 - 0.9)))


def test_adamp_refuses_a_parameter_listed_twice_or_none():
    p = ng.Tensor([1.0, 2.0])
    with pytest.raises(ng.NdgradError, match="listed twice"):
        ng.AdamP([p, ng.Tensor([0.0]), p], lr=1e-3, max_norm=np.inf)
    with pytest.raises(ng.NdgradError, match="at least one parameter"):
        ng.AdamP([], lr=1e-3, max_norm=np.inf)


def test_adamp_refuses_a_parameter_replaced_after_it_was_built():
    # a replaced `.data` is no longer the view the step updates
    p = ng.Tensor([1.0, 2.0])
    opt = ng.AdamP([p], lr=1e-3, max_norm=np.inf)
    p.data = p.data.copy()
    with pytest.raises(ng.NdgradError, match="replaced after its optimizer was built"):
        opt.step([np.ones(2)])


def test_adamp_refuses_gradients_of_the_wrong_size():
    opt = ng.AdamP([ng.Tensor([1.0, 2.0]), ng.Tensor([3.0])], lr=1e-3, max_norm=np.inf)
    with pytest.raises(ng.NdgradError, match=r"gradient 1 has shape \(2,\)"):
        opt.step([np.ones(2), np.ones(2)])


@pytest.mark.parametrize("shapes, grads, index", [
    # the total size of the parameters, split across them the wrong way
    (((2,), (1,)), [np.ones(3), np.zeros(0)], 0),
    # its parameter's size, transposed
    (((2,), (2, 3)), [np.ones(2), np.ones((3, 2))], 1),
], ids=["sizes shifted", "transposed"])
def test_adamp_refuses_a_gradient_not_shaped_as_its_parameter(shapes, grads, index):
    # refused before any parameter or moment moves
    opt = ng.AdamP([ng.Tensor(np.ones(shape)) for shape in shapes], lr=1e-3, max_norm=np.inf)
    before = [opt.flat.copy(), opt._m.copy(), opt._v.copy()]
    with pytest.raises(ng.NdgradError, match=f"gradient {index} has shape"):
        opt.step(grads)
    for got, want in zip((opt.flat, opt._m, opt._v), before):
        assert np.array_equal(got, want)
    assert opt.t == 0


def test_adamp_rejects_nonfinite_gradient():
    p = ng.Tensor([1.0])
    opt = ng.AdamP([p], lr=1e-3, max_norm=np.inf)
    with pytest.raises(ng.NonFiniteError):
        opt.step([np.array([np.inf])])


def _adam_after_one_step(max_norm, grads):
    params = [ng.Tensor([1.0, -2.0]), ng.Tensor([[0.5]])]
    opt = ng.AdamP(params, lr=1e-2, max_norm=max_norm)
    return opt.step(grads), opt


def test_adamp_step_clips_the_global_norm_and_returns_it():
    # over the bound, the step is an unclipped step on the scaled gradients
    # and returns the norm before the scaling; at or under it nothing is scaled
    grads = [np.array([3.0, 0.0]), np.array([[4.0]])]
    for max_norm, factor in ((1.0, 1.0 / 5.0), (4.5, 4.5 / 5.0), (5.0, None), (6.0, None)):
        norm, opt = _adam_after_one_step(max_norm, grads)
        scaled = grads if factor is None else [g * factor for g in grads]
        _, ref = _adam_after_one_step(np.inf, scaled)
        assert norm == 5.0
        for got, want in ((opt.flat, ref.flat), (opt._m, ref._m), (opt._v, ref._v)):
            assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adamp_step_returns_an_overflowing_norm_after_a_zero_step():
    # a float32 gradient above about 1.8e19 squares to inf: the norm is inf,
    # the gradient is scaled by 0 and no weight moves
    p = ng.Tensor(np.array([1.0, 2.0], np.float32))
    opt = ng.AdamP([p], lr=1e-3, max_norm=10.0)
    assert opt.step([np.array([2e19, 0.0], np.float32)]) == np.inf
    assert np.array_equal(p.data, np.array([1.0, 2.0], np.float32)) and opt.t == 1
