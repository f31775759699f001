import dataclasses
import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eisgan_soh import ecm, eisdata, eisgan
from eisgan_soh import ndgrad as ng
from eisgan_soh.eisgan import GanConfig, GanError, LatentCode
from test_ndgrad import REFERENCE_OPS, batch_major_conv1d, reference_conv1d


def tiny_config(**overrides):
    base = dict(epochs=2, batch_size=8, seed=0)
    base.update(overrides)
    return GanConfig(**base)


def toy_batch(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2, 60))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0}, {"batch_size": -3},
    {"epochs": 0}, {"epochs": -1},
    {"seed": np.int8(-1)}, {"batch_size": np.uint8(0)},
    {"seed": -1}, {"batch_size": 0, "epochs": 0}, {"seed": -(2 ** 63)},
    {"seed": np.int64(-1)}, {"batch_size": np.int32(-1)}, {"epochs": np.int64(0)},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(GanError):
        GanConfig(**kwargs)


@pytest.mark.parametrize("name", ["batch_size", "epochs", "seed"])
@pytest.mark.parametrize("value", [2.5, 5.0, True, "5", None])
def test_config_rejects_non_integer_fields(name, value):
    with pytest.raises(GanError, match=f"{name} must be an integer"):
        GanConfig(**{name: value})


def test_config_accepts_numpy_integers():
    cfg = GanConfig(batch_size=np.int64(16), epochs=np.int32(3), seed=np.uint8(7))
    assert (cfg.batch_size, cfg.epochs, cfg.seed) == (16, 3, 7)


def test_config_code_sizes_are_the_papers_and_not_fields():
    cfg = GanConfig()
    assert (cfg.latent_dim, cfg.noise_dim) == (9, 16)
    assert [f.name for f in dataclasses.fields(GanConfig)] == ["batch_size", "epochs", "seed"]
    for name in ("latent_dim", "noise_dim"):
        with pytest.raises(TypeError, match=name):
            GanConfig(**{name: 9})


def test_init_shapes():
    cfg = tiny_config()
    nets = eisgan.init_networks(cfg, np.random.default_rng(0))
    assert nets.g_dense_w.data.shape == (64 * 15, 9 + 16)
    assert [b.kernels.data.shape for b in nets.trunk_convs] == [
        (16, 2, 5), (32, 16, 5), (64, 32, 5), (64, 64, 5)]
    # trunk flattens to 64 channels x 3 points after four halvings of 60
    assert nets.trunk_dense_w.data.shape == (64, 64 * 3)
    assert nets.d_head_w.data.shape == (1, 64)
    assert nets.q_head_w.data.shape == (9, 64)


def test_init_deterministic():
    cfg = tiny_config()
    a = eisgan.init_networks(cfg, np.random.default_rng(5))
    b = eisgan.init_networks(cfg, np.random.default_rng(5))
    for pa, pb in zip(a.all_params(), b.all_params()):
        assert np.array_equal(pa.data, pb.data)


def test_q_and_d_share_trunk_parameters():
    # one group: the shared trunk, then the D head and the Q head on top of it
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(0))
    trunk = [p for bank in nets.trunk_convs for p in bank.params()]
    heads = [nets.d_head_w, nets.d_head_b, nets.q_head_w, nets.q_head_b]
    assert [id(p) for p in nets.d_params()] == [
        id(p) for p in trunk + [nets.trunk_dense_w, nets.trunk_dense_b] + heads]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def test_generate_output_shape_and_finiteness():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    out = eisgan.generate(nets, LatentCode(rng.standard_normal(9),
                                           rng.standard_normal(16)))
    assert out.shape == (2, 60)
    assert np.all(np.isfinite(out))


def test_generate_rejects_wrong_code_dims():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    with pytest.raises(GanError):
        eisgan.generate(nets, LatentCode(np.zeros(4), np.zeros(16)))


def test_generate_deterministic():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    code = LatentCode(np.ones(9), np.zeros(16))
    assert np.array_equal(eisgan.generate(nets, code),
                          eisgan.generate(nets, code))


def test_extract_latents_shape():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    lat = eisgan.extract_latents(nets, np.zeros((2, 60)))
    assert lat.shape == (9,)


def test_extract_latents_rejects_wrong_shape():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    for shape in ((2, 59), (5, 2, 59), (1, 5, 2, 60), (120,)):
        with pytest.raises(GanError):
            eisgan.extract_latents(nets, np.zeros(shape))


def test_extract_latents_batch_matches_per_curve_loop():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(3))
    x = np.random.default_rng(4).standard_normal((7, 2, 60))
    batched = eisgan.extract_latents(nets, x)
    assert batched.shape == (7, 9)
    reference = np.stack([eisgan.extract_latents(nets, curve) for curve in x])
    np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-12)


def test_extract_is_q_of_trunk():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(3))
    x = np.random.default_rng(4).standard_normal((2, 60))
    features = eisgan._forward_trunk(nets, ng.Tensor(x[None])).data[0]
    by_hand = nets.q_head_w.data @ features + nets.q_head_b.data
    assert np.allclose(eisgan.extract_latents(nets, x), by_hand, atol=1e-12)


def test_latent_sweep_default_grid():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    curves = eisgan.latent_sweep(nets, 0)
    assert len(curves) == 9
    assert curves[0].shape == (2, 60)
    # grid is symmetric about 0, so the middle entry is the zero-code curve
    zero = eisgan.generate(nets, LatentCode(np.zeros(9), np.zeros(16)))
    assert np.allclose(curves[4], zero, atol=1e-12)


def test_latent_sweep_custom_grid_and_range_check():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    assert len(eisgan.latent_sweep(nets, 3, grid=[-1.0, 0.0, 1.0])) == 3
    with pytest.raises(GanError):
        eisgan.latent_sweep(nets, 9)
    with pytest.raises(GanError):
        eisgan.latent_sweep(nets, 3, grid=[0.0, np.nan])


def test_latent_sweep_matches_generate_loop():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(2))
    grid = np.linspace(-2.0, 2.0, 9)
    reference = []
    for value in grid:
        c = np.zeros(9)
        c[5] = value
        reference.append(eisgan.generate(nets, LatentCode(c, np.zeros(16))))
    np.testing.assert_allclose(eisgan.latent_sweep(nets, 5, grid), np.stack(reference),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_step_initial_d_loss_near_2ln2():
    # an untrained discriminator is near-chance on both labels
    cfg = tiny_config()
    nets = eisgan.init_networks(cfg, np.random.default_rng(0))
    opts = eisgan.Optimizers.build(nets)
    losses = eisgan.train_step(nets, toy_batch(32), opts, np.random.default_rng(1))
    assert abs(losses["loss_d"] - 2 * np.log(2)) < 0.2
    assert losses["loss_mi"] >= 0


def test_train_step_zero_lambda_freezes_q_head(monkeypatch):
    monkeypatch.setattr(eisgan, "LAMBDA_MI", 0.0)
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(0))
    opts = eisgan.Optimizers.build(nets)
    q_before = [p.data.copy() for p in (nets.q_head_w, nets.q_head_b)]
    eisgan.train_step(nets, toy_batch(16), opts, np.random.default_rng(1))
    for before, p in zip(q_before, (nets.q_head_w, nets.q_head_b)):
        assert np.array_equal(before, p.data)


def test_train_step_updates_all_groups():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(0))
    opts = eisgan.Optimizers.build(nets)
    before = [p.data.copy() for p in nets.all_params()]
    eisgan.train_step(nets, toy_batch(16), opts, np.random.default_rng(1))
    changed = [not np.array_equal(b, p.data)
               for b, p in zip(before, nets.all_params())]
    assert all(changed)


def test_train_rejects_bad_data_shape():
    with pytest.raises(GanError):
        eisgan.train(np.zeros((8, 2, 59)), tiny_config())


def test_train_rejects_empty_data():
    with pytest.raises(GanError, match="no curves"):
        eisgan.train(np.zeros((0, 2, 60)), tiny_config())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_nonfinite_curve_naming_row(bad):
    data = toy_batch(8)
    data[5, 1, 7] = bad
    data[6, 0, 0] = bad
    with pytest.raises(GanError, match="training curve 5 is non-finite"):
        eisgan.train(data, tiny_config())


def test_train_deterministic_and_reports_every_epoch():
    data = toy_batch(24, seed=7)
    cfg = tiny_config(epochs=3)
    nets_a, rep_a = eisgan.train(data, cfg)
    nets_b, rep_b = eisgan.train(data, cfg)
    assert len(rep_a.loss_d) == 3
    assert rep_a.loss_d == rep_b.loss_d
    assert rep_a.loss_mi == rep_b.loss_mi
    for pa, pb in zip(nets_a.all_params(), nets_b.all_params()):
        assert np.array_equal(pa.data, pb.data)


def test_train_bit_identical_with_reference_conv1d(monkeypatch):
    data = toy_batch(24, seed=3)
    cfg = tiny_config(epochs=2)
    nets, rep = eisgan.train(data, cfg)
    monkeypatch.setattr(ng, "conv1d", reference_conv1d)
    ref_nets, ref_rep = eisgan.train(data, cfg)
    assert rep == ref_rep
    for p, ref in zip(nets.all_params(), ref_nets.all_params()):
        assert np.array_equal(p.data, ref.data)
    assert np.array_equal(eisgan.extract_latents(nets, data),
                          eisgan.extract_latents(ref_nets, data))


def test_train_bit_identical_with_reference_ops(monkeypatch):
    # every op whose kernel or backward changed, and backward itself, set back
    # to the formulas it replaced
    data = toy_batch(24, seed=4)
    cfg = tiny_config(epochs=2)
    nets, rep = eisgan.train(data, cfg)
    for name, reference in REFERENCE_OPS:
        monkeypatch.setattr(ng, name, reference)
    ref_nets, ref_rep = eisgan.train(data, cfg)
    assert rep == ref_rep
    for p, ref in zip(nets.all_params(), ref_nets.all_params()):
        assert np.array_equal(p.data, ref.data)
    assert np.array_equal(eisgan.extract_latents(nets, data),
                          eisgan.extract_latents(ref_nets, data))


def checked_record(out_data, parents, backward_fn):
    """`ng._record` as it was: every op output through `Tensor.__init__`,
    whose finiteness scan the ops now skip."""
    out = ng.Tensor(out_data)
    if ng._ACTIVE_TAPE is not None:
        out.parents = parents
        out.backward_fn = backward_fn
        ng._ACTIVE_TAPE.nodes.append(out)
    return out


def test_train_bit_identical_with_checked_op_outputs(monkeypatch):
    data = toy_batch(24, seed=5)
    cfg = tiny_config(epochs=2)
    nets, rep = eisgan.train(data, cfg)
    latents = eisgan.extract_latents(nets, data)
    monkeypatch.setattr(ng, "_record", checked_record)
    ref_nets, ref_rep = eisgan.train(data, cfg)
    assert rep == ref_rep
    for p, ref in zip(nets.all_params(), ref_nets.all_params()):
        assert np.array_equal(p.data, ref.data)
    assert np.array_equal(latents, eisgan.extract_latents(ref_nets, data))


def _overflowing(banks_of):
    """Networks with 1e300 in one kernel entry of each bank `banks_of` picks: two
    such layers in a row overflow a nonzero input to +-inf, while an
    all-zero input reaches the second only through the first's bias."""
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    for bank in banks_of(nets):
        bank.kernels.data[0, 0, 2] = 1e300
    return nets


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extract_latents_names_first_curve_whose_code_overflows():
    nets = _overflowing(lambda n: n.trunk_convs[:2])
    x = toy_batch(5)
    x[:2] = 0.0
    # each curve on its own: the zero curves give finite codes, the others do not
    for i, curve in enumerate(x):
        if i < 2:
            assert np.isfinite(eisgan.extract_latents(nets, curve)).all()
        else:
            with pytest.raises(GanError, match="latent code of curve 0 is non-finite"):
                eisgan.extract_latents(nets, curve)
    with pytest.raises(GanError, match="latent code of curve 2 is non-finite"):
        eisgan.extract_latents(nets, x)


BLOCK = eisgan.EXTRACT_BLOCK


def reference_extract_latents(nets, x):
    """Q over the trunk in one pass over the whole batch, as before blocking."""
    return eisgan._q_mean(nets, reference_forward_trunk(nets, ng.Tensor(x))).data


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                               2 * BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK, 6 * BLOCK + 17])
def test_blocked_extract_latents_equals_whole_batch_pass(n):
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(5))
    x = toy_batch(n, seed=n)
    got = eisgan.extract_latents(nets, x)
    assert got.shape == (n, 9)
    assert np.array_equal(got, reference_extract_latents(nets, x))


def test_blocked_extract_latents_names_nonfinite_curve_by_global_row():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))
    x = toy_batch(3 * BLOCK)
    x[2 * BLOCK + 7, 1, 3] = np.nan
    x[2 * BLOCK + 9, 0, 0] = np.inf
    with pytest.raises(GanError, match=f"curve {2 * BLOCK + 7} is non-finite"):
        eisgan.extract_latents(nets, x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blocked_extract_latents_names_overflowing_code_by_global_row():
    nets = _overflowing(lambda n: n.trunk_convs[:2])
    x = np.zeros((3 * BLOCK, 2, 60))
    x[[BLOCK + 5, 2 * BLOCK + 1]] = toy_batch(2)
    with pytest.raises(GanError, match=f"latent code of curve {BLOCK + 5} is non-finite"):
        eisgan.extract_latents(nets, x)


def test_extract_latents_peak_memory_bounded_by_block():
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(1))

    def peak(n):
        x = toy_batch(n)
        tracemalloc.start()
        try:
            eisgan.extract_latents(nets, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a whole-batch pass holds every curve's im2col columns at once: about 8x
    assert peak(8 * BLOCK) <= 2 * peak(BLOCK)


def _curves_with(value, rows, n=8):
    """toy_batch(n) with `value` in one entry of each of `rows`."""
    x = toy_batch(n)
    x[rows, 1, 7] = value
    return x


def _nets(seed=1):
    return eisgan.init_networks(tiny_config(), np.random.default_rng(seed))


# inputs refused before any pass, outputs of passes that overflow: each names
# its first non-finite row in the same words
NONFINITE_ROWS = {
    "train input": (lambda: eisgan.train(_curves_with(np.nan, [5, 6]), tiny_config()),
                    "training curve 5"),
    "extract input": (lambda: eisgan.extract_latents(_nets(), _curves_with(np.inf, [2, 3])),
                      "curve 2"),
    "extract input, one curve": (
        lambda: eisgan.extract_latents(_nets(), _curves_with(-np.inf, [2])[2]), "curve 0"),
    "extract output": (
        lambda: eisgan.extract_latents(_overflowing(lambda n: n.trunk_convs[:2]),
                                       np.concatenate([np.zeros((2, 2, 60)), toy_batch(3)])),
        "latent code of curve 2"),
    "generate output": (
        lambda: eisgan.generate(_overflowing(lambda n: n.g_convs[:2]),
                                LatentCode(np.ones(9), np.zeros(16))),
        "generated curve 0"),
    "sweep output": (lambda: eisgan.latent_sweep(_overflowing(lambda n: n.g_convs[:2]), 0),
                     "sweep curve 0"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("call, row", NONFINITE_ROWS.values(), ids=NONFINITE_ROWS)
def test_first_nonfinite_row_is_named(call, row):
    with pytest.raises(GanError, match=f"^{row} is non-finite$"):
        call()


# References for the bit-identity tests below: `train_step` written as its
# two InfoGAN sub-updates, each with its own tape, a separate clip pass and an
# Adam step that clips nothing, and with its own forward passes. With
# `merged=False` the D step runs the trunk twice, over the real and then the
# fake batch, as it did before one pass over both.

def clip_global_norm(grads, max_norm):
    """Scale the gradient list so its global L2 norm is at most max_norm.

    Each sum of squares adds in C order, as `AdamP.step`'s does over its
    parameter's segment of the flat gradient: np.sum would add a transposed
    view, such as a conv's weight gradient, in memory order."""
    grads = [np.ascontiguousarray(g) for g in grads]
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm:
        factor = float(max_norm) / total
        grads = [g * factor for g in grads]
    return grads, total


def reference_optimizers(nets):
    """`Optimizers.build` with steps that clip nothing."""
    return eisgan.Optimizers(
        opt_d=ng.AdamP(nets.d_params(), eisgan.LR_D, np.inf),
        opt_g=ng.AdamP(nets.g_params(), eisgan.LR_G, np.inf))

def reference_forward_g(nets, code):
    pad = (eisgan.KERNEL_WIDTH - 1) // 2
    h = ng.dense(code, nets.g_dense_w, nets.g_dense_b)
    shape = (code.data.shape[0], eisgan.GEN_WIDTHS[0], eisgan.GEN_BASE_LEN)
    h = ng.leaky_relu(ng.reshape(h, shape), eisgan.ALPHA)
    for i, bank in enumerate(nets.g_convs):
        last = i == len(nets.g_convs) - 1
        if not last:
            h = ng.upsample_nearest(h, 2)
        h = ng.conv1d(h, bank, padding=pad)
        if not last:
            h = ng.leaky_relu(h, eisgan.ALPHA)
    return h


def reference_forward_trunk(nets, x):
    pad = (eisgan.KERNEL_WIDTH - 1) // 2
    h = x
    for bank in nets.trunk_convs:
        h = ng.avg_pool1d(ng.leaky_relu(ng.conv1d(h, bank, padding=pad), eisgan.ALPHA), 2)
    flat = int(np.prod(h.data.shape[-2:]))
    h = ng.dense(ng.reshape(h, (h.data.shape[0], flat)), nets.trunk_dense_w, nets.trunk_dense_b)
    return ng.leaky_relu(h, eisgan.ALPHA)


def reference_train_step(nets, real_batch, opts, rng, merged=True):
    cfg = nets.config
    batch = real_batch.shape[0]
    k = cfg.latent_dim

    def sample(cfg, batch, rng):
        # the float64 draws in the networks' dtype, as `train_step` takes them
        return eisgan._sample_codes(cfg, batch, rng).astype(nets.g_dense_w.data.dtype)

    # D, trunk and Q: BCE on real and fake plus lambda * code NLL of the fakes
    d_codes = sample(cfg, batch, rng)
    fake = reference_forward_g(nets, ng.Tensor(d_codes)).data
    with ng.Tape() as tape:
        if merged:
            both = reference_forward_trunk(nets, ng.Tensor(np.concatenate([real_batch, fake])))
            logits = eisgan._d_logit(nets, both)
            logit_real, logit_fake = ng.rows(logits, 0, batch), ng.rows(logits, batch, 2 * batch)
            features = ng.rows(both, batch, 2 * batch)
        else:
            logit_real = eisgan._d_logit(nets, reference_forward_trunk(nets, ng.Tensor(real_batch)))
            features = reference_forward_trunk(nets, ng.Tensor(fake))
            logit_fake = eisgan._d_logit(nets, features)
        loss_d = ng.add(ng.bce_logit_loss(logit_real, True),
                        ng.bce_logit_loss(logit_fake, False))
        nll_d = ng.gaussian_nll(eisgan._q_mean(nets, features), d_codes[:, :k])
        total = ng.add(loss_d, ng.scale(nll_d, eisgan.LAMBDA_MI))
        grads = ng.backward(tape, total, nets.d_params())
    grads, norm_d = clip_global_norm(grads, eisgan.GRAD_CLIP)
    opts.opt_d.step(grads)

    # G: non-saturating BCE plus lambda * code NLL of its own batch
    g_codes = sample(cfg, batch, rng)
    with ng.Tape() as tape:
        features = reference_forward_trunk(nets, reference_forward_g(nets, ng.Tensor(g_codes)))
        loss_g = ng.bce_logit_loss(eisgan._d_logit(nets, features), True)
        loss_mi = ng.gaussian_nll(eisgan._q_mean(nets, features), g_codes[:, :k])
        total = ng.add(loss_g, ng.scale(loss_mi, eisgan.LAMBDA_MI))
        grads = ng.backward(tape, total, nets.g_params())
    grads, norm_g = clip_global_norm(grads, eisgan.GRAD_CLIP)
    opts.opt_g.step(grads)

    losses = {"loss_d": float(loss_d.data), "loss_g": float(loss_g.data),
              "loss_mi": float(loss_mi.data), "grad_norm_d": norm_d,
              "grad_norm_g": norm_g}
    for name, value in losses.items():
        if not np.isfinite(value):
            raise GanError(f"non-finite {name} in training step")
    return losses


def test_train_bit_identical_with_reference_train_step(monkeypatch):
    data = toy_batch(24, seed=6)
    cfg = tiny_config(epochs=2)
    nets, rep = eisgan.train(data, cfg)
    monkeypatch.setattr(eisgan, "train_step", reference_train_step)
    monkeypatch.setattr(eisgan.Optimizers, "build", staticmethod(reference_optimizers))
    ref_nets, ref_rep = eisgan.train(data, cfg)
    assert rep == ref_rep
    assert len(rep.grad_norm_g) == 2
    for p, ref in zip(nets.all_params(), ref_nets.all_params()):
        assert np.array_equal(p.data, ref.data)
    assert np.array_equal(eisgan.extract_latents(nets, data),
                          eisgan.extract_latents(ref_nets, data))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clipping_train_step_bit_identical_with_reference_train_step(dtype, monkeypatch):
    # a bound low enough that every sub-update clips: the step's own clip
    # leaves the same bits as the separate clip pass before a step without one
    monkeypatch.setattr(eisgan, "GRAD_CLIP", 0.005)
    batch = toy_batch(16, seed=4).astype(dtype)
    runs = []
    for step, build in ((eisgan.train_step, eisgan.Optimizers.build),
                        (reference_train_step, reference_optimizers)):
        nets = _nets_in(dtype, seed=3)
        opts, rng = build(nets), np.random.default_rng(5)
        runs.append(([step(nets, batch, opts, rng) for _ in range(3)],
                     [p.data for p in nets.all_params()]))
    (reports, params), (ref_reports, ref_params) = runs
    assert reports == ref_reports
    assert all(min(r["grad_norm_d"], r["grad_norm_g"]) > 0.005 for r in reports)
    for p, ref in zip(params, ref_params):
        assert p.dtype == ref.dtype == dtype
        assert np.array_equal(p, ref)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_train_step_agrees_with_two_pass_batch_major_step_to_rounding(dtype, tol, monkeypatch):
    # one trunk pass over real and fake, and conv sums over (position, batch),
    # change only the order of sums: the two-pass step over (batch, position)
    # convs, from the same start, agrees to rounding in its losses, in both
    # sub-updates' gradients and in the parameters it leaves. The absolute
    # part of each tolerance scales with the array's largest entry
    batch = toy_batch(32, seed=8)
    backward, runs = ng.backward, []

    def recording(tape, loss, params):
        grads = backward(tape, loss, params)
        runs[-1][1].extend(grads)
        return grads

    monkeypatch.setattr(ng, "backward", recording)
    for step, conv, build in ((eisgan.train_step, ng.conv1d, eisgan.Optimizers.build),
                              (functools.partial(reference_train_step, merged=False),
                               batch_major_conv1d, reference_optimizers)):
        monkeypatch.setattr(ng, "conv1d", conv)
        nets = _nets_in(dtype, seed=2)
        opts = build(nets)
        runs.append(({}, []))
        runs[-1][0].update(step(nets, batch.astype(dtype), opts, np.random.default_rng(9)))
        runs[-1][1].extend(p.data for p in nets.all_params())
    (losses, arrays), (old_losses, old_arrays) = runs
    assert losses.keys() == old_losses.keys()
    for name, value in old_losses.items():
        assert losses[name] == pytest.approx(value, rel=tol)
    assert len(arrays) == len(old_arrays) == 2 * len(nets.all_params())
    for got, want in zip(arrays, old_arrays):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


# ---------------------------------------------------------------------------
# precision: `train` runs in float32, everything else in float64
# ---------------------------------------------------------------------------

def _nets_in(dtype, seed=0):
    """Networks from `init_networks` with every parameter rounded to float32
    and then held in `dtype`."""
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(seed))
    for p in nets.all_params():
        p.data = p.data.astype(np.float32).astype(dtype)
    return nets


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_step_runs_in_the_networks_dtype(dtype, monkeypatch):
    # one float64 node or gradient in a float32 step would widen every op
    # upstream of it in the backward sweep
    swept, backward = [], ng.backward

    def recording(tape, loss, params):
        grads = backward(tape, loss, params)
        swept.append(([node.data.dtype for node in tape.nodes], [g.dtype for g in grads]))
        return grads

    nets = _nets_in(dtype)
    opts = eisgan.Optimizers.build(nets)
    monkeypatch.setattr(ng, "backward", recording)
    eisgan.train_step(nets, toy_batch(16).astype(dtype), opts, np.random.default_rng(1))
    assert len(swept) == 2
    for nodes, grads in swept:
        assert nodes and set(nodes) == {np.dtype(dtype)}
        assert set(grads) == {np.dtype(dtype)}
    for opt in (opts.opt_d, opts.opt_g):
        assert {a.dtype for a in [opt._m, opt._v] + [p.data for p in opt.params]} == \
            {np.dtype(dtype)}


@pytest.mark.parametrize("seed", range(3))
def test_float32_step_agrees_with_float64_step(seed):
    # the same float32-rounded start and batch and the same code draws, which
    # the float32 step rounds: each parameter after one step agrees in the
    # relative norm to 100 float32 epsilons, 1.2e-5 (measured over seeds 0-5:
    # at most 7e-7)
    tol = 100 * np.finfo(np.float32).eps
    after, losses = [], []
    for dtype in (np.float32, np.float64):
        nets = _nets_in(dtype, seed)
        opts = eisgan.Optimizers.build(nets)
        batch = toy_batch(16, seed).astype(np.float32).astype(dtype)
        losses.append(eisgan.train_step(nets, batch, opts, np.random.default_rng(seed + 1)))
        after.append(nets)
    for p32, p64 in zip(after[0].all_params(), after[1].all_params()):
        assert np.linalg.norm(p32.data - p64.data) <= tol * np.linalg.norm(p64.data)
    for name, value in losses[1].items():
        assert losses[0][name] == pytest.approx(value, rel=tol)


def test_train_returns_float64_parameters_holding_float32_values():
    nets, _ = eisgan.train(toy_batch(16, seed=2), tiny_config(epochs=1))
    for p in nets.all_params():
        assert p.data.dtype == np.float64
        assert np.array_equal(p.data.astype(np.float32).astype(np.float64), p.data)


def test_train_rejects_curve_that_overflows_float32():
    data = toy_batch(8)
    data[3, 1, 7] = 4e38
    data[6, 0, 0] = -1e300
    with pytest.raises(GanError, match="training curve 3 overflows float32"):
        eisgan.train(data, tiny_config())
    data[3, 1, 7] = 3e38   # below float32's largest finite value, 3.4e38
    with pytest.raises(GanError, match="training curve 6 overflows float32"):
        eisgan.train(data, tiny_config())


def test_optimizers_hold_disjoint_params_covering_all():
    # no parameter may carry two sets of Adam moments; the two groups, G's
    # first, are every parameter in the checkpoint's order
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(0))
    opts = eisgan.Optimizers.build(nets)
    d_ids = [id(p) for p in opts.opt_d.params]
    g_ids = [id(p) for p in opts.opt_g.params]
    assert d_ids == [id(p) for p in nets.d_params()]
    assert g_ids == [id(p) for p in nets.g_params()]
    assert not set(d_ids) & set(g_ids)
    assert len(set(d_ids)) == len(d_ids) and len(set(g_ids)) == len(g_ids)
    assert [id(p) for p in nets.all_params()] == g_ids + d_ids


def _params_after_steps(monkeypatch, lambda_mi, steps=3):
    monkeypatch.setattr(eisgan, "LAMBDA_MI", lambda_mi)
    nets = eisgan.init_networks(tiny_config(), np.random.default_rng(0))
    opts = eisgan.Optimizers.build(nets)
    rng = np.random.default_rng(1)
    for i in range(steps):
        eisgan.train_step(nets, toy_batch(16, seed=i), opts, rng)
    return np.concatenate([p.data.ravel() for p in nets.all_params()])


def test_lambda_mi_moves_training(monkeypatch):
    # Adam ignores the scale of a loss it steps alone; lambda weighs the code
    # NLL against the adversarial terms, so it must change the trajectory
    a, b = _params_after_steps(monkeypatch, 0.3), _params_after_steps(monkeypatch, 3.0)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) > 3e-3


def test_train_step_op_counts(monkeypatch):
    # two sub-updates at the default widths: the fake draw (3 G convs), the D
    # step (4 trunk convs over the real and fake rows at once) and the G step
    # (3 + 4), two backward sweeps and two Adam steps
    counts = {"conv1d": 0, "backward": 0, "step": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ng, "conv1d", counting("conv1d", ng.conv1d))
    monkeypatch.setattr(ng, "backward", counting("backward", ng.backward))
    monkeypatch.setattr(ng.AdamP, "step", counting("step", ng.AdamP.step))
    cfg = GanConfig()
    nets = eisgan.init_networks(cfg, np.random.default_rng(0))
    opts = eisgan.Optimizers.build(nets)
    eisgan.train_step(nets, toy_batch(cfg.batch_size), opts, np.random.default_rng(1))
    assert counts == {"conv1d": 14, "backward": 2, "step": 2}


def test_mi_objective_descends_under_joint_updates():
    # the G+Q sub-update alone must be able to drive the code NLL down
    cfg = tiny_config()
    nets = eisgan.init_networks(cfg, np.random.default_rng(0))
    opt = ng.AdamP(nets.g_params() + [nets.q_head_w, nets.q_head_b], lr=1e-3,
                   max_norm=np.inf)
    codes = np.random.default_rng(1).standard_normal((16, 25))
    losses = []
    for _ in range(150):
        with ng.Tape() as tape:
            x_g = eisgan._forward_g(nets, ng.Tensor(codes))
            q_mean = eisgan._q_mean(nets, eisgan._forward_trunk(nets, x_g))
            loss = ng.gaussian_nll(q_mean, codes[:, :9])
            grads = ng.backward(tape, loss, opt.params)
        opt.step(grads)
        losses.append(float(loss.data))
    # floor is 9 * (log(2 pi) + 1) / 2 ~ 8.27 for exact code recovery
    assert losses[0] > 12.0
    assert losses[-1] < 9.0


# ---------------------------------------------------------------------------
# latent selection
# ---------------------------------------------------------------------------

def test_align_and_select_ranks_by_correlation():
    cap = np.linspace(45.0, 36.0, 30)
    rng = np.random.default_rng(0)
    lat = rng.standard_normal((30, 9)) * 0.01
    lat[:, 4] += cap / 45.0          # strongly correlated, decreasing
    lat[:, 7] -= 0.5 * cap / 45.0    # second strongest, increasing with cycle
    sel = eisgan.align_and_select(lat, cap)
    assert sel.top2 == (4, 7)
    assert abs(sel.correlations[4]) > 0.9


def test_align_and_select_flips_increasing_dims():
    cap = np.linspace(45.0, 36.0, 20)
    lat = np.zeros((20, 9))
    lat[:, 0] = np.linspace(-1.0, 1.0, 20)   # rises with cycle: flip
    lat[:, 1] = np.linspace(1.0, -1.0, 20)   # falls: keep
    sel = eisgan.align_and_select(lat, cap)
    assert sel.flipped[0] and not sel.flipped[1]
    assert np.all(np.diff(sel.aligned[:, 0]) < 0)
    assert np.all(np.diff(sel.aligned[:, 1]) < 0)


def test_align_and_select_constant_dims_rank_last():
    cap = np.linspace(45.0, 40.0, 10)
    rng = np.random.default_rng(1)
    lat = rng.standard_normal((10, 9))
    lat[:, 2] = 3.0
    lat[:, 6] = -1.0
    sel = eisgan.align_and_select(lat, cap)
    assert set(sel.order[-2:]) == {2, 6}
    assert np.isnan(sel.correlations[2])


def test_align_and_select_needs_three_cycles():
    with pytest.raises(GanError):
        eisgan.align_and_select(np.zeros((2, 9)), np.array([45.0, 44.0]))


def test_align_and_select_needs_two_code_dims():
    with pytest.raises(GanError, match="at least 2 code dimensions"):
        eisgan.align_and_select(np.zeros((5, 1)), np.linspace(45.0, 44.0, 5))


def test_align_and_select_length_mismatch():
    with pytest.raises(GanError):
        eisgan.align_and_select(np.zeros((5, 9)), np.zeros(4))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    data = toy_batch(16, seed=3)
    nets, _ = eisgan.train(data, tiny_config(epochs=1))
    stats = eisdata.NormStats(0.5, 0.1, -0.2, 0.05)
    path = tmp_path / "gan.npz"
    eisgan.save_checkpoint(path, nets, stats)
    loaded, loaded_stats = eisgan.load_checkpoint(path)
    assert loaded.config == nets.config
    assert loaded_stats == stats
    for pa, pb in zip(nets.all_params(), loaded.all_params()):
        assert np.array_equal(pa.data, pb.data)
    # the trained weights in memory and from the file give the same float64
    # latents, for one curve and for a batch
    x = np.random.default_rng(0).standard_normal((2, 60))
    assert np.array_equal(eisgan.extract_latents(nets, x),
                          eisgan.extract_latents(loaded, x))
    latents = eisgan.extract_latents(nets, data)
    assert latents.dtype == np.float64
    assert np.array_equal(latents, eisgan.extract_latents(loaded, data))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.npz"
    header = np.frombuffer(b'{"format": "other"}', dtype=np.uint8)
    np.savez(path, header=header)
    with pytest.raises(GanError, match="format"):
        eisgan.load_checkpoint(path)


def _saved_checkpoint(tmp_path, cfg=None):
    nets = eisgan.init_networks(cfg or tiny_config(), np.random.default_rng(0))
    path = tmp_path / "gan.npz"
    eisgan.save_checkpoint(path, nets, eisdata.NormStats(0.5, 0.1, -0.2, 0.05))
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    return path, arrays


def _rewrite(path, arrays, header=None):
    if header is not None:
        raw = header if isinstance(header, bytes) else json.dumps(header).encode()
        arrays = dict(arrays, header=np.frombuffer(raw, dtype=np.uint8))
    np.savez(path, **arrays)


def _header(arrays):
    return json.loads(bytes(arrays["header"]).decode())


def test_checkpoint_rejects_unparseable_header(tmp_path):
    path, arrays = _saved_checkpoint(tmp_path)
    _rewrite(path, arrays, header=b'{"format": "eisgan-checkpoint-v1", ')
    with pytest.raises(GanError, match="header"):
        eisgan.load_checkpoint(path)


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["config"]["dropout"] = 0.5
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match="dropout"):
        eisgan.load_checkpoint(path)


def test_checkpoint_with_lr_q_is_refused(tmp_path):
    # checkpoints written while a third Adam stepped on lr_q must be retrained
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["config"]["lr_q"] = 1e-4
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match=r"unknown \['lr_q'\]"):
        eisgan.load_checkpoint(path)


def test_checkpoint_v1_is_refused(tmp_path):
    # v1 headers also carried channels, gen_base_len and q_sigma; such files are retrained
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["config"].update(channels=2, gen_base_len=15, q_sigma=1.0)
    _rewrite(path, arrays, dict(header, format="eisgan-checkpoint-v1"))
    with pytest.raises(GanError, match="unknown checkpoint format 'eisgan-checkpoint-v1'"):
        eisgan.load_checkpoint(path)
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match=r"unknown \['channels', 'gen_base_len', 'q_sigma'\]"):
        eisgan.load_checkpoint(path)


#: the GanConfig code sizes, which are now class attributes, with their values
CODE_SIZES = {"latent_dim": 9, "noise_dim": 16}
#: the GanConfig fields, with their last values, that are now eisgan constants
#: or class attributes; a v2 checkpoint header held them all, a v3 one CODE_SIZES
FIXED_SETTINGS = {"length": 60, "trunk_widths": [16, 32, 64, 64], "gen_widths": [64, 32, 16],
                  "feature_dim": 64, "kernel_width": 5, "lr_d": 4e-4, "lr_g": 1e-4,
                  "lambda_mi": 3.0, "alpha": 0.01, "grad_clip": 10.0, **CODE_SIZES}


def test_checkpoint_v2_is_refused(tmp_path):
    # a v2 file holds the same arrays as v4; it is refused all the same and retrained
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["config"].update(FIXED_SETTINGS)
    _rewrite(path, arrays, dict(header, format="eisgan-checkpoint-v2"))
    with pytest.raises(GanError, match="unknown checkpoint format 'eisgan-checkpoint-v2'"):
        eisgan.load_checkpoint(path)
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match=re.escape(f"unknown {sorted(FIXED_SETTINGS)}")):
        eisgan.load_checkpoint(path)


def test_checkpoint_v3_is_refused(tmp_path):
    # a v3 file holds the same arrays as v4 and the code sizes in its header
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["config"].update(CODE_SIZES)
    _rewrite(path, arrays, dict(header, format="eisgan-checkpoint-v3"))
    with pytest.raises(GanError, match="unknown checkpoint format 'eisgan-checkpoint-v3'"):
        eisgan.load_checkpoint(path)
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match=re.escape(f"unknown {sorted(CODE_SIZES)}")):
        eisgan.load_checkpoint(path)


def test_checkpoint_rejects_missing_config_key(tmp_path):
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    del header["config"]["epochs"]
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match="epochs"):
        eisgan.load_checkpoint(path)


def test_checkpoint_rejects_bad_config_value(tmp_path):
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["config"]["batch_size"] = None
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match="batch_size must be an integer"):
        eisgan.load_checkpoint(path)


@pytest.mark.parametrize("name", ["re_mean", "re_scale", "im_mean", "im_scale"])
@pytest.mark.parametrize("value", ["0.1", None, True, float("nan"), float("inf"),
                                   float("-inf")])
def test_checkpoint_rejects_norm_stats_that_are_not_finite_numbers(tmp_path, name, value):
    path, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["norm_stats"][name] = value
    _rewrite(path, arrays, header)
    with pytest.raises(GanError, match="bad checkpoint header: DataError.*" + re.escape(
            f"normalization {name} must be a finite number, got {value!r}")):
        eisgan.load_checkpoint(path)


def test_checkpoint_rejects_missing_parameter_array(tmp_path):
    path, arrays = _saved_checkpoint(tmp_path)
    del arrays["p007"]
    _rewrite(path, arrays)
    with pytest.raises(GanError, match="p007"):
        eisgan.load_checkpoint(path)


def test_checkpoint_rejects_extra_parameter_array(tmp_path):
    path, arrays = _saved_checkpoint(tmp_path)
    arrays["p999"] = np.zeros(3)
    _rewrite(path, arrays)
    with pytest.raises(GanError, match="p999"):
        eisgan.load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_nonfinite_parameters(tmp_path, bad):
    path, arrays = _saved_checkpoint(tmp_path)
    arrays["p004"] = arrays["p004"].copy()
    arrays["p004"].flat[1] = bad
    _rewrite(path, arrays)
    with pytest.raises(GanError, match="parameter 4"):
        eisgan.load_checkpoint(path)


#: parameter arrays that are not real floats: complex once lost its imaginary
#: part with only a warning, bool loaded as 0/1, and an object or str array
#: raised a bare ValueError or TypeError
NOT_REAL_FLOATS = {
    "complex": lambda a: a + 1j,
    "bool": lambda a: a > 0,
    "object": lambda a: a.astype(object),
    "str": lambda a: a.astype(str),
}


@pytest.mark.parametrize("kind", NOT_REAL_FLOATS)
def test_checkpoint_rejects_parameters_that_are_not_real_floats(tmp_path, kind):
    path, arrays = _saved_checkpoint(tmp_path)
    arrays["p000"] = NOT_REAL_FLOATS[kind](arrays["p000"])
    _rewrite(path, arrays)
    with pytest.raises(GanError, match="checkpoint parameter 0 "):
        eisgan.load_checkpoint(path)


MEANS = st.floats(-1e300, 1e300)
SCALES = st.floats(1e-300, 1e300)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       stats=st.builds(eisdata.NormStats, MEANS, SCALES, MEANS, SCALES))
def test_checkpoint_round_trip_bit_exact_over_random_configs(tmp_path_factory, seed, stats):
    cfg = GanConfig(seed=seed, epochs=1, batch_size=1)
    nets = eisgan.init_networks(cfg, np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("ckpt") / "gan.npz"
    eisgan.save_checkpoint(path, nets, stats)
    loaded, loaded_stats = eisgan.load_checkpoint(path)
    assert loaded.config == cfg and loaded_stats == stats
    for pa, pb in zip(nets.all_params(), loaded.all_params()):
        assert pa.data.tobytes() == pb.data.tobytes()
    x = np.random.default_rng(seed).standard_normal((2, eisgan.CHANNELS, eisdata.T_POINTS))
    assert np.array_equal(eisgan.extract_latents(nets, x), eisgan.extract_latents(loaded, x))


@pytest.mark.parametrize("content", [
    pytest.param(b"not a checkpoint\n", id="text"),
    pytest.param(b"", id="empty"),
    pytest.param("truncated", id="truncated"),
    pytest.param("npy", id="bare-npy"),
])
def test_checkpoint_that_is_no_npz_archive_raises_gan_error(tmp_path, content):
    path, _ = _saved_checkpoint(tmp_path)
    if content == "truncated":
        content = path.read_bytes()[:200]
    elif content == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        content = path.read_bytes()
    path.write_bytes(content)
    with pytest.raises(GanError, match="unreadable checkpoint .*: not an npz archive"):
        eisgan.load_checkpoint(path)


def test_missing_checkpoint_keeps_its_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        eisgan.load_checkpoint(tmp_path / "absent.npz")
