"""End-to-end acceptance suite.

Each test prints one pass/fail line (visible even under output capture)
and then asserts. The expensive criteria share one trained default-size
GAN via a session fixture; the whole file dominates the suite's runtime.
"""

import json
import os
import time

import numpy as np
import pytest

from eisgan_soh import ecm, eisdata, eisgan, gpr, pipeline
from eisgan_soh import ndgrad as ng
from eisgan_soh.eisgan import GanConfig, LatentCode
from eisgan_soh.gpr import GprModel, Hyperparams
from eisgan_soh.pipeline import (PerturbSettings, PipelineConfig,
                                 SynthSettings)


def note(capsys, name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print("\n" + line)


# ---------------------------------------------------------------------------
# shared trained GAN (criteria 5, 6, 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def stage5_run():
    ds = ecm.synth_dataset(4, 4, 120, [5], seed=0)
    train_curves = ds.curves_for(5, ds.train_cells)
    stats = eisdata.fit_norm_stats(train_curves)
    arrays = np.stack([eisdata.curve_to_array(c)
                       for c in eisdata.normalize(train_curves, stats)])
    config = GanConfig(seed=1)
    t0 = time.time()
    nets, _ = eisgan.train(arrays, config)
    elapsed = time.time() - t0
    return ds, nets, stats, config, elapsed


def _latents(ds, nets, stats, cells):
    curves = ds.curves_for(5, cells)
    lat = np.stack([eisgan.extract_latents(nets, eisdata.curve_to_array(c))
                    for c in eisdata.normalize(curves, stats)])
    y = np.array([ds.capacity(c.cell_id, c.cycle) for c in curves])
    return curves, lat, y


# ---------------------------------------------------------------------------
# 1: gradient correctness of every op
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness(capsys):
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        r_in = int(rng.integers(1, 4))
        length = int(rng.integers(6, 16))
        k_out = int(rng.integers(1, 4))
        k_w = int(rng.integers(1, 4))
        pad = (k_w - 1) // 2
        x = rng.standard_normal((r_in, length))
        kern = rng.standard_normal((k_out, r_in, k_w)) * 0.5
        bias = rng.standard_normal(k_out) * 0.1
        l_conv = length + 2 * pad - k_w + 1
        flat_dim = k_out * ((l_conv * 2) // 2)
        w2 = rng.standard_normal((3, flat_dim)) * 0.3
        b2 = rng.standard_normal(3) * 0.1
        code = rng.standard_normal(3)

        def run():
            # chains conv1d, upsample, pool, leaky relu, reshape, dense,
            # both losses, add, and scale through one backward pass, on a
            # batch of one as training runs them
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
                              ng.scale(ng.gaussian_nll(out, code[None], 1.0), 0.1))
                grads = ng.backward(tape, loss, params)
            return float(loss.data), grads

        _, grads = run()
        h = 1e-5
        for arr, grad in zip((kern, bias, w2, b2), grads):
            flat = arr.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                lp = run()[0]
                flat[i] = old - h
                lm = run()[0]
                flat[i] = old
                fd = (lp - lm) / (2 * h)
                an = grad.ravel()[i]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    note(capsys, "1 gradient correctness", ok,
         f"100 cases, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2: GPR oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_gpr_oracle(capsys):
    rng = np.random.default_rng(102)
    worst_mean, worst_var = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.choice([1, 9, 120]))
        c = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        hp = Hyperparams(float(rng.uniform(0.05, 1.0)),
                         float(rng.uniform(0.3, 3.0)),
                         float(rng.uniform(0.5, 5.0)))
        model = GprModel.build(c, y, hp, 0.0, 1.0)
        c_star = rng.standard_normal((4, d))
        mean, var = model.predict(c_star)
        k = gpr.kernel_matrix(c, c, hp) + hp.sigma_n ** 2 * np.eye(n)
        k_inv = np.linalg.inv(k)
        ks = gpr.kernel_matrix(c_star, c, hp)
        ref_mean = ks @ k_inv @ y
        ref_var = hp.sigma_f ** 2 - np.sum(ks @ k_inv * ks, axis=1)
        worst_mean = max(worst_mean, float(np.abs(mean - ref_mean).max()))
        worst_var = max(worst_var, float(np.abs(var - ref_var).max()))

    worst_grad = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 20))
        c = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        theta = rng.uniform(np.log(0.1), np.log(3.0), 3)
        _, grad = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(theta))
        h = 1e-6
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            lp, _ = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(tp))
            lm, _ = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(tm))
            fd = (lp - lm) / (2 * h)
            worst_grad = max(worst_grad,
                             abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-3))
    ok = worst_mean < 1e-8 and worst_var < 1e-8 and worst_grad < 1e-5
    note(capsys, "2 GPR oracle equivalence", ok,
         f"mean {worst_mean:.1e}, var {worst_var:.1e}, grad rel {worst_grad:.1e}")
    assert worst_mean < 1e-8
    assert worst_var < 1e-8
    assert worst_grad < 1e-5


# ---------------------------------------------------------------------------
# 3: GPR closed-form cases
# ---------------------------------------------------------------------------

def test_criterion_3_gpr_closed_forms(capsys):
    hp = Hyperparams(0.4, 1.1, 1.0)
    model = GprModel.build([[0.5]], [2.0], hp, 0.0, 1.0)
    mean, _ = model.predict([0.5])
    expected = hp.sigma_f ** 2 / (hp.sigma_f ** 2 + hp.sigma_n ** 2) * 2.0
    err_n1 = abs(float(mean) - expected)

    rng = np.random.default_rng(103)
    c = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    noise_free = GprModel.build(c, y, Hyperparams(1e-9, 1.0, 1.5), 0.0, 1.0)
    m2, v2 = noise_free.predict(c)
    err_interp = float(np.abs(m2 - y).max())
    err_var = float(np.abs(v2).max())

    ok = err_n1 < 1e-10 and err_interp < 1e-10 and err_var < 1e-10
    note(capsys, "3 GPR closed forms", ok,
         f"n=1 {err_n1:.1e}, interp {err_interp:.1e}, var {err_var:.1e}")
    assert err_n1 < 1e-10
    assert err_interp < 1e-10
    assert err_var < 1e-10


# ---------------------------------------------------------------------------
# 4: metrics hand vectors, negative R^2 producible
# ---------------------------------------------------------------------------

def test_criterion_4_metrics(capsys):
    mae, rmse, r2 = pipeline.metrics([1.0, 2.0, 3.0], [2.0, 2.0, 3.0])
    hand_ok = (mae == pytest.approx(1 / 3) and rmse == pytest.approx(1 / np.sqrt(3))
               and r2 == pytest.approx(0.5))
    _, _, r2_bad = pipeline.metrics([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    ok = hand_ok and r2_bad < 0
    note(capsys, "4 metrics", ok,
         f"MAE={mae:.4f} RMSE={rmse:.4f} R2={r2:.2f}, worse-than-mean R2={r2_bad:.1f}")
    assert hand_ok
    assert r2_bad < 0


# ---------------------------------------------------------------------------
# 5: InfoGAN latent recovery under default training
# ---------------------------------------------------------------------------

def test_criterion_5_latent_recovery(capsys, stage5_run):
    _, nets, _, config, elapsed = stage5_run
    rng = np.random.default_rng(123)
    codes = rng.standard_normal((500, config.latent_dim))
    z = np.zeros(config.noise_dim)
    recovered = np.stack([
        eisgan.extract_latents(nets, eisgan.generate(nets, LatentCode(c, z)))
        for c in codes])
    corrs = np.array([abs(float(np.corrcoef(codes[:, j], recovered[:, j])[0, 1]))
                      for j in range(config.latent_dim)])
    n_good = int(np.sum(corrs >= 0.7))
    ok = n_good >= 2 and elapsed < 900.0
    top = ", ".join(f"{c:.2f}" for c in sorted(corrs, reverse=True)[:3])
    note(capsys, "5 latent recovery", ok,
         f"{n_good}/9 dims with |corr| >= 0.7 (top: {top}), train {elapsed:.0f}s")
    assert elapsed < 900.0
    assert n_good >= 2


# ---------------------------------------------------------------------------
# 6: end-to-end capacity estimation and aligned latent traces
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end(capsys, stage5_run):
    ds, nets, stats, _, _ = stage5_run
    _, c_train, y_train = _latents(ds, nets, stats, ds.train_cells)
    model = gpr.fit(c_train, y_train, restarts=5, max_iter=100, seed=0)
    test_curves, c_test, y_test = _latents(ds, nets, stats, ds.test_cells)

    r2_by_cell = {}
    for cell in ds.test_cells:
        idx = [i for i, c in enumerate(test_curves) if c.cell_id == cell]
        mean, _ = model.predict(c_test[idx])
        _, _, r2 = pipeline.metrics(y_test[idx], mean)
        r2_by_cell[cell] = r2

    # sign-flip invariant: aligned top-2 traces decrease with cycle
    cell = ds.test_cells[0]
    idx = [i for i, c in enumerate(test_curves) if c.cell_id == cell]
    sel = eisgan.align_and_select(c_test[idx], y_test[idx])
    cycles = np.arange(len(idx), dtype=float)
    trends = [float(np.corrcoef(sel.aligned[:, dim], cycles)[0, 1])
              for dim in sel.top2]

    ok = all(r2 >= 0.6 for r2 in r2_by_cell.values()) and all(t < 0 for t in trends)
    detail = " ".join(f"{c}={r2:.2f}" for c, r2 in r2_by_cell.items())
    note(capsys, "6 end-to-end estimation", ok,
         f"R2 {detail}; aligned trends {trends[0]:.2f}, {trends[1]:.2f}")
    for cell, r2 in r2_by_cell.items():
        assert r2 >= 0.6, f"{cell}: R2={r2:.3f}"
    for t in trends:
        assert t < 0


# ---------------------------------------------------------------------------
# 7: robustness ordering (soft: flags, never fails)
# ---------------------------------------------------------------------------

def test_criterion_7_robustness_soft(capsys):
    config = PipelineConfig(
        synth=SynthSettings(n_train_cells=4, n_test_cells=1, n_cycles=80),
        stages=(3,),
        gan=GanConfig(seed=0),
        gpr=pipeline.GprSettings(restarts=3, max_iter=60),
        perturb=PerturbSettings(sigmas=(0.003,), n_samples=100, cycle=40),
        seed=0)
    ds = pipeline.load_dataset(config)
    report = pipeline.run_study(ds, config)["perturb_report"]

    mads = {}
    for e in report.entries:
        mads[e.path_name] = float(np.median(np.abs(e.deviations_mah)))
    ordered = mads["eisgan"] <= mads["baseline"]
    note(capsys, "7 robustness ordering (soft)", ordered,
         f"median |dev| eisgan={mads['eisgan']:.4f} "
         f"baseline={mads['baseline']:.4f} mAh"
         + ("" if ordered else "; flagged, not failed"))
    # soft criterion: the study is emitted and sane, the ordering is reported
    assert set(mads) == {"eisgan", "baseline"}
    assert all(np.isfinite(v) for v in mads.values())


# ---------------------------------------------------------------------------
# 8: determinism of run-all
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(capsys, tmp_path):
    def run(out):
        config = PipelineConfig(
            synth=SynthSettings(n_train_cells=2, n_test_cells=1, n_cycles=8),
            stages=(5,),
            gan=GanConfig(epochs=2, batch_size=8, seed=0),
            gpr=pipeline.GprSettings(restarts=1, max_iter=20),
            perturb=PerturbSettings(sigmas=(0.003,), n_samples=5, cycle=3),
            out_dir=str(out), seed=0)
        pipeline.run_all(config)
        return {name: open(os.path.join(str(out), name), "rb").read()
                for name in ("evalreport_eisgan.json", "evalreport_baseline.json",
                             "perturbreport.json")}

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    same = all(first[k] == second[k] for k in first)
    note(capsys, "8 determinism", same,
         "report files byte-identical over two runs" if same
         else "report files differ between runs")
    assert same


# ---------------------------------------------------------------------------
# 9: latent-sweep continuity
# ---------------------------------------------------------------------------

def test_criterion_9_sweep_continuity(capsys, stage5_run):
    _, nets, _, _, _ = stage5_run

    def adjacent_dists(n_points):
        grid = np.linspace(-2.0, 2.0, n_points)
        curves = eisgan.latent_sweep(nets, 0, grid)
        return np.array([np.linalg.norm(curves[i + 1] - curves[i])
                         for i in range(len(curves) - 1)])

    coarse = adjacent_dists(9)
    fine = adjacent_dists(17)
    finite = bool(np.all(np.isfinite(coarse)))
    nonzero = bool(np.any(coarse > 0))
    shrinks = float(fine.max()) < float(coarse.max())
    ok = finite and nonzero and shrinks
    note(capsys, "9 latent-sweep continuity", ok,
         f"max step {coarse.max():.4f} -> {fine.max():.4f} on 2x refinement")
    assert finite
    assert nonzero
    assert shrinks
