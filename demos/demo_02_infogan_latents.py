"""Train the information-maximizing GAN and inspect its latent space.

The generator maps a 9-dim meaningful code plus noise to a normalized
impedance spectrum; the auxiliary head Q recovers the code from generated
spectra. After training, sweeping one code dimension while holding the
rest at zero morphs the spectrum along one learned factor of variation.

Settings here are scaled down so the script runs in about a minute;
the pipeline default trains longer.

Run: python3 demos/demo_02_infogan_latents.py
"""

import numpy as np

from eisgan_soh import ecm, eisdata, eisgan

ds = ecm.synth_dataset(3, 1, 60, [5], seed=0)
train_curves = ds.curves_for(5, ds.train_cells)
stats = eisdata.fit_norm_stats(train_curves)
arrays = eisdata.normalized_array(train_curves, stats)  # one (N, 2, T) batch

config = eisgan.GanConfig(epochs=150, seed=1)
print(f"training on {len(arrays)} curves, {config.epochs} epochs ...")
nets, report = eisgan.train(arrays, config)
print(f"loss_d {report.loss_d[0]:.3f} -> {report.loss_d[-1]:.3f}   "
      f"mi {report.loss_mi[0]:.3f} -> {report.loss_mi[-1]:.3f}")

# how well does Q recover codes from fresh generated spectra?
rng = np.random.default_rng(7)
codes = rng.standard_normal((200, 9))
recovered = np.stack([
    eisgan.extract_latents(nets, eisgan.generate(
        nets, eisgan.LatentCode(c, np.zeros(config.noise_dim))))
    for c in codes])
corrs = sorted((abs(float(np.corrcoef(codes[:, j], recovered[:, j])[0, 1]))
                for j in range(9)), reverse=True)
print("per-dim |corr(code, recovered)|, best to worst:")
print("  " + "  ".join(f"{c:.2f}" for c in corrs))

# sweep the first latent dimension over [-2, 2] and report how much the
# low-frequency end of the spectrum moves
swept = eisgan.latent_sweep(nets, 0)
tail = np.array([eisdata.array_to_channels(arr, stats)[0][-1] for arr in swept])
print("\nRe(Z) at the lowest frequency as code dim 0 sweeps -2..2:")
print("  " + "  ".join(f"{v:.4f}" for v in tail))

eisgan.save_checkpoint("demo_gan.npz", nets, stats)
print("\ncheckpoint saved to demo_gan.npz")
