"""Estimate capacity from extracted latents with Gaussian process regression.

Latent codes extracted from training-cell spectra, paired with measured
capacities, fit a GP with a squared-exponential kernel; held-out cells are
then predicted with calibrated uncertainty.

Run: python3 demos/demo_03_gpr_capacity.py   (takes a few minutes)
"""

import numpy as np

from eisgan_soh import ecm, eisdata, eisgan, gpr, pipeline

config = pipeline.PipelineConfig(
    synth=pipeline.SynthSettings(n_train_cells=3, n_test_cells=1, n_cycles=60),
    stages=(5,),
    gan=eisgan.GanConfig(epochs=150, seed=0),
    gpr=pipeline.GprSettings(restarts=3, max_iter=60),
    seed=0)

ds = pipeline.load_dataset(config)
print("training stage-5 GAN ...")
nets, stats, _ = pipeline.train_stage_gan(ds, config, 5)

def latents(cells):
    curves = ds.curves_for(5, cells)
    x = np.stack([eisdata.curve_to_array(c) for c in eisdata.normalize(curves, stats)])
    y = np.array([ds.capacity(c.cell_id, c.cycle) for c in curves])
    return eisgan.extract_latents(nets, x), y  # one (N, 2, T) batch -> (N, 9) codes

c_train, y_train = latents(ds.train_cells)
model = gpr.fit(c_train, y_train, restarts=3, max_iter=60, seed=0)
print(f"GPR: sigma_n={model.hp.sigma_n:.3f} sigma_f={model.hp.sigma_f:.3f} "
      f"l={model.hp.length_scale:.3f}  lml={model.lml:.1f}")

c_test, y_test = latents(ds.test_cells)
mean, var = model.predict(c_test)
mae, rmse, r2 = pipeline.metrics(y_test, mean)
print(f"\nheld-out cell {ds.test_cells[0]}: "
      f"MAE={mae:.3f} mAh  RMSE={rmse:.3f} mAh  R2={r2:.3f}")

print(f"\n{'cycle':>6} {'measured':>9} {'predicted':>10} {'std':>6}")
for i in range(0, len(y_test), 12):
    print(f"{i:>6} {y_test[i]:>9.2f} {mean[i]:>10.2f} {np.sqrt(var[i]):>6.3f}")
