"""Compare perturbation robustness of the latent path and the raw baseline.

Gaussian noise added to one spectrum propagates through both capacity
estimators. The latent path compresses 120 raw values to 9 codes before
regression; the baseline regresses on the raw spectrum directly. The
study reports how far each prediction moves under repeated noise draws,
per noise level.

Run: python3 demos/demo_04_perturbation_robustness.py  (takes a few minutes)
"""

from eisgan_soh import eisgan, pipeline

config = pipeline.PipelineConfig(
    synth=pipeline.SynthSettings(n_train_cells=3, n_test_cells=1, n_cycles=50),
    stages=(5,),
    gan=eisgan.GanConfig(epochs=120, seed=0),
    gpr=pipeline.GprSettings(restarts=3, max_iter=60),
    perturb=pipeline.PerturbSettings(sigmas=(0.001, 0.003, 0.005),
                                     n_samples=50, cycle=40),
    seed=0)

print("training both paths ...")
report = pipeline.run_study(pipeline.load_dataset(config), config)["perturb_report"]
target = report.entries[0]
print(f"\nperturbing {target.cell_id} cycle {target.cycle}, "
      f"50 noise draws per sigma\n")
print(f"{'sigma':>7} {'path':>9} {'median dev':>11} {'IQR':>17}")
for e in report.entries:
    print(f"{e.sigma:>7} {e.path_name:>9} {e.median:>11.4f} "
          f"[{e.q25:>7.4f}, {e.q75:>7.4f}]")
