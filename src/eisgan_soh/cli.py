"""Command-line entry point: eisgan-soh <subcommand> --config <path>.

Subcommands: synth, train-gan, extract, fit-gpr, predict, evaluate,
baseline, perturb, sweep, run-all. Exit code 0 on success; on failure a
single machine-parsable JSON error line is printed to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import eisdata, eisgan, gpr, pipeline
from .pipeline import PipelineConfig


def _load_config(args) -> PipelineConfig:
    if args.config:
        config = PipelineConfig.from_json_file(args.config)
    else:
        config = PipelineConfig(synth=pipeline.SynthSettings())
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.stage is not None:
        config = dataclasses.replace(config, stages=(args.stage,))
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    return config


def _latents_csv_path(config, stage):
    return os.path.join(config.out_dir, f"latents_stage{stage}.csv")


def cmd_synth(config: PipelineConfig):
    dataset = pipeline.load_dataset(config)
    os.makedirs(config.out_dir, exist_ok=True)
    eisdata.save_eis_csv(os.path.join(config.out_dir, "eis.csv"), dataset.curves)
    eisdata.save_capacity_csv(os.path.join(config.out_dir, "capacity.csv"),
                              dataset.capacities)
    print(f"wrote {len(dataset.curves)} curves for cells "
          f"{dataset.train_cells + dataset.test_cells} to {config.out_dir}")


def cmd_train_gan(config: PipelineConfig):
    dataset = pipeline.load_dataset(config, capacities=False)
    os.makedirs(config.out_dir, exist_ok=True)
    for stage in config.stages:
        features, report = pipeline.train_stage_gan(config, pipeline.stage_inputs(dataset, stage))
        path = pipeline.checkpoint_path(config.out_dir, stage)
        eisgan.save_checkpoint(path, features.nets, features.stats)
        print(f"stage {stage}: trained {config.gan.epochs} epochs, "
              f"final loss_d={report.loss_d[-1]:.4f} -> {path}")


def cmd_extract(config: PipelineConfig):
    dataset = pipeline.load_dataset(config, capacities=False)
    for stage in config.stages:
        curves = dataset.curves_for(stage)
        if not curves:
            raise pipeline.PipelineError(
                f"stage {stage}: the EIS data hold no curve of this stage")
        features = pipeline.FeatureMap(*eisgan.load_checkpoint(
            pipeline.checkpoint_path(config.out_dir, stage)))
        rows = [[c.cell_id, c.stage, c.cycle] + [float(v) for v in lat]
                for c, lat in zip(curves, features(curves))]
        pipeline._write_csv(_latents_csv_path(config, stage),
                            _latents_header(features.nets.config.latent_dim), rows)
        print(f"stage {stage}: wrote {len(rows)} latent rows")


def _latents_header(latent_dim):
    return ["cell_id", "stage", "cycle"] + [f"c{i + 1}" for i in range(latent_dim)]


def _read_latents(path, stage):
    """(cell_id, stage, cycle, codes) per row of `stage`'s latents CSV as
    `extract` writes it; a wrong header, field count, number or stage raises
    PipelineError naming the file and the row (the header is row 1)."""
    with eisdata.open_text(path, pipeline.PipelineError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 4 or header != _latents_header(len(header) - 3):
            raise pipeline.PipelineError(
                f"{path}: header must be cell_id,stage,cycle,c1..ck, got {header}")
        rows = []
        for row_num, r in enumerate(reader, start=2):
            if len(r) != len(header):
                raise pipeline.PipelineError(
                    f"{path} row {row_num}: expected {len(header)} fields, got {len(r)}")
            try:
                if int(r[1]) != stage:
                    raise ValueError(f"stage {r[1]}, expected {stage}")
                rows.append((r[0], stage, int(r[2]), np.array([float(v) for v in r[3:]])))
            except ValueError as exc:
                raise pipeline.PipelineError(f"{path} row {row_num}: {exc}") from None
        return rows


# `fit-gpr` and `predict` read no EIS curves: `extract` writes a latent row for
# every curve of a stage, so the latent rows tell which cells the stage holds.

def cmd_fit_gpr(config: PipelineConfig):
    partition = pipeline.declared_partition(config)
    capacities = pipeline.load_capacities(config)
    for stage in config.stages:
        rows = _read_latents(_latents_csv_path(config, stage), stage)
        train_cells, _ = pipeline.split_partition(*partition, {r[0] for r in rows}, stage)
        train_rows = [r for r in rows if r[0] in train_cells]
        missing = [(r[0], r[2]) for r in train_rows if (r[0], r[2]) not in capacities]
        if missing:
            raise pipeline.PipelineError(
                f"stage {stage}: no capacity record for latent row(s) {missing}")
        c_train = np.stack([r[3] for r in train_rows])
        y_train = np.array([capacities[r[0], r[2]] for r in train_rows])
        model = gpr.fit(c_train, y_train, restarts=config.gpr.restarts,
                        max_iter=config.gpr.max_iter, seed=config.seed)
        path = pipeline.write_report(config.out_dir, f"gpr_stage{stage}.json", model)
        print(f"stage {stage}: GPR fit on {len(y_train)} points, "
              f"lml={model.lml:.3f} -> {path}")


def cmd_predict(config: PipelineConfig):
    train_cells, test_cells = pipeline.declared_partition(config)
    for stage in config.stages:
        with eisdata.open_text(os.path.join(config.out_dir, f"gpr_stage{stage}.json"),
                               gpr.GprError) as fh:
            model = gpr.GprModel.from_json(fh.read())
        all_rows = _read_latents(_latents_csv_path(config, stage), stage)
        rows = [r for r in all_rows if r[0] in test_cells]
        if not rows:
            raise pipeline.PipelineError(
                f"stage {stage}: no latent rows for test cells {test_cells}")
        pipeline.split_partition(train_cells, test_cells, {r[0] for r in all_rows}, stage)
        mean, var = model.predict(np.stack([r[3] for r in rows]))
        out_rows = [(r[0], stage, r[2], m, np.sqrt(v))
                    for r, m, v in zip(rows, mean, var)]
        path = os.path.join(config.out_dir, f"predictions_stage{stage}.csv")
        pipeline._write_csv(path, ["cell_id", "stage", "cycle",
                                   "pred_mean_mah", "pred_std_mah"], out_rows)
        print(f"stage {stage}: wrote {len(out_rows)} predictions")


def cmd_sweep(config: PipelineConfig):
    dataset = pipeline.load_dataset(config, capacities=False)
    for stage in config.stages:
        freq = pipeline.reference_curves(dataset, stage)[0].freq_hz
        features = pipeline.FeatureMap(*eisgan.load_checkpoint(
            pipeline.checkpoint_path(config.out_dir, stage)))
        latent_dim = features.nets.config.latent_dim
        for dim in range(latent_dim):
            path = os.path.join(config.out_dir, f"sweep_stage{stage}_dim{dim}.csv")
            pipeline._write_csv(path, pipeline.SWEEP_HEADER,
                                pipeline.sweep_rows(features, dim, freq))
        print(f"stage {stage}: wrote sweeps for {latent_dim} dims")


def _study(paths):
    """A study command: `pipeline.run_all` over `paths`, then the metrics of
    each path and the perturbation entries."""
    def command(config: PipelineConfig):
        results = pipeline.run_all(config, paths)
        for name in paths:
            for e in results[f"{name}_report"].cells:
                print(f"{name} stage {e.stage} {e.cell_id}: MAE={e.mae_mah:.4f} mAh "
                      f"RMSE={e.rmse_mah:.4f} mAh R2={e.r2:.4f}")
        for e in results["perturb_report"].entries:
            print(f"{e.path_name} stage {e.stage} sigma={e.sigma}: "
                  f"median={e.median:.5f} IQR=[{e.q25:.5f}, {e.q75:.5f}]")
        print(f"reports written to {config.out_dir}")
    return command


COMMANDS = {
    "synth": cmd_synth,
    "train-gan": cmd_train_gan,
    "extract": cmd_extract,
    "fit-gpr": cmd_fit_gpr,
    "predict": cmd_predict,
    "evaluate": _study(("eisgan",)),
    "baseline": _study(("baseline",)),
    "perturb": _study(pipeline.PATHS),
    "sweep": cmd_sweep,
    "run-all": _study(pipeline.PATHS),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eisgan-soh",
        description="EIS latent extraction and battery capacity estimation")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON pipeline configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--stage", type=int, default=None,
                        help="restrict the run to one stage")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](_load_config(args))
    except Exception as exc:  # single parsable error line, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
