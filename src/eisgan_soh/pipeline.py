"""Orchestration of the full study: per-stage GAN training, latent
extraction, GPR fitting (latent path and raw-EIS baseline), evaluation,
perturbation robustness, and plot-data emission.

Everything is driven by one PipelineConfig and one seed; two runs with the
same config produce byte-identical report files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import ecm, eisdata, eisgan, gpr
from .eisdata import (Dataset, curve_to_array, fit_norm_stats, is_finite_real,
                      normalized_array)
from .eisgan import GanConfig, check_int_fields, is_int


class PipelineError(Exception):
    """Invalid configuration or missing inputs."""


#: sentinel for R^2 when the target series is constant (SS_tot = 0)
R2_UNDEFINED = float("nan")


def metrics(y, y_hat):
    """(MAE, RMSE, R^2); R^2 is NaN when y is constant and may be negative."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if len(y) == 0 or len(y) != len(y_hat):
        raise PipelineError(f"metric inputs misaligned: {len(y)} vs {len(y_hat)}")
    resid = y - y_hat
    mae = float(np.mean(np.abs(resid)))
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return mae, rmse, R2_UNDEFINED
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return mae, rmse, r2


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSettings:
    n_train_cells: int = 4
    n_test_cells: int = 4
    n_cycles: int = 120

    def __post_init__(self):
        check_int_fields(self, PipelineError)


@dataclass(frozen=True)
class GprSettings:
    restarts: int = 5
    max_iter: int = 100

    def __post_init__(self):
        check_int_fields(self, PipelineError)
        if self.restarts < 1:
            raise PipelineError(f"gpr restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 1:
            raise PipelineError(f"gpr max_iter must be >= 1, got {self.max_iter}")


def _sigma_key(sigma) -> int:
    """The seed term of a sigma's perturbation noise."""
    return int(round(sigma * 1e6))


@dataclass(frozen=True)
class PerturbSettings:
    sigmas: tuple[float, ...] = (0.001, 0.003, 0.005)
    n_samples: int = 100
    cycle: int = 100

    def __post_init__(self):
        check_int_fields(self, PipelineError)
        if self.n_samples < 1:
            raise PipelineError(f"perturb n_samples must be >= 1, got {self.n_samples}")
        if self.cycle < 0:
            raise PipelineError(f"perturb cycle must be >= 0, got {self.cycle}")
        # below 1e302, so that each sigma's noise seed, _sigma_key, exists
        if not self.sigmas or not all(is_finite_real(s) and 0 <= s < 1e302
                                      for s in self.sigmas):
            raise PipelineError("perturb sigmas must be numbers in [0, 1e302), "
                                f"at least one, got {self.sigmas}")
        keys = [_sigma_key(s) for s in self.sigmas]
        shared = [s for s, k in zip(self.sigmas, keys) if keys.count(k) > 1]
        if shared:
            raise PipelineError(f"perturb sigmas {shared} would draw the same noise: "
                                "sigmas that round alike at 1e-6 share a seed")


@dataclass(frozen=True)
class PipelineConfig:
    eis_csv: str | None = None
    capacity_csv: str | None = None
    synth: SynthSettings | None = None
    stages: tuple[int, ...] = (3, 4, 5, 6, 7)
    train_cells: tuple[str, ...] = ()
    test_cells: tuple[str, ...] = ()
    gan: GanConfig = field(default_factory=GanConfig)
    gpr: GprSettings = field(default_factory=GprSettings)
    perturb: PerturbSettings = field(default_factory=PerturbSettings)
    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self, PipelineError)
        if self.seed < 0:
            raise PipelineError(f"seed must be >= 0, got {self.seed}")
        if not all(is_int(s) and 1 <= s <= 9 for s in self.stages):
            raise PipelineError(f"stages must lie in 1..9, got {self.stages}")
        repeated = sorted({s for s in self.stages if self.stages.count(s) > 1})
        if repeated:
            raise PipelineError(f"stages must be distinct, got {self.stages}: "
                                f"stage {repeated[0]} is repeated")
        if set(self.train_cells) & set(self.test_cells):
            raise PipelineError("train and test cells overlap")
        if self.gan.seed != 0:
            raise PipelineError(f"gan seed {self.gan.seed} would be ignored: each stage's GAN "
                                "is seeded with seed * 1000 + stage from the top-level seed, "
                                "so set seed instead")
        if self.synth is None and (self.eis_csv is None or self.capacity_csv is None):
            raise PipelineError("either synth settings or CSV paths are required")
        csv_keys = [k for k in ("eis_csv", "capacity_csv", "train_cells", "test_cells")
                    if getattr(self, k)]
        if self.synth is not None and csv_keys:
            raise PipelineError(f"synth input names its own cells and reads no CSV, "
                                f"but the config also sets {csv_keys}")

    @staticmethod
    def from_dict(obj: dict) -> "PipelineConfig":
        kwargs = _section(PipelineConfig, obj, "config")
        for name, cls in (("synth", SynthSettings), ("gan", GanConfig),
                          ("gpr", GprSettings), ("perturb", PerturbSettings)):
            # "synth": null means CSV input; no other section may be null
            if name in kwargs and not (name == "synth" and kwargs[name] is None):
                kwargs[name] = cls(**_section(cls, kwargs[name], name))
        return PipelineConfig(**kwargs)

    @staticmethod
    def from_json_file(path: str) -> "PipelineConfig":
        with eisdata.open_text(path, PipelineError) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PipelineError(f"{path} line {exc.lineno} column {exc.colno}: "
                                    f"not valid JSON ({exc.msg})") from None
        return PipelineConfig.from_dict(obj)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _section(cls, obj, name) -> dict:
    """One JSON config object as `cls` keyword arguments. A key `cls` lacks is
    refused, and a key of a tuple field must hold a list, passed on as a tuple."""
    if not isinstance(obj, dict):
        raise PipelineError(f"config section {name} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise PipelineError(f"unknown key(s) {unknown} in config section {name}")
    kwargs = dict(obj)
    for key in (f.name for f in dataclasses.fields(cls) if f.type.startswith("tuple")):
        if key in kwargs:
            if not isinstance(kwargs[key], (list, tuple)):
                raise PipelineError(f"{key} must be a list, got {kwargs[key]!r}")
            kwargs[key] = tuple(kwargs[key])
    return kwargs


def declared_partition(config: PipelineConfig):
    """The (train, test) cell ids the config declares; reads and synthesises nothing."""
    if config.synth is not None:
        return ecm.synth_cell_ids(config.synth.n_train_cells, config.synth.n_test_cells)
    if not config.train_cells or not config.test_cells:
        raise PipelineError("train_cells and test_cells must be declared for CSV input")
    return config.train_cells, config.test_cells


def load_dataset(config: PipelineConfig, capacities: bool = True) -> Dataset:
    """Synthesize or ingest the dataset declared by the config. With
    `capacities` False, CSV input reads eis.csv alone and holds no capacity
    record, for commands that look none up."""
    if config.synth is not None:
        s = config.synth
        return ecm.synth_dataset(s.n_train_cells, s.n_test_cells, s.n_cycles,
                                 config.stages, config.seed)
    train_cells, test_cells = declared_partition(config)
    curves = eisdata.load_eis_csv(config.eis_csv)
    caps = eisdata.load_capacity_csv(config.capacity_csv) if capacities else []
    curves = [c if c.n_points == eisdata.T_POINTS else eisdata.resample_log_grid(c)
              for c in curves]
    return Dataset(curves=curves, capacities=caps,
                   train_cells=train_cells, test_cells=test_cells)


def load_capacities(config: PipelineConfig) -> dict:
    """(cell_id, cycle) -> capacity in mAh. CSV input reads capacity.csv alone;
    synth input draws the capacity trajectories and no curves."""
    records = (eisdata.load_capacity_csv(config.capacity_csv) if config.synth is None
               else load_dataset(replace(config, stages=())).capacities)
    return {(r.cell_id, r.cycle): r.capacity_mah for r in records}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CellEval:
    stage: int
    cell_id: str
    mae_mah: float
    rmse_mah: float
    r2: float
    cycles: list[int]
    measured_mah: list[float]
    pred_mean_mah: list[float]
    pred_std_mah: list[float]


@dataclass
class EvalReport:
    path_name: str
    cells: list[CellEval] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"path": self.path_name,
                           "cells": [dataclasses.asdict(c) for c in self.cells]},
                          indent=2, sort_keys=True)

    def cell(self, stage: int, cell_id: str) -> CellEval:
        for entry in self.cells:
            if entry.stage == stage and entry.cell_id == cell_id:
                return entry
        raise KeyError((stage, cell_id))


@dataclass
class PerturbEntry:
    stage: int
    cell_id: str
    cycle: int
    sigma: float
    path_name: str
    deviations_mah: list[float]
    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    outliers: list[float]


@dataclass
class PerturbReport:
    entries: list[PerturbEntry] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"entries": [dataclasses.asdict(e) for e in self.entries]},
                          indent=2, sort_keys=True)


def box_stats(samples):
    """Median, quartiles, 1.5*IQR whiskers (clipped to data), and outliers."""
    arr = np.sort(np.asarray(samples, dtype=float))
    q25, med, q75 = (float(np.percentile(arr, p)) for p in (25, 50, 75))
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    whisker_lo = float(inside[0]) if len(inside) else q25
    whisker_hi = float(inside[-1]) if len(inside) else q75
    outliers = [float(v) for v in arr if v < lo_fence or v > hi_fence]
    return med, q25, q75, whisker_lo, whisker_hi, outliers


# ---------------------------------------------------------------------------
# per-stage artifacts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMap:
    """A stage's one step from spectra (`curves`, or `raw` holding one (2, T)
    row per curve) to GPR inputs: z-score with its training cells' NormStats,
    then the latent codes Q(trunk(x)), or the flattened 2*T spectrum when `nets`
    is None (the raw-EIS baseline). Map a whole batch in one call: a dense GEMM
    over another row count rounds differently."""
    nets: eisgan.Networks | None
    stats: eisdata.NormStats

    def __call__(self, curves, raw=None) -> np.ndarray:
        x = normalized_array(curves, self.stats, raw)
        return x.reshape(len(x), -1) if self.nets is None else eisgan.extract_latents(self.nets, x)


@dataclass
class StageArtifacts:
    """A stage's test cells and curves, then one path's feature map and GPR."""
    stage: int
    test_cells: tuple[str, ...]
    train_curves: list
    test_curves: list
    features: FeatureMap
    gpr_model: gpr.GprModel | None = None


def split_partition(train_cells, test_cells, present, stage: int):
    """Intersect a declared partition with the cells `present` in a stage."""
    train = tuple(c for c in train_cells if c in present)
    test = tuple(c for c in test_cells if c in present)
    if not train or not test:
        raise PipelineError(
            f"stage {stage}: empty partition (train={train}, test={test})")
    return train, test


def stage_partition(dataset: Dataset, stage: int):
    """Intersect the dataset's partition with the cells its stage holds."""
    return split_partition(dataset.train_cells, dataset.test_cells,
                           dataset.stage_cells(stage), stage)


def stage_inputs(dataset: Dataset, stage: int) -> StageArtifacts:
    """A stage's inputs and baseline feature map; the study and `train-gan` start here."""
    train_cells, test_cells = stage_partition(dataset, stage)
    train, test = dataset.curves_for(stage, train_cells), dataset.curves_for(stage, test_cells)
    return StageArtifacts(stage, test_cells, train, test, FeatureMap(None, fit_norm_stats(train)))


def train_stage_gan(config: PipelineConfig, inp: StageArtifacts):
    """(FeatureMap, TrainReport) of the stage's GAN, seeded on its own."""
    stats = inp.features.stats
    nets, report = eisgan.train(normalized_array(inp.train_curves, stats),
                                replace(config.gan, seed=config.seed * 1000 + inp.stage))
    return FeatureMap(nets, stats), report


def checkpoint_path(out_dir, stage: int) -> str:
    """Where `run-all` and `train-gan` save a stage's networks and NormStats."""
    return os.path.join(out_dir, f"gan_stage{stage}.npz")


def _evaluate_cells(report, art: StageArtifacts, y):
    curves, inputs = art.test_curves, art.features(art.test_curves)
    for cell_id in sorted({c.cell_id for c in curves}):
        idx = [i for i, c in enumerate(curves) if c.cell_id == cell_id]
        mean, var = art.gpr_model.predict(inputs[idx])
        mae, rmse, r2 = metrics(y[idx], mean)
        report.cells.append(CellEval(
            stage=art.stage, cell_id=cell_id, mae_mah=mae, rmse_mah=rmse, r2=r2,
            cycles=[curves[i].cycle for i in idx],
            measured_mah=[float(v) for v in y[idx]],
            pred_mean_mah=[float(v) for v in mean],
            pred_std_mah=[float(v) for v in np.sqrt(var)]))


def _perturb_target(dataset: Dataset, config: PipelineConfig, stage: int):
    """The clean curve a stage's perturbation study perturbs: the stage's first
    test cell at cycle `perturb.cycle`; a cell that lacks that cycle gives its
    `perturb.cycle`-th curve, or its last."""
    pert = config.perturb
    stage_curves = dataset.curves_for(stage, stage_partition(dataset, stage)[1][:1])
    cycles = [c.cycle for c in stage_curves]
    cycle = pert.cycle if pert.cycle in cycles else cycles[min(len(cycles) - 1, pert.cycle)]
    return next(c for c in stage_curves if c.cycle == cycle)


def _noisy_array(curve, sigma, n_samples, rng) -> np.ndarray:
    """`n_samples` copies of `curve` with N(0, sigma^2) noise on every Re and Im
    sample, as one raw (n_samples, 2, T) array; sigma 0 draws none."""
    raw = np.repeat(curve_to_array(curve)[None], n_samples, axis=0)
    if sigma:
        raw += rng.normal(0.0, sigma, raw.shape)
    return raw


def _perturb_entries(config: PipelineConfig, path_name: str, curve,
                     art: StageArtifacts) -> list[PerturbEntry]:
    """One path's Gaussian-perturbation deviations at one stage, per sigma."""
    clean_pred = art.gpr_model.predict(art.features([curve]))[0][0]
    entries = []
    for sigma in config.perturb.sigmas:
        rng = np.random.default_rng(
            [config.seed, art.stage, _sigma_key(sigma), 0 if path_name == "eisgan" else 1])
        noisy = _noisy_array(curve, sigma, config.perturb.n_samples, rng)
        devs = art.gpr_model.predict(art.features([curve] * len(noisy), noisy))[0] - clean_pred
        med, q25, q75, wlo, whi, outliers = box_stats(devs)
        entries.append(PerturbEntry(
            stage=art.stage, cell_id=curve.cell_id, cycle=curve.cycle,
            sigma=sigma, path_name=path_name,
            deviations_mah=[float(d) for d in devs],
            median=med, q25=q25, q75=q75,
            whisker_lo=wlo, whisker_hi=whi, outliers=outliers))
    return entries


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    """Floats as repr(), fields quoted as csv.writer does. A row holding a
    carriage return is quoted whole: with "\n" line ends, minimal quoting
    would leave it bare and csv.reader would split the row there."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            cells = [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                     for v in row]
            (quote_all if any("\r" in c for c in cells) else writer).writerow(cells)


SWEEP_HEADER = ["code_value", "point_index", "freq_hz", "re_z_ohm", "im_z_ohm"]


def sweep_rows(features: FeatureMap, dim: int, freq):
    """Denormalized CSV rows of one code dimension's sweep over
    `eisgan.SWEEP_GRID`, one row per (code value, frequency point)."""
    rows = []
    for value, arr in zip(eisgan.SWEEP_GRID, eisgan.latent_sweep(features.nets, dim)):
        re_z, im_z = eisdata.array_to_channels(arr, features.stats)
        rows.extend((value, i, freq[i], re_z[i], im_z[i]) for i in range(len(freq)))
    return rows


def check_plot_cycles(dataset: Dataset, config: PipelineConfig) -> None:
    """Fail before any training when `emit_plot_data` could not select the top
    two latent codes: a stage's first test cell, which it ranks them on, has
    too few cycles."""
    for stage in config.stages:
        _, test_cells = stage_partition(dataset, stage)
        n_cycles = len(dataset.curves_for(stage, [test_cells[0]]))
        if n_cycles < eisgan.MIN_RANK_CYCLES:
            raise PipelineError(
                f"stage {stage}: test cell {test_cells[0]} has {n_cycles} cycles; "
                f"plot data needs at least {eisgan.MIN_RANK_CYCLES}")


def emit_plot_data(outdir, results: dict, paths) -> None:
    """Write CSV series for Nyquist curves, sweeps and latent traces (when
    "eisgan" is in `paths`), scatter and prediction bands per path, and
    perturbation box stats."""
    os.makedirs(outdir, exist_ok=True)

    def emit(name, header, rows):
        _write_csv(os.path.join(outdir, name), header, rows)

    for stage, art in results.get("eisgan_artifacts", {}).items():
        cell_id = art.test_cells[0]
        curves = [c for c in art.test_curves if c.cell_id == cell_id]

        # Nyquist traces across a handful of cycles
        n_show = min(5, len(curves))
        show = [curves[int(i)] for i in np.linspace(0, len(curves) - 1, n_show)]
        rows = [(c.cycle, i, c.freq_hz[i], c.re_z_ohm[i], c.im_z_ohm[i])
                for c in show for i in range(c.n_points)]
        emit(f"nyquist_stage{stage}_{cell_id}.csv",
             ["cycle", "point_index", "freq_hz", "re_z_ohm", "im_z_ohm"], rows)

        # latent sweeps for the top two selected dimensions
        measured = results["eisgan_report"].cell(stage, cell_id).measured_mah
        sel = eisgan.align_and_select(art.features(curves), measured)
        for rank, dim in enumerate(sel.top2, start=1):
            emit(f"sweep_stage{stage}_c{rank}.csv", SWEEP_HEADER,
                 sweep_rows(art.features, dim, curves[0].freq_hz))

        # aligned latent traces over cycles
        cycles = [c.cycle for c in curves]
        rows = [(cy, sel.aligned[i, sel.top2[0]], sel.aligned[i, sel.top2[1]])
                for i, cy in enumerate(cycles)]
        emit(f"latents_stage{stage}_{cell_id}.csv", ["cycle", "c1", "c2"], rows)

    # predicted vs measured scatter, and per-cell bands
    for name in paths:
        cells = results[f"{name}_report"].cells
        rows = [(e.stage, e.cell_id, cy, m, p)
                for e in cells
                for cy, m, p in zip(e.cycles, e.measured_mah, e.pred_mean_mah)]
        emit(f"scatter_{name}.csv",
             ["stage", "cell_id", "cycle", "measured_mah", "predicted_mah"], rows)
        for e in cells:
            rows = [(cy, m, p, p - s, p + s)
                    for cy, m, p, s in zip(e.cycles, e.measured_mah,
                                           e.pred_mean_mah, e.pred_std_mah)]
            emit(f"band_{name}_stage{e.stage}_{e.cell_id}.csv",
                 ["cycle", "measured", "mean", "lower", "upper"], rows)

    rows = [(e.stage, e.sigma, e.path_name, e.median, e.q25, e.q75,
             e.whisker_lo, e.whisker_hi, len(e.outliers))
            for e in results["perturb_report"].entries]
    emit("perturb_box.csv",
         ["stage", "sigma", "path", "median", "q25", "q75",
          "whisker_lo", "whisker_hi", "n_outliers"], rows)


def write_summary(outdir, results: dict, paths) -> str:
    """Single structured-text summary keyed by (stage, cell)."""
    summary = {}
    for name in paths:
        for e in results[f"{name}_report"].cells:
            summary.setdefault(f"stage{e.stage}/{e.cell_id}", {})[name] = {
                "mae_mah": e.mae_mah, "rmse_mah": e.rmse_mah, "r2": e.r2}
    path = os.path.join(outdir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
    return path


def write_report(out_dir, name, report) -> str:
    """Write `report.to_json()` to out_dir/name, creating out_dir; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    return path


PATHS = ("eisgan", "baseline")


def run_study(dataset: Dataset, config: PipelineConfig, paths=PATHS) -> dict:
    """The study, stage by stage: the stage's inputs (`stage_inputs`); the
    GAN when "eisgan" is in `paths`; then per path the GPR fit, test metrics
    and perturbation entries. Writes nothing; returns the reports and
    artifacts keyed as `run_all` does. Empty `stages`, or a train or test
    curve without a capacity record, is refused before training."""
    if not config.stages:
        raise PipelineError("stages is empty: a study needs at least one stage")
    targets = {stage: _perturb_target(dataset, config, stage) for stage in config.stages}
    stages = {}
    for stage in config.stages:
        inp = stage_inputs(dataset, stage)
        stages[stage] = inp, *(np.array([dataset.capacity(c.cell_id, c.cycle) for c in curves])
                               for curves in (inp.train_curves, inp.test_curves))
    results = {"dataset": dataset, "perturb_report": PerturbReport()}
    for name in paths:
        results[f"{name}_report"], results[f"{name}_artifacts"] = EvalReport(name), {}
    for stage, (inp, y_train, y_test) in stages.items():
        maps = {"baseline": inp.features}
        if "eisgan" in paths:
            maps["eisgan"], _ = train_stage_gan(config, inp)
        for name in paths:
            model = gpr.fit(maps[name](inp.train_curves), y_train,
                            restarts=config.gpr.restarts,
                            max_iter=config.gpr.max_iter, seed=config.seed)
            art = results[f"{name}_artifacts"][stage] = replace(inp, features=maps[name],
                                                                gpr_model=model)
            _evaluate_cells(results[f"{name}_report"], art, y_test)
            results["perturb_report"].entries.extend(
                _perturb_entries(config, name, targets[stage], art))
    return results


def run_all(config: PipelineConfig, paths=PATHS) -> dict:
    """Run the study over `paths`, then write every file of those paths to
    config.out_dir: the resolved config (and, for synth input, the data
    CSVs), one eval report per path, the perturbation report, plot data,
    the summary and the eisgan checkpoints. A config refused for its data
    writes nothing."""
    dataset = load_dataset(config)
    if "eisgan" in paths:
        check_plot_cycles(dataset, config)
    results = run_study(dataset, config, paths)

    out = config.out_dir
    write_report(out, "resolved_config.json", config)
    if config.synth is not None:
        eisdata.save_eis_csv(os.path.join(out, "eis.csv"), dataset.curves)
        eisdata.save_capacity_csv(os.path.join(out, "capacity.csv"), dataset.capacities)
    for name in paths:
        write_report(out, f"evalreport_{name}.json", results[f"{name}_report"])
    write_report(out, "perturbreport.json", results["perturb_report"])
    emit_plot_data(out, results, paths)
    write_summary(out, results, paths)
    for stage, art in results.get("eisgan_artifacts", {}).items():
        eisgan.save_checkpoint(checkpoint_path(out, stage), art.features.nets, art.features.stats)
    return results
