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
from .eisdata import Dataset, curve_to_array, fit_norm_stats, normalize
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

def _finite_nonnegative(value) -> bool:
    """True for a real number (not a bool) that is finite and >= 0."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and np.isfinite(value) and value >= 0)


@dataclass(frozen=True)
class SynthSettings:
    n_train_cells: int = 4
    n_test_cells: int = 4
    n_cycles: int = 120
    dc_noise_amp: float = 0.02
    meas_noise_ohm: float = 0.0002

    def __post_init__(self):
        check_int_fields(self, PipelineError)
        for name in ("dc_noise_amp", "meas_noise_ohm"):
            if not _finite_nonnegative(getattr(self, name)):
                raise PipelineError(
                    f"synth {name} must be a finite number >= 0, got {getattr(self, name)!r}")


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


@dataclass(frozen=True)
class PerturbSettings:
    sigmas: tuple[float, ...] = (0.001, 0.003, 0.005)
    n_samples: int = 100
    cell: str | None = None
    cycle: int = 100

    def __post_init__(self):
        check_int_fields(self, PipelineError)
        if self.n_samples < 1:
            raise PipelineError(f"perturb n_samples must be >= 1, got {self.n_samples}")
        if self.cycle < 0:
            raise PipelineError(f"perturb cycle must be >= 0, got {self.cycle}")
        if not all(_finite_nonnegative(s) for s in self.sigmas):
            raise PipelineError(
                f"perturb sigmas must be finite numbers >= 0, got {self.sigmas}")


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
        if not all(is_int(s) and 1 <= s <= 9 for s in self.stages):
            raise PipelineError(f"stages must lie in 1..9, got {self.stages}")
        repeated = sorted({s for s in self.stages if self.stages.count(s) > 1})
        if repeated:
            raise PipelineError(f"stages must be distinct, got {self.stages}: "
                                f"stage {repeated[0]} is repeated")
        if set(self.train_cells) & set(self.test_cells):
            raise PipelineError("train and test cells overlap")
        if self.synth is None and (self.eis_csv is None or self.capacity_csv is None):
            raise PipelineError("either synth settings or CSV paths are required")

    @staticmethod
    def from_dict(obj: dict) -> "PipelineConfig":
        kwargs = _section(PipelineConfig, obj, "config",
                          ("stages", "train_cells", "test_cells"))
        if kwargs.get("synth") is not None:
            kwargs["synth"] = SynthSettings(**_section(SynthSettings, kwargs["synth"], "synth"))
        if "gan" in kwargs:
            kwargs["gan"] = GanConfig(**_section(GanConfig, kwargs["gan"], "gan",
                                                 ("trunk_widths", "gen_widths")))
        if "gpr" in kwargs:
            kwargs["gpr"] = GprSettings(**_section(GprSettings, kwargs["gpr"], "gpr"))
        if "perturb" in kwargs:
            kwargs["perturb"] = PerturbSettings(**_section(PerturbSettings, kwargs["perturb"],
                                                           "perturb", ("sigmas",)))
        return PipelineConfig(**kwargs)

    @staticmethod
    def from_json_file(path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return PipelineConfig.from_dict(json.load(fh))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _section(cls, obj, name, lists=()) -> dict:
    """One JSON config object as `cls` keyword arguments. A key `cls` lacks is
    refused, and each key in `lists` must hold a list, passed on as a tuple."""
    if not isinstance(obj, dict):
        raise PipelineError(f"config section {name} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise PipelineError(f"unknown key(s) {unknown} in config section {name}")
    kwargs = dict(obj)
    for key in lists:
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


def load_dataset(config: PipelineConfig) -> Dataset:
    """Synthesize or ingest the dataset declared by the config."""
    if config.synth is not None:
        s = config.synth
        return ecm.synth_dataset(s.n_train_cells, s.n_test_cells, s.n_cycles,
                                 config.stages, config.seed,
                                 dc_noise_amp=s.dc_noise_amp,
                                 meas_noise_ohm=s.meas_noise_ohm)
    train_cells, test_cells = declared_partition(config)
    curves = eisdata.load_eis_csv(config.eis_csv)
    caps = eisdata.load_capacity_csv(config.capacity_csv)
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
    cell_id: str
    cycle: int
    entries: list[PerturbEntry] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"cell_id": self.cell_id, "cycle": self.cycle,
                           "entries": [dataclasses.asdict(e) for e in self.entries]},
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

@dataclass
class StageArtifacts:
    stage: int
    stats: eisdata.NormStats
    nets: eisgan.Networks | None
    gpr_model: gpr.GprModel
    train_cells: tuple[str, ...]
    test_cells: tuple[str, ...]


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


def _stage_gan_config(config: PipelineConfig, stage: int) -> GanConfig:
    # one independently seeded GAN per stage
    return replace(config.gan, seed=config.seed * 1000 + stage)


def _stage_arrays(dataset, stage, cells, stats):
    """A stage's curves for `cells` (all cells when None), their normalized
    (N, 2, T) array and their capacities (N,)."""
    curves = dataset.curves_for(stage, cells)
    x = np.stack([curve_to_array(c) for c in normalize(curves, stats)])
    y = np.array([dataset.capacity(c.cell_id, c.cycle) for c in curves])
    return curves, x, y


def train_stage_gan(dataset: Dataset, config: PipelineConfig, stage: int):
    """Fit NormStats on training cells, train the stage GAN on them."""
    train_cells, _ = stage_partition(dataset, stage)
    stats = fit_norm_stats(dataset.curves_for(stage, train_cells))
    _, x, _ = _stage_arrays(dataset, stage, train_cells, stats)
    nets, report = eisgan.train(x, _stage_gan_config(config, stage))
    return nets, stats, report


def _evaluate_cells(report, model, stage, curves, inputs, y):
    cells = sorted({c.cell_id for c in curves})
    for cell_id in cells:
        idx = [i for i, c in enumerate(curves) if c.cell_id == cell_id]
        mean, var = model.predict(inputs[idx])
        mae, rmse, r2 = metrics(y[idx], mean)
        report.cells.append(CellEval(
            stage=stage, cell_id=cell_id, mae_mah=mae, rmse_mah=rmse, r2=r2,
            cycles=[curves[i].cycle for i in idx],
            measured_mah=[float(v) for v in y[idx]],
            pred_mean_mah=[float(v) for v in mean],
            pred_std_mah=[float(v) for v in np.sqrt(var)]))


def _features(x, nets):
    """GPR inputs of a normalized (N, 2, T) batch: the latent codes, or the
    flattened 2*T spectrum when `nets` is None (the raw-EIS baseline)."""
    return x.reshape(len(x), -1) if nets is None else eisgan.extract_latents(nets, x)


def _run_path(name, dataset: Dataset, config: PipelineConfig, trained):
    """Per stage: partition, GPR fit on the training cells, per-cell test
    metrics. `trained(stage, train_cells)` gives the stage's (nets, stats)."""
    report = EvalReport(name)
    artifacts = {}
    for stage in config.stages:
        train_cells, test_cells = stage_partition(dataset, stage)
        nets, stats = trained(stage, train_cells)
        _, x_train, y_train = _stage_arrays(dataset, stage, train_cells, stats)
        model = gpr.fit(_features(x_train, nets), y_train,
                        restarts=config.gpr.restarts,
                        max_iter=config.gpr.max_iter, seed=config.seed)
        test_curves, x_test, y_test = _stage_arrays(dataset, stage, test_cells, stats)
        _evaluate_cells(report, model, stage, test_curves,
                        _features(x_test, nets), y_test)
        artifacts[stage] = StageArtifacts(stage, stats, nets, model,
                                          train_cells, test_cells)
    return report, artifacts


def run_eisgan_path(dataset: Dataset, config: PipelineConfig):
    """Latent path: GAN -> extract C_train/C_test -> GPR -> per-cell metrics.
    Returns (EvalReport, {stage: StageArtifacts})."""
    return _run_path("eisgan", dataset, config,
                     lambda stage, _: train_stage_gan(dataset, config, stage)[:2])


def run_baseline_path(dataset: Dataset, config: PipelineConfig):
    """Raw-EIS baseline: flatten each normalized curve to 2*T dims, same GPR.
    Each stage fits its NormStats on its training cells, as the latent path
    does, so both paths see the same normalized spectra."""
    return _run_path("baseline", dataset, config, lambda stage, train_cells: (
        None, fit_norm_stats(dataset.curves_for(stage, train_cells))))


def _predict_means(curves, artifact: StageArtifacts) -> np.ndarray:
    """Posterior means of raw curves through one stage's latent path, or its
    raw-spectrum baseline when the artifact has no networks."""
    x = np.stack([curve_to_array(c) for c in normalize(curves, artifact.stats)])
    mean, _ = artifact.gpr_model.predict(_features(x, artifact.nets))
    return mean


def _perturb_target(dataset: Dataset, config: PipelineConfig, stage: int):
    """The clean curve a stage's perturbation study perturbs: `perturb.cell`
    (by default the stage's first test cell) at cycle `perturb.cycle`; a cell
    that lacks that cycle gives its `perturb.cycle`-th curve, or its last."""
    pert = config.perturb
    cell_id = pert.cell if pert.cell is not None else stage_partition(dataset, stage)[1][0]
    stage_curves = dataset.curves_for(stage, [cell_id])
    if not stage_curves:
        raise PipelineError(f"stage {stage}: no curves for cell {cell_id}")
    cycles = [c.cycle for c in stage_curves]
    cycle = pert.cycle if pert.cycle in cycles else cycles[min(len(cycles) - 1, pert.cycle)]
    return next(c for c in stage_curves if c.cycle == cycle)


def run_perturbation_study(dataset: Dataset, config: PipelineConfig,
                           eisgan_art: dict, baseline_art: dict) -> PerturbReport:
    """Gaussian-perturbation robustness: deviations of both paths per (stage, sigma)."""
    pert = config.perturb
    report = None
    for stage in config.stages:
        curve = _perturb_target(dataset, config, stage)
        if report is None:
            report = PerturbReport(cell_id=curve.cell_id, cycle=curve.cycle)

        for path_name, art in (("eisgan", eisgan_art[stage]),
                               ("baseline", baseline_art[stage])):
            clean_pred = _predict_means([curve], art)[0]
            for sigma in pert.sigmas:
                rng = np.random.default_rng(
                    [config.seed, stage, int(round(sigma * 1e6)),
                     0 if path_name == "eisgan" else 1])
                noisy = [eisdata.perturb_curve(curve, sigma, rng)
                         for _ in range(pert.n_samples)]
                devs = _predict_means(noisy, art) - clean_pred
                med, q25, q75, wlo, whi, outliers = box_stats(devs)
                report.entries.append(PerturbEntry(
                    stage=stage, sigma=sigma, path_name=path_name,
                    deviations_mah=[float(d) for d in devs],
                    median=med, q25=q25, q75=q75,
                    whisker_lo=wlo, whisker_hi=whi, outliers=outliers))
    return report


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


def sweep_rows(nets: eisgan.Networks, stats: eisdata.NormStats, dim: int, freq):
    """Denormalized CSV rows of one code dimension's sweep over [-2, 2] in 9
    steps, one row per (code value, frequency point)."""
    grid = np.linspace(-2.0, 2.0, 9)
    rows = []
    for value, arr in zip(grid, eisgan.latent_sweep(nets, dim, grid)):
        re_z, im_z = eisdata.array_to_channels(arr, stats)
        rows.extend((value, i, freq[i], re_z[i], im_z[i]) for i in range(len(freq)))
    return rows


def check_plot_cycles(dataset: Dataset, config: PipelineConfig) -> None:
    """Fail before any training when a stage's first test cell, which
    `emit_plot_data` ranks latent codes on, has too few cycles."""
    for stage in config.stages:
        _, test_cells = stage_partition(dataset, stage)
        n_cycles = len(dataset.curves_for(stage, [test_cells[0]]))
        if n_cycles < eisgan.MIN_RANK_CYCLES:
            raise PipelineError(
                f"stage {stage}: test cell {test_cells[0]} has {n_cycles} cycles; "
                f"plot data needs at least {eisgan.MIN_RANK_CYCLES}")


def emit_plot_data(outdir, dataset: Dataset, config: PipelineConfig,
                   eisgan_report: EvalReport, baseline_report: EvalReport | None,
                   perturb_report: PerturbReport | None,
                   artifacts: dict) -> list[str]:
    """Write CSV series for Nyquist curves, sweeps, latent traces, scatter,
    prediction bands, and perturbation box stats. Returns written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(name, header, rows):
        path = os.path.join(outdir, name)
        _write_csv(path, header, rows)
        written.append(path)

    for stage in config.stages:
        art = artifacts[stage]
        cell_id = art.test_cells[0]
        curves, x, caps = _stage_arrays(dataset, stage, [cell_id], art.stats)

        # Nyquist traces across a handful of cycles
        n_show = min(5, len(curves))
        show = [curves[int(i)] for i in np.linspace(0, len(curves) - 1, n_show)]
        rows = [(c.cycle, i, c.freq_hz[i], c.re_z_ohm[i], c.im_z_ohm[i])
                for c in show for i in range(c.n_points)]
        emit(f"nyquist_stage{stage}_{cell_id}.csv",
             ["cycle", "point_index", "freq_hz", "re_z_ohm", "im_z_ohm"], rows)

        # latent sweeps for the top two selected dimensions
        sel = eisgan.align_and_select(eisgan.extract_latents(art.nets, x), caps)
        for rank, dim in enumerate(sel.top2, start=1):
            emit(f"sweep_stage{stage}_c{rank}.csv", SWEEP_HEADER,
                 sweep_rows(art.nets, art.stats, dim, curves[0].freq_hz))

        # aligned latent traces over cycles
        cycles = [c.cycle for c in curves]
        rows = [(cy, sel.aligned[i, sel.top2[0]], sel.aligned[i, sel.top2[1]])
                for i, cy in enumerate(cycles)]
        emit(f"latents_stage{stage}_{cell_id}.csv", ["cycle", "c1", "c2"], rows)

    # predicted vs measured scatter, and per-cell bands
    for report in filter(None, (eisgan_report, baseline_report)):
        rows = [(e.stage, e.cell_id, cy, m, p)
                for e in report.cells
                for cy, m, p in zip(e.cycles, e.measured_mah, e.pred_mean_mah)]
        emit(f"scatter_{report.path_name}.csv",
             ["stage", "cell_id", "cycle", "measured_mah", "predicted_mah"], rows)
        for e in report.cells:
            rows = [(cy, m, p, p - s, p + s)
                    for cy, m, p, s in zip(e.cycles, e.measured_mah,
                                           e.pred_mean_mah, e.pred_std_mah)]
            emit(f"band_{report.path_name}_stage{e.stage}_{e.cell_id}.csv",
                 ["cycle", "measured", "mean", "lower", "upper"], rows)

    if perturb_report is not None:
        rows = [(e.stage, e.sigma, e.path_name, e.median, e.q25, e.q75,
                 e.whisker_lo, e.whisker_hi, len(e.outliers))
                for e in perturb_report.entries]
        emit("perturb_box.csv",
             ["stage", "sigma", "path", "median", "q25", "q75",
              "whisker_lo", "whisker_hi", "n_outliers"], rows)

    return written


def write_summary(outdir, eisgan_report: EvalReport,
                  baseline_report: EvalReport | None) -> str:
    """Single structured-text summary keyed by (stage, cell)."""
    summary = {}
    for report in filter(None, (eisgan_report, baseline_report)):
        for e in report.cells:
            key = f"stage{e.stage}/{e.cell_id}"
            summary.setdefault(key, {})[report.path_name] = {
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


def _require_stages(config: PipelineConfig) -> None:
    if not config.stages:
        raise PipelineError("stages is empty: a study needs at least one stage")


def run_study(dataset: Dataset, config: PipelineConfig) -> dict:
    """Both paths, then the perturbation study. Writes nothing; returns the
    reports and artifacts keyed as `run_all` returns them. Empty `stages`,
    or a `perturb.cell` that a stage lacks, is refused before any training."""
    _require_stages(config)
    for stage in config.stages:
        _perturb_target(dataset, config, stage)
    eisgan_report, eisgan_art = run_eisgan_path(dataset, config)
    baseline_report, baseline_art = run_baseline_path(dataset, config)
    perturb_report = run_perturbation_study(dataset, config, eisgan_art, baseline_art)
    return {"dataset": dataset, "eisgan_report": eisgan_report,
            "baseline_report": baseline_report, "perturb_report": perturb_report,
            "eisgan_artifacts": eisgan_art, "baseline_artifacts": baseline_art}


def run_all(config: PipelineConfig) -> dict:
    """Execute the full study; writes reports and plot data to config.out_dir."""
    _require_stages(config)
    write_report(config.out_dir, "resolved_config.json", config)

    dataset = load_dataset(config)
    check_plot_cycles(dataset, config)
    if config.synth is not None:
        eisdata.save_eis_csv(os.path.join(config.out_dir, "eis.csv"), dataset.curves)
        eisdata.save_capacity_csv(os.path.join(config.out_dir, "capacity.csv"),
                                  dataset.capacities)

    results = run_study(dataset, config)

    for name, key in (("evalreport_eisgan.json", "eisgan_report"),
                      ("evalreport_baseline.json", "baseline_report"),
                      ("perturbreport.json", "perturb_report")):
        write_report(config.out_dir, name, results[key])
    emit_plot_data(config.out_dir, dataset, config, results["eisgan_report"],
                   results["baseline_report"], results["perturb_report"],
                   results["eisgan_artifacts"])
    write_summary(config.out_dir, results["eisgan_report"], results["baseline_report"])
    for stage, art in results["eisgan_artifacts"].items():
        eisgan.save_checkpoint(os.path.join(config.out_dir, f"gan_stage{stage}.npz"),
                               art.nets, art.stats)
    return results
