import csv
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from eisgan_soh import cli, ecm, eisdata, eisgan, gpr, pipeline
from eisgan_soh.pipeline import (PerturbSettings, PipelineConfig, PipelineError,
                                 SynthSettings)
from test_eisgan import FIXED_SETTINGS, _header, _rewrite, _saved_checkpoint


def tiny_config(out_dir, **overrides):
    base = dict(
        synth=SynthSettings(n_train_cells=2, n_test_cells=1, n_cycles=8),
        stages=(5,),
        gan=eisgan.GanConfig(epochs=2, batch_size=8, seed=0),
        gpr=pipeline.GprSettings(restarts=1, max_iter=20),
        perturb=PerturbSettings(sigmas=(0.003,), n_samples=5, cycle=3),
        out_dir=str(out_dir),
        seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


# ---------------------------------------------------------------------------
# metrics and box stats
# ---------------------------------------------------------------------------

def test_metrics_hand_vector():
    # residuals (0, 1, -1): MAE=2/3... use (1,0,0) instead for clean fractions
    mae, rmse, r2 = pipeline.metrics([1.0, 2.0, 3.0], [2.0, 2.0, 3.0])
    assert mae == pytest.approx(1 / 3)
    assert rmse == pytest.approx(1 / np.sqrt(3))
    assert r2 == pytest.approx(0.5)  # SS_res=1, SS_tot=2


def test_metrics_perfect_prediction():
    mae, rmse, r2 = pipeline.metrics([1.0, 2.0], [1.0, 2.0])
    assert (mae, rmse, r2) == (0.0, 0.0, 1.0)


def test_metrics_mean_predictor_r2_zero():
    y = [1.0, 2.0, 3.0]
    _, _, r2 = pipeline.metrics(y, [2.0, 2.0, 2.0])
    assert r2 == pytest.approx(0.0)


def test_metrics_constant_target_r2_nan():
    _, _, r2 = pipeline.metrics([2.0, 2.0], [1.0, 3.0])
    assert np.isnan(r2)


def test_metrics_misaligned_inputs():
    with pytest.raises(PipelineError):
        pipeline.metrics([1.0], [1.0, 2.0])


def test_box_stats_no_outliers():
    med, q25, q75, wlo, whi, out = pipeline.box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert (q25, q75) == (2.0, 4.0)
    assert (wlo, whi) == (1.0, 5.0)  # whiskers clip to the data range
    assert out == []


def test_box_stats_flags_outlier():
    samples = [1.0, 2.0, 3.0, 4.0, 100.0]
    *_, whi, out = pipeline.box_stats(samples)
    assert out == [100.0]
    assert whi == 4.0


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_bad_stage():
    with pytest.raises(PipelineError):
        PipelineConfig(synth=SynthSettings(), stages=(0,))


def test_config_rejects_repeated_stage():
    with pytest.raises(PipelineError, match="stage 5 is repeated"):
        PipelineConfig.from_dict({"synth": {}, "stages": [4, 5, 6, 5]})
    with pytest.raises(PipelineError, match="stage 3 is repeated"):
        PipelineConfig(synth=SynthSettings(), stages=(3, 3))


def test_config_rejects_overlapping_cells():
    with pytest.raises(PipelineError):
        PipelineConfig(synth=SynthSettings(), train_cells=("A",), test_cells=("A",))


def test_config_refuses_removed_lr_q():
    # G and Q no longer take a third Adam step, so lr_q is no setting
    with pytest.raises(PipelineError, match="lr_q"):
        PipelineConfig.from_dict({"gan": {"lr_q": 1e-4}})


@pytest.mark.parametrize("key", ["channels", "gen_base_len", "q_sigma"])
def test_config_refuses_gan_keys_the_code_works_out(key):
    # channels is the (N, 2, T) layout's, gen_base_len follows from length and
    # gen_widths, and a q_sigma would only rescale lambda_mi
    with pytest.raises(PipelineError, match=rf"unknown key\(s\) \['{key}'\] in config section gan"):
        PipelineConfig.from_dict({"synth": {}, "gan": {key: 2}})


@pytest.mark.parametrize("extra", [
    {"eis_csv": "data/eis.csv", "train_cells": ["A"]},
    {"capacity_csv": "data/capacity.csv"},
    {"train_cells": ["A"]},
    {"test_cells": ["B"]},
])
def test_config_refuses_synth_with_csv_keys(extra):
    # synth input would run on its own SYN cells and ignore every one of these keys
    with pytest.raises(PipelineError, match="synth input") as err:
        PipelineConfig.from_dict({"synth": {}, **extra})
    assert all(repr(key) in str(err.value) for key in extra)
    # unset, as a synth config's resolved_config.json writes them
    unset = {key: None if key.endswith("csv") else [] for key in extra}
    assert PipelineConfig.from_dict({"synth": {}, **unset}).synth == SynthSettings()


def test_config_requires_data_source():
    with pytest.raises(PipelineError):
        PipelineConfig(synth=None)


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "out", seed=7)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    loaded = PipelineConfig.from_json_file(str(path))
    assert loaded == cfg


def test_config_from_dict_nested_sections():
    cfg = PipelineConfig.from_dict({
        "synth": {"n_train_cells": 1, "n_test_cells": 1, "n_cycles": 4},
        "stages": [3, 5],
        "gan": {"epochs": 1},
        "gpr": {"restarts": 2},
        "perturb": {"sigmas": [0.001], "n_samples": 3},
        "seed": 9})
    assert cfg.stages == (3, 5)
    assert cfg.gan.epochs == 1
    assert cfg.gan.latent_dim == 9
    assert cfg.perturb.sigmas == (0.001,)


@pytest.mark.parametrize("kwargs", [
    {"n_samples": 0},
    {"n_samples": -3},
    {"sigmas": (0.001, -0.001)},
    {"sigmas": (float("nan"),)},
    {"sigmas": (float("inf"),)},
    {"sigmas": ("0.001",)},
    {"sigmas": (True,)},
    {"n_samples": 2.5},
    {"n_samples": True},
    {"cycle": 1.5},
    {"sigmas": ()},
    {"sigmas": (0.003, 0.003)},
])
def test_perturb_settings_reject_bad_values(kwargs):
    with pytest.raises(PipelineError):
        PerturbSettings(**kwargs)


@pytest.mark.parametrize("sigmas, message", [
    # both pass the finite and distinct rules, yet 1e-10 apart they share a seed
    ((0.003, 0.0010001, 0.0010002), "perturb sigmas [0.0010001, 0.0010002] would draw "
                                    "the same noise"),
    ((0.003, 1e303), "perturb sigmas must be numbers in [0, 1e302), at least one, "
                     "got (0.003, 1e+303)"),
], ids=["shared seed", "no seed"])
def test_perturb_settings_refuse_sigmas_without_their_own_seed(sigmas, message):
    with pytest.raises(PipelineError, match=re.escape(message)):
        PerturbSettings(sigmas=sigmas)


@pytest.mark.parametrize("kwargs", [
    {"restarts": 0},
    {"restarts": -2},
    {"max_iter": 0},
    {"max_iter": -1},
    {"restarts": 2.5},
    {"max_iter": True},
])
def test_gpr_settings_reject_bad_values(kwargs):
    with pytest.raises(PipelineError):
        pipeline.GprSettings(**kwargs)


# ---------------------------------------------------------------------------
# dataset loading and partitioning
# ---------------------------------------------------------------------------

def test_load_dataset_synth(tmp_path):
    cfg = tiny_config(tmp_path)
    ds = pipeline.load_dataset(cfg)
    assert len(ds.train_cells) == 2
    assert len(ds.test_cells) == 1
    assert {c.stage for c in ds.curves} == {5}


def test_load_dataset_csv_requires_partition(tmp_path):
    cfg = tiny_config(tmp_path)
    ds = pipeline.load_dataset(cfg)
    eis_path, cap_path = tmp_path / "eis.csv", tmp_path / "capacity.csv"
    eisdata.save_eis_csv(eis_path, ds.curves)
    eisdata.save_capacity_csv(cap_path, ds.capacities)
    with pytest.raises(PipelineError, match="train_cells"):
        pipeline.load_dataset(PipelineConfig(
            eis_csv=str(eis_path), capacity_csv=str(cap_path), stages=(5,)))
    loaded = pipeline.load_dataset(PipelineConfig(
        eis_csv=str(eis_path), capacity_csv=str(cap_path), stages=(5,),
        train_cells=ds.train_cells, test_cells=ds.test_cells))
    assert len(loaded.curves) == len(ds.curves)


def _no_stage_curves(*args, **kwargs):
    raise AssertionError("stage curves synthesised")


def test_load_capacities_synth_draws_only_the_trajectories(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, stages=(3, 5, 7))
    expected = pipeline.load_dataset(cfg).capacities
    monkeypatch.setattr(ecm, "stage_curves", _no_stage_curves)
    assert pipeline.load_capacities(cfg) == expected


def test_stage_partition_respects_missing_cells(tmp_path):
    cfg = tiny_config(tmp_path)
    ds = pipeline.load_dataset(cfg)
    # drop one train cell from the stage to mimic a reduced measurement set
    keep = [c for c in ds.curves if c.cell_id != ds.train_cells[0]]
    reduced = eisdata.Dataset(keep, ds.capacities, ds.train_cells, ds.test_cells)
    train, test = pipeline.stage_partition(reduced, 5)
    assert train == ds.train_cells[1:]
    assert test == ds.test_cells


def test_stage_partition_empty_raises(tmp_path):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    keep = [c for c in ds.curves if c.cell_id not in ds.test_cells]
    reduced = eisdata.Dataset(keep, ds.capacities, ds.train_cells, ds.test_cells)
    with pytest.raises(PipelineError, match="empty partition"):
        pipeline.stage_partition(reduced, 5)


# ---------------------------------------------------------------------------
# end-to-end (tiny settings: exercises plumbing, not accuracy)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_config(out)
    results = pipeline.run_all(cfg)
    return cfg, results


def study_files(paths, cell):
    """Every file a study over `paths` writes on tiny_config (stage 5, one test cell)."""
    files = {"resolved_config.json", "eis.csv", "capacity.csv", "perturbreport.json",
             "perturb_box.csv", "summary.json"}
    for name in paths:
        files |= {f"evalreport_{name}.json", f"scatter_{name}.csv",
                  f"band_{name}_stage5_{cell}.csv"}
    if "eisgan" in paths:
        files |= {"gan_stage5.npz", f"nyquist_stage5_{cell}.csv", "sweep_stage5_c1.csv",
                  "sweep_stage5_c2.csv", f"latents_stage5_{cell}.csv"}
    return files


def test_run_all_writes_reports(tiny_run):
    cfg, results = tiny_run
    assert set(os.listdir(cfg.out_dir)) == study_files(pipeline.PATHS,
                                                       results["dataset"].test_cells[0])


def test_run_all_reports_cover_test_cells(tiny_run):
    cfg, results = tiny_run
    ds = results["dataset"]
    report = results["eisgan_report"]
    assert {e.cell_id for e in report.cells} == set(ds.test_cells)
    entry = report.cell(5, ds.test_cells[0])
    assert entry.cycles == list(range(8))
    assert len(entry.pred_mean_mah) == 8
    assert all(s >= 0 for s in entry.pred_std_mah)


def test_run_all_eval_json_parses(tiny_run):
    cfg, results = tiny_run
    with open(os.path.join(cfg.out_dir, "evalreport_eisgan.json")) as fh:
        blob = json.load(fh)
    assert blob["path"] == "eisgan"
    assert len(blob["cells"]) == len(results["eisgan_report"].cells)


def test_run_all_perturb_report(tiny_run):
    cfg, results = tiny_run
    report = results["perturb_report"]
    # one entry per (stage, sigma, path)
    assert len(report.entries) == 2
    for e in report.entries:
        assert len(e.deviations_mah) == cfg.perturb.n_samples
        assert e.q25 <= e.median <= e.q75
        # requested cycle 3 exists in the 8-cycle run
        assert (e.cell_id, e.cycle) == (results["dataset"].test_cells[0], 3)


def _normalized(re_z, im_z, stats):
    """One spectrum's (2, T) array, each channel normalized on its own."""
    return np.stack([(re_z - stats.re_mean) / stats.re_scale,
                     (im_z - stats.im_mean) / stats.im_scale])


def _per_sample_noisy(curve, sigma, rng, stats, n_samples):
    """The study's noisy spectra built one at a time: Re noise, then Im noise."""
    return [_normalized(curve.re_z_ohm + rng.normal(0.0, sigma, curve.n_points),
                        curve.im_z_ohm + rng.normal(0.0, sigma, curve.n_points), stats)
            for _ in range(n_samples)]


def _reference_prediction(x, art):
    """Per-spectrum reference for the batched perturbation study."""
    nets = art.features.nets
    features = x.ravel() if nets is None else eisgan.extract_latents(nets, x)
    mean, _ = art.gpr_model.predict(features)
    return mean


def _study_rng(cfg, stage, sigma, path_name):
    return np.random.default_rng([cfg.seed, stage, int(round(sigma * 1e6)),
                                  0 if path_name == "eisgan" else 1])


def test_run_all_perturbation_matches_per_sample_loop(tiny_run):
    cfg, results = tiny_run
    for e in results["perturb_report"].entries:
        curve = next(c for c in results["dataset"].curves_for(e.stage, [e.cell_id])
                     if c.cycle == e.cycle)
        art = results[f"{e.path_name}_artifacts"][e.stage]
        stats = art.features.stats
        clean = _reference_prediction(_normalized(curve.re_z_ohm, curve.im_z_ohm, stats), art)
        rng = _study_rng(cfg, e.stage, e.sigma, e.path_name)
        devs = [_reference_prediction(x, art) - clean for x in
                _per_sample_noisy(curve, e.sigma, rng, stats, cfg.perturb.n_samples)]
        np.testing.assert_allclose(e.deviations_mah, devs, rtol=1e-9, atol=0)


def test_perturbation_noisy_arrays_keep_their_bits(tiny_run, monkeypatch):
    # the study draws each sigma's noise in one call and normalizes it in the
    # feature map; the bytes are those of per-sample draws, so the
    # perturbation report stays the same
    cfg, results = tiny_run
    cfg = dataclasses.replace(cfg, perturb=PerturbSettings(
        sigmas=(0.0, 0.001, 0.003), n_samples=4, cycle=3))
    art = results["baseline_artifacts"][5]
    curve = next(c for c in pipeline.reference_curves(results["dataset"], 5) if c.cycle == 3)
    normalized = []
    normalized_array = pipeline.normalized_array

    def record(*args):
        normalized.append(normalized_array(*args))
        return normalized[-1]
    monkeypatch.setattr(pipeline, "normalized_array", record)
    pipeline._perturb_entries(cfg, "baseline", curve, art)
    # the clean spectrum first, then one array per sigma
    assert len(normalized) == 1 + len(cfg.perturb.sigmas)
    assert normalized[0].tobytes() == _normalized(
        curve.re_z_ohm, curve.im_z_ohm, art.features.stats).tobytes()
    for sigma, x in zip(cfg.perturb.sigmas, normalized[1:]):
        ref = _per_sample_noisy(curve, sigma, _study_rng(cfg, 5, sigma, "baseline"),
                                art.features.stats, 4)
        assert x.shape == (4, 2, curve.n_points)
        assert x.tobytes() == np.stack(ref).tobytes(), sigma


def test_run_all_emitted_sweep_and_band_files(tiny_run):
    cfg, results = tiny_run
    ds = results["dataset"]
    cell = ds.test_cells[0]
    for name in (f"nyquist_stage5_{cell}.csv", "sweep_stage5_c1.csv",
                 "sweep_stage5_c2.csv", f"latents_stage5_{cell}.csv",
                 f"band_eisgan_stage5_{cell}.csv"):
        path = os.path.join(cfg.out_dir, name)
        assert os.path.exists(path), name
        header = open(path).readline().strip().split(",")
        assert len(header) >= 3


def test_run_all_summary_keys(tiny_run):
    cfg, results = tiny_run
    with open(os.path.join(cfg.out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    cell = results["dataset"].test_cells[0]
    entry = summary[f"stage5/{cell}"]
    assert set(entry) == {"eisgan", "baseline"}
    assert set(entry["eisgan"]) == {"mae_mah", "rmse_mah", "r2"}


def test_emitted_eis_csv_reparses(tiny_run):
    cfg, results = tiny_run
    curves = eisdata.load_eis_csv(os.path.join(cfg.out_dir, "eis.csv"))
    assert len(curves) == len(results["dataset"].curves)


def test_checkpoint_reloads_from_run(tiny_run):
    cfg, results = tiny_run
    path = pipeline.checkpoint_path(cfg.out_dir, 5)
    assert path == os.path.join(cfg.out_dir, "gan_stage5.npz")
    nets, stats = eisgan.load_checkpoint(path)
    art = results["eisgan_artifacts"][5]
    assert stats == art.features.stats
    for pa, pb in zip(nets.all_params(), art.features.nets.all_params()):
        assert np.array_equal(pa.data, pb.data)
    # the reloaded map gives the stage's test curves the study's latent bytes
    loaded = pipeline.FeatureMap(*eisgan.load_checkpoint(path))
    assert loaded(art.test_curves).tobytes() == art.features(art.test_curves).tobytes()


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if a GAN starts training."""
    def train(*args, **kwargs):
        raise AssertionError("GAN training started")
    monkeypatch.setattr(eisgan, "train", train)


def assert_wrote_nothing(out_dir):
    assert not os.path.exists(out_dir) or os.listdir(out_dir) == []


#: the commands that run `pipeline.run_all`, each over its own paths
STUDY_COMMANDS = ("run-all", "evaluate", "baseline", "perturb")


@pytest.mark.parametrize("command", STUDY_COMMANDS)
def test_cli_perturb_rejects_absent_cell_before_training(tmp_path, capsys, no_training,
                                                         command):
    # a stage's target is its first test cell: a config naming a cell, here one
    # the data lack, is refused by name
    cfg, path = cli_config_file(tmp_path)
    _set_config_key(path, "perturb", "cell", "SYN09")
    assert cli.main([command, "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "PipelineError",
                    "message": "unknown key(s) ['cell'] in config section perturb"}
    assert_wrote_nothing(cfg.out_dir)


def test_run_all_rejects_too_few_cycles_before_training(tmp_path, no_training):
    cfg = tiny_config(tmp_path / "out",
                      synth=SynthSettings(n_train_cells=2, n_test_cells=1, n_cycles=2))
    with pytest.raises(PipelineError, match="at least 3"):
        pipeline.run_all(cfg)
    assert_wrote_nothing(cfg.out_dir)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def cli_config_file(tmp_path, **overrides):
    cfg = tiny_config(tmp_path / "out", **overrides)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return cfg, str(path)


def csv_config_file(tmp_path, ds, curves, capacities, **overrides):
    """`curves` and `capacities` written to eis.csv and capacity.csv in
    tmp_path, and a config file that reads them with `ds`'s partition."""
    eis_path, cap_path = tmp_path / "eis.csv", tmp_path / "capacity.csv"
    eisdata.save_eis_csv(eis_path, curves)
    eisdata.save_capacity_csv(cap_path, capacities)
    return cli_config_file(tmp_path, synth=None, eis_csv=str(eis_path),
                           capacity_csv=str(cap_path), train_cells=ds.train_cells,
                           test_cells=ds.test_cells, **overrides)


def test_cli_synth_writes_csvs(tmp_path, capsys):
    cfg, path = cli_config_file(tmp_path)
    assert cli.main(["synth", "--config", path]) == 0
    assert os.path.exists(os.path.join(cfg.out_dir, "eis.csv"))
    assert os.path.exists(os.path.join(cfg.out_dir, "capacity.csv"))
    assert "wrote" in capsys.readouterr().out


def test_cli_stage_and_out_overrides(tmp_path):
    _, path = cli_config_file(tmp_path)
    alt = str(tmp_path / "alt")
    assert cli.main(["synth", "--config", path, "--out", alt]) == 0
    assert os.path.exists(os.path.join(alt, "eis.csv"))


def test_cli_train_extract_fit_predict_chain(tmp_path, capsys):
    cfg, path = cli_config_file(tmp_path)
    for command in ("train-gan", "extract", "fit-gpr", "predict"):
        assert cli.main([command, "--config", path]) == 0, command
    capsys.readouterr()
    assert os.path.exists(os.path.join(cfg.out_dir, "gan_stage5.npz"))
    assert os.path.exists(os.path.join(cfg.out_dir, "latents_stage5.csv"))
    assert os.path.exists(os.path.join(cfg.out_dir, "gpr_stage5.json"))
    pred_path = os.path.join(cfg.out_dir, "predictions_stage5.csv")
    with open(pred_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert header == ["cell_id", "stage", "cycle", "pred_mean_mah", "pred_std_mah"]
    assert len(rows) == 8  # one test cell x eight cycles

    # per-row predict on the extracted latents is the reference
    with open(os.path.join(cfg.out_dir, "gpr_stage5.json")) as fh:
        model = gpr.GprModel.from_json(fh.read())
    latents = {(r[0], r[2]): r[3] for r in
               cli._read_latents(os.path.join(cfg.out_dir, "latents_stage5.csv"), 5)}
    for cell_id, _, cycle, mean, std in rows:
        ref_mean, ref_var = model.predict(latents[(cell_id, int(cycle))])
        assert float(mean) == pytest.approx(ref_mean, rel=1e-9, abs=0)
        assert float(std) == pytest.approx(np.sqrt(ref_var), rel=1e-9, abs=0)


def test_cli_chain_on_cell_ids_with_comma_quote_and_carriage_return(tmp_path, capsys):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    names = dict(zip(ds.train_cells + ds.test_cells, ("SYN,01", 'SYN"\r02', '"S,03"')))
    eis_path, cap_path = tmp_path / "eis.csv", tmp_path / "capacity.csv"
    eisdata.save_eis_csv(eis_path, [dataclasses.replace(c, cell_id=names[c.cell_id])
                                    for c in ds.curves])
    eisdata.save_capacity_csv(cap_path, {(names[cell_id], cycle): mah
                                         for (cell_id, cycle), mah in ds.capacities.items()})
    cfg = tiny_config(tmp_path / "out", synth=None, eis_csv=str(eis_path),
                      capacity_csv=str(cap_path),
                      train_cells=tuple(names[c] for c in ds.train_cells),
                      test_cells=tuple(names[c] for c in ds.test_cells))
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    for command in ("train-gan", "extract", "fit-gpr", "predict"):
        assert cli.main([command, "--config", str(path)]) == 0, command
    capsys.readouterr()

    latents = cli._read_latents(os.path.join(cfg.out_dir, "latents_stage5.csv"), 5)
    assert {r[0] for r in latents} == set(names.values())
    with open(os.path.join(cfg.out_dir, "predictions_stage5.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == ['"S,03"'] * 8
    with open(os.path.join(cfg.out_dir, "gpr_stage5.json")) as fh:
        model = gpr.GprModel.from_json(fh.read())
    by_key = {(r[0], r[2]): r[3] for r in latents}
    for cell_id, _, cycle, mean, _ in rows:
        assert float(mean) == pytest.approx(model.predict(by_key[(cell_id, int(cycle))])[0],
                                            rel=1e-9, abs=0)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_cli_fit_gpr_and_predict_read_no_eis_csv(tmp_path, capsys):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities)
    for command in ("train-gan", "extract"):
        assert cli.main([command, "--config", path]) == 0, command

    # the reference: partition and capacities taken from the ingested curves
    dataset = pipeline.load_dataset(cfg)
    train_cells, test_cells = pipeline.stage_partition(dataset, 5)
    rows = cli._read_latents(os.path.join(cfg.out_dir, "latents_stage5.csv"), 5)
    train_rows = [r for r in rows if r[0] in train_cells]
    model = gpr.fit(np.stack([r[3] for r in train_rows]),
                    [dataset.capacity(r[0], r[2]) for r in train_rows],
                    restarts=cfg.gpr.restarts, max_iter=cfg.gpr.max_iter, seed=cfg.seed)
    test_rows = [r for r in rows if r[0] in test_cells]
    mean, var = model.predict(np.stack([r[3] for r in test_rows]))
    ref_path = tmp_path / "reference.csv"
    pipeline._write_csv(ref_path, ["cell_id", "stage", "cycle", "pred_mean_mah",
                                   "pred_std_mah"],
                        [(r[0], 5, r[2], m, np.sqrt(v)) for r, m, v in zip(test_rows, mean, var)])

    os.remove(cfg.eis_csv)
    for command in ("fit-gpr", "predict"):
        assert cli.main([command, "--config", path]) == 0, command
    capsys.readouterr()
    assert _read_bytes(os.path.join(cfg.out_dir, "gpr_stage5.json")) == \
        model.to_json().encode()
    assert _read_bytes(os.path.join(cfg.out_dir, "predictions_stage5.csv")) == \
        _read_bytes(ref_path)


def test_cli_extract_refuses_a_stage_its_data_lack(tmp_path, monkeypatch, capsys):
    # eis.csv holds stages 3 and 5; stage 4 is refused before its checkpoint is read
    ds = pipeline.load_dataset(tiny_config(tmp_path, stages=(3, 5)))
    _, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities, stages=(3, 5))

    def opened(path):
        raise AssertionError(f"checkpoint {path} opened")

    monkeypatch.setattr(eisgan, "load_checkpoint", opened)
    assert cli.main(["extract", "--config", path, "--stage", "4"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "PipelineError",
        "message": "stage 4: the EIS data hold no curve of this stage"}


def test_cli_extract_refuses_norm_stats_that_are_not_finite(tmp_path, capsys):
    # a NaN scale once passed the checkpoint and was blamed on the first curve
    cfg, path = cli_config_file(tmp_path)
    _, arrays = _saved_checkpoint(tmp_path)
    header = _header(arrays)
    header["norm_stats"]["re_scale"] = float("nan")
    os.makedirs(cfg.out_dir)
    _rewrite(pipeline.checkpoint_path(cfg.out_dir, 5), arrays, header)
    assert cli.main(["extract", "--config", path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    blob = json.loads(lines[0])
    assert blob["error"] == "GanError"
    assert blob["message"].startswith("bad checkpoint header: DataError")
    assert "normalization re_scale must be a finite number, got nan" in blob["message"]
    assert os.listdir(cfg.out_dir) == ["gan_stage5.npz"]


def test_cli_extract_refuses_parameters_that_are_not_real_floats(tmp_path, capsys):
    # a complex array once loaded with its imaginary part dropped
    cfg, path = cli_config_file(tmp_path)
    _, arrays = _saved_checkpoint(tmp_path)
    arrays["p003"] = arrays["p003"] + 0.5j
    os.makedirs(cfg.out_dir)
    _rewrite(pipeline.checkpoint_path(cfg.out_dir, 5), arrays)
    assert cli.main(["extract", "--config", path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "GanError", "message": "checkpoint parameter 3 "
                                    "is complex128 (32,), not real floats of shape (32,)"}
    assert os.listdir(cfg.out_dir) == ["gan_stage5.npz"]


def test_cli_extract_on_a_checkpoint_that_is_no_npz_archive(tmp_path, capsys):
    cfg, path = cli_config_file(tmp_path)
    os.makedirs(cfg.out_dir)
    ckpt = os.path.join(cfg.out_dir, "gan_stage5.npz")
    with open(ckpt, "w", encoding="utf-8") as fh:
        fh.write("not a checkpoint\n")
    assert cli.main(["extract", "--config", path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    blob = json.loads(lines[0])
    assert blob["error"] == "GanError"
    assert blob["message"].startswith(f"unreadable checkpoint {ckpt}: not an npz archive")


@pytest.fixture
def fitted_chain(tmp_path, capsys):
    """A synth config run through train-gan, extract and fit-gpr."""
    cfg, path = cli_config_file(tmp_path)
    for command in ("train-gan", "extract", "fit-gpr"):
        assert cli.main([command, "--config", path]) == 0, command
    capsys.readouterr()
    return cfg, path


def test_cli_predict_on_synth_config_synthesises_nothing(fitted_chain, monkeypatch, capsys):
    cfg, path = fitted_chain
    pred_path = os.path.join(cfg.out_dir, "predictions_stage5.csv")
    assert cli.main(["predict", "--config", path]) == 0
    expected = _read_bytes(pred_path)
    os.remove(pred_path)

    def no_synthesis(*args, **kwargs):
        raise AssertionError("predict synthesised a dataset")
    monkeypatch.setattr(ecm, "synth_dataset", no_synthesis)
    assert cli.main(["predict", "--config", path]) == 0
    capsys.readouterr()
    assert _read_bytes(pred_path) == expected


def test_cli_fit_gpr_on_synth_config_draws_no_curves(fitted_chain, monkeypatch, capsys):
    cfg, path = fitted_chain
    model_path = os.path.join(cfg.out_dir, "gpr_stage5.json")
    expected = _read_bytes(model_path)
    os.remove(model_path)
    monkeypatch.setattr(ecm, "stage_curves", _no_stage_curves)
    assert cli.main(["fit-gpr", "--config", path]) == 0
    capsys.readouterr()
    assert _read_bytes(model_path) == expected


def _cli_writes_the_run_all_file(tiny_run, tmp_path, capsys, command, paths):
    """`command` on tiny_run's config writes every file of `paths`, each one
    as its run-all does, bar the three that hold every path of the study, and
    prints the metrics and perturbation entries of those paths."""
    run_cfg, results = tiny_run
    cfg, path = cli_config_file(tmp_path)
    assert dataclasses.replace(cfg, out_dir=run_cfg.out_dir) == run_cfg
    assert cli.main([command, "--config", path]) == 0
    files = study_files(paths, results["dataset"].test_cells[0])
    assert set(os.listdir(cfg.out_dir)) == files
    same = files - {"resolved_config.json"}
    if paths != pipeline.PATHS:
        same -= {"perturbreport.json", "perturb_box.csv", "summary.json"}
    for name in same:
        assert _read_bytes(os.path.join(cfg.out_dir, name)) == \
            _read_bytes(os.path.join(run_cfg.out_dir, name)), name
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(" stage")[0] for ln in lines[:-1]] == \
        list(paths) + [e.path_name for e in results["perturb_report"].entries
                       if e.path_name in paths]
    assert lines[-1] == f"reports written to {cfg.out_dir}"


def test_cli_baseline_writes_the_run_all_baseline_report(tiny_run, tmp_path, capsys,
                                                         no_training):
    # no_training: the baseline path trains no GAN
    _cli_writes_the_run_all_file(tiny_run, tmp_path, capsys, "baseline", ("baseline",))


def test_cli_evaluate_writes_the_run_all_eisgan_report(tiny_run, tmp_path, capsys):
    # gan_stage5.npz among them, so `sweep` can follow `evaluate`
    _cli_writes_the_run_all_file(tiny_run, tmp_path, capsys, "evaluate", ("eisgan",))


def test_cli_perturb_writes_the_run_all_perturbation_report(tiny_run, tmp_path, capsys):
    _cli_writes_the_run_all_file(tiny_run, tmp_path, capsys, "perturb", pipeline.PATHS)


def test_run_study_keeps_the_config_order_of_stages_paths_and_sigmas(tmp_path):
    cfg = tiny_config(tmp_path, stages=(5, 3), perturb=PerturbSettings(
        sigmas=(0.003, 0.001), n_samples=3, cycle=3))
    results = pipeline.run_study(pipeline.load_dataset(cfg), cfg)
    for name in pipeline.PATHS:
        assert [e.stage for e in results[f"{name}_report"].cells] == [5, 3]
    assert [(e.stage, e.path_name, e.sigma) for e in results["perturb_report"].entries] == [
        (stage, name, sigma) for stage in (5, 3) for name in ("eisgan", "baseline")
        for sigma in (0.003, 0.001)]


def test_perturb_entries_name_their_own_stage_target(tmp_path, no_training):
    # stage 3 lacks SYN03, so its first test cell, and perturbation target, is SYN04
    cfg = tiny_config(tmp_path, stages=(5, 3),
                      synth=SynthSettings(n_train_cells=2, n_test_cells=2, n_cycles=8))
    ds = pipeline.load_dataset(cfg)
    keep = [c for c in ds.curves if (c.cell_id, c.stage) != ("SYN03", 3)]
    reduced = eisdata.Dataset(keep, ds.capacities, ds.train_cells, ds.test_cells)
    report = pipeline.run_study(reduced, cfg, ("baseline",))["perturb_report"]
    assert [(e.stage, e.cell_id, e.cycle) for e in report.entries] == [
        (5, "SYN03", 3), (3, "SYN04", 3)]
    blob = json.loads(report.to_json())
    assert list(blob) == ["entries"]
    assert [(e["stage"], e["cell_id"]) for e in blob["entries"]] == [
        (5, "SYN03"), (3, "SYN04")]


@pytest.mark.parametrize("command, keep, message", [
    ("predict", "train", "no latent rows for test cells ('SYN03',)"),
    ("predict", "test", "empty partition"),
    ("fit-gpr", "test", "empty partition"),
    ("fit-gpr", "train", "empty partition"),
])
def test_cli_partition_errors_from_latent_rows(tmp_path, capsys, command, keep, message):
    # stage 3 holds every declared cell, so none is refused as absent from all
    # stages, and stage 5's rows alone lack a side of the partition
    cfg, path = cli_config_file(tmp_path, stages=(5, 3))
    for step in ("train-gan", "extract", "fit-gpr"):
        assert cli.main([step, "--config", path]) == 0, step
    capsys.readouterr()
    latents = os.path.join(cfg.out_dir, "latents_stage5.csv")
    train_cells, test_cells = pipeline.declared_partition(cfg)
    cells = test_cells if keep == "test" else train_cells
    with open(latents, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(latents, "w", newline="") as fh:
        fh.writelines([lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] in cells])
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    blob = json.loads(lines[0])
    assert blob["error"] == "PipelineError"
    assert blob["message"].startswith("stage 5: ") and message in blob["message"]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["fit-gpr", "predict"])
def test_cli_refuses_a_latent_row_of_another_stage(fitted_chain, capsys, command):
    cfg, path = fitted_chain
    latents = os.path.join(cfg.out_dir, "latents_stage5.csv")
    with open(latents, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[3] = lines[3].replace(",5,", ",3,", 1)
    with open(latents, "w", newline="") as fh:
        fh.writelines(lines)
    assert cli.main([command, "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "PipelineError",
                    "message": f"{latents} row 4: stage 3, expected 5"}


@pytest.mark.parametrize("command", ["fit-gpr", "predict"])
def test_cli_names_the_line_of_a_latents_csv_that_is_not_utf8(fitted_chain, capsys, command):
    cfg, path = fitted_chain
    latents = os.path.join(cfg.out_dir, "latents_stage5.csv")
    with open(latents, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[3] = lines[3].replace(b"SYN", b"SY\xff", 1)
    with open(latents, "wb") as fh:
        fh.writelines(lines)
    assert cli.main([command, "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "PipelineError", "message":
                    f"{latents} line 4: not UTF-8 text (invalid start byte)"}


def test_cli_names_the_line_of_a_gpr_model_file_that_is_not_utf8(fitted_chain, capsys):
    cfg, path = fitted_chain
    model = os.path.join(cfg.out_dir, "gpr_stage5.json")
    with open(model, "rb") as fh:
        text = fh.read()
    with open(model, "wb") as fh:
        fh.write(b"\n" + text[:20] + b"\xc3(" + text[20:])
    assert cli.main(["predict", "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "GprError", "message":
                    f"{model} line 2: not UTF-8 text (invalid continuation byte)"}


def test_cli_train_gan_writes_the_run_all_checkpoint(tiny_run, tmp_path, capsys):
    # both build the stage's inputs with `stage_inputs`, so they train one GAN
    run_cfg, _ = tiny_run
    cfg, path = cli_config_file(tmp_path)
    assert cli.main(["train-gan", "--config", path]) == 0
    capsys.readouterr()
    assert _read_bytes(os.path.join(cfg.out_dir, "gan_stage5.npz")) == \
        _read_bytes(os.path.join(run_cfg.out_dir, "gan_stage5.npz"))


def test_cli_fit_gpr_names_a_missing_capacity_record(tmp_path, capsys):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities)
    for command in ("train-gan", "extract"):
        assert cli.main([command, "--config", path]) == 0, command
    eisdata.save_capacity_csv(cfg.capacity_csv, {key: mah for key, mah in ds.capacities.items()
                                                 if key != ("SYN02", 4)})
    assert cli.main(["fit-gpr", "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob["error"] == "PipelineError"
    assert "no capacity record for latent row(s) [('SYN02', 4)]" in blob["message"]


def test_cli_train_gan_and_extract_read_no_capacity_csv(tmp_path, capsys):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    latents = []
    for name in ("with", "without"):
        os.mkdir(tmp_path / name)
        cfg, path = csv_config_file(tmp_path / name, ds, ds.curves, ds.capacities)
        if name == "without":
            os.remove(cfg.capacity_csv)
        for command in ("train-gan", "extract"):
            assert cli.main([command, "--config", path]) == 0, (name, command)
        latents.append(_read_bytes(os.path.join(cfg.out_dir, "latents_stage5.csv")))
    capsys.readouterr()
    assert latents[1] == latents[0]


def test_cli_extract_needs_no_declared_partition(tmp_path, capsys):
    # extract writes a latent row for every curve, so a config without
    # train_cells and test_cells gives the same rows
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities)
    for command in ("train-gan", "extract"):
        assert cli.main([command, "--config", path]) == 0, command
    latents_path = os.path.join(cfg.out_dir, "latents_stage5.csv")
    latents = _read_bytes(latents_path)
    os.remove(latents_path)
    for key in ("train_cells", "test_cells"):
        _set_config_key(path, None, key, [])
    assert cli.main(["extract", "--config", path]) == 0
    capsys.readouterr()
    assert _read_bytes(latents_path) == latents


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"extract"}))
def test_cli_commands_but_extract_refuse_a_csv_config_without_partition(
        tmp_path, capsys, no_training, command):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities)
    for key in ("train_cells", "test_cells"):
        _set_config_key(path, None, key, [])
    assert cli.main([command, "--config", path]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "PipelineError",
        "message": "train_cells and test_cells must be declared for CSV input"}
    assert_wrote_nothing(cfg.out_dir)


@pytest.mark.parametrize("command", ("synth", "train-gan", "extract", "sweep") + STUDY_COMMANDS)
def test_cli_refuses_a_declared_cell_eis_csv_lacks(tmp_path, capsys, no_training, command):
    # a typo in a declared cell once dropped that cell: `baseline` fitted on
    # SYN01 alone, and every command that reads eis.csv now names it
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities)
    _set_config_key(path, None, "train_cells", ["SYN01", "SYNO2"])
    assert cli.main([command, "--config", path]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "PipelineError",
        "message": f"declared cell(s) ['SYNO2'] hold no curve in {cfg.eis_csv}"}
    assert_wrote_nothing(cfg.out_dir)


@pytest.mark.parametrize("command, key, cells", [("fit-gpr", "train_cells", ["SYN01", "SYNO2"]),
                                                 ("predict", "test_cells", ["SYN03", "SYNO4"])])
def test_cli_refuses_a_declared_cell_no_latent_row_holds(tmp_path, capsys, command, key,
                                                         cells):
    # fit-gpr and predict read the latent rows, not eis.csv: a typo in a
    # declared cell once fitted on SYN01 alone, or predicted for SYN03 alone
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, ds.capacities)
    for step in ("train-gan", "extract", "fit-gpr"):
        assert cli.main([step, "--config", path]) == 0, step
    written = {name: _read_bytes(os.path.join(cfg.out_dir, name))
               for name in os.listdir(cfg.out_dir)}
    _set_config_key(path, None, key, cells)
    assert cli.main([command, "--config", path]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "PipelineError",
        "message": f"declared cell(s) {cells[1:]} hold no latent row in {cfg.out_dir}"}
    assert {name: _read_bytes(os.path.join(cfg.out_dir, name))
            for name in os.listdir(cfg.out_dir)} == written


def test_cli_fit_gpr_and_predict_keep_a_declared_cell_some_stages_lack(tmp_path, capsys):
    # SYN02 holds no stage-3 curve, so no stage-3 latent row: each stage fits
    # and predicts on the declared cells its rows hold
    ds = pipeline.load_dataset(tiny_config(tmp_path, stages=(3, 5)))
    curves = [c for c in ds.curves if (c.cell_id, c.stage) != ("SYN02", 3)]
    cfg, path = csv_config_file(tmp_path, ds, curves, ds.capacities, stages=(3, 5))
    for step in ("train-gan", "extract", "fit-gpr", "predict"):
        assert cli.main([step, "--config", path]) == 0, step
    out = capsys.readouterr().out
    assert "stage 3: GPR fit on 8 points" in out and "stage 5: GPR fit on 16 points" in out


def test_load_dataset_keeps_a_declared_cell_some_stages_lack(tmp_path):
    # each stage intersects the declared cells with its own
    ds = pipeline.load_dataset(tiny_config(tmp_path, stages=(3, 5)))
    curves = [c for c in ds.curves if (c.cell_id, c.stage) != ("SYN02", 3)]
    cfg, _ = csv_config_file(tmp_path, ds, curves, ds.capacities, stages=(3, 5))
    loaded = pipeline.load_dataset(cfg)
    assert pipeline.stage_partition(loaded, 3) == (("SYN01",), ("SYN03",))
    assert pipeline.stage_partition(loaded, 5) == (("SYN01", "SYN02"), ("SYN03",))


LATENTS = "cell_id,stage,cycle,c1,c2\nA,5,0,0.1,0.2\nA,5,2,0.3,0.4\n"


@pytest.mark.parametrize("text, message", [
    (LATENTS.replace("cell_id", "cell"), ": header must be cell_id,stage,cycle,c1..ck"),
    (LATENTS.replace("c1,c2", "c1,c3"), ": header must be cell_id,stage,cycle,c1..ck"),
    ("", ": header must be cell_id,stage,cycle,c1..ck"),
    (LATENTS + "A,5,1,0.1\n", " row 4: expected 5 fields, got 4"),
    (LATENTS.replace("A,5,2", "A,5,x"), " row 3: invalid literal for int()"),
    (LATENTS.replace("0.4", "0.4a"), " row 3: could not convert string to float"),
    (LATENTS.replace("A,5,2", "A,4,2"), " row 3: stage 4, expected 5"),
], ids=["wrong header", "wrong code name", "empty", "short row", "non-numeric cycle",
        "non-numeric code", "other stage"])
def test_read_latents_refuses_a_malformed_file(tmp_path, text, message):
    path = tmp_path / "latents.csv"
    path.write_text(text)
    with pytest.raises(PipelineError, match=re.escape(f"{path}{message}")):
        cli._read_latents(str(path), 5)


def test_cli_chain_estimates_cells_without_capacity_records(tmp_path, capsys):
    # train-gan and extract read no capacities, and fit-gpr only the training
    # cells', so the chain predicts the same on train-only capacities
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    train_only = {key: mah for key, mah in ds.capacities.items() if key[0] in ds.train_cells}
    predictions = []
    for name, capacities in (("all", ds.capacities), ("train_only", train_only)):
        os.mkdir(tmp_path / name)
        cfg, path = csv_config_file(tmp_path / name, ds, ds.curves, capacities)
        for command in ("train-gan", "extract", "fit-gpr", "predict"):
            assert cli.main([command, "--config", path]) == 0, (name, command)
        predictions.append(_read_bytes(os.path.join(cfg.out_dir, "predictions_stage5.csv")))
    capsys.readouterr()
    rows = list(csv.reader(predictions[1].decode().splitlines()))[1:]
    assert [(r[0], int(r[2])) for r in rows] == [
        (c.cell_id, c.cycle) for c in ds.curves_for(5, ds.test_cells)]
    assert predictions[1] == predictions[0]


def test_run_all_refuses_a_missing_test_capacity_before_training(tmp_path, no_training):
    # SYN04 is tested at stage 3 only; its capacities are missing, so the
    # study fails before it trains the stage-5 GAN
    ds = pipeline.load_dataset(tiny_config(tmp_path, stages=(5, 3), synth=SynthSettings(
        n_train_cells=2, n_test_cells=2, n_cycles=8)))
    cfg, _ = csv_config_file(
        tmp_path, ds, [c for c in ds.curves if (c.cell_id, c.stage) != ("SYN04", 5)],
        {key: mah for key, mah in ds.capacities.items() if key[0] != "SYN04"}, stages=(5, 3))
    with pytest.raises(eisdata.DataError, match=r"no capacity record for \('SYN04', 0\)"):
        pipeline.run_all(cfg)
    assert_wrote_nothing(cfg.out_dir)


@pytest.mark.parametrize("command", ["run-all", "perturb"])
def test_cli_study_commands_refuse_too_few_cycles_before_writing(tmp_path, capsys,
                                                                 no_training, command):
    cfg, path = cli_config_file(
        tmp_path, synth=SynthSettings(n_train_cells=2, n_test_cells=1, n_cycles=2))
    assert cli.main([command, "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob["error"] == "PipelineError"
    assert "at least 3" in blob["message"]
    assert_wrote_nothing(cfg.out_dir)


@pytest.mark.parametrize("command", STUDY_COMMANDS)
def test_cli_study_commands_refuse_a_missing_test_capacity_before_writing(
        tmp_path, capsys, no_training, command):
    ds = pipeline.load_dataset(tiny_config(tmp_path))
    cfg, path = csv_config_file(tmp_path, ds, ds.curves, {
        key: mah for key, mah in ds.capacities.items() if key[0] in ds.train_cells})
    assert cli.main([command, "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "DataError", "message": "no capacity record for ('SYN03', 0)"}
    assert_wrote_nothing(cfg.out_dir)


def test_write_report_creates_the_directory_and_writes_to_json(tmp_path):
    report = pipeline.EvalReport("eisgan")
    path = pipeline.write_report(str(tmp_path / "new"), "evalreport_eisgan.json",
                                 report.to_json())
    assert path == str(tmp_path / "new" / "evalreport_eisgan.json")
    assert _read_bytes(path) == report.to_json().encode()


def test_cli_sweep_from_checkpoint(tmp_path, capsys):
    cfg, path = cli_config_file(tmp_path)
    assert cli.main(["train-gan", "--config", path]) == 0
    assert cli.main(["sweep", "--config", path]) == 0
    capsys.readouterr()
    for dim in range(9):
        assert os.path.exists(os.path.join(cfg.out_dir, f"sweep_stage5_dim{dim}.csv"))


def _freq_column(path):
    """The freq_hz column of a sweep CSV, one value per point of its first code value."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    first = [r for r in rows if r["code_value"] == rows[0]["code_value"]]
    return np.array([float(r["freq_hz"]) for r in first])


def test_cli_sweep_takes_the_frequencies_of_the_data(tmp_path, capsys):
    # a CSV cohort measured on 60 points over 10 kHz-0.1 Hz, not the synthetic grid
    ds = ecm.synth_dataset(2, 1, 8, [5], 0)
    grid = eisdata.log_grid(1e4, 0.1, eisdata.T_POINTS)
    curves = [dataclasses.replace(c, freq_hz=grid) for c in ds.curves]
    cfg, path = csv_config_file(tmp_path, ds, curves, ds.capacities)
    for command in ("run-all", "sweep"):
        assert cli.main([command, "--config", path]) == 0, command
    capsys.readouterr()
    for name in ["sweep_stage5_c1.csv"] + [f"sweep_stage5_dim{d}.csv" for d in range(9)]:
        assert np.array_equal(_freq_column(os.path.join(cfg.out_dir, name)), grid), name


def test_cli_failure_prints_json_error_line(tmp_path, capsys):
    # extract before train-gan: missing checkpoint
    _, path = cli_config_file(tmp_path)
    assert cli.main(["extract", "--config", path]) == 1
    err = capsys.readouterr().err.strip()
    blob = json.loads(err)
    assert set(blob) == {"error", "message"}


def _set_config_key(path, section, key, value):
    """Set `key` of the config file's `section` (None: the top level) to `value`."""
    with open(path) as fh:
        blob = json.load(fh)
    (blob if section is None else blob[section])[key] = value
    with open(path, "w") as fh:
        json.dump(blob, fh)


# each row names its id, so that adding or removing a row renames no other case
BAD_CONFIG_ROWS = {
    "gan-batch_sise-8-PipelineError-run-all":
        ("gan", "batch_sise", 8, "PipelineError", "run-all"),
    "gpr-restart-2-PipelineError-run-all":
        ("gpr", "restart", 2, "PipelineError", "run-all"),
    "None-bogus-1-PipelineError-run-all":
        (None, "bogus", 1, "PipelineError", "run-all"),
    "perturb-sigma-value3-PipelineError-run-all":
        ("perturb", "sigma", [0.001], "PipelineError", "run-all"),
    "synth-n_cells-3-PipelineError-run-all":
        ("synth", "n_cells", 3, "PipelineError", "run-all"),
    "gan-batch_size-2.5-GanError-run-all":
        ("gan", "batch_size", 2.5, "GanError", "run-all"),
    "gan-epochs-True-GanError-run-all":
        ("gan", "epochs", True, "GanError", "run-all"),
    "gan-trunk_widths-value7-PipelineError-run-all":
        ("gan", "trunk_widths", [16, 32.0, 64, 64], "PipelineError", "run-all"),
    "gpr-restarts-2.5-PipelineError-run-all":
        ("gpr", "restarts", 2.5, "PipelineError", "run-all"),
    "gpr-max_iter-True-PipelineError-run-all":
        ("gpr", "max_iter", True, "PipelineError", "run-all"),
    "perturb-n_samples-2.5-PipelineError-run-all":
        ("perturb", "n_samples", 2.5, "PipelineError", "run-all"),
    "perturb-cycle-False-PipelineError-run-all":
        ("perturb", "cycle", False, "PipelineError", "run-all"),
    "synth-n_cycles-8.0-PipelineError-run-all":
        ("synth", "n_cycles", 8.0, "PipelineError", "run-all"),
    "None-seed-1.5-PipelineError-run-all":
        (None, "seed", 1.5, "PipelineError", "run-all"),
    "None-stages-value14-PipelineError-run-all":
        (None, "stages", [5.0], "PipelineError", "run-all"),
    "None-stages-5-PipelineError-run-all":
        (None, "stages", 5, "PipelineError", "run-all"),
    "None-test_cells-SYN03-PipelineError-run-all":
        (None, "test_cells", "SYN03", "PipelineError", "run-all"),
    "gan-trunk_widths-5-PipelineError-run-all":
        ("gan", "trunk_widths", 5, "PipelineError", "run-all"),
    "perturb-sigmas-0.003-PipelineError-run-all":
        ("perturb", "sigmas", 0.003, "PipelineError", "run-all"),
    "perturb-sigmas-value19-PipelineError-run-all":
        ("perturb", "sigmas", ["0.003"], "PipelineError", "run-all"),
    "None-stages-value20-PipelineError-run-all":
        (None, "stages", [5, 5], "PipelineError", "run-all"),
    "perturb-cycle--1-PipelineError-run-all":
        ("perturb", "cycle", -1, "PipelineError", "run-all"),
    "perturb-cycle--100-PipelineError-run-all":
        ("perturb", "cycle", -100, "PipelineError", "run-all"),
    "synth-dc_noise_amp--0.02-PipelineError-run-all":
        ("synth", "dc_noise_amp", -0.02, "PipelineError", "run-all"),
    "synth-meas_noise_ohm--0.0002-PipelineError-run-all":
        ("synth", "meas_noise_ohm", -0.0002, "PipelineError", "run-all"),
    "perturb-n_samples-0-PipelineError-perturb":
        ("perturb", "n_samples", 0, "PipelineError", "perturb"),
    "gpr-restarts-0-PipelineError-fit-gpr":
        ("gpr", "restarts", 0, "PipelineError", "fit-gpr"),
    "gan-batch_size-0-GanError-run-all":
        ("gan", "batch_size", 0, "GanError", "run-all"),
    "None-stages-value32-PipelineError-run-all":
        (None, "stages", [], "PipelineError", "run-all"),
    "None-stages-value33-PipelineError-perturb":
        (None, "stages", [], "PipelineError", "perturb"),
    "perturb-sigmas-value34-PipelineError-run-all":
        ("perturb", "sigmas", [], "PipelineError", "run-all"),
    "perturb-sigmas-value35-PipelineError-perturb":
        ("perturb", "sigmas", [0.003, 0.003], "PipelineError", "perturb"),
    "perturb-sigmas-value36-PipelineError-baseline":
        ("perturb", "sigmas", [0.0010001, 0.0010002], "PipelineError", "baseline"),
    "perturb-sigmas-value37-PipelineError-baseline":
        ("perturb", "sigmas", [1e303], "PipelineError", "baseline"),
    "None-eis_csv-data/eis.csv-PipelineError-run-all":
        (None, "eis_csv", "data/eis.csv", "PipelineError", "run-all"),
    "perturb-sigmas-value39-PipelineError-run-all":
        ("perturb", "sigmas", [10 ** 400], "PipelineError", "run-all"),
    "None-seed--1-PipelineError-run-all":
        (None, "seed", -1, "PipelineError", "run-all"),
    "None-stages-empty-PipelineError-synth":
        (None, "stages", [], "PipelineError", "synth"),
    "None-stages-empty-PipelineError-fit-gpr":
        (None, "stages", [], "PipelineError", "fit-gpr"),
}


@pytest.mark.parametrize("section, key, value, error, command",
                         BAD_CONFIG_ROWS.values(), ids=BAD_CONFIG_ROWS)
def test_cli_bad_config_key_or_type_prints_json_error_line(tmp_path, capsys, section,
                                                           key, value, error, command):
    cfg, path = cli_config_file(tmp_path)
    _set_config_key(path, section, key, value)
    assert cli.main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert key in json.loads(lines[0])["message"]
    assert captured.out == ""
    assert_wrote_nothing(cfg.out_dir)


@pytest.mark.parametrize("key, value", FIXED_SETTINGS.items())
def test_cli_refuses_gan_settings_the_paper_fixes(tmp_path, capsys, key, value):
    # the architecture, the code sizes and the optimiser are fixed in eisgan, so
    # even the value a config of an earlier version held is refused
    cfg, path = cli_config_file(tmp_path)
    _set_config_key(path, "gan", key, value)
    assert cli.main(["run-all", "--config", path]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "PipelineError",
        "message": f"unknown key(s) ['{key}'] in config section gan"}
    assert_wrote_nothing(cfg.out_dir)


def test_cli_refuses_a_gan_seed_the_study_would_ignore(tmp_path, capsys):
    cfg, path = cli_config_file(tmp_path)
    _set_config_key(path, "gan", "seed", 7)
    assert cli.main(["run-all", "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "PipelineError"
    assert "seed * 1000 + stage from the top-level seed" in blob["message"]
    assert_wrote_nothing(cfg.out_dir)


def test_cli_names_the_line_of_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"synth": {},\n "stages": [5],\n "out_dir": "caf\xe9"}\n')
    assert cli.main(["run-all", "--config", str(path)]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "PipelineError", "message":
                    f"{path} line 3: not UTF-8 text (invalid continuation byte)"}


def test_cli_names_line_and_column_of_a_config_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"synth": {},\n "stages": [5,]}\n')
    assert cli.main(["run-all", "--config", str(path)]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob == {"error": "PipelineError", "message":
                    f"{path} line 2 column 15: not valid JSON (Expecting value)"}


@pytest.mark.parametrize("section", ["gan", "gpr", "perturb", "synth"])
def test_config_section_must_be_an_object(section):
    with pytest.raises(PipelineError, match=f"section {section} must be an object"):
        PipelineConfig.from_dict({"synth": {}, section: [1, 2]})


def test_cli_evaluate_rejects_too_few_cycles(tmp_path, capsys, no_training):
    # run-all and perturb: test_cli_study_commands_refuse_too_few_cycles_before_writing
    cfg, path = cli_config_file(
        tmp_path, synth=SynthSettings(n_train_cells=2, n_test_cells=1, n_cycles=2))
    assert cli.main(["evaluate", "--config", path]) == 1
    blob = json.loads(capsys.readouterr().err.strip())
    assert blob["error"] == "PipelineError"
    assert "at least 3" in blob["message"]
    assert_wrote_nothing(cfg.out_dir)


def test_cli_seed_override_changes_synth(tmp_path):
    _, path = cli_config_file(tmp_path)
    out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert cli.main(["synth", "--config", path, "--seed", "1", "--out", out_a]) == 0
    assert cli.main(["synth", "--config", path, "--seed", "2", "--out", out_b]) == 0
    assert cli.main(["synth", "--config", path, "--seed", "1", "--out", out_c]) == 0
    read = lambda d: open(os.path.join(d, "eis.csv")).read()
    assert read(out_a) != read(out_b)
    assert read(out_a) == read(out_c)


def test_cli_refuses_a_negative_seed_override_before_writing(tmp_path, capsys):
    cfg, path = cli_config_file(tmp_path)
    assert cli.main(["synth", "--config", path, "--seed", "-1", "--out", cfg.out_dir]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "PipelineError",
                                        "message": "seed must be >= 0, got -1"}
    assert captured.out == ""
    assert_wrote_nothing(cfg.out_dir)


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
