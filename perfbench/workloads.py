"""The three benchmark workloads: `train`, `study` and `estimate`.

Each workload builds its inputs from the workload seed in `setup()`, does one
timed unit of work in `unit()`, and validates that unit's outputs outside the
timed section in `check()`. Every operation and every output check is counted
in a `Tally`, which gives `failed_frac`. See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from eisgan_soh import cli, ecm, eisdata, eisgan, gpr, pipeline
from eisgan_soh.eisgan import GanConfig, LatentCode

#: every workload runs on one degradation stage, as one stage of `run-all` does
STAGE = 5


@dataclass
class Tally:
    """Attempted and failed operations and output checks."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def ops(self, count: int) -> None:
        self.attempted += count


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _is_json(raw: bytes) -> bool:
    try:
        json.loads(raw)
    except ValueError:
        return False
    return True


def _quiet(fn, *args):
    """Call fn with its stdout captured, so the benchmark's own output stays parseable."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    """One set of inputs and one unit of timed work; subclasses fill in the steps."""

    name = ""
    min_units = 1

    def __init__(self, seed: int, size: dict, workdir: str, tally: Tally):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.tally = tally

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> None:
        raise NotImplementedError

    def report(self, units: list[int], unit_s: list[float]) -> dict:
        """Workload metrics over the untraced `units` (indices, with their times):
        name -> (value, unit, sample count)."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """`eisgan.train` with the default GanConfig on one stage's training set."""

    name = "train"

    def setup(self):
        s = self.size
        ds = ecm.synth_dataset(s["cells"], 1, s["cycles"], [STAGE], self.seed)
        curves = ds.curves_for(STAGE, ds.train_cells)
        stats = eisdata.fit_norm_stats(curves)
        self.arrays = np.stack([eisdata.curve_to_array(c)
                                for c in eisdata.normalize(curves, stats)])
        self.config = GanConfig(epochs=s["epochs"], batch_size=s["batch_size"],
                                seed=self.seed)
        batch = min(self.config.batch_size, len(self.arrays))
        self.steps = s["epochs"] * (len(self.arrays) // batch)
        self.first_losses = None
        self.nets = None

    def unit(self, index):
        self.tally.ops(self.steps)
        return eisgan.train(self.arrays, self.config)

    def check(self, index, output):
        nets, report = output
        losses = [report.loss_d, report.loss_g, report.loss_mi]
        self.tally.check(all(len(x) == self.config.epochs for x in losses)
                         and _finite(losses), f"unit {index}: training losses not finite")
        if self.first_losses is None:
            self.first_losses = losses
        self.tally.check(losses == self.first_losses,
                         f"unit {index}: losses differ from unit 0 on the same inputs")
        self.nets = nets

    def code_recovery(self) -> float:
        """Mean |corr(c, Q(trunk(G(c, 0))))| over the code dims, on fixed codes."""
        cfg = self.nets.config
        codes = np.random.default_rng(123).standard_normal(
            (self.size["codes"], cfg.latent_dim))
        z = np.zeros(cfg.noise_dim)
        recovered = np.stack([
            eisgan.extract_latents(self.nets, eisgan.generate(self.nets, LatentCode(c, z)))
            for c in codes])
        corrs = [abs(float(np.corrcoef(codes[:, j], recovered[:, j])[0, 1]))
                 for j in range(cfg.latent_dim)]
        return float(np.mean(corrs))

    def report(self, units, unit_s):
        out = {"train_curves_per_s": (self.config.epochs * len(self.arrays)
                                      / statistics.median(unit_s),
                                      "curves/s", len(unit_s))}
        if self.nets is not None:
            corr = self.code_recovery()
            self.tally.check(0.0 <= corr <= 1.0, f"code recovery corr {corr} outside [0, 1]")
            out["code_recovery_corr"] = (corr, "1", self.size["codes"])
        return out


#: report files that `run_all` must write identically on every repeat
STUDY_REPORTS = ("evalreport_eisgan.json", "evalreport_baseline.json",
                 "perturbreport.json", "summary.json")


class StudyWorkload(Workload):
    """`pipeline.run_all` on a reduced one-stage config."""

    name = "study"
    min_units = 2  # the byte-identity check needs a repeat

    def setup(self):
        s = self.size
        self.config = pipeline.PipelineConfig(
            synth=pipeline.SynthSettings(n_train_cells=s["train_cells"],
                                         n_test_cells=s["test_cells"],
                                         n_cycles=s["cycles"]),
            stages=(STAGE,),
            gan=GanConfig(epochs=s["epochs"], batch_size=s["batch_size"]),
            gpr=pipeline.GprSettings(**s["gpr"]),
            perturb=pipeline.PerturbSettings(**s["perturb"]),
            out_dir=self.workdir,
            seed=self.seed)
        self.first_reports = None
        self.quality = None

    def unit(self, index):
        config = replace(self.config, out_dir=os.path.join(self.workdir, f"study{index}"))
        self.tally.ops(1)
        return config.out_dir, pipeline.run_all(config)

    def check(self, index, output):
        out_dir, result = output
        reports = {}
        for name in STUDY_REPORTS:
            with open(os.path.join(out_dir, name), "rb") as fh:
                reports[name] = fh.read()
        shutil.rmtree(out_dir)
        for name, raw in reports.items():
            self.tally.check(_is_json(raw), f"unit {index}: {name} is not JSON")
        if self.first_reports is None:
            self.first_reports = reports
            self.quality = self._quality(result)
        for name, raw in reports.items():
            self.tally.check(raw == self.first_reports[name],
                             f"unit {index}: {name} differs from unit 0")
        for report in (result["eisgan_report"], result["baseline_report"]):
            for cell in report.cells:
                self.tally.check(_finite(cell.pred_mean_mah) and _finite(cell.pred_std_mah)
                                 and min(cell.pred_std_mah) >= 0,
                                 f"unit {index}: bad estimate for {cell.cell_id}")

    def _quality(self, result):
        sigmas = self.config.perturb.sigmas
        mid = sigmas[len(sigmas) // 2]
        devs = [d for e in result["perturb_report"].entries
                if e.path_name == "eisgan" and e.sigma == mid for d in e.deviations_mah]
        out = {"robust_dev_mah": (float(np.median(np.abs(devs))), "mAh", len(devs))}
        for path in ("eisgan", "baseline"):
            cells = result[f"{path}_report"].cells
            out[f"mae_{path}_mah"] = (float(np.mean([c.mae_mah for c in cells])), "mAh",
                                      len(cells))
            models = [a.gpr_model for a in result[f"{path}_artifacts"].values()]
            out[f"lml_{path}"] = (float(np.mean([m.lml for m in models])), "nats",
                                  len(models))
        return out

    def report(self, units, unit_s):
        for name, (value, _, _) in (self.quality or {}).items():
            self.tally.check(math.isfinite(value), f"{name} is not finite")
        return dict(self.quality or {})


#: fixed GPR hyperparameters of the deployed model (z-scored targets), so set-up fits nothing
ESTIMATE_HP = gpr.Hyperparams(sigma_n=0.1, sigma_f=1.0, length_scale=1.0)


class EstimateWorkload(Workload):
    """A measured spectrum becomes a capacity estimate: CLI cohort, then an online loop."""

    name = "estimate"

    def setup(self):
        s = self.size
        root = os.path.join(self.workdir, "estimate")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        ds = ecm.synth_dataset(s["train_cells"], s["cohort_cells"], s["cycles"],
                               [STAGE], self.seed)
        eis_csv = os.path.join(root, "eis.csv")
        cap_csv = os.path.join(root, "capacity.csv")
        eisdata.save_eis_csv(eis_csv, ds.curves)
        eisdata.save_capacity_csv(cap_csv, ds.capacities)

        # a briefly trained checkpoint: its weights only need to be real ones
        train_curves = ds.curves_for(STAGE, ds.train_cells)
        stats = eisdata.fit_norm_stats(train_curves)
        arrays = np.stack([eisdata.curve_to_array(c) for c in
                           eisdata.normalize(train_curves[::s["gan_stride"]], stats)])
        nets, _ = eisgan.train(arrays, GanConfig(epochs=1, batch_size=s["batch_size"],
                                                 seed=self.seed))
        ckpt = os.path.join(root, f"gan_stage{STAGE}.npz")
        eisgan.save_checkpoint(ckpt, nets, stats)
        self.nets, self.stats = eisgan.load_checkpoint(ckpt)

        latents = np.stack([eisgan.extract_latents(self.nets, eisdata.curve_to_array(c))
                            for c in eisdata.normalize(train_curves, self.stats)])
        y = np.array([ds.capacity(c.cell_id, c.cycle) for c in train_curves])
        y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
        model = gpr.GprModel.build(latents, (y - y_mean) / y_scale, ESTIMATE_HP,
                                   y_mean, y_scale)
        with open(os.path.join(root, f"gpr_stage{STAGE}.json"), "w", encoding="utf-8") as fh:
            fh.write(model.to_json())
        self.model = model

        self.config_path = os.path.join(root, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"eis_csv": eis_csv, "capacity_csv": cap_csv, "stages": [STAGE],
                       "train_cells": list(ds.train_cells),
                       "test_cells": list(ds.test_cells), "out_dir": root}, fh)
        self.predictions_path = os.path.join(root, f"predictions_stage{STAGE}.csv")
        self.online = ds.curves_for(STAGE, ds.test_cells)
        self.first_predictions = None
        self.latency_s: dict[int, list[float]] = {}
        self.cohort_s: dict[int, float] = {}

    def unit(self, index):
        clock = time.perf_counter
        t0 = clock()
        codes = (_quiet(cli.main, ["extract", "--config", self.config_path]),
                 _quiet(cli.main, ["predict", "--config", self.config_path]))
        self.cohort_s[index] = clock() - t0
        self.tally.ops(len(self.online))

        # closed loop, one client: the next spectrum is sent once the estimate is back
        estimates = []
        latency_s = self.latency_s[index] = []
        for curve in self.online:
            t = clock()
            norm = eisdata.normalize([curve], self.stats)[0]
            latent = eisgan.extract_latents(self.nets, eisdata.curve_to_array(norm))
            estimates.append(self.model.predict(latent))
            latency_s.append(clock() - t)
        self.tally.ops(len(self.online))
        return codes, estimates

    def check(self, index, output):
        codes, estimates = output
        self.tally.check(codes == (0, 0), f"unit {index}: CLI exit codes {codes}")
        with open(self.predictions_path, encoding="utf-8") as fh:
            raw = fh.read()
        rows = [line.split(",") for line in raw.splitlines()[1:]]
        self.tally.check(len(rows) == len(self.online),
                         f"unit {index}: {len(rows)} prediction rows for "
                         f"{len(self.online)} test spectra")
        cli_mean = {(r[0], int(r[2])): float(r[3]) for r in rows}
        self.tally.check(all(math.isfinite(float(r[3])) and float(r[4]) >= 0 for r in rows),
                         f"unit {index}: CLI estimate not finite or negative std")
        self.tally.check(all(math.isfinite(m) and v >= 0 for m, v in estimates),
                         f"unit {index}: online estimate not finite or negative variance")
        self.tally.check(
            all(math.isclose(cli_mean.get((c.cell_id, c.cycle), math.nan), m,
                             rel_tol=1e-9, abs_tol=1e-9)
                for c, (m, _) in zip(self.online, estimates)),
            f"unit {index}: online estimates differ from the CLI's")
        if self.first_predictions is None:
            self.first_predictions = raw
        self.tally.check(raw == self.first_predictions,
                         f"unit {index}: predictions differ from unit 0")

    def report(self, units, unit_s):
        lat_ms = np.array([t for i in units for t in self.latency_s.get(i, [])]) * 1e3
        cohort_s = [self.cohort_s[i] for i in units if i in self.cohort_s]
        n = len(lat_ms)
        return {
            "cohort_spectra_per_s": (len(self.online) / statistics.median(cohort_s),
                                     "spectra/s", len(cohort_s)),
            "estimate_p50_ms": (float(np.percentile(lat_ms, 50)), "ms", n),
            "estimate_p99_ms": (float(np.percentile(lat_ms, 99)), "ms", n),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, StudyWorkload, EstimateWorkload)}

#: sizes per profile; `smoke` runs every workload in seconds, for the benchmark's own test
PROFILES = {
    "default": {
        "train": {"cells": 4, "cycles": 120, "epochs": 1, "batch_size": 32, "codes": 500},
        # 20 short ascents in place of the default 5 x 100: about the same ~1000 LML
        # evaluations per fit, but a 100-step ascent stops early on some seeds and not
        # on others, which moved the d=120 fit's cost by 15 % (IQR) from seed to seed
        "study": {"train_cells": 4, "test_cells": 2, "cycles": 20, "epochs": 2,
                  "batch_size": 32, "gpr": {"restarts": 20, "max_iter": 25},
                  "perturb": {}},
        "estimate": {"train_cells": 4, "cohort_cells": 8, "cycles": 120,
                     "gan_stride": 4, "batch_size": 32},
    },
    "smoke": {
        "train": {"cells": 2, "cycles": 16, "epochs": 1, "batch_size": 8, "codes": 20},
        "study": {"train_cells": 2, "test_cells": 1, "cycles": 8, "epochs": 1,
                  "batch_size": 8, "gpr": {"restarts": 1, "max_iter": 10},
                  "perturb": {"n_samples": 5, "cycle": 3}},
        "estimate": {"train_cells": 2, "cohort_cells": 2, "cycles": 10,
                     "gan_stride": 1, "batch_size": 8},
    },
}
