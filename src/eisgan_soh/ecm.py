"""Synthetic EIS generation from an equivalent circuit model.

Circuit: series inductance + ohmic resistance + two R||CPE arcs + Warburg
diffusion tail (nine parameters). An aging trajectory grows the resistive
elements as capacity fades, so generated spectra carry ground-truth
capacity information for end-to-end tests. Of the paper's two stage
conditions only direct current is modelled (`eisdata.DC_STAGES`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eisdata import Dataset, DC_STAGES, EisCurve, log_grid, T_POINTS

#: nominal coin-cell capacity in mAh
BASE_CAPACITY_MAH = 45.0

#: measurement frequency range, Hz
F_MAX_HZ = 20_000.0
F_MIN_HZ = 0.02

#: amplitude of the DC stages' multiplicative 1/f-weighted noise below 1 Hz
DC_NOISE_AMP = 0.02
#: standard deviation of the additive measurement noise on Re and Im, ohm
MEAS_NOISE_OHM = 0.0002


class EcmError(Exception):
    """Invalid circuit parameters or trajectory settings."""


@dataclass(frozen=True)
class EcmParams:
    """Nine-parameter equivalent circuit."""

    r0_ohm: float
    r1_ohm: float
    q1: float
    phi1: float
    r2_ohm: float
    q2: float
    phi2: float
    w_sigma: float
    l_ind: float

    def __post_init__(self):
        for name in ("r0_ohm", "r1_ohm", "q1", "r2_ohm", "q2", "w_sigma", "l_ind"):
            if np.any(getattr(self, name) < 0):
                raise EcmError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("phi1", "phi2"):
            if not 0 < getattr(self, name) <= 1:
                raise EcmError(f"{name} must lie in (0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class DegradationTrajectory:
    """One cell's circuit and capacity per cycle: the aged fields of `circuit`
    (`r0_ohm`, `r1_ohm`, `r2_ohm`, `w_sigma`) are (n_cycles, 1) columns."""

    circuit: EcmParams
    capacity_mah: np.ndarray
    capacity_clean_mah: np.ndarray
    knee_cycle: int


def ecm_impedance(params: EcmParams, freq_hz) -> np.ndarray:
    """Complex impedance of the circuit at the given frequencies."""
    f = np.asarray(freq_hz, dtype=np.float64)
    if np.any(f <= 0):
        raise EcmError("frequencies must be positive")
    omega = 2 * np.pi * f
    jw = 1j * omega
    z = 1j * omega * params.l_ind + params.r0_ohm
    z = z + params.r1_ohm / (1 + jw ** params.phi1 * params.q1 * params.r1_ohm)
    z = z + params.r2_ohm / (1 + jw ** params.phi2 * params.q2 * params.r2_ohm)
    z = z + params.w_sigma * (1 - 1j) / np.sqrt(omega)
    return z


def build_trajectory(base: EcmParams, n_cycles: int,
                     rng: np.random.Generator) -> DegradationTrajectory:
    """Grow R0/R1/R2 with the capacity-loss fraction; add capacity jitter.

    The clean capacity starts at BASE_CAPACITY_MAH and fades linearly by 12 %
    over the n_cycles, plus up to 8 % more that grows quadratically past the
    knee at 80 % of them; the measured capacity adds N(0, 0.05^2) mAh jitter.
    """
    if n_cycles < 2:
        raise EcmError(f"n_cycles must be >= 2, got {n_cycles}")
    knee = int(0.8 * n_cycles)
    linear_rate = 0.12 / n_cycles
    knee_rate = 0.08 / max(n_cycles - 1 - knee, 1) ** 2
    cycle = np.arange(n_cycles)
    fade = linear_rate * cycle + knee_rate * np.maximum(cycle - knee, 0) ** 2
    col = fade[:, None]
    circuit = replace(base,
                      r0_ohm=base.r0_ohm * (1 + 1.5 * col),
                      r1_ohm=base.r1_ohm * (1 + 2.5 * col),
                      r2_ohm=base.r2_ohm * (1 + 3.0 * col),
                      w_sigma=base.w_sigma * (1 + 2.0 * col))
    clean = BASE_CAPACITY_MAH * (1 - fade)
    cap = np.maximum(clean + rng.normal(0.0, 0.05, n_cycles), 1e-3)
    return DegradationTrajectory(circuit, cap, clean, knee)


def stage_curves(cell_id: str, traj: DegradationTrajectory, stage: int,
                 rng: np.random.Generator) -> list[EisCurve]:
    """Evaluate a trajectory on the 60-point grid with stage-dependent noise.

    Stages in DC_STAGES get multiplicative 1/f-weighted fluctuations below 1 Hz,
    mimicking the low-frequency scatter of in-operando measurements.
    """
    freq = log_grid(F_MAX_HZ, F_MIN_HZ, T_POINTS)
    z = ecm_impedance(traj.circuit, freq)
    dc = stage in DC_STAGES
    # per cycle: the DC factor (DC stages only), then the Re and Im noise
    draw = rng.standard_normal((len(z), 3 if dc else 2, len(freq)))
    if dc:
        weight = np.where(freq < 1.0, 1.0 / np.sqrt(freq), 0.0)
        z = z * (1 + DC_NOISE_AMP * weight * draw[:, 0])
    re_z = z.real + MEAS_NOISE_OHM * draw[:, -2]
    im_z = z.imag + MEAS_NOISE_OHM * draw[:, -1]
    return [EisCurve(cell_id, stage, cycle, freq, re_z[cycle], im_z[cycle])
            for cycle in range(len(z))]


def default_params(rng: np.random.Generator) -> EcmParams:
    """Randomized fresh-cell parameters in a plausible coin-cell range.

    Cell-to-cell spread is kept well below the degradation-driven growth of
    the resistive elements, so capacity, not cell identity, dominates the
    spectra.
    """
    u = rng.uniform
    return EcmParams(
        r0_ohm=u(0.145, 0.155),
        r1_ohm=u(0.30, 0.34),
        q1=u(0.07, 0.09),
        phi1=u(0.88, 0.92),
        r2_ohm=u(0.45, 0.50),
        q2=u(2.0, 2.4),
        phi2=u(0.80, 0.85),
        w_sigma=u(0.020, 0.023),
        l_ind=u(1.0e-7, 1.3e-7),
    )


def synth_cell_ids(n_train_cells: int, n_test_cells: int):
    """The (train, test) cell ids `synth_dataset` names, without synthesising."""
    if n_train_cells < 1 or n_test_cells < 1:
        raise EcmError("need at least one train and one test cell")
    ids = tuple(f"SYN{i + 1:02d}" for i in range(n_train_cells + n_test_cells))
    return ids[:n_train_cells], ids[n_train_cells:]


def synth_dataset(n_train_cells: int, n_test_cells: int, n_cycles: int,
                  stages, seed: int) -> Dataset:
    """Assemble a synthetic dataset with a disjoint train/test cell partition.

    One aging trajectory per cell, shared across all requested stages; only
    the noise, with the DC factor on DC stages, differs between stages.
    """
    train_ids, test_ids = synth_cell_ids(n_train_cells, n_test_cells)
    cell_ids = train_ids + test_ids
    children = np.random.SeedSequence(seed).spawn(len(cell_ids))
    curves, capacities = [], {}
    for cell_idx, (cell_id, child) in enumerate(zip(cell_ids, children)):
        rng = np.random.default_rng(child)
        traj = build_trajectory(default_params(rng), n_cycles, rng)
        for stage in stages:
            curves.extend(stage_curves(cell_id, traj, stage,
                                       np.random.default_rng([seed, cell_idx, stage])))
        capacities.update(((cell_id, cycle), mah)
                          for cycle, mah in enumerate(traj.capacity_mah.tolist()))
    return Dataset(curves=curves, capacities=capacities,
                   train_cells=train_ids, test_cells=test_ids)
