"""Synthetic EIS generation from an equivalent circuit model.

Circuit: series inductance + ohmic resistance + two R||CPE arcs + Warburg
diffusion tail (nine parameters). An aging trajectory grows the resistive
elements as capacity fades, so generated spectra carry ground-truth
capacity information for end-to-end tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eisdata import (CapacityRecord, Dataset, EisCurve, log_grid, stage_tag,
                      T_POINTS)

#: nominal coin-cell capacity in mAh
BASE_CAPACITY_MAH = 45.0

#: measurement frequency range, Hz
F_MAX_HZ = 20_000.0
F_MIN_HZ = 0.02


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
            if getattr(self, name) < 0:
                raise EcmError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("phi1", "phi2"):
            if not 0 < getattr(self, name) <= 1:
                raise EcmError(f"{name} must lie in (0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class DegradationTrajectory:
    """Per-cycle circuit parameters and capacity for one cell."""

    params: tuple[EcmParams, ...]
    capacity_mah: np.ndarray
    capacity_clean_mah: np.ndarray
    knee_cycle: int

    def __post_init__(self):
        if not 0 <= self.knee_cycle < len(self.params):
            raise EcmError("knee_cycle outside trajectory")


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


def _fade_fraction(cycle: int, knee_cycle: int,
                   linear_rate: float, knee_rate: float) -> float:
    """Fractional capacity loss: linear fade plus quadratic growth past the knee."""
    loss = linear_rate * cycle
    if cycle > knee_cycle:
        loss += knee_rate * (cycle - knee_cycle) ** 2
    return loss


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
    span = max(n_cycles - 1 - knee, 1)
    knee_rate = 0.08 / span ** 2
    params, cap_clean, cap = [], [], []
    for cycle in range(n_cycles):
        fade = _fade_fraction(cycle, knee, linear_rate, knee_rate)
        params.append(replace(base,
                              r0_ohm=base.r0_ohm * (1 + 1.5 * fade),
                              r1_ohm=base.r1_ohm * (1 + 2.5 * fade),
                              r2_ohm=base.r2_ohm * (1 + 3.0 * fade),
                              w_sigma=base.w_sigma * (1 + 2.0 * fade)))
        clean = BASE_CAPACITY_MAH * (1 - fade)
        cap_clean.append(clean)
        cap.append(max(clean + rng.normal(0.0, 0.05), 1e-3))
    return DegradationTrajectory(tuple(params), np.array(cap), np.array(cap_clean), knee)


def stage_curves(cell_id: str, traj: DegradationTrajectory, stage: int,
                 rng: np.random.Generator,
                 dc_noise_amp: float = 0.02,
                 meas_noise_ohm: float = 0.0002) -> list[EisCurve]:
    """Evaluate a trajectory on the 60-point grid with stage-dependent noise.

    Stages with DC get multiplicative 1/f-weighted fluctuations below 1 Hz,
    mimicking the low-frequency scatter of in-operando measurements.
    """
    freq = log_grid(F_MAX_HZ, F_MIN_HZ, T_POINTS)
    has_dc = stage_tag(stage).has_dc
    low = freq < 1.0
    weight = np.zeros_like(freq)
    weight[low] = 1.0 / np.sqrt(freq[low])

    curves = []
    for cycle, params in enumerate(traj.params):
        z = ecm_impedance(params, freq)
        if has_dc and dc_noise_amp > 0:
            z = z * (1 + dc_noise_amp * weight * rng.standard_normal(len(freq)))
        re_z = z.real + rng.normal(0.0, meas_noise_ohm, len(freq))
        im_z = z.imag + rng.normal(0.0, meas_noise_ohm, len(freq))
        curves.append(EisCurve(cell_id, stage, cycle, freq, re_z, im_z))
    return curves


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
                  stages, seed: int,
                  dc_noise_amp: float = 0.02,
                  meas_noise_ohm: float = 0.0002) -> Dataset:
    """Assemble a synthetic dataset with a disjoint train/test cell partition.

    One aging trajectory per cell, shared across all requested stages; only
    the measurement noise differs between stages.
    """
    train_ids, test_ids = synth_cell_ids(n_train_cells, n_test_cells)
    cell_ids = train_ids + test_ids
    n_cells = len(cell_ids)
    seq = np.random.SeedSequence(seed)
    curves, records = [], []
    for cell_idx, (cell_id, child) in enumerate(zip(cell_ids, seq.spawn(n_cells))):
        rng = np.random.default_rng(child)
        base = default_params(rng)
        traj = build_trajectory(base, n_cycles, rng)
        for stage in stages:
            stage_rng = np.random.default_rng([seed, cell_idx, stage])
            curves.extend(stage_curves(cell_id, traj, stage, stage_rng,
                                       dc_noise_amp=dc_noise_amp,
                                       meas_noise_ohm=meas_noise_ohm))
        records.extend(CapacityRecord(cell_id, cycle, float(traj.capacity_mah[cycle]))
                       for cycle in range(n_cycles))
    return Dataset(curves=curves, capacities=records,
                   train_cells=train_ids, test_cells=test_ids)
