from dataclasses import replace

import numpy as np
import pytest

from eisgan_soh import ecm
from eisgan_soh.ecm import EcmError, EcmParams


def simple_params(**overrides):
    base = dict(r0_ohm=0.15, r1_ohm=0.3, q1=0.08, phi1=0.9,
                r2_ohm=0.5, q2=2.0, phi2=0.8, w_sigma=0.02, l_ind=1e-7)
    base.update(overrides)
    return EcmParams(**base)


def test_phi_range_enforced():
    with pytest.raises(EcmError):
        simple_params(phi1=1.5)


def test_high_frequency_limit_is_r0():
    p = simple_params(l_ind=0.0, w_sigma=0.0)
    z = ecm.ecm_impedance(p, 1e12)
    assert abs(z - p.r0_ohm) < 1e-3


def test_low_frequency_limit_is_total_resistance():
    p = simple_params(l_ind=0.0, w_sigma=0.0, phi1=1.0, phi2=1.0)
    z = ecm.ecm_impedance(p, 1e-10)
    assert abs(z - (p.r0_ohm + p.r1_ohm + p.r2_ohm)) < 1e-6


def test_single_rc_arc_hand_value():
    # R0=0.5, R1=1, Q1=0.1, phi1=1 at omega=10: Z = 0.5 + 1/(1+j) = 1 - 0.5j
    p = EcmParams(r0_ohm=0.5, r1_ohm=1.0, q1=0.1, phi1=1.0,
                  r2_ohm=1e-12, q2=1e-12, phi2=1.0, w_sigma=0.0, l_ind=0.0)
    f = 10.0 / (2 * np.pi)
    z = ecm.ecm_impedance(p, f)
    assert abs(z - (1.0 - 0.5j)) < 1e-9


def test_impedance_positive_real_part():
    rng = np.random.default_rng(0)
    freq = ecm.log_grid(ecm.F_MAX_HZ, ecm.F_MIN_HZ, 60)
    for _ in range(50):
        z = ecm.ecm_impedance(ecm.default_params(rng), freq)
        assert np.all(z.real > 0)


def test_impedance_rejects_nonpositive_frequency():
    with pytest.raises(EcmError):
        ecm.ecm_impedance(simple_params(), 0.0)


# ---------------------------------------------------------------------------
# trajectories and cells
# ---------------------------------------------------------------------------

def test_trajectory_capacity_monotone_without_jitter():
    rng = np.random.default_rng(3)
    traj = ecm.build_trajectory(simple_params(), 200, rng)
    assert np.all(np.diff(traj.capacity_clean_mah) <= 0)


def test_trajectory_knee_accelerates_fade():
    rng = np.random.default_rng(3)
    traj = ecm.build_trajectory(simple_params(), 100, rng)
    pre = np.diff(traj.capacity_clean_mah[:traj.knee_cycle])
    post = np.diff(traj.capacity_clean_mah[traj.knee_cycle + 1:])
    assert post.mean() < pre.mean()


def test_trajectory_starts_at_base_capacity():
    rng = np.random.default_rng(5)
    traj = ecm.build_trajectory(simple_params(), 10, rng)
    assert traj.capacity_clean_mah[0] == pytest.approx(ecm.BASE_CAPACITY_MAH)


def test_dc_noise_confined_below_1hz(monkeypatch):
    monkeypatch.setattr(ecm, "MEAS_NOISE_OHM", 0.0)
    rng = np.random.default_rng(9)
    base = ecm.default_params(rng)
    traj = ecm.build_trajectory(base, 5, rng)
    quiet = ecm.stage_curves("X", traj, 5, np.random.default_rng(1))
    noisy = ecm.stage_curves("X", traj, 6, np.random.default_rng(1))
    for a, b in zip(quiet, noisy):
        high = a.freq_hz >= 1.0
        assert np.allclose(a.re_z_ohm[high], b.re_z_ohm[high], atol=1e-12)
        assert not np.allclose(a.re_z_ohm[~high], b.re_z_ohm[~high], atol=1e-6)


def test_nyquist_trace_continuity(monkeypatch):
    monkeypatch.setattr(ecm, "MEAS_NOISE_OHM", 0.0)
    rng = np.random.default_rng(11)
    base = ecm.default_params(rng)
    traj = ecm.build_trajectory(base, 3, rng)
    (curve, *_) = ecm.stage_curves("X", traj, 5, rng)
    pts = curve.re_z_ohm + 1j * curve.im_z_ohm
    spacing = np.abs(np.diff(pts))
    assert spacing.max() <= 10 * np.median(spacing)


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def test_synth_dataset_partition_shape():
    ds = ecm.synth_dataset(4, 4, 6, [5], seed=0)
    assert len(ds.train_cells) == 4
    assert len(ds.test_cells) == 4
    assert not set(ds.train_cells) & set(ds.test_cells)


def test_synth_cell_ids_name_the_synth_dataset_partition():
    ds = ecm.synth_dataset(3, 2, 4, [5], seed=0)
    assert ecm.synth_cell_ids(3, 2) == (ds.train_cells, ds.test_cells)
    assert ecm.synth_cell_ids(1, 1) == (("SYN01",), ("SYN02",))
    for counts in ((0, 1), (1, 0)):
        with pytest.raises(ecm.EcmError, match="at least one train and one test"):
            ecm.synth_cell_ids(*counts)


def test_synth_dataset_covers_stages_and_capacities():
    stages = [3, 5]
    ds = ecm.synth_dataset(2, 1, 5, stages, seed=1)
    for cell in ds.train_cells + ds.test_cells:
        for stage in stages:
            curves = ds.curves_for(stage, [cell])
            assert [c.cycle for c in curves] == list(range(5))
        for cycle in range(5):
            assert ds.capacity(cell, cycle) > 0
    assert set(ds.capacities) == {(cell, cycle) for cell in ds.train_cells + ds.test_cells
                                  for cycle in range(5)}


def test_synth_dataset_deterministic():
    a = ecm.synth_dataset(2, 2, 4, [5, 6], seed=3)
    b = ecm.synth_dataset(2, 2, 4, [5, 6], seed=3)
    for ca, cb in zip(a.curves, b.curves):
        assert ca.key() == cb.key()
        assert np.array_equal(ca.re_z_ohm, cb.re_z_ohm)
        assert np.array_equal(ca.im_z_ohm, cb.im_z_ohm)
    assert a.capacities == b.capacities


# ---------------------------------------------------------------------------
# array synthesis against the per-cycle reference
# ---------------------------------------------------------------------------

def _reference_trajectory(base, n_cycles, rng):
    """Per-cycle circuits and capacities, one `EcmParams` per cycle."""
    knee = int(0.8 * n_cycles)
    linear_rate = 0.12 / n_cycles
    knee_rate = 0.08 / max(n_cycles - 1 - knee, 1) ** 2
    params, cap, cap_clean = [], [], []
    for cycle in range(n_cycles):
        fade = linear_rate * cycle
        if cycle > knee:
            fade += knee_rate * (cycle - knee) ** 2
        params.append(replace(base,
                              r0_ohm=base.r0_ohm * (1 + 1.5 * fade),
                              r1_ohm=base.r1_ohm * (1 + 2.5 * fade),
                              r2_ohm=base.r2_ohm * (1 + 3.0 * fade),
                              w_sigma=base.w_sigma * (1 + 2.0 * fade)))
        clean = ecm.BASE_CAPACITY_MAH * (1 - fade)
        cap_clean.append(clean)
        cap.append(max(clean + rng.normal(0.0, 0.05), 1e-3))
    return params, np.array(cap), np.array(cap_clean)


def _reference_stage_curves(params, stage, rng, dc_noise_amp, meas_noise_ohm):
    """Per-cycle (re, im) arrays, drawn cycle by cycle."""
    freq = ecm.log_grid(ecm.F_MAX_HZ, ecm.F_MIN_HZ, 60)
    low = freq < 1.0
    weight = np.zeros_like(freq)
    weight[low] = 1.0 / np.sqrt(freq[low])
    out = []
    for p in params:
        z = ecm.ecm_impedance(p, freq)
        if stage in (2, 3, 6, 7):
            z = z * (1 + dc_noise_amp * weight * rng.standard_normal(len(freq)))
        out.append((z.real + rng.normal(0.0, meas_noise_ohm, len(freq)),
                    z.imag + rng.normal(0.0, meas_noise_ohm, len(freq))))
    return out


@pytest.mark.parametrize("n_cycles", [2, 8, 37])
@pytest.mark.parametrize("stage", [6, 5])
@pytest.mark.parametrize("noise", [{}, {"DC_NOISE_AMP": 0.0}, {"MEAS_NOISE_OHM": 0.0}])
def test_array_synthesis_matches_the_per_cycle_reference(monkeypatch, n_cycles, stage, noise):
    for name, value in noise.items():
        monkeypatch.setattr(ecm, name, value)
    amp, meas = ecm.DC_NOISE_AMP, ecm.MEAS_NOISE_OHM
    base = ecm.default_params(np.random.default_rng(4))
    traj = ecm.build_trajectory(base, n_cycles, np.random.default_rng(5))
    params, cap, cap_clean = _reference_trajectory(base, n_cycles, np.random.default_rng(5))
    assert np.array_equal(traj.capacity_mah, cap)
    assert np.array_equal(traj.capacity_clean_mah, cap_clean)
    assert traj.knee_cycle == int(0.8 * n_cycles)

    curves = ecm.stage_curves("X", traj, stage, np.random.default_rng(6))
    reference = _reference_stage_curves(params, stage, np.random.default_rng(6), amp, meas)
    assert [c.cycle for c in curves] == list(range(n_cycles))
    for curve, (re_z, im_z) in zip(curves, reference, strict=True):
        assert np.array_equal(curve.re_z_ohm, re_z)
        assert np.array_equal(curve.im_z_ohm, im_z)


def test_trajectory_circuit_holds_one_column_per_cycle():
    traj = ecm.build_trajectory(simple_params(), 7, np.random.default_rng(0))
    for name in ("r0_ohm", "r1_ohm", "r2_ohm", "w_sigma"):
        assert getattr(traj.circuit, name).shape == (7, 1)
    assert ecm.ecm_impedance(traj.circuit, [1e3, 1.0]).shape == (7, 2)


def test_negative_column_refused():
    with pytest.raises(EcmError, match="r0_ohm must be nonnegative"):
        simple_params(r0_ohm=np.array([[0.1], [-0.1]]))
