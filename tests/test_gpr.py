import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from eisgan_soh import gpr
from eisgan_soh.gpr import GprError, GprModel, Hyperparams


def brute_force_predict(c_train, y, hp, c_star):
    """Dense-inverse reference for the posterior mean/variance."""
    k = gpr.kernel_matrix(c_train, c_train, hp) + hp.sigma_n ** 2 * np.eye(len(y))
    k_inv = np.linalg.inv(k)
    ks = gpr.kernel_matrix(np.atleast_2d(c_star), c_train, hp)
    mean = ks @ k_inv @ y
    var = hp.sigma_f ** 2 - np.sum(ks @ k_inv * ks, axis=1)
    return mean, var


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def pair_kernel(ci, cj, hp):
    """The kernel of one pair, as the (1, 1) kernel matrix of two one-row inputs."""
    (k,), = gpr.kernel_matrix(np.array([ci], float), np.array([cj], float), hp)
    return k


def test_kernel_zero_distance():
    hp = Hyperparams(0.1, 2.0, 1.5)
    assert pair_kernel([1.0, 2.0], [1.0, 2.0], hp) == pytest.approx(4.0)


def test_kernel_characteristic_distance():
    hp = Hyperparams(0.1, 1.0, 0.7)
    d = np.sqrt(2) * hp.length_scale
    assert pair_kernel([0.0], [d], hp) == pytest.approx(np.exp(-1.0))


def test_kernel_vanishes_at_infinity():
    hp = Hyperparams(0.1, 1.0, 1.0)
    assert 0.0 <= pair_kernel([0.0], [50.0], hp) < 1e-100


def test_kernel_matrix_symmetry():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((30, 9))
    k = gpr.kernel_matrix(c, c, Hyperparams(0.1, 1.3, 0.8))
    assert np.abs(k - k.T).max() < 1e-14


def broadcast_sqdist(a, b):
    """`_sqdist` as the full (len(a), len(b), d) broadcast it replaced."""
    d = a[:, None, :] - b[None, :, :]
    return np.sum(d * d, axis=2)


# (960, 480) at d = 120 is left out: its broadcast reference alone takes 885 MB
SQDIST_CASES = [(n, m, d) for d in (1, 9, 120)
                for n, m in ((1, 480), (7, 3), (80, 80), (960, 480), (480, 480))
                if (n, m, d) != (960, 480, 120)]


def _sqdist_block_cases():
    rows = gpr.SQDIST_BLOCK // (80 * 9)
    over = gpr.SQDIST_BLOCK // 120 + 1
    return [(2 * rows + 3, 80, 9),   # the last block is a partial one
            (3, over, 120),          # one row of `a` against `b` exceeds the budget
            (2, 1, gpr.SQDIST_BLOCK + 1)]   # so does one row of `b` alone


@pytest.mark.parametrize("n, m, d", SQDIST_CASES + _sqdist_block_cases())
def test_sqdist_bit_identical_to_broadcast_form(n, m, d):
    rng = np.random.default_rng(n * 1000 + m + d)
    a, b = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    got = gpr._sqdist(a, b)
    assert got.shape == (n, m)
    assert np.array_equal(got, broadcast_sqdist(a, b))
    if n == m:
        same = gpr._sqdist(a, a)
        assert np.array_equal(same, broadcast_sqdist(a, a))
        assert not same.diagonal().any()


def test_sqdist_temporaries_stay_small():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((480, 120)), rng.standard_normal((480, 120))
    tracemalloc.start()
    try:
        gpr._sqdist(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (480, 480) result is 1.8 MB; the broadcast form peaked near 440 MB
    assert peak < 8e6


def test_hyperparams_must_be_positive():
    with pytest.raises(GprError):
        Hyperparams(-0.1, 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", range(3))
def test_hyperparams_must_be_finite(bad, where):
    values = [0.1, 1.0, 1.0]
    values[where] = bad
    with pytest.raises(GprError, match="must be finite and positive"):
        Hyperparams(*values)


# ---------------------------------------------------------------------------
# log marginal likelihood
# ---------------------------------------------------------------------------

def test_lml_n1_closed_form():
    hp = Hyperparams(0.3, 1.2, 1.0)
    y1 = 0.7
    lml, _ = gpr.log_marginal_likelihood([[0.0]], [y1], hp)
    s2 = hp.sigma_f ** 2 + hp.sigma_n ** 2
    expected = -0.5 * np.log(s2) - y1 ** 2 / (2 * s2) - 0.5 * np.log(2 * np.pi)
    assert lml == pytest.approx(expected, rel=1e-12)


def test_lml_zero_targets_quadratic_vanishes():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((8, 2))
    hp = Hyperparams(0.2, 1.0, 0.9)
    lml, _ = gpr.log_marginal_likelihood(c, np.zeros(8), hp)
    k = gpr.kernel_matrix(c, c, hp) + hp.sigma_n ** 2 * np.eye(8)
    expected = -0.5 * np.linalg.slogdet(k)[1] - 4 * np.log(2 * np.pi)
    assert lml == pytest.approx(expected, rel=1e-10)


def test_lml_invariant_to_row_order():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    hp = Hyperparams(0.2, 1.0, 1.1)
    lml1, _ = gpr.log_marginal_likelihood(c, y, hp)
    perm = rng.permutation(12)
    lml2, _ = gpr.log_marginal_likelihood(c[perm], y[perm], hp)
    assert lml1 == pytest.approx(lml2, rel=1e-12)


def test_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)

    def check(n):
        d = int(rng.choice([1, 3, 9]))
        c = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        theta = rng.uniform(np.log(0.1), np.log(3.0), 3)
        _, grad = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(theta))
        h = 1e-6
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            lp, _ = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(tp))
            lm, _ = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(tm))
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[j]) < 1e-5 * max(abs(fd), abs(grad[j])) + 1e-8

    for _ in range(25):
        check(int(rng.integers(2, 21)))
    check(80)  # the training-set size of the benchmark's study


def _random_problem(rng, d, duplicate=False, n=None):
    n = int(rng.integers(2, 41)) if n is None else n
    c = rng.standard_normal((n, d))
    if duplicate:
        c[n // 2:] = c[:n - n // 2]
    hp = Hyperparams.from_log(rng.uniform(np.log(0.05), np.log(5.0), 3))
    return c, rng.standard_normal(n), hp


@pytest.mark.parametrize("d", [1, 9, 120])
def test_value_only_lml_equals_public_lml_exactly(d):
    rng = np.random.default_rng(12 + d)
    for _ in range(30):
        c, y, hp = _random_problem(rng, d)
        d2 = gpr._sqdist(c, c)
        lml, factor = gpr._lml(d2, y, hp)
        ref_lml, ref_grad = gpr.log_marginal_likelihood(c, y, hp)
        assert lml == ref_lml
        assert np.array_equal(gpr._lml_grad(d2, hp, factor), ref_grad)


def _counting_dpotrf(monkeypatch):
    """Patch `gpr.dpotrf` to record the LAPACK info of each factorisation."""
    infos = []
    dpotrf = gpr.dpotrf

    def counting(*args, **kwargs):
        chol, info = dpotrf(*args, **kwargs)
        infos.append(info)
        return chol, info
    monkeypatch.setattr(gpr, "dpotrf", counting)
    return infos


@pytest.mark.parametrize("d", [1, 9, 120])
def test_value_only_lml_exact_on_jitter_ladder(monkeypatch, d):
    rng = np.random.default_rng(40 + d)
    c, y, _ = _random_problem(rng, d, duplicate=True)
    hp = Hyperparams(1e-9, 1.0, 2.0)
    d2 = gpr._sqdist(c, c)
    ref_lml, _, ref_chol, jitter = cho_factor_lml(d2, y, hp)
    infos = _counting_dpotrf(monkeypatch)
    lml, (_, chol, _) = gpr._lml(d2, y, hp)
    # duplicated rows make K + sigma_n^2 I singular: the jitter-free rung fails
    assert jitter > 0 and infos[0] > 0 and infos[-1] == 0
    assert len(infos) == 1 + gpr.JITTERS.index(jitter)
    assert lml == ref_lml
    assert np.array_equal(np.tril(chol), np.tril(ref_chol))


def cho_factor_lml(d2, y, hp):
    """The value path through `cho_factor`/`cho_solve`: (L, alpha, factor, jitter)."""
    n = len(y)
    k_f = hp.sigma_f ** 2 * np.exp(-d2 / (2 * hp.length_scale ** 2))
    gram = k_f + hp.sigma_n ** 2 * np.eye(n)
    for jitter in gpr.JITTERS:
        try:
            jittered = gram + jitter * np.eye(n) if jitter else gram
            chol, lower = cho_factor(jittered, lower=True, check_finite=False)
            break
        except LinAlgError:
            continue
    else:
        raise AssertionError("no jitter factorises the gram")
    alpha = cho_solve((chol, lower), y, check_finite=False)
    lml = (-float(np.sum(np.log(np.diag(chol))))
           - 0.5 * float(y @ alpha)
           - 0.5 * n * gpr.LOG2PI)
    return lml, alpha, chol, jitter


def dense_lml_grad(d2, hp, factor):
    """GPML eq. 5.9 with a dense K^-1 from `cho_solve(eye)`, and the size of its terms.

    The size is the same sum taken over absolute values: two summation orders
    of the gradient agree to rounding of that size, not of the gradient's own.
    """
    k_f, chol, alpha = factor
    n = len(alpha)
    k_inv = cho_solve((chol, True), np.eye(n), check_finite=False)
    dks = (2 * hp.sigma_n ** 2 * np.eye(n), 2 * k_f, k_f * d2 / hp.length_scale ** 2)
    inner = np.outer(alpha, alpha) - k_inv
    size = np.outer(np.abs(alpha), np.abs(alpha)) + np.abs(k_inv)
    return (np.array([0.5 * np.sum(inner * dk) for dk in dks]),
            np.array([0.5 * np.sum(size * np.abs(dk)) for dk in dks]))


def _plain_and_jittered(rng, d, n):
    """A random problem on n rows, then one with duplicated rows and a noise
    level so small that the gram needs the jitter ladder; each with that flag."""
    yield *_random_problem(rng, d, n=n), False
    c, y, _ = _random_problem(rng, d, duplicate=True, n=n)
    yield c, y, Hyperparams(1e-9, 1.0, 2.0), True


@pytest.mark.parametrize("n", [2, 40, 480])
@pytest.mark.parametrize("d", [1, 9, 120])
def test_lml_value_path_equals_cho_factor_form_exactly(d, n):
    # dpotrf/dpotrs are the routines cho_factor/cho_solve call: the same bits
    rng = np.random.default_rng(80 + d + n)
    for c, y, hp, jittered in _plain_and_jittered(rng, d, n):
        d2 = gpr._sqdist(c, c)
        lml, (_, chol, alpha) = gpr._lml(d2, y, hp)
        ref_lml, ref_alpha, ref_chol, jitter = cho_factor_lml(d2, y, hp)
        assert (jitter > 0) == jittered
        assert lml == ref_lml
        assert np.array_equal(alpha, ref_alpha)
        assert np.array_equal(np.tril(chol), np.tril(ref_chol))


@pytest.mark.parametrize("n", [2, 40, 80, 480])
@pytest.mark.parametrize("d", [1, 9, 120])
def test_lml_gradient_matches_dense_inverse_form(d, n):
    rng = np.random.default_rng(90 + d + n)
    for c, y, hp, jittered in _plain_and_jittered(rng, d, n):
        d2 = gpr._sqdist(c, c)
        _, factor = gpr._lml(d2, y, hp)
        grad = gpr._lml_grad(d2, hp, factor)
        ref, size = dense_lml_grad(d2, hp, factor)
        assert np.all(np.abs(grad - ref) <= 1e-10 * size)
        if not jittered:
            assert np.abs(grad - ref).max() <= 1e-10 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.choice([1, 9, 120]))
        c = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        hp = Hyperparams(float(rng.uniform(0.05, 1.0)),
                         float(rng.uniform(0.3, 3.0)),
                         float(rng.uniform(0.5, 5.0)))
        model = GprModel.build(c, y, hp, 0.0, 1.0)
        c_star = rng.standard_normal((5, d))
        mean, var = model.predict(c_star)
        ref_mean, ref_var = brute_force_predict(c, y, hp, c_star)
        assert np.abs(mean - ref_mean).max() < 1e-8
        assert np.abs(var - ref_var).max() < 1e-8


def test_predict_n1_closed_form():
    hp = Hyperparams(0.4, 1.1, 1.0)
    y1 = 2.0
    model = GprModel.build([[0.5]], [y1], hp, 0.0, 1.0)
    mean, _ = model.predict([0.5])
    expected = hp.sigma_f ** 2 / (hp.sigma_f ** 2 + hp.sigma_n ** 2) * y1
    assert abs(mean - expected) < 1e-10


def test_predict_noise_free_interpolation():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    hp = Hyperparams(1e-8, 1.0, 1.5)
    model = GprModel.build(c, y, hp, 0.0, 1.0)
    mean, var = model.predict(c)
    assert np.abs(mean - y).max() < 1e-10
    assert np.all(var < 1e-10)


def test_predict_prior_reversion_far_away():
    hp = Hyperparams(0.1, 1.3, 0.5)
    model = GprModel.build([[0.0], [1.0]], [1.0, -1.0], hp, 0.0, 1.0)
    mean, var = model.predict([100.0])
    assert abs(mean) < 1e-12
    assert var == pytest.approx(hp.sigma_f ** 2, abs=1e-12)


def test_predict_variance_bounded_by_signal_variance():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    hp = Hyperparams(0.2, 1.5, 1.0)
    model = GprModel.build(c, y, hp, 0.0, 1.0)
    _, var = model.predict(rng.standard_normal((50, 3)))
    assert np.all(var >= 0)
    assert np.all(var <= hp.sigma_f ** 2 + 1e-10)


def test_predict_dim_mismatch():
    model = GprModel.build([[0.0, 1.0]], [1.0], Hyperparams(0.1, 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(GprError):
        model.predict([0.0])


@pytest.mark.parametrize("d", [1, 9, 120])
def test_predict_matches_cached_factor_forms(d):
    # mean: k* alpha, unchanged; variance: within rounding of the two-solve form
    rng = np.random.default_rng(30 + d)
    for n in (40, 480):
        c = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        model = GprModel.build(c, y, Hyperparams(0.1, 1.3, float(np.sqrt(d))), 3.0, 2.0)
        for c_star in (rng.standard_normal(d), rng.standard_normal((7, d))):
            ks = gpr.kernel_matrix(np.atleast_2d(c_star), c, model.hp)
            ref_mean = 3.0 + 2.0 * (ks @ model._alpha)
            v = cho_solve((model._chol, True), ks.T)
            ref_var = 4.0 * (model.hp.sigma_f ** 2 - np.sum(ks * v.T, axis=1))
            mean, var = model.predict(c_star)
            assert np.array_equal(np.atleast_1d(mean), ref_mean)
            assert np.abs(np.atleast_1d(var) - ref_var).max() < 1e-12


@pytest.mark.parametrize("d", [9, 120])
def test_predict_equals_solve_triangular_form_exactly(d):
    # the LAPACK call must give the very bits the scipy wrapper gave
    rng = np.random.default_rng(70 + d)
    c = rng.standard_normal((480, d))
    model = GprModel.build(c, rng.standard_normal(480),
                           Hyperparams(0.1, 1.3, float(np.sqrt(d))), 3.0, 2.0)
    for c_star in (rng.standard_normal(d), rng.standard_normal((64, d))):
        ks = gpr.kernel_matrix(np.atleast_2d(c_star), c, model.hp)
        v = solve_triangular(model._chol, ks.T, lower=True, check_finite=False)
        var_n = model.hp.sigma_f ** 2 - np.sum(v * v, axis=0)
        mean, var = model.predict(c_star)
        assert np.array_equal(np.atleast_1d(mean), 3.0 + 2.0 * (ks @ model._alpha))
        assert np.array_equal(np.atleast_1d(var), 4.0 * var_n)
        assert isinstance(mean, float) == (c_star.ndim == 1)


def test_predict_leaves_the_callers_rows_alone():
    c = np.random.default_rng(3).standard_normal((20, 4))
    model = GprModel.build(c, np.arange(20.0), Hyperparams(0.1, 1.0, 1.0), 0.0, 1.0)
    rows = c[:5].copy()
    model.predict(rows)
    assert np.array_equal(rows, c[:5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    model = GprModel.build(np.eye(3), [1.0, 2.0, 3.0], Hyperparams(0.1, 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(GprError, match="test row 0"):
        model.predict([0.0, bad, 0.0])
    rows = np.zeros((4, 3))
    rows[2, 0] = bad
    with pytest.raises(GprError, match="test row 2"):
        model.predict(rows)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_gp_hyperparams():
    rng = np.random.default_rng(8)
    truth = Hyperparams(0.1, 1.0, 1.2)
    c = rng.uniform(-3, 3, size=(200, 1))
    k = gpr.kernel_matrix(c, c, truth) + truth.sigma_n ** 2 * np.eye(200)
    y = np.linalg.cholesky(k + 1e-12 * np.eye(200)) @ rng.standard_normal(200)
    model = gpr.fit(c, y, restarts=4, max_iter=200, seed=0)
    lml_true, _ = gpr.log_marginal_likelihood(c, (y - model.y_mean) / model.y_scale,
                                              truth)
    assert model.lml >= lml_true - 0.5


def test_fit_more_restarts_never_worse():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((30, 2))
    y = c[:, 0] ** 2 + 0.05 * rng.standard_normal(30)
    single = gpr.fit(c, y, restarts=1, max_iter=200, seed=1)
    multi = gpr.fit(c, y, restarts=5, max_iter=200, seed=1)
    assert multi.lml >= single.lml - 1e-12


def test_fit_needs_two_points():
    with pytest.raises(GprError):
        gpr.fit([[0.0]], [1.0], restarts=10, max_iter=200)


@pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(restarts=-4),
                                    dict(max_iter=0), dict(max_iter=-1)])
def test_fit_rejects_fewer_than_one_restart_or_iteration(kwargs):
    rng = np.random.default_rng(12)
    c = rng.standard_normal((10, 2))
    with pytest.raises(GprError, match="must be >= 1"):
        gpr.fit(c, c[:, 0], **{"restarts": 10, "max_iter": 200, **kwargs})


def test_fit_denormalizes_predictions():
    rng = np.random.default_rng(10)
    c = rng.uniform(-2, 2, size=(60, 1))
    y = 40.0 + 3.0 * np.sin(c[:, 0])
    model = gpr.fit(c, y, restarts=3, max_iter=200, seed=0)
    mean, _ = model.predict(c)
    assert np.abs(mean - y).mean() < 0.5


def _reference_ascent(c, y, theta0, max_iter, tol=1e-9):
    """Backtracking ascent on the public LML, value and gradient at every trial."""
    theta = np.asarray(theta0, dtype=float)
    lml, grad = gpr.log_marginal_likelihood(c, y, Hyperparams.from_log(theta))
    step = 0.1
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-8:
            break
        improved = False
        trial_step = step
        for _ in range(30):
            cand = np.clip(theta + trial_step * grad / max(gnorm, 1.0), -12.0, 12.0)
            try:
                cand_lml, cand_grad = gpr.log_marginal_likelihood(
                    c, y, Hyperparams.from_log(cand))
            except GprError:
                trial_step *= 0.5
                continue
            if cand_lml > lml:
                theta, lml, grad = cand, cand_lml, cand_grad
                step = min(trial_step * 2.0, 1.0)
                improved = True
                break
            trial_step *= 0.5
        if not improved or trial_step * gnorm < tol:
            break
    return theta, lml


@pytest.mark.parametrize("d", [1, 9, 120])
def test_ascent_follows_reference_path_exactly(d):
    rng = np.random.default_rng(60 + d)
    c = rng.standard_normal((25, d))
    y = np.sin(c[:, 0]) + 0.1 * rng.standard_normal(25)
    d2 = gpr._sqdist(c, c)
    for theta0 in (np.log([0.1, 1.0, 1.0]), rng.uniform(np.log(0.01), np.log(10.0), 3)):
        theta, lml, (_, chol, alpha) = gpr._ascend(d2, y, theta0, 40)
        ref_theta, ref_lml = _reference_ascent(c, y, theta0, max_iter=40)
        assert np.array_equal(theta, ref_theta)
        assert lml == ref_lml
        # the factor is that of the point the ascent stops at, not of its last trial
        _, (_, ref_chol, ref_alpha) = gpr._lml(d2, y, Hyperparams.from_log(theta))
        assert np.array_equal(chol, ref_chol) and np.array_equal(alpha, ref_alpha)


@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_fit_computes_training_distances_once(monkeypatch, restarts):
    rng = np.random.default_rng(13)
    c = rng.standard_normal((30, 9))
    y = c[:, 0] + 0.1 * rng.standard_normal(30)
    calls = []
    sqdist = gpr._sqdist

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return sqdist(a, b)
    monkeypatch.setattr(gpr, "_sqdist", counting)
    gpr.fit(c, y, restarts=restarts, max_iter=30, seed=0)
    assert calls == [(c.shape, c.shape)]


def test_fit_lml_equals_public_lml_at_fitted_hyperparams():
    rng = np.random.default_rng(14)
    c = rng.standard_normal((35, 3))
    y = 2.0 + np.cos(c[:, 1]) + 0.05 * rng.standard_normal(35)
    model = gpr.fit(c, y, restarts=3, max_iter=200, seed=2)
    z = (y - model.y_mean) / model.y_scale
    assert model.lml == gpr.log_marginal_likelihood(c, z, model.hp)[0]


@pytest.mark.parametrize("d", [1, 9, 120])
def test_fit_keeps_the_factor_build_gives_at_its_hyperparams(monkeypatch, d):
    # the model is built from the factor the best ascent stopped at, with no
    # second factorisation, and equals a model built afresh at its hyperparameters
    rng = np.random.default_rng(18 + d)
    c = rng.standard_normal((40, d))
    y = 3.0 + np.sin(c[:, 0]) + 0.05 * rng.standard_normal(40)
    calls = []
    lml, ascend = gpr._lml, gpr._ascend

    def ascended(*args):
        out = ascend(*args)
        calls.append("ascended")
        return out
    monkeypatch.setattr(gpr, "_lml", lambda *a: calls.append("lml") or lml(*a))
    monkeypatch.setattr(gpr, "_ascend", ascended)
    model = gpr.fit(c, y, restarts=4, max_iter=30, seed=d)
    assert calls.count("ascended") == 4 and calls[-1] == "ascended"
    ref = GprModel.build(c, (y - model.y_mean) / model.y_scale, model.hp,
                         model.y_mean, model.y_scale)
    assert model.lml == ref.lml
    assert np.array_equal(model._chol, ref._chol)
    assert np.array_equal(model._alpha, ref._alpha)
    assert np.array_equal(model.inputs, ref.inputs)
    assert np.array_equal(model.targets, ref.targets)


def test_build_rejects_misaligned_training_set():
    with pytest.raises(GprError):
        GprModel.build(np.zeros((3, 2)), np.zeros(4), Hyperparams(0.1, 1.0, 1.0), 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["inputs", "targets"])
def test_non_finite_training_set_raises_gpr_error(bad, where):
    rng = np.random.default_rng(15)
    c, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
    hp = Hyperparams(0.1, 1.0, 1.0)
    blob = json.loads(GprModel.build(c, y, hp, 0.0, 1.0).to_json())
    if where == "inputs":
        c[4, 1] = blob["inputs"][4][1] = bad
    else:
        y[7] = blob["targets"][7] = bad
    match = f"non-finite values in training {where}"
    with pytest.raises(GprError, match=match):
        GprModel.build(c, y, hp, 0.0, 1.0)
    with pytest.raises(GprError, match=match):
        GprModel.from_json(json.dumps(blob))
    with pytest.raises(GprError, match=match):
        gpr.fit(c, y, restarts=1, max_iter=5)
    with pytest.raises(GprError, match=match):
        gpr.log_marginal_likelihood(c, y, hp)


def test_fit_rejects_targets_that_overflow_when_standardized():
    c = np.random.default_rng(17).standard_normal((10, 2))
    with np.errstate(all="ignore"), pytest.raises(GprError, match="overflow"):
        gpr.fit(c, np.linspace(1.0, 1.5, 10) * 1e308, restarts=1, max_iter=5)


def test_jitter_free_cholesky_forms_no_identity(monkeypatch):
    rng = np.random.default_rng(16)
    c = rng.standard_normal((20, 3))
    hp = Hyperparams(0.1, 1.0, 1.0)
    d2 = gpr._sqdist(c, c)
    _, _, ref_chol, jitter = cho_factor_lml(d2, c[:, 0], hp)
    eyes = []
    real_eye = np.eye
    monkeypatch.setattr(gpr.np, "eye", lambda *a, **k: eyes.append(a) or real_eye(*a, **k))
    infos = _counting_dpotrf(monkeypatch)
    _, (_, chol, _) = gpr._lml(d2, c[:, 0], hp)
    assert (jitter, infos, eyes) == (0.0, [0], [])
    assert np.array_equal(np.tril(chol), np.tril(ref_chol))


def test_model_json_round_trip():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    model = gpr.fit(c, y, restarts=2, max_iter=200, seed=0)
    clone = GprModel.from_json(model.to_json())
    assert clone.hp == model.hp
    assert np.array_equal(clone.inputs, model.inputs)
    assert np.array_equal(clone.targets, model.targets)
    m1, v1 = model.predict(c)
    m2, v2 = clone.predict(c)
    assert np.array_equal(m1, m2)
    assert np.array_equal(v1, v2)


def _model_json(**changes):
    """A valid one-point model file with `changes` applied."""
    blob = {"format": "gpr-model-v1", "hyperparams": [0.1, 1.0, 1.0], "y_mean": 0.0,
            "y_scale": 1.0, "inputs": [[0.0]], "targets": [0.0]}
    return json.dumps({**blob, **changes})


@pytest.mark.parametrize("text, message", [
    (_model_json(format="gpr-model-v0"), "unknown model format 'gpr-model-v0'"),
    ('{"format": "gpr-model-v1"}', "bad model file: KeyError"),
    (_model_json(hyperparams=[0.1, 1.0]), "bad model file: TypeError"),
    (_model_json(y_mean="x"), "bad model file: ValueError"),
    (_model_json(inputs=[[0.0], [0.0, 1.0]], targets=[0.0, 1.0]),
     "bad model file: ValueError"),
    ("not json", "unreadable model file"),
    ("[1]", "unknown model format None"),
    (_model_json(hyperparams=[0.1, float("nan"), 1.0]), "must be finite and positive"),
    (_model_json(hyperparams=[0.1, 1.0, float("inf")]), "must be finite and positive"),
    (_model_json(y_mean=float("nan")), "bad model file: ValueError.*y_mean nan"),
    (_model_json(y_mean=float("-inf")), "bad model file: ValueError.*y_mean -inf"),
    (_model_json(y_scale=float("nan")), "bad model file: ValueError.*y_scale nan"),
    (_model_json(y_scale=float("inf")), "bad model file: ValueError.*y_scale inf"),
    (_model_json(y_scale=0.0), "bad model file: ValueError.*y_scale 0.0"),
    (_model_json(y_scale=-1.0), "bad model file: ValueError.*y_scale -1.0"),
], ids=["unknown format", "no hyperparams", "two hyperparams", "text y_mean",
        "ragged inputs", "not json", "not an object", "NaN sigma_f", "inf length scale",
        "NaN y_mean", "-inf y_mean", "NaN y_scale", "inf y_scale", "zero y_scale",
        "negative y_scale"])
def test_model_json_refuses_malformed_files(text, message):
    GprModel.from_json(_model_json())
    with pytest.raises(GprError, match=message):
        GprModel.from_json(text)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       sigma_n=st.floats(0.1, 1.0), sigma_f=st.floats(0.5, 2.0),
       length_scale=st.floats(0.3, 5.0))
def test_predict_invariant_under_training_row_permutation(n, d, seed, sigma_n,
                                                          sigma_f, length_scale):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    c_star = rng.standard_normal((5, d))
    hp = Hyperparams(sigma_n, sigma_f, length_scale)
    perm = rng.permutation(n)
    mean, var = GprModel.build(c, y, hp, 40.0, 2.5).predict(c_star)
    p_mean, p_var = GprModel.build(c[perm], y[perm], hp, 40.0, 2.5).predict(c_star)
    np.testing.assert_allclose(p_mean, mean, rtol=1e-9, atol=0)
    np.testing.assert_allclose(p_var, var, rtol=1e-9, atol=1e-12 * (2.5 * sigma_f) ** 2)
