"""Minimal reverse-mode automatic differentiation over dense float arrays.

Provides exactly the primitives the EIS GAN needs (1D convolution, dense
layers, leaky ReLU, the two loss heads) plus an Adam optimizer.
Every op takes `Tensor` operands whose data carry a leading batch axis:
(B, channels, length) into `conv1d`, (B, n) into `dense`, (B, k) into
`gaussian_nll`; a single curve or code is a batch of one. The pool,
upsample and activation ops act on the last axis of such batches.
Every op records onto the active Tape; replaying a tape with identical
inputs is bit-for-bit deterministic.

Precision follows the data: a `Tensor` keeps a float32 array as float32 and
holds anything else as float64, and every op, its buffers, its backward and
`AdamP`'s moments compute in the dtype of their operands. `eisgan.train`
runs the GAN in float32; everything else runs in float64. Mixing the two
in one pass promotes to float64 wherever they meet, so keep a pass in one
dtype. Scalar settings (slopes, factors, learning rates) are taken as Python
floats, which never widen float32 data as a numpy float64 scalar would.

Finiteness is checked at the boundaries, not per op: `Tensor(...)` refuses
NaN or +-inf in the arrays it wraps (inputs, codes, parameters), while op
outputs are recorded unchecked. A non-finite value that arises inside a
pass is caught where the pass ends: training checks its losses and
`AdamP.step` its gradients, and `eisgan.extract_latents`, `latent_sweep`
and `generate` check their outputs.

Each recorded node holds `backward_fn(g, need)`: `g` is dLoss/dOutput and
`need` is a tuple of booleans, one per parent, that is True where the
parent leads to a parameter `backward` was asked for. It returns one
gradient per parent and may return None where `need` is False; `backward`
never accumulates those entries, so an op can skip their work (the weight
GEMM of a conv whose kernels no optimizer updates, the input GEMM of the
first layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NdgradError(Exception):
    """Base error for autodiff failures."""


class ShapeError(NdgradError):
    """Operand shapes do not conform."""


class NonFiniteError(NdgradError):
    """NaN or Inf encountered at an op boundary."""


_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """Dense float32 or float64 array node in the computation graph."""

    __slots__ = ("data", "parents", "backward_fn")

    def __init__(self, data):
        # a float32 array stays float32; anything else becomes float64
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        if not np.isfinite(self.data).all():
            raise NonFiniteError("non-finite values in tensor")
        self.parents: tuple = ()
        self.backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size


class Tape:
    """Ordered record of primitive ops; consumed by backward()."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False


def _record(out_data, parents, backward_fn):
    """The op's output as a Tensor, recorded on the active tape. It keeps the
    output's dtype, which the op computed from its operands', and skips
    `Tensor.__init__`'s finiteness scan; see the module docstring."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(out_data)
    if _ACTIVE_TAPE is None:
        out.parents, out.backward_fn = (), None
    else:
        out.parents, out.backward_fn = parents, backward_fn
        _ACTIVE_TAPE.nodes.append(out)
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

@dataclass
class ConvKernelBank:
    """1D convolution parameters: kernels (K_out, R_in, K_w) and biases (K_out,)."""

    kernels: Tensor
    biases: Tensor

    def __post_init__(self):
        if self.kernels.data.ndim != 3:
            raise ShapeError(f"kernels must be 3D, got shape {self.kernels.shape}")
        k_out, r_in, k_w = self.kernels.shape
        if k_out < 1 or r_in < 1 or k_w < 1:
            raise ShapeError(f"invalid kernel bank shape {self.kernels.shape}")
        if self.biases.shape != (k_out,):
            raise ShapeError(
                f"biases shape {self.biases.shape} does not match K_out={k_out}")

    def params(self):
        return [self.kernels, self.biases]


def conv1d(x: Tensor, bank: ConvKernelBank, padding: int = 0) -> Tensor:
    """Valid cross-correlation with stride 1 after symmetric zero padding.

    Takes (B, R_in, L) input and gives (B, K_out, L_out) output, with
    L_out = L + 2*padding - K_w + 1.
    """
    w, b = bank.kernels, bank.biases
    k_out, r_in, k_w = w.shape
    if x.data.ndim != 3 or x.shape[1] != r_in:
        raise ShapeError(
            f"conv1d input shape {x.shape} is not (B, R_in={r_in}, L)")
    batch, _, length = x.shape
    if length + 2 * padding < k_w:
        raise ShapeError(f"L={length} with padding={padding} shorter than kernel K_w={k_w}")
    dtype = x.data.dtype
    if padding:
        xp = np.zeros((batch, r_in, length + 2 * padding), dtype)
        xp[:, :, padding:padding + length] = x.data
    else:
        xp = x.data
    l_out = length + 2 * padding - k_w + 1
    # im2col: a single GEMM per conv beats windowed einsum at these sizes;
    # col[c, k, b, t] = xp[b, c, t + k], filled with one slice copy per tap
    col = np.empty((r_in, k_w, batch, l_out), dtype)
    xt = xp.transpose(1, 0, 2)
    for k in range(k_w):
        col[:, k] = xt[:, :, k:k + l_out]
    col = col.reshape(r_in * k_w, batch * l_out)
    w_mat = w.data.reshape(k_out, r_in * k_w)
    out = (w_mat @ col).reshape(k_out, batch, l_out).transpose(1, 0, 2) \
        + b.data[None, :, None]

    def bw(g, need):
        g_mat = g.transpose(1, 0, 2).reshape(k_out, batch * l_out)
        gx = gw = gbias = None
        if need[1]:
            gw = (g_mat @ col.T).reshape(k_out, r_in, k_w)
        if need[2]:
            gbias = g_mat.sum(axis=1)
        if need[0]:
            gcol = (w_mat.T @ g_mat).reshape(r_in, k_w, batch, l_out).transpose(2, 0, 1, 3)
            # col2im: tap k lands on input t = k - padding + j; taps are added
            # in order and the padded margins, which are discarded, are skipped;
            # a tap that falls wholly in a margin (padding > length) adds nothing
            gx = np.zeros((batch, r_in, length), dtype)
            for k in range(k_w):
                shift = k - padding
                lo, hi = max(shift, 0), min(shift + l_out, length)
                if lo < hi:
                    gx[:, :, lo:hi] += gcol[:, :, k, lo - shift:hi - shift]
        return gx, gw, gbias

    return _record(out, (x, w, b), bw)


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weights.T + bias of a (B, n) batch into (B, m)."""
    m, n = weights.shape
    if x.data.ndim != 2 or x.shape[1] != n or bias.shape != (m,):
        raise ShapeError(f"dense shapes do not conform: x{x.shape} W{weights.shape} "
                         f"b{bias.shape}; x must be (B, {n})")
    out = x.data @ weights.data.T + bias.data

    def bw(g, need):
        gx = g @ weights.data if need[0] else None
        gw = g.T @ x.data if need[1] else None
        gb = g.sum(axis=0) if need[2] else None
        return gx, gw, gb

    return _record(out, (x, weights, bias), bw)


def leaky_relu(x: Tensor, alpha: float) -> Tensor:
    if not 0.0 < alpha < 1.0:
        raise NdgradError(f"alpha must lie in (0,1), got {alpha}")
    alpha = float(alpha)
    out = np.maximum(alpha * x.data, x.data)
    slopes = np.array([alpha, 1.0], x.data.dtype)

    def bw(g, need):
        # a table lookup of the slope, then one multiply: no branch per element
        return (g * slopes.take((x.data > 0).view(np.uint8)),)

    return _record(out, (x,), bw)


def bce_logit_loss(logit: Tensor, target_is_real: bool) -> Tensor:
    """Binary cross-entropy on a batch of logits, averaged over all elements.

    Numerically stable: -log sigmoid(l) for real targets, -log(1-sigmoid(l))
    for fake, both via logaddexp.
    """
    out = np.logaddexp(0.0, -logit.data if target_is_real else logit.data).mean()

    def bw(g, need):
        # exp overflows to inf for logits below about -709; 1 / (1 + inf) = 0
        # is then the exact sigmoid
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-logit.data))
        d = (p - 1.0) if target_is_real else p
        return (g * d / logit.size,)

    return _record(out, (logit,), bw)


def gaussian_nll(pred_mean: Tensor, code, fixed_sigma: float) -> Tensor:
    """Negative log density of `code` under N(pred_mean, fixed_sigma^2 I).

    Both are (B, k); summed over the k code dimensions, averaged over the
    batch. `code` is a constant array (no gradient flows into it).
    """
    if fixed_sigma <= 0:
        raise NdgradError(f"fixed_sigma must be positive, got {fixed_sigma}")
    dtype = pred_mean.data.dtype
    c = np.asarray(code, dtype=dtype)
    if c.ndim != 2 or c.shape != pred_mean.shape:
        raise ShapeError(f"gaussian_nll code shape {c.shape} and pred_mean shape "
                         f"{pred_mean.shape} are not the same (B, k)")
    batch, k = c.shape
    var = float(fixed_sigma) ** 2
    resid = pred_mean.data - c
    # np.log returns a float64 scalar, which would widen a float32 loss
    log_norm = dtype.type(np.log(2 * np.pi * var))
    out = (0.5 * np.sum(resid ** 2) / var + 0.5 * k * batch * log_norm) / batch

    def bw(g, need):
        return (g * resid / (var * batch),)

    return _record(out, (pred_mean,), bw)


def _tap_sum(a, width, stop):
    """a[..., 0:stop:width] + a[..., 1:stop:width] + ..., added in tap order."""
    out = a[..., 0:stop:width]
    for k in range(1, width):
        out = out + a[..., k:stop:width]
    return out


def avg_pool1d(x: Tensor, width: int = 2) -> Tensor:
    """Non-overlapping average pool along the last axis; trailing remainder dropped."""
    length = x.data.shape[-1]
    l_out = length // width
    if l_out < 1:
        raise ShapeError(f"pool width {width} exceeds length {length}")
    stop = l_out * width
    out = _tap_sum(x.data, width, stop) / width

    def bw(g, need):
        gw = g / width
        gx = np.empty_like(x.data) if stop == length else np.zeros_like(x.data)
        for k in range(width):
            gx[..., k:stop:width] = gw
        return (gx,)

    return _record(out, (x,), bw)


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    out = np.repeat(x.data, factor, axis=-1)

    def bw(g, need):
        return (_tap_sum(g, factor, g.shape[-1]),)

    return _record(out, (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def bw(g, need):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _record(a.data + b.data, (a, b), lambda g, need: (g, g))


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _record(x.data * factor, (x,), lambda g, need: (g * factor,))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor, params) -> list[np.ndarray]:
    """Reverse sweep over the tape; returns dLoss/dParam aligned with params.

    A forward walk first marks the nodes that lead to one of `params`; the
    reverse sweep then asks each op only for the parent gradients on such
    paths. Parameters not reached by the loss get zero gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    leads = {id(p) for p in params}
    for node in tape.nodes:
        if any(id(parent) in leads for parent in node.parents):
            leads.add(id(node))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(id(node))
        if g is None or node.backward_fn is None or id(node) not in leads:
            continue
        need = tuple(id(parent) in leads for parent in node.parents)
        for parent, wanted, pg in zip(node.parents, need, node.backward_fn(g, need)):
            if not wanted:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [grads.get(id(p), np.zeros_like(p.data)) for p in params]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def clip_global_norm(grads, max_norm: float):
    """Scale the gradient list so its global L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm:
        factor = float(max_norm) / total
        grads = [g * factor for g in grads]
    return grads, total


class AdamP:
    """Adam with bias correction.

    The name comes from AdamP, whose radial-update projection acts only on
    scale-invariant weights (those followed by a normalization layer). No
    weight in these networks is scale-invariant, so the projection would
    never apply and is not implemented: this is plain Adam.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        if len(grads) != len(self.params):
            raise NdgradError("gradient list does not match parameter list")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient; step rejected")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p.data -= self.lr * update
