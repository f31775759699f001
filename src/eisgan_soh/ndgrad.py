"""Minimal reverse-mode automatic differentiation over dense float arrays.

Provides exactly the primitives the EIS GAN needs (1D convolution, dense
layers, leaky ReLU, the two loss heads) plus Adam with a global norm clip.
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

Memory: an op takes operands of any strides. `conv1d` and
`upsample_nearest` store their outputs batch-last, as (channels, length, B)
in memory, and return (B, channels, length) transposed views of them;
`leaky_relu`, `avg_pool1d` and their backward passes keep the layout they
are given. So in a conv stack each conv's im2col copies whole rows of
length x batch floats. Gradients, like outputs, may be views.

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


def _count(name, value, least):
    """`value` as an int if it is a Python or numpy integer of at least
    `least`, else a ShapeError naming `name`; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ShapeError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)


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
    L_out = L + 2*padding - K_w + 1. The work is done batch-last, in
    (channels, length, B) memory, and the output is a view of such memory.
    """
    w, b = bank.kernels, bank.biases
    k_out, r_in, k_w = w.shape
    if x.data.ndim != 3 or x.shape[1] != r_in:
        raise ShapeError(
            f"conv1d input shape {x.shape} is not (B, R_in={r_in}, L)")
    padding = _count("padding", padding, 0)
    batch, _, length = x.shape
    l_pad = length + 2 * padding
    if l_pad < k_w:
        raise ShapeError(f"L={length} with padding={padding} shorter than kernel K_w={k_w}")
    dtype = x.data.dtype
    # a batch-last input makes this transpose a view and the copy row by row
    xp = np.zeros((r_in, l_pad * batch), dtype)
    xp.reshape(r_in, l_pad, batch)[:, padding:padding + length] = x.data.transpose(1, 2, 0)
    l_out = l_pad - k_w + 1
    n_col = l_out * batch
    # im2col: a single GEMM per conv beats windowed einsum at these sizes;
    # col[c, k, (t, b)] = xp[c, (t + k, b)], one copy of whole rows per tap
    col = np.empty((r_in, k_w, n_col), dtype)
    for k in range(k_w):
        col[:, k] = xp[:, k * batch:k * batch + n_col]
    col = col.reshape(r_in * k_w, n_col)
    w_mat = w.data.reshape(k_out, r_in * k_w)
    out = w_mat @ col
    out += b.data[:, None]

    def bw(g, need):
        g_mat = g.transpose(1, 2, 0).reshape(k_out, n_col)
        gx = gw = gbias = None
        if need[1]:
            # the same bits as g_mat @ col.T from a faster GEMM
            gw = (col @ g_mat.T).T.reshape(k_out, r_in, k_w)
        if need[2]:
            gbias = g_mat.sum(axis=1)
        if need[0]:
            gcol = (w_mat.T @ g_mat).reshape(r_in, k_w, n_col)
            # col2im: tap k adds its rows onto the padded input from position
            # k on, taps in order; the padded margins are discarded
            gxp = np.zeros((r_in, l_pad * batch), dtype)
            for k in range(k_w):
                gxp[:, k * batch:k * batch + n_col] += gcol[:, k]
            gx = gxp.reshape(r_in, l_pad, batch)[:, padding:padding + length].transpose(2, 0, 1)
        return gx, gw, gbias

    return _record(out.reshape(k_out, l_out, batch).transpose(2, 0, 1), (x, w, b), bw)


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

    def bw(g, need):
        # the slope in x's dtype and layout: (1 - alpha) + alpha, exactly 1 for
        # every alpha in (0, 1), where x > 0 and alpha elsewhere; then one
        # multiply in place, which refuses a g it would narrow
        grad = np.multiply(x.data > 0, 1.0 - alpha, dtype=x.data.dtype)
        grad += alpha
        np.multiply(grad, g, out=grad, casting="safe")
        return (grad,)

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


def gaussian_nll(pred_mean: Tensor, code) -> Tensor:
    """Negative log density of `code` under N(pred_mean, I), InfoGAN's unit variance.

    Both are (B, k); summed over the k code dimensions, averaged over the
    batch. `code` is a constant array (no gradient flows into it).
    """
    dtype = pred_mean.data.dtype
    c = np.asarray(code, dtype=dtype)
    if c.ndim != 2 or c.shape != pred_mean.shape:
        raise ShapeError(f"gaussian_nll code shape {c.shape} and pred_mean shape "
                         f"{pred_mean.shape} are not the same (B, k)")
    batch, k = c.shape
    resid = pred_mean.data - c
    # np.log returns a float64 scalar, which would widen a float32 loss
    log_norm = dtype.type(np.log(2 * np.pi))
    out = (0.5 * np.sum(resid ** 2) + 0.5 * k * batch * log_norm) / batch

    def bw(g, need):
        return (g * resid / batch,)

    return _record(out, (pred_mean,), bw)


def _tap_sum(a, width, stop):
    """a[..., 0:stop:width] + a[..., 1:stop:width] + ..., added in tap order."""
    out = a[..., 0:stop:width]
    for k in range(1, width):
        out = out + a[..., k:stop:width]
    return out


def avg_pool1d(x: Tensor, width: int = 2) -> Tensor:
    """Non-overlapping average pool along the last axis; trailing remainder dropped."""
    width = _count("width", width, 1)
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
    """Each element repeated `factor` times along the last axis of a batch,
    written batch-last: (B, ..., L) in, a view of (..., L * factor, B) memory out."""
    factor = _count("factor", factor, 1)
    if x.data.ndim < 2:
        raise ShapeError(f"upsample_nearest input shape {x.shape} has no batch axis")
    xt = np.moveaxis(x.data, 0, -1)
    out = np.empty(xt.shape[:-1] + (factor, xt.shape[-1]), x.data.dtype)
    out[...] = xt[..., None, :]
    out = np.moveaxis(out.reshape(xt.shape[:-2] + (-1, xt.shape[-1])), -1, 0)

    def bw(g, need):
        return (_tap_sum(g, factor, g.shape[-1]),)

    return _record(out, (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def bw(g, need):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), bw)


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of a batch, along its leading axis."""
    start = _count("start", start, 0)
    stop = _count("stop", stop, start + 1)
    if x.data.ndim == 0 or stop > x.shape[0]:
        raise ShapeError(f"rows {start}:{stop} fall outside the batch of shape {x.shape}")
    out = x.data[start:stop]

    def bw(g, need):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

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

class AdamP:
    """Adam with bias correction, after a clip of the global gradient norm.

    The name comes from AdamP, whose radial-update projection acts only on
    scale-invariant weights (those followed by a normalization layer). No
    weight in these networks is scale-invariant, so the projection would
    never apply and is not implemented: this is plain Adam.

    Building it makes each parameter's `.data` a view of one flat buffer,
    `flat`, in the parameters' common dtype, and a step updates that buffer
    whole. A parameter whose `.data` is later replaced is refused by `step`,
    and one parameter listed twice is refused here: its two views would
    split its updates.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, max_norm):
        self.params = list(params)
        if not self.params:
            raise NdgradError("AdamP needs at least one parameter")
        if len({id(p) for p in self.params}) != len(self.params):
            raise NdgradError("a parameter is listed twice")
        self.lr, self.max_norm, self.t = float(lr), float(max_norm), 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        self._m, self._v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self._splits = np.cumsum([p.data.size for p in self.params])[:-1]
        for p, seg in zip(self.params, np.split(self.flat, self._splits)):
            p.data = seg.reshape(p.data.shape)

    def step(self, grads) -> float:
        """An Adam step on `grads` scaled to a global L2 norm of at most `max_norm`;
        returns the unscaled norm, from per-parameter sums of squares in C order."""
        if len(grads) != len(self.params):
            raise NdgradError("gradient list does not match parameter list")
        if any(p.data.base is not self.flat for p in self.params):
            raise NdgradError("a parameter's data was replaced after its optimizer was built")
        for i, (p, grad) in enumerate(zip(self.params, grads)):
            if np.shape(grad) != p.data.shape:
                raise NdgradError(f"gradient {i} has shape {np.shape(grad)}, not {p.data.shape}")
        g = np.concatenate([np.ravel(grad) for grad in grads])
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient; step rejected")
        norm = float(np.sqrt(sum(float(np.sum(seg * seg)) for seg in np.split(g, self._splits))))
        if norm > self.max_norm:
            g *= self.max_norm / norm
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        m, v = self._m, self._v
        m *= self.BETA1
        m += (1.0 - self.BETA1) * g
        v *= self.BETA2
        g2 = (1.0 - self.BETA2) * g
        g2 *= g
        v += g2
        # update = (m / bc1) / (sqrt(v / bc2) + EPS), computed in place
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += self.EPS
        update = m / bc1
        update /= denom
        update *= self.lr
        self.flat -= update
        return norm
