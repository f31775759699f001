"""Information-maximizing GAN over EIS curves.

Generator maps a meaningful code c (9 dims, standard Gaussian prior) plus
noise z to a (2, 60) normalized spectrum. Discriminator and auxiliary head
Q share a convolutional trunk; Q predicts the mean of a fixed-variance
Gaussian over c, so minimizing its negative log-likelihood maximizes the
variational lower bound on I(c; G(c, z)) up to the constant H(c).

`train` runs in float32 and returns float64 parameters, which hold float32
values; inference (`extract_latents`, `generate`, `latent_sweep`) and
checkpoints are float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import ndgrad as ng
from .eisdata import DataError, NormStats, T_POINTS

CHECKPOINT_FORMAT = "eisgan-checkpoint-v4"

#: curve channels, Re and Im: every curve array is (N, CHANNELS, T_POINTS)
CHANNELS = 2

# The paper's networks and optimiser, fixed: no run sets them.
#: conv widths of the shared D/Q trunk; each conv is followed by a halving pool
TRUNK_WIDTHS = (16, 32, 64, 64)
#: conv widths of the generator; each conv but the last follows a doubling
GEN_WIDTHS = (64, 32, 16)
#: width of the trunk's dense features, which the D and Q heads read
FEATURE_DIM = 64
#: odd conv kernel width; each conv pads by _PAD on both sides to keep the length
KERNEL_WIDTH = 5
_PAD = (KERNEL_WIDTH - 1) // 2
#: leaky ReLU slope
ALPHA = 0.01
#: length of the generator's dense output, before its doublings
GEN_BASE_LEN = T_POINTS // 2 ** (len(GEN_WIDTHS) - 1)
#: Adam learning rates of the D/trunk/Q step and of the G step
LR_D = 4e-4
LR_G = 1e-4
#: weight of the code NLL in both the D/Q and the G loss
LAMBDA_MI = 3.0
#: global gradient-norm bound per sub-update
GRAD_CLIP = 10.0

#: curves `extract_latents` runs through the trunk's conv stack at a time
EXTRACT_BLOCK = 256

#: code values `latent_sweep` moves one dimension over: [-2, 2] in steps of 0.5
SWEEP_GRID = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


class GanError(Exception):
    """Configuration or training failure."""


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is refused although it is an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int_fields(obj, error) -> None:
    """Raise `error` naming the first dataclass field annotated `int` whose
    value `is_int` refuses."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", int) and not is_int(value):
            raise error(f"{f.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GanConfig:
    #: the paper's sizes of the code c and the noise z: class attributes, not
    #: fields, so no run sets them and no checkpoint header holds them
    latent_dim = 9
    noise_dim = 16
    batch_size: int = 32
    epochs: int = 250
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self, GanError)
        if self.batch_size < 1 or self.epochs < 1:
            raise GanError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise GanError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Networks:
    """Parameter sets for G, the shared D/Q trunk, and the two heads."""

    config: GanConfig
    g_dense_w: ng.Tensor
    g_dense_b: ng.Tensor
    g_convs: list[ng.ConvKernelBank]
    trunk_convs: list[ng.ConvKernelBank]
    trunk_dense_w: ng.Tensor
    trunk_dense_b: ng.Tensor
    d_head_w: ng.Tensor
    d_head_b: ng.Tensor
    q_head_w: ng.Tensor
    q_head_b: ng.Tensor

    def g_params(self):
        out = [self.g_dense_w, self.g_dense_b]
        for bank in self.g_convs:
            out.extend(bank.params())
        return out

    def trunk_params(self):
        out = []
        for bank in self.trunk_convs:
            out.extend(bank.params())
        out.extend([self.trunk_dense_w, self.trunk_dense_b])
        return out

    def d_params(self):
        return self.trunk_params() + [self.d_head_w, self.d_head_b]

    def q_params(self):
        return [self.q_head_w, self.q_head_b]

    def all_params(self):
        return self.g_params() + self.d_params() + self.q_params()


@dataclass(frozen=True)
class LatentCode:
    c: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=np.float64))
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.z))):
            raise GanError("latent code must be finite")


@dataclass
class TrainReport:
    loss_d: list[float] = field(default_factory=list)
    loss_g: list[float] = field(default_factory=list)
    loss_mi: list[float] = field(default_factory=list)
    grad_norm_d: list[float] = field(default_factory=list)
    grad_norm_g: list[float] = field(default_factory=list)


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return ng.Tensor(rng.uniform(-bound, bound, size=shape))


def _conv_bank(rng, c_out, c_in):
    fan_in = c_in * KERNEL_WIDTH
    return ng.ConvKernelBank(
        kernels=_uniform_init(rng, (c_out, c_in, KERNEL_WIDTH), fan_in),
        biases=_uniform_init(rng, (c_out,), fan_in))


def init_networks(config: GanConfig, rng: np.random.Generator) -> Networks:
    """Scaled uniform fan-in initialization; deterministic under the rng."""
    in_dim = config.latent_dim + config.noise_dim
    g_dense_w = _uniform_init(rng, (GEN_WIDTHS[0] * GEN_BASE_LEN, in_dim), in_dim)
    g_dense_b = _uniform_init(rng, (GEN_WIDTHS[0] * GEN_BASE_LEN,), in_dim)
    widths = GEN_WIDTHS + (CHANNELS,)
    g_convs = [_conv_bank(rng, c_out, c_in) for c_in, c_out in zip(widths[:-1], widths[1:])]

    widths = (CHANNELS,) + TRUNK_WIDTHS
    trunk_convs = [_conv_bank(rng, c_out, c_in) for c_in, c_out in zip(widths[:-1], widths[1:])]
    # each trunk conv's pool halves the length, dropping an odd tail
    flat = TRUNK_WIDTHS[-1] * (T_POINTS >> len(TRUNK_WIDTHS))
    trunk_dense_w = _uniform_init(rng, (FEATURE_DIM, flat), flat)
    trunk_dense_b = _uniform_init(rng, (FEATURE_DIM,), flat)
    d_head_w = _uniform_init(rng, (1, FEATURE_DIM), FEATURE_DIM)
    d_head_b = _uniform_init(rng, (1,), FEATURE_DIM)
    q_head_w = _uniform_init(rng, (config.latent_dim, FEATURE_DIM), FEATURE_DIM)
    q_head_b = _uniform_init(rng, (config.latent_dim,), FEATURE_DIM)

    return Networks(config, g_dense_w, g_dense_b, g_convs, trunk_convs,
                    trunk_dense_w, trunk_dense_b, d_head_w, d_head_b,
                    q_head_w, q_head_b)


# ---------------------------------------------------------------------------
# forward passes (record onto the active tape, if any)
# ---------------------------------------------------------------------------

def _forward_g(nets: Networks, code: ng.Tensor) -> ng.Tensor:
    """Generator pass over a (B, latent_dim + noise_dim) batch of codes."""
    h = ng.dense(code, nets.g_dense_w, nets.g_dense_b)
    h = ng.leaky_relu(ng.reshape(h, (code.data.shape[0], GEN_WIDTHS[0], GEN_BASE_LEN)), ALPHA)
    for i, bank in enumerate(nets.g_convs):
        last = i == len(nets.g_convs) - 1
        if not last:
            h = ng.upsample_nearest(h, 2)
        h = ng.conv1d(h, bank, padding=_PAD)
        if not last:
            h = ng.leaky_relu(h, ALPHA)
    return h


def _trunk_convs(nets: Networks, x: ng.Tensor) -> ng.Tensor:
    """The trunk's conv stack over a (B, channels, length) batch, flattened to
    (B, features)."""
    h = x
    for bank in nets.trunk_convs:
        h = ng.avg_pool1d(ng.leaky_relu(ng.conv1d(h, bank, padding=_PAD), ALPHA), 2)
    return ng.reshape(h, (h.data.shape[0], int(np.prod(h.data.shape[1:]))))


def _trunk_head(nets: Networks, flat: ng.Tensor) -> ng.Tensor:
    """The trunk's dense layer over the flattened conv features."""
    return ng.leaky_relu(ng.dense(flat, nets.trunk_dense_w, nets.trunk_dense_b), ALPHA)


def _forward_trunk(nets: Networks, x: ng.Tensor) -> ng.Tensor:
    """Shared D/Q trunk over a (B, channels, length) batch."""
    return _trunk_head(nets, _trunk_convs(nets, x))


def _d_logit(nets: Networks, features: ng.Tensor) -> ng.Tensor:
    return ng.dense(features, nets.d_head_w, nets.d_head_b)


def _q_mean(nets: Networks, features: ng.Tensor) -> ng.Tensor:
    return ng.dense(features, nets.q_head_w, nets.q_head_b)


def generate(nets: Networks, code: LatentCode) -> np.ndarray:
    """Normalized-space EIS array of shape (channels, length)."""
    cfg = nets.config
    if code.c.shape != (cfg.latent_dim,) or code.z.shape != (cfg.noise_dim,):
        raise GanError(
            f"code dims {code.c.shape}/{code.z.shape} do not match config "
            f"({cfg.latent_dim}/{cfg.noise_dim})")
    inp = ng.Tensor(np.concatenate([code.c, code.z])[None])
    return _finite_rows(_forward_g(nets, inp).data, "generated curve")[0]


def _finite_rows(out: np.ndarray, what: str) -> np.ndarray:
    """`out`, a batch of curves or codes, if it is all finite; otherwise a
    GanError naming its first row holding NaN or +-inf. ndgrad's ops record
    their outputs unchecked, so a pass that overflows is caught here."""
    finite = np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
    if not finite.all():
        raise GanError(f"{what} {int(np.argmin(finite))} is non-finite")
    return out


def _curve_tensor(batch: np.ndarray, what: str) -> ng.Tensor:
    """Tensor of a (N, channels, length) batch of curves. The Tensor's own
    finiteness check is the only scan; when it fails, the GanError names the
    first curve holding NaN or +-inf."""
    try:
        return ng.Tensor(batch)
    except ng.NonFiniteError:
        row = int(np.argmin(np.isfinite(batch).all(axis=(1, 2))))
        raise GanError(f"{what} {row} holds non-finite values") from None


def extract_latents(nets: Networks, curve_array: np.ndarray) -> np.ndarray:
    """c* = Q(D_trunk(x*)) for normalized curves.

    A (channels, length) curve gives a (latent_dim,) code, run as a batch of
    one; a batch of shape (N, channels, length) gives (N, latent_dim) codes.
    The conv stack runs on blocks of EXTRACT_BLOCK curves, so its im2col
    buffers do not grow with N, and the dense layers run once over all N
    rows of features. Every code keeps the bits of one whole-batch pass:
    BLAS gave a conv GEMM's rows the same bits in blocks of EXTRACT_BLOCK
    rows or more but not in a block of a few rows, so a shorter remainder
    joins the last block; a dense GEMM over fewer rows rounded differently.
    """
    arr = np.asarray(curve_array, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-2:] != (CHANNELS, T_POINTS):
        raise GanError(f"curve shape {arr.shape} is neither ({CHANNELS}, "
                       f"{T_POINTS}) nor (N, {CHANNELS}, {T_POINTS})")
    single = arr.ndim == 2
    batch = _curve_tensor(arr[None] if single else arr, "curve").data
    n = len(batch)
    features = np.empty((n, nets.trunk_dense_w.data.shape[1]))
    starts = range(0, max(n - EXTRACT_BLOCK, 0) + 1, EXTRACT_BLOCK)
    # the batch was checked whole: its blocks are wrapped unchecked, as op outputs are
    for start, stop in zip(starts, [*starts[1:], n]):
        block = ng._record(batch[start:stop], (), None)
        features[start:stop] = _trunk_convs(nets, block).data
    head = _trunk_head(nets, ng._record(features, (), None))
    codes = _finite_rows(_q_mean(nets, head).data, "latent code of curve")
    return codes[0] if single else codes


def latent_sweep(nets: Networks, dim_index: int, grid=SWEEP_GRID) -> np.ndarray:
    """Generated curves, shape (len(grid), channels, length), as one code
    dimension moves over grid with the other dims at 0 and z=0."""
    cfg = nets.config
    if not 0 <= dim_index < cfg.latent_dim:
        raise GanError(f"dim_index {dim_index} out of range")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or not np.all(np.isfinite(grid)):
        raise GanError("sweep grid must be a finite 1-D sequence")
    codes = np.zeros((len(grid), cfg.latent_dim + cfg.noise_dim))
    codes[:, dim_index] = grid
    return _finite_rows(_forward_g(nets, ng.Tensor(codes)).data, "sweep curve")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class Optimizers:
    """One Adam per sub-update of `train_step`, over disjoint parameters:
    `opt_d` steps D, the shared trunk and Q (LR_D), `opt_g` steps G (LR_G)."""

    opt_d: ng.AdamP
    opt_g: ng.AdamP

    @staticmethod
    def build(nets: Networks) -> "Optimizers":
        return Optimizers(opt_d=ng.AdamP(nets.d_params() + nets.q_params(), lr=LR_D),
                          opt_g=ng.AdamP(nets.g_params(), lr=LR_G))


def _sample_codes(cfg: GanConfig, batch: int, rng) -> np.ndarray:
    return rng.standard_normal((batch, cfg.latent_dim + cfg.noise_dim))


def train_step(nets: Networks, real_batch: np.ndarray, opts: Optimizers,
               rng: np.random.Generator) -> dict:
    """One InfoGAN step (Chen et al. 2016): two sub-updates, each adding
    LAMBDA_MI times the code negative log-likelihood L_I to its loss.

    (1) D, trunk and Q on BCE(real) + BCE(fake) + lambda * L_I, where Q reads
    the trunk features D reads of fakes drawn outside any tape; (2) G on the
    non-saturating BCE + lambda * L_I of its own batch. The reported
    `loss_d` and `loss_g` are the BCE terms alone and `loss_mi` is the
    unscaled L_I of the G batch (the constant code entropy is dropped).
    Q's Gaussian has unit variance: L_I = sum (mu - c)^2 / (2 sigma^2) + const,
    so another sigma would only rescale LAMBDA_MI, the one weight on L_I.

    The step runs in the dtype of the networks' parameters (float32 under
    `train`): the float64 code draws are rounded to it, and `real_batch`
    should already be in it.
    """
    cfg = nets.config
    batch = real_batch.shape[0]
    dtype = nets.g_dense_w.data.dtype

    def update(opt, losses_fn):
        """Record losses_fn() -> (adversarial, code NLL) on a fresh tape, take
        one clipped step of `opt` on adversarial + lambda * NLL and return
        (adversarial, NLL, gradient norm); the tape is freed on return."""
        with ng.Tape() as tape:
            adv, nll = losses_fn()
            loss = ng.add(adv, ng.scale(nll, LAMBDA_MI))
            grads = ng.backward(tape, loss, opt.params)
        grads, norm = ng.clip_global_norm(grads, GRAD_CLIP)
        opt.step(grads)
        return float(adv.data), float(nll.data), norm

    def code_nll(features, codes):
        return ng.gaussian_nll(_q_mean(nets, features), codes[:, :cfg.latent_dim], 1.0)

    # (1) discriminator and Q; the fakes are constants, drawn outside any tape
    d_codes = _sample_codes(cfg, batch, rng).astype(dtype, copy=False)
    fake = _forward_g(nets, ng.Tensor(d_codes)).data

    def d_losses():
        logit_real = _d_logit(nets, _forward_trunk(nets, ng.Tensor(real_batch)))
        features = _forward_trunk(nets, ng.Tensor(fake))
        return (ng.add(ng.bce_logit_loss(logit_real, True),
                       ng.bce_logit_loss(_d_logit(nets, features), False)),
                code_nll(features, d_codes))

    loss_d, _, norm_d = update(opts.opt_d, d_losses)

    # (2) generator, non-saturating
    g_codes = _sample_codes(cfg, batch, rng).astype(dtype, copy=False)

    def g_losses():
        features = _forward_trunk(nets, _forward_g(nets, ng.Tensor(g_codes)))
        return ng.bce_logit_loss(_d_logit(nets, features), True), code_nll(features, g_codes)

    loss_g, loss_mi, norm_g = update(opts.opt_g, g_losses)

    losses = {"loss_d": loss_d, "loss_g": loss_g, "loss_mi": loss_mi,
              "grad_norm_d": norm_d, "grad_norm_g": norm_g}
    for name, value in losses.items():
        if not np.isfinite(value):
            raise GanError(f"non-finite {name} in training step")
    return losses


def _set_dtype(nets: Networks, dtype) -> None:
    """Hold every parameter of `nets` in `dtype`."""
    for p in nets.all_params():
        p.data = p.data.astype(dtype)


def train(real_curves: np.ndarray, config: GanConfig) -> tuple[Networks, TrainReport]:
    """Full training loop over normalized (N, channels, length) curves.

    The data and the float64 initial parameters are rounded once to float32,
    every step runs in float32, and the trained parameters are widened back
    to float64, which is exact.
    """
    data = np.asarray(real_curves, dtype=np.float64)
    if data.ndim != 3 or data.shape[1:] != (CHANNELS, T_POINTS):
        raise GanError(f"training data shape {data.shape} is not (N, {CHANNELS}, {T_POINTS})")
    if len(data) == 0:
        raise GanError("training data holds no curves")
    _curve_tensor(data, "training curve")  # names the first non-finite curve
    with np.errstate(over="ignore"):
        data = data.astype(np.float32)
    overflows = ~np.isfinite(data).all(axis=(1, 2))
    if overflows.any():
        raise GanError(f"training curve {int(np.argmax(overflows))} overflows "
                       "float32, the training precision")
    rng = np.random.default_rng(config.seed)
    nets = init_networks(config, rng)
    _set_dtype(nets, np.float32)
    opts = Optimizers.build(nets)
    report = TrainReport()
    names = [f.name for f in fields(TrainReport)]
    n = len(data)
    batch = min(config.batch_size, n)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        sums = np.zeros(len(names))
        steps = 0
        for start in range(0, n - batch + 1, batch):
            losses = train_step(nets, data[order[start:start + batch]], opts, rng)
            sums += [losses[name] for name in names]
            steps += 1
        for name, mean in zip(names, sums / steps):
            getattr(report, name).append(mean)
    _set_dtype(nets, np.float64)
    return nets, report


# ---------------------------------------------------------------------------
# latent selection
# ---------------------------------------------------------------------------

def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return np.nan
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


@dataclass(frozen=True)
class LatentSelection:
    order: tuple[int, ...]
    top2: tuple[int, int]
    aligned: np.ndarray
    flipped: tuple[bool, ...]
    correlations: tuple[float, ...]


#: fewest cycles `align_and_select` ranks code dimensions on
MIN_RANK_CYCLES = 3


def align_and_select(latents: np.ndarray, capacities: np.ndarray) -> LatentSelection:
    """Rank code dims by |corr| with capacity; flip so each decreases with cycle.

    Constant dims have undefined correlation and rank last. The aligned
    matrix has every dimension sign-flipped when its trend over cycles is
    increasing, so the selected traces decrease with cycle.
    """
    lat = np.asarray(latents, dtype=float)
    cap = np.asarray(capacities, dtype=float).ravel()
    if lat.ndim != 2 or len(lat) != len(cap):
        raise GanError(f"latents {lat.shape} and capacities {cap.shape} misaligned")
    if len(cap) < MIN_RANK_CYCLES:
        raise GanError(f"need at least {MIN_RANK_CYCLES} cycles for correlation ranking")
    n_dims = lat.shape[1]
    if n_dims < 2:
        raise GanError(f"need at least 2 code dimensions to select the top two, got {n_dims}")
    cycles = np.arange(len(cap), dtype=float)
    corrs = np.array([_pearson(lat[:, j], cap) for j in range(n_dims)])
    rank_key = np.where(np.isnan(corrs), -1.0, np.abs(corrs))
    order = tuple(int(i) for i in np.argsort(-rank_key, kind="stable"))

    aligned = lat.copy()
    flipped = []
    for j in range(n_dims):
        trend = _pearson(lat[:, j], cycles)
        flip = bool(not np.isnan(trend) and trend > 0)
        if flip:
            aligned[:, j] = -aligned[:, j]
        flipped.append(flip)
    return LatentSelection(order=order, top2=(order[0], order[1]),
                           aligned=aligned, flipped=tuple(flipped),
                           correlations=tuple(float(c) for c in corrs))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path, nets: Networks, stats: NormStats) -> None:
    """Dump config, every parameter array, and NormStats; round-trips bit-exactly."""
    header = json.dumps({"format": CHECKPOINT_FORMAT, "config": asdict(nets.config),
                         "norm_stats": asdict(stats)})
    arrays = {f"p{i:03d}": p.data for i, p in enumerate(nets.all_params())}
    np.savez(path, header=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[Networks, NormStats]:
    """Inverse of `save_checkpoint`; any malformed content raises GanError.

    A path that cannot be opened keeps its OSError. A file that is no npz
    archive is refused whatever np.load raises for it (ValueError for text or
    pickled data, zipfile.BadZipFile for a truncated archive, EOFError for an
    empty file) or when it loads as a bare array.
    """
    try:
        blob = np.load(path)
    except OSError:
        raise
    except Exception as exc:
        raise GanError(f"unreadable checkpoint {path}: not an npz archive "
                       f"({type(exc).__name__}: {exc})") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise GanError(f"unreadable checkpoint {path}: not an npz archive "
                       f"(a bare {type(blob).__name__})")
    with blob:
        try:
            header = json.loads(bytes(blob["header"]).decode())
        except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GanError(f"unreadable checkpoint header: {exc}") from None
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise GanError(f"unknown checkpoint format {fmt!r}")
        cfg_dict = header.get("config")
        got = set(cfg_dict) if isinstance(cfg_dict, dict) else set()
        expected = {f.name for f in fields(GanConfig)}
        if got != expected:
            raise GanError(f"checkpoint config keys differ from GanConfig: missing "
                           f"{sorted(expected - got)}, unknown {sorted(got - expected)}")
        try:
            config = GanConfig(**cfg_dict)
            stats = NormStats(**header["norm_stats"])
        except (KeyError, TypeError, DataError) as exc:
            raise GanError(f"bad checkpoint header: {exc!r}") from None
        nets = init_networks(config, np.random.default_rng(0))
        params = nets.all_params()
        names = {f"p{i:03d}" for i in range(len(params))}
        stored = set(blob.files) - {"header"}
        if stored != names:
            raise GanError(f"checkpoint arrays differ from the config: missing "
                           f"{sorted(names - stored)}, extra {sorted(stored - names)}")
        for i, p in enumerate(params):
            saved = blob[f"p{i:03d}"]
            if saved.shape != p.data.shape:
                raise GanError(f"checkpoint parameter {i} shape mismatch")
            if not np.isfinite(saved).all():
                raise GanError(f"checkpoint parameter {i} holds non-finite values")
            p.data = saved.astype(np.float64)
    return nets, stats
