"""Trainable classifiers over channels x time trials, with analytic gradients.

Two small architectures share one base, Network: an MLP over flattened trials
and a shallow convolutional net (per-filter spatial weights -> temporal
filters -> square -> mean-pool over time -> log -> dense head), whose convs
run as matmuls, the temporal one against banded filter matrices. Parameters
live in one flat float64 vector with a layout describing each layer's slice,
which keeps optimizers, penalties, and finite-difference checks trivial.

The public entry points (forward, loss_and_gradient, gradient) check their
input and then run the unchecked core: forward_cached, backward and
unchecked_loss_and_gradient. A training stage runs those checks once
(check_batch) and the core every step. A Params builds its block views once,
and backward writes each gradient block straight into its slice of one flat
vector, so a step allocates no per-block copies.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError
from .errors import check_fields, integer, integers, one_of

# Added inside the log of the pooled power so zero-power features stay finite.
LOG_EPS = 1e-6

_PARAMS_MAGIC = b"EEGP"
_PARAMS_HEADER = struct.Struct("<4sI")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture choice plus every size the networks need.

    hidden applies to the mlp and n_filters/kernel_len to shallow_conv,
    but every field is checked against its rule whatever the
    architecture. The weight-initialization seed is init_params' argument.
    """

    architecture: str = "shallow_conv"
    n_channels: int = 8
    n_timepoints: int = 64
    n_classes: int = 2
    hidden: tuple = (32,)
    n_filters: int = 8
    kernel_len: int = 16

    RULES = {
        "architecture": one_of(("mlp", "shallow_conv")),
        "n_channels": integer(1),
        "n_timepoints": integer(1),
        "n_classes": integer(2),
        "hidden": integers(1),
        "n_filters": integer(1),
        "kernel_len": integer(1),
    }

    def __post_init__(self):
        check_fields(self, "model", self.RULES)
        if self.architecture == "shallow_conv" and self.kernel_len > self.n_timepoints:
            raise ConfigError(
                f"model kernel_len must be <= n_timepoints {self.n_timepoints}, "
                f"got {self.kernel_len}"
            )


class Layout(tuple):
    """Parameter blocks in vector order, as (name, shape, fan) triples; fan
    is the block's Glorot fan pair, None for a block that initializes to
    zero. Each block's slice and shape, looked up by name, and the total
    size are computed once."""

    def __new__(cls, blocks):
        self = super().__new__(cls, ((name, tuple(shape), fan) for name, shape, fan in blocks))
        self.slices = {}
        offset = 0
        for name, shape, _ in self:
            size = math.prod(shape)
            self.slices[name] = (slice(offset, offset + size), shape)
            offset += size
        self.size = offset
        return self

    def views(self, vectors: np.ndarray) -> dict:
        """Name -> view of that block in an array of flat vectors, shape
        lead + (size,); each view has shape lead + the block's shape and
        writes through to the array."""
        lead = vectors.shape[:-1]
        return {
            name: vectors[..., block].reshape(lead + shape)
            for name, (block, shape) in self.slices.items()
        }


@dataclass
class Params:
    """Flat trainable-parameter vector plus its layer layout.

    The block views are built once, over the vector the Params is created
    with: update that array in place, never rebind it.
    """

    vector: np.ndarray
    layout: Layout

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise ShapeError(f"params vector must be 1-D, got shape {self.vector.shape}")
        if self.layout.size != self.vector.size:
            raise ShapeError(
                f"layout covers {self.layout.size} entries but vector has "
                f"{self.vector.size}"
            )
        self._views = self.layout.views(self.vector)

    def __reduce__(self):
        # The views would unpickle as copies of their own; rebuild them
        # over the unpickled vector instead.
        return Params, (self.vector, self.layout)

    @property
    def n_params(self) -> int:
        return self.vector.size

    def view(self, name: str) -> np.ndarray:
        """Writable reshaped view of one named block."""
        try:
            return self._views[name]
        except KeyError:
            raise KeyError(f"no parameter block named {name!r}") from None

    def copy(self) -> "Params":
        return Params(vector=self.vector.copy(), layout=self.layout)


def params_to_bytes(params: Params) -> bytes:
    """Little-endian float64 blob with a small magic/count header."""
    vec = np.ascontiguousarray(params.vector, dtype="<f8")
    return _PARAMS_HEADER.pack(_PARAMS_MAGIC, vec.size) + vec.tobytes()


def params_from_bytes(buf: bytes, layout: Layout) -> Params:
    if len(buf) < _PARAMS_HEADER.size:
        raise ValueError("parameter blob too short for header")
    magic, n = _PARAMS_HEADER.unpack_from(buf, 0)
    if magic != _PARAMS_MAGIC:
        raise ValueError(f"bad parameter blob magic {magic!r}")
    expected = _PARAMS_HEADER.size + 8 * n
    if len(buf) != expected:
        raise ValueError(f"parameter blob length {len(buf)} != expected {expected}")
    vec = np.frombuffer(buf, dtype="<f8", count=n, offset=_PARAMS_HEADER.size).copy()
    return Params(vector=vec, layout=layout)


def _check_trials(x: np.ndarray, config: ModelConfig, dtype=np.float64) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 3 or x.shape[1:] != (config.n_channels, config.n_timepoints):
        raise ShapeError(
            f"batch must have shape (n, {config.n_channels}, {config.n_timepoints}), "
            f"got {x.shape}"
        )
    if not x.shape[0]:
        raise EmptyInputError("a batch needs at least one trial")
    return x


class Network:
    """What both networks share: their config, the parameter layout built
    from their blocks, and a forward that checks its batch before running
    the subclass's forward_cached. Each subclass defines forward_cached and
    backward itself."""

    def __init__(self, config: ModelConfig, blocks):
        self.config = config
        self.layout = Layout(blocks)

    @property
    def n_params(self) -> int:
        return self.layout.size

    def init_params(self, seed: int) -> Params:
        return _glorot_init(self.layout, seed)

    def forward(self, params: Params, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(params, _check_trials(x, self.config))[0]


class MlpNet(Network):
    """Fully connected tanh network over flattened trials."""

    # train() keeps a stage's trials sample-major, (n, channels, time), so
    # that flattening a gathered batch is a free reshape.
    trial_axis = 0

    def __init__(self, config: ModelConfig):
        sizes = [config.n_channels * config.n_timepoints, *config.hidden, config.n_classes]
        blocks = []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            blocks.append((f"w{i}", (fan_out, fan_in), (fan_in, fan_out)))
            blocks.append((f"b{i}", (fan_out,), None))
        super().__init__(config, blocks)
        self._n_layers = len(sizes) - 1

    def forward_cached(self, params: Params, x: np.ndarray):
        """Logits and the cache backward needs, for a float64 batch of
        shape (n, channels, time) that the caller has checked."""
        a = x.reshape(x.shape[0], -1)
        acts = [a]
        for i in range(self._n_layers - 1):
            a = np.tanh(a @ params.view(f"w{i}").T + params.view(f"b{i}"))
            acts.append(a)
        last = self._n_layers - 1
        logits = a @ params.view(f"w{last}").T + params.view(f"b{last}")
        return logits, acts

    def backward(
        self, params: Params, cache, dlogits: np.ndarray, per_sample: bool = False
    ) -> np.ndarray:
        """Flat gradient summed over the batch, or with per_sample one row
        per trial, of the loss whose logit gradient is dlogits. Each block
        is written straight into its slice of the result."""
        acts = cache
        d = np.asarray(dlogits, dtype=np.float64)
        grad = np.empty((d.shape[0], self.layout.size) if per_sample else self.layout.size)
        out = self.layout.views(grad)
        last = self._n_layers - 1
        for i in range(last, -1, -1):
            if i < last:
                d = (d @ params.view(f"w{i + 1}")) * (1.0 - acts[i + 1] ** 2)
            _dense_grad(d, acts[i], per_sample, out[f"w{i}"], out[f"b{i}"])
        return grad


class ShallowConvNet(Network):
    """Per-filter spatial weights, temporal filters, square, mean-pool, log.

    The squared-then-log band-power pipeline makes the features scale like
    the log variance of each filtered signal, which suits oscillatory
    multichannel data without needing a deep stack.

    Both convs are linear, so the channels are mixed before the temporal
    filter rather than after it, with the same result. Activations are kept
    filter-major, (filters, n, time): the spatial conv is one matmul over
    all trials and time points, and the temporal conv is a batched matmul
    with each filter's banded (Toeplitz) matrix, as are its transpose and
    its gradients in backward.
    """

    # train() keeps a stage's trials channel-major, (channels, n, time): a
    # gathered batch, passed on as its (n, channels, time) transpose, is
    # then read by the spatial conv as a (channels, n * time) matrix
    # without a copy.
    trial_axis = 1

    def __init__(self, config: ModelConfig):
        k, length = config.n_filters, config.kernel_len
        c, n_classes = config.n_channels, config.n_classes
        super().__init__(config, [
            ("temporal", (k, length), (length, k)),
            ("spatial", (k, c), (c, k)),
            ("spatial_bias", (k,), None),
            ("head", (n_classes, k), (k, n_classes)),
            ("head_bias", (n_classes,), None),
        ])
        self.n_windows = config.n_timepoints - config.kernel_len + 1

    def forward_cached(self, params: Params, x: np.ndarray):
        """Logits and the cache backward needs, for a float64 batch of
        shape (n, channels, time) that the caller has checked."""
        cfg = self.config
        n, t = x.shape[0], cfg.n_timepoints
        xc = x.transpose(1, 0, 2).reshape(cfg.n_channels, n * t)
        z = (params.view("spatial") @ xc).reshape(cfg.n_filters, n, t)
        band = _band(params.view("temporal"), t)
        s = z @ band  # (filters, n, windows)
        s += params.view("spatial_bias")[:, None, None]
        power = (s * s).sum(axis=2).T / self.n_windows  # mean over windows, (n, filters)
        feats = np.log(power + LOG_EPS)
        logits = feats @ params.view("head").T + params.view("head_bias")
        return logits, (xc, z, band, s, power, feats)

    def backward(
        self, params: Params, cache, dlogits: np.ndarray, per_sample: bool = False
    ) -> np.ndarray:
        """Flat gradient summed over the batch, or with per_sample one row
        per trial, of the loss whose logit gradient is dlogits. Each block
        is written straight into its slice of the result."""
        xc, z, band, s, power, feats = cache
        d = np.asarray(dlogits, dtype=np.float64)
        dpower = (d @ params.view("head")) / (power + LOG_EPS)
        ds = (2.0 / self.n_windows) * s
        ds *= dpower.T[:, :, None]
        dz = ds @ band.transpose(0, 2, 1)  # transposed temporal conv, (filters, n, time)
        n = d.shape[0]
        grad = np.empty((n, self.layout.size) if per_sample else self.layout.size)
        out = self.layout.views(grad)
        if per_sample:
            t = self.config.n_timepoints
            zwin = np.lib.stride_tricks.sliding_window_view(z, self.config.kernel_len, axis=2)
            np.einsum("fnu,fnul->nfl", ds, zwin, out=out["temporal"])
            np.matmul(
                dz.transpose(1, 0, 2), xc.reshape(-1, n, t).transpose(1, 2, 0),
                out=out["spatial"],
            )
            ds.sum(axis=2, out=out["spatial_bias"].T)
        else:
            # temporal[f, l] sums g[f, u + l, u] over the windows u.
            g = z.transpose(0, 2, 1) @ ds
            _diagonals(g, self.config.kernel_len).sum(axis=2, out=out["temporal"])
            np.matmul(dz.reshape(dz.shape[0], -1), xc.T, out=out["spatial"])
            ds.sum(axis=(1, 2), out=out["spatial_bias"])
        _dense_grad(d, feats, per_sample, out["head"], out["head_bias"])
        return grad


def _read_only_view(base: np.ndarray, shape: tuple, offset: int, strides: tuple) -> np.ndarray:
    """Strided read-only view into a C-contiguous array, offset in bytes.
    Cheaper per call than as_strided, which round-trips through
    __array_interface__."""
    view = np.ndarray(shape, base.dtype, base, offset, strides)
    view.flags.writeable = False
    return view


def _diagonals(a: np.ndarray, length: int) -> np.ndarray:
    """View of a C-contiguous stack of (time, windows) matrices as (length,
    windows): element [f, l, u] is a[f, u + l, u]."""
    s0, s1, s2 = a.strides
    return _read_only_view(a, (a.shape[0], length, a.shape[2]), 0, (s0, s1, s1 + s2))


def _band(w: np.ndarray, n_timepoints: int) -> np.ndarray:
    """Banded (Toeplitz) matrices of the temporal filters, shape (filters,
    time, windows) with band[f, u + l, u] = w[f, l], so z @ band is the
    valid correlation of z with each filter. It is a read-only view of the
    zero-padded filters, in which a row steps one sample forward and a
    column one sample back, so building it allocates only the padding."""
    k, length = w.shape
    n_windows = n_timepoints - length + 1
    padded = np.zeros((k, n_windows - 1 + n_timepoints))
    padded[:, n_windows - 1 : n_windows - 1 + length] = w
    step = padded.strides[1]
    return _read_only_view(
        padded, (k, n_timepoints, n_windows), (n_windows - 1) * step,
        (padded.strides[0], step, -step),
    )


def _dense_grad(d: np.ndarray, a: np.ndarray, per_sample: bool, w_out, b_out):
    """Write the gradients of a dense layer with output gradient d and
    input a into w_out and b_out: for the weight the sum over the batch of
    the outer products d[i] a[i]^T and for the bias the sum of the d[i],
    or with per_sample each one."""
    if per_sample:
        np.multiply(d[:, :, None], a[:, None, :], out=w_out)
        np.copyto(b_out, d)
    else:
        np.matmul(d.T, a, out=w_out)
        d.sum(axis=0, out=b_out)


def _glorot_init(layout: Layout, seed: int) -> Params:
    rng = np.random.default_rng(seed)
    vec = np.zeros(layout.size)
    for name, _, fan in layout:
        if fan is not None:
            block, _ = layout.slices[name]
            fan_in, fan_out = fan
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            vec[block] = rng.uniform(-lim, lim, block.stop - block.start)
    return Params(vector=vec, layout=layout)


def build_model(config: ModelConfig):
    if config.architecture == "mlp":
        return MlpNet(config)
    return ShallowConvNet(config)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, stabilized by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_labels(labels, n_classes: int, n_rows: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n_rows,):
        raise ShapeError(f"labels must have shape ({n_rows},), got {labels.shape}")
    whole = labels.dtype.kind in "biu" or (
        labels.dtype.kind == "f" and np.isfinite(labels).all() and (labels == np.floor(labels)).all()
    )
    if not whole:
        raise ValueError(f"labels must be whole-number class indices, got {labels.dtype} values")
    labels = labels.astype(np.int64, copy=False)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def check_batch(model, x: np.ndarray, labels, dtype=np.float64) -> tuple:
    """The checks loss_and_gradient and gradient run on their input:
    returns x as a dtype (n, channels, time) batch for the model and
    labels as int64 class indices, one per trial. Raises ShapeError,
    EmptyInputError (a batch of no trials) or ValueError otherwise.
    train() runs them once on a stage's training split, with dtype None to
    keep that split's own dtype, so that its steps can call
    unchecked_loss_and_gradient."""
    x = _check_trials(x, model.config, dtype)
    return x, _check_labels(labels, model.config.n_classes, x.shape[0])


def loss_and_gradient(model, params: Params, x: np.ndarray, labels):
    """Mean cross-entropy loss and its flat gradient for one batch."""
    x, labels = check_batch(model, x, labels)
    return unchecked_loss_and_gradient(model, params, x, labels)


def gradient(
    model, params: Params, x: np.ndarray, labels, per_sample: bool = False
) -> np.ndarray:
    """Flat gradient of the mean cross-entropy over the batch.

    With per_sample, an (n, n_params) array whose row i is the gradient of
    trial i's own cross-entropy, from one batched forward/backward pass.
    """
    x, labels = check_batch(model, x, labels)
    return unchecked_loss_and_gradient(model, params, x, labels, per_sample)[1]


def unchecked_loss_and_gradient(model, params: Params, x, labels, per_sample: bool = False):
    """loss_and_gradient of a batch that check_batch has already passed:
    x a float64 (n, channels, time) array, possibly a transposed view, and
    labels int64 class indices. With per_sample the gradient is gradient's
    (n, n_params) per-trial array."""
    logits, cache = model.forward_cached(params, x)
    ls = _log_softmax(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    loss = float(-ls[rows, labels].mean())
    dlogits = np.exp(ls)
    dlogits[rows, labels] -= 1.0
    if not per_sample:
        dlogits /= n
    return loss, model.backward(params, cache, dlogits, per_sample)
