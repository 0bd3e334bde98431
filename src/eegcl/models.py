"""Trainable classifiers over channels x time trials, with analytic gradients.

Two small architectures share one interface: an MLP over flattened trials
and a shallow convolutional net (per-filter spatial weights -> temporal
filters -> square -> mean-pool over time -> log -> dense head), whose convs
run as matmuls, the temporal one against banded filter matrices. Parameters
live in one flat float64 vector with a layout describing each layer's slice,
which keeps optimizers, penalties, and finite-difference checks trivial.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

# Added inside the log of the pooled power so zero-power features stay finite.
LOG_EPS = 1e-6

_PARAMS_MAGIC = b"EEGP"
_PARAMS_HEADER = struct.Struct("<4sI")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture choice plus every size the networks need.

    hidden applies to the mlp; n_filters/kernel_len to shallow_conv. seed
    drives weight initialization only.
    """

    architecture: str = "shallow_conv"
    n_channels: int = 8
    n_timepoints: int = 64
    n_classes: int = 2
    hidden: tuple = (32,)
    n_filters: int = 8
    kernel_len: int = 16
    seed: int = 0

    def validate(self):
        if self.architecture not in ("mlp", "shallow_conv"):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.n_channels < 1 or self.n_timepoints < 1:
            raise ConfigError(
                f"input must be at least 1x1, got "
                f"{self.n_channels}x{self.n_timepoints}"
            )
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.architecture == "mlp":
            if not self.hidden or any(h < 1 for h in self.hidden):
                raise ConfigError(f"hidden sizes must be positive, got {self.hidden}")
        else:
            if self.n_filters < 1:
                raise ConfigError(f"n_filters must be >= 1, got {self.n_filters}")
            if not 1 <= self.kernel_len <= self.n_timepoints:
                raise ConfigError(
                    f"kernel_len must be in [1, {self.n_timepoints}], "
                    f"got {self.kernel_len}"
                )


@dataclass(frozen=True)
class LayoutEntry:
    """One named parameter block: its slice of the flat vector and its
    Glorot fan pair (None means the block initializes to zero)."""

    name: str
    shape: tuple
    offset: int
    size: int
    fan: tuple | None


class Layout(tuple):
    """Parameter blocks in vector order, built from (name, shape, fan)
    triples. Each block's slice and shape, looked up by name, and the total
    size are computed once."""

    def __new__(cls, blocks):
        entries = []
        offset = 0
        for name, shape, fan in blocks:
            shape = tuple(shape)
            size = math.prod(shape)
            entries.append(LayoutEntry(name=name, shape=shape, offset=offset, size=size, fan=fan))
            offset += size
        self = super().__new__(cls, entries)
        self.size = offset
        self.slices = {
            e.name: (slice(e.offset, e.offset + e.size), e.shape) for e in entries
        }
        return self

    def __reduce__(self):
        return Layout, ([(e.name, e.shape, e.fan) for e in self],)

    def flatten(self, blocks: dict, lead: tuple = ()) -> np.ndarray:
        """Concatenate named blocks, each shaped lead + its entry's shape,
        into flat vectors of shape lead + (size,)."""
        return np.concatenate(
            [blocks[e.name].reshape(lead + (e.size,)) for e in self], axis=-1
        )


@dataclass
class Params:
    """Flat trainable-parameter vector plus its layer layout."""

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

    @property
    def n_params(self) -> int:
        return self.vector.size

    def view(self, name: str) -> np.ndarray:
        """Writable reshaped view of one named block."""
        try:
            block, shape = self.layout.slices[name]
        except KeyError:
            raise KeyError(f"no parameter block named {name!r}") from None
        return self.vector[block].reshape(shape)

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


def _check_batch(x: np.ndarray, n_channels: int, n_timepoints: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != n_channels or x.shape[2] != n_timepoints:
        raise ShapeError(
            f"batch must have shape (n, {n_channels}, {n_timepoints}), "
            f"got {x.shape}"
        )
    return x


class MlpNet:
    """Fully connected tanh network over flattened trials."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        sizes = [config.n_channels * config.n_timepoints, *config.hidden, config.n_classes]
        blocks = []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            blocks.append((f"w{i}", (fan_out, fan_in), (fan_in, fan_out)))
            blocks.append((f"b{i}", (fan_out,), None))
        self.layout = Layout(blocks)
        self._n_layers = len(sizes) - 1

    @property
    def n_params(self) -> int:
        return self.layout.size

    def init_params(self) -> Params:
        return _glorot_init(self.layout, self.config.seed)

    def forward_cached(self, params: Params, x: np.ndarray):
        x = _check_batch(x, self.config.n_channels, self.config.n_timepoints)
        a = x.reshape(x.shape[0], -1)
        acts = [a]
        for i in range(self._n_layers - 1):
            a = np.tanh(a @ params.view(f"w{i}").T + params.view(f"b{i}"))
            acts.append(a)
        last = self._n_layers - 1
        logits = a @ params.view(f"w{last}").T + params.view(f"b{last}")
        return logits, acts

    def forward(self, params: Params, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(params, x)[0]

    def backward(
        self, params: Params, cache, dlogits: np.ndarray, per_sample: bool = False
    ) -> np.ndarray:
        """Flat gradient summed over the batch, or with per_sample one row
        per trial, of the loss whose logit gradient is dlogits."""
        acts = cache
        d = np.asarray(dlogits, dtype=np.float64)
        blocks = {}
        last = self._n_layers - 1
        for i in range(last, -1, -1):
            if i < last:
                d = (d @ params.view(f"w{i + 1}")) * (1.0 - acts[i + 1] ** 2)
            blocks[f"w{i}"] = _weight_grad(d, acts[i], per_sample)
            blocks[f"b{i}"] = d if per_sample else d.sum(axis=0)
        return self.layout.flatten(blocks, d.shape[:1] if per_sample else ())


class ShallowConvNet:
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

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        k, length = config.n_filters, config.kernel_len
        c, n_classes = config.n_channels, config.n_classes
        self.layout = Layout(
            [
                ("temporal", (k, length), (length, k)),
                ("spatial", (k, c), (c, k)),
                ("spatial_bias", (k,), None),
                ("head", (n_classes, k), (k, n_classes)),
                ("head_bias", (n_classes,), None),
            ]
        )
        self.n_windows = config.n_timepoints - config.kernel_len + 1

    @property
    def n_params(self) -> int:
        return self.layout.size

    def init_params(self) -> Params:
        return _glorot_init(self.layout, self.config.seed)

    def forward_cached(self, params: Params, x: np.ndarray):
        cfg = self.config
        x = _check_batch(x, cfg.n_channels, cfg.n_timepoints)
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

    def forward(self, params: Params, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(params, x)[0]

    def backward(
        self, params: Params, cache, dlogits: np.ndarray, per_sample: bool = False
    ) -> np.ndarray:
        """Flat gradient summed over the batch, or with per_sample one row
        per trial, of the loss whose logit gradient is dlogits."""
        xc, z, band, s, power, feats = cache
        d = np.asarray(dlogits, dtype=np.float64)
        dpower = (d @ params.view("head")) / (power + LOG_EPS)
        ds = (2.0 / self.n_windows) * s
        ds *= dpower.T[:, :, None]
        dz = ds @ band.transpose(0, 2, 1)  # transposed temporal conv, (filters, n, time)
        if per_sample:
            n, t = d.shape[0], self.config.n_timepoints
            zwin = np.lib.stride_tricks.sliding_window_view(z, self.config.kernel_len, axis=2)
            blocks = {
                "temporal": np.einsum("fnu,fnul->nfl", ds, zwin),
                "spatial": dz.transpose(1, 0, 2) @ xc.reshape(-1, n, t).transpose(1, 2, 0),
                "spatial_bias": ds.sum(axis=2).T,
                "head": _weight_grad(d, feats, True),
                "head_bias": d,
            }
            return self.layout.flatten(blocks, (n,))
        # temporal[f, l] sums g[f, u + l, u] over the windows u.
        g = z.transpose(0, 2, 1) @ ds
        blocks = {
            "temporal": _diagonals(g, self.config.kernel_len).sum(axis=2),
            "spatial": dz.reshape(dz.shape[0], -1) @ xc.T,
            "spatial_bias": ds.sum(axis=(1, 2)),
            "head": _weight_grad(d, feats, False),
            "head_bias": d.sum(axis=0),
        }
        return self.layout.flatten(blocks)


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


def _weight_grad(d: np.ndarray, a: np.ndarray, per_sample: bool) -> np.ndarray:
    """Gradient of a dense weight with output gradient d and input a: the
    sum over the batch of the outer products d[i] a[i]^T, or each one."""
    if per_sample:
        return d[:, :, None] * a[:, None, :]
    return d.T @ a


def _glorot_init(layout: Layout, seed: int) -> Params:
    rng = np.random.default_rng(seed)
    vec = np.zeros(layout.size)
    for e in layout:
        if e.fan is not None:
            fan_in, fan_out = e.fan
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            vec[e.offset : e.offset + e.size] = rng.uniform(-lim, lim, e.size)
    return Params(vector=vec, layout=layout)


def build_model(config: ModelConfig):
    config.validate()
    if config.architecture == "mlp":
        return MlpNet(config)
    return ShallowConvNet(config)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _check_labels(labels, n_classes: int, n_rows: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n_rows,):
        raise ShapeError(f"labels must have shape ({n_rows},), got {labels.shape}")
    labels = labels.astype(np.int64, copy=False)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def cross_entropy(logits: np.ndarray, labels) -> float:
    """Mean negative log softmax probability of the true class."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    labels = _check_labels(labels, logits.shape[1], logits.shape[0])
    if logits.shape[0] == 0:
        raise ValueError("cross_entropy of an empty batch")
    ls = log_softmax(logits)
    return float(-ls[np.arange(len(labels)), labels].mean())


def loss_and_gradient(model, params: Params, x: np.ndarray, labels, penalty=None):
    """Cross-entropy loss and its flat gradient for one batch.

    penalty, when given, is called with the flat parameter vector and must
    return (scalar, gradient vector); both are added to the loss terms.
    """
    loss, grad = _cross_entropy_backward(model, params, x, labels, per_sample=False)
    if penalty is not None:
        p_loss, p_grad = penalty(params.vector)
        loss = loss + float(p_loss)
        grad += p_grad
    return loss, grad


def gradient(
    model, params: Params, x: np.ndarray, labels, per_sample: bool = False
) -> np.ndarray:
    """Flat gradient of the mean cross-entropy over the batch.

    With per_sample, an (n, n_params) array whose row i is the gradient of
    trial i's own cross-entropy, from one batched forward/backward pass.
    """
    return _cross_entropy_backward(model, params, x, labels, per_sample)[1]


def _cross_entropy_backward(model, params: Params, x, labels, per_sample: bool):
    logits, cache = model.forward_cached(params, x)
    labels = _check_labels(labels, logits.shape[1], logits.shape[0])
    ls = log_softmax(logits)
    n = logits.shape[0]
    loss = float(-ls[np.arange(n), labels].mean())
    dlogits = np.exp(ls)
    dlogits[np.arange(n), labels] -= 1.0
    if not per_sample:
        dlogits /= n
    return loss, model.backward(params, cache, dlogits, per_sample)
