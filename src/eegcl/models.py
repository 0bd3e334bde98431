"""Trainable classifiers over channels x time trials, with analytic gradients.

Two small architectures share one base, Network: an MLP over flattened trials
and a shallow convolutional net (per-filter spatial weights -> temporal
filters -> square -> mean-pool over time -> log -> dense head), whose convs
run as matmuls, the temporal one against banded filter matrices. Parameters
live in one flat float64 vector with a layout describing each layer's slice,
which keeps optimizers, penalties, and finite-difference checks trivial.

The public entry points (loss_and_gradient, gradient) check their input
with check_params and check_batch, which keeps the batch's dtype, and then
run the unchecked core: forward_cached, backward and
unchecked_loss_and_gradient. A training stage runs those checks once and
the core every step. The core computes in its batch's dtype: a float32
batch, such as a subject's stored trials, in float32, against a float32
copy of the parameters, and any other real dtype in float64. Either way
the logits and the gradient come back float64, so the softmax, the loss,
the optimizer and the parameters stay float64.
Each forward pass reads the blocks of the vector it is given through the
model's Layout and hands those views to backward, which writes each gradient
block straight into its slice of one flat vector, so a step allocates no
per-block copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .errors import check_fields, integer, integers, one_of

# Added inside the log of the pooled power so zero-power features stay finite.
LOG_EPS = 1e-6


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
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.architecture == "shallow_conv" and self.kernel_len > self.n_timepoints:
            raise ConfigError(
                f"model kernel_len must be <= n_timepoints {self.n_timepoints}, "
                f"got {self.kernel_len}"
            )


class Layout:
    """Parameter blocks, given as (name, shape) pairs in vector order. Each
    block's slice and shape, looked up by name in that order, and the total
    size are computed once."""

    def __init__(self, blocks):
        self.slices = {}
        offset = 0
        for name, shape in blocks:
            size = math.prod(shape)
            self.slices[name] = (slice(offset, offset + size), tuple(shape))
            offset += size
        self.size = offset

    def views(self, vectors: np.ndarray) -> dict:
        """Name -> view of that block in an array of flat vectors, shape
        lead + (size,); each view has shape lead + the block's shape and
        writes through to the array."""
        lead = vectors.shape[:-1]
        return {
            name: vectors[..., block].reshape(lead + shape)
            for name, (block, shape) in self.slices.items()
        }


def check_params(model, params) -> np.ndarray:
    """The check the public entry points run on a parameter vector: it must
    be a float64 array of shape (model.layout.size,). Returns it as an
    ndarray, else raises ShapeError."""
    params = np.asarray(params)
    if params.dtype != np.float64 or params.shape != (model.layout.size,):
        raise ShapeError(
            f"params must be a float64 vector of shape ({model.layout.size},), "
            f"got {params.dtype} of shape {params.shape}"
        )
    return params


def _compute_dtype(x: np.ndarray) -> type:
    """The dtype a network computes a batch in: float32 for a float32
    batch, float64 for any other real dtype."""
    return np.float32 if x.dtype == np.float32 else np.float64


class Network:
    """What both networks share: their config, the parameter layout built
    from their (name, shape) blocks and the initial parameters. Each
    subclass defines forward_cached and backward itself."""

    def __init__(self, config: ModelConfig, blocks):
        self.config = config
        self.layout = Layout(blocks)

    def init_params(self, seed: int) -> np.ndarray:
        """Glorot-uniform weights: each 2-D block, in block order, draws
        from U(+-sqrt(6 / (fan_in + fan_out))), whose fans are its two
        dimensions. Each 1-D block, a bias, is zero."""
        rng = np.random.default_rng(seed)
        vec = np.zeros(self.layout.size)
        for block, shape in self.layout.slices.values():
            if len(shape) == 2:
                lim = math.sqrt(6.0 / sum(shape))
                vec[block] = rng.uniform(-lim, lim, block.stop - block.start)
        return vec


class MlpNet(Network):
    """Fully connected tanh network over flattened trials."""

    def __init__(self, config: ModelConfig):
        sizes = [config.n_channels * config.n_timepoints, *config.hidden, config.n_classes]
        blocks = []
        for i in range(len(sizes) - 1):
            blocks.append((f"w{i}", (sizes[i + 1], sizes[i])))
            blocks.append((f"b{i}", (sizes[i + 1],)))
        super().__init__(config, blocks)
        self._n_layers = len(sizes) - 1

    def forward_cached(self, params: np.ndarray, x: np.ndarray):
        """Float64 logits and the cache backward needs, for parameters and a
        checked (n, channels, time) batch of any real dtype, computed in
        _compute_dtype(x)."""
        dtype = _compute_dtype(x)
        p = self.layout.views(params.astype(dtype, copy=False))
        a = np.asarray(x, dtype=dtype).reshape(x.shape[0], -1)
        acts = [a]
        for i in range(self._n_layers - 1):
            a = np.tanh(a @ p[f"w{i}"].T + p[f"b{i}"])
            acts.append(a)
        last = self._n_layers - 1
        logits = a @ p[f"w{last}"].T + p[f"b{last}"]
        return logits.astype(np.float64, copy=False), (p, acts)

    def backward(self, cache, dlogits: np.ndarray, per_sample: bool = False) -> np.ndarray:
        """Flat gradient summed over the batch, or with per_sample one row
        per trial, of the loss whose logit gradient is dlogits. Each block
        is written straight into its slice of the result."""
        p, acts = cache
        d = dlogits.astype(acts[0].dtype, copy=False)
        grad = np.empty(
            (d.shape[0], self.layout.size) if per_sample else self.layout.size, d.dtype
        )
        out = self.layout.views(grad)
        last = self._n_layers - 1
        for i in range(last, -1, -1):
            if i < last:
                d = (d @ p[f"w{i + 1}"]) * (1.0 - acts[i + 1] ** 2)
            _dense_grad(d, acts[i], per_sample, out[f"w{i}"], out[f"b{i}"])
        return grad.astype(np.float64, copy=False)


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

    def __init__(self, config: ModelConfig):
        k, length = config.n_filters, config.kernel_len
        c, n_classes = config.n_channels, config.n_classes
        super().__init__(config, [
            ("temporal", (k, length)),
            ("spatial", (k, c)),
            ("spatial_bias", (k,)),
            ("head", (n_classes, k)),
            ("head_bias", (n_classes,)),
        ])
        self.n_windows = config.n_timepoints - config.kernel_len + 1

    def forward_cached(self, params: np.ndarray, x: np.ndarray):
        """Float64 logits and the cache backward needs, for parameters and a
        checked (n, channels, time) batch of any real dtype, computed in
        _compute_dtype(x)."""
        cfg = self.config
        dtype = _compute_dtype(x)
        p = self.layout.views(params.astype(dtype, copy=False))
        c, n, t = cfg.n_channels, x.shape[0], cfg.n_timepoints
        xc = np.ascontiguousarray(x.transpose(1, 0, 2), dtype=dtype).reshape(c, n * t)
        z = (p["spatial"] @ xc).reshape(cfg.n_filters, n, t)
        band = _band(p["temporal"], t)
        s = z @ band  # (filters, n, windows)
        s += p["spatial_bias"][:, None, None]
        power = (s * s).sum(axis=2).T / self.n_windows  # mean over windows, (n, filters)
        feats = np.log(power + LOG_EPS)
        logits = feats @ p["head"].T + p["head_bias"]
        return logits.astype(np.float64, copy=False), (p, xc, z, band, s, power, feats)

    def backward(self, cache, dlogits: np.ndarray, per_sample: bool = False) -> np.ndarray:
        """Flat gradient summed over the batch, or with per_sample one row
        per trial, of the loss whose logit gradient is dlogits. Each block
        is written straight into its slice of the result."""
        p, xc, z, band, s, power, feats = cache
        d = dlogits.astype(s.dtype, copy=False)
        dpower = (d @ p["head"]) / (power + LOG_EPS)
        ds = (2.0 / self.n_windows) * s
        ds *= dpower.T[:, :, None]
        dz = ds @ band.transpose(0, 2, 1)  # transposed temporal conv, (filters, n, time)
        n = d.shape[0]
        grad = np.empty((n, self.layout.size) if per_sample else self.layout.size, s.dtype)
        out = self.layout.views(grad)
        if per_sample:
            t = self.config.n_timepoints
            # zwin[f, i, u, l] is z[f, i, u + l], the window under filter tap l.
            s0, s1, s2 = z.strides
            zwin = _read_only_view(
                z, (*z.shape[:2], self.n_windows, self.config.kernel_len), 0, (s0, s1, s2, s2)
            )
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
        return grad.astype(np.float64, copy=False)


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
    column one sample back, so building it allocates only the padding, in
    the filters' dtype."""
    k, length = w.shape
    n_windows = n_timepoints - length + 1
    padded = np.zeros((k, n_windows - 1 + n_timepoints), w.dtype)
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


def build_model(config: ModelConfig):
    if config.architecture == "mlp":
        return MlpNet(config)
    return ShallowConvNet(config)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, stabilized by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def check_batch(model, x: np.ndarray, labels) -> tuple:
    """The checks loss_and_gradient and gradient run on their input:
    returns x as an (n, channels, time) ndarray in its own real dtype and
    labels as int64 class indices, one per trial. Raises ShapeError (a
    batch of no trials included) or ValueError otherwise.
    train() runs them once on a stage's training split, so that its steps
    can call unchecked_loss_and_gradient."""
    cfg = model.config
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"a batch must be of bool, integer or real float dtype, got {x.dtype}")
    if x.ndim != 3 or not len(x) or x.shape[1:] != (cfg.n_channels, cfg.n_timepoints):
        raise ShapeError(
            f"batch must have shape (n, {cfg.n_channels}, {cfg.n_timepoints}) with at least "
            f"one trial, got {x.shape}"
        )
    labels = np.asarray(labels)
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"labels must have shape ({x.shape[0]},), got {labels.shape}")
    whole = labels.dtype.kind in "biu" or (
        labels.dtype.kind == "f" and np.isfinite(labels).all() and (labels == np.floor(labels)).all()
    )
    if not whole:
        raise ValueError(f"labels must be whole-number class indices, got {labels.dtype} values")
    labels = labels.astype(np.int64, copy=False)
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError(
            f"labels must lie in [0, {cfg.n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return x, labels


def loss_and_gradient(model, params: np.ndarray, x: np.ndarray, labels):
    """Mean cross-entropy loss and its flat gradient for one batch."""
    params = check_params(model, params)
    x, labels = check_batch(model, x, labels)
    return unchecked_loss_and_gradient(model, params, x, labels)


def gradient(
    model, params: np.ndarray, x: np.ndarray, labels, per_sample: bool = False
) -> np.ndarray:
    """Flat gradient of the mean cross-entropy over the batch.

    With per_sample, an (n, n_params) array whose row i is the gradient of
    trial i's own cross-entropy, from one batched forward/backward pass.
    """
    params = check_params(model, params)
    x, labels = check_batch(model, x, labels)
    return unchecked_loss_and_gradient(model, params, x, labels, per_sample)[1]


def unchecked_loss_and_gradient(model, params: np.ndarray, x, labels, per_sample: bool = False):
    """loss_and_gradient of parameters and a batch that check_params and
    check_batch have already passed: x an (n, channels, time) array of any
    real dtype and labels int64 class indices. With per_sample the gradient
    is gradient's (n, n_params) per-trial array."""
    logits, cache = model.forward_cached(params, x)
    ls = _log_softmax(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    loss = float(-ls[rows, labels].mean())
    dlogits = np.exp(ls)
    dlogits[rows, labels] -= 1.0
    if not per_sample:
        dlogits /= n
    return loss, model.backward(cache, dlogits, per_sample)
