import hashlib
import math

import numpy as np
import pytest

from eegcl import ConfigError, ModelConfig, TrainConfig
from eegcl.errors import ShapeError
from eegcl.models import (
    LOG_EPS,
    build_model,
    gradient,
    loss_and_gradient,
)
from eegcl.training import evaluate_arrays, train

from helpers import cache_dtypes, central_difference, cross_entropy, gradients_close, log_softmax

# How far a batch computed in float32 may stray from float64, relative to
# the largest entry of the output compared.
FLOAT32_REL = 1e-5


def small_mlp():
    return build_model(
        ModelConfig(architecture="mlp", n_channels=2, n_timepoints=4,
                    n_classes=2, hidden=(4,))
    )


def small_conv():
    return build_model(
        ModelConfig(architecture="shallow_conv", n_channels=2, n_timepoints=8,
                    n_classes=2, n_filters=2, kernel_len=4)
    )


def batch_for(model, n=4, seed=0):
    rng = np.random.default_rng(seed)
    cfg = model.config
    x = rng.standard_normal((n, cfg.n_channels, cfg.n_timepoints))
    labels = np.arange(n) % cfg.n_classes
    return x, labels


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig()

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="transformer")

    def test_bad_dimensions(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_channels=0)
        with pytest.raises(ConfigError):
            ModelConfig(n_classes=1)

    def test_mlp_needs_hidden_layers(self):
        with pytest.raises(ConfigError):
            ModelConfig(architecture="mlp", hidden=())
        with pytest.raises(ConfigError):
            ModelConfig(architecture="mlp", hidden=(0,))

    def test_conv_kernel_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(kernel_len=65, n_timepoints=64)
        with pytest.raises(ConfigError):
            ModelConfig(n_filters=0)


def checked_entry_points(model):
    """Each public entry point that checks its parameter vector, as a
    function of that vector over one valid batch."""
    x, labels = batch_for(model)
    data = (x, labels)
    return {
        "loss_and_gradient": lambda p: loss_and_gradient(model, p, x, labels),
        "gradient": lambda p: gradient(model, p, x, labels),
        "evaluate_arrays": lambda p: evaluate_arrays(model, p, x, labels),
        "train": lambda p: train(model, p, data, data, TrainConfig(max_epochs=1), 0),
    }


def assert_params_rejected(vector_for):
    """Every checked entry point of both architectures raises ShapeError
    on vector_for(model) and accepts the model's own initial vector."""
    for model in (small_mlp(), small_conv()):
        for call in checked_entry_points(model).values():
            call(model.init_params(0))
            with pytest.raises(ShapeError, match="params must be a float64 vector"):
                call(vector_for(model))


class TestParams:
    """Parameters are one flat float64 vector, read through the model's
    Layout and checked by every public entry point."""

    def test_layout_size_must_match_vector(self):
        assert_params_rejected(lambda model: np.zeros(model.layout.size + 1))

    def test_vector_must_be_1d(self):
        assert_params_rejected(lambda model: np.zeros((model.layout.size, 1)))

    def test_vector_must_be_float64(self):
        assert_params_rejected(lambda model: model.init_params(0).astype(np.float32))

    def test_view_is_writable_alias(self):
        model = small_conv()
        params = model.init_params(0)
        model.layout.views(params)["head_bias"][:] = 7.0
        block, _ = model.layout.slices["head_bias"]
        # the block is a view into the flat vector, not a copy
        assert np.all(params[block] == 7.0)

    def test_forward_reads_the_vector_it_is_given(self):
        model = small_conv()
        params = model.init_params(0)
        x, _ = batch_for(model)
        assert np.any(model.forward_cached(params, x)[0] != 0.0)
        assert np.all(model.forward_cached(np.zeros_like(params), x)[0] == 0.0)


class TestInitialization:
    def test_init_params_is_a_flat_float64_vector(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            assert isinstance(params, np.ndarray)
            assert params.dtype == np.float64
            assert params.shape == (model.layout.size,)

    def test_default_conv_parameter_count(self):
        model = build_model(ModelConfig())
        # 8x16 temporal + 8x8 spatial + 8 bias + 2x8 head + 2 bias
        assert model.layout.size == 218

    def test_weights_within_glorot_bounds_biases_zero(self):
        # (fan_in, fan_out) of each weight: small_mlp maps 2 x 4 = 8 inputs
        # through 4 hidden units to 2 classes; small_conv has 4 taps, 2
        # channels, 2 filters and 2 classes. Every other block is a bias.
        fans = {
            "mlp": {"w0": (8, 4), "w1": (4, 2)},
            "shallow_conv": {"temporal": (4, 2), "spatial": (2, 2), "head": (2, 2)},
        }
        for model in (small_mlp(), small_conv()):
            weights = fans[model.config.architecture]
            assert set(weights) < set(model.layout.slices)
            params = model.init_params(0)
            for name, (block, _) in model.layout.slices.items():
                if name in weights:
                    fan_in, fan_out = weights[name]
                    lim = math.sqrt(6.0 / (fan_in + fan_out))
                    assert np.all(np.abs(params[block]) <= lim)
                    assert np.any(params[block] != 0.0)
                else:
                    assert np.all(params[block] == 0.0)

    def test_same_seed_same_params(self):
        a = small_conv().init_params(0)
        b = small_conv().init_params(0)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = small_conv().init_params(0)
        b = small_conv().init_params(1)
        assert not np.array_equal(a, b)

    # SHA-256 of the little-endian float64 initial vector at the default
    # sizes. The bounds test above cannot see a change in block order, draw
    # order or draw sizes; these digests can.
    INIT_SHA256 = {
        ("mlp", 0): "bc6788ef36ad351534f47a834bd5a38bd833ade3537c8c1ffc5af77bc2cc66a0",
        ("mlp", 1): "f2e98b6d9bb3ad5b29b714b87553ca45f3ebcfed7a198770fc918bd97148d756",
        ("mlp", 2): "39ca90e5f72d8fa8edfc4f20d25b4113fed43b682cb5df115397ae1d0af4c966",
        ("shallow_conv", 0): "d67961a555bffd675b3bb1c3774d12802938462332e98f9cf9ba3968bc84e3a8",
        ("shallow_conv", 1): "027e596d077568b97d4859c410197a8ad61eb9d98534c2d19b0beecd8f829a8f",
        ("shallow_conv", 2): "37cdb460bd4de78888657b6c3b36008585241ce289d8e75dfa345ecc7092e099",
    }

    @pytest.mark.parametrize("architecture, seed", sorted(INIT_SHA256))
    def test_initial_values_pinned(self, architecture, seed):
        params = build_model(ModelConfig(architecture=architecture)).init_params(seed)
        blob = params.astype("<f8").tobytes()
        assert hashlib.sha256(blob).hexdigest() == self.INIT_SHA256[architecture, seed]


def bias_logits_model(logits):
    """An MLP over 1x1 trials with zero weights and output bias logits, so
    that every trial's logits are logits."""
    model = build_model(ModelConfig(architecture="mlp", n_channels=1, n_timepoints=1,
                                    n_classes=len(logits), hidden=(1,)))
    params = np.zeros(model.layout.size)
    model.layout.views(params)["b1"][:] = logits
    return model, params


def loss_at(logits, labels):
    """loss_and_gradient's loss and gradient over len(labels) trials whose
    logits are all logits."""
    model, params = bias_logits_model(logits)
    return loss_and_gradient(model, params, np.zeros((len(labels), 1, 1)), labels)


class TestSoftmax:
    """The log softmax inside the loss: a trial's loss is minus the log
    softmax of its logits at its label."""

    def test_log_softmax_of_equal_logits(self):
        for label in range(3):
            assert loss_at([5.0, 5.0, 5.0], [label] * 2)[0] == pytest.approx(math.log(3.0))

    def test_large_logits_stay_finite(self):
        for labels, expected in (([0], 0.0), ([1], 1000.0)):
            loss, grad = loss_at([1000.0, 0.0], labels)
            assert loss == pytest.approx(expected, abs=1e-12)
            assert np.all(np.isfinite(grad))


class TestCrossEntropy:
    def test_uniform_logits_give_log_2(self):
        assert loss_at([0.0, 0.0], [0])[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_logit_gap_of_one(self):
        # -log(e / (e + 1)) = log(1 + exp(-1))
        assert loss_at([1.0, 0.0], [0])[0] == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_confident_correct_prediction(self):
        assert loss_at([100.0, 0.0], [0])[0] < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(3)
        labels = rng.integers(0, 3, size=6)
        assert loss_at(logits + 123.0, labels)[0] == pytest.approx(
            loss_at(logits, labels)[0], abs=1e-10
        )

    def test_mean_over_batch(self):
        # log(1 + exp(-1)) for label 0 and log(1 + exp(1)) for label 1
        expected = (0.3132616875182228 + 1.3132616875182228) / 2.0
        assert loss_at([1.0, 0.0], [0, 1])[0] == pytest.approx(expected, abs=1e-12)

    def test_label_validation(self):
        model, params = bias_logits_model([0.0, 0.0])
        one = np.zeros((1, 1, 1))
        with pytest.raises(ValueError):
            loss_and_gradient(model, params, one, [2])
        with pytest.raises(ValueError):
            loss_and_gradient(model, params, one, [-1])
        with pytest.raises(ShapeError):
            loss_and_gradient(model, params, one, [0, 1])
        assert loss_at([0.0, 0.0], [0.0, 1.0, 0.0, 1.0])[0] == pytest.approx(math.log(2.0))
        model = small_mlp()
        x, _ = batch_for(model)
        for bad in ([0.7, 1.2, 0.1, 1.9], [0.0, np.nan, 0.0, 1.0], [0.0, np.inf, 0.0, 1.0]):
            with pytest.raises(ValueError, match="whole-number"):
                loss_at([0.0, 0.0], bad)
            with pytest.raises(ValueError, match="whole-number"):
                loss_and_gradient(model, model.init_params(0), x, bad)

    def test_empty_batch_rejected(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x = np.zeros((0, model.config.n_channels, model.config.n_timepoints))
            with pytest.raises(ShapeError):
                loss_and_gradient(model, params, x, [])
            for per_sample in (False, True):
                with pytest.raises(ShapeError):
                    gradient(model, params, x, [], per_sample=per_sample)


class TestForward:
    def test_empty_batch_rejected(self):
        # Both architectures reject a (0, channels, time) batch alike, in
        # the checked evaluation as in loss_and_gradient and gradient.
        for model in (small_mlp(), small_conv()):
            x = np.zeros((0, model.config.n_channels, model.config.n_timepoints))
            with pytest.raises(ShapeError, match="at least one trial"):
                evaluate_arrays(model, model.init_params(0), x, [])

    def test_zeroed_head_gives_constant_logits(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            head, head_bias = list(model.layout.slices)[-2:]
            views = model.layout.views(params)
            for name in (head, head_bias):
                views[name][:] = 0.0
            x, _ = batch_for(model)
            logits = model.forward_cached(params, x)[0]
            assert np.all(logits == 0.0)

    def test_single_trial_matches_batch_row(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, _ = batch_for(model, n=5)
            batch_logits = model.forward_cached(params, x)[0]
            for i in range(5):
                row = model.forward_cached(params, x[i : i + 1])[0][0]
                np.testing.assert_allclose(batch_logits[i], row, rtol=0, atol=1e-12)

    def test_forward_is_deterministic(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, _ = batch_for(model)
            logits = model.forward_cached(params, x)[0]
            assert np.array_equal(logits, model.forward_cached(params, x)[0])

    def test_output_shape(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, _ = batch_for(model, n=7)
            assert model.forward_cached(params, x)[0].shape == (7, 2)

    def test_conv_handles_many_input_shapes(self):
        rng = np.random.default_rng(3)
        for c in (1, 3, 16):
            for t in (8, 64, 128):
                cfg = ModelConfig(
                    architecture="shallow_conv", n_channels=c, n_timepoints=t,
                    n_classes=3, n_filters=2, kernel_len=min(16, t),
                )
                model = build_model(cfg)
                x = rng.standard_normal((2, c, t))
                logits = model.forward_cached(model.init_params(0), x)[0]
                assert logits.shape == (2, 3)
                assert np.all(np.isfinite(logits))

    def test_mlp_float32_batch_equals_float64(self):
        # A float32 batch computes in float32, so its logits equal the
        # float64 ones to float32 rounding, not bit for bit.
        model = small_mlp()
        params = model.init_params(0)
        x32 = batch_for(model, n=5)[0].astype(np.float32)
        logits = model.forward_cached(params, x32)[0]
        reference = model.forward_cached(params, x32.astype(np.float64))[0]
        assert logits.dtype == np.float64
        np.testing.assert_allclose(
            logits, reference, rtol=0, atol=FLOAT32_REL * np.abs(reference).max()
        )

    def test_wrong_input_shape_rejected(self):
        model = small_conv()
        params = model.init_params(0)
        for x in (np.zeros((2, 3, 8)), np.zeros((2, 8))):  # wrong channel count, no batch axis
            for call in (evaluate_arrays, loss_and_gradient, gradient):
                with pytest.raises(ShapeError, match="batch must have shape"):
                    call(model, params, x, [0, 1])


class TestComputeDtype:
    """Each network computes in its batch's dtype: float32 for a float32
    batch and float64 for any other real dtype. Logits and gradients come
    back float64 either way."""

    @pytest.mark.parametrize("make_model", [small_mlp, small_conv], ids=["mlp", "conv"])
    @pytest.mark.parametrize(
        ("dtype", "computed"),
        [(np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64),
         (np.int64, np.float64)],
        ids=["float32", "float64", "float16", "int64"],
    )
    def test_batch_dtype_sets_compute_dtype(self, make_model, dtype, computed):
        model = make_model()
        params = model.init_params(0)
        x, labels = batch_for(model, n=5)
        x = (4 * x).astype(dtype)  # scaled so that the int64 batch is not all zeros
        logits, cache = model.forward_cached(params, x)
        assert cache_dtypes(cache) == {np.dtype(computed)}
        assert logits.dtype == np.float64 and logits.shape == (5, model.config.n_classes)
        grad = loss_and_gradient(model, params, x, labels)[1]
        assert grad.dtype == np.float64 and grad.shape == (model.layout.size,)
        rows = gradient(model, params, x, labels, per_sample=True)
        assert rows.dtype == np.float64 and rows.shape == (5, model.layout.size)


class TestGradients:
    def test_matches_central_difference(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, labels = batch_for(model)

            def f(vec):
                return cross_entropy(model.forward_cached(vec, x)[0], labels)

            analytic = gradient(model, params, x, labels)
            numeric = central_difference(f, params)
            assert gradients_close(analytic, numeric)

    def test_batch_gradient_is_mean_of_per_sample(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, labels = batch_for(model, n=6)
            full = gradient(model, params, x, labels)
            rows = gradient(model, params, x, labels, per_sample=True)
            assert rows.shape == (6, model.layout.size)
            acc = np.zeros_like(full)
            for i in range(6):
                single = gradient(model, params, x[i : i + 1], labels[i : i + 1])
                np.testing.assert_allclose(rows[i], single, rtol=0, atol=1e-15)
                acc += single
            np.testing.assert_allclose(full, acc / 6.0, rtol=0, atol=1e-10)
            np.testing.assert_allclose(full, rows.mean(axis=0), rtol=0, atol=1e-15)

    def test_saturated_model_has_tiny_gradient(self):
        model = small_conv()
        params = model.init_params(0)
        model.layout.views(params)["head_bias"][:] = np.array([100.0, -100.0])
        x, _ = batch_for(model)
        labels = np.zeros(len(x), dtype=int)  # class 0 predicted with ~certainty
        assert np.max(np.abs(gradient(model, params, x, labels))) < 1e-4

    def test_gradient_matches_loss_and_gradient(self):
        model = small_conv()
        params = model.init_params(0)
        x, labels = batch_for(model)
        assert np.array_equal(
            gradient(model, params, x, labels),
            loss_and_gradient(model, params, x, labels)[1],
        )


def filter_then_mix_loss_and_gradient(model, params, x, labels):
    """Filter-then-mix ShallowConvNet, the reference the spatial-first code
    must match: every channel is filtered in time into an (n, filters,
    channels, windows) tensor before the spatial weights mix it. Returns
    (logits, loss, flat gradient)."""
    p = model.layout.views(params)
    w, v, head = p["temporal"], p["spatial"], p["head"]
    windows = np.lib.stride_tricks.sliding_window_view(x, model.config.kernel_len, axis=2)
    conv = np.einsum("ncul,fl->nfcu", windows, w)
    s = np.einsum("nfcu,fc->nfu", conv, v) + p["spatial_bias"][None, :, None]
    power = np.mean(s * s, axis=2)
    feats = np.log(power + LOG_EPS)
    logits = feats @ head.T + p["head_bias"]
    n = len(x)
    ls = log_softmax(logits)
    loss = float(-ls[np.arange(n), labels].mean())
    d = np.exp(ls)
    d[np.arange(n), labels] -= 1.0
    d /= n
    grad = np.zeros(model.layout.size)
    g = model.layout.views(grad)
    g["head"][:] = d.T @ feats
    g["head_bias"][:] = d.sum(axis=0)
    ds = (2.0 / model.n_windows) * s * ((d @ head) / (power + LOG_EPS))[:, :, None]
    g["spatial_bias"][:] = ds.sum(axis=(0, 2))
    g["spatial"][:] = np.einsum("nfu,nfcu->fc", ds, conv)
    g["temporal"][:] = np.einsum("nfu,fc,ncul->fl", ds, v, windows)
    return logits, loss, grad


def check_against_filter_then_mix(model, params, x, labels, rel=None):
    """Logits, loss, batch gradient and per-sample rows all match the
    filter-then-mix reference, computed in float64, to 1e-12. A row's bound
    scales with its largest entry once that exceeds 1: a single trial with
    little power gives entries near 1e3 at kernel_len = n_timepoints, where
    1e-12 is a few ulps. With rel, for a batch the model computes in
    float32, each one's bound is rel times its own largest entry."""
    x64 = np.asarray(x, dtype=np.float64)

    def close(actual, reference, scaled=False):
        largest = np.abs(reference).max()
        if rel is not None:
            bound = rel * largest
        else:
            bound = 1e-12 * (max(1.0, largest) if scaled else 1.0)
        np.testing.assert_allclose(actual, reference, rtol=0, atol=bound)

    logits, loss, grad = filter_then_mix_loss_and_gradient(model, params, x64, labels)
    close(model.forward_cached(params, x)[0], logits)
    new_loss, new_grad = loss_and_gradient(model, params, x, labels)
    close(new_loss, loss)
    close(new_grad, grad)
    rows = gradient(model, params, x, labels, per_sample=True)
    for i in range(len(x64)):
        _, _, row = filter_then_mix_loss_and_gradient(
            model, params, x64[i : i + 1], labels[i : i + 1]
        )
        close(rows[i], row, scaled=True)


class TestSpatialFirstConv:
    @pytest.mark.parametrize("kernel_len", [16, 1, 64], ids=["default", "k1", "k_full"])
    def test_matches_filter_then_mix(self, kernel_len):
        model = build_model(ModelConfig(kernel_len=kernel_len))
        x, labels = batch_for(model, n=32, seed=kernel_len)
        check_against_filter_then_mix(model, model.init_params(3), x, labels)

    def test_non_contiguous_batch(self):
        model = build_model(ModelConfig())
        x, labels = batch_for(model, n=32, seed=5)
        x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not x.flags.c_contiguous
        check_against_filter_then_mix(model, model.init_params(3), x, labels)

    def test_float32_batch(self):
        # A float32 batch computes in float32: each output is within float32
        # rounding of the float64 reference, measured at most 5.7e-7 of its
        # largest entry at the default shape (seeds 0-4). With one window,
        # at kernel_len = n_timepoints, the gradient's error reached 5.7e-5.
        model = build_model(ModelConfig())
        x, labels = batch_for(model, n=32, seed=6)
        check_against_filter_then_mix(
            model, model.init_params(3), x.astype(np.float32), labels, rel=FLOAT32_REL
        )
