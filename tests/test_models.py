import hashlib
import math
import pickle

import numpy as np
import pytest

from eegcl import ConfigError, ModelConfig
from eegcl.errors import EmptyInputError, ShapeError
from eegcl.models import (
    LOG_EPS,
    Params,
    build_model,
    gradient,
    loss_and_gradient,
    params_from_bytes,
    params_to_bytes,
)

from helpers import central_difference, cross_entropy, gradients_close, log_softmax


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


class TestParams:
    def test_layout_size_must_match_vector(self):
        model = small_conv()
        with pytest.raises(ShapeError):
            Params(vector=np.zeros(model.n_params + 1), layout=model.layout)

    def test_vector_must_be_1d(self):
        model = small_conv()
        with pytest.raises(ShapeError):
            Params(vector=np.zeros((model.n_params, 1)), layout=model.layout)

    def test_view_is_writable_alias(self):
        params = small_conv().init_params(0)
        params.view("head_bias")[:] = 7.0
        assert np.all(params.view("head_bias") == 7.0)
        # the block is a view into the flat vector, not a copy
        assert np.any(params.vector == 7.0)

    def test_unknown_block_name(self):
        params = small_conv().init_params(0)
        with pytest.raises(KeyError):
            params.view("nonexistent")

    def test_pickle_round_trip(self):
        params = small_conv().init_params(0)
        out = pickle.loads(pickle.dumps(params))
        assert out.layout == params.layout
        assert np.array_equal(out.view("spatial"), params.view("spatial"))

    def test_views_write_into_vector_after_pickle(self):
        out = pickle.loads(pickle.dumps(small_conv().init_params(0)))
        out.view("spatial")[0, 0] = 123.0
        block, _ = out.layout.slices["spatial"]
        assert out.vector[block][0] == 123.0

    def test_copy_is_independent(self):
        params = small_conv().init_params(0)
        dup = params.copy()
        dup.vector[0] += 1.0
        assert params.vector[0] != dup.vector[0]

    def test_default_conv_parameter_count(self):
        model = build_model(ModelConfig())
        # 8x16 temporal + 8x8 spatial + 8 bias + 2x8 head + 2 bias
        assert model.n_params == 218

    def test_bytes_round_trip(self):
        model = small_mlp()
        params = model.init_params(0)
        out = params_from_bytes(params_to_bytes(params), model.layout)
        assert np.array_equal(out.vector, params.vector)

    def test_bytes_bad_magic(self):
        model = small_mlp()
        blob = params_to_bytes(model.init_params(0))
        with pytest.raises(ValueError):
            params_from_bytes(b"XXXX" + blob[4:], model.layout)

    def test_bytes_bad_length(self):
        model = small_mlp()
        blob = params_to_bytes(model.init_params(0))
        with pytest.raises(ValueError):
            params_from_bytes(blob[:-8], model.layout)
        with pytest.raises(ValueError):
            params_from_bytes(blob[:3], model.layout)


class TestInitialization:
    def test_weights_within_glorot_bounds_biases_zero(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            for name, _, fan in model.layout:
                block = params.view(name)
                if fan is None:
                    assert np.all(block == 0.0)
                else:
                    fan_in, fan_out = fan
                    lim = math.sqrt(6.0 / (fan_in + fan_out))
                    assert np.all(np.abs(block) <= lim)
                    assert np.any(block != 0.0)

    def test_same_seed_same_params(self):
        a = small_conv().init_params(0)
        b = small_conv().init_params(0)
        assert np.array_equal(a.vector, b.vector)

    def test_different_seed_differs(self):
        a = small_conv().init_params(0)
        b = small_conv().init_params(1)
        assert not np.array_equal(a.vector, b.vector)

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
        blob = params.vector.astype("<f8").tobytes()
        assert hashlib.sha256(blob).hexdigest() == self.INIT_SHA256[architecture, seed]


def bias_logits_model(logits):
    """An MLP over 1x1 trials with zero weights and output bias logits, so
    that every trial's logits are logits."""
    model = build_model(ModelConfig(architecture="mlp", n_channels=1, n_timepoints=1,
                                    n_classes=len(logits), hidden=(1,)))
    params = Params(vector=np.zeros(model.n_params), layout=model.layout)
    params.view("b1")[:] = logits
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
            with pytest.raises(EmptyInputError):
                loss_and_gradient(model, params, x, [])
            for per_sample in (False, True):
                with pytest.raises(EmptyInputError):
                    gradient(model, params, x, [], per_sample=per_sample)


class TestForward:
    def test_empty_batch_rejected(self):
        # Both architectures reject a (0, channels, time) batch alike.
        for model in (small_mlp(), small_conv()):
            x = np.zeros((0, model.config.n_channels, model.config.n_timepoints))
            with pytest.raises(EmptyInputError, match="at least one trial"):
                model.forward(model.init_params(0), x)

    def test_zeroed_head_gives_constant_logits(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            (head, _, _), (head_bias, _, _) = model.layout[-2:]
            for name in (head, head_bias):
                params.view(name)[:] = 0.0
            x, _ = batch_for(model)
            logits = model.forward(params, x)
            assert np.all(logits == 0.0)

    def test_single_trial_matches_batch_row(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, _ = batch_for(model, n=5)
            batch_logits = model.forward(params, x)
            for i in range(5):
                row = model.forward(params, x[i : i + 1])[0]
                np.testing.assert_allclose(batch_logits[i], row, rtol=0, atol=1e-12)

    def test_forward_is_deterministic(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, _ = batch_for(model)
            assert np.array_equal(model.forward(params, x), model.forward(params, x))

    def test_output_shape(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, _ = batch_for(model, n=7)
            assert model.forward(params, x).shape == (7, 2)

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
                logits = model.forward(model.init_params(0), x)
                assert logits.shape == (2, 3)
                assert np.all(np.isfinite(logits))

    def test_wrong_input_shape_rejected(self):
        model = small_conv()
        params = model.init_params(0)
        with pytest.raises(ShapeError):
            model.forward(params, np.zeros((2, 3, 8)))  # wrong channel count
        with pytest.raises(ShapeError):
            model.forward(params, np.zeros((2, 8)))  # missing batch axis


class TestGradients:
    def test_matches_central_difference(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, labels = batch_for(model)

            def f(vec):
                p = Params(vector=vec, layout=model.layout)
                return cross_entropy(model.forward(p, x), labels)

            analytic = gradient(model, params, x, labels)
            numeric = central_difference(f, params.vector)
            assert gradients_close(analytic, numeric)

    def test_batch_gradient_is_mean_of_per_sample(self):
        for model in (small_mlp(), small_conv()):
            params = model.init_params(0)
            x, labels = batch_for(model, n=6)
            full = gradient(model, params, x, labels)
            rows = gradient(model, params, x, labels, per_sample=True)
            assert rows.shape == (6, model.n_params)
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
        params.view("head_bias")[:] = np.array([100.0, -100.0])
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
    w = params.view("temporal")
    v = params.view("spatial")
    head = params.view("head")
    windows = np.lib.stride_tricks.sliding_window_view(x, model.config.kernel_len, axis=2)
    conv = np.einsum("ncul,fl->nfcu", windows, w)
    s = np.einsum("nfcu,fc->nfu", conv, v) + params.view("spatial_bias")[None, :, None]
    power = np.mean(s * s, axis=2)
    feats = np.log(power + LOG_EPS)
    logits = feats @ head.T + params.view("head_bias")
    n = len(x)
    ls = log_softmax(logits)
    loss = float(-ls[np.arange(n), labels].mean())
    d = np.exp(ls)
    d[np.arange(n), labels] -= 1.0
    d /= n
    grad = Params(vector=np.zeros(model.n_params), layout=model.layout)
    grad.view("head")[:] = d.T @ feats
    grad.view("head_bias")[:] = d.sum(axis=0)
    ds = (2.0 / model.n_windows) * s * ((d @ head) / (power + LOG_EPS))[:, :, None]
    grad.view("spatial_bias")[:] = ds.sum(axis=(0, 2))
    grad.view("spatial")[:] = np.einsum("nfu,nfcu->fc", ds, conv)
    grad.view("temporal")[:] = np.einsum("nfu,fc,ncul->fl", ds, v, windows)
    return logits, loss, grad.vector


def check_against_filter_then_mix(model, params, x, labels):
    """Logits, loss, batch gradient and per-sample rows all match the
    filter-then-mix reference to 1e-12. A row's bound scales with its
    largest entry once that exceeds 1: a single trial with little power
    gives entries near 1e3 at kernel_len = n_timepoints, where 1e-12 is a
    few ulps."""
    x64 = np.asarray(x, dtype=np.float64)
    logits, loss, grad = filter_then_mix_loss_and_gradient(model, params, x64, labels)
    np.testing.assert_allclose(model.forward(params, x), logits, rtol=0, atol=1e-12)
    new_loss, new_grad = loss_and_gradient(model, params, x, labels)
    assert abs(new_loss - loss) <= 1e-12
    np.testing.assert_allclose(new_grad, grad, rtol=0, atol=1e-12)
    rows = gradient(model, params, x, labels, per_sample=True)
    for i in range(len(x64)):
        _, _, row = filter_then_mix_loss_and_gradient(
            model, params, x64[i : i + 1], labels[i : i + 1]
        )
        scale = max(1.0, np.abs(row).max())
        np.testing.assert_allclose(rows[i], row, rtol=0, atol=1e-12 * scale)


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
        model = build_model(ModelConfig())
        x, labels = batch_for(model, n=32, seed=6)
        check_against_filter_then_mix(model, model.init_params(3), x.astype(np.float32), labels)
