import numpy as np
import pytest

from eegcl import ConfigError, ModelConfig
from eegcl.errors import EmptyInputError
from eegcl.ewc import OnlineEwc, fisher_diagonal, penalty
from eegcl.models import Params, build_model, gradient

from helpers import central_difference, tiny_arrays


def tiny_model():
    return build_model(
        ModelConfig(architecture="mlp", n_channels=2, n_timepoints=4,
                    n_classes=2, hidden=(3,))
    )


class TestFisherAnchor:
    # Named for the deleted FisherAnchor class so that the test keeps its id.
    @pytest.mark.parametrize("lam", [np.nan, np.inf, "1", True, None])
    def test_non_number_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="ewc lambda"):
            OnlineEwc(lam=lam)


class TestPenalty:
    def test_zero_at_the_anchor(self):
        anchor, fisher = np.array([1.0, -2.0]), np.array([3.0, 4.0])
        scalar, grad = penalty(np.array([1.0, -2.0]), anchor, fisher, 5.0)
        assert scalar == 0.0
        assert np.array_equal(grad, [0.0, 0.0])

    def test_zero_lambda_switches_it_off(self):
        scalar, grad = penalty(np.array([5.0, -5.0]), np.zeros(2), np.ones(2), 0.0)
        assert scalar == 0.0
        assert np.array_equal(grad, [0.0, 0.0])

    def test_worked_example(self):
        # (lambda/2) * sum F (theta - anchor)^2 with unit fisher, lambda 2,
        # and displacement [1, -1]: scalar 2, gradient [2, -2]
        scalar, grad = penalty(np.array([1.0, -1.0]), np.zeros(2), np.ones(2), 2.0)
        assert scalar == 2.0
        assert np.array_equal(grad, [2.0, -2.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        anchor, fisher = rng.standard_normal(6), rng.random(6)
        vec = rng.standard_normal(6)
        _, grad = penalty(vec, anchor, fisher, 7.0)
        numeric = central_difference(lambda v: penalty(v, anchor, fisher, 7.0)[0], vec)
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-6)


def tiny_models():
    conv = ModelConfig(architecture="shallow_conv", n_channels=2, n_timepoints=4,
                       n_classes=2, n_filters=2, kernel_len=2)
    return tiny_model(), build_model(conv)


class TestFisherDiagonal:
    def test_single_sample_is_squared_gradient(self):
        for model in tiny_models():
            params = model.init_params(0)
            x, y = tiny_arrays(np.random.default_rng(1), 1)
            fisher = fisher_diagonal(model, params, (x, y))
            g = gradient(model, params, x, y)
            np.testing.assert_allclose(fisher, g * g, rtol=0, atol=1e-15)

    def test_mean_of_per_sample_squares(self):
        for model in tiny_models():
            params = model.init_params(0)
            x, y = tiny_arrays(np.random.default_rng(2), 5)
            fisher = fisher_diagonal(model, params, (x, y))
            acc = np.zeros(params.n_params)
            for i in range(5):
                g = gradient(model, params, x[i : i + 1], y[i : i + 1])
                acc += g * g
            np.testing.assert_allclose(fisher, acc / 5.0, rtol=0, atol=1e-10)

    def test_nonnegative_and_finite(self):
        for model in tiny_models():
            params = model.init_params(0)
            fisher = fisher_diagonal(model, params, tiny_arrays(np.random.default_rng(3), 8))
            assert np.all(fisher >= 0)
            assert np.all(np.isfinite(fisher))

    def test_saturated_model_has_negligible_fisher(self):
        # a model that predicts every sample's label with near-certainty has
        # near-zero gradients, hence near-zero importance everywhere
        for model in tiny_models():
            params = model.init_params(0)
            head_bias, _, _ = model.layout[-1]
            params.view(head_bias)[:] = np.array([100.0, -100.0])
            x, y = tiny_arrays(np.random.default_rng(4), 10)
            fisher = fisher_diagonal(model, params, (x[y == 0], y[y == 0]))
            assert float(np.max(fisher)) < 1e-8

    def test_empty_dataset_rejected(self):
        for model in tiny_models():
            with pytest.raises(EmptyInputError):
                fisher_diagonal(model, model.init_params(0), (np.empty((0, 2, 4)), []))


class TestOnlineEwc:
    def test_starts_without_anchor_or_hook(self):
        ewc = OnlineEwc(lam=10.0)
        assert ewc.anchor is None
        assert ewc.fisher is None
        assert ewc.penalty_hook() is None

    def test_update_sets_anchor_copy(self):
        model = tiny_model()
        params = model.init_params(0)
        ewc = OnlineEwc(lam=10.0)
        ewc.update(model, params, tiny_arrays(np.random.default_rng(5), 4))
        assert np.array_equal(ewc.anchor, params.vector)
        params.vector[0] += 99.0
        assert ewc.anchor[0] != params.vector[0]

    def test_fisher_accumulates_across_updates(self):
        model = tiny_model()
        params = model.init_params(0)
        set_a = tiny_arrays(np.random.default_rng(6), 4)
        set_b = tiny_arrays(np.random.default_rng(7), 4)
        f_a = fisher_diagonal(model, params, set_a)
        f_b = fisher_diagonal(model, params, set_b)
        ewc = OnlineEwc(lam=1.0)
        ewc.update(model, params, set_a)
        ewc.update(model, params, set_b)
        np.testing.assert_allclose(ewc.fisher, f_a + f_b, rtol=0, atol=1e-12)

    def test_reanchors_to_latest_params(self):
        model = tiny_model()
        first = model.init_params(0)
        ewc = OnlineEwc(lam=1.0)
        xy = tiny_arrays(np.random.default_rng(8), 4)
        ewc.update(model, first, xy)
        second = first.copy()
        second.vector += 0.5
        ewc.update(model, second, xy)
        assert np.array_equal(ewc.anchor, second.vector)

    def test_hook_captures_state_at_creation(self):
        model = tiny_model()
        params = model.init_params(0)
        ewc = OnlineEwc(lam=2.0)
        ewc.update(model, params, tiny_arrays(np.random.default_rng(9), 4))
        hook = ewc.penalty_hook()
        at_anchor_loss, at_anchor_grad = hook(params.vector)
        assert at_anchor_loss == 0.0
        assert np.all(at_anchor_grad == 0.0)
        shifted = params.vector + 1.0
        loss, grad = hook(shifted)
        assert loss > 0.0
        expected, _ = penalty(shifted, ewc.anchor, ewc.fisher, 2.0)
        assert loss == expected
        # a later update makes new arrays and leaves the hook's own alone
        moved = params.copy()
        moved.vector += 1.0
        ewc.update(model, moved, tiny_arrays(np.random.default_rng(10), 4))
        again, again_grad = hook(shifted)
        assert again == loss
        assert np.array_equal(again_grad, grad)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            OnlineEwc(lam=-1.0)
