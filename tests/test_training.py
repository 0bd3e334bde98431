import math

import numpy as np
import pytest

from eegcl import ConfigError, ModelConfig, TrainConfig, TrainingDivergedError
from eegcl.data import Split
from eegcl.errors import EmptyInputError, ShapeError
from eegcl.models import build_model, check_batch, loss_and_gradient
from eegcl.training import Adam, EpochStats, Sgd, evaluate_arrays, train

from helpers import separable_subject, tiny_arrays


def tiny_model():
    return build_model(
        ModelConfig(architecture="mlp", n_channels=2, n_timepoints=4,
                    n_classes=2, hidden=(4,))
    )


def tiny_conv():
    return build_model(
        ModelConfig(architecture="shallow_conv", n_channels=2, n_timepoints=4,
                    n_classes=2, n_filters=3, kernel_len=2)
    )


def split_sets(subject):
    return subject.arrays(Split.TRAIN), subject.arrays(Split.VAL)


def reference_train(model, params, train_set, val_set, cfg, seed, penalty=None):
    """train() as a plain loop over the public API: the split checked
    sample-major, and each step loss_and_gradient on a fancy-indexed batch,
    plus the penalty when given, followed by an optimizer step."""
    x, y = check_batch(model, *train_set)
    x_val, y_val = check_batch(model, *val_set)
    rng = np.random.default_rng(seed)
    work = params.copy()
    if cfg.optimizer == "adam":
        optimizer = Adam.fresh(cfg.learning_rate, work.n_params)
    else:
        optimizer = Sgd(cfg.learning_rate)
    best, best_acc, bad_epochs, history = work.copy(), -math.inf, 0, []
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(x))
        loss_sum = 0.0
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = loss_and_gradient(model, work, x[idx], y[idx])
            if penalty is not None:
                p_loss, p_grad = penalty(work.vector)
                loss, grad = loss + float(p_loss), grad + p_grad
            optimizer.step(work.vector, grad)
            loss_sum += loss * len(idx)
        val_acc = evaluate_arrays(model, work, x_val, y_val)
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / len(x), val_accuracy=val_acc))
        if val_acc > best_acc:
            best, best_acc, bad_epochs = work.copy(), val_acc, 0
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience:
            break
    return best, history


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=-1)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="lbfgs")


class TestOptimizers:
    def test_adam_first_step_is_signed_learning_rate(self):
        # with zero state, m_hat == grad and v_hat == grad^2, so the first
        # update is lr * g / (|g| + eps) ~= lr * sign(g)
        opt = Adam.fresh(learning_rate=0.1, n_params=3)
        vec = np.zeros(3)
        grad = np.array([5.0, -2.0, 0.5])
        opt.step(vec, grad)
        np.testing.assert_allclose(vec, [-0.1, 0.1, -0.1], rtol=1e-6)

    def test_adam_state_advances(self):
        opt = Adam.fresh(learning_rate=0.1, n_params=1)
        vec = np.zeros(1)
        opt.step(vec, np.array([1.0]))
        opt.step(vec, np.array([1.0]))
        assert opt.t == 2
        assert vec[0] == pytest.approx(-0.2, rel=1e-5)

    def test_sgd_step_is_exact(self):
        opt = Sgd(learning_rate=0.5)
        vec = np.array([1.0, 2.0])
        opt.step(vec, np.array([2.0, -4.0]))
        assert np.array_equal(vec, [0.0, 4.0])


class TestCheckBatch:
    def test_shapes_and_dtypes(self):
        model = tiny_model()
        x32 = tiny_arrays(np.random.default_rng(0), 5)[0].astype(np.float32)
        x, y = check_batch(model, x32, [0, 1, 0, 1, 0])
        assert x.shape == (5, 2, 4)
        assert x.dtype == np.float64
        assert y.dtype == np.int64
        assert list(y) == [0, 1, 0, 1, 0]
        assert check_batch(model, x32, y, dtype=None)[0] is x32

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            check_batch(tiny_model(), np.empty((0, 2, 4)), np.empty(0))


class TestEvaluate:
    def test_all_correct_scores_one(self):
        model = tiny_model()
        params = model.init_params(0)
        x, _ = tiny_arrays(np.random.default_rng(1), 8)
        logits = model.forward(params, x)
        y = np.argmax(logits, axis=1)
        assert evaluate_arrays(model, params, x, y) == 1.0

    def test_single_trial_is_zero_or_one(self):
        model = tiny_model()
        params = model.init_params(0)
        x, y = tiny_arrays(np.random.default_rng(2), 1)
        assert evaluate_arrays(model, params, x, y) in (0.0, 1.0)

    def test_argmax_ties_pick_lowest_class(self):
        # zeroed head makes every logit row constant, so ties resolve to
        # class 0 and accuracy equals the fraction of 0-labels
        model = tiny_model()
        params = model.init_params(0)
        params.view("w1")[:] = 0.0
        params.view("b1")[:] = 0.0
        x, y = tiny_arrays(np.random.default_rng(3), 10)
        assert evaluate_arrays(model, params, x, y) == pytest.approx(np.mean(y == 0))

    def test_random_params_near_chance_on_balanced_data(self):
        model = tiny_model()
        params = model.init_params(0)
        acc = evaluate_arrays(model, params, *tiny_arrays(np.random.default_rng(4), 2000))
        assert 0.4 <= acc <= 0.6

    def test_empty_rejected(self):
        model = tiny_model()
        with pytest.raises(EmptyInputError):
            evaluate_arrays(model, model.init_params(0), np.empty((0, 2, 4)), np.empty(0))

    def test_label_count_must_match(self):
        model = tiny_model()
        x, y = tiny_arrays(np.random.default_rng(5), 4)
        for bad in ([1], y[:3], y[:, None]):
            with pytest.raises(ShapeError):
                evaluate_arrays(model, model.init_params(0), x, bad)

    def test_labels_must_be_class_indices(self):
        # Out-of-range or fractional labels raise instead of counting as
        # wrong predictions.
        model = tiny_model()
        x, _ = tiny_arrays(np.random.default_rng(6), 4)
        for bad, match in (([0, 1, 2, 0], r"lie in \[0, 2\)"), ([0, -1, 0, 1], r"lie in \[0, 2\)"),
                           ([0.0, 0.5, 1.0, 1.0], "whole-number")):
            with pytest.raises(ValueError, match=match):
                evaluate_arrays(model, model.init_params(0), x, bad)


class TestTrain:
    def separable_sets(self, seed=0):
        subject = separable_subject(
            np.random.default_rng(seed), 0, 30, splits=(Split.TRAIN, Split.TRAIN, Split.VAL)
        )
        return split_sets(subject)

    def test_learns_a_separable_problem(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=60, batch_size=8, patience=10)
        best, history = train(model, model.init_params(0), train_set, val_set, cfg, 0)
        assert evaluate_arrays(model, best, *train_set) == 1.0
        assert history[-1].val_accuracy == 1.0

    def test_bad_validation_labels_rejected(self):
        train_set, (x_val, y_val) = self.separable_sets()
        model = tiny_model()
        with pytest.raises(ValueError, match="lie in"):
            train(model, model.init_params(0), train_set, (x_val, y_val + 2), TrainConfig(), 0)

    def test_patience_zero_runs_exactly_one_epoch(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        cfg = TrainConfig(max_epochs=50, patience=0)
        _, history = train(model, model.init_params(0), train_set, val_set, cfg, 0)
        assert len(history) == 1

    def test_same_config_reproduces_run(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=10, batch_size=8, patience=10)
        best_a, hist_a = train(model, model.init_params(0), train_set, val_set, cfg, 0)
        best_b, hist_b = train(model, model.init_params(0), train_set, val_set, cfg, 0)
        assert hist_a == hist_b
        assert np.array_equal(best_a.vector, best_b.vector)

    @pytest.mark.parametrize("make_model", [tiny_model, tiny_conv], ids=["mlp", "conv"])
    def test_float32_stage_matches_float64_input(self, make_model):
        # A float32 training split is kept as float32 and each batch is cast
        # to float64: the run equals one on the same values in float64.
        model = make_model()
        (x, y), (x_val, y_val) = (check_batch(model, *s) for s in self.separable_sets())
        x32 = x.astype(np.float32)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=5, batch_size=8, patience=5)
        runs = [train(model, model.init_params(0), (xs, y), (x_val, y_val), cfg, 0)
                for xs in (x32, x32.astype(np.float64))]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][0].vector, runs[1][0].vector)

    def test_ties_keep_the_earliest_epoch(self):
        # if epoch 1 already hits the best validation accuracy, later epochs
        # tie at most and must not displace it: training longer returns the
        # same snapshot as stopping after one epoch
        train_set, val_set = self.separable_sets(seed=5)
        model = tiny_model()
        base = dict(learning_rate=0.05, batch_size=8, patience=10)
        long_best, long_hist = train(
            model, model.init_params(0), train_set, val_set,
            TrainConfig(max_epochs=5, **base), 0,
        )
        short_best, short_hist = train(
            model, model.init_params(0), train_set, val_set,
            TrainConfig(max_epochs=1, **base), 0,
        )
        assert short_hist[0].val_accuracy == 1.0
        assert max(h.val_accuracy for h in long_hist) == 1.0
        assert np.array_equal(long_best.vector, short_best.vector)

    def test_input_params_never_mutated(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        params = model.init_params(0)
        before = params.vector.copy()
        train(model, params, train_set, val_set, TrainConfig(max_epochs=3, patience=5), 0)
        assert np.array_equal(params.vector, before)

    def test_divergence_raises(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        poison = lambda vec: (np.nan, np.zeros_like(vec))
        with pytest.raises(TrainingDivergedError):
            train(
                model, model.init_params(0), train_set, val_set,
                TrainConfig(max_epochs=3), 0, penalty=poison,
            )

    def test_zero_penalty_equals_no_penalty(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=5, batch_size=8, patience=10)
        hook = lambda vec: (0.0, np.zeros_like(vec))
        best_a, hist_a = train(model, model.init_params(0), train_set, val_set, cfg, 0)
        best_b, hist_b = train(
            model, model.init_params(0), train_set, val_set, cfg, 0, penalty=hook
        )
        assert hist_a == hist_b
        assert np.array_equal(best_a.vector, best_b.vector)

    def test_history_epochs_are_one_based(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        _, history = train(
            model, model.init_params(0), train_set, val_set,
            TrainConfig(max_epochs=3, patience=5), 0,
        )
        assert [h.epoch for h in history] == list(range(1, len(history) + 1))

    @pytest.mark.parametrize("make_model", [tiny_model, tiny_conv], ids=["mlp", "conv"])
    @pytest.mark.parametrize("penalized", [False, True], ids=["plain", "penalty"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_matches_reference_loop(self, make_model, penalized, optimizer):
        # 40 training trials in batches of 7 leave a short last batch.
        train_set, val_set = self.separable_sets(seed=2)
        model = make_model()
        cfg = TrainConfig(learning_rate=0.02, max_epochs=6, batch_size=7, patience=3,
                          optimizer=optimizer)
        hook = (lambda vec: (0.05 * float(vec @ vec), 0.1 * vec)) if penalized else None
        params = model.init_params(0)
        best, history = train(model, params, train_set, val_set, cfg, 11, penalty=hook)
        ref_best, ref_history = reference_train(model, params, train_set, val_set, cfg, 11, hook)
        assert history == ref_history
        assert np.array_equal(best.vector, ref_best.vector)

    def test_sgd_optimizer_runs(self):
        train_set, val_set = self.separable_sets()
        model = tiny_model()
        cfg = TrainConfig(learning_rate=0.05, max_epochs=30, batch_size=8,
                          patience=10, optimizer="sgd")
        best, _ = train(model, model.init_params(0), train_set, val_set, cfg, 0)
        assert evaluate_arrays(model, best, *train_set) > 0.9
