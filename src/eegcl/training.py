"""Mini-batch training with early stopping, plus evaluation helpers.

The loop optimizes mean cross-entropy with Adam or plain SGD. The model
computes only that data term (models.unchecked_loss_and_gradient); train()
adds an optional penalty hook, such as EWC's, to each step's loss and
gradient right after it. The loop tracks validation accuracy each epoch and
returns the parameters from the best validation epoch. Everything is seeded
and single-threaded so identical configs reproduce identical histories.
Input checks and layout changes run once per stage; a step only gathers a
batch and does the model's arithmetic, the penalty and the optimizer update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, check_fields, integer, number, one_of
from .models import Params, check_batch, unchecked_loss_and_gradient
from .models import loss_and_gradient  # noqa: F401  traced as training.loss_and_gradient by bench/

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 200
    batch_size: int = 32
    patience: int = 20
    optimizer: str = "adam"

    RULES = {
        "learning_rate": number(0, exclusive=True),
        "max_epochs": integer(1),
        "batch_size": integer(1),
        "patience": integer(0),
        "optimizer": one_of(("adam", "sgd")),
    }

    def __post_init__(self):
        check_fields(self, "train", self.RULES)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass
class Adam:
    """Adam with bias correction; mutates the parameter vector in place."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, learning_rate: float, n_params: int) -> "Adam":
        return cls(learning_rate=learning_rate, m=np.zeros(n_params), v=np.zeros(n_params))

    def step(self, vector: np.ndarray, grad: np.ndarray):
        # In place, in the operation order of the update below, so that the
        # result is bit-identical to evaluating it with fresh arrays:
        #   m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        #   vector -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        g2 = (1.0 - ADAM_BETA2) * grad
        g2 *= grad
        self.v *= ADAM_BETA2
        self.v += g2
        denom = self.v / (1.0 - ADAM_BETA2**self.t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update = self.m / (1.0 - ADAM_BETA1**self.t)
        update *= self.learning_rate
        update /= denom
        vector -= update


@dataclass
class Sgd:
    learning_rate: float

    def step(self, vector: np.ndarray, grad: np.ndarray):
        vector -= self.learning_rate * grad


def _make_optimizer(cfg: TrainConfig, n_params: int):
    if cfg.optimizer == "adam":
        return Adam.fresh(cfg.learning_rate, n_params)
    return Sgd(learning_rate=cfg.learning_rate)


def evaluate_arrays(model, params: Params, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest
    class index. The batch passes check_batch first, so an empty batch or
    labels that are not class indices raise."""
    x, y = check_batch(model, x, y)
    predictions = np.argmax(model.forward_cached(params, x)[0], axis=1)
    return float(np.mean(predictions == y))


def train(model, params: Params, train_set, val_set, cfg: TrainConfig, seed: int,
          penalty=None):
    """Early-stopped mini-batch training.

    train_set and val_set are (x, y) pairs of arrays, such as
    SubjectDataset.arrays returns; seed drives the per-epoch shuffle.
    Returns (best params, per-epoch history). Best means highest validation
    accuracy, earliest epoch on ties; the loop stops once `patience` epochs
    in a row fail to improve it (patience 0 therefore stops after the first
    epoch). The input params object is left untouched. penalty, when given,
    maps the flat parameter vector to (extra loss, extra gradient); every
    step adds both to the model's cross-entropy loss and gradient.

    Once per stage: both splits are checked (check_batch), and the
    training split is stored, in its own dtype (float32 for a subject's
    block), in the layout the model reads without a copy (its
    trial_axis). Each step only gathers a batch from it with np.take,
    casts it to float64 and runs the forward/backward arithmetic and the
    optimizer update.
    """
    x_train, y_train = check_batch(model, *train_set, dtype=None)
    x_val, y_val = check_batch(model, *val_set)
    n = len(x_train)
    axis = model.trial_axis
    x_train = np.ascontiguousarray(x_train.swapaxes(0, axis))
    rng = np.random.default_rng(seed)
    work = params.copy()
    optimizer = _make_optimizer(cfg, work.n_params)
    best = work.copy()
    best_acc = -math.inf
    bad_epochs = 0
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = np.take(x_train, idx, axis=axis).astype(np.float64).swapaxes(0, axis)
            loss, grad = unchecked_loss_and_gradient(model, work, x, y_train[idx])
            if penalty is not None:
                p_loss, p_grad = penalty(work.vector)
                loss = loss + float(p_loss)
                grad += p_grad
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became {loss} at epoch {epoch}, "
                    f"batch starting at sample {start}"
                )
            optimizer.step(work.vector, grad)
            loss_sum += loss * len(idx)
        val_acc = evaluate_arrays(model, work, x_val, y_val)
        history.append(
            EpochStats(epoch=epoch, train_loss=loss_sum / n, val_accuracy=val_acc)
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best = work.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience:
            break
    return best, history
