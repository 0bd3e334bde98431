"""Mini-batch training with early stopping, plus evaluation helpers.

The loop optimizes mean cross-entropy with Adam or plain SGD. The model
computes only that data term (models.unchecked_loss_and_gradient); train()
adds an optional penalty hook, such as EWC's, to each step's loss and
gradient right after it. The loop tracks validation accuracy each epoch and
returns the parameters from the best validation epoch. Everything is seeded,
so identical configs reproduce identical histories on one numpy build, one
BLAS kernel and one BLAS thread setting (README, "Determinism and seeds").
Input checks run once per stage; a step only indexes a batch and does the
model's arithmetic, the penalty and the optimizer update. The model computes
in the split's dtype, float32 for a subject's trials; the parameters, the
penalty and the optimizer stay float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, check_fields, integer, number, one_of
from .models import check_batch, check_params, unchecked_loss_and_gradient
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


def _accuracy(model, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    predictions = np.argmax(model.forward_cached(params, x)[0], axis=1)
    return float(np.mean(predictions == y))


def evaluate_arrays(model, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest
    class index. check_params and check_batch run first, so a misshapen
    vector, an empty batch or labels that are not class indices raise."""
    params = check_params(model, params)
    x, y = check_batch(model, x, y)
    return _accuracy(model, params, x, y)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss raises below
def train(model, params: np.ndarray, train_set, val_set, cfg: TrainConfig, seed: int,
          penalty=None):
    """Early-stopped mini-batch training.

    train_set and val_set are (x, y) pairs of arrays, such as
    SubjectDataset.arrays returns; seed drives the per-epoch shuffle.
    Returns (best params, per-epoch history). Best means highest validation
    accuracy, earliest epoch on ties; the loop stops once `patience` epochs
    in a row fail to improve it (patience 0 therefore stops after the first
    epoch), or once it reaches 1.0, which no later epoch can exceed. That
    second stop returns the same parameters as running on, with a shorter
    history; a stage that reaches 1.0 also returns before any later epoch's
    non-finite loss could raise TrainingDivergedError. The input vector is
    left untouched. penalty, when given, maps the flat parameter vector to
    (extra loss, extra gradient); every step adds both to the model's
    cross-entropy loss and gradient.

    Once per stage, the parameters (check_params) and both splits
    (check_batch) are checked; the splits keep their own dtype (float32 for
    a subject's block). Each step indexes its batch's rows and runs the
    forward/backward arithmetic, which computes in the batch's dtype and
    returns a float64 gradient, and the optimizer update; each epoch's
    validation pass runs the forward pass alone, on the split checked at
    the start.
    """
    work = np.array(check_params(model, params))
    x_train, y_train = check_batch(model, *train_set)
    x_val, y_val = check_batch(model, *val_set)
    n = len(x_train)
    rng = np.random.default_rng(seed)
    optimizer = _make_optimizer(cfg, work.size)
    best = work.copy()
    best_acc = -math.inf
    bad_epochs = 0
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = unchecked_loss_and_gradient(model, work, x_train[idx], y_train[idx])
            if penalty is not None:
                p_loss, p_grad = penalty(work)
                loss = loss + float(p_loss)
                grad += p_grad
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became {loss} at epoch {epoch}, "
                    f"batch starting at sample {start}"
                )
            optimizer.step(work, grad)
            loss_sum += loss * len(idx)
        val_acc = _accuracy(model, work, x_val, y_val)
        history.append(
            EpochStats(epoch=epoch, train_loss=loss_sum / n, val_accuracy=val_acc)
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best = work.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience or best_acc == 1.0:
            break
    return best, history
