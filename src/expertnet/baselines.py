"""Reference training procedures for the harness comparison.

All three train an amateur-shaped classifier with the same batching, init and
optimizer contract as the co-training loop, differing only in the per-batch
loss recipe: plain cross-entropy on the given labels, bootstrap's convex blend
of given label and own prediction, or forward correction through a transition
matrix.  None of them sees given labels at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, one_hot_batch
from .errors import ConfigurationError, DataError, DimensionError
from .model import amateur_network, fit
from .nn import CROSS_ENTROPY, ForwardCorrectedLoss, StepDecay, backward, forward, sgd_step

BASELINE_KINDS = ("plain-ce", "bootstrap", "forward")


@dataclass(frozen=True)
class BaselineSpec:
    kind: str
    beta: float = 0.8
    variant: str = "soft"
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ConfigurationError(f"unknown baseline {self.kind!r}")
        if self.kind == "bootstrap":
            if not 0.0 < self.beta <= 1.0:
                raise ConfigurationError(f"bootstrap beta must be in (0, 1], got {self.beta}")
            if self.variant not in ("soft", "hard"):
                raise ConfigurationError(f"bootstrap variant must be soft or hard, got {self.variant!r}")
        if self.kind == "forward" and self.matrix is None:
            raise ConfigurationError("forward baseline needs a transition matrix")


def bootstrap_target(pred, given_labels, beta: float, variant: str = "soft") -> np.ndarray:
    """beta*onehot(given) + (1-beta)*(pred or onehot(argmax pred)), over (B, K) rows.

    beta = 0 is allowed here (degenerate: the prediction itself); BaselineSpec
    restricts configured runs to (0, 1].
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError(f"beta must be in [0, 1], got {beta}")
    if variant not in ("soft", "hard"):
        raise ConfigurationError(f"variant must be soft or hard, got {variant!r}")
    p = np.asarray(pred, dtype=float)
    if p.ndim != 2:
        raise DimensionError(f"predictions must be (B, K) rows, got shape {p.shape}")
    labels = np.asarray(given_labels)
    if labels.shape != (p.shape[0],):
        raise DataError(f"{p.shape[0]} prediction rows but {labels.shape} labels")
    given = one_hot_batch(labels, p.shape[1])
    model_part = p if variant == "soft" else one_hot_batch(np.argmax(p, axis=1), p.shape[1])
    return beta * given + (1.0 - beta) * model_part


def train_baseline(spec: BaselineSpec, train_set: Dataset, val_set: Dataset,
                   epochs: int, batch_size: int, schedule: StepDecay, seed: int,
                   hidden=(128, 64), momentum: float = 0.9, weight_decay: float = 1e-4):
    """Train one amateur-shaped network under the chosen loss recipe.

    Only the per-batch step is its own: `fit` runs the epochs and
    `amateur_network` builds the network, so equal seeds give the co-training
    loop's batch sequences and the amateur's initial weights.  Validation
    accuracy is amateur-only (no given labels at inference).
    Returns (network, history of EpochStats).
    """
    net = amateur_network(train_set.dim, train_set.n_classes, seed, hidden)
    velocity = np.zeros_like(net.params)
    loss = ForwardCorrectedLoss(spec.matrix) if spec.kind == "forward" else CROSS_ENTROPY

    def step(x, y, _, lr):
        pred, acts = forward(net, x)
        if spec.kind == "bootstrap":
            target = bootstrap_target(pred, y, spec.beta, spec.variant)
        else:
            target = one_hot_batch(y, train_set.n_classes)
        loss_value, grads = backward(net, acts, target, loss)
        sgd_step(net.params, grads, velocity, lr, momentum, weight_decay)
        return loss_value, None

    history = fit(net, step, train_set, val_set, epochs, batch_size, schedule, seed)
    return net, history
