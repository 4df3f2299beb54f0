"""Amateur/Expert co-training.

The amateur is a plain classifier over features; the expert maps the amateur's
class probabilities concatenated with a one-hot given label to a corrected
class distribution.  Each minibatch alternates: the expert takes one SGD step
toward the true labels on the concatenated input, then the freshly updated
expert's output becomes the amateur's soft target for its own SGD step.
Neither step propagates gradients into the other network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset, one_hot_batch, read_text
from .errors import ConfigurationError, DataError, DimensionError, InputError
from .nn import (
    CROSS_ENTROPY,
    Activation,
    Dense,
    Network,
    SgdState,
    StepDecay,
    backward,
    epoch_batches,
    forward,
    loss_and_gradients,
    lr_at,
    mlp,
    predict,
    sgd_step,
)
from .seeding import STREAM_INIT, derive_rng

DISTRIBUTION_TOL = 1e-6


def check_expert_terminal(kind: str) -> None:
    """The expert's output rule: it ends in softmax or sigmoid."""
    if kind not in ("softmax", "sigmoid"):
        raise ConfigurationError(f"expert must end in softmax or sigmoid, got expert terminal {kind!r}")


@dataclass
class ExpertNet:
    """Amateur and expert networks plus their optimizer states."""

    amateur: Network
    expert: Network
    amateur_state: SgdState
    expert_state: SgdState
    n_classes: int

    def __post_init__(self):
        k = self.n_classes
        if self.amateur.output_dim != k:
            raise DimensionError(f"amateur outputs {self.amateur.output_dim}, expected {k}")
        if self.expert.input_dim != 2 * k:
            raise DimensionError(
                f"expert input dim must be 2*{k} (probabilities + one-hot given label), "
                f"got {self.expert.input_dim}"
            )
        if self.expert.output_dim != k:
            raise DimensionError(f"expert outputs {self.expert.output_dim}, expected {k}")
        if self.amateur.terminal_kind != "softmax":
            raise ConfigurationError("amateur must end in softmax")
        check_expert_terminal(self.expert.terminal_kind)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    amateur_loss: float
    expert_loss: float | None
    val_amateur_accuracy: float
    val_full_accuracy: float | None

    def describe(self) -> str:
        """Losses and validation accuracies as `run.log` and `expertnet train` print them."""
        if self.expert_loss is None:
            return f"loss={self.amateur_loss:.6f} val_amateur={self.val_amateur_accuracy:.4f}"
        return (f"amateur_loss={self.amateur_loss:.6f} expert_loss={self.expert_loss:.6f} "
                f"val_amateur={self.val_amateur_accuracy:.4f} "
                f"val_full={self.val_full_accuracy:.4f}")


def amateur_network(feature_dim: int, n_classes: int, seed: int, hidden, momentum: float,
                    weight_decay: float):
    """Fresh relu MLP ending in softmax, and its optimizer state: (Network, SgdState).

    The co-training amateur and every baseline start here, so equal seeds give
    them equal initial weights.
    """
    net = mlp((feature_dim, *hidden, n_classes), hidden="relu", terminal="softmax",
              rng=derive_rng(seed, STREAM_INIT, 0))
    return net, SgdState.for_network(net, momentum, weight_decay)


def build_expertnet(feature_dim: int, n_classes: int, seed: int,
                    amateur_hidden=(128, 64), expert_hidden=(64, 32),
                    expert_terminal: str = "softmax", leaky_slope: float = 0.01,
                    momentum: float = 0.9, weight_decay: float = 1e-4) -> ExpertNet:
    """Fresh model: the amateur of `amateur_network`, a leaky-relu expert MLP over 2K inputs."""
    check_expert_terminal(expert_terminal)
    amateur, amateur_state = amateur_network(feature_dim, n_classes, seed, amateur_hidden,
                                             momentum, weight_decay)
    expert = mlp((2 * n_classes, *expert_hidden, n_classes), hidden="leaky-relu",
                 terminal=expert_terminal, leaky_slope=leaky_slope,
                 rng=derive_rng(seed, STREAM_INIT, 1))
    return ExpertNet(
        amateur=amateur,
        expert=expert,
        amateur_state=amateur_state,
        expert_state=SgdState.for_network(expert, momentum, weight_decay),
        n_classes=n_classes,
    )


def expert_input(amateur_probs, given_labels) -> np.ndarray:
    """Concatenate (B, K) probability rows with one-hot given labels, in that order."""
    probs = np.asarray(amateur_probs, dtype=float)
    if probs.ndim != 2:
        raise DimensionError(f"probabilities must be (B, K) rows, got shape {probs.shape}")
    if (probs < -DISTRIBUTION_TOL).any() or (probs > 1.0 + DISTRIBUTION_TOL).any():
        raise DataError("probability entries outside [0, 1]")
    if (np.abs(np.add.reduce(probs, axis=1) - 1.0) > DISTRIBUTION_TOL).any():
        raise DataError("probability rows must sum to 1")
    return _join_given(probs, given_labels)


def _join_given(probs: np.ndarray, given_labels) -> np.ndarray:
    # (B, K) rows + one-hot given labels; the caller vouches that rows are distributions
    labels = np.asarray(given_labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise DimensionError(f"{probs.shape[0]} probability rows but {labels.shape} labels")
    return np.concatenate([probs, one_hot_batch(labels, probs.shape[1])], axis=1)


def _soft_target(model: ExpertNet, expert_out: np.ndarray) -> np.ndarray:
    # sigmoid-terminal experts emit unnormalized rows; rescale to distributions
    if model.expert.terminal_kind == "softmax":
        return expert_out
    return expert_out / np.add.reduce(expert_out, axis=1, keepdims=True)


def train_step(model: ExpertNet, x, given_labels, true_labels, lr: float):
    """One alternating minibatch update; returns (amateur loss, expert loss).

    Order: amateur predicts, predictions join the one-hot given labels, the
    expert updates toward the true labels, the updated expert re-predicts, and
    the amateur updates toward that output as a constant soft target.  With
    lr == 0 both losses are still measured and the model is left untouched.
    Each network's forward pass on the batch runs once per parameter state:
    the amateur does not change before its own update, so its backward pass
    reuses the activations of its prediction.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[0] == 0:
        raise DataError("empty batch")
    amateur_probs, amateur_acts = forward(model.amateur, x)
    # the amateur ends in softmax (ExpertNet checks), so its rows are distributions
    z = _join_given(amateur_probs, given_labels)
    true_onehot = one_hot_batch(true_labels, model.n_classes)
    expert_loss, expert_grads = loss_and_gradients(model.expert, z, true_onehot, CROSS_ENTROPY)
    sgd_step(model.expert.params, expert_grads, model.expert_state, lr)
    expert_out, _ = forward(model.expert, z)
    amateur_target = _soft_target(model, expert_out)
    amateur_loss, amateur_grads = backward(model.amateur, amateur_acts, amateur_target,
                                           CROSS_ENTROPY)
    sgd_step(model.amateur.params, amateur_grads, model.amateur_state, lr)
    return amateur_loss, expert_loss


def accuracy(predictions, truths) -> float:
    """Fraction of predictions equal to the true labels."""
    p = np.asarray(predictions, dtype=np.int64)
    t = np.asarray(truths, dtype=np.int64)
    if p.shape != t.shape or p.ndim != 1:
        raise DataError(f"prediction/truth shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise DataError("cannot score an empty prediction list")
    return float(np.count_nonzero(p == t)) / p.size


def infer_amateur(model: ExpertNet, x) -> np.ndarray:
    """Argmax of the amateur's probabilities; ties go to the lowest class index."""
    return np.argmax(predict(model.amateur, x), axis=1)


def infer_full(model: ExpertNet, x, given_labels) -> np.ndarray:
    """Argmax of the expert applied to (amateur probabilities, given label)."""
    return _full_predictions(model, predict(model.amateur, x), given_labels)


def _full_predictions(model: ExpertNet, probs, given_labels) -> np.ndarray:
    # full mode from an amateur pass already taken, so evaluation can share it
    return np.argmax(predict(model.expert, expert_input(probs, given_labels)), axis=1)


def fit(net: Network, step, train_set: Dataset, val_set: Dataset, epochs: int,
        batch_size: int, schedule: StepDecay, seed: int, full=None):
    """The epoch loop every training procedure shares.

    Rejects empty splits and a train split without given labels.  Per epoch,
    `step(features, given_labels, true_labels, lr)` updates on each seeded
    batch and returns (amateur loss, expert loss or None); then one pass of
    `net` over the validation split scores the amateur, and `full(probs)`,
    when given, turns that pass into full-mode predictions, which read the
    validation split's given labels.  Returns the history of EpochStats.
    """
    for name, ds, needs_given in (("train", train_set, True),
                                  ("validation", val_set, full is not None)):
        if ds.n == 0:
            raise ConfigurationError(f"{name} set is empty")
        if needs_given and ds.given_labels is None:
            raise ConfigurationError(f"{name} set has no given labels; inject noise first")
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    history: list[EpochStats] = []
    # overflow surfaces as NumericError from the non-finite checks, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            lr = lr_at(schedule, epoch)
            amateur_losses, expert_losses = zip(*[
                step(train_set.features[idx], train_set.given_labels[idx],
                     train_set.true_labels[idx], lr)
                for idx in epoch_batches(train_set.n, batch_size, seed, epoch)])
            probs = predict(net, val_set.features)
            history.append(EpochStats(
                epoch=epoch,
                amateur_loss=float(np.mean(amateur_losses)),
                expert_loss=None if expert_losses[0] is None else float(np.mean(expert_losses)),
                val_amateur_accuracy=accuracy(np.argmax(probs, axis=1), val_set.true_labels),
                val_full_accuracy=None if full is None else accuracy(full(probs),
                                                                     val_set.true_labels),
            ))
    return history


def train(model: ExpertNet, train_set: Dataset, val_set: Dataset, epochs: int,
          batch_size: int, schedule: StepDecay, seed: int):
    """Seeded epochs of alternating minibatch updates (`train_step`), through `fit`.

    Records per-epoch mean losses and validation accuracy in both inference
    modes, both from one amateur pass.  Deterministic per seed.
    """
    history = fit(model.amateur, partial(train_step, model), train_set, val_set, epochs,
                  batch_size, schedule, seed,
                  full=partial(_full_predictions, model, given_labels=val_set.given_labels))
    return model, history


# --- checkpointing -----------------------------------------------------------

CHECKPOINT_FORMAT = "expertnet-checkpoint"
CHECKPOINT_VERSION = 1


def _layer_to_json(layer):
    if layer.kind == "dense":
        return {"kind": "dense", "weight": layer.weight.tolist(), "bias": layer.bias.tolist()}
    entry = {"kind": layer.kind}
    if layer.kind == "leaky-relu":
        entry["slope"] = layer.slope
    return entry


def _layer_from_json(entry):
    if entry["kind"] == "dense":
        return Dense(np.array(entry["weight"]), np.array(entry["bias"]))
    return Activation(entry["kind"], slope=entry.get("slope", 0.01))


def save_checkpoint(model: ExpertNet, path) -> None:
    """Write a self-describing JSON checkpoint (decimal parameter values)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n_classes": model.n_classes,
        "feature_dim": model.amateur.input_dim,
        "amateur": [_layer_to_json(l) for l in model.amateur.layers],
        "expert": [_layer_to_json(l) for l in model.expert.layers],
        "amateur_opt": {"momentum": model.amateur_state.momentum,
                        "weight_decay": model.amateur_state.weight_decay},
        "expert_opt": {"momentum": model.expert_state.momentum,
                       "weight_decay": model.expert_state.weight_decay},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> ExpertNet:
    """Rebuild a model for inference; optimizer velocity starts at zero."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"{path} is not an {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    try:
        amateur = Network([_layer_from_json(e) for e in doc["amateur"]])
        expert = Network([_layer_from_json(e) for e in doc["expert"]])
        return ExpertNet(
            amateur=amateur,
            expert=expert,
            amateur_state=SgdState.for_network(amateur, **doc["amateur_opt"]),
            expert_state=SgdState.for_network(expert, **doc["expert_opt"]),
            n_classes=doc["n_classes"],
        )
    except KeyError as exc:
        raise InputError(f"{path}: checkpoint entry {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: checkpoint entry of the wrong type ({exc})") from None
