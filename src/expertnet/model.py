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
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Dataset, one_hot_batch, read_text, write_files
from .errors import ConfigurationError, DataError, DimensionError, InputError
from .nn import (
    CROSS_ENTROPY,
    Activation,
    Dense,
    Network,
    StepDecay,
    backward,
    check_sgd_setting,
    forward,
    loss_and_gradients,
    lr_at,
    mlp,
    sgd_step,
)
from .seeding import STREAM_INIT, STREAM_SHUFFLE, derive_rng

DISTRIBUTION_TOL = 1e-6


def check_expert_terminal(kind: str) -> None:
    """The expert's output rule: it ends in softmax or sigmoid."""
    if kind not in ("softmax", "sigmoid"):
        raise ConfigurationError(f"expert must end in softmax or sigmoid, got expert terminal {kind!r}")


@dataclass
class ExpertNet:
    """Amateur and expert networks, their one SGD setting, and a velocity for each network."""

    amateur: Network
    expert: Network
    momentum: float = 0.9
    weight_decay: float = 1e-4
    amateur_velocity: np.ndarray = field(init=False)
    expert_velocity: np.ndarray = field(init=False)

    def __post_init__(self):
        k = self.amateur.output_dim  # the class count every other width follows
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
        check_sgd_setting(self.momentum, self.weight_decay)
        self.amateur_velocity = np.zeros_like(self.amateur.params)
        self.expert_velocity = np.zeros_like(self.expert.params)


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


def amateur_network(feature_dim: int, n_classes: int, seed: int, hidden) -> Network:
    """Fresh relu MLP ending in softmax: the co-training amateur and every baseline start
    here, so equal seeds give them equal initial weights."""
    return mlp((feature_dim, *hidden, n_classes), hidden="relu", terminal="softmax",
               rng=derive_rng(seed, STREAM_INIT, 0))


def build_expertnet(feature_dim: int, n_classes: int, seed: int,
                    amateur_hidden=(128, 64), expert_hidden=(64, 32),
                    expert_terminal: str = "softmax", leaky_slope: float = 0.01,
                    momentum: float = 0.9, weight_decay: float = 1e-4) -> ExpertNet:
    """Fresh model: the amateur of `amateur_network`, a leaky-relu expert MLP over 2K inputs."""
    check_expert_terminal(expert_terminal)
    expert = mlp((2 * n_classes, *expert_hidden, n_classes), hidden="leaky-relu",
                 terminal=expert_terminal, leaky_slope=leaky_slope,
                 rng=derive_rng(seed, STREAM_INIT, 1))
    return ExpertNet(amateur_network(feature_dim, n_classes, seed, amateur_hidden), expert,
                     momentum, weight_decay)


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
    return np.concatenate([probs, one_hot_batch(given_labels, probs.shape[1], len(probs))],
                          axis=1)


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
    true_onehot = one_hot_batch(true_labels, model.amateur.output_dim, len(z))
    expert_loss, expert_grads = loss_and_gradients(model.expert, z, true_onehot, CROSS_ENTROPY)
    sgd_step(model.expert.params, expert_grads, model.expert_velocity, lr, model.momentum,
             model.weight_decay)
    expert_out, _ = forward(model.expert, z)
    if model.expert.terminal_kind == "sigmoid":  # unnormalized rows: rescale to distributions
        expert_out /= np.add.reduce(expert_out, axis=1, keepdims=True)
    amateur_loss, amateur_grads = backward(model.amateur, amateur_acts, expert_out, CROSS_ENTROPY)
    sgd_step(model.amateur.params, amateur_grads, model.amateur_velocity, lr, model.momentum,
             model.weight_decay)
    return amateur_loss, expert_loss


def accuracy(predictions, truths) -> float:
    """Fraction of predictions equal to the true labels."""
    p, t = np.asarray(predictions), np.asarray(truths)
    if p.shape != t.shape or p.ndim != 1:
        raise DataError(f"prediction/truth shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise DataError("cannot score an empty prediction list")
    return float(np.count_nonzero(p == t)) / p.size


def infer_amateur(model: ExpertNet, x) -> np.ndarray:
    """Argmax of the amateur's probabilities; ties go to the lowest class index."""
    return np.argmax(forward(model.amateur, x)[0], axis=1)


def infer_full(model: ExpertNet, x, given_labels) -> np.ndarray:
    """Argmax of the expert applied to (amateur probabilities, given label)."""
    return _full_predictions(model, forward(model.amateur, x)[0], given_labels)


def _full_predictions(model: ExpertNet, probs, given_labels) -> np.ndarray:
    # full mode from an amateur pass already taken, so evaluation can share it
    return np.argmax(forward(model.expert, expert_input(probs, given_labels))[0], axis=1)


def check_fit_setting(epochs: int, batch_size: int) -> None:
    """The one rule for `fit`'s epochs and batch size, which the config shares: both >= 1."""
    for key, value in (("epochs", epochs), ("batch_size", batch_size)):
        if value < 1:
            raise ConfigurationError(f"{key} must be >= 1, got {value}")


def fit(net: Network, step, train_set: Dataset, val_set: Dataset, epochs: int,
        batch_size: int, schedule: StepDecay, seed: int, full=None):
    """The epoch loop every training procedure shares.

    Rejects empty splits and a train split without given labels.  Each epoch cuts one
    permutation of the train rows, drawn from (seed, epoch) alone so that equal seeds give
    every method the same batches, into `batch_size` slices, the last one partial, and calls
    `step(features, given_labels, true_labels, lr)` on each for (amateur loss, expert loss or
    None).  One pass of `net` over the validation split then scores the amateur, `full(probs)`,
    when given, turns it into full-mode predictions, and one EpochStats per epoch is returned.
    """
    for name, ds, needs_given in (("train", train_set, True),
                                  ("validation", val_set, full is not None)):
        if ds.n == 0:
            raise ConfigurationError(f"{name} set is empty")
        if needs_given and ds.given_labels is None:
            raise ConfigurationError(f"{name} set has no given labels; inject noise first")
    check_fit_setting(epochs, batch_size)
    history: list[EpochStats] = []
    # overflow surfaces as NumericError from the non-finite checks, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            lr = lr_at(schedule, epoch)
            order = derive_rng(seed, STREAM_SHUFFLE, epoch).permutation(train_set.n)
            amateur_losses, expert_losses = zip(*[
                step(train_set.features[idx], train_set.given_labels[idx],
                     train_set.true_labels[idx], lr)
                for idx in (order[i:i + batch_size] for i in range(0, train_set.n, batch_size))])
            probs = forward(net, val_set.features)[0]
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
    """Write a JSON checkpoint: both networks' layers (decimal values) and their SGD setting."""
    setting = {"momentum": model.momentum, "weight_decay": model.weight_decay}
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "amateur": [_layer_to_json(l) for l in model.amateur.layers],
        "expert": [_layer_to_json(l) for l in model.expert.layers],
        "amateur_opt": setting,  # version 1 names the one setting twice
        "expert_opt": setting,
    }
    write_files({path: json.dumps(doc) + "\n"})


def load_checkpoint(path) -> ExpertNet:
    """Rebuild a model for inference; optimizer velocity starts at zero."""
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # also too deep, or too long an integer
        raise InputError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise InputError(f"{path} is not an {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    try:
        amateur = Network([_layer_from_json(e) for e in doc["amateur"]])
        expert = Network([_layer_from_json(e) for e in doc["expert"]])
        if not (np.isfinite(amateur.params).all() and np.isfinite(expert.params).all()):
            raise InputError(f"{path}: a weight is not a finite number")
        if doc["expert_opt"] != doc["amateur_opt"]:
            raise InputError(f"{path}: amateur_opt and expert_opt differ; both networks "
                             "train with one SGD setting")
        return ExpertNet(amateur, expert, **doc["amateur_opt"])
    except KeyError as exc:
        raise InputError(f"{path}: checkpoint entry {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: checkpoint entry of the wrong type ({exc})") from None
    except OverflowError:  # an integer weight beyond float range
        raise InputError(f"{path}: a weight is not a finite number") from None
    except (ConfigurationError, DimensionError) as exc:  # layers that cannot form the model
        raise InputError(f"{path}: {exc}") from None
