"""Minimal dense-network engine.

Forward evaluation, reverse-mode gradients, cross-entropy on hard or soft
targets, and SGD with momentum, weight decay and step learning-rate decay.
Each network's parameters live in one flat float64 buffer that the optimizer
mutates in place, and its dense layers' weights and biases are views into it;
everything else is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_array_size
from .errors import ConfigurationError, DimensionError, NumericError
from .noise import validate_transition_matrix

LOG_EPS = 1e-12  # clamp inside logarithms

ACTIVATION_KINDS = ("relu", "leaky-relu", "sigmoid", "softmax")


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction so large logits cannot overflow.

    `out`, when given, receives the result; it may be `logits` itself.
    """
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise DimensionError("softmax: empty input")
    if not np.isfinite(z).all():
        raise NumericError("softmax: non-finite logits")
    e = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


class Dense:
    """Affine layer y = x @ W.T + b with weight (out, in) and bias (out,)."""

    kind = "dense"

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        weight = np.asarray(weight, dtype=float)
        bias = np.asarray(bias, dtype=float)
        if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
            raise DimensionError(
                f"dense: weight {weight.shape} and bias {bias.shape} are inconsistent"
            )
        self.weight = weight
        self.bias = bias

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x):
        out = x @ self.weight.T
        out += self.bias
        return out

    def backward(self, x, grad_out, grad_weight, grad_bias, input_grad):
        # fills the parameter gradients in place; returns the input gradient if asked
        np.matmul(grad_out.T, x, out=grad_weight)
        np.add.reduce(grad_out, axis=0, out=grad_bias)
        return grad_out @ self.weight if input_grad else None


class Activation:
    """Parameter-free nonlinearity: relu, leaky-relu, sigmoid, or softmax."""

    def __init__(self, kind: str, slope: float = 0.01):
        if kind not in ACTIVATION_KINDS:
            raise ConfigurationError(f"unknown activation kind {kind!r}")
        if kind == "leaky-relu" and not 0.0 < slope < 1.0:
            raise ConfigurationError(f"leaky-relu slope must be in (0, 1), got {slope}")
        self.kind = kind
        self.slope = float(slope)

    def apply(self, x, out=None):
        # `out`, when given, receives the result; it may be `x` itself
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        if self.kind == "leaky-relu":
            return np.maximum(x, self.slope * x, out=out)  # exact: 0 < slope < 1
        if self.kind == "sigmoid":
            # split by sign to avoid exp overflow
            out = np.empty_like(x) if out is None else out
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out
        return softmax(x, out)

    def backward(self, out, grad_out):
        # from the output alone: for relu and leaky-relu (0 < slope < 1), out > 0 iff x > 0
        if self.kind == "relu":
            return grad_out * (out > 0.0)
        if self.kind == "leaky-relu":
            return np.where(out > 0.0, grad_out, self.slope * grad_out)
        if self.kind == "sigmoid":
            return out * (1.0 - out) * grad_out
        # softmax rows couple: dL/dz = a * (g - sum(a * g))
        dot = np.add.reduce(out * grad_out, axis=-1, keepdims=True)
        return out * (grad_out - dot)


class Network:
    """Dense layers, each followed by one activation, whose dimensions chain.

    `params` is one flat buffer holding every dense layer's weight then bias,
    in layer order.  Its dense layers are new `Dense` layers over
    `views(params)`; the dense layers it was given keep their own arrays.
    """

    def __init__(self, layers):
        layers = list(layers)
        if not layers or [l.kind == "dense" for l in layers] != [True, False] * (len(layers) // 2):
            raise ConfigurationError("a network is dense layers each followed by one activation, "
                                     f"got {[l.kind for l in layers]}")
        dense = layers[::2]
        for prev, layer in zip(dense, dense[1:]):
            if layer.in_dim != prev.out_dim:
                raise DimensionError(
                    f"layer expects width {layer.in_dim} but receives {prev.out_dim}")
        check_mlp_dims([dense[0].in_dim, *(l.out_dim for l in dense)], "dense layer")
        self.input_dim, self.output_dim = dense[0].in_dim, dense[-1].out_dim
        self.shapes = [l.weight.shape for l in dense]
        self.params = np.concatenate([a.ravel() for l in dense for a in (l.weight, l.bias)])
        self.layers = [l for view, act in zip(self.views(self.params), layers[1::2])
                       for l in (Dense(*view), act)]

    def views(self, flat):
        """Each dense layer's (weight, bias) views into `flat`, laid out like `params`."""
        views, stop = [], 0
        for rows, cols in self.shapes:
            start, stop = stop, stop + rows * cols + rows
            views.append((flat[start:stop - rows].reshape(rows, cols), flat[stop - rows:stop]))
        return views

    @property
    def terminal_kind(self) -> str:
        return self.layers[-1].kind


def forward(net: Network, batch) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network on a (B, in) batch; the one pass, with or without gradients.

    Returns the (B, out) output and the per-layer activations [x, z1, a1, ...]
    (input first, output last), which backward passes reuse.  Each activation
    runs in place over the dense output it follows, which this pass allocated,
    so its entry is that dense layer's array and the batch is never written.
    """
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"batch must be (B, {net.input_dim}) rows, got shape {x.shape}")
    if x.shape[1] != net.input_dim:
        raise DimensionError(f"batch width {x.shape[1]} != network input dim {net.input_dim}")
    acts = [x]
    for dense, activation in zip(net.layers[::2], net.layers[1::2]):
        out = dense.apply(acts[-1])
        acts += (out, activation.apply(out, out=out))
    if not np.isfinite(acts[-1]).all():
        raise NumericError("network produced non-finite outputs")
    return acts[-1], acts


class CrossEntropyLoss:
    """Mean cross-entropy of predictions against (possibly soft) target rows."""

    def value(self, prediction, target) -> float:
        """-sum(target * ln(max(prediction, eps))), averaged over rows if 2-D."""
        t = np.asarray(target, dtype=float)
        p = np.asarray(prediction, dtype=float)
        if t.shape != p.shape:
            raise DimensionError(f"cross-entropy: target shape {t.shape} vs prediction {p.shape}")
        per_row = -np.add.reduce(t * np.log(np.maximum(p, LOG_EPS)), axis=-1)
        return float(np.add.reduce(per_row, axis=None) / per_row.size)

    def prediction_grad(self, prediction, target):
        n = prediction.shape[0]
        clamped = np.maximum(prediction, LOG_EPS)
        # entries at the clamp floor have zero local derivative
        return np.where(prediction > LOG_EPS, -target / clamped, 0.0) / n


CROSS_ENTROPY = CrossEntropyLoss()


class ForwardCorrectedLoss(CrossEntropyLoss):
    """Cross-entropy of noisy targets against matrix-mixed predictions.

    The prediction rows are pushed through a row-stochastic transition matrix
    (`noisy`) before the usual cross-entropy, so the model is scored on the
    noisy-label distribution it should induce.
    """

    def __init__(self, matrix):
        self.matrix = validate_transition_matrix(matrix)

    def noisy(self, prediction) -> np.ndarray:
        """Predicted noisy-label distribution: out_j = sum_i T[i, j] * pred_i."""
        p = np.asarray(prediction, dtype=float)
        if p.shape[-1] != self.matrix.shape[0]:
            raise DimensionError(
                f"prediction width {p.shape[-1]} != matrix size {self.matrix.shape[0]}")
        return p @ self.matrix

    def value(self, prediction, target) -> float:
        return super().value(self.noisy(prediction), target)

    def prediction_grad(self, prediction, target):
        return super().prediction_grad(self.noisy(prediction), target) @ self.matrix.T


def backward(net: Network, acts, targets, loss):
    """Loss value and parameter gradients of a finished forward pass.

    `acts` is the activation list `forward(net, batch)` returned, taken with
    the parameters the gradients are for.  Gradients are one new flat array
    aligned with net.params that each dense layer fills in place; the pass
    walks the (dense, activation) pairs from the last, and the first pair
    takes no input gradient, so no gradient of the batch is computed.
    """
    if len(acts) != len(net.layers) + 1:
        raise DimensionError(f"{len(acts)} activations for a {len(net.layers)}-layer network")
    targets = np.asarray(targets, dtype=float)  # prediction_grad negates it
    out = acts[-1]
    value = loss.value(out, targets)  # raises DimensionError for targets of another shape
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss value {value!r}")
    grad = loss.prediction_grad(out, targets)
    grads = np.empty_like(net.params)
    pairs = zip(net.layers[::2], net.layers[1::2], acts[::2], acts[2::2], net.views(grads))
    for i, (dense, activation, x, a, (grad_w, grad_b)) in reversed(list(enumerate(pairs))):
        grad = dense.backward(x, activation.backward(a, grad), grad_w, grad_b, i > 0)
    return value, grads


def loss_and_gradients(net: Network, batch, targets, loss):
    """Mean-over-batch loss value and its gradient for every parameter."""
    return backward(net, forward(net, batch)[1], targets, loss)


def check_sgd_setting(momentum: float, weight_decay: float) -> None:
    """The one SGD setting's rule: momentum in [0, 1), weight decay finite and >= 0."""
    if not 0.0 <= momentum < 1.0:
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
    if not 0.0 <= weight_decay < np.inf:
        raise ConfigurationError(f"weight decay must be finite and >= 0, got {weight_decay}")


def sgd_step(params, grads, velocity, lr: float, momentum: float, weight_decay: float):
    """v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v.

    Mutates the flat parameter buffer and its velocity, an array of the same
    shape, in place; at lr == 0 it checks its arguments and changes nothing.
    """
    if not lr >= 0.0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    check_sgd_setting(momentum, weight_decay)
    if not params.shape == grads.shape == velocity.shape:
        raise DimensionError(f"shape mismatch: param {params.shape}, grad {grads.shape}, "
                             f"velocity {velocity.shape}")
    if lr == 0.0:
        return
    velocity *= momentum
    velocity += grads + weight_decay * params  # one expression: splitting it changes the bytes
    params -= lr * velocity


@dataclass(frozen=True)
class StepDecay:
    """Learning rate base_lr * factor**(epoch // period); period None = constant."""

    base_lr: float
    factor: float = 0.1
    period: int | None = None

    def __post_init__(self):
        if not self.base_lr > 0.0:
            raise ConfigurationError(f"base learning rate must be > 0, got {self.base_lr}")
        if not self.factor > 0.0:
            raise ConfigurationError(f"decay factor must be > 0, got {self.factor}")
        if self.period is not None and self.period < 1:
            raise ConfigurationError(f"decay period must be >= 1, got {self.period}")


def lr_at(schedule: StepDecay, epoch: int) -> float:
    if epoch < 0:
        raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
    if schedule.period is None:
        return schedule.base_lr
    return schedule.base_lr * schedule.factor ** (epoch // schedule.period)


def check_mlp_dims(dims, what: str = "mlp") -> None:
    """Reject dims `mlp` cannot build, checking the values alone: allocates nothing.

    Every width is >= 1 (a zero-width layer can only answer uniform rows); `what`
    names the dims in that message."""
    if len(dims) < 2:
        raise ConfigurationError("mlp needs at least input and output dims")
    if min(dims) < 1:
        raise ConfigurationError(f"{what} width must be >= 1, got {min(dims)}")
    for in_dim, out_dim in zip(dims, dims[1:]):
        check_array_size(f"dense layer {in_dim} -> {out_dim}", out_dim, in_dim)


def mlp(dims, hidden: str = "relu", terminal: str = "softmax",
        leaky_slope: float = 0.01, *, rng: np.random.Generator) -> Network:
    """Fully connected stack: dense+hidden activation per layer, custom terminal."""
    dims = list(dims)
    check_mlp_dims(dims)
    layers = []
    for i, (in_dim, out_dim) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (in_dim + out_dim))  # Glorot uniform; biases zero
        layers.append(Dense(rng.uniform(-limit, limit, size=(out_dim, in_dim)), np.zeros(out_dim)))
        kind = terminal if i == len(dims) - 2 else hidden
        layers.append(Activation(kind, slope=leaky_slope))
    return Network(layers)


def gradient_check(net: Network, batch, targets, loss, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradients and central differences of the loss."""
    analytic = loss_and_gradients(net, batch, targets, loss)[1]
    p, numeric, targets = net.params, np.zeros_like(net.params), np.asarray(targets, dtype=float)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up = loss.value(forward(net, batch)[0], targets)
        p[i] = orig - h
        numeric[i] = (up - loss.value(forward(net, batch)[0], targets)) / (2.0 * h)
        p[i] = orig
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
