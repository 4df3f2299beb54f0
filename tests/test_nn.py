"""Engine tests: softmax/cross-entropy against high-precision oracles, forward
against scalar re-evaluation, gradients against central finite differences,
and the optimizer against hand recurrences."""

import math
import re
import tracemalloc
from decimal import Decimal, getcontext

import numpy as np
import pytest

from expertnet.errors import ConfigurationError, DimensionError, NumericError
from expertnet.nn import (
    CROSS_ENTROPY,
    Activation,
    CrossEntropyLoss,
    Dense,
    ForwardCorrectedLoss,
    Network,
    StepDecay,
    backward,
    forward,
    gradient_check,
    loss_and_gradients,
    lr_at,
    mlp,
    sgd_step,
    softmax,
)
from expertnet.noise import symmetric_matrix
from expertnet.seeding import derive_rng

getcontext().prec = 60


def decimal_softmax(logits):
    """Independent >=50-digit direct evaluation of exp(z_k)/sum exp(z_j)."""
    exps = [Decimal(str(z)).exp() for z in logits]
    total = sum(exps)
    return [float(e / total) for e in exps]


# frozen from the decimal oracle above
SOFTMAX_ORACLE = [9.141568690309075e-05, 2.0450394757837084e-06, 0.9999065392736212]
CE_HALF_ORACLE = 0.8369882167858358  # -(0.5 ln 0.25 + 0.5 ln 0.75)


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_analytic_case():
    out = softmax([math.log(2.0), 0.0, 0.0])
    assert np.allclose(out, [0.5, 0.25, 0.25], atol=1e-15)


def test_softmax_against_decimal_oracle():
    logits = [3.1, -0.7, 12.4]
    expected = decimal_softmax(logits)
    assert expected == pytest.approx(SOFTMAX_ORACLE, rel=1e-15)
    out = softmax(logits)
    np.testing.assert_allclose(out, SOFTMAX_ORACLE, rtol=1e-12)


def test_softmax_errors():
    with pytest.raises(DimensionError):
        softmax([])
    with pytest.raises(NumericError):
        softmax([1.0, float("nan")])
    with pytest.raises(NumericError):
        softmax([1.0, float("inf")])


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = derive_rng(101)
    for _ in range(100):
        z = rng.uniform(-50.0, 50.0, size=rng.integers(2, 12))
        out = softmax(z)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all((out >= 0.0) & (out <= 1.0))
        shift = rng.uniform(-100.0, 100.0)
        np.testing.assert_allclose(softmax(z + shift), out, atol=1e-12)
    # strict (0, 1) holds whenever the logit spread stays below ~36 (float64
    # rounding pins the dominant entry to exactly 1.0 beyond that)
    for _ in range(100):
        z = rng.uniform(-15.0, 15.0, size=rng.integers(2, 12))
        out = softmax(z)
        assert np.all((out > 0.0) & (out < 1.0))


def test_cross_entropy_perfect_match():
    target = np.zeros(5)
    target[2] = 1.0
    assert CROSS_ENTROPY.value(target, target) == pytest.approx(0.0, abs=1e-10)


def test_cross_entropy_uniform_prediction():
    target = np.zeros(10)
    target[0] = 1.0
    assert CROSS_ENTROPY.value(np.full(10, 0.1), target) == pytest.approx(math.log(10.0), rel=1e-12)


def test_cross_entropy_against_decimal_oracle():
    oracle = -(Decimal("0.5") * Decimal("0.25").ln() + Decimal("0.5") * Decimal("0.75").ln())
    assert float(oracle) == pytest.approx(CE_HALF_ORACLE, rel=1e-15)
    assert CROSS_ENTROPY.value([0.25, 0.75], [0.5, 0.5]) == pytest.approx(CE_HALF_ORACLE, rel=1e-12)


def test_cross_entropy_length_mismatch():
    with pytest.raises(DimensionError):
        CROSS_ENTROPY.value([1.0, 0.0, 0.0], [1.0, 0.0])


def test_cross_entropy_nonnegative_and_minimal_at_target():
    rng = derive_rng(55)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        t = rng.random(k)
        t /= t.sum()
        base = CROSS_ENTROPY.value(t, t)
        assert base >= 0.0
        for _ in range(10):
            p = rng.random(k)
            p /= p.sum()
            assert CROSS_ENTROPY.value(p, t) >= base - 1e-12


def test_forward_identity_network():
    net = Network([Dense(np.eye(2), np.zeros(2)), Activation("relu")])
    out, acts = forward(net, [[1.0, 2.0]])
    np.testing.assert_array_equal(out, [[1.0, 2.0]])
    assert len(acts) == 3


def test_forward_dense_relu_clips():
    net = Network([Dense(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2)),
                   Activation("relu")])
    out, _ = forward(net, [[2.0, 3.0]])
    np.testing.assert_array_equal(out, [[5.0, 0.0]])


def scalar_forward_oracle(net, x_rows):
    """Straight-line scalar re-evaluation of the same arithmetic."""
    outs = []
    for row in x_rows:
        values = list(row)
        for layer in net.layers:
            if layer.kind == "dense":
                values = [
                    sum(layer.weight[i][j] * values[j] for j in range(len(values)))
                    + layer.bias[i]
                    for i in range(layer.out_dim)
                ]
            elif layer.kind == "relu":
                values = [v if v > 0 else 0.0 for v in values]
            elif layer.kind == "leaky-relu":
                values = [v if v > 0 else layer.slope * v for v in values]
            elif layer.kind == "sigmoid":
                values = [1.0 / (1.0 + math.exp(-v)) for v in values]
            else:  # softmax
                m = max(values)
                exps = [math.exp(v - m) for v in values]
                values = [e / sum(exps) for e in exps]
        outs.append(values)
    return np.array(outs)


def test_forward_matches_scalar_reevaluation():
    rng = derive_rng(7)
    net = mlp((3, 5, 4), hidden="leaky-relu", terminal="softmax", rng=rng)
    x = rng.standard_normal((6, 3))
    out, _ = forward(net, x)
    np.testing.assert_allclose(out, scalar_forward_oracle(net, x), atol=1e-10)


def test_forward_dimension_mismatch():
    net = mlp((3, 4, 2), rng=derive_rng(0))
    with pytest.raises(DimensionError):
        forward(net, np.zeros((2, 5)))


def test_forward_rejects_a_1d_batch():
    net = mlp((3, 4, 2), rng=derive_rng(0))
    with pytest.raises(DimensionError):
        forward(net, [1.0, 2.0, 3.0])  # one row must be a (1, 3) batch
    with pytest.raises(DimensionError):
        forward(net, np.zeros((1, 1, 3)))


@pytest.mark.parametrize("make_loss", [
    lambda k: CROSS_ENTROPY,
    lambda k: ForwardCorrectedLoss(symmetric_matrix(k, 0.3)),
], ids=["cross-entropy", "forward-corrected"])
def test_backward_of_a_finished_pass_equals_loss_and_gradients(make_loss):
    rng = derive_rng(17)
    for terminal in ("softmax", "sigmoid"):
        net = mlp((4, 6, 3), hidden="relu", terminal=terminal, rng=rng)
        x = rng.standard_normal((5, 4))
        targets = rng.random((5, 3))
        targets /= targets.sum(axis=1, keepdims=True)
        loss = make_loss(3)
        value, grads = backward(net, forward(net, x)[1], targets, loss)
        ref_value, ref_grads = loss_and_gradients(net, x, targets, loss)
        assert value == ref_value
        assert grads.shape == ref_grads.shape == net.params.shape
        np.testing.assert_array_equal(grads, ref_grads)


def test_backward_rejects_activations_of_another_shape():
    net = mlp((3, 4, 2), rng=derive_rng(0))
    _, acts = forward(net, np.ones((2, 3)))
    with pytest.raises(DimensionError):
        backward(net, acts[1:], np.full((2, 2), 0.5), CROSS_ENTROPY)
    with pytest.raises(DimensionError):
        backward(net, acts, np.full((3, 2), 0.5), CROSS_ENTROPY)
    with pytest.raises(DimensionError):  # one row's target must be a (1, 2) batch
        backward(net, forward(net, np.ones((1, 3)))[1], np.full(2, 0.5), CROSS_ENTROPY)


def reference_gradients(net, acts, targets, loss):
    """The flat gradient by per-layer formulas, with every input gradient taken."""
    grad = loss.prediction_grad(acts[-1], targets)
    parts = []
    for layer, x, out in reversed(list(zip(net.layers, acts, acts[1:]))):
        if layer.kind == "dense":
            parts[:0] = [grad.T @ x, grad.sum(0)]
            grad = grad @ layer.weight
        elif layer.kind == "relu":
            grad = np.where(x > 0.0, grad, 0.0)
        elif layer.kind == "leaky-relu":
            grad = np.where(x > 0.0, grad, layer.slope * grad)
        elif layer.kind == "sigmoid":
            grad = out * (1.0 - out) * grad
        else:
            grad = out * (grad - (out * grad).sum(axis=-1, keepdims=True))
    return np.concatenate([part.ravel() for part in parts])


@pytest.mark.parametrize("hidden", ["relu", "leaky-relu", "sigmoid", "softmax"])
@pytest.mark.parametrize("terminal", ["softmax", "sigmoid"])
@pytest.mark.parametrize("dims", [(4, 6, 3), (16, 128, 64, 4), (8, 64, 32, 4)])
def test_backward_is_bit_equal_to_the_per_layer_formulas(hidden, terminal, dims):
    rng = derive_rng(23)
    net = mlp(dims, hidden=hidden, terminal=terminal, rng=rng)
    x = rng.standard_normal((64, dims[0]))
    targets = rng.random((64, dims[-1]))
    targets /= targets.sum(axis=1, keepdims=True)
    for loss in (CROSS_ENTROPY, ForwardCorrectedLoss(symmetric_matrix(dims[-1], 0.3))):
        _, acts = forward(net, x)
        grads = backward(net, acts, targets, loss)[1]
        assert np.array_equal(grads, reference_gradients(net, acts, targets, loss))
    assert np.array_equal(forward(net, x)[0], acts[-1])


@pytest.mark.parametrize("kind", ["relu", "leaky-relu", "sigmoid", "softmax"])
def test_forward_leaves_the_batch_alone(kind):
    # the activations run in place, but only over the dense outputs the pass allocated
    rng = derive_rng(37)
    x = rng.standard_normal((5, 4))
    before = x.copy()
    net = mlp((4, 6, 3), hidden=kind, rng=rng)
    out = forward(net, x)[0]
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(out, x)
    frozen = x.copy()
    frozen.setflags(write=False)  # a Dataset's features are read-only
    assert np.array_equal(forward(net, frozen)[0], out)


def test_forward_raises_its_errors():
    net = mlp((3, 4, 2), rng=derive_rng(0))
    soft_out = Network([Dense(np.ones((1, 1)), np.zeros(1)), Activation("softmax")])
    relu_out = Network([Dense(np.eye(2), np.zeros(2)), Activation("relu")])
    with pytest.raises(DimensionError):
        forward(net, np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        forward(net, [1.0, 2.0, 3.0])
    with pytest.raises(NumericError, match="softmax: non-finite logits"):
        forward(soft_out, [[np.inf]])
    with pytest.raises(NumericError, match="network produced non-finite outputs"):
        forward(relu_out, [[np.nan, 1.0]])


def test_forward_holds_at_most_two_layer_outputs():
    # the default amateur (16 -> 128 -> 64 -> 4) on a 1,000-row validation split: the
    # activations overwrite their dense outputs, so the pass keeps one array per dense layer
    net = mlp((16, 128, 64, 4), rng=derive_rng(41))
    x = derive_rng(43).standard_normal((1000, 16))
    forward(net, x)
    tracemalloc.start()
    try:
        forward(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widest_two = 1000 * (128 + 64) * 8
    assert peak <= 1.1 * widest_two


@pytest.mark.parametrize("shape", [(1, 2), (64, 4), (1000, 4), (7, 128), (3, 5, 6)])
def test_reductions_are_bit_equal_to_the_textbook_forms(shape):
    rng = derive_rng(47)
    z = rng.standard_normal(shape) * 30.0
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    assert softmax(z).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
    p = softmax(rng.standard_normal(shape))
    t = rng.random(shape)
    textbook = float(np.mean(-(t * np.log(np.maximum(p, 1e-12))).sum(axis=-1)))
    assert CROSS_ENTROPY.value(p, t) == textbook
    assert CROSS_ENTROPY.value(p[0], t[0]) == float(np.mean(-(t[0] * np.log(p[0])).sum(axis=-1)))
    g = rng.standard_normal(shape)
    out = Activation("softmax").backward(p, g)
    assert out.tobytes() == (p * (g - (p * g).sum(axis=-1, keepdims=True))).tobytes()
    if len(shape) == 2:
        layer = Dense(rng.standard_normal((3, shape[1])), np.zeros(3))
        grad_out = rng.standard_normal((shape[0], 3))
        grad_w, grad_b = np.empty((3, shape[1])), np.empty(3)
        layer.backward(g, grad_out, grad_w, grad_b, False)
        assert grad_b.tobytes() == np.sum(grad_out, axis=0).tobytes()


def test_backward_stops_at_the_first_dense_layer():
    rng = derive_rng(29)
    net = mlp((4, 6, 5, 3), rng=rng)
    _, acts = forward(net, rng.standard_normal((5, 4)))
    asked = []  # each dense layer's `input_grad`, in the order backward calls them
    for layer in net.layers[::2]:
        real = layer.backward
        layer.backward = lambda *args, real=real: asked.append(args[-1]) or real(*args)
    targets = np.full((5, 3), 1.0 / 3.0)
    grads = backward(net, acts, targets, CROSS_ENTROPY)[1]
    assert asked == [True, True, False]
    assert np.array_equal(grads, reference_gradients(net, acts, targets, CROSS_ENTROPY))


def test_backward_returns_a_new_array_and_leaves_the_pass_alone():
    rng = derive_rng(31)
    net = mlp((4, 6, 3), hidden="leaky-relu", rng=rng)
    _, acts = forward(net, rng.standard_normal((5, 4)))
    before = [a.copy() for a in acts]
    targets = np.full((5, 3), 1.0 / 3.0)
    first = backward(net, acts, targets, CROSS_ENTROPY)[1]
    second = backward(net, acts, targets, CROSS_ENTROPY)[1]
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, net.params)
    assert np.array_equal(first, second)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(acts, before))


# signed zeros, subnormals, tiny, unit, huge and infinite magnitudes
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
                        0.5, -0.5, 1.0, -1.0, 1e300, -1e300, 1.7976931348623157e308,
                        -1.7976931348623157e308, np.inf, -np.inf])


@pytest.mark.parametrize("slope", [1e-300, 0.01, 0.5, 0.999999])
def test_leaky_relu_apply_is_bit_equal_to_the_select_form(slope):
    out = Activation("leaky-relu", slope=slope).apply(EDGE_VALUES)
    expected = np.where(EDGE_VALUES > 0.0, EDGE_VALUES, slope * EDGE_VALUES)
    assert out.tobytes() == expected.tobytes()


def test_relu_backward_equals_the_select_form():
    finite = EDGE_VALUES[np.isfinite(EDGE_VALUES)]
    x, g = np.meshgrid(EDGE_VALUES, finite)
    out = Activation("relu").backward(np.maximum(x, 0.0), g)
    # equal as numbers; a negative gradient at x <= 0 gives -0.0 where the select gives 0.0
    assert np.array_equal(out, np.where(x > 0.0, g, 0.0))


def test_gradients_zero_at_symmetric_stationary_point():
    k = 4
    net = Network([Dense(np.zeros((k, k)), np.zeros(k)), Activation("softmax")])
    targets = np.full((3, k), 1.0 / k)
    grads = loss_and_gradients(net, np.ones((3, k)), targets, CROSS_ENTROPY)[1]
    np.testing.assert_array_equal(grads, np.zeros_like(grads))


def test_gradients_match_finite_differences_all_kinds_and_losses():
    rng = derive_rng(42)
    hiddens = ("relu", "leaky-relu", "sigmoid")
    terminals = ("softmax", "sigmoid")
    for case in range(40):
        k = int(rng.integers(2, 5))
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 6)), k)
        net = mlp(dims, hidden=hiddens[case % 3], terminal=terminals[case % 2], rng=rng)
        x = rng.standard_normal((3, dims[0]))
        targets = rng.random((3, k))
        targets /= targets.sum(axis=1, keepdims=True)
        loss = CROSS_ENTROPY if case % 2 == 0 else ForwardCorrectedLoss(symmetric_matrix(k, 0.3))
        assert gradient_check(net, x, targets, loss) < 1e-4


def test_softmax_cross_entropy_terminal_gradient_closed_form():
    # for a dense->softmax classifier, dL/dlogits = (prediction - target)/B,
    # so grad_W = ((p - t)/B).T @ x and grad_b = column sums of (p - t)/B
    rng = derive_rng(13)
    k, d, b = 3, 4, 5
    net = Network([Dense(rng.standard_normal((k, d)), rng.standard_normal(k)),
                   Activation("softmax")])
    x = rng.standard_normal((b, d))
    targets = rng.random((b, k))
    targets /= targets.sum(axis=1, keepdims=True)
    probs, _ = forward(net, x)
    dz = (probs - targets) / b
    grads = loss_and_gradients(net, x, targets, CROSS_ENTROPY)[1]
    grad_w, grad_b = grads[:k * d].reshape(k, d), grads[k * d:]
    np.testing.assert_allclose(grad_w, dz.T @ x, atol=1e-12)
    np.testing.assert_allclose(grad_b, dz.sum(axis=0), atol=1e-12)
    assert gradient_check(net, x, targets, CROSS_ENTROPY) < 1e-4


def test_forward_corrected_loss_rejects_negative_entries():
    with pytest.raises(ConfigurationError):
        ForwardCorrectedLoss(np.array([[1.2, -0.2], [0.0, 1.0]]))


def test_sgd_plain_step():
    params = np.array([1.0])
    sgd_step(params, np.array([0.5]), np.array([0.0]), 0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(params, [0.95], atol=1e-15)


def test_sgd_zero_gradient_fixed_point():
    params = np.array([1.5, -2.0])
    velocity = np.zeros(2)
    for _ in range(5):
        sgd_step(params, np.zeros(2), velocity, 0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_array_equal(params, [1.5, -2.0])


def test_sgd_momentum_two_step_recurrence():
    # v1 = g, step eta*g; v2 = 0.9 g + g = 1.9 g, step eta*1.9*g
    g, eta = 0.25, 0.05
    params = np.array([1.0])
    velocity = np.array([0.0])
    sgd_step(params, np.array([g]), velocity, eta, momentum=0.9, weight_decay=0.0)
    assert params[0] == pytest.approx(1.0 - eta * g, abs=1e-15)
    sgd_step(params, np.array([g]), velocity, eta, momentum=0.9, weight_decay=0.0)
    assert params[0] == pytest.approx(1.0 - eta * g - eta * 1.9 * g, abs=1e-15)


def test_sgd_negative_lr_rejected():
    params = np.zeros(1)
    with pytest.raises(ConfigurationError):
        sgd_step(params, np.zeros(1), np.zeros(1), -0.1, momentum=0.0, weight_decay=0.0)


@pytest.mark.parametrize("momentum, weight_decay, message", [
    (1.0, 0.0, "momentum must be in [0, 1), got 1.0"),
    (-0.1, 0.0, "momentum must be in [0, 1), got -0.1"),
    (0.9, -1e-4, "weight decay must be finite and >= 0, got -0.0001"),
    (0.9, math.inf, "weight decay must be finite and >= 0, got inf"),
], ids=["momentum 1", "negative momentum", "negative decay", "infinite decay"])
def test_sgd_step_rejects_a_setting_outside_the_rule(momentum, weight_decay, message):
    params, velocity = np.array([1.0]), np.array([0.5])
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        sgd_step(params, np.array([2.0]), velocity, 0.1, momentum, weight_decay)
    np.testing.assert_array_equal(params, [1.0])
    np.testing.assert_array_equal(velocity, [0.5])


def test_sgd_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, momentum=0.0, weight_decay=0.0)


def test_sgd_zero_lr_changes_nothing_but_still_checks_shapes():
    params = np.array([1.5, -2.0])
    velocity = np.array([0.25, -0.5])
    sgd_step(params, np.array([3.0, 4.0]), velocity, 0.0, momentum=0.9, weight_decay=1e-2)
    np.testing.assert_array_equal(params, [1.5, -2.0])
    np.testing.assert_array_equal(velocity, [0.25, -0.5])
    with pytest.raises(DimensionError, match="shape mismatch"):
        sgd_step(params, np.zeros(3), velocity, 0.0, momentum=0.9, weight_decay=1e-2)


def test_weight_decay_equals_l2_penalty_gradient():
    # five steps with decay lambda == five steps with decay 0 and grad + lambda*param
    rng = derive_rng(77)
    lam, lr = 1e-3, 0.05
    net_a = mlp((3, 4, 2), rng=derive_rng(5))
    net_b = mlp((3, 4, 2), rng=derive_rng(5))
    velocity_a, velocity_b = np.zeros_like(net_a.params), np.zeros_like(net_b.params)
    x = rng.standard_normal((6, 3))
    targets = rng.random((6, 2))
    targets /= targets.sum(axis=1, keepdims=True)
    for _ in range(5):
        ga = loss_and_gradients(net_a, x, targets, CROSS_ENTROPY)[1]
        sgd_step(net_a.params, ga, velocity_a, lr, momentum=0.9, weight_decay=lam)
        gb = loss_and_gradients(net_b, x, targets, CROSS_ENTROPY)[1]
        gb = gb + lam * net_b.params
        sgd_step(net_b.params, gb, velocity_b, lr, momentum=0.9, weight_decay=0.0)
    np.testing.assert_allclose(net_a.params, net_b.params, atol=1e-8)


def test_dense_layers_are_views_into_the_network_buffer():
    net = mlp((3, 4, 2), rng=derive_rng(3))
    dense = [layer for layer in net.layers if layer.kind == "dense"]
    assert net.params.shape == (sum(l.weight.size + l.bias.size for l in dense),)
    for layer in dense:
        assert np.shares_memory(layer.weight, net.params)
        assert np.shares_memory(layer.bias, net.params)
    x = derive_rng(4).standard_normal((5, 3))
    before, _ = forward(net, x)
    sgd_step(net.params, np.ones_like(net.params), np.zeros_like(net.params), 0.1, 0.9, 1e-4)
    after, _ = forward(net, x)
    assert not np.array_equal(before, after)


def test_networks_built_from_one_dense_layer_stay_independent():
    rng = derive_rng(5)
    layer = Dense(rng.standard_normal((2, 3)), rng.standard_normal(2))
    weight, bias = layer.weight.copy(), layer.bias.copy()
    a = Network([layer, Activation("softmax")])
    b = Network([layer, Activation("softmax")])
    x = rng.standard_normal((4, 3))
    before_a, before_b = forward(a, x)[0], forward(b, x)[0]
    sgd_step(a.params, np.ones_like(a.params), np.zeros_like(a.params), 0.1, 0.9, 1e-4)
    assert not np.array_equal(forward(a, x)[0], before_a)
    np.testing.assert_array_equal(forward(b, x)[0], before_b)
    np.testing.assert_array_equal(layer.weight, weight)
    np.testing.assert_array_equal(layer.bias, bias)


def test_lr_schedule():
    assert lr_at(StepDecay(0.05), 0) == 0.05
    assert lr_at(StepDecay(0.002, factor=0.1, period=5), 5) == pytest.approx(0.0002, rel=1e-12)
    assert lr_at(StepDecay(0.01, factor=0.1, period=40), 39) == 0.01


def test_lr_schedule_validation():
    with pytest.raises(ConfigurationError):
        StepDecay(-1.0)
    with pytest.raises(ConfigurationError):
        lr_at(StepDecay(0.1), -1)


def test_training_is_bit_deterministic():
    def run():
        net = mlp((3, 4, 2), rng=derive_rng(9))
        velocity = np.zeros_like(net.params)
        x = derive_rng(10).standard_normal((8, 3))
        targets = derive_rng(11).random((8, 2))
        targets /= targets.sum(axis=1, keepdims=True)
        for _ in range(3):
            for idx in (slice(0, 3), slice(3, 6), slice(6, 8)):
                g = loss_and_gradients(net, x[idx], targets[idx], CROSS_ENTROPY)[1]
                sgd_step(net.params, g, velocity, 0.05, momentum=0.9, weight_decay=1e-4)
        return net.params.copy()

    np.testing.assert_array_equal(run(), run())


def test_network_rejects_mismatched_chain():
    with pytest.raises(DimensionError):
        Network([Dense(np.zeros((3, 2)), np.zeros(3)), Activation("relu"),
                 Dense(np.zeros((2, 4)), np.zeros(2)), Activation("softmax")])



@pytest.mark.parametrize("call, error, message", [
    (lambda: mlp((3,), rng=derive_rng(0)), ConfigurationError,
     "mlp needs at least input and output dims"),
    (lambda: Network([Activation("relu")]), ConfigurationError,
     "a network is dense layers each followed by one activation, got ['relu']"),
    (lambda: Network([Dense(np.eye(2), np.zeros(2))]), ConfigurationError,
     "a network is dense layers each followed by one activation, got ['dense']"),
    (lambda: Network([Activation("relu"), Dense(np.eye(2), np.zeros(2)), Activation("softmax")]),
     ConfigurationError, "one activation, got ['relu', 'dense', 'softmax']"),
    (lambda: Network([Dense(np.eye(2), np.zeros(2)), Activation("relu"), Activation("softmax")]),
     ConfigurationError, "one activation, got ['dense', 'relu', 'softmax']"),
    (lambda: Network([Dense(np.eye(2), np.zeros(2)), Activation("relu"),
                      Dense(np.eye(2), np.zeros(2))]),
     ConfigurationError, "one activation, got ['dense', 'relu', 'dense']"),
    (lambda: Network([]), ConfigurationError, "one activation, got []"),
    (lambda: mlp((4, 0, 3), rng=derive_rng(0)), ConfigurationError,
     "mlp width must be >= 1, got 0"),
    (lambda: Network([Dense(np.zeros((0, 4)), np.zeros(0)), Activation("softmax")]),
     ConfigurationError, "dense layer width must be >= 1, got 0"),
    (lambda: Dense(np.zeros((2, 3)), np.zeros(3)), DimensionError,
     "dense: weight (2, 3) and bias (3,) are inconsistent"),
    (lambda: loss_and_gradients(mlp((3, 4, 2), rng=derive_rng(0)), np.ones((1, 3)),
                                [[np.inf, 0.0]], CROSS_ENTROPY), NumericError,
     "non-finite loss value inf"),
], ids=["mlp of one dim", "no dense layer", "no activation", "activation first",
        "two activations", "dense last", "no layer", "mlp of a zero width",
        "network of a zero width", "dense shapes", "non-finite loss"])
def test_engine_rejects_unusable_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_activation_validation():
    with pytest.raises(ConfigurationError):
        Activation("swish")
    with pytest.raises(ConfigurationError):
        Activation("leaky-relu", slope=1.5)
