"""Co-training tests: concatenation interface, the alternating step order and
gradient isolation (via spies), an independent five-step replay oracle, both
inference modes, and checkpointing."""

import builtins
import errno
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expertnet.data as data_mod
import expertnet.model as model_mod
from expertnet.data import make_blobs, one_hot_batch, stratified_split
from expertnet.errors import ConfigurationError, DataError, DimensionError, InputError
from expertnet.model import (
    ExpertNet,
    accuracy,
    build_expertnet,
    expert_input,
    infer_amateur,
    infer_full,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)
from expertnet.nn import (
    CROSS_ENTROPY,
    Activation,
    Dense,
    Network,
    StepDecay,
    forward,
    loss_and_gradients,
    sgd_step,
)
from expertnet.noise import corrupt_labels, symmetric_matrix
from expertnet.seeding import derive_rng


def copy_expert(n_classes, scale=30.0):
    """Expert that reproduces the one-hot given-label half of its input."""
    weight = np.zeros((n_classes, 2 * n_classes))
    weight[:, n_classes:] = scale * np.eye(n_classes)
    return Network([Dense(weight, np.zeros(n_classes)), Activation("softmax")])


def small_model(seed=0, n_classes=2, feature_dim=3):
    return build_expertnet(feature_dim, n_classes, seed=seed,
                           amateur_hidden=(8,), expert_hidden=(8,))


# --- expert_input --------------------------------------------------------------

def test_expert_input_examples():
    np.testing.assert_array_equal(expert_input([[0.5, 0.5]], [1]), [[0.5, 0.5, 0.0, 1.0]])
    np.testing.assert_array_equal(expert_input([[1.0, 0.0, 0.0]], [0]), [[1, 0, 0, 1, 0, 0]])


def test_expert_input_round_trip():
    rng = derive_rng(31)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        probs = rng.random(k)
        probs /= probs.sum()
        label = int(rng.integers(0, k))
        z = expert_input(probs[None, :], [label])[0]
        np.testing.assert_array_equal(z[:k], probs)
        assert int(np.argmax(z[k:])) == label
        np.testing.assert_array_equal(np.sort(z[k:]), [0.0] * (k - 1) + [1.0])


def test_expert_input_validation():
    with pytest.raises(DataError):
        expert_input([[0.9, 0.3]], [0])  # not a distribution
    with pytest.raises(DataError):
        expert_input([[0.5, 0.5]], [2])  # label out of range
    with pytest.raises(DimensionError):
        expert_input(np.full((3, 2), 0.5), [0, 1])  # label count mismatch
    with pytest.raises(DimensionError):
        expert_input([0.5, 0.5], [1])  # a single row must be a (1, K) batch


# --- train_step order, isolation, and targets ----------------------------------

class StepSpy:
    """Records the forward / gradient / update sequence of one train_step."""

    def __init__(self, monkeypatch, model):
        self.events = []
        self.model = model
        real_forward = model_mod.forward
        real_lag = model_mod.loss_and_gradients
        real_backward = model_mod.backward
        real_sgd = model_mod.sgd_step

        def net_name(net):
            return "amateur" if net is model.amateur else "expert"

        def snap(net):
            return net.params.copy()

        def spy_forward(net, batch):
            out = real_forward(net, batch)
            self.events.append(("forward", net_name(net), snap(net), out[0].copy()))
            return out

        def spy_lag(net, batch, targets, loss):
            self.events.append(("grad", net_name(net), snap(net), np.array(targets, copy=True)))
            return real_lag(net, batch, targets, loss)

        def spy_backward(net, acts, targets, loss):
            self.events.append(("grad", net_name(net), snap(net), np.array(targets, copy=True)))
            return real_backward(net, acts, targets, loss)

        def spy_sgd(params, grads, velocity, lr, momentum, weight_decay):
            which = "expert" if params is model.expert.params else "amateur"
            real_sgd(params, grads, velocity, lr, momentum, weight_decay)
            self.events.append(("sgd", which, snap(model.amateur), snap(model.expert)))

        monkeypatch.setattr(model_mod, "forward", spy_forward)
        monkeypatch.setattr(model_mod, "loss_and_gradients", spy_lag)
        monkeypatch.setattr(model_mod, "backward", spy_backward)
        monkeypatch.setattr(model_mod, "sgd_step", spy_sgd)

    def ops(self):
        return [(e[0], e[1]) for e in self.events]


def test_train_step_order_isolation_and_targets(monkeypatch):
    model = small_model(seed=4)
    amateur_before = model.amateur.params.copy()
    expert_before = model.expert.params.copy()
    rng = derive_rng(8)
    x = rng.standard_normal((6, 3))
    y = rng.integers(0, 2, size=6)
    t = rng.integers(0, 2, size=6)

    spy = StepSpy(monkeypatch, model)
    train_step(model, x, y, t, lr=0.05)

    # exact operation order: predict-A, grad-E, update-E, predict-E, grad-A, update-A
    assert spy.ops() == [
        ("forward", "amateur"),
        ("grad", "expert"),
        ("sgd", "expert"),
        ("forward", "expert"),
        ("grad", "amateur"),
        ("sgd", "amateur"),
    ]
    forward_a, grad_e, sgd_e, forward_e, grad_a, sgd_a = spy.events

    # expert target is one-hot of the true labels, never y or the predictions
    np.testing.assert_array_equal(grad_e[3], one_hot_batch(t, 2))
    assert not np.array_equal(grad_e[3], one_hot_batch(y, 2))

    # expert update happened strictly before the expert prediction: the
    # prediction-time parameters equal the post-update parameters and differ
    # from the pre-update ones
    assert np.array_equal(forward_e[2], sgd_e[3])
    assert not np.array_equal(forward_e[2], expert_before)

    # amateur target is exactly the post-update expert output distribution
    np.testing.assert_array_equal(grad_a[3], forward_e[3])

    # gradient isolation: the expert update left the amateur untouched, and
    # the amateur update left the expert untouched
    assert np.array_equal(sgd_e[2], amateur_before)
    assert np.array_equal(sgd_a[3], sgd_e[3])
    assert not np.array_equal(sgd_a[2], amateur_before)


def test_train_step_validation():
    model = small_model(seed=5)
    rng = derive_rng(10)
    x = rng.standard_normal((4, 3))
    labels = rng.integers(0, 2, 4)
    with pytest.raises(DimensionError):
        train_step(model, x[0], labels[:1], labels[:1], 0.01)  # a 1-D x is not a batch
    with pytest.raises(DimensionError):
        train_step(model, x, labels[:3], labels, 0.01)  # given-label count
    with pytest.raises(DimensionError):
        train_step(model, x, labels, labels[:3], 0.01)  # true-label count
    with pytest.raises(DataError):
        train_step(model, x[:0], labels[:0], labels[:0], 0.01)


def count_calls(obj, name):
    """Shadow obj.name with a counting wrapper; returns the list of calls."""
    calls = []
    real = getattr(obj, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    setattr(obj, name, counted)
    return calls


def test_train_step_runs_the_amateur_once():
    model = small_model(seed=11)
    calls = count_calls(model.amateur.layers[0], "apply")
    rng = derive_rng(12)
    for n in range(1, 4):
        train_step(model, rng.standard_normal((5, 3)), rng.integers(0, 2, 5),
                   rng.integers(0, 2, 5), 0.05)
        assert len(calls) == n


def test_train_runs_the_amateur_once_per_batch_and_once_per_evaluation():
    train_set, val_set = noisy_blob_sets()
    model = build_expertnet(4, 3, seed=1, amateur_hidden=(8,), expert_hidden=(8,))
    calls = count_calls(model.amateur.layers[0], "apply")
    batches = -(-train_set.n // 16)
    train(model, train_set, val_set, epochs=2, batch_size=16,
          schedule=StepDecay(0.01), seed=5)
    assert len(calls) == 2 * batches + 2


def reference_step(model, x, given_labels, true_labels, lr):
    """The step before the split: the amateur's gradient re-runs its forward pass."""
    amateur_probs, _ = forward(model.amateur, x)
    z = expert_input(amateur_probs, given_labels)
    true_onehot = one_hot_batch(true_labels, model.amateur.output_dim)
    expert_loss, grads = loss_and_gradients(model.expert, z, true_onehot, CROSS_ENTROPY)
    sgd_step(model.expert.params, grads, model.expert_velocity, lr, model.momentum,
             model.weight_decay)
    target, _ = forward(model.expert, z)
    if model.expert.terminal_kind == "sigmoid":  # sigmoid rows are renormalized to sum to 1
        target = target / np.add.reduce(target, axis=1, keepdims=True)
    amateur_loss, grads = loss_and_gradients(model.amateur, x, target, CROSS_ENTROPY)
    sgd_step(model.amateur.params, grads, model.amateur_velocity, lr, model.momentum,
             model.weight_decay)
    return amateur_loss, expert_loss


@pytest.mark.parametrize("terminal", ["softmax", "sigmoid"])
def test_train_step_bit_identical_to_the_two_pass_reference(terminal):
    def build():
        return build_expertnet(4, 3, seed=14, amateur_hidden=(8, 6), expert_hidden=(8,),
                               expert_terminal=terminal)

    model, reference = build(), build()
    rng = derive_rng(15)
    for _ in range(5):
        x = rng.standard_normal((7, 4))
        y, t = rng.integers(0, 3, 7), rng.integers(0, 3, 7)
        assert train_step(model, x, y, t, 0.05) == reference_step(reference, x, y, t, 0.05)
    for net, ref in ((model.amateur, reference.amateur), (model.expert, reference.expert)):
        np.testing.assert_array_equal(net.params, ref.params)
    for velocity, ref in ((model.amateur_velocity, reference.amateur_velocity),
                          (model.expert_velocity, reference.expert_velocity)):
        np.testing.assert_array_equal(velocity, ref)


def test_train_step_zero_lr_is_identity():
    model = small_model(seed=6)
    before_a = model.amateur.params.copy()
    before_e = model.expert.params.copy()
    before_v = [v.copy() for v in (model.amateur_velocity, model.expert_velocity)]
    rng = derive_rng(9)
    l_a, l_e = train_step(model, rng.standard_normal((4, 3)),
                          rng.integers(0, 2, 4), rng.integers(0, 2, 4), lr=0.0)
    assert math.isfinite(l_a) and math.isfinite(l_e) and l_a >= 0.0 and l_e >= 0.0
    np.testing.assert_array_equal(model.amateur.params, before_a)
    np.testing.assert_array_equal(model.expert.params, before_e)
    after_v = (model.amateur_velocity, model.expert_velocity)
    for v, w in zip(after_v, before_v):
        np.testing.assert_array_equal(v, w)


def test_train_step_with_copy_expert_descends_toward_given_labels():
    # an expert that echoes the given-label half makes y the amateur's target,
    # so one small step must reduce CROSS_ENTROPY.value(amateur(x), onehot(y))
    amateur = build_expertnet(3, 2, seed=12, amateur_hidden=(8,)).amateur
    expert = copy_expert(2)
    model = ExpertNet(amateur, expert, 0.0, 0.0)
    rng = derive_rng(14)
    x = rng.standard_normal((16, 3))
    y = rng.integers(0, 2, size=16)
    t = rng.integers(0, 2, size=16)

    def ce_vs_given():
        probs, _ = forward(model.amateur, x)
        return CROSS_ENTROPY.value(probs, one_hot_batch(y, 2))

    before = ce_vs_given()
    train_step(model, x, y, t, lr=0.01)
    assert ce_vs_given() < before


def scalar_softmax(values):
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def test_train_step_matches_independent_replay_oracle():
    """Replay all five steps with finite-difference gradients, pure python."""
    wa = np.array([[0.4, -0.3], [0.1, 0.2]])
    ba = np.array([0.05, -0.05])
    we = np.array([[0.3, -0.2, 0.5, 0.1],
                   [-0.1, 0.4, -0.3, 0.2]])
    be = np.array([0.0, 0.1])
    momentum, wd, lr = 0.9, 1e-4, 0.1
    x = [0.8, -1.2]
    y_label, t_label = 1, 0

    amateur = Network([Dense(wa.copy(), ba.copy()), Activation("softmax")])
    expert = Network([Dense(we.copy(), be.copy()), Activation("softmax")])
    model = ExpertNet(amateur, expert, momentum, wd)
    train_step(model, np.array([x]), np.array([y_label]), np.array([t_label]), lr)

    # --- independent replay ---
    def affine(w, b, vec):
        return [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i] for i in range(len(b))]

    def fd_grads(loss_fn, w, b, h=1e-6):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                w[i, j] += h
                up = loss_fn(w, b)
                w[i, j] -= 2 * h
                down = loss_fn(w, b)
                w[i, j] += h
                gw[i, j] = (up - down) / (2 * h)
        for i in range(b.shape[0]):
            b[i] += h
            up = loss_fn(w, b)
            b[i] -= 2 * h
            down = loss_fn(w, b)
            b[i] += h
            gb[i] = (up - down) / (2 * h)
        return gw, gb

    def sgd(p, g):
        v = g + wd * p  # initial velocity is zero
        return p - lr * v

    pa = scalar_softmax(affine(wa, ba, x))          # step 1: amateur predicts
    z = pa + [0.0, 1.0]                             # step 2: concat with onehot(y)
    t_vec = [1.0, 0.0]

    def expert_loss(w, b):
        pe = scalar_softmax(affine(w, b, z))
        return -sum(t_vec[i] * math.log(pe[i]) for i in range(2))

    ge_w, ge_b = fd_grads(expert_loss, we.copy(), be.copy())
    we2, be2 = sgd(we, ge_w), sgd(be, ge_b)         # step 3: expert updates
    pe = scalar_softmax(affine(we2, be2, z))        # step 4: updated expert predicts

    def amateur_loss(w, b):
        probs = scalar_softmax(affine(w, b, x))
        return -sum(pe[i] * math.log(probs[i]) for i in range(2))

    ga_w, ga_b = fd_grads(amateur_loss, wa.copy(), ba.copy())
    wa2, ba2 = sgd(wa, ga_w), sgd(ba, ga_b)         # step 5: amateur updates

    np.testing.assert_allclose(model.expert.layers[0].weight, we2, atol=1e-8)
    np.testing.assert_allclose(model.expert.layers[0].bias, be2, atol=1e-8)
    np.testing.assert_allclose(model.amateur.layers[0].weight, wa2, atol=1e-8)
    np.testing.assert_allclose(model.amateur.layers[0].bias, ba2, atol=1e-8)


# --- inference ------------------------------------------------------------------

def test_infer_amateur_one_hot_and_tie():
    k = 4
    amateur = Network([Dense(np.zeros((k, 3)), np.array([0.0, 0.0, 0.0, 10.0])),
                       Activation("softmax")])
    expert = copy_expert(k)
    model = ExpertNet(amateur, expert)
    np.testing.assert_array_equal(infer_amateur(model, [[1.0, 2.0, 3.0]]), [3])

    flat = Network([Dense(np.zeros((2, 3)), np.zeros(2)), Activation("softmax")])
    model2 = ExpertNet(flat, copy_expert(2))
    # exact tie -> class 0
    np.testing.assert_array_equal(infer_amateur(model2, [[0.3, -0.4, 0.9]]), [0])


def test_inference_rejects_a_1d_row():
    model = build_expertnet(3, 4, seed=0)
    with pytest.raises(DimensionError):
        infer_amateur(model, [1.0, 2.0, 3.0])  # one row must be a (1, 3) batch
    with pytest.raises(DimensionError):
        infer_full(model, [1.0, 2.0, 3.0], [1])


def test_infer_amateur_matches_argmax_scan():
    model = small_model(seed=20, n_classes=2, feature_dim=3)
    x = derive_rng(21).standard_normal((100, 3))
    preds = infer_amateur(model, x)
    probs, _ = forward(model.amateur, x)
    for i in range(100):
        best, best_p = 0, probs[i][0]
        for c in range(1, probs.shape[1]):
            if probs[i][c] > best_p:
                best, best_p = c, probs[i][c]
        assert preds[i] == best


def test_infer_full_copy_expert_returns_given_label():
    model = small_model(seed=23)
    model = ExpertNet(model.amateur, copy_expert(2))
    rng = derive_rng(24)
    x = rng.standard_normal((50, 3))
    y = rng.integers(0, 2, size=50)
    np.testing.assert_array_equal(infer_full(model, x, y), y)
    # deterministic: repeated calls agree
    np.testing.assert_array_equal(infer_full(model, x, y), infer_full(model, x, y))


def test_infer_full_matches_forward_replay():
    wa = np.array([[0.2, -0.1], [-0.4, 0.3]])
    ba = np.array([0.1, -0.2])
    we = np.array([[0.5, 0.1, -0.3, 0.2], [0.0, -0.2, 0.4, 0.6]])
    be = np.array([-0.1, 0.3])
    amateur = Network([Dense(wa, ba), Activation("softmax")])
    expert = Network([Dense(we, be), Activation("softmax")])
    model = ExpertNet(amateur, expert)
    x = [0.7, -0.9]
    y = 1

    def affine(w, b, vec):
        return [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i] for i in range(len(b))]

    pa = scalar_softmax(affine(wa, ba, x))
    pe = scalar_softmax(affine(we, be, pa + [0.0, 1.0]))
    expected = max(range(2), key=lambda c: pe[c])
    np.testing.assert_array_equal(infer_full(model, [x], [y]), [expected])


# --- train loop -----------------------------------------------------------------

def noisy_blob_sets(seed=30, n_classes=3, per_class=40, ratio=0.2):
    ds = make_blobs(n_classes, per_class + 20, 4, 6.0, 1.0, seed=seed)
    train_set, val_set = stratified_split(ds, per_class)
    train_set = train_set.with_given(
        corrupt_labels(train_set.true_labels, symmetric_matrix(n_classes, ratio), seed + 1))
    val_set = val_set.with_given(
        corrupt_labels(val_set.true_labels, symmetric_matrix(n_classes, ratio), seed + 2))
    return train_set, val_set


def test_train_single_batch_calls_one_step_per_epoch(monkeypatch):
    train_set, val_set = noisy_blob_sets()
    model = build_expertnet(4, 3, seed=1, amateur_hidden=(8,), expert_hidden=(8,))
    calls = []
    real_step = model_mod.train_step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(model_mod, "train_step", counting_step)
    _, history = train(model, train_set, val_set, epochs=2,
                       batch_size=train_set.n, schedule=StepDecay(0.01), seed=5)
    assert len(calls) == 2  # one batch per epoch
    assert len(history) == 2


def test_train_history_length_and_determinism():
    train_set, val_set = noisy_blob_sets()

    def run():
        model = build_expertnet(4, 3, seed=2, amateur_hidden=(8,), expert_hidden=(8,))
        model, history = train(model, train_set, val_set, epochs=4,
                               batch_size=16, schedule=StepDecay(0.01), seed=7)
        return model, history

    model_a, hist_a = run()
    model_b, hist_b = run()
    assert len(hist_a) == 4
    assert [h.epoch for h in hist_a] == [0, 1, 2, 3]
    assert all(h.amateur_loss >= 0.0 and h.expert_loss >= 0.0 for h in hist_a)
    assert hist_a == hist_b
    np.testing.assert_array_equal(model_a.amateur.params, model_b.amateur.params)


def test_train_noise_free_two_class_blobs_reach_99():
    # run oracle, threshold verified empirically: separable 2-class blobs with
    # clean given labels converge to >= 0.99 full-mode accuracy in 50 epochs
    for seed in range(1, 6):
        ds = make_blobs(2, 150, 8, 8.0, 1.0, seed=seed)
        train_set, val_set = stratified_split(ds, 100)
        train_set = train_set.with_given(train_set.true_labels)
        val_set = val_set.with_given(val_set.true_labels)
        model = build_expertnet(8, 2, seed=seed, amateur_hidden=(16,), expert_hidden=(16,))
        _, history = train(model, train_set, val_set, epochs=50, batch_size=64,
                           schedule=StepDecay(0.01), seed=seed)
        assert history[-1].val_full_accuracy >= 0.99


def test_train_requires_given_labels():
    ds = make_blobs(3, 30, 4, 6.0, 1.0, seed=3)
    train_set, val_set = stratified_split(ds, 20)
    model = build_expertnet(4, 3, seed=1, amateur_hidden=(8,), expert_hidden=(8,))
    with pytest.raises(ConfigurationError):
        train(model, train_set, val_set, 1, 8, StepDecay(0.01), seed=0)


def test_sigmoid_terminal_expert_renormalizes_soft_targets():
    model = build_expertnet(4, 3, seed=8, amateur_hidden=(8,), expert_hidden=(8,),
                            expert_terminal="sigmoid")
    assert model.expert.terminal_kind == "sigmoid"
    rng = derive_rng(40)
    x = rng.standard_normal((5, 4))
    probs, _ = forward(model.amateur, x)
    out, _ = forward(model.expert, model_mod.expert_input(probs, rng.integers(0, 3, 5)))
    assert not np.allclose(out.sum(axis=1), 1.0)  # sigmoid rows are not distributions
    target = out / np.add.reduce(out, axis=1, keepdims=True)  # the step's renormalization
    np.testing.assert_allclose(target.sum(axis=1), np.ones(5), atol=1e-12)
    # and a step still trains
    l_a, l_e = train_step(model, x, rng.integers(0, 3, 5), rng.integers(0, 3, 5), 0.01)
    assert math.isfinite(l_a) and math.isfinite(l_e)


def test_model_validation():
    amateur = mlp_for(3, 2)
    with pytest.raises(DimensionError):
        ExpertNet(amateur, mlp_for(3, 2))


@pytest.mark.parametrize("widths", [dict(amateur_hidden=(0,)), dict(expert_hidden=(8, 0))])
def test_build_expertnet_rejects_a_zero_width(widths):
    with pytest.raises(ConfigurationError, match=re.escape("mlp width must be >= 1, got 0")):
        build_expertnet(4, 3, seed=1, **widths)


@pytest.mark.parametrize("amateur, expert, error, message", [
    ((3, 3, "softmax"), (4, 2, "softmax"), DimensionError, "expert input dim must be 2\\*3"),
    ((3, 2, "softmax"), (4, 3, "softmax"), DimensionError, "expert outputs 3, expected 2"),
    ((3, 2, "sigmoid"), (4, 2, "softmax"), ConfigurationError, "amateur must end in softmax"),
    ((3, 2, "softmax"), (4, 2, "relu"), ConfigurationError,
     "expert must end in softmax or sigmoid"),
], ids=["amateur width", "expert width", "amateur terminal", "expert terminal"])
def test_model_validation_names_the_mismatch(amateur, expert, error, message):
    def net(in_dim, out_dim, terminal):
        return Network([Dense(np.zeros((out_dim, in_dim)), np.zeros(out_dim)),
                        Activation(terminal)])

    a, e = net(*amateur), net(*expert)
    with pytest.raises(error, match=message):
        ExpertNet(a, e)


def test_the_model_holds_one_setting_and_one_velocity_per_network():
    amateur, expert = mlp_for(3, 2), mlp_for(4, 2)  # 8 and 10 parameters
    model = ExpertNet(amateur, expert, 0.5, 0.01)
    assert model.amateur_velocity is not model.expert_velocity
    for net, velocity in ((amateur, model.amateur_velocity), (expert, model.expert_velocity)):
        assert velocity.shape == net.params.shape
        assert not velocity.any()
    assert (model.momentum, model.weight_decay) == (0.5, 0.01)
    assert not np.shares_memory(model.amateur_velocity, model.expert_velocity)


@pytest.mark.parametrize("momentum, weight_decay, message", [
    (5, 1e-4, "momentum must be in [0, 1), got 5"),
    (0.9, -1.0, "weight decay must be finite and >= 0, got -1.0"),
], ids=["momentum", "weight decay"])
def test_a_setting_outside_the_rule_is_rejected_at_construction_and_load(
        tmp_path, momentum, weight_decay, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        ExpertNet(mlp_for(3, 2), mlp_for(4, 2), momentum, weight_decay)
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(seed=3), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    setting = {"momentum": momentum, "weight_decay": weight_decay}
    path.write_text(json.dumps({**doc, "amateur_opt": setting, "expert_opt": setting}),
                    encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)


@pytest.mark.parametrize("call, message", [
    (lambda: accuracy([0, 1], [0]), "prediction/truth shapes differ: (2,) vs (1,)"),
    (lambda: expert_input([[1.5, -0.5]], [0]), "probability entries outside [0, 1]"),
], ids=["accuracy shapes", "probability range"])
def test_scoring_and_expert_input_reject_unusable_arguments(call, message):
    with pytest.raises(DataError, match=re.escape(message)):
        call()


def mlp_for(in_dim, out_dim):
    rng = derive_rng(99)
    return Network([Dense(rng.standard_normal((out_dim, in_dim)), np.zeros(out_dim)),
                    Activation("softmax")])


# --- checkpointing ----------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    train_set, val_set = noisy_blob_sets(seed=50)
    model = build_expertnet(4, 3, seed=9, amateur_hidden=(8,), expert_hidden=(8,))
    train(model, train_set, val_set, epochs=2, batch_size=16,
          schedule=StepDecay(0.01), seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(model.amateur.params, loaded.amateur.params)
    np.testing.assert_array_equal(model.expert.params, loaded.expert.params)
    x = val_set.features
    np.testing.assert_array_equal(infer_amateur(model, x), infer_amateur(loaded, x))
    np.testing.assert_array_equal(
        infer_full(model, x, val_set.given_labels),
        infer_full(loaded, x, val_set.given_labels),
    )


@pytest.mark.parametrize("header", [{"n_classes": 3, "feature_dim": 4}, {"n_classes": 4.0}, {}],
                         ids=["old header", "float class count", "none"])
def test_a_checkpoint_is_its_two_networks(tmp_path, header):
    """Class and feature counts are the layers' widths; a header that states them is ignored."""
    train_set, val_set = noisy_blob_sets(seed=51)
    model = build_expertnet(4, 3, seed=12, amateur_hidden=(8,), expert_hidden=(8,))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == ["format", "version", "amateur", "expert", "amateur_opt", "expert_opt"]
    path.write_text(json.dumps({**doc, **header}), encoding="utf-8")
    loaded = load_checkpoint(path)
    x, given_labels = val_set.features, val_set.given_labels
    np.testing.assert_array_equal(infer_amateur(loaded, x), infer_amateur(model, x))
    np.testing.assert_array_equal(infer_full(loaded, x, given_labels),
                                  infer_full(model, x, given_labels))
    losses = train_step(loaded, x[:8], given_labels[:8], val_set.true_labels[:8], 0.01)
    assert all(math.isfinite(loss) for loss in losses)


def test_a_checkpoint_holds_one_sgd_setting(tmp_path):
    model = build_expertnet(4, 3, seed=12, amateur_hidden=(8,), expert_hidden=(8,),
                            momentum=0.5, weight_decay=0.01)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == ["format", "version", "amateur", "expert", "amateur_opt", "expert_opt"]
    assert doc["amateur_opt"] == doc["expert_opt"] == {"momentum": 0.5, "weight_decay": 0.01}
    loaded = load_checkpoint(path)
    assert (loaded.momentum, loaded.weight_decay) == (0.5, 0.01)
    path.write_text(json.dumps({**doc, "expert_opt": {"momentum": 0.9, "weight_decay": 0.01}}),
                    encoding="utf-8")
    with pytest.raises(InputError,
                       match=re.escape(f"{path}: amateur_opt and expert_opt differ")):
        load_checkpoint(path)


def test_a_checkpoint_save_that_fails_midway_keeps_the_previous_checkpoint(tmp_path,
                                                                          monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_expertnet(4, 3, seed=9, amateur_hidden=(8,), expert_hidden=(8,)), path)
    before = path.read_bytes()

    class HalfFull:
        """A file that takes half of a text, then finds the disk full."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def half_full(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfFull(fh) if "w" in mode else fh

    monkeypatch.setattr(data_mod, "open", half_full, raising=False)
    other = build_expertnet(4, 3, seed=10, amateur_hidden=(8,), expert_hidden=(8,))
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"cannot write {path}: No space left on device")):
        save_checkpoint(other, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file is left


def test_load_checkpoint_adopts_the_layers_into_one_buffer(tmp_path):
    model = build_expertnet(4, 3, seed=9, amateur_hidden=(8,), expert_hidden=(8,))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for net, copy in ((model.amateur, loaded.amateur), (model.expert, loaded.expert)):
        np.testing.assert_array_equal(copy.params, net.params)
        for layer in (l for l in copy.layers if l.kind == "dense"):
            assert np.shares_memory(layer.weight, copy.params)
            assert np.shares_memory(layer.bias, copy.params)


widths = st.lists(st.integers(1, 6), max_size=2).map(tuple)


def describe(layer):
    """A layer's kind plus the one setting of its kind that a checkpoint stores."""
    if layer.kind == "dense":
        return "dense", layer.weight.shape
    return layer.kind, layer.slope if layer.kind == "leaky-relu" else None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(2, 4), st.integers(0, 2**32), widths, widths,
       st.sampled_from(("softmax", "sigmoid")),
       st.floats(0, 1, exclude_min=True, exclude_max=True, allow_nan=False))
def test_checkpoint_round_trip_over_architectures(tmp_path_factory, dim, k, seed,
                                                  amateur_hidden, expert_hidden,
                                                  terminal, slope):
    model = build_expertnet(dim, k, seed, amateur_hidden=amateur_hidden,
                            expert_hidden=expert_hidden, expert_terminal=terminal,
                            leaky_slope=slope)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for net, copy in ((model.amateur, loaded.amateur), (model.expert, loaded.expert)):
        assert [describe(layer) for layer in copy.layers] == \
            [describe(layer) for layer in net.layers]
        assert copy.params.dtype == np.float64 and np.array_equal(net.params, copy.params)
    rng = derive_rng(seed)
    x = rng.standard_normal((7, dim))
    given_labels = rng.integers(0, k, 7)
    np.testing.assert_array_equal(infer_full(loaded, x, given_labels),
                                  infer_full(model, x, given_labels))


def test_checkpoint_sigmoid_variant_and_bad_file(tmp_path):
    model = build_expertnet(4, 3, seed=10, amateur_hidden=(8,), expert_hidden=(8,),
                            expert_terminal="sigmoid")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert load_checkpoint(path).expert.terminal_kind == "sigmoid"
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(InputError):
        load_checkpoint(bad)


@pytest.mark.parametrize("text, error, what", [
    ("not json", InputError, "not JSON"),
    ('{"format": "expertnet-checkpoint", "version": 1}', InputError, "'amateur'"),
    ("[]", InputError, "not an expertnet-checkpoint"),
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": [1]}', InputError,
     "wrong type"),
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": null}', InputError,
     "wrong type"),
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": '
     '[{"kind": "dense", "weight": [["a"]], "bias": [0]}]}', InputError, "wrong type"),
    ('{"format": "expertnet-checkpoint", "version": 2}', InputError,
     "unsupported checkpoint version 2"),
    # layers that cannot form a network: shapes that do not chain, a stack that does not
    # alternate dense and activation, an unknown activation kind
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": ['
     '{"kind": "dense", "weight": [[0, 0]], "bias": [0]}, {"kind": "relu"}, '
     '{"kind": "dense", "weight": [[0, 0, 0]], "bias": [0]}, {"kind": "softmax"}]}',
     InputError, "layer expects width 3 but receives 1"),
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": [{"kind": "relu"}, '
     '{"kind": "dense", "weight": [[0]], "bias": [0]}, {"kind": "softmax"}]}',
     InputError, "dense layers each followed by one activation"),
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": ['
     '{"kind": "dense", "weight": [[0]], "bias": [0]}, {"kind": "swish"}]}',
     InputError, "unknown activation kind 'swish'"),
    # a dense layer 0 -> 4 (weight shape (4, 0)), the zero width JSON can spell: a (0, 4)
    # weight is written as [], which reads as shape (0,)
    ('{"format": "expertnet-checkpoint", "version": 1, "amateur": ['
     '{"kind": "dense", "weight": [[], [], [], []], "bias": [0, 0, 0, 0]}, '
     '{"kind": "softmax"}]}',
     InputError, "dense layer width must be >= 1, got 0"),
    # Python's json reads NaN and Infinity; a weight must still be a finite number
    ('{"format": "expertnet-checkpoint", "version": 1, '
     '"amateur": [{"kind": "dense", "weight": [[NaN]], "bias": [0]}, {"kind": "softmax"}], '
     '"expert": [{"kind": "dense", "weight": [[0]], "bias": [0]}, {"kind": "softmax"}]}',
     InputError, "a weight is not a finite number"),
    ('{"format": "expertnet-checkpoint", "version": 1, '
     '"amateur": [{"kind": "dense", "weight": [[0]], "bias": [0]}, {"kind": "softmax"}], '
     '"expert": [{"kind": "dense", "weight": [[0]], "bias": [Infinity]}, {"kind": "softmax"}]}',
     InputError, "a weight is not a finite number"),
    # input Python's json or float cannot hold: nesting past the recursion limit, an
    # integer past the digit limit, and an integer weight past float range
    pytest.param("[" * 100_000, InputError, "not JSON", id="nesting 100,000 deep"),
    pytest.param('{"format": "expertnet-checkpoint", "version": 1, "amateur": ['
                 + "7" * 5000 + "]}", InputError, "not JSON", id="a 5,000-digit integer"),
    pytest.param('{"format": "expertnet-checkpoint", "version": 1, '
                 '"amateur": [{"kind": "dense", "weight": [[1' + "0" * 400 + ']], '
                 '"bias": [0]}, {"kind": "softmax"}], '
                 '"expert": [{"kind": "dense", "weight": [[0]], "bias": [0]}, '
                 '{"kind": "softmax"}]}',
                 InputError, "a weight is not a finite number", id="a weight of 10**400"),
])
def test_malformed_checkpoint_names_the_file(tmp_path, text, error, what):
    path = tmp_path / "bad.ckpt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=what) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)
