"""Baseline tests: bootstrap/forward target algebra against direct arithmetic,
bit-identical reductions to plain cross-entropy, and shared batching."""

import re
from dataclasses import replace

import numpy as np
import pytest

import expertnet.baselines as baselines_mod
import expertnet.model as model_mod
from expertnet.baselines import (
    BaselineSpec,
    bootstrap_target,
    train_baseline,
)
from expertnet.data import make_blobs, stratified_split
from expertnet.errors import ConfigurationError, DimensionError
from expertnet.model import build_expertnet, train
from expertnet.nn import ForwardCorrectedLoss, StepDecay
from expertnet.noise import corrupt_labels, symmetric_matrix
from expertnet.seeding import derive_rng


def test_bootstrap_target_beta_one_is_exactly_one_hot():
    pred = np.array([[0.3, 0.7]])
    out = bootstrap_target(pred, [0], beta=1.0)
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_bootstrap_target_beta_zero_keeps_prediction():
    pred = np.array([[0.3, 0.7]])
    np.testing.assert_array_equal(bootstrap_target(pred, [0], beta=0.0), pred)


def test_bootstrap_target_direct_arithmetic():
    out = bootstrap_target(np.array([[0.3, 0.7]]), [0], beta=0.8, variant="soft")
    # 0.8*[1,0] + 0.2*[0.3,0.7]
    np.testing.assert_allclose(out, [[0.86, 0.14]], atol=1e-15)
    hard = bootstrap_target(np.array([[0.3, 0.7]]), [0], beta=0.8, variant="hard")
    np.testing.assert_allclose(hard, [[0.8, 0.2]], atol=1e-15)


def test_bootstrap_target_is_distribution_and_affine_in_pred():
    rng = derive_rng(61)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        p1 = rng.random((1, k)); p1 /= p1.sum()
        p2 = rng.random((1, k)); p2 /= p2.sum()
        y = [int(rng.integers(0, k))]
        beta = float(rng.uniform(0.1, 1.0))
        out = bootstrap_target(p1, y, beta)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0.0)
        alpha = float(rng.uniform(0.0, 1.0))
        mixed = bootstrap_target(alpha * p1 + (1 - alpha) * p2, y, beta)
        combo = alpha * bootstrap_target(p1, y, beta) + (1 - alpha) * bootstrap_target(p2, y, beta)
        np.testing.assert_allclose(mixed, combo, atol=1e-12)


def test_bootstrap_target_validation():
    with pytest.raises(ConfigurationError):
        bootstrap_target(np.array([[1.0, 0.0]]), [0], beta=1.5)
    with pytest.raises(ConfigurationError):
        bootstrap_target(np.array([[1.0, 0.0]]), [0], beta=0.5, variant="medium")
    with pytest.raises(DimensionError):
        bootstrap_target(np.array([1.0, 0.0]), [0], beta=0.5)  # a single row must be (1, K)
    with pytest.raises(DimensionError,
                       match=re.escape("labels must be one per row of 2, got shape (1,)")):
        bootstrap_target(np.full((2, 2), 0.5), [0], beta=0.5)


def test_forward_corrected_identity_matrix():
    pred = np.array([0.2, 0.5, 0.3])
    np.testing.assert_array_equal(ForwardCorrectedLoss(np.eye(3)).noisy(pred), pred)


def test_forward_corrected_one_hot_prediction_selects_row():
    matrix = symmetric_matrix(3, 0.3)
    for i in range(3):
        pred = np.zeros(3)
        pred[i] = 1.0
        np.testing.assert_allclose(ForwardCorrectedLoss(matrix).noisy(pred), matrix[i],
                                   atol=1e-15)


def test_forward_corrected_matches_matvec_oracle():
    rng = derive_rng(62)
    for _ in range(20):
        k = 3
        pred = rng.random(k)
        pred /= pred.sum()
        matrix = symmetric_matrix(k, float(rng.uniform(0.0, 0.8)))
        out = ForwardCorrectedLoss(matrix).noisy(pred)
        oracle = [sum(matrix[i][j] * pred[i] for i in range(k)) for j in range(k)]
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)  # mass preserved


def test_forward_corrected_dimension_mismatch():
    with pytest.raises(DimensionError):
        ForwardCorrectedLoss(np.eye(3)).noisy(np.array([0.5, 0.5]))


def test_baseline_spec_validation():
    with pytest.raises(ConfigurationError):
        BaselineSpec("d2l")
    with pytest.raises(ConfigurationError):
        BaselineSpec("bootstrap", beta=0.0)  # spec-level beta is (0, 1]
    with pytest.raises(ConfigurationError):
        BaselineSpec("forward")


def noisy_sets(ratio=0.3, seed=70, n_classes=3, per_class=40):
    ds = make_blobs(n_classes, per_class + 20, 4, 4.0, 1.0, seed=seed)
    train_set, val_set = stratified_split(ds, per_class)
    train_set = train_set.with_given(
        corrupt_labels(train_set.true_labels, symmetric_matrix(n_classes, ratio), seed + 1))
    val_set = val_set.with_given(
        corrupt_labels(val_set.true_labels, symmetric_matrix(n_classes, ratio), seed + 2))
    return train_set, val_set


def run_baseline(spec, seed=5, epochs=4):
    train_set, val_set = noisy_sets()
    return train_baseline(spec, train_set, val_set, epochs=epochs, batch_size=16,
                          schedule=StepDecay(0.01), seed=seed, hidden=(8,))


def test_bootstrap_beta_one_trajectory_bit_identical_to_plain_ce():
    net_plain, hist_plain = run_baseline(BaselineSpec("plain-ce"))
    net_boot, hist_boot = run_baseline(BaselineSpec("bootstrap", beta=1.0))
    np.testing.assert_array_equal(net_plain.params, net_boot.params)
    assert hist_plain == hist_boot


def test_forward_identity_matrix_bit_identical_to_plain_ce():
    net_plain, hist_plain = run_baseline(BaselineSpec("plain-ce"))
    net_fwd, hist_fwd = run_baseline(BaselineSpec("forward", matrix=np.eye(3)))
    np.testing.assert_array_equal(net_plain.params, net_fwd.params)
    assert hist_plain == hist_fwd


def test_bootstrap_runs_the_network_once_per_batch(monkeypatch):
    calls = []
    real_mlp = model_mod.mlp

    def counting_mlp(*args, **kwargs):
        net = real_mlp(*args, **kwargs)
        real_apply = net.layers[0].apply

        def counted(x):
            calls.append(1)
            return real_apply(x)

        net.layers[0].apply = counted
        return net

    monkeypatch.setattr(model_mod, "mlp", counting_mlp)
    train_set, _ = noisy_sets()
    batches = -(-train_set.n // 16)
    run_baseline(BaselineSpec("bootstrap", beta=0.8), epochs=2)
    assert len(calls) == 2 * batches + 2  # one pass per batch, one per evaluation


def test_baselines_share_batching_with_cotraining(monkeypatch):
    """Equal seed -> identical batch sequences across training procedures."""
    recorded = {"model": [], "baselines": []}
    real_fit = model_mod.fit

    def recording_fit(procedure):
        def fit(net, step, *args, **kwargs):
            def recorded_step(x, given, true, lr):
                recorded[procedure].append((x.copy(), given.copy(), true.copy()))
                return step(x, given, true, lr)
            return real_fit(net, recorded_step, *args, **kwargs)
        return fit

    # `train` calls `fit` through `model`, `train_baseline` through the name it imported
    monkeypatch.setattr(model_mod, "fit", recording_fit("model"))
    monkeypatch.setattr(baselines_mod, "fit", recording_fit("baselines"))

    train_set, val_set = noisy_sets()
    model = build_expertnet(4, 3, seed=77, amateur_hidden=(8,), expert_hidden=(8,))
    train(model, train_set, val_set, epochs=2, batch_size=16,
          schedule=StepDecay(0.01), seed=42)
    train_baseline(BaselineSpec("plain-ce"), train_set, val_set, epochs=2,
                   batch_size=16, schedule=StepDecay(0.01), seed=42, hidden=(8,))

    assert len(recorded["model"]) == len(recorded["baselines"]) > 0
    for a, b in zip(recorded["model"], recorded["baselines"]):
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_forward_passes_belong_to_the_steps_and_one_per_network_to_each_evaluation(monkeypatch):
    """3 passes per co-training step, 1 per baseline step; each epoch's validation pass
    is one more per network it evaluates."""
    import expertnet.nn as nn_mod

    calls = []
    real_forward = nn_mod.forward

    def counted(net, batch):
        calls.append(1)
        return real_forward(net, batch)

    for module in (nn_mod, model_mod, baselines_mod):  # loss_and_gradients calls nn's
        monkeypatch.setattr(module, "forward", counted)
    train_set, val_set = noisy_sets()
    steps = 2 * -(-train_set.n // 16)
    model = build_expertnet(4, 3, seed=77, amateur_hidden=(8,), expert_hidden=(8,))
    train(model, train_set, val_set, epochs=2, batch_size=16, schedule=StepDecay(0.01), seed=42)
    assert len(calls) == 3 * steps + 2 * 2 == 52  # the amateur and the expert, per epoch
    calls.clear()
    train_baseline(BaselineSpec("plain-ce"), train_set, val_set, epochs=2, batch_size=16,
                   schedule=StepDecay(0.01), seed=42, hidden=(8,))
    assert len(calls) == steps + 2 == 18


def co_train(train_set, val_set, epochs=1, batch_size=16):
    model = build_expertnet(4, 3, seed=77, amateur_hidden=(8,), expert_hidden=(8,))
    return train(model, train_set, val_set, epochs=epochs, batch_size=batch_size,
                 schedule=StepDecay(0.01), seed=42)[1]


def plain_ce(train_set, val_set, epochs=1, batch_size=16):
    return train_baseline(BaselineSpec("plain-ce"), train_set, val_set, epochs=epochs,
                          batch_size=batch_size, schedule=StepDecay(0.01), seed=42,
                          hidden=(8,))[1]


@pytest.mark.parametrize("procedure", [co_train, plain_ce], ids=["train", "train_baseline"])
@pytest.mark.parametrize("split, change, errors", [
    (0, "empty", ["train set is empty"] * 2),
    (1, "empty", ["validation set is empty"] * 2),
    (0, "no given", ["train set has no given labels; inject noise first"] * 2),
    # baselines infer without given labels
    (1, "no given", ["validation set has no given labels; inject noise first", None]),
    (None, "zero epochs", ["epochs must be >= 1, got 0"] * 2),
    (None, "zero batch size", ["batch_size must be >= 1, got 0"] * 2),
], ids=["empty train", "empty validation", "train without given", "validation without given",
        "zero epochs", "zero batch size"])
def test_training_checks_its_splits(procedure, split, change, errors):
    sets = list(noisy_sets())
    if split is not None:
        ds = sets[split]
        sets[split] = ds.take(np.arange(0)) if change == "empty" else replace(ds, given_labels=None)
    epochs = 0 if change == "zero epochs" else 1
    batch_size = 0 if change == "zero batch size" else 16
    error = errors[procedure is plain_ce]
    if error is None:
        assert len(procedure(*sets, epochs, batch_size)) == 1
    else:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(error)}$"):
            procedure(*sets, epochs, batch_size)


def test_plain_ce_noise_free_blobs_reach_99():
    # run oracle, threshold verified empirically
    for seed in range(1, 6):
        ds = make_blobs(3, 150, 8, 8.0, 1.0, seed=seed)
        train_set, val_set = stratified_split(ds, 100)
        train_set = train_set.with_given(train_set.true_labels)
        val_set = val_set.with_given(val_set.true_labels)
        _, history = train_baseline(BaselineSpec("plain-ce"), train_set, val_set,
                                    epochs=50, batch_size=64,
                                    schedule=StepDecay(0.01), seed=seed, hidden=(16,))
        assert history[-1].val_amateur_accuracy >= 0.99


def test_baseline_shares_initial_weights_with_amateur():
    train_set, _ = noisy_sets()
    model = build_expertnet(train_set.dim, train_set.n_classes, seed=123,
                            amateur_hidden=(8,))
    net, _ = run_baseline(BaselineSpec("plain-ce"), seed=123, epochs=1)
    # identical init stream: compare against a freshly built amateur
    fresh = build_expertnet(train_set.dim, train_set.n_classes, seed=123,
                            amateur_hidden=(8,)).amateur
    np.testing.assert_array_equal(model.amateur.params, fresh.params)
    assert net.input_dim == model.amateur.input_dim
    assert net.output_dim == model.amateur.output_dim
