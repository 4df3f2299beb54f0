"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4-6 are desk-scale directional experiments; their blob separations
were calibrated once (documented in the repo notes) and are fixed here, as are
all tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from fractions import Fraction

import numpy as np
import pytest

import expertnet.model as model_mod
from expertnet.baselines import BaselineSpec, train_baseline
from expertnet.data import make_blobs, one_hot_batch, stratified_split
from expertnet.harness import BlobsSpec, ExperimentConfig, emit_report, grid_records, run_grid
from expertnet.model import build_expertnet, train_step
from expertnet.nn import CROSS_ENTROPY, ForwardCorrectedLoss, StepDecay, gradient_check, mlp
from expertnet.noise import corrupt_labels, empirical_matrix, symmetric_matrix
from expertnet.seeding import derive_rng


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def grid_config(**kwargs):
    defaults = dict(methods=("expertnet",), seeds=(1, 2, 3, 4, 5),
                    epochs=80, batch_size=64, lr=0.01,
                    lr_decay_factor=0.1, lr_decay_period=30)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def mode_means(records, ratio, fraction):
    out = {}
    for mode in ("amateur-only", "full"):
        accs = [r.accuracy for r in records
                if r.status == "ok" and r.mode == mode
                and r.noise_ratio == ratio and r.fraction == fraction]
        out[mode] = float(np.mean(accs)) if accs else float("nan")
    return out


def test_criterion_1_gradient_correctness():
    rng = derive_rng(1001)
    hiddens = ("relu", "leaky-relu", "sigmoid")
    terminals = ("softmax", "sigmoid")
    worst = 0.0
    cases = 100
    for case in range(cases):
        k = int(rng.integers(2, 5))
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 7)), k)
        net = mlp(dims, hidden=hiddens[case % 3], terminal=terminals[case % 2],
                  leaky_slope=float(rng.uniform(0.01, 0.5)), rng=rng)
        x = rng.standard_normal((3, dims[0]))
        targets = rng.random((3, k))
        targets /= targets.sum(axis=1, keepdims=True)
        loss = CROSS_ENTROPY if case % 2 == 0 else \
            ForwardCorrectedLoss(symmetric_matrix(k, float(rng.uniform(0.0, 0.6))))
        worst = max(worst, gradient_check(net, x, targets, loss, h=1e-5))
    report(1, "gradient correctness", worst < 1e-4,
           f"{cases} configs, worst relative error {worst:.3e} < 1e-4")


def test_criterion_2_training_step_fidelity(monkeypatch):
    model = build_expertnet(3, 2, seed=4, amateur_hidden=(8,), expert_hidden=(8,))
    amateur_before = model.amateur.params.copy()
    expert_before = model.expert.params.copy()
    rng = derive_rng(1002)
    x = rng.standard_normal((6, 3))
    y = rng.integers(0, 2, size=6)
    t = np.where(rng.random(6) < 0.5, y, 1 - y)  # make t and y differ somewhere
    if np.array_equal(t, y):
        t[0] = 1 - t[0]

    events = []
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
        events.append(("forward", net_name(net), snap(net), out[0].copy()))
        return out

    def spy_lag(net, batch, targets, loss):
        events.append(("grad", net_name(net), snap(net), np.array(targets, copy=True)))
        return real_lag(net, batch, targets, loss)

    def spy_backward(net, acts, targets, loss):
        events.append(("grad", net_name(net), snap(net), np.array(targets, copy=True)))
        return real_backward(net, acts, targets, loss)

    def spy_sgd(params, grads, velocity, lr, momentum, weight_decay):
        real_sgd(params, grads, velocity, lr, momentum, weight_decay)
        which = "expert" if params is model.expert.params else "amateur"
        events.append(("sgd", which, snap(model.amateur), snap(model.expert)))

    monkeypatch.setattr(model_mod, "forward", spy_forward)
    monkeypatch.setattr(model_mod, "loss_and_gradients", spy_lag)
    monkeypatch.setattr(model_mod, "backward", spy_backward)
    monkeypatch.setattr(model_mod, "sgd_step", spy_sgd)
    train_step(model, x, y, t, lr=0.05)

    order_ok = [(e[0], e[1]) for e in events] == [
        ("forward", "amateur"), ("grad", "expert"), ("sgd", "expert"),
        ("forward", "expert"), ("grad", "amateur"), ("sgd", "amateur")]
    forward_a, grad_e, sgd_e, forward_e, grad_a, sgd_a = events
    expert_target_ok = (np.array_equal(grad_e[3], one_hot_batch(t, 2))
                        and not np.array_equal(grad_e[3], one_hot_batch(y, 2)))
    post_update_predict_ok = (np.array_equal(forward_e[2], sgd_e[3])
                              and not np.array_equal(forward_e[2], expert_before))
    amateur_target_ok = np.array_equal(grad_a[3], forward_e[3])
    isolation_ok = (np.array_equal(sgd_e[2], amateur_before)
                    and np.array_equal(sgd_a[3], sgd_e[3])
                    and not np.array_equal(sgd_a[2], amateur_before))
    ok = order_ok and expert_target_ok and post_update_predict_ok \
        and amateur_target_ok and isolation_ok
    report(2, "training-step fidelity", ok,
           f"order={order_ok} expert_target={expert_target_ok} "
           f"post_update_predict={post_update_predict_ok} "
           f"amateur_target={amateur_target_ok} isolation={isolation_ok}")


def test_criterion_3_noise_engine_statistics():
    rational_ok = True
    for k, ratio in ((10, 0.2), (10, 0.3), (4, 0.4), (7, 0.5), (2, 0.25)):
        matrix = symmetric_matrix(k, ratio)
        rho = Fraction(ratio)
        exact_rows = [(1 - rho) + (k - 1) * (rho / (k - 1))] * k
        rational_ok &= all(row == 1 for row in exact_rows)
        # float entries are correctly rounded images of the exact construction
        rational_ok &= bool(np.all(matrix.diagonal() == float(1 - rho)))
        off = matrix[~np.eye(k, dtype=bool)]
        rational_ok &= bool(np.all(off == float(rho / (k - 1))))

    n = 10_000
    labels = derive_rng(1003).integers(0, 10, size=n)
    flip_ok, flip_detail = True, []
    for ratio in (0.2, 0.3, 0.4, 0.5):
        given = corrupt_labels(labels, symmetric_matrix(10, ratio), 31)
        realized = float(np.mean(given != labels))
        band = 3.0 * np.sqrt(ratio * (1.0 - ratio) / n)
        flip_ok &= abs(realized - ratio) < band
        flip_detail.append(f"rho={ratio}: {realized:.4f}")

    k, per_class = 4, 25_000
    true = np.repeat(np.arange(k), per_class)
    given = corrupt_labels(true, symmetric_matrix(k, 0.3), 32)
    deviation = float(np.abs(empirical_matrix(true, given, k) - symmetric_matrix(k, 0.3)).max())
    empirical_ok = deviation < 0.02

    report(3, "noise-engine statistics", rational_ok and flip_ok and empirical_ok,
           f"rational row sums exact={rational_ok}; flips {', '.join(flip_detail)}; "
           f"empirical max deviation {deviation:.4f} < 0.02 at N=10^5")


ZERO_NOISE_BLOBS = BlobsSpec(classes=4, dim=16, per_class=500, val_per_class=250,
                             separation=6.0, spread=1.0)
# separations below re-tuned so the orderings are observable at desk scale;
# at 6.0 the amateur saturates >= 0.99 and no 2-point gap can exist
ORDERING_BLOBS = BlobsSpec(classes=4, dim=16, per_class=500, val_per_class=250,
                           separation=2.2, spread=1.0)
FRACTION_BLOBS = BlobsSpec(classes=4, dim=16, per_class=500, val_per_class=250,
                           separation=1.5, spread=1.0)


def test_criterion_4_zero_noise_sanity():
    config = grid_config(dataset=ZERO_NOISE_BLOBS, noise_ratios=(0.0,),
                         fractions=(1.0,), epochs=60, lr_decay_period=None)
    records = grid_records(run_grid(config))
    full = {r.seed: r.accuracy for r in records if r.mode == "full"}
    amateur = {r.seed: r.accuracy for r in records if r.mode == "amateur-only"}
    threshold_ok = len(full) == 5 and all(a >= 0.99 for a in full.values())
    # with a perfect label channel the full mode never trails the amateur
    ordering_ok = all(full[s] >= amateur[s] for s in full)
    report(4, "zero-noise sanity", threshold_ok and ordering_ok,
           "full-mode accuracies " + ", ".join(f"{a:.4f}" for a in full.values())
           + f" (all >= 0.99, 5/5 seeds, 60 <= 100 epochs); full >= amateur: {ordering_ok}")


def test_criterion_5_label_channel_ordering():
    config = grid_config(dataset=ORDERING_BLOBS, noise_ratios=(0.2, 0.4), fractions=(1.0,))
    records = grid_records(run_grid(config))
    details, ok = [], True
    for ratio in (0.2, 0.4):
        means = mode_means(records, ratio, 1.0)
        full, amateur = means["full"], means["amateur-only"]
        copy_baseline = 1.0 - ratio
        gap_amateur = full - amateur
        gap_copy = full - copy_baseline
        ok &= gap_amateur >= 0.02 and gap_copy >= 0.02
        details.append(f"rho={ratio}: full={full:.4f} amateur={amateur:.4f} "
                       f"copy={copy_baseline:.2f} gaps=({gap_amateur:.4f}, {gap_copy:.4f})")
    report(5, "label-channel ordering", ok,
           "; ".join(details) + "; both gaps >= 0.02 required")


def test_criterion_6_data_fraction_trend():
    config = grid_config(dataset=FRACTION_BLOBS, noise_ratios=(0.3,),
                         fractions=(1.0, 0.6, 0.2))
    records = grid_records(run_grid(config))
    full = {f: mode_means(records, 0.3, f)["full"] for f in (1.0, 0.6, 0.2)}
    amateur_at_full_data = mode_means(records, 0.3, 1.0)["amateur-only"]
    monotone = full[1.0] >= full[0.6] - 0.01 and full[0.6] >= full[0.2] - 0.01
    crossover = full[0.2] > amateur_at_full_data
    report(6, "data-fraction trend", monotone and crossover,
           f"full at fractions 1.0/0.6/0.2 = {full[1.0]:.4f}/{full[0.6]:.4f}/{full[0.2]:.4f} "
           f"(non-increasing within 0.01: {monotone}); "
           f"full@0.2={full[0.2]:.4f} > amateur@1.0={amateur_at_full_data:.4f}: {crossover}")


def _reduction_sets(seed=81):
    ds = make_blobs(3, 60, 4, 4.0, 1.0, seed=seed)
    train_set, val_set = stratified_split(ds, 40)
    train_set = train_set.with_given(
        corrupt_labels(train_set.true_labels, symmetric_matrix(3, 0.3), seed + 1))
    val_set = val_set.with_given(
        corrupt_labels(val_set.true_labels, symmetric_matrix(3, 0.3), seed + 2))
    return train_set, val_set


def test_criterion_7_baseline_reductions():
    train_set, val_set = _reduction_sets()

    def run(spec):
        return train_baseline(spec, train_set, val_set, epochs=5, batch_size=16,
                              schedule=StepDecay(0.01), seed=7, hidden=(16,))

    net_plain, hist_plain = run(BaselineSpec("plain-ce"))
    net_boot, hist_boot = run(BaselineSpec("bootstrap", beta=1.0))
    net_fwd, hist_fwd = run(BaselineSpec("forward", matrix=np.eye(3)))
    boot_identical = hist_boot == hist_plain and np.array_equal(net_plain.params, net_boot.params)
    fwd_identical = hist_fwd == hist_plain and np.array_equal(net_plain.params, net_fwd.params)

    config = grid_config(dataset=BlobsSpec(4, 16, 500, 250, 2.5, 1.0),
                         methods=("plain-ce", "forward"),
                         noise_ratios=(0.4,), fractions=(1.0,))
    records = grid_records(run_grid(config))

    def mean_for(method):
        return float(np.mean([r.accuracy for r in records if r.method == method]))

    plain_mean, forward_mean = mean_for("plain-ce"), mean_for("forward")
    beats = forward_mean > plain_mean
    report(7, "baseline reductions",
           boot_identical and fwd_identical and beats,
           f"bootstrap beta=1 bit-identical: {boot_identical}; "
           f"forward identity-matrix bit-identical: {fwd_identical}; "
           f"forward {forward_mean:.4f} > plain-ce {plain_mean:.4f} at rho=0.4: {beats}")


def test_criterion_8_determinism_and_fairness(tmp_path):
    config = grid_config(dataset=BlobsSpec(3, 4, 25, 15, 5.0, 1.0),
                         methods=("expertnet", "plain-ce"),
                         noise_ratios=(0.2,), fractions=(1.0,), seeds=(1, 2),
                         epochs=2, batch_size=16, amateur_hidden=(8,), expert_hidden=(8,),
                         lr_decay_period=None)  # 4 grid cells
    first = run_grid(config)
    second = run_grid(config)
    emit_report(first, tmp_path / "a")
    emit_report(second, tmp_path / "b")
    identical = (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()
    hashes_by_cell = {}
    for r in grid_records(first):
        hashes_by_cell.setdefault((r.noise_ratio, r.fraction, r.seed), set()).add(r.dataset_hash)
    fair = all(len(hashes) == 1 for hashes in hashes_by_cell.values())
    report(8, "determinism and fairness", identical and fair,
           f"byte-identical results.csv on re-run: {identical}; "
           f"equal-seed cells share dataset hashes: {fair}")
