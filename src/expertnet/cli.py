"""Command-line front door: run grids, train single cells, inspect noise
statistics, and verify the gradient engine."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness
from .data import check_array_size, write_target
from .errors import ConfigurationError, ExpertNetError
from .model import save_checkpoint
from .nn import CROSS_ENTROPY, ForwardCorrectedLoss, gradient_check, mlp
from .noise import corrupt_labels, empirical_matrix, load_matrix_csv, symmetric_matrix
from .seeding import check_seed, derive_rng


def _add_common(parser):
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")


def _load_config(args, flags: dict) -> harness.ExperimentConfig:
    """The --config file with the --set pairs and then `flags` (key -> value) on top."""
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ExpertNetError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    overrides.update(flags)
    if args.config:
        return harness.read_config(args.config, overrides)
    return harness.parse_config("", overrides)


def cmd_run(args) -> int:
    config = _load_config(args, {} if args.out is None else {"out": args.out})
    if args.threads < 1:  # --threads has no other effect; checked before the output dir is made
        raise ConfigurationError(f"threads must be >= 1, got {args.threads}")
    harness.make_output_dir(config.out)
    runs = harness.run_grid(config)
    paths = harness.emit_report(runs, config.out)
    records = harness.grid_records(runs)
    failed = [r for r in records if r.status != "ok"]
    for path in paths:
        print(f"wrote {path}")
    print(f"{len(records)} records, {len(failed)} failed")
    for r in failed:
        print(f"  FAILED {r.method}/{r.mode} rho={r.noise_ratio:g} "
              f"frac={r.fraction:g} seed={r.seed}: {r.diagnostic}")
    return 1 if failed else 0


def cmd_train(args) -> int:
    config = _load_config(args, {})
    method = config.methods[0]
    if args.save and method != "expertnet":
        raise ConfigurationError(f"--save writes expertnet checkpoints only, not {method}")
    if args.save:
        write_target(args.save)
    ratio, fraction, seed = config.noise_ratios[0], config.fractions[0], config.seeds[0]
    train_set, val_set, matrix = harness.build_cell_datasets(config, ratio, fraction, seed,
                                                             harness.load_source(config))
    model, history = harness.train_method(config, method, harness.cell_seed(seed, ratio, fraction),
                                          train_set, val_set, matrix)
    print(f"method={method} rho={ratio:g} frac={fraction:g} seed={seed} "
          f"train_n={train_set.n} val_n={val_set.n}")
    for h in history:
        print(f"epoch {h.epoch:3d}  {h.describe()}")
    if args.save:
        save_checkpoint(model, args.save)
        print(f"checkpoint written to {args.save}")
    return 0


def cmd_noise_stats(args) -> int:
    check_seed(args.seed, "--seed")
    matrix = (load_matrix_csv(args.matrix) if args.matrix
              else symmetric_matrix(args.classes, args.ratio))
    k = matrix.shape[0]
    if args.samples < k:
        raise ConfigurationError(f"--samples must be >= the class count {k}, got {args.samples}")
    check_array_size("--samples", args.samples)
    true = np.repeat(np.arange(k), args.samples // k)
    given = corrupt_labels(true, matrix, args.seed)
    observed = empirical_matrix(true, given, k)
    flip_rate = float(np.mean(given != true))
    print(f"classes={k} samples={true.size} seed={args.seed}")
    print(f"realized flip rate: {flip_rate:.4f}")
    print(f"max |observed - nominal| entry: {np.abs(observed - matrix).max():.4f}")
    for name, rows in (("nominal", matrix), ("observed", observed)):
        print(f"{name} matrix:")
        for row in rows:
            print("  " + " ".join(f"{v:.4f}" for v in row))
    return 0


def cmd_gradcheck(args) -> int:
    if args.cases < 1:
        raise ConfigurationError(f"--cases must be >= 1, got {args.cases}")
    check_seed(args.seed, "--seed")
    rng = derive_rng(args.seed)
    hiddens = ["relu", "leaky-relu", "sigmoid"]
    terminals = ["softmax", "sigmoid"]
    worst = 0.0
    failures = 0
    for case in range(args.cases):
        k = int(rng.integers(2, 5))
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 7)), k)
        hidden = hiddens[case % len(hiddens)]
        terminal = terminals[(case // len(hiddens)) % len(terminals)]
        net = mlp(dims, hidden=hidden, terminal=terminal, rng=rng)
        x = rng.standard_normal((3, dims[0]))
        targets = rng.random((3, k))
        targets /= targets.sum(axis=1, keepdims=True)
        loss = CROSS_ENTROPY if case % 2 == 0 else ForwardCorrectedLoss(symmetric_matrix(k, 0.3))
        err = gradient_check(net, x, targets, loss)
        worst = max(worst, err)
        if err > 1e-4:
            failures += 1
            print(f"case {case}: FAIL relative error {err:.3e} "
                  f"(hidden={hidden}, terminal={terminal})")
    print(f"{args.cases} cases, worst relative error {worst:.3e}, tolerance 1e-4")
    print("gradcheck PASS" if failures == 0 else f"gradcheck FAIL ({failures} cases)")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expertnet",
        description="Noisy-label co-training experiments: an amateur classifier "
                    "and an expert label corrector trained alternately.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment grid from a config")
    _add_common(p_run)
    p_run.add_argument("--out", help="output directory; wins over --set out=")
    p_run.add_argument("--threads", type=int, default=1,
                       help="kept for old command lines: must be >= 1, no effect")
    p_run.set_defaults(fn=cmd_run)

    p_train = sub.add_parser("train", help="train the first method on the first grid cell")
    _add_common(p_train)
    p_train.add_argument("--save", help="write a model checkpoint here (expertnet only)")
    p_train.set_defaults(fn=cmd_train)

    p_noise = sub.add_parser("noise-stats", help="empirical transition-matrix report")
    p_noise.add_argument("--classes", type=int, default=10)
    p_noise.add_argument("--ratio", type=float, default=0.3)
    p_noise.add_argument("--samples", type=int, default=100000)
    p_noise.add_argument("--matrix", help="transition matrix CSV instead of symmetric noise")
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.set_defaults(fn=cmd_noise_stats)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the gradient engine")
    p_grad.add_argument("--cases", type=int, default=100)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ExpertNetError, MemoryError) as exc:  # MemoryError: a size this machine cannot hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
