"""Tests for the benchmark's tracer: self-time arithmetic, metric naming, and
wrappers that leave the program's behaviour and bindings as they found them."""

import json
import os
import re
import sys
from array import array

import pytest

import run
import tracer
from tracer import NF, Trace, count_under, layer_metrics, span_stats
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def rows(*spans):
    flat = array("q")
    for span in spans:
        assert len(span) == NF
        flat.extend(span)
    return flat


# (id, parent, name, start, end, cpu, work); spans are stored in completion order
THREAD_1 = rows(
    (1, 0, 1, 10, 30, 15, 0),    # b, child of a
    (3, 2, 1, 50, 60, 10, 0),    # b, child of c
    (2, 0, 2, 40, 90, 45, 0),    # c, sibling of the first b
    (0, -1, 0, 0, 100, 90, 7),   # a, root
)
THREAD_2 = rows(
    (0, -1, 0, 20, 80, 30, 5),   # a, concurrent with thread 1's a
)


def synthetic():
    return Trace(["a", "b", "c"], [(1, THREAD_1), (2, THREAD_2)], set())


def test_self_time_subtracts_direct_children_on_the_same_thread():
    st = span_stats(synthetic())
    # thread 1: a = 100 - (20 + 50); thread 2's a has no children and overlaps it
    assert (st["a"].calls, st["a"].total_ns, st["a"].self_ns) == (2, 160, 30 + 60)
    assert (st["b"].calls, st["b"].total_ns, st["b"].self_ns) == (2, 30, 30)
    assert (st["c"].calls, st["c"].total_ns, st["c"].self_ns) == (1, 50, 40)
    assert (st["a"].cpu_ns, st["a"].work) == (120, 12)


def test_count_under_follows_the_parent_chain():
    trace = synthetic()
    assert count_under(trace, "b", "a") == 2
    assert count_under(trace, "b", "c") == 1
    assert count_under(trace, "a", "c") == 0


def test_cell_layers_read_unmeasured_when_cells_run_out_of_sight():
    names = list(tracer.SPANS)
    main, grid = names.index("cli.main"), names.index("harness.run_grid")
    # only the main-process spans: the cells ran where the tracer could not see
    trace = Trace(names, [(1, rows((1, 0, grid, 5, 95, 1, 0), (0, -1, main, 0, 100, 2, 0)))],
                  {"harness.cell"})
    metrics = layer_metrics(trace, cells=4, data_cells=2)
    assert metrics["cli.main.calls"] == 1
    assert metrics["harness.run_grid.total_s"] == pytest.approx(90e-9)
    for key in ("nn.forward.calls", "model.train.self_s", "harness.cell.cpu_s",
                "harness.pool.parallelism", "harness.dataset_builds_per_cell",
                "model.train_step.forward_calls_per_step", "nn.Dense.apply.gflops_per_s"):
        assert metrics[key] is None, key
    assert set(metrics) | {"trace.wall_s", "trace.overhead_s"} == {
        n for n, _ in tracer.metric_specs()}


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed_and_unique():
    specs = list(run.END_TO_END) + tracer.metric_specs()
    for name, unit in specs:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    names = [n for n, _ in specs]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_specs()


TINY = """
blobs.classes = 3
blobs.dim = 4
blobs.per_class = 20
blobs.val_per_class = 10
noise_ratios = 0.2
methods = expertnet, plain-ce, bootstrap, forward
epochs = 2
batch_size = 16
amateur_hidden = 8
expert_hidden = 8
"""


def bindings():
    """Every attribute of the package's modules and of the wrapped classes."""
    from expertnet.nn import Activation, Dense
    found = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "expertnet" or name.startswith("expertnet.")}
    found.update({cls: dict(vars(cls)) for cls in (Dense, Activation)})
    return found


def test_wrappers_restore_originals_and_keep_results_bytes(tmp_path):
    import expertnet.cli
    import expertnet.harness
    import expertnet.model

    config = tmp_path / "exp.cfg"
    config.write_text(TINY)

    def run_once(out):
        argv = ["run", "--config", str(config), "--out", str(tmp_path / out), "--threads", "2"]
        assert expertnet.cli.main(argv) == 0
        return (tmp_path / out / "results.csv").read_bytes()

    plain = run_once("plain")
    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        original = before["expertnet.model"]["train"]
        assert expertnet.harness.train is expertnet.model.train is not original
        assert expertnet.model.train.__wrapped__ is original
        traced = run_once("traced")
    finally:
        t.uninstall()
    after = bindings()
    for owner, attrs in before.items():
        for key, value in attrs.items():
            assert after[owner][key] is value, (owner, key)
    assert traced == plain

    t.dump(str(tmp_path / "spans"))
    trace = tracer.load(str(tmp_path / "spans"))
    assert len(trace.threads) >= 2  # main thread plus pool workers
    metrics = layer_metrics(trace, cells=4, data_cells=1)
    assert None not in metrics.values()
    assert metrics["harness.cell.calls"] == 4
    assert metrics["harness.dataset_builds_per_cell"] == 4
    assert metrics["model.train_step.forward_calls_per_step"] == 4
    assert metrics["baselines.bootstrap_target.calls"] > 0
