"""The benchmark's tracer still finds every function it measures.

`bench/tracer.py` wraps functions by name; a refactor that renames or rebinds
one would break `bench/run.py --trace 1` without any other test noticing.
"""

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import expertnet.cli  # noqa: F401  (the tracer wraps functions in every module)
from expertnet import harness
from expertnet.harness import METHODS, BlobsSpec, ExperimentConfig

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def package_bindings():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "expertnet" or name.startswith("expertnet.")
            for key, value in vars(module).items()}


def test_tracer_wraps_every_span_and_sees_both_training_procedures(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    before = package_bindings()
    trace = tracer.Tracer()
    try:
        trace.install()
        assert trace.missing == set()
        config = ExperimentConfig(
            dataset=BlobsSpec(classes=3, dim=4, per_class=25, val_per_class=15),
            noise_ratios=(0.2,), fractions=(1.0,), methods=tuple(METHODS),
            seeds=(1,), epochs=1, batch_size=16, amateur_hidden=(8,), expert_hidden=(8,))
        # through the module: a name bound before install() is not the wrapper
        records = harness.grid_records(harness.run_grid(config))
    finally:
        trace.uninstall()
    assert all(r.status == "ok" for r in records)
    trace.dump(str(tmp_path / "trace"))
    loaded = tracer.load(str(tmp_path / "trace"))
    stats = tracer.span_stats(loaded)
    # `train` binds `train_step` with partial at call time; the wrapper must be what it binds
    assert stats["model.train_step"].calls == 5  # 75 rows at batch 16, one epoch
    assert stats["model.train"].calls == 1
    assert stats["baselines.train_baseline"].calls == len(METHODS) - 1
    # every per-layer metric of a well-formed run is measured: one cell per method, one dataset
    metrics = tracer.layer_metrics(loaded, len(METHODS), 1)
    assert [name for name, value in metrics.items() if value is None] == []
    after = package_bindings()
    assert all(after[key] is value for key, value in before.items())  # originals are back


# `bench/child.py` runs `grid` with `--threads 2`: cells must stay in the traced process
@pytest.mark.parametrize("threads", [[], ["--threads", "2"]], ids=["default", "threads-2"])
def test_traced_cli_run_measures_every_layer_and_writes_one_report(monkeypatch, tmp_path,
                                                                   threads):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    config = tmp_path / "tiny.cfg"
    config.write_text("blobs.classes = 3\nblobs.dim = 4\nblobs.per_class = 25\n"
                      "blobs.val_per_class = 15\nnoise_ratios = 0.2\nseeds = 1, 2\n"
                      f"methods = {', '.join(METHODS)}\nepochs = 1\nbatch_size = 16\n"
                      "amateur_hidden = 8\nexpert_hidden = 8\n", encoding="utf-8")
    trace = tracer.Tracer()
    try:
        trace.install()
        assert trace.missing == set()
        # through the module, as bench/child.py calls it
        rc = expertnet.cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                                 *threads])
    finally:
        trace.uninstall()
    assert rc == 0
    trace.dump(str(tmp_path / "trace"))
    loaded = tracer.load(str(tmp_path / "trace"))
    cells = 2  # one noise ratio x one fraction x two seeds
    metrics = tracer.layer_metrics(loaded, len(METHODS) * cells, cells)
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["cli.main.calls"] == 1
    assert metrics["harness.emit_report.calls"] == 1
    assert metrics["harness.cell.calls"] == cells


# These two still expect the removed worker pool and `load_table`'s old three-value return;
# mending them is a change to the benchmark, so here they may fail but no other test may.
KNOWN_BENCH_FAILURES = {"test_wrappers_restore_originals_and_keep_results_bytes",
                        "test_ingest_inputs_are_deterministic_per_seed"}


def test_bench_suite_fails_no_test_beyond_the_known_two(tmp_path):
    report = tmp_path / "bench.xml"
    subprocess.run([sys.executable, "-m", "pytest", str(BENCH / "tests"),
                    "-p", "no:cacheprovider", f"--junitxml={report}"],
                   cwd=BENCH.parent, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                   capture_output=True, check=False)
    cases = list(ET.parse(report).getroot().iter("testcase"))
    assert len(cases) == 11  # every bench test is collected
    failed = {case.get("name") for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    assert failed <= KNOWN_BENCH_FAILURES
