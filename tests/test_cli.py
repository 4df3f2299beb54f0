"""CLI smoke tests for every subcommand and the exit-code contract."""

import math
import pathlib
import re
import threading

import numpy as np
import pytest

import expertnet.cli as cli_mod
import expertnet.harness as harness
from expertnet.cli import main
from expertnet.errors import NumericError
from expertnet.noise import save_matrix_csv

SMOKE_CONFIG = """
schema = 1
dataset = blobs
blobs.classes = 3
blobs.dim = 4
blobs.per_class = 25
blobs.val_per_class = 15
blobs.separation = 5.0
blobs.spread = 1.0
noise_ratios = 0.2
fractions = 1.0
methods = expertnet, plain-ce
seeds = 1
epochs = 2
batch_size = 16
amateur_hidden = 8
expert_hidden = 8
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMOKE_CONFIG + f"out = {tmp_path / 'out'}\n", encoding="utf-8")
    return str(path)


def test_run_writes_reports_and_returns_zero(config_path, tmp_path, capsys):
    assert main(["run", "--config", config_path]) == 0
    out = tmp_path / "out"
    assert (out / "results.csv").exists()
    assert (out / "pivot_rho20.csv").exists()
    assert (out / "run.log").exists()
    assert "0 failed" in capsys.readouterr().out
    log = (out / "run.log").read_text()
    assert "epoch=0" in log and "dataset_hash=" in log


def test_run_exit_code_one_on_failed_cell(config_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericError("intentional test failure")

    monkeypatch.setattr(harness, "train_baseline", boom)
    assert main(["run", "--config", config_path]) == 1
    assert "FAILED plain-ce" in capsys.readouterr().out


def test_run_set_overrides(config_path, tmp_path, capsys):
    assert main(["run", "--config", config_path, "--set", "methods=plain-ce",
                 "--set", "epochs=1"]) == 0
    results = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(results) == 2  # header + single plain-ce record
    assert results[1].startswith("plain-ce,")


def test_second_run_into_one_directory_leaves_only_its_pivots(config_path, tmp_path):
    quick = ["--set", "methods=plain-ce", "--set", "epochs=1"]
    assert main(["run", "--config", config_path, "--set", "noise_ratios=0.2,0.4", *quick]) == 0
    out = tmp_path / "out"
    (out / "notes.txt").write_text("not a pivot", encoding="utf-8")
    assert main(["run", "--config", config_path, "--set", "noise_ratios=0.3", *quick]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.txt", "pivot_rho30.csv", "results.csv", "run.log"]


def test_train_prints_history_and_saves_checkpoint(config_path, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path, "--set", "methods=expertnet",
                 "--save", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "epoch   0" in out and "val_full=" in out
    assert ckpt.exists()


def test_train_baseline_method(config_path, capsys):
    assert main(["train", "--config", config_path, "--set", "methods=forward"]) == 0
    assert "val_amateur=" in capsys.readouterr().out


def test_noise_stats(capsys):
    assert main(["noise-stats", "--classes", "4", "--ratio", "0.3",
                 "--samples", "8000", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "realized flip rate" in out and "observed matrix" in out


def test_gradcheck(capsys):
    assert main(["gradcheck", "--cases", "10", "--seed", "1"]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out


def test_gradcheck_exits_one_on_a_case_above_tolerance(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "gradient_check", lambda *args, **kwargs: 1.0)
    assert main(["gradcheck", "--cases", "2"]) == 1
    out = capsys.readouterr().out
    assert "case 0: FAIL relative error 1.000e+00 (hidden=relu, terminal=softmax)" in out
    assert out.endswith("gradcheck FAIL (2 cases)\n")


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema = 9", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_save_rejected_for_baseline(config_path, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config_path, "--set", "methods=plain-ce",
                 "--save", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "epoch" not in captured.out  # rejected before training
    assert not ckpt.exists()


@pytest.mark.parametrize("override, key", [
    ("epochs=abc", "epochs"),
    ("seeds=1.5", "seeds"),
    ("batch_size=0", "batch_size"),
    ("amateur_hidden=0", "amateur_hidden"),
    ("lr=0", "learning rate"),
    ("bootstrap_variant=medium", "bootstrap variant"),
    ("noise_ratios=0.12,0.125", "pivot_rho12"),
    ("out=", "out must"),
    ("seeds=1,1", "seeds"),
    ("methods=plain-ce,plain-ce", "methods"),
    ("lr=nan", "lr"),
    ("seeds=1,,2", "seeds"),
    ("methods=expertnet,", "methods"),
    ("epochs", "--set expects key=value, got 'epochs'"),
])
def test_run_rejects_unusable_config_values(config_path, tmp_path, capsys, override, key):
    assert main(["run", "--config", config_path, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # no cell ran


def test_run_rejects_repeated_feature_columns_before_any_cell(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,b,label\n1.0,2.0,x\n3.0,4.0,y\n", encoding="utf-8")
    config = tmp_path / "file.cfg"
    config.write_text(f"dataset = file\nfile.train = {table}\nfile.val = {table}\n"
                      f"file.label = label\nfile.features = a, a\nout = {tmp_path / 'out'}\n",
                      encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "file.features" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # no cell ran


def test_one_class_file_fails_run_cells_and_train_exits_two(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("a,b,label\n1.0,2.0,x\n3.0,4.0,x\n5.0,1.0,x\n", encoding="utf-8")
    config = tmp_path / "file.cfg"
    config.write_text(f"dataset = file\nfile.train = {table}\nfile.val = {table}\n"
                      "file.label = label\nmethods = expertnet, plain-ce\nnoise_ratios = 0.2\n"
                      f"epochs = 1\nout = {tmp_path / 'out'}\n", encoding="utf-8")
    message = f"{table}: every row has label 'x'; need at least 2 classes"
    assert main(["run", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "3 records, 3 failed" in out and message in out
    assert main(["train", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "epoch" not in captured.out  # rejected before training


@pytest.mark.filterwarnings("error")
def test_run_overflow_fails_cells_without_numpy_warnings(config_path, tmp_path, capsys):
    assert main(["run", "--config", config_path, "--set", "lr=1e300"]) == 1
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(",failed,,NumericError: " in row for row in rows)


@pytest.mark.parametrize("override", [
    "blobs.val_per_class=0",
    "blobs.per_class=0",
    "blobs.classes=1",
    "blobs.dim=0",
    "blobs.separation=0",
    "blobs.spread=-1",
])
def test_run_rejects_unusable_blobs_values(config_path, tmp_path, capsys, override):
    assert main(["run", "--config", config_path, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert override.split("=")[0] in err  # the message names the config key
    assert not (tmp_path / "out").exists()  # no cell ran


def test_run_out_on_a_file_exits_two_before_training(config_path, tmp_path, monkeypatch,
                                                     capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(harness, "train", no_training)
    monkeypatch.setattr(harness, "train_baseline", no_training)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    assert main(["run", "--config", config_path, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(taken) in err and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("name", ["run.log", "results.csv"])
def test_a_report_file_that_cannot_be_written_exits_two(config_path, tmp_path, capsys, name):
    out = tmp_path / "out"
    blocked = out / name
    blocked.mkdir(parents=True)
    previous = {}  # an earlier run's report, less the file now blocked
    for old in {"results.csv", "run.log", "pivot_rho30.csv"} - {name}:
        (out / old).write_text(f"{old} of an earlier run\n", encoding="utf-8")
        previous[old] = (out / old).read_bytes()
    assert main(["run", "--config", config_path, "--set", "methods=plain-ce",
                 "--set", "epochs=1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {blocked}: Is a directory\n"
    assert "wrote" not in captured.out
    assert sorted(p.name for p in out.iterdir()) == sorted([name, *previous])
    assert {old: (out / old).read_bytes() for old in previous} == previous


def test_negative_zero_noise_ratio_is_the_ratio_zero(config_path, tmp_path):
    (ratio,) = harness.ExperimentConfig(noise_ratios=(-0.0,)).noise_ratios
    assert math.copysign(1.0, ratio) == 1.0
    outputs = {}
    for spelling in ("0", "-0"):
        out = tmp_path / f"rho{spelling}"
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--set", f"noise_ratios={spelling}", "--set", "epochs=1"]) == 0
        log = re.sub(rb" done in [0-9.]+s", b" done in Xs", (out / "run.log").read_bytes())
        outputs[spelling] = [(out / "results.csv").read_bytes(), log]
    assert outputs["-0"] == outputs["0"]
    assert b"rho=0 " in outputs["-0"][1]


@pytest.mark.parametrize("save", ["nope/model.ckpt", "."])
def test_train_save_to_an_unusable_path_exits_two(config_path, tmp_path, capsys, save):
    ckpt = tmp_path / save
    assert main(["train", "--config", config_path, "--save", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(ckpt) in captured.err
    assert captured.err.count("\n") == 1
    assert "epoch" not in captured.out  # rejected before training
    assert not (tmp_path / "nope").exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.cfg" in err and err.count("\n") == 1


def test_run_missing_matrix_file_records_failed_cells(config_path, tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["run", "--config", config_path, "--set", f"matrix={missing}"]) == 1
    out = capsys.readouterr().out
    assert "3 records, 3 failed" in out and "InputError" in out
    assert (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("text, where", [
    ("0.5,0.5\n0.5,abc\n", ":2:"),
    ("1.0,0.0\n1.0\n", ":2:"),
])
def test_noise_stats_malformed_matrix_exits_two(tmp_path, capsys, text, where):
    path = tmp_path / "matrix.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["noise-stats", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err and err.count("\n") == 1


def test_threads_is_a_run_only_flag(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", config_path, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_rejects_threads_below_one(config_path, tmp_path, capsys, threads):
    assert main(["run", "--config", config_path, "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: threads must be >= 1") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # no cell ran


def test_run_cells_run_on_the_calling_thread_whatever_threads_says(config_path, tmp_path,
                                                                   monkeypatch):
    idents, run_cell = [], harness._run_cell

    def spy(*args, **kwargs):
        idents.append(threading.get_ident())
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_cell", spy)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["run", "--config", config_path, "--out", str(out), "--threads", threads,
                     "--set", "seeds=1,2", "--set", "epochs=1"]) == 0
        log = re.sub(rb" done in [0-9.]+s", b" done in Xs", (out / "run.log").read_bytes())
        outputs[threads] = [(out / name).read_bytes()
                            for name in ("results.csv", "pivot_rho20.csv")] + [log]
    assert idents == [threading.get_ident()] * 4  # two cells per run
    assert outputs["1"] == outputs["2"]


# Every size below asks for more than 2**47 bytes in one array, which no address
# space can map, so the allocation fails at once under any overcommit setting.
@pytest.mark.parametrize("argv, key", [
    (["run", "--set", f"blobs.dim={10**30}"], "blobs"),
    (["run", "--set", f"blobs.per_class={10**30}"], "blobs"),
    (["run", "--set", f"blobs.classes={10**30}"], "blobs"),
    (["run", "--set", f"amateur_hidden={10**30}"], "dense layer"),
    (["run", "--set", f"expert_hidden=8,{10**30}"], "dense layer"),
    (["noise-stats", "--classes", "2", "--samples", str(10**14)], "Unable to allocate"),
    (["noise-stats", "--classes", str(10**30)], "classes"),
    (["noise-stats", "--classes", str(10**7)], "Unable to allocate"),
    (["noise-stats", "--classes", "2", "--samples", str(10**30)], "--samples"),
    # each width alone fits, but the 2**31 x 2**31 layer between them does not
    (["run", "--set", f"amateur_hidden={2**31},{2**31}"], "dense layer"),
])
def test_sizes_the_machine_cannot_hold_exit_two(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    if argv[0] == "run":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and key in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()  # no cell ran


def test_a_cell_that_cannot_allocate_its_data_fails_and_the_report_is_written(
        config_path, tmp_path, capsys):
    # Sizes numpy can describe but no machine can hold: parsing builds neither the
    # blobs data (3 x 10**13 centres) nor a network (a 10**14 x 4 first layer), so
    # each reaches the cell, whose allocation fails.
    for override in (f"blobs.dim={10**13}", f"amateur_hidden={10**14}"):
        assert main(["run", "--config", config_path, "--set", override]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and "3 records, 3 failed" in captured.out
        rows = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 3
        assert all(",failed,,\"MemoryError: Unable to allocate" in row for row in rows), override


def test_a_method_out_of_memory_fails_alone(config_path, tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate the network")

    monkeypatch.setattr(harness, "train_baseline", no_memory)
    assert main(["run", "--config", config_path]) == 1
    rows = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[7] for row in rows] == ["ok", "ok", "failed"]
    assert rows[2].endswith(",MemoryError: Unable to allocate the network")


@pytest.mark.parametrize("argv, key", [
    (["noise-stats", "--samples", "5", "--classes", "10"], "--samples"),
    (["noise-stats", "--samples", "-5"], "--samples"),
    (["gradcheck", "--cases", "0"], "--cases"),
    (["gradcheck", "--cases", "-3"], "--cases"),
    (["run", "--set", "epochs=0"], "epochs"),  # no --config: the defaults under --set
])
def test_too_small_counts_exit_two(capsys, argv, key):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and key in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_train_matrix_class_mismatch_exits_two(config_path, tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    save_matrix_csv(np.eye(4), matrix)
    assert main(["train", "--config", config_path, "--set", f"matrix={matrix}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: matrix is 4x4 but data has 3 classes\n"
    assert "epoch" not in captured.out  # rejected before training


@pytest.mark.parametrize("argv", [
    ["train", "--ratio", "0.3"],
    ["train", "--fraction", "0.5"],
    ["train", "--seed", "1"],
    ["train", "--out", "x"],
    ["train", "--method", "forward"],
    ["run", "--seed", "1"],
])
def test_alias_flags_are_gone(config_path, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", config_path, *argv[1:]])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_out_flag_wins_over_set_out(config_path, tmp_path):
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "x"),
                 "--set", f"out={tmp_path / 'y'}", "--set", "methods=plain-ce"]) == 0
    assert (tmp_path / "x" / "results.csv").exists()
    assert not (tmp_path / "y").exists() and not (tmp_path / "out").exists()


def test_train_cell_is_set_through_set(config_path, capsys):
    assert main(["train", "--config", config_path, "--set", "methods=plain-ce",
                 "--set", "noise_ratios=0.3", "--set", "fractions=0.5",
                 "--set", "seeds=4"]) == 0
    assert "method=plain-ce rho=0.3 frac=0.5 seed=4 " in capsys.readouterr().out


def test_train_takes_its_method_from_the_config(config_path, capsys):
    assert main(["train", "--config", config_path, "--set", "methods=forward",
                 "--set", "epochs=1"]) == 0
    assert capsys.readouterr().out.startswith("method=forward ")


def test_readme_cli_synopsis_names_each_commands_flags(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    synopsis = [line.split() for line in block.splitlines() if line.startswith("expertnet ")]
    assert [words[1] for words in synopsis] == ["run", "train", "noise-stats", "gradcheck"]
    for words in synopsis:
        with pytest.raises(SystemExit):
            main([words[1], "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z-]+", " ".join(words))) == flags, words[1]
