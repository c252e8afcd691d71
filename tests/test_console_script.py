"""The `sparselvq` command as a user runs it, one process per command.

Each test runs `python -m sparselvq.cli` in a subprocess and checks its
exit code, the files it writes or leaves out, and its standard error.
The child imports the `sparselvq` this process imported: that package's
parent directory goes first on the child's PYTHONPATH, as an absolute
path. Run from the checkout (`pytest tests/test_console_script.py`), that
is `src/`. CI installs the package and runs this module from outside the
checkout with `-o pythonpath=`, so there every command runs the install.

The commands share one working directory, which the `work` fixture fills
the way a user would start: synth, then `path` and `eval` for a grlvq and
a gmlvq model. Each test, and each case of one, writes under its own names.
"""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparselvq
from sparselvq.dataset import load_csv
from sparselvq.trainer import evaluate, load_model

README = Path(__file__).resolve().parent.parent / "README.md"
CLI = [sys.executable, "-m", "sparselvq.cli"]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(sparselvq.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])))
SYNTH = ["synth", "--dims", "8", "--informative", "2", "--classes", "3", "--per-class", "10"]
SHORT_PATH = ["--epochs", "2", "--reg-steps", "2", "--epochs-per-step", "1"]
RUNS = {"run": ["--model", "grlvq"], "run-gmlvq": ["--model", "gmlvq", "--omega-rows", "2"]}
RUN_FILES = ["manifest.json", "metrics.jsonl", "model.json", "profile.csv", "path.csv",
             "model_step_00.json", "model_step_01.json"]


def sparselvq_cli(cwd: Path, *args, stdin=None) -> subprocess.CompletedProcess:
    return subprocess.run([*CLI, *map(str, args)], cwd=cwd, env=ENV, stdin=stdin,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    """A directory holding tiny.csv (8 dims, 3 classes), the `path` runs
    `run` (grlvq) and `run-gmlvq` and their reports `run-eval.json` and
    `run-gmlvq-eval.json`; each command must exit 0."""
    cwd = tmp_path_factory.mktemp("console")
    commands = [[*SYNTH, "--seed", 1, "--out", "tiny.csv"]]
    for run, model in RUNS.items():
        commands += [["path", "--data", "tiny.csv", *model, *SHORT_PATH, "--out", run],
                     ["eval", "--model", f"{run}/model.json", "--data", "tiny.csv",
                      "--out", f"{run}-eval.json"]]
    for args in commands:
        res = sparselvq_cli(cwd, *args)
        assert res.returncode == 0, (args, res.stderr)
    return cwd


def rewrite_manifest(work: Path, name: str, **changes) -> str:
    manifest = json.loads((work / "run" / "manifest.json").read_text())
    (work / name).write_text(json.dumps({**manifest, **changes}))
    return name


def test_the_command_runs_the_package_this_process_imported(tmp_path):
    res = subprocess.run([sys.executable, "-c", "import sparselvq; print(sparselvq.__file__)"],
                         cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=300)
    assert Path(res.stdout.strip()).resolve() == Path(sparselvq.__file__).resolve(), res.stderr


def test_version_synth_path_and_eval_exit_0_and_write_their_files(work):
    res = sparselvq_cli(work, "--version")
    assert res.returncode == 0 and res.stdout == f"sparselvq {sparselvq.__version__}\n"
    for name in ["tiny.csv", "tiny.meta.json", *(f"{run}-eval.json" for run in RUNS),
                 *(f"{run}/{f}" for run in RUNS for f in RUN_FILES)]:
        assert (work / name).stat().st_size > 0, name


def test_profile_csv_keeps_dimension_names_with_a_comma_or_a_quote(work):
    with open(work / "tiny.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[0][:2] = ["band, 450nm", 'say "470"']
    with open(work / "named.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    res = sparselvq_cli(work, "train", "--data", "named.csv", "--model", "grlvq",
                        "--epochs", 2, "--out", "named")
    assert res.returncode == 0, res.stderr
    with open(work / "named.csv", newline="") as fh:
        header = next(csv.reader(fh))
    with open(work / "named" / "profile.csv", newline="") as fh:
        profile = list(csv.reader(fh))
    assert all(len(r) == 4 for r in profile), profile
    assert [r[1] for r in profile[1:]] == header[:-1]
    assert header[:2] == ["band, 450nm", 'say "470"']


def test_each_eval_report_accuracy_equals_evaluate(work):
    # eval goes through predict's scores, the end-of-epoch accuracy through the distance matrix
    data = load_csv(work / "tiny.csv", "label")
    reports = sorted(p.name for p in work.glob("run*-eval.json"))
    assert reports == ["run-eval.json", "run-gmlvq-eval.json"]
    for report in reports:
        model = load_model(work / report.removesuffix("-eval.json") / "model.json")
        assert json.loads((work / report).read_text())["accuracy"] == evaluate(model, data), report


def test_eval_on_a_copy_with_a_byte_order_mark_reports_the_same_accuracy_and_confusion(work):
    # spreadsheet "CSV UTF-8" exports start with one
    (work / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (work / "tiny.csv").read_bytes())
    res = sparselvq_cli(work, "eval", "--model", "run/model.json", "--data", "bom.csv",
                        "--out", "bom-eval.json")
    assert res.returncode == 0, res.stderr
    got, want = (json.loads((work / f).read_text()) for f in ("bom-eval.json", "run-eval.json"))
    for key in ("accuracy", "confusion"):
        assert got[key] == want[key], key


def test_the_readme_library_example_runs(work):
    # the block as written, so an edit that breaks it fails here (about 10 s)
    library = README.read_text().split("## Library", 1)[1]
    (work / "library.py").write_text(re.search(r"```python\n(.*?)```", library, re.S).group(1))
    res = subprocess.run([sys.executable, "library.py"], cwd=work, env=ENV,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_eval_piped_into_a_reader_that_stops_early_writes_the_same_report(work):
    with subprocess.Popen([*CLI, "eval", "--model", "run/model.json", "--data", "tiny.csv",
                           "--out", "piped-eval.json"], cwd=work, env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        proc.stdout.read(10)
        proc.stdout.close()
        proc.wait(timeout=300)  # its exit code depends on when the pipe closed
    piped = (work / "piped-eval.json").read_bytes()
    assert piped and piped == (work / "run-eval.json").read_bytes()


@pytest.mark.parametrize("option", [["--omega-rows", "3"], ["--sigmoid-slope", "2.5"]])
def test_an_option_that_does_not_apply_exits_2_and_writes_no_run(work, option):
    res = sparselvq_cli(work, "path", "--data", "tiny.csv", "--model", "grlvq", *option,
                        *SHORT_PATH, "--out", f"rejected{option[0]}")
    assert res.returncode == 2, res.stderr
    assert not (work / f"rejected{option[0]}").exists()


def test_a_projection_wider_than_the_data_exits_1_and_writes_no_run(work):
    res = sparselvq_cli(work, "path", "--data", "tiny.csv", "--model", "gmlvq",
                        "--omega-rows", 20, *SHORT_PATH, "--out", "wide")
    assert res.returncode == 1, res.stderr
    assert not (work / "wide").exists()


def test_eval_on_one_feature_column_too_many_exits_1_names_both_sizes_and_writes_no_report(work):
    with open(work / "tiny.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(work / "wide.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(r[:-1] + ["0.5" if i else "extra"] + r[-1:]
                                 for i, r in enumerate(rows))
    res = sparselvq_cli(work, "eval", "--model", "run/model.json", "--data", "wide.csv",
                        "--out", "wide-eval.json")
    assert res.returncode == 1
    assert "expects 8 features, data has 9" in res.stderr
    assert not (work / "wide-eval.json").exists()


def test_a_non_finite_setting_exits_1_and_writes_no_run(work):
    res = sparselvq_cli(work, "path", "--data", "tiny.csv", "--alpha", "inf", *SHORT_PATH,
                        "--out", "infinite")
    assert res.returncode == 1, res.stderr
    assert not (work / "infinite").exists()


def test_synth_with_a_non_finite_noise_sigma_exits_1_names_it_and_writes_no_file(work):
    res = sparselvq_cli(work, *SYNTH, "--noise-sigma", "nan", "--out", "nan.csv")
    assert res.returncode == 1
    assert "noise_sigma" in res.stderr
    assert not (work / "nan.csv").exists() and not (work / "nan.meta.json").exists()


# 1e307 keeps the features finite, but not their squares
@pytest.mark.parametrize("sigma", ["1e307", "1e308"])
def test_synth_whose_noise_sigma_overflows_exits_1_names_it_without_a_warning(work, sigma):
    res = sparselvq_cli(work, *SYNTH, "--noise-sigma", sigma, "--out", f"big{sigma}.csv")
    assert res.returncode == 1
    assert "noise_sigma" in res.stderr and "RuntimeWarning" not in res.stderr, res.stderr
    assert not (work / f"big{sigma}.csv").exists()
    assert not (work / f"big{sigma}.meta.json").exists()


@pytest.mark.parametrize("command,changes", [
    ("path", {"schedule": None}), ("train", {"command": "train"})],
    ids=["path-without-schedule", "train-with-schedule"])
def test_a_manifest_whose_schedule_does_not_fit_its_command_exits_1_and_writes_no_run(
        work, command, changes):
    manifest = rewrite_manifest(work, f"{command}-schedule.json", **changes)
    res = sparselvq_cli(work, command, "--manifest", manifest, "--out", f"unscheduled-{command}")
    assert res.returncode == 1, res.stderr
    assert not (work / f"unscheduled-{command}").exists()


def test_a_manifest_whose_data_is_not_a_string_exits_1_with_a_csv_on_standard_input(work):
    manifest = rewrite_manifest(work, "data-zero.json", data=0)
    with open(work / "tiny.csv") as stdin:
        res = sparselvq_cli(work, "path", "--manifest", manifest, "--out", "stdin-run",
                            stdin=stdin)
    assert res.returncode == 1, res.stderr
    assert not (work / "stdin-run").exists()


def test_replaying_a_run_manifest_reproduces_its_metrics_byte_for_byte(work):
    for run in RUNS:
        res = sparselvq_cli(work, "path", "--manifest", f"{run}/manifest.json",
                            "--out", f"{run}-replay")
        assert res.returncode == 0, res.stderr
        assert ((work / run / "metrics.jsonl").read_bytes()
                == (work / f"{run}-replay" / "metrics.jsonl").read_bytes()), run


# (d+ + d-)**2 overflows from a noise scale of about 1e77 on; the step's
# chain-rule factors never square the distance sum
@pytest.mark.parametrize("sigma", ["1e78", "1e100", "1e150"])
def test_training_whose_distance_sum_squared_overflows_exits_0_with_a_finite_model(work, sigma):
    data = f"scale{sigma}.csv"
    assert sparselvq_cli(work, *SYNTH, "--noise-sigma", sigma, "--out", data).returncode == 0
    for kind in ("grlvq", "gmlvq"):
        res = sparselvq_cli(work, "train", "--data", data, "--model", kind, "--epochs", 2,
                            "--out", f"scale{sigma}-{kind}")
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr, res.stderr
        model = load_model(work / f"scale{sigma}-{kind}" / "model.json")  # refuses non-finite
        assert model.kind == kind
