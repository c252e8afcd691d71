"""Tests for the benchmark's own code, on tiny inputs."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import Ledger, check_eval, check_metric_norm, check_predict, check_run_dir  # noqa: E402
from stats import summarize, tail_percentile  # noqa: E402
from tracing import Tracer, ancestor_of, self_times  # noqa: E402
from workloads import PROBE_NOMINAL_S, Samples  # noqa: E402

from sparselvq import cli, l1smooth, metric, trainer  # noqa: E402
from sparselvq.dataset import LabeledDataset, SplitSpec, save_csv, split, synth_sparse  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 100, 250, 1000, 12345])
def test_summary_tail_has_at_least_ten_samples_beyond(n):
    xs = np.random.default_rng(n).exponential(size=n)
    s = summarize(xs)
    assert s["n"] == n
    assert s["median"] == pytest.approx(np.median(xs))
    if s["tail_p"] is None:
        assert n * 0.25 < 10
    else:
        assert s["tail"] == pytest.approx(np.percentile(xs, s["tail_p"]))
        assert np.sum(xs > s["tail"]) >= 10


def test_empty_summary():
    assert summarize([]) == {"n": 0, "median": None, "tail_p": None, "tail": None}


# -- speed scaling -----------------------------------------------------------

def test_samples_scale_times_and_rates_by_the_median_probe():
    s = Samples()
    slow = [2 * PROBE_NOMINAL_S, 3 * PROBE_NOMINAL_S, 2 * PROBE_NOMINAL_S]  # median 2x nominal
    s.add("path_s", 10.0, slow)
    s.add("epoch_ms", 0.05, slow, unit=1e3)
    s.add("eval_rows_per_s", 0.5, slow, rows=1000)
    assert s.raw["path_s"] == [10.0] and s.scaled["path_s"] == [5.0]
    assert s.raw["epoch_ms"] == [50.0] and s.scaled["epoch_ms"] == [25.0]
    assert s.raw["eval_rows_per_s"] == [2000.0] and s.scaled["eval_rows_per_s"] == [4000.0]


# -- failure counting --------------------------------------------------------

def test_ledger_counts_failed_operations_once_each():
    ledger = Ledger()
    assert ledger.record("a", [])
    assert not ledger.record("b", ["x", "y"])
    assert not ledger.record("c", ["z"])
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.failed_frac == pytest.approx(2 / 3)
    assert ledger.problems == ["b: x; y", "c: z"]


@pytest.fixture()
def tiny_session(tmp_path, monkeypatch):
    """A path workload on 12 dims and 5 x 10 rows."""
    monkeypatch.setattr(workloads, "N_DIMS", 12)
    monkeypatch.setattr(workloads, "N_INFORMATIVE", 4)
    monkeypatch.setattr(workloads, "OMEGA_ROWS", 3)
    monkeypatch.setattr(workloads, "PREDICT_ROWS", 0)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Spec(
        "grlvq", 10, 2, 1.0, 2, 1, setup="path", eval_per_class=0,
        predict_per_class=10, rounds_after_path=1))
    return workloads.Session("tiny", 5, tmp_path)


@pytest.mark.parametrize("error", [ValueError, RuntimeError])  # handled by cli.main / not
def test_a_failed_path_is_one_failed_operation(tiny_session, monkeypatch, error):
    def fail(*_args, **_kwargs):
        raise error("diverged")

    monkeypatch.setattr(cli, "run_path", fail)  # after pretraining, so setup still passes
    metrics = run.run_untraced(tiny_session, 0.0, tiny_session.work / "samples.json")
    ledger = tiny_session.ledger
    assert (ledger.attempted, ledger.failed) == (workloads.SETUP_REPS + 1, 1)
    assert ledger.problems[0].startswith("path grlvq: path ")
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["checks_passed_frac"] < 1.0
    assert metrics["path_s"] == 0.0 and metrics["eval_rows_per_s"] == 0.0  # no apply rounds


def test_a_passing_session_checks_every_operation(tiny_session):
    assert tiny_session.session() > 0
    tiny_session.verify()
    ledger = tiny_session.ledger
    # path, then one apply round: eval and PREDICT_REPS predicts per model kind
    assert ledger.attempted == 1 + 2 * (1 + workloads.PREDICT_REPS)
    assert ledger.failed == 0, ledger.problems


@pytest.fixture()
def tiny(tmp_path):
    data = synth_sparse(12, 4, 3, 15, 1.0, 9)
    tr, _ = split(data, SplitSpec(0.7, True, 9))
    tr.label_names = ["0", "1", "2"]
    model = trainer.init_model(tr, trainer.TrainConfig(model_kind="grlvq", seed=9))
    return data, model, tmp_path


def test_check_eval_compares_against_label_names(tiny):
    data, model, tmp = tiny
    pred = trainer.predict(model, data.features)
    raw = [str(c) for c in data.labels]
    truth = float(np.mean(pred == data.labels))
    out = tmp / "eval.json"
    out.write_text(json.dumps({"accuracy": truth}))
    assert check_eval(out, model, raw, pred) == ([], None)
    out.write_text(json.dumps({"accuracy": truth - 0.1}))
    assert check_eval(out, model, raw, pred)[0]
    assert check_eval(out, model, raw + ["7"], np.append(pred, 0))[0]  # unknown label
    assert check_eval(tmp / "missing.json", model, raw, pred)[0]


def test_check_eval_names_the_known_label_mapping_defect(tiny):
    data, model, tmp = tiny
    order = np.argsort(-data.labels, kind="stable")  # first appearance 2, 1, 0
    pred = trainer.predict(model, data.features[order])
    raw = [str(c) for c in data.labels[order]]
    truth = float(np.mean(pred == data.labels[order]))
    defect = float(np.mean(pred == 2 - data.labels[order]))
    assert defect != truth
    out = tmp / "eval.json"
    out.write_text(json.dumps({"accuracy": defect}))
    problems, known = check_eval(out, model, raw, pred)
    assert problems == [] and known.startswith(checks.KNOWN_EVAL_DEFECT)
    # the program itself, run on the reordered rows, gives exactly that figure
    csv_path = tmp / "reordered.csv"
    save_csv(LabeledDataset(data.features[order], data.labels[order], data.dim_names,
                            ["0", "1", "2"]), csv_path)
    model_path = tmp / "model.json"
    trainer.save_model(model, model_path)
    assert cli.main(["eval", "--model", str(model_path), "--data", str(csv_path),
                     "--out", str(out)]) == 0
    assert check_eval(out, model, raw, pred) == ([], known)


def test_ledger_lists_known_defects_without_failing_them():
    ledger = Ledger()
    assert ledger.record("eval grlvq", [], "a known defect")
    assert ledger.record("eval gmlvq", [])
    assert ledger.record("predict grlvq", [])
    assert (ledger.attempted, ledger.failed) == (3, 0)
    assert ledger.known == ["eval grlvq: a known defect"]
    assert ledger.known_frac("eval") == 0.5 and ledger.known_frac("predict") == 0.0
    assert not ledger.record("eval grlvq", ["wrong"], "ignored when it fails")
    assert ledger.known == ["eval grlvq: a known defect"] and ledger.failed == 1


def test_check_predict_catches_a_wrong_row(tiny):
    data, model, _ = tiny
    pred = trainer.predict(model, data.features)
    rows = np.arange(10)
    assert check_predict(model, data.features, pred, rows) == []
    wrong = pred.copy()
    wrong[3] = (wrong[3] + 1) % 3
    assert check_predict(model, data.features, wrong, rows)


def test_check_metric_norm(tiny):
    _, model, _ = tiny
    assert check_metric_norm(model) == []
    model.rel.lam = model.rel.lam * 1.01
    assert check_metric_norm(model)
    model.rel.lam = -model.rel.lam / np.linalg.norm(model.rel.lam)
    assert check_metric_norm(model)


def test_check_run_dir_row_counts(tmp_path):
    (tmp_path / "metrics.jsonl").write_text('{"epoch": 0, "cost": 1.0}\n{"epoch": 1, "cost": 2.0}\n')
    (tmp_path / "path.csv").write_text("reg_weight\n0.0\n")
    (tmp_path / "model.json").write_text('{"protos": {"vectors": [[1.0]]}}\n')
    assert check_run_dir(tmp_path, 2, 1) == []
    assert len(check_run_dir(tmp_path, 3, 2)) == 2
    (tmp_path / "model.json").write_text('{"protos": {"vectors": [[NaN]]}}\n')
    assert check_run_dir(tmp_path, 2, 1) == ["model.json holds a non-finite value"]


# -- tracing -----------------------------------------------------------------

def test_spans_nest_and_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = Tracer(run_id=4, clock=lambda: float(next(ticks)))
    outer = tr.begin("outer")       # t=0
    a = tr.begin("a")               # t=1
    tr.end(a)                       # t=2
    b = tr.begin("b")               # t=3
    tr.begin("c")                   # t=4, left open
    tr.end(b)                       # t=5 closes c and b
    tr.end(outer)                   # t=6
    cols = tr.arrays()
    assert list(cols["parent"]) == [-1, 0, 0, 2]
    assert list(cols["duration"]) == [6.0, 1.0, 2.0, 1.0]
    assert list(self_times(cols["duration"], cols["parent"])) == [3.0, 1.0, 1.0, 1.0]
    is_b = cols["name_id"] == tr.id_of("b")
    assert list(ancestor_of(cols["parent"], is_b)) == [-1, -1, 2, 2]


def _snapshot():
    owners = [trainer, metric, l1smooth, cli, trainer.LVQModel,
              metric.RelevanceProfile, metric.OmegaMatrix]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _tiny_path(tmp_path, kind):
    data = synth_sparse(12, 4, 3, 15, 1.0, 9)
    csv = tmp_path / "data.csv"
    save_csv(data, csv)
    argv = ["path", "--data", str(csv), "--model", kind, "--epochs", "2",
            "--reg-steps", "2", "--epochs-per-step", "1", "--seed", "3",
            "--out", str(tmp_path / f"run-{kind}")]
    if kind == "gmlvq":
        argv += ["--omega-rows", "3"]
    return argv


@pytest.mark.parametrize("kind", ["grlvq", "gmlvq"])
def test_traced_run_restores_every_wrapped_attribute(tmp_path, kind):
    argv = _tiny_path(tmp_path, kind)
    before = _snapshot()
    with Tracer() as tr:
        layers.install(tr)
        assert not _same(_snapshot(), before)
        assert cli.main(argv) == 0
    assert _same(_snapshot(), before)
    assert "__post_init__" in vars(metric.RelevanceProfile)

    got = layers.derive([tr])
    assert set(got) == set(layers.PER_LAYER)
    assert got["trainer.distance_matrix.calls_per_epoch"] == [3.0]
    n_train = 30  # 3 classes x 15 rows, 70 % stratified
    on, off = f"trainer.sgd_step.us.{kind}.on", f"trainer.sgd_step.us.{kind}.off"
    assert len(got[off]) == n_train * 3  # 2 pretrain epochs + the weight-0 step
    assert len(got[on]) == n_train
    if kind == "grlvq":
        assert got["metric.wrappers_per_step"] == [3.0]
        assert got["l1smooth.abs_smooth.calls_per_step"] == [0.0]
    else:
        assert got["metric.wrappers_per_step"] == [2.0]
        assert got["l1smooth.abs_smooth.calls_per_step"] == [12.0]  # one per column


def test_a_name_missing_from_the_program_is_skipped(tmp_path, monkeypatch):
    for fn in ("grad_omega", "normalize_omega"):
        monkeypatch.delattr(metric, fn)
    monkeypatch.delattr(l1smooth, "matrix_l1_smooth_grad")
    before = _snapshot()
    with Tracer() as tr:
        layers.install(tr)
        assert cli.main(_tiny_path(tmp_path, "grlvq")) == 0
    assert _same(_snapshot(), before)
    assert sorted(tr.missing) == ["sparselvq.l1smooth.matrix_l1_smooth_grad",
                                  "sparselvq.metric.grad_omega", "sparselvq.metric.normalize_omega"]
    got = layers.derive([tr])
    assert set(got) == set(layers.PER_LAYER)
    assert got["l1smooth.penalty_grad.us.gmlvq"] == []
    assert got["trainer.distance_matrix.calls_per_epoch"] == [3.0]


def test_restore_after_an_exception(tmp_path):
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            layers.install(tr)
            raise RuntimeError("stop")
    assert _same(_snapshot(), before)
