"""The benchmark's workloads: inputs made from the seed, the timed user
session, and the output checks.

Every workload is one user session, repeated while the next one still
fits in the time budget: run `sparselvq path` in-process to get a sparse
model, then apply models with `sparselvq eval` (CSV in) and
`trainer.predict` (in-memory matrix), one GRLVQ and one GMLVQ model. The
workloads differ in which part dominates (see NOTES.md for why each was
chosen):

* grlvq-path: the acceptance data and ramp (20 pretrain epochs, 20 x 2
  ramp to 1), shortened per step so that a run holds several paths.
* gmlvq-path: GMLVQ with 20 projection rows, 30 pretrain epochs, 8 x 1
  ramp to 0.3; 7 of its 38 epochs pay the matrix penalty gradient.
* apply: a short GRLVQ path (60 epochs on 5 x 60 rows), then eval on a
  shuffled 5,000-row pixel CSV and predict on a 100,000-row matrix.

Data generation, the init-model files and the reference predictions used
by the checks all stay outside the timed spans.

Speed probes: on a shared virtual machine CPU speed can move by 1.7x for
tens of seconds at a time. Every timed call is bracketed by short
calibration probes (and a path run has one after each epoch, outside the
epoch's own timing). Each timing is kept raw and also scaled to the
speed at which one probe takes PROBE_NOMINAL_S; the scaled figures are
the benchmark's metrics.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from checks import Ledger, check_eval, check_metric_norm, check_predict, check_run_dir
from tracing import Tracer

N_DIMS, N_INFORMATIVE, N_CLASSES = 200, 10, 5
OMEGA_ROWS = 20
SETUP_REPS = 6  # path runs stopped at the first epoch, at the start of a path workload's run
LOAD_REPS = 10  # load_model repeats per apply round on `apply`, for setup_s
PREDICT_REPS = 3  # predict calls per model per apply round, at least
# rows each model predicts per apply round: a short predict call is noisy next
# to its speed probes, so smaller matrices are predicted more often
PREDICT_ROWS = 50_000
CHECK_ROWS = 32  # rows per predict call compared with a brute-force scan
PROBE_NOMINAL_S = 1e-3  # probe duration the scaled timings are expressed at
BRACKET = 3  # probes before and after each timed call
EPOCH_WINDOW = 2  # probes on each side of an epoch that scale it


@dataclass(frozen=True)
class Spec:
    kind: str  # model kind the path trains; the other kind is applied from init_model
    per_class: int  # training CSV rows per class
    pretrain: int
    reg_end: float
    steps: int
    epochs_per_step: int
    setup: str  # what setup_s times: "path" (cli.main entry to first epoch) or "load"
    eval_per_class: int  # pixel CSV rows per class; 0: eval on the training CSV itself
    predict_per_class: int
    rounds_after_path: int  # apply rounds after each path run

    @property
    def n_epochs(self) -> int:
        return self.pretrain + self.steps * self.epochs_per_step

    def path_args(self) -> list[str]:
        args = ["--model", self.kind, "--epochs", str(self.pretrain), "--reg-start", "0",
                "--reg-end", repr(self.reg_end), "--reg-steps", str(self.steps),
                "--epochs-per-step", str(self.epochs_per_step)]
        if self.kind == "gmlvq":
            args += ["--omega-rows", str(OMEGA_ROWS)]
        return args


WORKLOADS = {
    "grlvq-path": Spec("grlvq", 200, 20, 1.0, 20, 2, setup="path", eval_per_class=0,
                       predict_per_class=1000, rounds_after_path=2),
    "gmlvq-path": Spec("gmlvq", 200, 30, 0.3, 8, 1, setup="path", eval_per_class=0,
                       predict_per_class=1000, rounds_after_path=2),
    "apply": Spec("grlvq", 60, 20, 1.0, 20, 2, setup="load", eval_per_class=1000,
                  predict_per_class=20000, rounds_after_path=1),
}

OTHER_KIND = {"grlvq": "gmlvq", "gmlvq": "grlvq"}


class _StopAtFirstEpoch(Exception):
    pass


_PROBE_V = np.arange(float(N_DIMS))
_PROBE_W = _PROBE_V[::-1].copy()


def probe() -> float:
    """Duration of one calibration unit: small numpy operations driven from a
    Python loop, the same mix as an SGD step (about 1 ms on a 2.1 GHz Xeon VM)."""
    t = time.perf_counter()
    w = _PROBE_W.copy()
    acc = 0.0
    for _ in range(300):
        d = _PROBE_V - w
        acc += float(d @ d)
        w *= 0.999
    return time.perf_counter() - t


def probes(n: int = BRACKET) -> list[float]:
    return [probe() for _ in range(n)]


def _cli(argv: list[str]) -> list[str]:
    """Run a sparselvq command in-process; returns its problems, empty on exit code 0."""
    from sparselvq import cli

    with contextlib.redirect_stdout(sys.stderr):
        try:
            code = cli.main(argv)
        except _StopAtFirstEpoch:
            raise
        except Exception as exc:  # an error cli.main does not handle is still one failed operation
            return [f"{argv[0]} raised {type(exc).__name__}: {exc}"]
    return [f"{argv[0]} exited with {code}"] if code else []


def _pixels(seed: int, per_class: int, shuffle_seed: int):
    """Rows around the training class means (same generator seed), shuffled."""
    from sparselvq.dataset import synth_sparse

    data = synth_sparse(N_DIMS, N_INFORMATIVE, N_CLASSES, per_class, 1.0, seed)
    return data.subset(np.random.default_rng(shuffle_seed).permutation(data.n_samples))


@dataclass
class Inputs:
    data_csv: Path
    init_models: dict[str, Path]
    eval_csv: Path
    eval_X: np.ndarray
    eval_raw: list[str]
    X: np.ndarray
    check_rows: np.ndarray


def make_inputs(spec: Spec, seed: int, work: Path) -> Inputs:
    from sparselvq import trainer
    from sparselvq.dataset import SplitSpec, load_csv, save_csv, split, synth_sparse

    data = synth_sparse(N_DIMS, N_INFORMATIVE, N_CLASSES, spec.per_class, 1.0, seed)
    data_csv = work / "data.csv"
    save_csv(data, data_csv, extra_meta={"generator": "synth_sparse",
                                         "informative_dims": list(range(N_INFORMATIVE)),
                                         "noise_sigma": 1.0, "seed": seed})

    # both kinds as the CLI would build them, without SGD
    tr, _ = split(load_csv(data_csv, "label"), SplitSpec(0.7, True, seed))
    init_models = {}
    for kind in OTHER_KIND:
        config = trainer.TrainConfig(model_kind=kind, seed=seed,
                                     omega_rows=OMEGA_ROWS if kind == "gmlvq" else 0)
        init_models[kind] = work / f"init-{kind}.json"
        trainer.save_model(trainer.init_model(tr, config, np.random.default_rng(seed)),
                           init_models[kind])

    if spec.eval_per_class:
        ev = _pixels(seed, spec.eval_per_class, seed + 1)
        eval_csv = work / "pixels.csv"
        save_csv(ev, eval_csv)
    else:
        ev, eval_csv = data, data_csv
    X = _pixels(seed, spec.predict_per_class, seed + 2).features
    rows = np.sort(np.random.default_rng(seed + 3).choice(X.shape[0], CHECK_ROWS, replace=False))
    return Inputs(data_csv, init_models, eval_csv, ev.features,
                  [str(c) for c in ev.labels], X, rows)


@dataclass
class Samples:
    """Timings (scaled to the probe's nominal speed, and raw) plus quality figures.

    Timing keys: setup_s, path_s, epoch_ms, eval_rows_per_s,
    predict_rows_per_s.grlvq, predict_rows_per_s.gmlvq.
    """

    scaled: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    raw: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    test_accuracy: list[float] = field(default_factory=list)
    sparsity: list[float] = field(default_factory=list)
    true_dim_mass: list[float] = field(default_factory=list)

    def add(self, key: str, seconds: float, probe_s: list[float], rows: int = 0,
            unit: float = 1.0) -> None:
        """Record one timed call; `rows` turns it into a rate, `unit` rescales a time."""
        scaled = seconds * PROBE_NOMINAL_S / statistics.median(probe_s)
        if rows:
            self.raw[key].append(rows / seconds)
            self.scaled[key].append(rows / scaled)
        else:
            self.raw[key].append(seconds * unit)
            self.scaled[key].append(scaled * unit)

    def add_parts(self, key: str, parts: list[tuple[float, list[float]]]) -> None:
        """Record one timed call made of parts, each scaled by its own probes."""
        self.raw[key].append(sum(seconds for seconds, _ in parts))
        self.scaled[key].append(sum(seconds * PROBE_NOMINAL_S / statistics.median(p)
                                    for seconds, p in parts))


class Session:
    """One workload run: a fixed spec, seed and work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.samples = Samples()
        self._runs = 0
        self._pending: list[tuple] = []
        self.inputs = make_inputs(self.spec, seed, work)

    def _path_argv(self, out: Path) -> list[str]:
        return ["path", "--data", str(self.inputs.data_csv), "--label-col", "label",
                *self.spec.path_args(), "--seed", str(self.seed), "--out", str(out)]

    def _next_dir(self, stem: str) -> Path:
        self._runs += 1
        return self.work / f"{stem}-{self._runs:03d}"

    def time_setup(self) -> None:
        """A path run stopped at its first train_epoch call: setup time alone."""
        from sparselvq import trainer

        def stop(*_args, **_kwargs):
            raise _StopAtFirstEpoch(time.perf_counter())

        with Tracer() as patch:
            patch.replace(trainer, "train_epoch", stop)
            before = probes()
            t0 = time.perf_counter()
            try:
                problems = _cli(self._path_argv(self._next_dir("setup")))
            except _StopAtFirstEpoch as stopped:
                self.samples.add("setup_s", stopped.args[0] - t0, before + probes())
                problems = []
            else:
                problems.append("path ended before its first epoch")
        self.ledger.record(f"setup {self.spec.kind}", problems)

    def session(self, tracer: Tracer | None = None) -> float | None:
        """A path run followed by the spec's apply rounds on its model.

        Untraced, the only wrapper times each train_epoch call and runs one
        probe after it; the samples accumulate in `self.samples`. With
        `tracer`, every layer boundary is recorded, no probe runs inside the
        path, and the samples are dropped. Returns the path's raw wall time
        (probes excluded), or None when the path failed: then it counts as
        one failed operation and the session stops there.
        """
        from sparselvq import trainer

        s = self.samples if tracer is None else Samples()
        out = self._next_dir("run")
        epochs: list[float] = []
        inside: list[float] = []  # probe durations between epochs
        first: list[float] = []
        recorder = tracer if tracer is not None else Tracer()
        with recorder:
            if tracer is None:
                original = trainer.train_epoch

                def timed_epoch(*args, **kwargs):
                    t = time.perf_counter()
                    if not first:
                        first.append(t)
                    result = original(*args, **kwargs)
                    epochs.append(time.perf_counter() - t)
                    inside.append(probe())
                    return result

                recorder.replace(trainer, "train_epoch", timed_epoch)
            else:
                layers.install(tracer)
            before = probes()
            t0 = time.perf_counter()
            problems = _cli(self._path_argv(out))
            path_s = time.perf_counter() - t0 - sum(inside)
            after = probes()
            # checks outside every timed span; a failed path gets no apply rounds
            if not problems:
                problems = (check_run_dir(out, self.spec.n_epochs, self.spec.steps)
                            + check_metric_norm(trainer.load_model(out / "model.json")))
            if not self.ledger.record(f"path {self.spec.kind}", problems):
                return None
            other = OTHER_KIND[self.spec.kind]
            models = {self.spec.kind: out / "model.json", other: self.inputs.init_models[other]}
            for _ in range(self.spec.rounds_after_path):
                self.apply_round(models, recorder, s)

        if epochs:
            # each epoch is scaled by the probes around it, the rest of the path
            # (setup, run-directory writes) by those before and after the run
            windows = [inside[max(i - EPOCH_WINDOW, 0):i + EPOCH_WINDOW + 1]
                       for i in range(len(epochs))]
            for seconds, window in zip(epochs, windows):
                s.add("epoch_ms", seconds, window, unit=1e3)
            rest = path_s - sum(epochs)
            s.add_parts("path_s", [(seconds, w) for seconds, w in zip(epochs, windows)]
                        + [(rest, before + after)])
        else:
            s.add("path_s", path_s, before + after)
        if first and self.spec.setup == "path":
            s.add("setup_s", first[0] - t0, before + inside[:BRACKET])
        self._quality(out, s)
        return path_s

    def apply_round(self, models: dict[str, Path], recorder: Tracer | None = None,
                    s: Samples | None = None) -> None:
        """`eval` each model file once and `predict` each model PREDICT_REPS
        times or more (see PREDICT_ROWS); on apply, time loading the model
        files first (its setup)."""
        from sparselvq import trainer

        s = s if s is not None else self.samples
        recorder = recorder if recorder is not None else Tracer()
        inp = self.inputs
        if self.spec.setup == "load":
            before = probes()
            loads = []
            for _ in range(LOAD_REPS):
                t = time.perf_counter()
                for path in models.values():
                    trainer.load_model(path)
                loads.append(time.perf_counter() - t)
            bracket = before + probes()
            for seconds in loads:
                s.add("setup_s", seconds, bracket)
        for kind, path in models.items():
            ev_out = self._next_dir(f"eval-{kind}").with_suffix(".json")
            before = probes()
            t = time.perf_counter()
            problems = _cli(["eval", "--model", str(path), "--data", str(inp.eval_csv),
                             "--label-col", "label", "--out", str(ev_out)])
            s.add("eval_rows_per_s", time.perf_counter() - t, before + probes(),
                  rows=len(inp.eval_raw))
            self._pending.append(("eval", path, problems, ev_out))
        loaded = {kind: trainer.load_model(path) for kind, path in models.items()}
        rows = inp.X.shape[0]
        for _ in range(max(PREDICT_REPS, -(-PREDICT_ROWS // rows))):
            for kind, model in loaded.items():
                before = probes()
                span = recorder.begin(layers.BENCH_PREDICT, kind=kind, rows=rows)
                t = time.perf_counter()
                pred = trainer.predict(model, inp.X)
                seconds = time.perf_counter() - t
                recorder.end(span)
                s.add(f"predict_rows_per_s.{kind}", seconds, before + probes(), rows=rows)
                self._pending.append(("predict", model, pred))

    def verify(self) -> None:
        """Check every eval and predict output recorded since the last call."""
        from sparselvq import trainer

        inp = self.inputs
        reference: dict[Path, tuple] = {}
        for op in self._pending:
            if op[0] == "eval":
                _, path, problems, ev_out = op
                if path not in reference:
                    model = trainer.load_model(path)
                    reference[path] = (model, trainer.predict(model, inp.eval_X))
                model, pred = reference[path]
                known = None
                if not problems:
                    problems, known = check_eval(ev_out, model, inp.eval_raw, pred)
                self.ledger.record(f"eval {model.kind}", problems, known)
            else:
                _, model, pred = op
                self.ledger.record(f"predict {model.kind}",
                                   check_predict(model, inp.X, pred, inp.check_rows))
        self._pending.clear()

    def _quality(self, out: Path, s: Samples) -> None:
        last = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        s.test_accuracy.append(last["test_accuracy"])
        s.sparsity.append(last["sparsity"])
        lines = (out / "profile.csv").read_text().splitlines()[1:]
        lam_sq = np.array([float(line.split(",")[3]) for line in lines])
        meta = json.loads(self.inputs.data_csv.with_suffix(".meta.json").read_text())
        s.true_dim_mass.append(float(lam_sq[meta["informative_dims"]].sum() / lam_sq.sum()))


def prepare_work(root: Path, name: str) -> Path:
    work = root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work
