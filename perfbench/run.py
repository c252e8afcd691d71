"""sparselvq benchmark: time to a sparse model, apply throughput, per-layer costs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grlvq-path --seed 1 --seconds 30 --trace 0

It imports the package from ./src, makes every input from --seed, repeats
the workload's user session while the next one still fits in --seconds
(at least once), checks the outputs,
prints each metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced sessions and
reports the per-layer metrics, the tracing overhead among them. Work
files go to ./.perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from stats import summarize  # noqa: E402

END_TO_END = {  # name -> unit; the list BENCHMARK.json declares, in report order
    "setup_s": "s",
    "path_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "test_accuracy": "fraction",
    "true_dim_mass": "fraction",
    "checks_passed_frac": "fraction",
    "peak_rss_mb": "MB",
    "eval_rows_per_s": "rows/s",
    "predict_rows_per_s.grlvq": "rows/s",
    "predict_rows_per_s.gmlvq": "rows/s",
}


def _import_program(root: Path):
    """Import sparselvq from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "sparselvq" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'sparselvq'} not found; run from the root of a "
                         "sparselvq source checkout")
    sys.path.insert(0, str(src))
    import sparselvq

    if Path(sparselvq.__file__).resolve().parent != (src / "sparselvq").resolve():
        raise SystemExit(f"error: imported sparselvq from {sparselvq.__file__}, not {src}")


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _os_threads() -> int | None:
    """Threads of this process (BLAS workers included), from /proc when it exists."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": threads or f"library default (OpenBLAS: one per core, {os.cpu_count()})",
        "git_commit": _git_commit(root),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _line(name: str, unit: str, samples, value=None) -> str:
    """'name  median unit  (pXX v, n=k)'; counts print as exact numbers."""
    if value is not None:
        return f"  {name:<42} {value!r} {unit}"
    s = summarize(samples)
    if not s["n"]:
        return f"  {name:<42} not run on this workload (n=0)"
    tail = f", p{s['tail_p']:g} {s['tail']:.6g}" if s["tail_p"] is not None else ""
    return f"  {name:<42} {s['median']:.6g} {unit}  (median{tail}, n={s['n']})"


def _pct(xs, p: float = 50.0) -> float:
    """Percentile of the samples; 0.0 when there are none (every attempt failed)."""
    return float(np.percentile(xs, p)) if len(xs) else 0.0


def repeat_until(deadline: float, work) -> None:
    """Call `work` at least once, then again while another call, as long as
    the slowest so far, still ends by `deadline`."""
    slowest = 0.0
    while True:
        t = time.perf_counter()
        work()
        slowest = max(slowest, time.perf_counter() - t)
        if time.perf_counter() + slowest > deadline:
            return


def run_untraced(session, seconds: float, samples_out: Path) -> dict:
    from workloads import SETUP_REPS

    deadline = time.perf_counter() + seconds
    if session.spec.setup == "path":
        for _ in range(SETUP_REPS):
            session.time_setup()

    def checked_session():
        session.session()
        session.verify()  # frees the session's outputs, so peak RSS does not grow with their count

    repeat_until(deadline, checked_session)
    s = session.samples
    samples_out.write_text(json.dumps(vars(s)) + "\n")
    ledger = session.ledger
    timed = {  # metric -> (sample key, statistic)
        "setup_s": ("setup_s", 50.0),
        "path_s": ("path_s", 50.0),
        "epoch_ms_p50": ("epoch_ms", 50.0),
        "epoch_ms_p90": ("epoch_ms", 90.0),
        "eval_rows_per_s": ("eval_rows_per_s", 50.0),
        "predict_rows_per_s.grlvq": ("predict_rows_per_s.grlvq", 50.0),
        "predict_rows_per_s.gmlvq": ("predict_rows_per_s.gmlvq", 50.0),
    }
    metrics = {name: _pct(s.scaled[key], p) for name, (key, p) in timed.items()}
    metrics.update({
        "test_accuracy": _pct(s.test_accuracy),
        "true_dim_mass": _pct(s.true_dim_mass),
        "checks_passed_frac": 1.0 - ledger.failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print("end-to-end metrics (timings scaled to a 1 ms speed probe, raw value alongside):")
    for name, unit in END_TO_END.items():
        if name in timed:
            key, p = timed[name]
            tail = summarize(s.scaled[key])
            tail = f"p{tail['tail_p']:g} {tail['tail']:.6g}, " if tail["tail_p"] else ""
            print(f"  {name:<42} {metrics[name]:.6g} {unit}  (p{p:g} of {len(s.scaled[key])}; "
                  f"{tail}raw p{p:g} {_pct(s.raw[key], p):.6g})")
        else:
            print(_line(name, unit, None, metrics[name]))
    print(_line("sparsity", "fraction", None, _pct(s.sparsity)))
    print(_line("failed_frac", "fraction", None, ledger.failed_frac))
    print(_line("path_runs", "count", None, len(s.scaled["path_s"])))
    return metrics


def run_traced(session, seconds: float, spans_out: Path) -> dict:
    from tracing import Tracer

    plain, traced, tracers = [], [], []

    def pair():
        """An untraced session, then the same session traced."""
        plain.append(session.session())
        tracers.append(Tracer(run_id=len(tracers)))
        traced.append(session.session(tracers[-1]))
        session.verify()

    repeat_until(time.perf_counter() + seconds, pair)
    tracers[-1].dump(spans_out)
    plain = [x for x in plain if x is not None]
    traced = [x for x in traced if x is not None]
    samples = layers.derive(tracers)
    samples["trace.overhead_s"] = [_pct(traced) - _pct(plain)]
    samples["trainer.sparsity"] = [_pct(session.samples.sparsity)]
    samples["checks.eval_known_defect_frac"] = [session.ledger.known_frac("eval")]
    metrics = {}
    print("per-layer metrics (traced sessions):")
    for name, unit in layers.PER_LAYER.items():
        xs = samples[name]
        exact = unit in ("count", "bytes", "fraction") or name == "trace.overhead_s"
        print(_line(name, unit, xs, float(xs[0]) if exact else None))
        metrics[name] = _pct(xs)
    for name in sorted({name for tr in tracers for name in tr.missing}):
        print(f"  not wrapped, missing from the program: {name}")
    print(_line("path_s untraced", "s", plain))
    print(_line("path_s traced", "s", traced))
    print(f"  spans of the last traced session: {len(tracers[-1])} in {spans_out}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    from workloads import WORKLOADS, Session, prepare_work

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(root)
    work = prepare_work(root, args.workload)
    session = Session(args.workload, args.seed, work)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics = run_traced(session, args.seconds, work / "spans.npz")
        units = layers.PER_LAYER
    else:
        metrics = run_untraced(session, args.seconds, work / "samples.json")
        units = END_TO_END
    ledger = session.ledger
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    for known in sorted(set(ledger.known)):
        print(f"  KNOWN DEFECT ({ledger.known.count(known)}x) {known}")
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["os_threads_end"] = _os_threads()
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
