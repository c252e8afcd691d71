"""Which sparselvq attributes the traced run wraps, and the per-layer
metrics derived from the spans.

Every wrapped name is one the program looks up at call time (a module
global or a class attribute), so replacing it from here observes the
calls without changing anything under src/. An SGD step has no function
of its own: a step span opens at each per-sample distance call and closes
at the next one, or where the end-of-epoch evaluation begins.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracing import Tracer, ancestor_of, self_times

EPOCH = "trainer.train_epoch"
STEP = "trainer.sgd_step"
EPOCH_EVAL = "trainer.epoch_eval"
CLI_MAIN = "cli.main"
BENCH_PREDICT = "bench.predict"

WINNER_SEARCH = ("trainer.dists_to_protos", "glvq.winners_from_distances")
PROTO_GRAD = ("metric.grad_proto_lambda", "metric.grad_proto_omega")
PARAM_GRAD = ("metric.grad_lambda", "metric.grad_omega")
PROJECT = ("metric.clamp_lambda", "metric.normalize_lambda", "metric.normalize_omega")
PENALTY_GRAD = {"grlvq": "l1smooth.abs_smooth_grad", "gmlvq": "l1smooth.matrix_l1_smooth_grad"}
KINDS = ("grlvq", "gmlvq")

# name -> unit, in report order; every traced run reports all of them
PER_LAYER = {
    "dataset.load_csv.s": "s",
    "dataset.load_csv.cells_per_s": "cells/s",
    "dataset.split.s": "s",
    "glvq.winner_search.us": "us",
    "glvq.xi_factors.us": "us",
    "metric.proto_grad.us": "us",
    "metric.param_grad.us": "us",
    "metric.project.us": "us",
    "metric.wrappers_per_step": "count",
    "l1smooth.penalty_grad.us.grlvq": "us",
    "l1smooth.penalty_grad.us.gmlvq": "us",
    "l1smooth.abs_smooth.calls_per_step": "count",
    "l1smooth.reg_term.us": "us",
    **{f"trainer.sgd_step.{part}.{kind}.{pen}": "us"
       for part in ("us", "self_us") for kind in KINDS for pen in ("on", "off")},
    "trainer.skipped_samples": "count",
    "trainer.epoch_eval.ms": "ms",
    "trainer.distance_matrix.calls_per_epoch": "count",
    "trainer.distance_matrix.computed_bytes": "bytes",
    "trainer.predict.us_per_row.grlvq": "us",
    "trainer.predict.us_per_row.gmlvq": "us",
    "trainer.snapshot.ms": "ms",
    "trainer.sparsity": "fraction",
    "cli.run_dir_write.ms": "ms",
    "cli.self.ms.path": "ms",
    "cli.self.ms.eval": "ms",
    "checks.eval_known_defect_frac": "fraction",
    "trace.overhead_s": "s",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from sparselvq import cli, l1smooth, metric, trainer

    def open_step(tr: Tracer) -> None:
        top = tr.top()
        if top >= 0 and tr.name(top) == STEP:
            tr.end(top)
            top = tr.top()
        if top >= 0 and tr.name(top) == EPOCH:
            tr.begin(STEP)

    def close_steps(tr: Tracer) -> None:
        top = tr.top()
        if top >= 0 and tr.name(top) == STEP:
            tr.end(top)
            tr.begin(EPOCH_EVAL)

    # signatures of the originals, taken before anything is wrapped
    sig = {fn: inspect.signature(getattr(owner, fn))
           for owner, fn in ((trainer, "train_epoch"), (trainer, "distance_matrix"), (cli, "main"))
           if hasattr(owner, fn)}

    def arguments(fn: str, args, kwargs) -> dict:
        return sig[fn].bind(*args, **kwargs).arguments

    def epoch_attrs(args, kwargs) -> dict:
        a = arguments("train_epoch", args, kwargs)
        return {"kind": a["model"].kind, "penalty": "on" if a["reg_weight"] else "off"}

    def note_skip(tr: Tracer, _idx, _args, _kwargs, win) -> None:
        if win.d_plus + win.d_minus == 0.0:
            tr.count("skipped")

    def note_bytes(tr: Tracer, idx, args, kwargs, _result) -> None:
        a = arguments("distance_matrix", args, kwargs)
        model = a["model"]
        rows = np.shape(a["X"])[0]
        tr.attrs[idx] = {"bytes": rows * model.protos.n_protos * model.n_features * 8}

    def note_cells(tr: Tracer, idx, _args, _kwargs, data) -> None:
        tr.attrs[idx] = {"cells": data.n_samples * (data.n_features + 1)}

    def main_attrs(args, kwargs) -> dict:
        return {"command": arguments("main", args, kwargs)["argv"][0]}

    tracer.wrap(trainer, "train_epoch", EPOCH, attrs=epoch_attrs)
    tracer.wrap(trainer, "_dists_to_protos", WINNER_SEARCH[0], before=open_step)
    tracer.wrap(trainer, "winners_from_distances", WINNER_SEARCH[1], note=note_skip)
    tracer.wrap(trainer, "xi_factors", "glvq.xi_factors")
    for fn in ("grad_proto_lambda", "grad_proto_omega", "grad_lambda", "grad_omega",
               "clamp_lambda", "normalize_lambda", "normalize_omega"):
        tracer.wrap(metric, fn, f"metric.{fn}")
    tracer.wrap(metric, "det_metric", "metric.det_metric", before=close_steps)
    tracer.wrap(trainer, "evaluate", "trainer.evaluate", before=close_steps)
    for fn in ("dataset_cost", "reg_term_of", "sparsity_of", "predict"):
        tracer.wrap(trainer, fn, f"trainer.{fn}")
    tracer.wrap(trainer, "distance_matrix", "trainer.distance_matrix", note=note_bytes)
    tracer.wrap(trainer.LVQModel, "copy", "trainer.snapshot")
    for fn in ("abs_smooth_grad", "matrix_l1_smooth_grad"):
        tracer.wrap(l1smooth, fn, f"l1smooth.{fn}")
    tracer.count_calls(l1smooth, "abs_smooth", "abs_smooth")
    tracer.count_calls(metric.RelevanceProfile, "__post_init__", "metric_wrapper")
    tracer.count_calls(metric.OmegaMatrix, "__post_init__", "metric_wrapper")
    tracer.wrap(cli, "main", CLI_MAIN, attrs=main_attrs)
    tracer.wrap(cli, "load_csv", "cli.load_csv", note=note_cells)
    for fn in ("split", "init_model", "train", "run_path", "save_model",
               "_write_profile_csv", "load_model", "evaluate", "confusion_matrix"):
        tracer.wrap(cli, fn, f"cli.{fn}")


def derive(tracers: list[Tracer]) -> dict[str, list[float]]:
    """Per-layer samples pooled over traced sessions.

    Timings come back as lists of samples; counts as one-element lists
    holding an exact ratio or total per path run.
    """
    out: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    totals = {"steps": 0, "on_steps": 0, "epochs": 0, "paths": 0, "wrappers": 0,
              "abs_smooth": 0, "skipped": 0, "dm_in_epoch": 0}
    max_bytes = 0
    for tr in tracers:
        cols = tr.arrays()
        if not cols["start"].size:
            continue
        nid, dur, parent = cols["name_id"], cols["duration"], cols["parent"]

        def is_(*labels):
            return np.isin(nid, [tr.id_of(label) for label in labels])

        selft = self_times(dur, parent)
        is_step = is_(STEP)
        step_anc = ancestor_of(parent, is_step)
        epoch_anc = ancestor_of(parent, is_(EPOCH))
        steps = np.flatnonzero(is_step)
        step_kind = np.array([tr.attrs[p]["kind"] for p in parent[steps]], dtype=object)
        step_pen = np.array([tr.attrs[p]["penalty"] for p in parent[steps]], dtype=object)

        def per_step(names, scale=1e6):
            mask = is_(*names) & (parent >= 0)
            mask[mask] = is_step[parent[mask]]
            sums = np.bincount(parent[mask], weights=dur[mask], minlength=nid.size)[steps]
            hits = np.bincount(parent[mask], minlength=nid.size)[steps] > 0
            return list(sums[hits] * scale)

        def counted(key, which=None):
            arr = cols.get("count." + key)
            if arr is None:
                return 0
            inside = step_anc >= 0
            if which is not None:
                inside &= np.isin(step_anc, which)
            return int(arr[inside].sum())

        def durations(label, scale=1.0, inside_epoch=False):
            mask = is_(label)
            if inside_epoch:
                mask &= epoch_anc >= 0
            return list(dur[mask] * scale)

        out["glvq.winner_search.us"] += per_step(WINNER_SEARCH)
        out["glvq.xi_factors.us"] += per_step(("glvq.xi_factors",))
        out["metric.proto_grad.us"] += per_step(PROTO_GRAD)
        out["metric.param_grad.us"] += per_step(PARAM_GRAD)
        out["metric.project.us"] += per_step(PROJECT)
        for kind, fn in PENALTY_GRAD.items():
            out[f"l1smooth.penalty_grad.us.{kind}"] += per_step((fn,))
        for kind in KINDS:
            for pen in ("on", "off"):
                sel = steps[(step_kind == kind) & (step_pen == pen)]
                out[f"trainer.sgd_step.us.{kind}.{pen}"] += list(dur[sel] * 1e6)
                out[f"trainer.sgd_step.self_us.{kind}.{pen}"] += list(selft[sel] * 1e6)

        totals["steps"] += steps.size
        on_steps = steps[step_pen == "on"]
        totals["on_steps"] += on_steps.size
        totals["wrappers"] += counted("metric_wrapper")
        totals["abs_smooth"] += counted("abs_smooth", on_steps)
        totals["skipped"] += counted("skipped")
        totals["epochs"] += int(np.sum(is_(EPOCH)))
        is_dm = is_("trainer.distance_matrix")
        totals["dm_in_epoch"] += int(np.sum(is_dm & (epoch_anc >= 0)))
        max_bytes = max([max_bytes] + [tr.attrs[i]["bytes"] for i in np.flatnonzero(is_dm)])

        out["l1smooth.reg_term.us"] += durations("trainer.reg_term_of", 1e6, inside_epoch=True)
        out["trainer.epoch_eval.ms"] += durations(EPOCH_EVAL, 1e3)
        out["trainer.snapshot.ms"] += durations("trainer.snapshot", 1e3)
        out["dataset.split.s"] += durations("cli.split")
        for i in np.flatnonzero(is_("cli.load_csv")):
            out["dataset.load_csv.s"].append(dur[i])
            out["dataset.load_csv.cells_per_s"].append(tr.attrs[i]["cells"] / dur[i])
        for i in np.flatnonzero(is_(BENCH_PREDICT)):
            a = tr.attrs[i]
            out[f"trainer.predict.us_per_row.{a['kind']}"].append(dur[i] / a["rows"] * 1e6)
        for i in np.flatnonzero(is_(CLI_MAIN)):
            command = tr.attrs[i]["command"]
            out[f"cli.self.ms.{command}"].append(selft[i] * 1e3)
            if command == "path":
                totals["paths"] += 1
                kids = np.flatnonzero((parent == i) & is_("cli.run_path"))
                out["cli.run_dir_write.ms"].append((cols["end"][i] - cols["end"][kids[-1]]) * 1e3)

    def ratio(num, den):
        return [num / den] if den else [0.0]

    out["metric.wrappers_per_step"] = ratio(totals["wrappers"], totals["steps"])
    out["l1smooth.abs_smooth.calls_per_step"] = ratio(totals["abs_smooth"], totals["on_steps"])
    out["trainer.skipped_samples"] = ratio(totals["skipped"], totals["paths"])
    out["trainer.distance_matrix.calls_per_epoch"] = ratio(totals["dm_in_epoch"], totals["epochs"])
    out["trainer.distance_matrix.computed_bytes"] = [float(max_bytes)]
    return out
