"""Command-line entry point: synth | train | path | eval.

Every training run writes its manifest (all flags, resolved) into the
output directory once its model is built, before any training; a run
whose settings do not fit the data writes nothing. Re-running from that
manifest reproduces the metrics byte for byte on the same platform.
Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    SplitSpec,
    l2_normalize,
    load_csv,
    save_csv,
    split,
    synth_sparse,
)
from .glvq import TransferFn
from .trainer import (
    MODEL_KINDS,
    LVQModel,
    NonFiniteUpdate,
    PathSchedule,
    TrainConfig,
    confusion_matrix,
    evaluate,
    init_model,
    load_model,
    predict,
    run_path,
    save_model,
    train,
)

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselvq",
        description="Prototype classifiers with learned metrics and sparse relevance profiles.",
    )
    parser.add_argument("--version", action="version", version=f"sparselvq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic sparse-relevance dataset")
    p_synth.add_argument("--dims", type=int, required=True, help="total feature count")
    p_synth.add_argument("--informative", type=int, required=True,
                         help="leading dimensions that separate the classes")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--per-class", type=int, required=True)
    p_synth.add_argument("--noise-sigma", type=float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default="synthetic.csv", help="CSV output path")
    p_synth.set_defaults(func=cmd_synth)

    for name in ("train", "path"):
        p = sub.add_parser(name, help=f"{name} a model and write a run directory")
        p.add_argument("--manifest", help="replay a previous run from its manifest")
        p.add_argument("--data", help="input CSV")
        p.add_argument("--label-col", default="label")
        p.add_argument("--out", help="run directory (required unless replaying)")
        p.add_argument("--model", choices=MODEL_KINDS, default=TrainConfig.model_kind)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                       help="training epochs (for `path`: the unregularized pretraining phase)")
        p.add_argument("--rate-proto", type=float, default=TrainConfig.rate_proto)
        p.add_argument("--rate-metric", type=float, default=TrainConfig.rate_metric)
        p.add_argument("--rate-decay", type=float, default=TrainConfig.rate_decay)
        p.add_argument("--alpha", type=float, default=TrainConfig.alpha,
                       help="l1 smoothing sharpness")
        p.add_argument("--seed", type=int, default=TrainConfig.seed)
        p.add_argument("--transfer", choices=("identity", "sigmoid"), default="identity")
        p.add_argument("--sigmoid-slope", type=float, help="for --transfer sigmoid (default: 1.0)")
        p.add_argument("--protos-per-class", type=int, default=TrainConfig.protos_per_class)
        p.add_argument("--omega-rows", type=int, default=None,
                       help="projection rows for --model gmlvq (default: square)")
        p.add_argument("--sparsity-threshold", type=float, default=TrainConfig.sparsity_threshold)
        p.add_argument("--train-fraction", type=float, default=0.7)
        p.add_argument("--no-stratify", action="store_true")
        p.add_argument("--l2-normalize", action="store_true")
        if name == "path":
            p.add_argument("--reg-start", type=float, default=PathSchedule.reg_weight_start)
            p.add_argument("--reg-end", type=float, default=PathSchedule.reg_weight_end)
            p.add_argument("--reg-steps", type=int, default=PathSchedule.steps)
            p.add_argument("--epochs-per-step", type=int, default=PathSchedule.epochs_per_step)
        p.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p_eval.add_argument("--model", required=True, help="model JSON")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--label-col", default="label")
    p_eval.add_argument("--out", default="eval.json")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def cmd_synth(args) -> int:
    data = synth_sparse(args.dims, args.informative, args.classes, args.per_class,
                        args.noise_sigma, args.seed)
    out = Path(args.out)
    sidecar = save_csv(data, out, extra_meta={
        "generator": "synth_sparse",
        "informative_dims": list(range(args.informative)),
        "noise_sigma": args.noise_sigma,
        "seed": args.seed,
    })
    print(f"wrote {out} ({data.n_samples} samples, {data.n_features} dims, "
          f"{data.n_classes} classes) and {sidecar}")
    return 0


def _manifest_from_args(args, command: str) -> dict:
    if args.data is None:
        raise UsageError("--data is required (or use --manifest)")
    if args.out is None:
        raise UsageError("--out is required")
    if args.omega_rows is not None and args.model != "gmlvq":
        raise UsageError(f"--omega-rows applies only to --model gmlvq, not {args.model}")
    if args.omega_rows is not None and args.omega_rows < 1:
        raise UsageError(f"--omega-rows must be >= 1, got {args.omega_rows}")
    if args.sigmoid_slope is not None and args.transfer != "sigmoid":
        raise UsageError(f"--sigmoid-slope applies only to --transfer sigmoid, not {args.transfer}")
    slope = TransferFn.slope if args.sigmoid_slope is None else args.sigmoid_slope
    config = TrainConfig(
        model_kind=args.model, epochs=args.epochs, rate_proto=args.rate_proto,
        rate_metric=args.rate_metric, rate_decay=args.rate_decay, alpha=args.alpha,
        seed=args.seed, transfer=TransferFn(args.transfer, slope),
        omega_rows=args.omega_rows or 0, protos_per_class=args.protos_per_class,
        sparsity_threshold=args.sparsity_threshold,
    )
    schedule = None
    if command == "path":
        schedule = PathSchedule(reg_weight_start=args.reg_start, reg_weight_end=args.reg_end,
                                steps=args.reg_steps, epochs_per_step=args.epochs_per_step)
    return {
        "tool": "sparselvq",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "data": str(args.data),
        "label_column": args.label_col,
        "l2_normalize": bool(args.l2_normalize),
        "split": asdict(SplitSpec(train_fraction=args.train_fraction,
                                  stratified=not args.no_stratify, seed=args.seed)),
        "config": asdict(config),
        "schedule": asdict(schedule) if schedule else None,
        "out": str(args.out),
    }


def _manifest_from_file(args, command: str) -> dict:
    manifest = json.loads(Path(args.manifest).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {args.manifest} is not a JSON object")
    if manifest.get("command") != command:
        raise UsageError(
            f"manifest was written by `{manifest.get('command')}`, not `{command}`"
        )
    if args.out is not None:
        manifest["out"] = str(args.out)
    manifest["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return manifest


def _write_profile_csv(path: Path, model: LVQModel, dim_names: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dim_index", "dim_name", "lambda", "lambda_sq"])
        writer.writerows([i, name, _fmt(lam), _fmt(lam * lam)]
                         for i, (name, lam) in enumerate(zip(dim_names, model.metric.profile())))


def _execute_run(manifest: dict) -> int:
    try:
        for key in ("data", "label_column", "out"):  # "data": 0 would open standard input
            if type(manifest[key]) is not str:
                raise TypeError(f"{key} must be a string, got {manifest[key]!r}")
        data_path, label_column = manifest["data"], manifest["label_column"]
        normalize, outdir = manifest["l2_normalize"], Path(manifest["out"])
        if type(normalize) is not bool:
            raise TypeError(f"l2_normalize must be true or false, got {normalize!r}")
        split_spec = SplitSpec(**manifest["split"])
        c = dict(manifest["config"])
        config = TrainConfig(transfer=TransferFn(**c.pop("transfer", {})), **c)
        schedule = manifest["schedule"]
        if manifest["command"] == "path":
            schedule = PathSchedule(**schedule)  # `**` on a null schedule raises TypeError
        elif schedule is not None:
            raise TypeError(f"a train run takes no schedule, got {schedule!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed manifest: {type(exc).__name__}: {exc}") from exc
    data = load_csv(data_path, label_column)
    if normalize:
        data = l2_normalize(data)
    train_data, test_data = split(data, split_spec)
    rng = np.random.default_rng(config.seed)
    model = init_model(train_data, config, rng)  # checks the settings against the data

    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    logger.info("training %s on %d samples (%d held out), %d features",
                config.model_kind, train_data.n_samples, test_data.n_samples,
                data.n_features)
    metrics = train(model, train_data, config, test_data=test_data, rng=rng)

    if schedule is not None:
        path_metrics, snapshots = run_path(model, train_data, config, schedule,
                                           test_data=test_data, rng=rng)
        metrics.extend(path_metrics)
        rows = ["reg_weight,train_accuracy,test_accuracy,sparsity"]
        for k, snap in enumerate(snapshots):
            save_model(snap, outdir / f"model_step_{k:02d}.json")
            m = path_metrics[(k + 1) * schedule.epochs_per_step - 1]
            rows.append(f"{_fmt(m.reg_weight)},{_fmt(m.train_accuracy)},"
                        f"{_fmt(m.test_accuracy)},{_fmt(m.sparsity)}")
            logger.info("path step %d: reg_weight %.4g, test acc %.4f, sparsity %.3f",
                        k, m.reg_weight, m.test_accuracy, m.sparsity)
        (outdir / "path.csv").write_text("\n".join(rows) + "\n")

    (outdir / "metrics.jsonl").write_text("".join(json.dumps(asdict(m)) + "\n" for m in metrics))
    save_model(model, outdir / "model.json")
    _write_profile_csv(outdir / "profile.csv", model, train_data.dim_names)

    final = metrics[-1]
    print(f"run complete: {outdir}")
    print(f"final train accuracy {final.train_accuracy:.4f}, "
          f"test accuracy {final.test_accuracy:.4f}, sparsity {final.sparsity:.4f}")
    return 0


def cmd_run(args) -> int:
    """`train` and `path`: build or replay the manifest, then run it."""
    read = _manifest_from_file if args.manifest else _manifest_from_args
    return _execute_run(read(args, args.command))


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.data, args.label_col)
    names = model.label_names or [str(c) for c in range(int(model.protos.labels.max()) + 1)]
    unknown = ([n for n in data.label_names if n not in names] if model.label_names
               else data.label_names[len(names):])
    if unknown:
        print(f"error: {args.data} has labels {unknown} that the model was not "
              f"trained on (it knows {names})", file=sys.stderr)
        return 1
    pred = predict(model, data.features)
    acc = evaluate(model, data, pred)
    conf = confusion_matrix(model, data, pred)
    # the report goes first, so a reader that closes stdout early cannot stop it
    Path(args.out).write_text(json.dumps({
        "model": str(args.model),
        "data": str(args.data),
        "n_samples": data.n_samples,
        "accuracy": acc,
        "confusion": conf.tolist(),
        "label_names": names,
    }, indent=2) + "\n")
    print(f"accuracy {acc:.4f} on {data.n_samples} samples")
    width = max(max(len(str(n)) for n in names), len(str(int(conf.max())))) + 2
    print("confusion (rows = true, cols = predicted):")
    print(" " * width + "".join(f"{n:>{width}}" for n in names))
    for name, row in zip(names, conf):
        print(f"{name:>{width}}" + "".join(f"{v:>{width}}" for v in row))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteUpdate, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
