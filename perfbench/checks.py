"""Output checks. Each checked program call is one operation in the ledger;
it fails when it raises or when any of its checks finds a problem.

One defect of the program is known and documented (ROADMAP item 4): `eval`
maps the CSV's labels in their own first-appearance order, not through the
model's `label_names`. An `eval` output that matches exactly what that defect
gives is listed as a known defect, printed and reported per layer, and does
not fail the operation; any other mismatch does."""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

NORM_TOL = 1e-9
KNOWN_EVAL_DEFECT = ("eval maps the CSV labels in their first-appearance order, "
                     "not through model.label_names (ROADMAP item 4)")


class Ledger:
    """Attempted and failed operations, with the reason for each failure,
    and the operations whose output matched a known defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: list[str] = []
        self.by_action: Counter[str] = Counter()  # attempted, by the op's first word

    def record(self, op: str, problems: list[str], known: str | None = None) -> bool:
        self.attempted += 1
        self.by_action[op.split()[0]] += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: " + "; ".join(problems))
        elif known:
            self.known.append(f"{op}: {known}")
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def known_frac(self, action: str) -> float:
        """Share of the `action` operations whose output matched a known defect."""
        hits = sum(1 for k in self.known if k.split()[0] == action)
        return hits / self.by_action[action] if self.by_action[action] else 0.0


def _finite_tree(x) -> bool:
    if isinstance(x, dict):
        return all(_finite_tree(v) for v in x.values())
    if isinstance(x, list):
        return all(_finite_tree(v) for v in x)
    if isinstance(x, float):
        return math.isfinite(x)
    return True


def check_run_dir(outdir: Path, n_epochs: int, n_steps: int) -> list[str]:
    """One metrics.jsonl row per epoch, one path.csv row per step, a finite model.json."""
    problems = []
    try:
        rows = [json.loads(line) for line in (outdir / "metrics.jsonl").read_text().splitlines()]
        if len(rows) != n_epochs:
            problems.append(f"metrics.jsonl has {len(rows)} rows, expected {n_epochs}")
        if [r.get("epoch") for r in rows] != list(range(len(rows))):
            problems.append("metrics.jsonl epochs are not 0..n-1")
        if not _finite_tree(rows):
            problems.append("metrics.jsonl holds a non-finite value")
    except (OSError, ValueError) as exc:
        problems.append(f"metrics.jsonl unreadable: {exc}")
    try:
        lines = (outdir / "path.csv").read_text().splitlines()
        if len(lines) - 1 != n_steps:
            problems.append(f"path.csv has {len(lines) - 1} rows, expected {n_steps}")
    except OSError as exc:
        problems.append(f"path.csv unreadable: {exc}")
    try:
        model = json.loads((outdir / "model.json").read_text())
        if not _finite_tree(model):
            problems.append("model.json holds a non-finite value")
    except (OSError, ValueError) as exc:
        problems.append(f"model.json unreadable: {exc}")
    return problems


def check_metric_norm(model) -> list[str]:
    """lambda >= 0 with sum(lambda^2) = 1, or ||Omega||_F = 1."""
    problems = []
    if model.rel is not None:
        lam = model.rel.lam
        if np.any(lam < 0):
            problems.append("lambda has a negative entry")
        if abs(float(np.sum(lam**2)) - 1.0) > NORM_TOL:
            problems.append(f"sum(lambda^2) = {float(np.sum(lam**2))!r}")
    if model.omega is not None:
        sq = float(np.sum(model.omega.omega**2))
        if abs(sq - 1.0) > NORM_TOL:
            problems.append(f"||Omega||_F^2 = {sq!r}")
    return problems


def check_predict(model, X: np.ndarray, pred: np.ndarray, rows: np.ndarray) -> list[str]:
    """`pred` agrees with a brute-force scan of LVQModel.dist on the given rows."""
    if pred.shape != (X.shape[0],):
        return [f"predict returned shape {pred.shape} for {X.shape[0]} rows"]
    bad = 0
    for i in rows:
        d = [model.dist(X[i], w) for w in model.protos.vectors]
        if model.protos.labels[int(np.argmin(d))] != pred[i]:
            bad += 1
    return [f"{bad} of {rows.size} sampled rows disagree with a brute-force scan"] if bad else []


def check_eval(eval_json: Path, model, raw_labels: list[str],
               pred: np.ndarray) -> tuple[list[str], str | None]:
    """`eval`'s accuracy equals the accuracy after mapping the CSV labels
    through model.label_names; `pred` holds the model's predictions per row.

    Returns the problems and, when the accuracy differs from that reference
    but equals the one of the known label-mapping defect, its description."""
    try:
        reported = json.loads(eval_json.read_text())["accuracy"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"eval output unreadable: {exc}"], None
    names = model.label_names or []
    unknown = sorted(set(raw_labels) - set(names))
    if unknown:
        return [f"labels {unknown} are not among the model's label_names"], None
    index = {name: k for k, name in enumerate(names)}
    reference = float(np.mean(pred == np.array([index[r] for r in raw_labels])))
    if reported == reference:
        return [], None
    first_seen = {name: k for k, name in enumerate(dict.fromkeys(raw_labels))}
    defect = float(np.mean(pred == np.array([first_seen[r] for r in raw_labels])))
    if reported == defect:
        return [], f"{KNOWN_EVAL_DEFECT}: reports {reported!r}, reference {reference!r}"
    return [f"eval reports accuracy {reported!r}, reference through label_names is "
            f"{reference!r}"], None
