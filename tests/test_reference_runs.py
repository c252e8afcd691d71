"""Run outputs against checked-in reference values.

A grid of short `path` runs on the CI's 8-dim synthetic data (every model
kind, identity and sigmoid transfer, stratified and unstratified splits):
each run's `metrics.jsonl`, final prototypes, `lambda`/`omega` and `eval`
accuracy and confusion must match `reference_runs.json`, integers exactly
and floats to a relative 1e-12.

A change that moves these numbers on purpose regenerates the file with
`PYTHONPATH=src python tests/test_reference_runs.py` and reports the
largest relative change per field.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from sparselvq.cli import main

REFERENCE = Path(__file__).with_name("reference_runs.json")
REL = 1e-12

MODELS = {
    "glvq": ["--model", "glvq"],
    "grlvq": ["--model", "grlvq"],
    "gmlvq": ["--model", "gmlvq"],
    "gmlvq-m2": ["--model", "gmlvq", "--omega-rows", "2"],
}
TRANSFERS = {
    "identity": [],
    "sigmoid": ["--transfer", "sigmoid", "--sigmoid-slope", "2.5"],
}
SPLITS = {"stratified": [], "unstratified": ["--no-stratify"]}
RUNS = {f"{m}-{t}-{s}": MODELS[m] + TRANSFERS[t] + SPLITS[s]
        for m in MODELS for t in TRANSFERS for s in SPLITS}


def _run_cli(args) -> None:
    code = main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"sparselvq {' '.join(map(str, args))} exited {code}")


def run_grid(workdir: Path) -> dict:
    """Every run's outputs, keyed by run id, as `reference_runs.json` holds them."""
    data = workdir / "tiny.csv"
    _run_cli(["synth", "--dims", 8, "--informative", 2, "--classes", 3,
              "--per-class", 10, "--seed", 1, "--out", data])
    results = {}
    for run_id, options in RUNS.items():
        out = workdir / run_id
        _run_cli(["path", "--data", data, *options, "--epochs", 2, "--reg-steps", 2,
                  "--epochs-per-step", 1, "--out", out])
        _run_cli(["eval", "--model", out / "model.json", "--data", data,
                  "--out", out / "eval.json"])
        model = json.loads((out / "model.json").read_text())
        report = json.loads((out / "eval.json").read_text())
        results[run_id] = {
            "metrics": [json.loads(line)
                        for line in (out / "metrics.jsonl").read_text().splitlines()],
            "protos": model["protos"],
            "lambda": model["lambda"],
            "omega": model["omega"],
            "eval": {"accuracy": report["accuracy"], "confusion": report["confusion"]},
        }
    return results


def mismatches(got, want, where: str = "") -> list[str]:
    """Every entry where `got` differs from `want`: structure, types and
    integers exactly, floats by more than REL relative."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} is not of the type of {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if math.isclose(got, want, rel_tol=REL, abs_tol=0.0):
            return []
        rel = abs(got - want) / abs(want) if want else math.inf
        return [f"{where}: {got!r} != {want!r} (relative {rel:.2e})"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return run_grid(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_reference_covers_the_grid(reference):
    assert sorted(reference) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_run_matches_reference(grid, reference, run_id):
    bad = mismatches(grid[run_id], reference[run_id], run_id)
    assert not bad, f"{len(bad)} entries differ:\n" + "\n".join(bad[:20])


def test_mismatches_compare_floats_relatively_and_integers_exactly():
    assert mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-13, 2]}) == []
    assert mismatches([1.0], [1.0 + 1e-11]) != []
    assert mismatches([0.0], [1e-300]) != []
    assert mismatches([2], [3]) == ["[0]: 2 != 3"]
    assert mismatches([2], [2.0]) != []
    assert mismatches(None, [1.0]) != []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_grid(Path(tmp))
    REFERENCE.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {REFERENCE} ({len(results)} runs)", file=sys.stderr)
