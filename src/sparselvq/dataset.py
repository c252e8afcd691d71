"""Labeled vector data: CSV ingestion, row normalization, train/test
splitting and a synthetic generator with known informative dimensions.
All file I/O for data lives here.

CSV format: one header row, '.' decimal separator, label column named by
the caller. Labels (integers or strings) are mapped to indices 0..C-1 in
first-appearance order; the mapping travels with the dataset as
label_names and is written to a JSON sidecar next to saved files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    pass


class EmptyFile(DatasetError):
    pass


class MissingLabelColumn(DatasetError):
    pass


class MalformedCell(DatasetError):
    def __init__(self, row: int, col: int, detail: str):
        super().__init__(f"row {row}, column {col}: {detail}")
        self.row = row
        self.col = col


class NonFiniteValue(DatasetError):
    def __init__(self, row: int, col: int):
        super().__init__(f"row {row}, column {col}: non-finite value")
        self.row = row
        self.col = col


def _check_finite(a: np.ndarray) -> None:
    """Raise NonFiniteValue at the first NaN or inf cell of the 2-D array a.
    A finite sum clears every cell without an (N, n) mask; a non-finite one
    scans, and finds nothing when finite cells overflowed the sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    if not math.isfinite(total):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            raise NonFiniteValue(*bad[0].tolist())


@dataclass
class LabeledDataset:
    features: np.ndarray  # (N, n) float64
    labels: np.ndarray  # (N,) int
    dim_names: list[str] | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise DatasetError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DatasetError(
                f"{self.features.shape[0]} rows but {self.labels.size} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise DatasetError("labels must be non-negative class indices")
        _check_finite(self.features)
        _check_label_names(self.label_names, self.labels)
        if self.dim_names is not None and len(self.dim_names) != self.features.shape[1]:
            raise DatasetError("dim_names length does not match feature count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def subset(self, idx) -> "LabeledDataset":
        """Rows by index, or the rows where a mask with one entry per row is True."""
        idx = np.asarray(idx)
        if idx.dtype != bool:
            idx = idx.astype(int, copy=False)
        elif idx.shape != self.labels.shape:
            raise DatasetError(f"mask of shape {idx.shape} for {self.n_samples} rows")
        return LabeledDataset(self.features[idx], self.labels[idx], self.dim_names, self.label_names)


def _check_numbers(settings) -> None:
    """TypeError unless each `bool` field of the dataclass `settings` holds a bool,
    each `int` field an integer and each `float` field a number (bools are neither);
    ValueError unless each `int` and `float` field is finite and >= 0."""
    for f in fields(settings):
        v = getattr(settings, f.name)
        if f.type == "bool" and type(v) is not bool:
            raise TypeError(f"{f.name} must be true or false, got {v!r}")
        integer = type(v) is not bool and isinstance(v, (int, np.integer))
        if f.type == "int" and not integer:
            raise TypeError(f"{f.name} must be an integer, got {v!r}")
        if f.type == "float" and not (integer or isinstance(v, (float, np.floating))):
            raise TypeError(f"{f.name} must be a number, got {v!r}")
        if f.type in ("int", "float") and not 0 <= v < np.inf:
            raise ValueError(f"{f.name} must be finite and >= 0, got {v!r}")


def _check_label_names(names, labels: np.ndarray) -> None:
    """ValueError unless `names` is None or a list of distinct non-empty
    strings with an entry for every label in `labels`."""
    if names is not None and (type(names) is not list
                              or not all(isinstance(n, str) and n for n in names)
                              or len(set(names)) < len(names)
                              or (labels.size and labels.max() >= len(names))):
        raise ValueError(f"label_names must be a list of distinct strings, none "
                         f"empty, naming every label, got {names!r}")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self)
        if not 0.0 < self.train_fraction < 1.0:
            raise DatasetError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


SHIFT_BLOCK_ROWS = 256  # rows per in-place column shift in load_csv


def load_csv(path, label_column: str) -> LabeledDataset:
    """Read a labeled dataset from CSV; label column selected by header name.

    Numbers are parsed by numpy's C reader (format in the README). Errors
    name the first bad cell in row-major order: ``row`` counts non-empty
    data rows from 0 and ``col`` is the CSV column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: skip a leading BOM
        lines = iter(fh.readline, "")  # iterating fh itself would disable fh.tell()
        header = [h.strip() for h in next((r for r in csv.reader(lines) if r), [])]
        if not header:
            raise EmptyFile(f"{path} is empty")
        if label_column not in header:
            raise MissingLabelColumn(f"no column named {label_column!r}; header is {header}")
        label_idx = header.index(label_column)
        start = fh.tell()
        if not any(line.strip("\r\n") for line in lines):
            raise EmptyFile(f"{path} has a header but no data rows")
        fh.seek(start)
        # no usecols: it would turn off the reader's check of each row's cell count
        mapping: dict[str, int] = {}
        try:
            table = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                encoding="utf-8",  # numpy < 2 defaults to handing the converter bytes
                converters={label_idx: lambda s: mapping.setdefault(s.strip(), len(mapping))})
            if table.shape[1] != len(header):
                raise ValueError(f"rows have {table.shape[1]} cells, header has {len(header)}")
            labels = table[:, label_idx].astype(int)
            # shift the columns after the label one place left, in place: the features
            # are then the view table[:, :-1]; row blocks keep numpy's overlap copy small
            for row in range(0, table.shape[0], SHIFT_BLOCK_ROWS):
                block = table[row:row + SHIFT_BLOCK_ROWS]
                block[:, label_idx:-1] = block[:, label_idx + 1:]
            # a non-finite cell or an empty label fails here; the error path below names its cell
            return LabeledDataset(table[:, :-1], labels,
                                  header[:label_idx] + header[label_idx + 1:], list(mapping))
        except ValueError as exc:
            fh.seek(start)
            _raise_first_bad_cell(csv.reader(fh), len(header), label_idx)
            raise DatasetError(f"{path}: {exc}") from exc


def _raise_first_bad_cell(rows, width: int, label_idx: int) -> None:
    """Error path of load_csv: raise for the first ragged row, malformed
    cell (an empty label among them) or non-finite cell, taking as a number
    what numpy's reader takes."""
    for i, row in enumerate(r for r in rows if r):
        if len(row) != width:
            raise MalformedCell(i, len(row), f"expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            core = cell.strip()
            if j == label_idx:
                if not core:
                    raise MalformedCell(i, j, "empty label cell")
                continue
            try:
                if not core.isascii() or "_" in core:  # float() takes both
                    raise ValueError(core)
                value = float(core)
            except ValueError:
                raise MalformedCell(i, j, f"cannot parse {cell!r} as a number") from None
            if not math.isfinite(value):
                raise NonFiniteValue(i, j)


def save_csv(data: LabeledDataset, path, extra_meta: dict | None = None) -> Path:
    """Write CSV (full round-trip float precision) plus a JSON metadata sidecar.
    The label column is named "label".

    The sidecar lands next to the CSV as <stem>.meta.json and carries the
    label mapping, dimension names and anything in extra_meta.
    """
    path = Path(path)
    dim_names = data.dim_names or [f"f{i}" for i in range(data.n_features)]
    label_names = data.label_names or [str(c) for c in range(data.n_classes)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dim_names) + ["label"])
        # csv.writer formats a Python float with str(), its shortest round-trip form
        for row, lab in zip(data.features, data.labels.tolist()):
            writer.writerow(row.tolist() + [label_names[lab]])
    meta = {
        "label_column": "label",
        "label_names": label_names,
        "dim_names": list(dim_names),
        "n_samples": data.n_samples,
        "n_features": data.n_features,
        "n_classes": data.n_classes,
    }
    if extra_meta:
        meta.update(extra_meta)
    sidecar = path.with_suffix(".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return sidecar


def l2_normalize(data: LabeledDataset) -> LabeledDataset:
    """Scale every row to unit Euclidean norm."""
    norms = np.linalg.norm(data.features, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DatasetError(f"row {zero[0]} has zero Euclidean norm")
    return LabeledDataset(
        data.features / norms[:, np.newaxis], data.labels.copy(),
        data.dim_names, data.label_names,
    )


def split(data: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint train/test split, deterministic in the seed.

    Rows are drawn per group: one group per class when stratified, all rows
    when not. Each side keeps at least one row of every group of two or
    more, so proportions hold within one sample.
    """
    rng = np.random.default_rng(spec.seed)
    train = np.zeros(data.n_samples, dtype=bool)
    groups = ([np.flatnonzero(data.labels == c) for c in range(data.n_classes)]
              if spec.stratified else [np.arange(data.n_samples)])
    for c, idx in enumerate(groups):
        if spec.stratified and idx.size < 2:
            raise DatasetError(f"class {c} has only {idx.size} sample(s)")
        perm = rng.permutation(idx)
        k = int(round(spec.train_fraction * idx.size))
        train[perm[:min(max(k, 1), idx.size - 1)]] = True
    # boolean masks keep each side in row order
    return data.subset(train), data.subset(~train)


def synth_sparse(
    n_dims: int,
    n_informative: int,
    classes: int,
    per_class: int,
    noise_sigma: float = 1.0,
    seed: int = 0,
) -> LabeledDataset:
    """Gaussian class clouds whose means differ only in the first
    n_informative coordinates.

    Each class gets offsets sign * magnitude on those coordinates, with
    magnitudes in [4, 8] times the noise scale so the informative support
    is unambiguous; sign patterns are redrawn until pairwise distinct
    when that is possible. All remaining coordinates are zero-mean noise
    shared across classes. Deterministic in the seed.
    """
    if classes < 2 or n_dims < 1 or per_class < 1:
        raise DatasetError(
            f"need classes >= 2, n_dims >= 1, per_class >= 1; "
            f"got {classes}, {n_dims}, {per_class}"
        )
    if not 0 <= n_informative <= n_dims:
        raise DatasetError(f"n_informative must be in 0..{n_dims}, got {n_informative}")
    if not 0 <= noise_sigma < np.inf:
        raise DatasetError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")

    rng = np.random.default_rng(seed)
    base = noise_sigma if noise_sigma > 0 else 1.0
    means = np.zeros((classes, n_dims))
    if n_informative > 0:
        signs = rng.integers(0, 2, size=(classes, n_informative)) * 2 - 1
        if 2**n_informative >= classes:
            for _ in range(1000):
                first = np.unique(signs, axis=0, return_index=True)[1]
                if first.size == classes:
                    break
                # redraw the lowest row that repeats an earlier one
                dup = np.setdiff1d(np.arange(classes), first)[0]
                signs[dup] = rng.integers(0, 2, size=n_informative) * 2 - 1
        means[:, :n_informative] = signs * rng.uniform(4.0, 8.0, size=(classes, n_informative))

    # in place in one array, bit for bit base * means[labels] + sigma * noise (IEEE * and + commute)
    x = rng.standard_normal((classes, per_class, n_dims))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x *= noise_sigma
        x += base * means[:, np.newaxis]
    # a cell whose square overflows makes the distances inf or NaN; min and max
    # take no (N, n) temporary, and a NaN fails the comparison
    limit = math.sqrt(np.finfo(float).max)
    if not max(-x.min(), x.max()) <= limit:
        raise DatasetError(f"noise_sigma {noise_sigma} makes the features overflow: "
                           f"distances need |x| <= {limit:.3g}")
    return LabeledDataset(x.reshape(-1, n_dims), np.repeat(np.arange(classes), per_class))
