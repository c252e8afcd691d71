"""Reference CSV loader: the per-cell Python loop that ``load_csv`` replaced.

Every row goes through ``csv.reader`` and every number through ``float``,
one cell at a time. It is slow but plain, so it serves as the oracle that
the C-reader loader must match cell for cell. The one intended difference:
``float`` takes ``_`` as a digit separator (``1_0`` is 10.0 here), while
``load_csv`` refuses such a cell as numpy's reader does. Both skip a
leading byte-order mark and refuse an empty label cell.
"""

import csv
import math

import numpy as np

from sparselvq.dataset import (
    EmptyFile,
    LabeledDataset,
    MalformedCell,
    MissingLabelColumn,
    NonFiniteValue,
)


def load_csv_per_cell(path, label_column: str) -> LabeledDataset:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise EmptyFile(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if label_column not in header:
        raise MissingLabelColumn(
            f"no column named {label_column!r}; header is {header}"
        )
    label_idx = header.index(label_column)
    data_rows = rows[1:]
    if not data_rows:
        raise EmptyFile(f"{path} has a header but no data rows")

    n = len(header) - 1
    features = np.empty((len(data_rows), n))
    raw_labels = []
    for i, row in enumerate(data_rows):
        if len(row) != len(header):
            raise MalformedCell(i, len(row), f"expected {len(header)} cells, got {len(row)}")
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                if not cell.strip():
                    raise MalformedCell(i, j, "empty label cell")
                raw_labels.append(cell.strip())
                continue
            try:
                value = float(cell)
            except ValueError:
                raise MalformedCell(i, j, f"cannot parse {cell!r} as a number") from None
            if not math.isfinite(value):
                raise NonFiniteValue(i, j)
            features[i, k] = value
            k += 1

    mapping: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=int)
    for i, raw in enumerate(raw_labels):
        if raw not in mapping:
            mapping[raw] = len(mapping)
        labels[i] = mapping[raw]

    dim_names = [h for j, h in enumerate(header) if j != label_idx]
    return LabeledDataset(features, labels, dim_names, list(mapping))
