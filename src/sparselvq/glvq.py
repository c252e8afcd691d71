"""GLVQ core: labeled prototypes, winner selection from a distance
vector through a per-class index table, the classifier score mu and its
chain-rule factors xi, and prototype initialization. Distances and
gradients come from the metric classes in `metric`; the training step
lives in `trainer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import LabeledDataset, _check_numbers


@dataclass
class PrototypeSet:
    """Labeled reference vectors; classification = label of the nearest one."""

    vectors: np.ndarray  # (M, n)
    labels: np.ndarray  # (M,) int

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.vectors.ndim != 2 or 0 in self.vectors.shape:
            raise ValueError(f"prototype vectors must be a nonempty 2-D array, "
                             f"got shape {self.vectors.shape}")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ValueError(
                f"{self.vectors.shape[0]} prototypes but {self.labels.size} labels"
            )
        if self.labels.min() < 0:
            raise ValueError(f"prototype labels must be nonnegative, got {self.labels}")

    @property
    def n_protos(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_features(self) -> int:
        return self.vectors.shape[1]

    def copy(self) -> "PrototypeSet":
        return PrototypeSet(self.vectors.copy(), self.labels.copy())


@dataclass(frozen=True)
class TransferFn:
    """Monotone squashing of the classifier score: identity or sigmoid."""

    kind: str = "identity"
    slope: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "sigmoid"):
            raise ValueError(f"unknown transfer kind {self.kind!r}")
        if self.kind == "identity" and self.slope != 1.0:
            raise ValueError(f"identity transfer takes no slope, got {self.slope!r}")
        _check_numbers(self)  # a bool or a string slope, or one not finite and >= 0
        if not self.slope > 0:
            raise ValueError(f"sigmoid slope must be positive, got {self.slope!r}")

    def value(self, x):
        if self.kind == "identity":
            return x
        # 0.5*(1+tanh(z/2)) is the logistic function, stable for any z
        return 0.5 * (1.0 + np.tanh(0.5 * self.slope * np.asarray(x, dtype=float)))

    def deriv(self, x):
        if self.kind == "identity":
            return 1.0
        s = self.value(x)
        return self.slope * s * (1.0 - s)


class WinnerPair(NamedTuple):
    idx_plus: int
    idx_minus: int
    d_plus: float
    d_minus: float


def class_index_table(proto_labels, labels) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Ascending same-class and other-class prototype indices per class in `labels`;
    built once per training pass, so an uncovered class fails before any step."""
    table = {}
    for c in np.unique(labels).tolist():
        same = np.asarray(proto_labels) == c
        if not same.any():
            raise ValueError(f"no prototype carries class {c}")
        if same.all():
            raise ValueError(f"all prototypes carry class {c}")
        table[c] = (np.flatnonzero(same), np.flatnonzero(~same))
    return table


def winners_from_distances(dists, same_idx, other_idx) -> WinnerPair:
    """Best same-class and best other-class prototype, searched over one
    `class_index_table` entry (the step passes it as two lists); ties break
    toward the lowest index. A NaN distance wins its group, as under argmin,
    so the step that meets it fails instead of training on a finite winner."""
    d = dists.tolist()
    key = d.__getitem__
    if math.isnan(sum(d)):  # min passes over a NaN: rank the first one lowest
        key = lambda k: (d[k] == d[k], d[k])  # noqa: E731
    ip = min(same_idx, key=key)
    im = min(other_idx, key=key)
    return WinnerPair(ip, im, d[ip], d[im])


def classifier_mu(d_plus, d_minus):
    """Normalized winner-distance difference in [-1, 1]; negative means correct.

    Takes floats (the SGD step) or arrays (the epoch cost), elementwise.
    Both distances zero is an undecided tie and maps to 0, with no division by zero.
    """
    total = d_plus + d_minus
    return (d_plus - d_minus) / (total + (total == 0.0))


def xi_factors(d_plus: float, d_minus: float, f: TransferFn) -> tuple[float, float]:
    """Scalar chain-rule factors of f(mu) w.r.t. the two winner distances,
    with mu = classifier_mu(d_plus, d_minus); the caller skips the tie
    d_plus = d_minus = 0, where they are undefined.

    xi_plus = f'(mu) * 2*d_minus / (d_plus + d_minus)^2 >= 0,
    xi_minus = -f'(mu) * 2*d_plus / (d_plus + d_minus)^2 <= 0,
    taken as common * (d_minus / total) with common = 2 f'(mu) / total, so
    that no square of the total overflows (or underflows to zero).
    """
    total = d_plus + d_minus
    common = 2.0 * float(f.deriv(classifier_mu(d_plus, d_minus))) / total
    return common * (d_minus / total), -common * (d_plus / total)


INIT_JITTER = 0.01  # prototype start noise, as a fraction of each dimension's std


def init_prototypes(data: LabeledDataset, per_class: int, rng: np.random.Generator) -> PrototypeSet:
    """`per_class` prototypes per class, each at the class mean plus Gaussian
    jitter of INIT_JITTER times the per-dimension std, from one draw of
    shape (classes * per_class, n) taken in prototype order."""
    means = []
    for c in range(data.n_classes):
        rows = data.features[data.labels == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no samples to initialize from")
        means.append(rows.mean(axis=0))
    scale = INIT_JITTER * data.features.std(axis=0)
    noise = rng.standard_normal((data.n_classes * per_class, data.n_features))
    vectors = np.repeat(means, per_class, axis=0) + scale * noise
    return PrototypeSet(vectors, np.repeat(np.arange(data.n_classes), per_class))
