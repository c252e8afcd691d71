"""Stochastic-gradient training for GLVQ, GRLVQ and GMLVQ.

One epoch is a pass over a seeded random permutation of the training
samples. Each sample: one difference array D = v - W, winner search from
its distances, one `winner_grads` call on D's two winner rows for both
prototype gradients and the metric's data-term gradient, a step on the
two winning prototypes, then one combined metric step of the data-term
gradient plus reg_weight times the smooth l1 gradient, followed by clamp
(profile case) and renormalization. GLVQ is GRLVQ with the profile frozen at
uniform: it takes no metric step. `run_path` ramps reg_weight linearly
and snapshots the model per step.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import l1smooth, metric
from .dataset import LabeledDataset
from .glvq import (
    PrototypeSet,
    TransferFn,
    class_index_table,
    classifier_mu,
    init_prototypes,
    winners_from_distances,
    xi_factors,
)
from .metric import DimensionMismatch, OmegaMatrix, RelevanceProfile

logger = logging.getLogger(__name__)

MODEL_KINDS = ("glvq", "grlvq", "gmlvq")

DET_WARN_THRESHOLD = 1e-12

# rows per block in distance_matrix; bounds its working memory. At 128 rows
# OpenBLAS (0.3.31) runs both products on one thread, the projection by a
# 20 x 200 Omega included. At 256 rows that projection wakes a second thread
# and a 100,000 x 200 GMLVQ predict slows (41 ms on two threads, 34 ms on
# one, on a 2-core Xeon); a wider Omega still takes that path
DIST_BLOCK_ROWS = 128


class NonFiniteUpdate(RuntimeError):
    """A gradient step produced NaN/Inf; training aborts rather than clips."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"non-finite update at sample step {step}: {detail}")
        self.step = step


@dataclass
class TrainConfig:
    model_kind: str = "grlvq"
    epochs: int = 100
    rate_proto: float = 1e-2
    rate_metric: float = 1e-3
    rate_decay: float = 1e-3
    alpha: float = l1smooth.DEFAULT_ALPHA
    seed: int = 0
    transfer: TransferFn = field(default_factory=TransferFn)
    omega_rows: int = 0  # gmlvq only; 0 means square (m = n)
    protos_per_class: int = 1
    sparsity_threshold: float = 1e-4

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.rate_proto < 0 or self.rate_metric < 0:
            raise ValueError("learning rates must be >= 0")
        if self.rate_decay < 0:
            raise ValueError("rate_decay must be >= 0")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.protos_per_class < 1:
            raise ValueError("protos_per_class must be >= 1")
        if self.omega_rows < 0:
            raise ValueError("omega_rows must be >= 0 (0 = square)")
        if not self.sparsity_threshold > 0:
            raise ValueError("sparsity_threshold must be positive")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        transfer = d.pop("transfer", None)
        cfg = cls(**d)
        if transfer is not None:
            cfg.transfer = TransferFn(**transfer)
        return cfg


@dataclass(frozen=True)
class PathSchedule:
    """Linear ramp of the regularization weight over `steps` plateaus."""

    reg_weight_start: float = 0.0
    reg_weight_end: float = 1.0
    steps: int = 20
    epochs_per_step: int = 10

    def __post_init__(self):
        if self.reg_weight_start < 0:
            raise ValueError("reg_weight_start must be >= 0")
        if self.reg_weight_end < self.reg_weight_start:
            raise ValueError("reg_weight_end must be >= reg_weight_start")
        if self.steps < 1 or self.epochs_per_step < 1:
            raise ValueError("steps and epochs_per_step must be >= 1")

    def weights(self) -> np.ndarray:
        # steps == 1 yields [reg_weight_start]
        return np.linspace(self.reg_weight_start, self.reg_weight_end, self.steps)


@dataclass
class EpochMetrics:
    epoch: int
    train_accuracy: float
    test_accuracy: float
    cost: float
    reg_term: float
    sparsity: float
    reg_weight: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class LVQModel:
    """Labeled prototypes and one metric: `omega` for gmlvq, else `rel`.

    A glvq model holds the uniform profile, filled in here; training
    keeps it frozen and model files leave it out. A kind outside
    MODEL_KINDS, a model carrying the wrong metric for its kind (or
    both), or `label_names` that is not a list naming every prototype
    label raises ValueError; a metric whose width differs from the
    prototypes' raises DimensionMismatch.
    """

    kind: str
    protos: PrototypeSet
    rel: RelevanceProfile | None = None
    omega: OmegaMatrix | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.kind == "glvq" and self.rel is None:
            self.rel = RelevanceProfile.uniform(self.n_features)
        key = "omega" if self.kind == "gmlvq" else "rel"
        if (self.rel is not None and self.omega is not None) or getattr(self, key) is None:
            raise ValueError(f"a {self.kind} model must carry `{key}` and no other metric")
        if self.metric.n_dims != self.n_features:
            raise DimensionMismatch(f"the metric has {self.metric.n_dims} dims, "
                                    f"the prototypes {self.n_features}")
        names = self.label_names
        if names is not None and (not isinstance(names, list)
                                  or self.protos.labels.max() >= len(names)):
            raise ValueError(f"label_names must be a list with an entry for every "
                             f"prototype label, got {names!r}")

    @property
    def n_features(self) -> int:
        return self.protos.n_features

    @property
    def metric(self) -> RelevanceProfile | OmegaMatrix:
        return self.rel if self.omega is None else self.omega

    @metric.setter
    def metric(self, met: RelevanceProfile | OmegaMatrix) -> None:
        if self.omega is None:
            self.rel = met
        else:
            self.omega = met

    def profile(self) -> np.ndarray:
        """Effective per-dimension relevance weights (unit square sum)."""
        return self.metric.profile()

    def dist(self, v, w) -> float:
        """Scalar dissimilarity under the model's current metric."""
        return self.metric.dist(v, w)

    def copy(self) -> "LVQModel":
        return LVQModel(
            self.kind,
            self.protos.copy(),
            RelevanceProfile(self.rel.lam.copy()) if self.rel else None,
            OmegaMatrix(self.omega.omega.copy()) if self.omega else None,
            list(self.label_names) if self.label_names else None,
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_features": self.n_features,
            "protos": self.protos.to_json_dict(),
            "lambda": self.rel.lam.tolist() if self.kind == "grlvq" else None,
            "omega": self.omega.omega.tolist() if self.omega else None,
            "label_names": self.label_names,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LVQModel":
        """Inverse of `to_json_dict`. The constructors check the model; this
        checks the file: ValueError when an entry is missing or of the wrong
        type, `n_features` is not the prototypes' width, `lambda` is present
        other than for grlvq or `omega` other than for gmlvq, or one of them
        holds a non-finite value.
        """
        try:
            kind, n = d["kind"], d["n_features"]
            protos = PrototypeSet.from_json_dict(d["protos"])
            lam = None if d.get("lambda") is None else np.array(d["lambda"], dtype=float)
            om = None if d.get("omega") is None else np.array(d["omega"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model: {type(exc).__name__}: {exc}") from exc
        if type(n) is not int or n != protos.n_features:
            raise ValueError(f"n_features is {n!r}, the prototype vectors have "
                             f"{protos.n_features} columns")
        for key, value, owner in (("lambda", lam, "grlvq"), ("omega", om, "gmlvq")):
            if (value is not None) != (kind == owner):
                raise ValueError(f"a model of kind {kind!r} must "
                                 f"{'' if kind == owner else 'not '}carry `{key}`")
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"`{key}` contains non-finite entries")
        return cls(kind, protos,
                   RelevanceProfile(lam) if lam is not None else None,
                   OmegaMatrix(om) if om is not None else None,
                   d.get("label_names"))


def save_model(model: LVQModel, path) -> None:
    Path(path).write_text(json.dumps(model.to_json_dict()) + "\n")


def load_model(path) -> LVQModel:
    return LVQModel.from_json_dict(json.loads(Path(path).read_text()))


def init_model(data: LabeledDataset, config: TrainConfig,
               rng: np.random.Generator | None = None) -> LVQModel:
    """Prototypes at jittered class means; uniform profile; near-diagonal
    projection. Consumes from `rng` in a fixed order for reproducibility."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    if data.n_classes < 2:
        raise ValueError("training data must contain at least two classes")
    protos = init_prototypes(data, config.protos_per_class, 0.01, rng)
    n = data.n_features
    rel = None
    omega = None
    if config.model_kind == "grlvq":
        rel = RelevanceProfile.uniform(n)
    elif config.model_kind == "gmlvq":
        m = config.omega_rows if config.omega_rows else n
        om = np.eye(m, n) / np.sqrt(n)  # OmegaMatrix rejects m > n
        om += 1e-3 * rng.standard_normal((m, n))
        omega = metric.normalize_omega(OmegaMatrix(om))
    return LVQModel(config.model_kind, protos, rel, omega, data.label_names)


def _dists_to_protos(model: LVQModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The difference rows D = v - W to all prototypes, and their distances."""
    D = v - model.protos.vectors
    return D, model.metric.dists(D)


def distance_matrix(model: LVQModel, X: np.ndarray) -> np.ndarray:
    """(N, M) distances between the rows of X and the prototypes.

    Every metric is a projection P (diag(lambda) or Omega), so
    d(x, w) = ||P x - P w||^2 = ||p||^2 - 2 p.q + ||q||^2. Both sides
    are first centred on the prototype mean, which leaves distances
    unchanged but keeps a large common offset (raw reflectance, say) from
    cancelling in that expansion. Rows are centred, projected and expanded
    DIST_BLOCK_ROWS (128) at a time in one reused buffer, so the memory
    used beyond X and the (N, M) result is one (DIST_BLOCK_ROWS, n) block
    (plus its (DIST_BLOCK_ROWS, m) projection for gmlvq), whatever N is.
    Entries agree with `LVQModel.dist` up to rounding and are clamped at
    zero. N = 0 gives an empty (0, M) result; X must be 2-D.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(
            f"expected a 2-D (samples, features) array, got shape {X.shape}"
        )
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} features, data has {X.shape[1]}"
        )
    W = model.protos.vectors
    met = model.metric
    centre = W.mean(axis=0)
    Q = met.project(W - centre)
    q_sq = np.einsum("ij,ij->i", Q, Q)
    out = np.empty((X.shape[0], W.shape[0]))
    buf = np.empty((min(X.shape[0], DIST_BLOCK_ROWS), X.shape[1]))
    for start in range(0, X.shape[0], DIST_BLOCK_ROWS):
        rows = X[start:start + DIST_BLOCK_ROWS]
        P = met.project(np.subtract(rows, centre, out=buf[:rows.shape[0]]))
        block = out[start:start + DIST_BLOCK_ROWS]
        # BLAS, not einsum's generic loop: at (128, n) x (n, M) OpenBLAS (0.3.31)
        # stays on one thread, so no worker wakes; 4x faster at n = 200, M = 5
        np.matmul(P, Q.T, out=block)
        block *= -2.0
        block += np.einsum("ij,ij->i", P, P)[:, np.newaxis]
        block += q_sq
        np.maximum(block, 0.0, out=block)
    return out


def predict(model: LVQModel, X: np.ndarray) -> np.ndarray:
    """Label of the nearest prototype per row of the 2-D array X.

    Goes through `distance_matrix`, so it runs in that function's bounded
    memory on image-sized inputs. Ties go to the lowest prototype index.
    Distances are exact only up to rounding, so the rule holds for ties
    that rounding preserves: prototypes whose distances differ by less
    than rounding error may be ranked either way.
    """
    d = distance_matrix(model, X)
    return model.protos.labels[np.argmin(d, axis=1)]


def evaluate(model: LVQModel, data: LabeledDataset, pred: np.ndarray | None = None) -> float:
    """Fraction of samples whose nearest prototype (or `pred`) has the right label."""
    pred = predict(model, data.features) if pred is None else pred
    return float(np.mean(pred == data.labels))


def sparsity_of(profile, threshold: float) -> float:
    """Fraction of dimensions with squared relevance below the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return float(np.mean(np.asarray(profile, dtype=float)**2 < threshold))


def dataset_cost(model: LVQModel, data: LabeledDataset, f: TransferFn) -> float:
    """Half the sum of f(mu) over the dataset, computed via the distance matrix."""
    d = distance_matrix(model, data.features)
    m_protos = model.protos.labels[np.newaxis, :] == data.labels[:, np.newaxis]
    d_plus = np.where(m_protos, d, np.inf).min(axis=1)
    d_minus = np.where(~m_protos, d, np.inf).min(axis=1)
    if not np.all(np.isfinite(d_plus)) or not np.all(np.isfinite(d_minus)):
        raise ValueError("some sample has no same-class or no other-class prototype")
    total = d_plus + d_minus
    mu = np.where(total > 0, (d_plus - d_minus) / np.where(total > 0, total, 1.0), 0.0)
    return 0.5 * float(np.sum(f.value(mu)))


def reg_term_of(model: LVQModel, alpha: float) -> float:
    """Smooth l1 regularizer value for the model's metric parameters."""
    return model.metric.penalty(alpha)


def train_epoch(
    model: LVQModel,
    train_data: LabeledDataset,
    config: TrainConfig,
    reg_weight: float,
    rng: np.random.Generator,
    t: int = 0,
    test_data: LabeledDataset | None = None,
) -> EpochMetrics:
    """One stochastic pass; mutates `model` and returns end-of-epoch metrics.

    `t` is the global epoch index driving the 1/(1 + t*decay) rate decay.
    Without a held-out set the test_accuracy field mirrors the training
    accuracy. Samples whose two winner distances are both zero are
    skipped (no usable gradient). The data width and the class table are
    checked before any step; each step checks W and the new metric
    parameters for finiteness once.
    """
    X, y = train_data.features, train_data.labels
    W = model.protos.vectors
    if X.shape[1] != model.n_features or model.metric.n_dims != model.n_features:
        raise DimensionMismatch(f"model has {model.n_features} features and a "
                                f"{model.metric.n_dims}-dim metric, data has {X.shape[1]}")
    table = class_index_table(model.protos.labels, y)
    decay = 1.0 / (1.0 + config.rate_decay * t)
    rate_p = config.rate_proto * decay
    rate_m = 0.0 if model.kind == "glvq" else config.rate_metric * decay  # frozen profile
    f = config.transfer
    alpha = config.alpha

    order = rng.permutation(train_data.n_samples).tolist()
    labels = y.tolist()
    for step, idx in enumerate(order):
        D, dists = _dists_to_protos(model, X[idx])
        ip, im, d_plus, d_minus = winners_from_distances(dists, *table[labels[idx]])
        if d_plus + d_minus == 0.0:
            continue
        mu = classifier_mu(d_plus, d_minus)
        xp, xm = xi_factors(d_plus, d_minus, f, mu)
        met = model.metric

        # all gradients taken at the pre-step state: D is not written below
        G, g_metric = met.winner_grads(D.take((ip, im), axis=0), (xp, xm) if rate_m else None)
        if rate_m and reg_weight:
            g_metric += reg_weight * met.penalty_grad(alpha)

        W[ip] -= rate_p * xp * G[0]
        W[im] -= rate_p * xm * G[1]
        ok = np.isfinite(W).all()

        if ok and rate_m:
            params = met.params - rate_m * g_metric
            ok = np.isfinite(params).all()
            if ok:
                model.metric = met.stepped(params)
        if not ok:
            raise NonFiniteUpdate(
                t * train_data.n_samples + step,
                f"epoch {t}, sample {idx}, reg_weight {reg_weight}, "
                f"rates ({rate_p:g}, {rate_m:g}), d+ {d_plus:g}, d- {d_minus:g}",
            )

    if model.omega is not None:
        det = metric.det_metric(model.omega)
        if det is not None and det < DET_WARN_THRESHOLD:
            logger.warning("metric determinant %.3e below %.1e at epoch %d",
                           det, DET_WARN_THRESHOLD, t)

    train_acc = evaluate(model, train_data)
    test_acc = evaluate(model, test_data) if test_data is not None else train_acc
    return EpochMetrics(
        epoch=t,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        cost=dataset_cost(model, train_data, f),
        reg_term=reg_term_of(model, alpha),
        sparsity=sparsity_of(model.profile(), config.sparsity_threshold),
        reg_weight=float(reg_weight),
    )


EpochCallback = Callable[[LVQModel, EpochMetrics], None]


def train(
    model: LVQModel,
    train_data: LabeledDataset,
    config: TrainConfig,
    reg_weight: float = 0.0,
    *,
    test_data: LabeledDataset | None = None,
    rng: np.random.Generator | None = None,
    epochs: int | None = None,
    t0: int = 0,
    callback: EpochCallback | None = None,
) -> list[EpochMetrics]:
    """Run `epochs` (default config.epochs) at a fixed regularization weight."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    n_epochs = config.epochs if epochs is None else epochs
    out = []
    for e in range(n_epochs):
        m = train_epoch(model, train_data, config, reg_weight, rng, t0 + e, test_data)
        out.append(m)
        if callback:
            callback(model, m)
    return out


def run_path(
    model: LVQModel,
    train_data: LabeledDataset,
    config: TrainConfig,
    schedule: PathSchedule,
    *,
    test_data: LabeledDataset | None = None,
    rng: np.random.Generator | None = None,
    t0: int = 0,
    callback: EpochCallback | None = None,
) -> tuple[list[EpochMetrics], list[LVQModel]]:
    """Ramp reg_weight over the schedule; one model snapshot per step.

    The model is trained in place; snapshots are deep copies taken at the
    end of each plateau. Deterministic given the rng/seed.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    all_metrics: list[EpochMetrics] = []
    snapshots: list[LVQModel] = []
    t = t0
    for w in schedule.weights():
        all_metrics.extend(
            train(model, train_data, config, float(w), test_data=test_data,
                  rng=rng, epochs=schedule.epochs_per_step, t0=t, callback=callback)
        )
        t += schedule.epochs_per_step
        snapshots.append(model.copy())
    return all_metrics, snapshots


def confusion_matrix(model: LVQModel, data: LabeledDataset, pred=None) -> np.ndarray:
    """Counts[true, predicted] over the dataset; `pred` as in `evaluate`."""
    pred = predict(model, data.features) if pred is None else pred
    c = max(data.n_classes, int(model.protos.labels.max()) + 1)
    out = np.zeros((c, c), dtype=int)
    np.add.at(out, (data.labels, pred), 1)
    return out
