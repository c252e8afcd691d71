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
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import l1smooth, metric
from .dataset import LabeledDataset, _check_label_names, _check_numbers
from .glvq import (
    PrototypeSet,
    TransferFn,
    class_index_table,
    classifier_mu,
    init_prototypes,
    winners_from_distances,
    xi_factors,
)
from .metric import OmegaMatrix, RelevanceProfile

logger = logging.getLogger(__name__)

MODEL_KINDS = ("glvq", "grlvq", "gmlvq")

DET_WARN_THRESHOLD = 1e-12

# rows per block in distance_matrix and predict; bounds their working memory.
# At 256 rows OpenBLAS (0.3.31) wakes a second thread for distance_matrix's
# projection by a 20 x 200 Omega, and predict, still on one thread, slows:
# 55-61 ms against 45-46 ms at 128 rows for 100,000 x 200 rows and 5
# prototypes, GRLVQ and GMLVQ alike (medians of 15 calls, 2-core Xeon)
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
        _check_numbers(self)
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.omega_rows and self.model_kind != "gmlvq":
            raise ValueError(f"omega_rows applies only to gmlvq, not {self.model_kind}")
        if self.epochs < 1 or self.protos_per_class < 1:
            raise ValueError("epochs and protos_per_class must be >= 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.sparsity_threshold > 0:
            raise ValueError("sparsity_threshold must be positive")


@dataclass(frozen=True)
class PathSchedule:
    """Linear ramp of the regularization weight over `steps` plateaus."""

    reg_weight_start: float = 0.0
    reg_weight_end: float = 1.0
    steps: int = 20
    epochs_per_step: int = 10

    def __post_init__(self):
        _check_numbers(self)
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
    test_accuracy: float | None  # None without a held-out set
    cost: float
    reg_term: float
    sparsity: float
    reg_weight: float


@dataclass
class LVQModel:
    """Labeled prototypes and one metric: an OmegaMatrix for gmlvq, else a
    RelevanceProfile.

    A glvq model holds the uniform profile, which it gets here when built
    without a metric; training keeps it frozen and model files leave it out.
    A kind outside MODEL_KINDS, a metric of the wrong class for the kind or
    not as wide as the prototypes, a non-finite prototype or metric entry,
    another glvq profile, or `label_names` that is not a list of distinct
    non-empty strings naming every prototype label raises ValueError.
    """

    kind: str
    protos: PrototypeSet
    metric: RelevanceProfile | OmegaMatrix | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        if self.kind == "glvq" and self.metric is None:
            self.metric = RelevanceProfile.uniform(self.n_features)
        self.check()

    def check(self) -> None:
        """The class docstring's checks; rerun by `train_epoch`, as `metric` may be reassigned."""
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        want = OmegaMatrix if self.kind == "gmlvq" else RelevanceProfile
        if not isinstance(self.metric, want):
            raise ValueError(f"the metric of a {self.kind} model must be a "
                             f"{want.__name__}, got {type(self.metric).__name__}")
        n = self.n_features
        if self.metric.n_dims != n:
            raise ValueError(f"the metric has {self.metric.n_dims} dims, the prototypes {n}")
        if not (np.isfinite(self.protos.vectors).all() and np.isfinite(self.metric.params).all()):
            raise ValueError("the prototype vectors and the metric must be finite")
        if self.kind == "glvq" and not np.array_equal(self.metric.lam, RelevanceProfile.uniform(n).lam):
            raise ValueError("a glvq model's profile must be the uniform one its model file implies")
        _check_label_names(self.label_names, self.protos.labels)

    @property
    def n_features(self) -> int:
        return self.protos.n_features

    @property
    def rel(self) -> RelevanceProfile | None:
        """The metric of a glvq or grlvq model; None for gmlvq."""
        return None if self.kind == "gmlvq" else self.metric

    @property
    def omega(self) -> OmegaMatrix | None:
        """The metric of a gmlvq model; None for the other kinds."""
        return self.metric if self.kind == "gmlvq" else None

    def dist(self, v, w) -> float:
        """Scalar dissimilarity under the model's current metric."""
        return self.metric.dist(v, w)

    def copy(self) -> "LVQModel":
        return LVQModel(
            self.kind,
            self.protos.copy(),
            type(self.metric)(self.metric.params.copy()),
            list(self.label_names) if self.label_names else None,
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_features": self.n_features,
            "protos": {"labels": self.protos.labels.tolist(),
                       "vectors": self.protos.vectors.tolist()},
            "lambda": self.metric.lam.tolist() if self.kind == "grlvq" else None,
            "omega": self.metric.omega.tolist() if self.kind == "gmlvq" else None,
            "label_names": self.label_names,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LVQModel":
        """Inverse of `to_json_dict`. The constructors check the model; this
        checks the file: ValueError when an entry is missing or of the wrong
        type (labels JSON integers; vectors, `lambda` and `omega` JSON
        numbers; no bools), `n_features` is not the prototypes' width, or
        `lambda` is present other than for grlvq or `omega` other than for gmlvq.
        """
        try:
            kind, n, p = d["kind"], d["n_features"], d["protos"]
            protos = PrototypeSet(_entries(p["vectors"], "vectors"),
                                  _entries(p["labels"], "labels", int))
            met = None  # a glvq model gets its uniform profile in the constructor
            for key, owner, wrap in (("lambda", "grlvq", RelevanceProfile),
                                     ("omega", "gmlvq", OmegaMatrix)):
                if (d.get(key) is not None) != (kind == owner):
                    raise ValueError(f"a model of kind {kind!r} must "
                                     f"{'' if kind == owner else 'not '}carry `{key}`")
                if kind == owner:
                    met = wrap(_entries(d[key], key))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed model: {type(exc).__name__}: {exc}") from exc
        if type(n) is not int or n != protos.n_features:
            raise ValueError(f"n_features is {n!r}, the prototype vectors have "
                             f"{protos.n_features} columns")
        return cls(kind, protos, met, d.get("label_names"))


def _entries(value, key: str, dtype=float) -> np.ndarray:
    """A model-file list of numbers, or of lists of them, as an array;
    ValueError unless each is a JSON number (an integer for int)."""
    leaves = chain.from_iterable(v if type(v) is list else (v,) for v in value)
    if not set(map(type, leaves)) <= {int, dtype}:  # bool is its own type
        raise ValueError(f"`{key}` must hold JSON {'integers' if dtype is int else 'numbers'}")
    return np.array(value, dtype=dtype)


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
    protos = init_prototypes(data, config.protos_per_class, rng)
    n = data.n_features
    if config.model_kind == "gmlvq":
        m = config.omega_rows if config.omega_rows else n
        om = np.eye(m, n) / np.sqrt(n)  # OmegaMatrix rejects m > n
        om += 1e-3 * rng.standard_normal((m, n))
        met = metric.normalize_omega(OmegaMatrix(om))
    else:
        met = RelevanceProfile.uniform(n)
    return LVQModel(config.model_kind, protos, met, data.label_names)


def _dists_to_protos(model: LVQModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The difference rows D = v - W to all prototypes, and their distances."""
    D = v - model.protos.vectors
    return D, model.metric.dists(D)


def _score_blocks(model: LVQModel, X):
    """Centred rows and nearest-prototype scores, DIST_BLOCK_ROWS rows at a time.

    With rows and prototypes centred on the prototype mean (so a large
    common offset does not cancel), d(x, w_k) = |P x|^2 + s_k for the
    projection P (diag(lambda) or Omega) and the score s_k = x . g_k +
    |P w_k|^2, where g_k = -2 P^T P w_k is the metric's prototype gradient.
    Coinciding prototypes share one score column. Returns (first, column,
    blocks): each column's first prototype, in index order; each
    prototype's column; and an iterator of (row slice, centred rows,
    scores) over X that reuses its buffers. ValueError unless X is a 2-D
    array as wide as the model, and at the first row whose score is not finite;
    callers silence numpy's overflow and invalid warnings once around their
    loop over the blocks, so such a row gives that error alone.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(
            f"expected a 2-D (samples, features) array, got shape {X.shape}"
        )
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, data has {X.shape[1]}"
        )
    W = model.protos.vectors
    centre = W.mean(axis=0)
    # BLAS may round two equal columns of a product differently: one column per
    # distinct row (as raw bytes), numbered by first appearance, so in index order
    seen: dict[bytes, int] = {}
    column = np.array([seen.setdefault(w.tobytes(), len(seen)) for w in W])
    first = np.unique(column, return_index=True)[1]
    Wc = W[first] - centre
    G = model.metric.winner_grads(Wc, None)[0]
    q = model.metric.dists(Wc)
    buf = np.empty((min(X.shape[0], DIST_BLOCK_ROWS), X.shape[1]))
    scores = np.empty((buf.shape[0], q.size))

    def blocks():
        for start in range(0, X.shape[0], DIST_BLOCK_ROWS):
            rows = slice(start, min(start + DIST_BLOCK_ROWS, X.shape[0]))
            C = np.subtract(X[rows], centre, out=buf[:rows.stop - start])
            s = scores[:C.shape[0]]
            # BLAS: at (128, n) x (n, M) OpenBLAS (0.3.31) stays on one thread
            np.matmul(C, G.T, out=s)
            s += q
            if not np.isfinite(s).all():  # a NaN or inf cell (also where g is 0), or an overflow
                raise ValueError(f"row {start + np.isfinite(s).all(1).argmin()} gives a non-finite score")
            yield rows, C, s

    return first, column, blocks()


def distance_matrix(model: LVQModel, X: np.ndarray) -> np.ndarray:
    """(N, M) distances between the rows of X and the prototypes.

    Per block of `_score_blocks`, each prototype's score column plus |P x|^2,
    clamped at zero, so the memory used beyond X and the result is one
    (DIST_BLOCK_ROWS, n) block. |P x|^2 leaves out the metric's
    `unused_dims`, however large their cells, as the scores do; ValueError
    names the first row whose distances are still not finite. Entries agree
    with `LVQModel.dist` up to rounding. Coinciding prototypes get equal
    columns, so an argmin gives their rows to the lower index, as in
    `predict`. N = 0 gives an empty (0, M) result; X must be 2-D. The epoch
    metrics read it.
    """
    _, column, blocks = _score_blocks(model, X)
    unused = model.metric.unused_dims()
    out = np.empty((len(X), column.size))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row raises instead
        for rows, C, scores in blocks:
            C[:, unused] = 0.0
            block = out[rows]
            np.take(scores, column, axis=1, out=block)
            block += model.metric.dists(C)[:, np.newaxis]
            if not np.isfinite(block).all():
                raise ValueError(f"row {rows.start + np.isfinite(block).all(1).argmin()} "
                                 f"gives a non-finite distance")
            np.maximum(block, 0.0, out=block)
    return out


def predict(model: LVQModel, X: np.ndarray) -> np.ndarray:
    """Label of the nearest prototype per row of the 2-D array X.

    The argmin of `_score_blocks`' scores: |P x|^2 is the same for every
    prototype, so X is not projected and no (N, M) distance matrix is
    built. Coinciding prototypes are scored once, so the lowest index wins
    their ties; other ties go to the lowest index as far as rounding
    preserves them.
    """
    first, _, blocks = _score_blocks(model, X)
    idx = np.empty(len(X), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises instead
        for rows, _, scores in blocks:
            np.argmin(scores, axis=1, out=idx[rows])
    return model.protos.labels[first][idx]


def evaluate(model: LVQModel, data: LabeledDataset, pred: np.ndarray | None = None) -> float:
    """Fraction of samples whose nearest prototype (or `pred`) has the right label.

    Without `pred` the nearest prototype is the argmin of `distance_matrix`,
    which the epoch cost reads too. Its distances are `predict`'s scores plus
    |P x|^2, so the two agree on coinciding prototypes (the lower index
    wins) and elsewhere up to ties within rounding.
    """
    if pred is None:
        pred = model.protos.labels[np.argmin(distance_matrix(model, data.features), axis=1)]
    return float(np.mean(pred == data.labels))


def sparsity_of(profile, threshold: float) -> float:
    """Fraction of dimensions with squared relevance below the threshold."""
    if not threshold > 0:  # NaN too
        raise ValueError("threshold must be positive")
    return float(np.mean(np.asarray(profile, dtype=float)**2 < threshold))


def dataset_cost(model: LVQModel, data: LabeledDataset, f: TransferFn) -> float:
    """Half the sum of f(mu) over the dataset: one `distance_matrix`, searched as the
    SGD step searches (`class_index_table`, its ValueErrors too), scored by `classifier_mu`."""
    d = distance_matrix(model, data.features)
    d_plus, d_minus = np.empty(len(d)), np.empty(len(d))
    for c, (same, other) in class_index_table(model.protos.labels, data.labels).items():
        rows = data.labels == c
        d_plus[rows] = d[rows][:, same].min(axis=1)
        d_minus[rows] = d[rows][:, other].min(axis=1)
    return 0.5 * float(np.sum(f.value(classifier_mu(d_plus, d_minus))))


def reg_term_of(model: LVQModel, alpha: float) -> float:
    """Smooth l1 regularizer value for the model's metric parameters."""
    return model.metric.penalty(alpha)


def _all_finite(a: np.ndarray) -> bool:
    """No NaN or inf in a: a finite sum clears every entry without a mask,
    and a sum that finite entries overflowed falls back to the scan."""
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


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
    Without a held-out set test_accuracy is None. Samples whose two winner
    distances are both zero are skipped (no usable gradient). The model, both
    data sets' widths and the class table are checked before any step; each
    step checks W and the new metric parameters for finiteness once.
    """
    X, y = train_data.features, train_data.labels
    W = model.protos.vectors
    model.check()
    for data in (train_data, train_data if test_data is None else test_data):
        if data.n_features != model.n_features:
            raise ValueError(f"model has {model.n_features} features, data has {data.n_features}")
    table = {c: (same.tolist(), other.tolist())  # lists: the winner search reads them per step
             for c, (same, other) in class_index_table(model.protos.labels, y).items()}
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
        xp, xm = xi_factors(d_plus, d_minus, f)
        met = model.metric

        # all gradients taken at the pre-step state: D is not written below
        G, g_metric = met.winner_grads(D.take((ip, im), axis=0), (xp, xm) if rate_m else None)
        if rate_m and reg_weight:
            g_metric += reg_weight * met.penalty_grad(alpha)

        wp, wm = W[ip], W[im]  # views: -= on W[ip] would copy the row back into W
        wp -= rate_p * xp * G[0]
        wm -= rate_p * xm * G[1]
        ok = _all_finite(W)

        if ok and rate_m:
            g_metric *= -rate_m  # in place on the step's own array: params - rate_m * g
            g_metric += met.params
            ok = _all_finite(g_metric)
            if ok:
                model.metric = met.stepped(g_metric)
        if not ok:
            raise NonFiniteUpdate(
                t * train_data.n_samples + step,
                f"epoch {t}, sample {idx}, reg_weight {reg_weight}, "
                f"rates ({rate_p:g}, {rate_m:g}), d+ {d_plus:g}, d- {d_minus:g}",
            )

    if isinstance(model.metric, OmegaMatrix):
        det = metric.det_metric(model.metric)
        if det is not None and det < DET_WARN_THRESHOLD:
            logger.warning("metric determinant %.3e below %.1e at epoch %d",
                           det, DET_WARN_THRESHOLD, t)

    train_acc = evaluate(model, train_data)
    test_acc = evaluate(model, test_data) if test_data is not None else None
    return EpochMetrics(
        epoch=t,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        cost=dataset_cost(model, train_data, f),
        reg_term=reg_term_of(model, alpha),
        sparsity=sparsity_of(model.metric.profile(), config.sparsity_threshold),
        reg_weight=float(reg_weight),
    )


def train(
    model: LVQModel,
    train_data: LabeledDataset,
    config: TrainConfig,
    *,
    test_data: LabeledDataset | None = None,
    rng: np.random.Generator,
) -> list[EpochMetrics]:
    """Unregularized pretraining: config.epochs epochs at weight 0, from t = 0."""
    return [train_epoch(model, train_data, config, 0.0, rng, t, test_data)
            for t in range(config.epochs)]


def run_path(
    model: LVQModel,
    train_data: LabeledDataset,
    config: TrainConfig,
    schedule: PathSchedule,
    *,
    test_data: LabeledDataset | None = None,
    rng: np.random.Generator,
) -> tuple[list[EpochMetrics], list[LVQModel]]:
    """Ramp reg_weight over the schedule; one model snapshot per step.

    Continues `train` on the same rng: epochs are numbered on from
    config.epochs, so the rate decay goes on from pretraining. The model
    is trained in place; snapshots are deep copies taken at the end of
    each plateau.
    """
    all_metrics: list[EpochMetrics] = []
    snapshots: list[LVQModel] = []
    for k, w in enumerate(schedule.weights()):
        t = config.epochs + k * schedule.epochs_per_step
        all_metrics += [train_epoch(model, train_data, config, float(w), rng, t + e, test_data)
                        for e in range(schedule.epochs_per_step)]
        snapshots.append(model.copy())
    return all_metrics, snapshots


def confusion_matrix(model: LVQModel, data: LabeledDataset, pred: np.ndarray) -> np.ndarray:
    """Counts[true, predicted] over the dataset, `pred` holding `predict`'s labels."""
    c = max(data.n_classes, int(model.protos.labels.max()) + 1)
    out = np.zeros((c, c), dtype=int)
    np.add.at(out, (data.labels, pred), 1)
    return out
