"""Parametrized dissimilarities and their gradients.

Two families: a per-dimension weighting (relevance profile, projection
diag(lam)) and a full linear projection (m x n matrix, metric = O^T O).
Both project a difference row, then square it, and take their gradients
from that projection.
Each class owns its maths: distances (one pair, or one sample against
many prototypes), the gradients, the smooth l1 penalty and the
clamp/normalize step. The methods reach the module functions below and
`l1smooth` by global lookup, so those stay the single implementation.
Their products are `np.dot`: the BLAS call `@` makes, with less dispatch
per SGD step.
`winner_grads` takes the two winners' difference rows `v - w` unchecked
(the training step holds them) and returns both prototype gradients and
the xi-weighted data gradient of the metric parameters in one call;
`dist(v, w)` checks two raw vectors against the metric.
Distance and gradient evaluations are pure; `stepped` and the
clamp/normalize functions return new wrapper objects and are meant to
run inside the single-threaded training step. `stepped` owns the step's
one finiteness check on the new parameters: the normalization refuses a
squared norm that is not finite, which a NaN or inf entry or an overflow
gives, and the profile first refuses a NaN or -inf that its clamp would
hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import l1smooth


@dataclass
class RelevanceProfile:
    """Per-dimension relevance weights; lam[i]**2 are the diagonal metric entries."""

    lam: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if self.lam.ndim != 1:
            raise ValueError(f"relevance profile must be 1-D, got shape {self.lam.shape}")

    @classmethod
    def uniform(cls, n_dims: int) -> "RelevanceProfile":
        return cls(np.full(n_dims, 1.0 / np.sqrt(n_dims)))

    @property
    def n_dims(self) -> int:
        return self.lam.size

    @property
    def params(self) -> np.ndarray:
        return self.lam

    def profile(self) -> np.ndarray:
        """Effective per-dimension relevance weights (unit square sum)."""
        return self.lam

    def dists(self, diff: np.ndarray) -> np.ndarray:
        """||lam * diff||^2 for each row of an (M, n) difference array."""
        p = diff * self.lam
        return np.einsum("ij,ij->i", p, p)

    def dist(self, v, w) -> float:
        return float(self.dists(_delta(v, w, self)[np.newaxis])[0])

    def winner_grads(self, D2: np.ndarray, xi) -> tuple[np.ndarray, np.ndarray | None]:
        """d dist / d w for each row of the difference block D2, and for
        the step's two winner rows xi[0] * d dist(D2[0]) / d lam +
        xi[1] * d dist(D2[1]) / d lam, or None for xi None. Both read one
        projection P2 = D2 * lam."""
        P2 = D2 * self.lam
        G = grad_proto_lambda(P2, self)
        return G, None if xi is None else grad_lambda(P2, D2, xi)

    def penalty(self, alpha: float) -> float:
        """Smooth l1 norm of lam. Its gradient shrinks small weights toward
        zero by a factor per step; the clamp in `stepped` zeroes only an
        overshoot, so sparsity counts weights below a threshold."""
        return l1smooth.l1_smooth(self.lam, alpha)

    def penalty_grad(self, alpha: float) -> np.ndarray:
        return l1smooth.abs_smooth_grad(self.lam, alpha)

    def stepped(self, params) -> "RelevanceProfile":
        """The profile `params`, clamped at zero and normalized. ValueError
        on a NaN or -inf (checked first: the clamp would turn -inf into 0),
        or where normalize_lambda refuses the clamped profile."""
        rel = RelevanceProfile(params)
        if not np.minimum.reduce(rel.lam) > -math.inf:  # NaN compares False too
            raise ValueError("relevance profile has a NaN or -inf entry")
        return normalize_lambda(clamp_lambda(rel))


@dataclass
class OmegaMatrix:
    """Projection matrix (rows m <= columns n) defining the metric O^T O."""

    omega: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        if self.omega.ndim != 2:
            raise ValueError(f"projection must be 2-D, got shape {self.omega.shape}")
        m, n = self.omega.shape
        if not 1 <= m <= n:
            raise ValueError(f"projection must have 1 <= rows <= columns, got {m}x{n}")

    @property
    def n_dims(self) -> int:
        return self.omega.shape[1]

    @property
    def params(self) -> np.ndarray:
        return self.omega

    def profile(self) -> np.ndarray:
        """Column norms of Omega: the per-dimension relevance weights."""
        return np.sqrt(np.sum(self.omega**2, axis=0))

    def dists(self, diff: np.ndarray) -> np.ndarray:
        """||O diff||^2 for each row of an (M, n) difference array."""
        p = np.dot(diff, self.omega.T)  # (M, m)
        return np.einsum("ij,ij->i", p, p)

    def dist(self, v, w) -> float:
        return float(self.dists(_delta(v, w, self)[np.newaxis])[0])

    def winner_grads(self, D2: np.ndarray, xi) -> tuple[np.ndarray, np.ndarray | None]:
        """d dist / d w for each row of the difference block D2, and for
        the step's two winner rows xi[0] * d dist(D2[0]) / d O +
        xi[1] * d dist(D2[1]) / d O, or None for xi None. Both read one
        projection P2 = D2 O^T."""
        P2 = np.dot(D2, self.omega.T)
        G = grad_proto_omega(P2, self)
        return G, None if xi is None else grad_omega(P2, D2, xi)

    def penalty(self, alpha: float) -> float:
        """Smooth max-column-sum norm of O. Under the unit Frobenius norm
        it is lowest when the columns are equal, at any alpha, so it shrinks
        the largest columns, spreads the mass and zeroes none; there is no
        clamp. On the acceptance data (m = 20, 20 pretrain epochs, then a
        ramp to weight 0.3 over 10 epochs) the true dimensions keep 0.80-0.82
        of the mass at alpha 5, as at weight 0; at alpha 50 they end at
        0.57-0.59, and the max/median column sum of |O| falls from 12-15
        to about 4."""
        return l1smooth.matrix_l1_smooth(self.omega, alpha)

    def penalty_grad(self, alpha: float) -> np.ndarray:
        return l1smooth.matrix_l1_smooth_grad(self.omega, alpha)

    def stepped(self, params) -> "OmegaMatrix":
        """The projection `params`, normalized; ValueError where
        normalize_omega refuses it."""
        return normalize_omega(OmegaMatrix(params))


def _delta(v, w, met: RelevanceProfile | OmegaMatrix) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"vector shapes differ: {v.shape} vs {w.shape}")
    if v.shape != (met.n_dims,):
        raise ValueError(f"metric has {met.n_dims} dims, vectors have shape {v.shape}")
    return v - w


def grad_proto_lambda(P: np.ndarray, rel: RelevanceProfile) -> np.ndarray:
    """d dist / d w for each row delta of D, from P = D * lam: -2 * lam * P."""
    return -2.0 * rel.lam * P


def grad_proto_omega(P: np.ndarray, om: OmegaMatrix) -> np.ndarray:
    """d dist / d w for each row of D, from its projection P = D O^T:
    -2 * O^T O delta per row, i.e. -2 * P O, scaled on the small factor P."""
    return np.dot(-2.0 * P, om.omega)


def grad_lambda(P: np.ndarray, D: np.ndarray, xi) -> np.ndarray:
    """xi[0] * g(D[0]) + xi[1] * g(D[1]) at the two rows delta of D, from
    P = D * lam: g_j = d dist / d lam_j = 2 * [lam * delta]_j * delta_j."""
    r = 2.0 * P * D
    return xi[0] * r[0] + xi[1] * r[1]


def grad_omega(P: np.ndarray, D: np.ndarray, xi) -> np.ndarray:
    """xi[0] * g(D[0]) + xi[1] * g(D[1]) at the two rows delta of D, from
    P = D O^T: g_rc = d dist / d O_rc = 2 * [O delta]_r * delta_c, so the sum
    is (2 xi P)^T D, one rank-2 product scaled on its small (2, m) factor."""
    return np.dot(P.T * (2.0 * xi[0], 2.0 * xi[1]), D)


def _norm(x: np.ndarray, what: str) -> float:
    """np.linalg.norm(x) bit for bit (`vdot` is its dot product, without the
    dispatch or an overflow warning); ValueError if x is all zero or the
    squared norm is not finite: a NaN or inf entry, or an overflow."""
    x = x.ravel("K")
    sq = np.vdot(x, x)
    if sq == 0.0:
        raise ValueError(f"{what} is all zero")
    if not math.isfinite(sq):
        raise ValueError(f"{what} has a NaN or inf entry, or its squared norm overflows")
    return math.sqrt(sq)


def normalize_lambda(rel: RelevanceProfile) -> RelevanceProfile:
    """Rescale so that sum(lam_i^2) = 1; direction preserved. ValueError
    as `_norm` gives it."""
    return RelevanceProfile(rel.lam / _norm(rel.lam, "relevance profile"))


def normalize_omega(om: OmegaMatrix) -> OmegaMatrix:
    """Rescale so that the sum of squared entries (Frobenius norm sq.) is 1.
    ValueError as `_norm` gives it."""
    return OmegaMatrix(om.omega / _norm(om.omega, "projection matrix"))


def clamp_lambda(rel: RelevanceProfile) -> RelevanceProfile:
    """Zero out negative components (applied before normalize_lambda, which
    refuses a profile that this leaves all zero)."""
    return RelevanceProfile(np.maximum(rel.lam, 0.0))


def det_metric(om: OmegaMatrix) -> float | None:
    """det(O^T O) for square projections; None when m < n (structurally singular).

    Training monitors this and warns below 1e-12 instead of projecting.
    """
    if om.omega.shape[0] != om.n_dims:
        return None
    d = float(np.linalg.det(om.omega))
    return d * d
