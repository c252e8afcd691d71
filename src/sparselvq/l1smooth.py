"""Differentiable surrogates for the absolute value, the vector l1 norm and
the max-column-sum matrix norm, together with the exact max-column-sum
norm and the norm sandwich built on it.

The surrogate of |x| is (1/a) * log(2 + exp(-a*x) + exp(a*x)) for a
sharpness parameter a > 0. It overestimates |x| by at most 2*log(2)/a and
has the closed-form derivative tanh(a*x/2). The matrix norm surrogate
replaces the exact max over column sums by a left-to-right fold of a
smooth two-argument max. That max is (1/a) * log(exp(a*x) + exp(a*y)), so
it is associative and the fold's value v is (1/a) * logsumexp(a * sums).
The gradient is softmax(a * sums)[c] * tanh(a*O/2), and the softmax is
read off the fold's value as exp(a * (sums - v)). The fold stays a
column-by-column loop because perfbench pins its count of abs_smooth
calls per penalty step (one per column). Its merges each take one pair of
floats, so abs_smooth evaluates a Python float with the math module's
functions, bound at import: numpy's per-call dispatch on one scalar costs
more than the arithmetic.
Each public function checks alpha once per call: the fold hands its
merges the checked Python float, which abs_smooth takes without a second
check. The array kernels (abs_smooth and abs_smooth_grad on an array,
the matrix gradient) build their result in one buffer, in the order of
the plain expression, so they match it bit for bit.

For a|x| well below 2 the surrogate is close to the quadratic
2*log(2)/a + a*x**2/4, so on small parameters it acts like a ridge term:
by itself it shrinks weights but does not make them exactly zero. Nor
does training: near zero the profile's data gradient and the penalty
gradient are both proportional to the weight, so each step scales it by
a factor close to 1, and the trainer's clamp at zero fires only when one
step overshoots. Sparsity is reported as the share of squared weights
below a threshold. The matrix norm leaves Omega's columns nonzero.

All functions are pure and operate on plain floats or numpy arrays.
"""

from __future__ import annotations

from math import exp, inf, isfinite, log1p
from typing import NamedTuple

import numpy as np

DEFAULT_ALPHA = 5.0

# Relative slack for the sandwich comparison; exact equality cases
# (e.g. 1x1 matrices) would otherwise hinge on float rounding.
_SANDWICH_RTOL = 1e-12


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"sharpness alpha must be positive and finite, got {alpha}")
    return alpha


def abs_smooth(x, alpha: float = DEFAULT_ALPHA):
    """Smooth approximation of ``|x|``, elementwise on arrays.

    Evaluated as ``|x| + (2/alpha) * log1p(exp(-alpha*|x|))``, which is
    algebraically identical to ``(1/alpha) * log(2 + exp(-alpha*x) +
    exp(alpha*x))`` but never overflows. The result lies in
    ``[|x|, |x| + 2*log(2)/alpha]`` and is an even function of x.

    A Python float (the fold's one merge per column) takes the math
    module and returns a float: numpy's dispatch on one scalar costs more
    than the arithmetic. Arrays and numpy scalars keep numpy's types; an
    array's result is built in one buffer, in the order of the expression
    above. An alpha that is already a Python float in (0, inf), as the
    fold passes it, skips the check.
    """
    if type(alpha) is not float or not 0.0 < alpha < inf:
        alpha = _check_alpha(alpha)
    if type(x) is float:
        ax = abs(x)
        return ax + (2.0 / alpha) * log1p(exp(-alpha * ax))
    ax = np.abs(x)
    if type(ax) is not np.ndarray:  # a numpy scalar or a 0-d input
        return ax + (2.0 / alpha) * np.log1p(np.exp(-alpha * ax))
    out = np.multiply(ax, -alpha)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out *= 2.0 / alpha
    out += ax
    return out


def abs_smooth_grad(x, alpha: float = DEFAULT_ALPHA):
    """Derivative of :func:`abs_smooth`: ``tanh(0.5*alpha*x)``.

    A scalar input returns a numpy scalar; an array's result is built in
    one buffer. Alpha is checked as in :func:`abs_smooth`.
    """
    if type(alpha) is not float or not 0.0 < alpha < inf:
        alpha = _check_alpha(alpha)
    out = np.multiply(np.asarray(x, dtype=float), 0.5 * alpha)
    return np.tanh(out, out=out) if out.ndim else np.tanh(out)


def l1_smooth(v, alpha: float = DEFAULT_ALPHA) -> float:
    """Smooth l1 norm of a vector: sum of abs_smooth over the components."""
    return float(np.sum(abs_smooth(np.asarray(v, dtype=float), alpha)))


def matrix_l1_exact(mat) -> float:
    """Max absolute column sum (the operator norm induced by the vector l1 norm)."""
    m = np.asarray(mat, dtype=float)
    return float(np.max(np.sum(np.abs(m), axis=0)))


def _fold(omega, alpha: float):
    """Checked alpha and matrix, smoothed column sums, and the fold's value,
    kept in one Python float: each merge is one abs_smooth call on one float,
    where numpy's dispatch would cost more than the maths."""
    alpha = _check_alpha(alpha)
    om = np.asarray(omega, dtype=float)
    if om.ndim != 2 or om.shape[1] == 0:
        raise ValueError(f"expected a 2-D matrix with a column, got shape {om.shape}")
    sums = np.add.reduce(abs_smooth(om, alpha), 0)  # np.sum(..., axis=0) without its wrappers
    columns = iter(sums.tolist())
    value = next(columns)
    for s in columns:
        value = 0.5 * (value + s + abs_smooth(value - s, alpha))
    return alpha, om, sums, value


def matrix_l1_smooth(omega, alpha: float = DEFAULT_ALPHA) -> float:
    """Smooth surrogate of the max-column-sum norm of a matrix.

    Column sums use abs_smooth entries. Their max is a left-to-right fold
    (column 0 first) of the associative smooth max ``(x + y + abs_smooth(x - y)) / 2``,
    so it equals ``logsumexp(alpha * sums) / alpha``; the error against
    the exact norm vanishes as alpha grows.
    """
    return _fold(omega, alpha)[3]


def matrix_l1_smooth_grad(omega, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Gradient of :func:`matrix_l1_smooth` with respect to every entry:
    ``softmax(alpha * sums)[c] * tanh(alpha*entry/2)``.

    The fold's value is ``logsumexp(alpha * sums) / alpha``, so the softmax
    is ``exp(alpha * (sums - value))``. The value is at least the largest
    sum, so the exponent cannot overflow at any alpha. The tanh is formed
    in one (m, n) buffer, which the softmax row then scales in place.
    """
    alpha, om, sums, value = _fold(omega, alpha)
    soft = sums - value
    soft *= alpha
    np.exp(soft, out=soft)
    grad = np.multiply(om, 0.5 * alpha)
    np.tanh(grad, out=grad)
    grad *= soft
    return grad


class SandwichBounds(NamedTuple):
    lower: float
    middle: float
    upper: float
    holds: bool


def sandwich_check(omega) -> SandwichBounds:
    """Exact-norm sandwich for an m x n matrix O with L = O^T O.

    Returns (|O|_1^2 / m, |L|_1, n * |O|_1^2) and whether
    lower <= middle <= upper holds (with a 1e-12 relative slack for
    float rounding at equality).
    """
    om = np.asarray(omega, dtype=float)
    if om.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {om.shape}")
    m, n = om.shape
    norm_om = matrix_l1_exact(om)
    middle = matrix_l1_exact(om.T @ om)
    lower = norm_om**2 / m
    upper = n * norm_om**2
    slack = _SANDWICH_RTOL * max(abs(lower), abs(middle), abs(upper))
    holds = (lower <= middle + slack) and (middle <= upper + slack)
    return SandwichBounds(lower, middle, upper, holds)
