"""Differentiable surrogates for the absolute value, the vector l1 norm and
the max-column-sum matrix norm, together with the exact max-column-sum
norm and the norm sandwich built on it.

The surrogate of |x| is (1/a) * log(2 + exp(-a*x) + exp(a*x)) for a
sharpness parameter a > 0. It overestimates |x| by at most 2*log(2)/a and
has the closed-form derivative tanh(a*x/2). The matrix norm surrogate
replaces the exact max over column sums by a left-to-right fold of a
smooth two-argument max. That max is (1/a) * log(exp(a*x) + exp(a*y)), so
it is associative and the fold equals (1/a) * logsumexp(a * sums); the
column-by-column loop stays only until it is replaced by that closed form.
Its merges each take one pair of floats, so abs_smooth evaluates a Python
float with the math module: numpy's per-call dispatch on one scalar costs
more than the arithmetic.

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

import math
from typing import NamedTuple

import numpy as np

DEFAULT_ALPHA = 5.0

# Relative slack for the sandwich comparison; exact equality cases
# (e.g. 1x1 matrices) would otherwise hinge on float rounding.
_SANDWICH_RTOL = 1e-12


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
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
    than the arithmetic. Arrays and numpy scalars keep numpy's types.
    """
    alpha = _check_alpha(alpha)
    if type(x) is float:
        ax = abs(x)
        return ax + (2.0 / alpha) * math.log1p(math.exp(-alpha * ax))
    ax = np.abs(x)
    return ax + (2.0 / alpha) * np.log1p(np.exp(-alpha * ax))


def abs_smooth_grad(x, alpha: float = DEFAULT_ALPHA):
    """Derivative of :func:`abs_smooth`: ``tanh(alpha*x/2)``."""
    alpha = _check_alpha(alpha)
    return np.tanh(0.5 * alpha * np.asarray(x, dtype=float))


def l1_smooth(v, alpha: float = DEFAULT_ALPHA) -> float:
    """Smooth l1 norm of a vector: sum of abs_smooth over the components."""
    return float(np.sum(abs_smooth(np.asarray(v, dtype=float), alpha)))


def matrix_l1_exact(mat) -> float:
    """Max absolute column sum (the operator norm induced by the vector l1 norm)."""
    m = np.asarray(mat, dtype=float)
    return float(np.max(np.sum(np.abs(m), axis=0)))


def _fold(omega, alpha: float):
    """Checked alpha and matrix, smoothed column sums, and the fold value
    after each column, kept in Python floats: each merge is one abs_smooth
    call on one float, where numpy's dispatch would cost more than the maths."""
    alpha = _check_alpha(alpha)
    om = np.asarray(omega, dtype=float)
    if om.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {om.shape}")
    sums = np.sum(abs_smooth(om, alpha), axis=0)
    prefix = [float(sums[0])]
    for s in sums[1:].tolist():
        acc = prefix[-1]
        prefix.append(0.5 * (acc + s + abs_smooth(acc - s, alpha)))
    return alpha, om, sums, prefix


def matrix_l1_smooth(omega, alpha: float = DEFAULT_ALPHA) -> float:
    """Smooth surrogate of the max-column-sum norm of a matrix.

    Column sums use abs_smooth entries. Their max is a left-to-right fold
    (column 0 first) of the associative smooth max ``(x + y + abs_smooth(x - y)) / 2``,
    so it equals ``logsumexp(alpha * sums) / alpha``; the error against
    the exact norm vanishes as alpha grows.
    """
    *_, prefix = _fold(omega, alpha)
    return prefix[-1]


def matrix_l1_smooth_grad(omega, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Gradient of :func:`matrix_l1_smooth` with respect to every entry.

    Exact chain rule through the fold: the forward pass records the
    running fold value before each merge, the backward pass propagates
    one factor (1 +- tanh)/2 per merge down to the smoothed column sums,
    and each column sensitivity multiplies tanh(alpha*entry/2). The
    result equals ``softmax(alpha * sums)[c] * tanh(alpha*entry/2)``.
    """
    alpha, om, sums, prefix = _fold(omega, alpha)
    t = np.tanh(0.5 * alpha * (np.array(prefix[:-1]) - sums[1:]))  # one value per merge
    up = 0.5 * (1.0 + t)    # d(merge)/d(previous fold value)
    down = 0.5 * (1.0 - t)  # d(merge)/d(incoming column sum)
    # column c joins at merge c - 1 (column 0 starts the fold), then passes every later one
    dsums = np.append(1.0, down) * np.append(np.cumprod(up[::-1])[::-1], 1.0)
    return dsums[np.newaxis, :] * np.tanh(0.5 * alpha * om)


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
