"""Summaries of timing samples: median plus the highest percentile that
still has at least ten samples beyond it."""

from __future__ import annotations

import numpy as np

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it."""
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            return p
    return None


def summarize(samples) -> dict:
    """{'n', 'median', 'tail_p', 'tail'}; tail fields are None when n is too small."""
    xs = list(samples)
    if not xs:
        return {"n": 0, "median": None, "tail_p": None, "tail": None}
    p = tail_percentile(len(xs))
    return {
        "n": len(xs),
        "median": float(np.percentile(xs, 50.0)),
        "tail_p": p,
        "tail": float(np.percentile(xs, p)) if p is not None else None,
    }
