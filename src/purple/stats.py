"""Paired t-test.

Its two-sided p-value is the regularized incomplete beta function from
``scipy.special``, imported on the first call so that a process that runs
no t-test never loads scipy; ``scipy.stats`` is avoided because importing
it costs about a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float


def paired_t_test(acc_a, acc_b) -> TTestResult:
    """Two-sided paired t-test on the differences acc_a - acc_b."""
    a = np.asarray(acc_a, dtype=np.float64)
    b = np.asarray(acc_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-d and of equal length")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero standard deviation")
    t = float(d.mean() / (sd / np.sqrt(n)))
    df = n - 1
    from scipy.special import betainc

    # Two-sided p: the symmetric-tail mass equals I_x(df/2, 1/2) directly.
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t, df, min(max(p, 0.0), 1.0))
