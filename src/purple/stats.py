"""Paired t-test.

Its two-sided p-value is the regularized incomplete beta function
``I_x(df/2, 1/2)`` at ``x = df/(df+t^2)``, computed here by the continued
fraction of Press et al., *Numerical Recipes* §6.4, with the modified Lentz
method. scipy's special functions are not used: importing them also loads
scipy's array-API layer, which costs about 150 ms and 25 MB in a process
that holds only dense data, and so a t-test loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log

import numpy as np

_MAX_ITER = 300
_EPS = 3e-16
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of ``I_x(a, b)``, by modified Lentz iteration."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        # The even and the odd coefficient of step m.
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ValueError(f"incomplete beta continued fraction did not converge in "
                     f"{_MAX_ITER} iterations (a={a}, b={b}, x={x})")


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta ``I_x(a, b)``, for a, b > 0 and x in [0, 1]."""
    if x == 0.0 or x == 1.0:
        return x
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x))
    # The fraction converges fast below the distribution's mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero standard deviation")
    t = float(d.mean() / (sd / np.sqrt(n)))
    df = n - 1
    # Two-sided p: the symmetric-tail mass equals I_x(df/2, 1/2) directly.
    p = _incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(t, df, min(max(p, 0.0), 1.0))
