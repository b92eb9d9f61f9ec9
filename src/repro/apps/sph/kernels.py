"""SPH smoothing kernels.

The cubic spline (Monaghan & Lattanzio 1985).  ``h`` here is the kernel
*support radius*: W(r >= h) = 0.  The normalisation is the standard 3-D
one, ∫ W dV = 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cubic_spline_W", "cubic_spline_gradW_over_r"]

_SIGMA3 = 8.0 / np.pi  # 3-D normalisation for support-radius convention


def cubic_spline_W(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Kernel value W(r, h); broadcasts r against h."""
    r = np.asarray(r, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if np.any(h <= 0):
        raise ValueError("smoothing length must be > 0")
    q = r / h
    w = np.zeros(np.broadcast(r, h).shape)
    inner = q <= 0.5
    outer = (q > 0.5) & (q < 1.0)
    qi = np.broadcast_to(q, w.shape)
    w = np.where(inner, 1.0 - 6.0 * qi**2 + 6.0 * qi**3, w)
    w = np.where(outer, 2.0 * (1.0 - qi) ** 3, w)
    return _SIGMA3 / np.broadcast_to(h, w.shape) ** 3 * w


def cubic_spline_gradW_over_r(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``(dW/dr) / r`` — the scalar multiplying the separation vector in
    ``∇W = (dW/dr) r̂ = [(dW/dr)/r] r⃗``.

    Returning the ratio avoids a 0/0 at r = 0 (the cubic spline's gradient
    vanishes there; we return the analytic limit of the inner branch).
    """
    r = np.asarray(r, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if np.any(h <= 0):
        raise ValueError("smoothing length must be > 0")
    q = r / h
    shape = np.broadcast(r, h).shape
    qb = np.broadcast_to(q, shape)
    hb = np.broadcast_to(h, shape)
    out = np.zeros(shape)
    inner = qb <= 0.5
    outer = (qb > 0.5) & (qb < 1.0)
    # d/dr [1 - 6q² + 6q³] = (-12q + 18q²)/h ; divided by r = qh:
    # (-12 + 18q)/h².
    out = np.where(inner, (-12.0 + 18.0 * qb) / hb**2, out)
    # d/dr [2(1-q)³] = -6(1-q)²/h ; divided by r: -6(1-q)²/(q h²).
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(outer, -6.0 * (1.0 - qb) ** 2 / (np.where(qb > 0, qb, 1.0) * hb**2), out)
    return _SIGMA3 / hb**3 * out
