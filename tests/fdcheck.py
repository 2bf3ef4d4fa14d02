"""Finite-difference consistency checks of a field's analytic derivatives,
shared by the field and polynomial tests."""

import numpy as np


def fd_gradient_error(f, pts: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs centered differences."""
    g = f.grad(pts)
    worst = 0.0
    for ax in range(f.dim):
        step = np.zeros(f.dim)
        step[ax] = h
        fd = (f.value(pts + step) - f.value(pts - step)) / (2 * h)
        scale = np.maximum(np.abs(g[:, ax]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - g[:, ax]) / scale)))
    return worst


def fd_hessian_error(f, pts: np.ndarray, h: float = 1e-4) -> float:
    """Max relative error of the analytic hessian vs centered gradient differences."""
    hess = f.hess(pts)
    worst = 0.0
    for ax in range(f.dim):
        step = np.zeros(f.dim)
        step[ax] = h
        fd = (f.grad(pts + step) - f.grad(pts - step)) / (2 * h)
        scale = np.maximum(np.abs(hess[:, ax, :]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - hess[:, ax, :]) / scale)))
    return worst
