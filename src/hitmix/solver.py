"""Conjugate gradient solver for the symmetric moment systems.

The matrix is H = I - D^{-1/2} A D^{-1/2} restricted to a vertex subset
(moments.restricted_laplacian). It is symmetric, and positive definite whenever
every subset vertex has a path to a vertex outside the subset (for us: to the
seed set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


@dataclass
class CgConfig:
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")


@dataclass
class CgStats:
    iterations: int
    final_rel_residual: float
    converged: bool


class HitmixError(RuntimeError):
    """Numerical failure: a non-SPD operator, CG non-convergence, EM collapse."""


class NonSpdError(HitmixError):
    """CG recurrences produced NaN/Inf: the operator is not positive definite.

    This typically means the vertex subset contains vertices with no path to
    the seed set; filter with reachable_from before solving.
    """


# A normwise backward error ||b - Hx|| / (||H|| ||x|| + ||b||) of 16 eps is the
# double-precision floor of CG (Meurant & Strakos 2006): the true residual of a
# 2000-vertex path stalls near 6 eps. ||H|| <= 2, as A_hat has spectrum in [-1, 1].
_BACKWARD_ERROR_FLOOR = 16 * np.finfo(np.float64).eps


def _done(r_norm: float, x_norm: float, b_norm: float, cfg: CgConfig) -> bool:
    """Residual norm within cfg.rel_tol, or at the backward-error floor."""
    return bool(r_norm / b_norm <= cfg.rel_tol
                or r_norm <= _BACKWARD_ERROR_FLOOR * (2.0 * x_norm + b_norm))


def conjugate_gradient(h: sp.csr_matrix, b: np.ndarray,
                       cfg: CgConfig | None = None) -> tuple[np.ndarray, CgStats]:
    """Solve h @ x = b with textbook (Hestenes-Stiefel) conjugate gradients.

    Converged means the true residual is within cfg.rel_tol or at the
    double-precision floor; CgStats.final_rel_residual is the true relative
    residual attained.
    """
    if cfg is None:
        cfg = CgConfig()
    if h.format != "csr":   # the raw kernel would read a CSC matrix as its transpose
        raise TypeError(f"conjugate_gradient needs a CSR operator, got {h.format!r}")
    b = np.asarray(b, dtype=np.float64)
    n = h.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs length {b.shape} does not match operator size {n}")
    if h.shape != (n, n):
        raise ValueError(f"operator shape {h.shape} is not square")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), CgStats(0, 0.0, True)

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    hp, tmp = np.empty(n), np.empty(n)
    rr = float(r.dot(r))
    x_bound = 0.0           # sum |alpha| ||p|| >= ||x||, by the triangle inequality
    max_iters = max(1000, 10 * n)

    for k in range(1, max_iters + 1):
        # h @ p without scipy's dispatch and fresh zeros: the same kernel call.
        hp.fill(0.0)
        csr_matvec(n, n, h.indptr, h.indices, h.data, p, hp)
        php = float(p.dot(hp))
        pp = float(p.dot(p))
        # A vanishing Rayleigh quotient means p sits in a numerical nullspace
        # (unreachable vertices make the operator singular).
        if not math.isfinite(php) or php <= 1e-14 * pp:
            raise NonSpdError(
                "conjugate gradient broke down (non-positive or non-finite "
                "curvature); the operator is not SPD. Filter unreachable "
                "vertices using reachable_from")
        alpha = rr / php
        # In place through tmp; each update rounds as x += alpha * p would.
        np.multiply(p, alpha, tmp)
        x += tmp
        np.multiply(hp, alpha, tmp)
        r -= tmp
        x_bound += abs(alpha) * math.sqrt(pp)
        rr_new = float(r.dot(r))
        if not math.isfinite(rr_new):
            raise NonSpdError("non-finite residual in conjugate gradient")
        # The recursive residual drifts from the true one in finite precision,
        # so it only triggers the check of the true residual. At exactly 0 it
        # leaves no next direction (p = 0), so CG stops there either way.
        # _done is monotone in ||x||, so twice the bound (room for rounding)
        # rules a stop out without the x @ x that the floor test needs.
        r_norm = math.sqrt(rr_new)
        if rr_new == 0.0 or _done(r_norm, 2.0 * x_bound, b_norm, cfg):
            x_norm = math.sqrt(float(x.dot(x)))
            if _done(r_norm, x_norm, b_norm, cfg) or rr_new == 0.0:
                true_norm = float(np.linalg.norm(b - h @ x))
                converged = _done(true_norm, x_norm, b_norm, cfg)
                if converged or rr_new == 0.0:
                    return x, CgStats(k, true_norm / b_norm, converged)
        np.multiply(p, rr_new / rr, p)
        p += r
        rr = rr_new

    true_norm = float(np.linalg.norm(b - h @ x))
    converged = _done(true_norm, math.sqrt(float(x.dot(x))), b_norm, cfg)
    return x, CgStats(max_iters, true_norm / b_norm, converged)
