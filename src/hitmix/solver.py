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
from scipy.linalg.blas import daxpy, ddot, dscal
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


def one_or_raise(results):
    """The one result of a batch call on one item; raised if it is an error."""
    result, = results
    if isinstance(result, Exception):
        raise result
    return result


# A normwise backward error ||b - Hx|| / (||H|| ||x|| + ||b||) of 16 eps is the
# double-precision floor of CG (Meurant & Strakos 2006): the true residual of a
# 2000-vertex path stalls near 6 eps. ||H|| <= 2, as A_hat has spectrum in [-1, 1].
_BACKWARD_ERROR_FLOOR = 16 * np.finfo(np.float64).eps


def _done(r_norm: float, x_norm: float, b_norm: float, cfg: CgConfig) -> bool:
    """Residual norm within cfg.rel_tol, or at the backward-error floor."""
    return bool(r_norm / b_norm <= cfg.rel_tol
                or r_norm <= _BACKWARD_ERROR_FLOOR * (2.0 * x_norm + b_norm))


_BREAKDOWN = ("conjugate gradient broke down (non-positive or non-finite curvature); "
              "the operator is not SPD. Filter unreachable vertices using reachable_from")


# Every BLAS call of the kernel spans at most this many entries. OpenBLAS runs
# level-1 calls below 10,000 entries on one thread, so a dot product sums in one
# order at any thread count (and a threaded daxpy measured 360 times slower).
_PIECE = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b: one ddot per piece of at most _PIECE entries from a's start, summed in order."""
    s = 0.0
    for i in range(0, a.size, _PIECE):
        s += ddot(a[i:i + _PIECE], b[i:i + _PIECE])
    return s


def _cg(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, b: np.ndarray,
        x: np.ndarray, cfg: CgConfig, galerkin: np.ndarray | None = None
        ) -> CgStats | NonSpdError:
    """Solve H x = b with textbook (Hestenes-Stiefel) conjugate gradients from
    x, unchecked; moments._solve_group calls it for both moments of each
    instance. indptr, indices and data are the CSR arrays of an n x n matrix
    H, n = b.size, whose column ids lie in 0..n-1 (indptr may be a slice of a
    longer array, and its offsets point into indices and data), b is a finite
    float64 vector and x a float64 n-vector. The solve starts from x, with
    r = b - Hx (from 0, b's bits), writes its result into x and returns its
    CgStats, or the NonSpdError of its breakdown. Converged means the true
    residual, relative to ||b||, is within cfg.rel_tol or at the
    double-precision floor; its ||x|| bound starts at ||x||.

    A step is one csr_matvec, the fused updates x += alpha p and r -= alpha Hp
    (one daxpy each, rounded once per entry) and p <- beta p + r (dscal then
    daxpy: the bits of p * beta + r). Every BLAS call spans a piece of at most
    _PIECE entries cut from the vector's start, and a dot product sums its
    pieces in order, so the bits do not depend on the BLAS thread count.

    With galerkin, an n-vector, a solve from 0 writes there, if it converges
    (else 0), the Galerkin start sum_i p_i (p_i.c) / (p_i.Hp_i) of H y = c =
    2x - b over its directions p_i. In exact arithmetic p_i.b = rr_i and
    p_k.p_i = (rr_i / rr_k) pp_k for k <= i, so p_i.c = 2 rr_i C_i - rr_i +
    2 (pp_i / rr_i) (B - B_i), with C_i and B_i the sums of alpha_k pp_k / rr_k
    and alpha_k rr_k over k < i, and B the final B_i. B enters linearly, so two
    accumulators u and v give the start u + B v with no stored direction and no
    dot product (Erhel & Guyomarc'h, SIAM J. Matrix Anal. Appl. 21(4), 2000).
    """
    n = b.size
    r, hp = np.zeros(n), np.empty(n)
    csr_matvec(n, n, indptr, indices, data, x, r)
    np.subtract(b, r, r)
    p, u, v = r.copy(), np.zeros(n), np.zeros(n)   # u and v: the Galerkin accumulators
    # Per piece: its length and its views of x, r, p, Hp, u and v.
    pieces = [(c - a, x[a:c], r[a:c], p[a:c], hp[a:c], u[a:c], v[a:c])
              for a in range(0, n, _PIECE) for c in (min(a + _PIECE, n),)]
    rr, b_norm = _dot(r, r), math.sqrt(_dot(b, b))
    x_bound = math.sqrt(_dot(x, x))   # ||start|| + sum |alpha| ||p|| >= ||x||
    budget, sum_b, sum_c, k = max(1000, 10 * n), 0.0, 0.0, 0
    result = None if b_norm and rr else CgStats(0, 0.0, True)   # b may hold -0.0
    while result is None:
        k += 1
        # h @ p without scipy's dispatch and fresh zeros: the same kernel call.
        hp.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, p, hp)
        php = pp = 0.0
        for _, _, _, p_, hp_, _, _ in pieces:
            php += ddot(p_, hp_)
            pp += ddot(p_, p_)
        # A vanishing Rayleigh quotient means p sits in a numerical nullspace
        # (unreachable vertices make the operator singular).
        if not math.isfinite(php) or php <= 1e-14 * pp:
            result = NonSpdError(_BREAKDOWN)
            break
        alpha = rr / php
        x_bound += abs(alpha) * math.sqrt(pp)
        if galerkin is not None:
            q = pp / rr
            cu = (2.0 * rr * sum_c - rr - 2.0 * q * sum_b) / php
            cv = 2.0 * q / php
            # Far past any stop, where rr nears underflow, these overflow:
            # NaN then marks the start as lost, with no warning.
            if not math.isfinite(cu + cv):
                cu = cv = math.nan
            sum_c += alpha * q
            sum_b += alpha * rr
        rr_new = 0.0
        for m, x_, r_, p_, hp_, u_, v_ in pieces:
            daxpy(p_, x_, m, alpha)
            daxpy(hp_, r_, m, -alpha)
            if galerkin is not None:
                daxpy(p_, u_, m, cu)
                daxpy(p_, v_, m, cv)
            rr_new += ddot(r_, r_)
        if not math.isfinite(rr_new):
            result = NonSpdError("non-finite residual in conjugate gradient")
            break
        # The recursive residual drifts from the true one in finite
        # precision, so it only triggers the check of the true residual. At
        # exactly 0 it leaves no next direction (p = 0), and the budget
        # leaves no next step, so CG stops there either way. _done is
        # monotone in ||x||, so twice the bound (room for rounding) rules a
        # stop out without x.x.
        r_norm, last = math.sqrt(rr_new), rr_new == 0.0 or k == budget
        if last or _done(r_norm, 2.0 * x_bound, b_norm, cfg):
            xn = math.sqrt(_dot(x, x))
            if _done(r_norm, xn, b_norm, cfg) or last:
                hx = np.zeros(n)   # the true residual, b - Hx
                csr_matvec(n, n, indptr, indices, data, x, hx)
                np.subtract(b, hx, hx)
                true = math.sqrt(_dot(hx, hx))
                converged = _done(true, xn, b_norm, cfg)
                if converged or last:
                    result = CgStats(k, true / b_norm, converged)
                    break
        beta = rr_new / rr
        rr = rr_new
        for m, _, r_, p_, _, _, _ in pieces:
            dscal(beta, p_, m)
            daxpy(r_, p_, m, 1.0)
    if galerkin is not None:
        start = u + sum_b * v
        kept = isinstance(result, CgStats) and result.converged and np.isfinite(start).all()
        galerkin[:] = start if kept else 0.0
    return result
