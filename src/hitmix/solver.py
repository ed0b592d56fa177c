"""Conjugate gradient solver for the symmetric moment systems.

The matrix is H = I - D^{-1/2} A D^{-1/2} restricted to a vertex subset
(moments.restricted_laplacian). It is symmetric, and positive definite whenever
every subset vertex has a path to a vertex outside the subset (for us: to the
seed set). The H of several graphs joined side by side
(moments.compute_moments_batch) is block diagonal, one block per graph: the
private kernel _conjugate_gradient_blocks solves all its blocks at once, each
exactly as conjugate_gradient solves it alone.
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


def conjugate_gradient(h: sp.csr_matrix, b: np.ndarray,
                       cfg: CgConfig | None = None) -> tuple[np.ndarray, CgStats]:
    """Solve h @ x = b with textbook (Hestenes-Stiefel) conjugate gradients: the
    one-block call of _conjugate_gradient_blocks, after checking h and b. Raises
    the NonSpdError that it returns for a breakdown.

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
    x, stats = _conjugate_gradient_blocks(h, b, (0, n), cfg)
    return x, one_or_raise(stats)


def _conjugate_gradient_blocks(h: sp.csr_matrix, b: np.ndarray, bounds, cfg: CgConfig,
                               x0: np.ndarray | None = None, galerkin: np.ndarray | None = None
                               ) -> tuple[np.ndarray, list[CgStats | NonSpdError]]:
    """conjugate_gradient on each diagonal block of a block-diagonal h at once,
    unchecked: h is a square CSR matrix with no entry outside the blocks, b a
    finite float64 vector of its size, and block j spans rows and columns
    bounds[j]:bounds[j + 1], with bounds rising from 0 to the size of h.
    Returns x over all rows and, per block, its CgStats or the NonSpdError of
    its breakdown (its rows of x are then 0).

    The blocks run in lockstep: a step is one csr_matvec and one set of x, r and
    p updates over the rows from the first to the last unfinished block, with
    each block's alpha and beta spread over its rows. Everything that decides a
    block's result is its own: alpha, beta, the breakdown and stop tests, its
    budget of max(1000, 10 n_j) steps and its true residual, all from dot
    products over its rows. So each block gets, bit for bit, the x and CgStats
    of its solve alone. A finished block's r and p are zeroed, so between
    unfinished blocks it rides along unchanged.

    With x0, each block starts from its rows of x0 (0 where b is 0); its
    residual stays relative to ||b|| and its ||x|| bound starts at ||x0||.
    With galerkin, an n-vector, a solve from 0 writes there, per converged
    block (0 for the others), the Galerkin start sum_i p_i (p_i.c) / (p_i.Hp_i)
    of H y = c = 2x - b over its directions p_i. In exact arithmetic
    p_i.b = rr_i and p_k.p_i = (rr_i / rr_k) pp_k for k <= i, so p_i.c =
    2 rr_i C_i - rr_i + 2 (pp_i / rr_i) (B - B_i), with C_i and B_i the sums of
    alpha_k pp_k / rr_k and alpha_k rr_k over k < i, and B the final B_i. B
    enters linearly, so two accumulators u and v give the start u + B v with
    no stored direction and no dot product (Erhel & Guyomarc'h, SIAM J. Matrix
    Anal. Appl. 21(4), 2000).
    """
    n = h.shape[0]
    blocks = list(zip(bounds, bounds[1:]))
    n_blocks = len(blocks)
    indptr, indices, data = h.indptr, h.indices, h.data

    x = np.zeros(n) if x0 is None else x0.copy()
    r = b.copy() if x0 is None else b - h @ x0
    p = r.copy()
    hp, tmp = np.empty(n), np.empty(n)
    xs = [x[lo:hi] for lo, hi in blocks]
    rs = [r[lo:hi] for lo, hi in blocks]
    ps = [p[lo:hi] for lo, hi in blocks]
    hps = [hp[lo:hi] for lo, hi in blocks]
    rr = [float(v.dot(v)) for v in rs]
    b_norm = [math.sqrt(float(b[lo:hi].dot(b[lo:hi]))) for lo, hi in blocks]
    budget = [max(1000, 10 * (hi - lo)) for lo, hi in blocks]
    x_bound = [math.sqrt(float(v.dot(v))) for v in xs]  # ||x0|| + sum |alpha| ||p|| >= ||x||
    alphas, betas = [0.0] * n_blocks, [0.0] * n_blocks
    coef_u, coef_v, sum_b, sum_c = ([0.0] * n_blocks for _ in range(4))
    if galerkin is not None:
        u, v = galerkin, np.zeros(n)
        u.fill(0.0)
        us, vs = [u[lo:hi] for lo, hi in blocks], [v[lo:hi] for lo, hi in blocks]
    out: list = [None] * n_blocks

    def retire(j, result):
        out[j] = result
        alphas[j] = betas[j] = coef_u[j] = coef_v[j] = 0.0
        rs[j].fill(0.0)
        ps[j].fill(0.0)
        if isinstance(result, NonSpdError):
            xs[j].fill(0.0)
        if galerkin is not None:
            us[j] += sum_b[j] * vs[j]
            if not (isinstance(result, CgStats) and result.converged and np.isfinite(us[j]).all()):
                us[j].fill(0.0)

    def true_norm(j):
        # The block's rows of h @ x, as its solve alone would compute them.
        lo, hi = blocks[j]
        hx = np.zeros(hi - lo)
        csr_matvec(hi - lo, n, indptr[lo:hi + 1], indices, data, x, hx)
        np.subtract(b[lo:hi], hx, hx)
        return math.sqrt(float(hx.dot(hx)))

    for j in range(n_blocks):
        if b_norm[j] == 0.0 or rr[j] == 0.0:   # its rhs may hold -0.0; x0 may solve it
            retire(j, CgStats(0, 0.0, True))
    active = [j for j in range(n_blocks) if out[j] is None]
    k = 0
    while active:
        # The rows of the unfinished blocks, and whether one block alone owns them.
        first, stop = active[0], active[-1] + 1
        lo, hi = bounds[first], bounds[stop]
        single = len(active) == 1
        x_s, r_s, p_s, hp_s, tmp_s = x[lo:hi], r[lo:hi], p[lo:hi], hp[lo:hi], tmp[lo:hi]
        indptr_s = indptr[lo:hi + 1]
        if not single:
            sizes_s = np.diff(bounds[first:stop + 1])
        changed = False
        while not changed:
            k += 1
            # h @ p without scipy's dispatch and fresh zeros: the same kernel call.
            hp_s.fill(0.0)
            csr_matvec(hi - lo, n, indptr_s, indices, data, p, hp_s)
            for j in active:
                p_j = ps[j]
                php = float(p_j.dot(hps[j]))
                pp = float(p_j.dot(p_j))
                # A vanishing Rayleigh quotient means p sits in a numerical nullspace
                # (unreachable vertices make the operator singular).
                if not math.isfinite(php) or php <= 1e-14 * pp:
                    retire(j, NonSpdError(_BREAKDOWN))
                    alpha, changed = 0.0, True
                    continue
                alpha = alphas[j] = rr[j] / php
                x_bound[j] += abs(alpha) * math.sqrt(pp)
                if galerkin is not None:
                    rr_j, q = rr[j], pp / rr[j]
                    cu = (2.0 * rr_j * sum_c[j] - rr_j - 2.0 * q * sum_b[j]) / php
                    cv = 2.0 * q / php
                    # Far past any stop, where rr nears underflow, these overflow:
                    # NaN then marks the block's start as lost, with no warning.
                    coef_u[j], coef_v[j] = (cu, cv) if math.isfinite(cu + cv) else (math.nan,) * 2
                    sum_c[j] += alpha * q
                    sum_b[j] += alpha * rr_j
            # In place through tmp; each update rounds as x += alpha * p would.
            if not single:
                alpha = np.repeat(np.array(alphas[first:stop]), sizes_s)
            np.multiply(p_s, alpha, tmp_s)
            x_s += tmp_s
            np.multiply(hp_s, alpha, tmp_s)
            r_s -= tmp_s
            if galerkin is not None:
                for acc, coef in ((u[lo:hi], coef_u), (v[lo:hi], coef_v)):
                    np.multiply(p_s, coef[first] if single
                                else np.repeat(np.array(coef[first:stop]), sizes_s), tmp_s)
                    acc += tmp_s
            beta = 0.0
            for j in active:
                if out[j] is not None:
                    continue
                r_j, bn = rs[j], b_norm[j]
                rr_new = float(r_j.dot(r_j))
                if not math.isfinite(rr_new):
                    retire(j, NonSpdError("non-finite residual in conjugate gradient"))
                    changed = True
                    continue
                # The recursive residual drifts from the true one in finite
                # precision, so it only triggers the check of the true residual.
                # At exactly 0 it leaves no next direction (p = 0), so CG stops
                # there either way. _done is monotone in ||x||, so twice the bound
                # (room for rounding) rules a stop out without the x @ x that the
                # floor test needs.
                r_norm = math.sqrt(rr_new)
                if rr_new == 0.0 or _done(r_norm, 2.0 * x_bound[j], bn, cfg):
                    x_norm = math.sqrt(float(xs[j].dot(xs[j])))
                    if _done(r_norm, x_norm, bn, cfg) or rr_new == 0.0:
                        true = true_norm(j)
                        converged = _done(true, x_norm, bn, cfg)
                        if converged or rr_new == 0.0:
                            retire(j, CgStats(k, true / bn, converged))
                            changed = True
                            continue
                if k == budget[j]:
                    true = true_norm(j)
                    converged = _done(true, math.sqrt(float(xs[j].dot(xs[j]))), bn, cfg)
                    retire(j, CgStats(k, true / bn, converged))
                    changed = True
                    continue
                beta = betas[j] = rr_new / rr[j]
                rr[j] = rr_new
            if not single:
                beta = np.repeat(np.array(betas[first:stop]), sizes_s)
            np.multiply(p_s, beta, p_s)
            p_s += r_s
        active = [j for j in active if out[j] is None]
    return x, out
