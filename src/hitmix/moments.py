"""Hitting-time moment computation.

First-step analysis gives, over the non-seed vertices, (I - P) E T = 1 and
(I - P) E T^2 = 1 + 2 P E T (Kemeny & Snell, Finite Markov Chains). Both
systems are solved in symmetrized coordinates (scaled by D^{1/2}), where the
coefficient matrix H = I - D^{-1/2} A D^{-1/2} is SPD, then mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools as st

from .graph import Graph, SeedSet, reachable_from
from .solver import CgConfig, CgStats, HitmixError, _cg

_H_BLOCK = 4096     # rows of H per block; a block reuses the heap its predecessor freed


class MomentConvergenceError(HitmixError):
    def __init__(self, moment_order: int, stats: CgStats):
        super().__init__(
            f"CG failed to converge for moment {moment_order}: "
            f"rel residual {stats.final_rel_residual:.3e} after {stats.iterations} iters")
        self.moment_order = moment_order
        self.stats = stats


@dataclass
class MomentTable:
    """Hitting-time mean/variance per non-seed vertex (NaN if unreachable)."""

    vertices: np.ndarray      # global ids, ascending (SeedSet.complement)
    mean: np.ndarray
    variance: np.ndarray
    reachable: np.ndarray     # bool
    cg_stats: list[CgStats]   # one per system, E T then E T^2


def restricted_laplacian(graph: Graph, vertices: np.ndarray) -> sp.csr_matrix:
    """CSR H = I - D^{-1/2} A D^{-1/2} over an ascending vertex subset v, by the kernels of
    scipy's I - d A[v][:, v] d, _H_BLOCK rows at a time; entries round as (d_i a_ij) d_j."""
    deg = graph.degrees[vertices]
    if vertices.size and deg.min() <= 0:
        raise ValueError("subset contains an isolated vertex (degree 0); "
                         "filter unreachable vertices first")
    d, a, k = 1.0 / np.sqrt(deg), graph.adjacency, vertices.size
    idx = sp.get_index_dtype((a.indptr, a.indices), maxval=a.nnz + k)
    ap, aj, v = (x.astype(idx, copy=False) for x in (a.indptr, a.indices, vertices))
    # Once for all blocks: where A's columns go in A[v][:, v] and its rows start.
    offsets, starts = np.zeros(graph.n_vertices, idx), np.empty(graph.n_vertices + 1, idx)
    st.csr_column_index1(k, v, *a.shape, ap, aj, offsets, starts)
    starts, order = np.append(0, np.diff(starts)[v].cumsum()), np.argsort(v).astype(idx)
    indptr, indices, data = np.zeros(k + 1, idx), np.empty(0, idx), np.empty(0)
    for lo in range(0, k, _H_BLOCK):
        rows, bp = v[lo:lo + _H_BLOCK], (starts[lo:lo + _H_BLOCK + 1] - starts[lo]).astype(idx)
        m, nnz = rows.size, (ap[rows + 1] - ap[rows]).sum()
        bj, bx, cj, cx = np.empty(nnz, idx), np.empty(nnz), np.empty(bp[-1], idx), np.empty(bp[-1])
        st.csr_row_index(m, rows, ap, aj, a.data, bj, bx)               # A[rows]
        st.csr_column_index2(order, offsets, nnz, bj, bx, cj, cx)       # A[rows][:, v]
        del bj, bx          # before the scaling's temporaries and H's arrays
        cx *= np.repeat(d[lo:lo + m], np.diff(bp))
        cx *= d.take(cj)
        if not lo:          # room for A[v][:, v] and I's diagonal, made once A[rows] is freed
            indices, data = np.empty(starts[-1] + k, idx), np.empty(starts[-1] + k)
        at = indptr[lo]     # csr_minus_csr writes the block's indptr from 0
        st.csr_minus_csr(m, k, np.arange(m + 1, dtype=idx), np.arange(lo, lo + m, dtype=idx),
                         np.ones(m), bp, cj, cx, indptr[lo:lo + m + 1], indices[at:], data[at:])
        indptr[lo:lo + m + 1] += at
    return sp.csr_matrix((data[:indptr[-1]], indices[:indptr[-1]], indptr), shape=(k, k))


def compute_moments(graph: Graph, seeds: SeedSet,
                    cfg: CgConfig | None = None) -> MomentTable:
    """Solve the E T and E T^2 systems over the non-seed vertices that reach
    the seeds and assemble mean/variance. Raises ValueError if none does,
    NonSpdError if a solve breaks down and MomentConvergenceError if one does
    not converge (moment 2 is solved only if moment 1 converges)."""
    if cfg is None:
        cfg = CgConfig()
    reachable = reachable_from(graph, seeds)
    vertices = seeds.complement[reachable]
    if not vertices.size:
        raise ValueError("no non-seed vertex can reach the seed set")
    h = restricted_laplacian(graph, vertices)
    d = np.sqrt(graph.degrees[vertices])
    x1, x2 = np.zeros(vertices.size), np.empty(vertices.size)
    # Moment 2's rhs, 2x - b in symmetrized coordinates, lies in moment 1's
    # Krylov space; moment 2 starts from its Galerkin start there.
    st1 = _cg(h.indptr, h.indices, h.data, d, x1, cfg, galerkin=x2)
    if not st1.converged:
        raise MomentConvergenceError(1, st1)
    et1 = x1 / d
    # (I - P) E T = 1 turns P E T into E T - 1, so this right-hand side
    # 1 + 2 P E T needs no graph.
    st2 = _cg(h.indptr, h.indices, h.data, d * (1.0 + 2.0 * (et1 - 1.0)), x2, cfg)
    if not st2.converged:
        raise MomentConvergenceError(2, st2)
    mean, variance = np.full((2, seeds.complement.size), np.nan)
    mean[reachable] = et1
    # Tiny negatives from solver tolerance are clamped to zero.
    variance[reachable] = np.maximum(x2 / d - et1 ** 2, 0.0)
    return MomentTable(seeds.complement, mean, variance, reachable, [st1, st2])
