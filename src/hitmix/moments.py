"""Hitting-time moment computation.

First-step analysis gives, over the non-seed vertices, (I - P) E T = 1 and
(I - P) E T^2 = 1 + 2 P E T (Kemeny & Snell, Finite Markov Chains). Both
systems are solved in symmetrized coordinates (scaled by D^{1/2}), where the
coefficient matrix H = I - D^{-1/2} A D^{-1/2} is SPD, then mapped back.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools as st

from .graph import Graph, SeedSet, reachable_from
from .solver import CgConfig, CgStats, HitmixError, _cg, one_or_raise

# compute_moments_batch solves groups of about this many vertices on one union:
# that saves scipy and CG per-call costs on small instances, but from 800
# vertices per instance the union measured slower than solving each alone.
_GROUP_VERTICES = 1500
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


def _failure(order: int, stats: CgStats | HitmixError) -> HitmixError | None:
    """The error of a moment solve that broke down or did not converge, else None."""
    if isinstance(stats, HitmixError):
        return stats
    return None if stats.converged else MomentConvergenceError(order, stats)


def compute_moments(graph: Graph, seeds: SeedSet,
                    cfg: CgConfig | None = None) -> MomentTable:
    """Solve the E T and E T^2 systems and assemble mean/variance: the
    one-instance call of compute_moments_batch. Raises the error it returns."""
    return one_or_raise(compute_moments_batch([(graph, seeds)], cfg))


def _join(instances: list[tuple[Graph, SeedSet]]) -> tuple[Graph, SeedSet, list[int]]:
    """The instances as one block-diagonal graph and its seed set, with vertex
    ids offset per instance, and where each instance's rows of the joined
    seeds.complement start. A lone instance is returned as it is."""
    offsets = list(accumulate((s.complement.size for _, s in instances), initial=0))
    if len(instances) == 1:
        return *instances[0], offsets
    n, nnz = 0, 0
    indptr, indices, members, complement = [], [], [], []
    for graph, seeds in instances:
        a = graph.adjacency
        indptr.append(a.indptr[:-1] + nnz)
        indices.append(a.indices + n)
        members += [m + n for m in seeds.members]
        complement.append(seeds.complement + n)
        n, nnz = n + graph.n_vertices, nnz + a.nnz
    # Offset canonical blocks stay canonical, and their float64 data read-only.
    data = np.concatenate([g.adjacency.data for g, _ in instances])
    adjacency = sp.csr_matrix((data, np.concatenate(indices), np.concatenate(indptr + [[nnz]])),
                              shape=(n, n))
    degrees = np.concatenate([g.degrees for g, _ in instances])
    data.flags.writeable = degrees.flags.writeable = False
    return (Graph(n, adjacency, degrees), SeedSet(frozenset(members), np.concatenate(complement)),
            offsets)


def compute_moments_batch(instances: Iterable[tuple[Graph, SeedSet]], cfg: CgConfig | None = None
                          ) -> list[MomentTable | HitmixError | ValueError]:
    """compute_moments over (graph, seeds) instances: per instance, in input
    order, its MomentTable or the error compute_moments raises for it.

    Consecutive instances are read and solved a group at a time: a group is
    solved, and its graphs let go, once one more instance as large as its last
    would take it past _GROUP_VERTICES vertices, so equal instances of n
    vertices go max(1, _GROUP_VERTICES // n) to a group. A group is joined into
    one block-diagonal graph, so one reachable_from and one restricted_laplacian
    serve it. Each instance's H is a diagonal block of the joined one, entry for
    entry; its two moment solves run on that block alone (the second only if
    the first converges), so each table is what compute_moments gives alone.
    """
    if cfg is None:
        cfg = CgConfig()
    out, group, n = [], [], 0
    for graph, seeds in instances:
        group.append((graph, seeds))
        n += graph.n_vertices
        if n + graph.n_vertices > _GROUP_VERTICES:
            out += _solve_group(group, cfg)
            group, n = [], 0
    return out + _solve_group(group, cfg) if group else out


def _solve_group(instances: list[tuple[Graph, SeedSet]], cfg: CgConfig) -> list:
    """compute_moments_batch over one group, on its block-diagonal union."""
    graph, seeds, starts = _join(instances)
    reachable = reachable_from(graph, seeds)
    vertices = seeds.complement[reachable]
    h = restricted_laplacian(graph, vertices)
    sqrt_deg = np.sqrt(graph.degrees[vertices])
    out, hi = [], 0
    for (_, s), start, end in zip(instances, starts, starts[1:]):
        mask = reachable[start:end]
        lo, hi = hi, hi + int(np.count_nonzero(mask))
        if lo == hi:
            out.append(ValueError("no non-seed vertex can reach the seed set"))
            continue
        # The instance's block of H: its rows, with column ids shifted to 0..n-1.
        indptr, d = h.indptr[lo:hi + 1], sqrt_deg[lo:hi]
        h.indices[indptr[0]:indptr[-1]] -= lo
        x1, x2 = np.zeros(hi - lo), np.empty(hi - lo)
        # Moment 2's rhs, 2x - b in symmetrized coordinates, lies in moment 1's
        # Krylov space; moment 2 starts from its Galerkin start there.
        st1 = _cg(indptr, h.indices, h.data, d, x1, cfg, galerkin=x2)
        error = _failure(1, st1)
        if error is None:
            et1 = x1 / d
            # (I - P) E T = 1 turns P E T into E T - 1, so this right-hand side
            # 1 + 2 P E T needs no graph.
            st2 = _cg(indptr, h.indices, h.data, d * (1.0 + 2.0 * (et1 - 1.0)), x2, cfg)
            error = _failure(2, st2)
        if error is not None:
            out.append(error)
            continue
        mean, variance = np.full((2, s.complement.size), np.nan)
        mean[mask] = et1
        # Tiny negatives from solver tolerance are clamped to zero.
        variance[mask] = np.maximum(x2 / d - et1 ** 2, 0.0)
        out.append(MomentTable(s.complement, mean, variance, mask, [st1, st2]))
    return out
