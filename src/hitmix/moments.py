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

from .graph import Graph, SeedSet, reachable_from
from .solver import CgConfig, CgStats, HitmixError, conjugate_gradient


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

    def restrict_reachable(self) -> "MomentTable":
        mask = self.reachable
        return MomentTable(self.vertices[mask], self.mean[mask], self.variance[mask],
                           self.reachable[mask], self.cg_stats)


def restricted_laplacian(graph: Graph, vertices: np.ndarray) -> sp.csr_matrix:
    """CSR H = I - D^{-1/2} A D^{-1/2} over a vertex subset. Off-diagonal entries
    round as (d_i a_ij) d_j, the order that fixed-seed outputs were made with."""
    deg = graph.degrees[vertices]
    if vertices.size and deg.min() <= 0:
        raise ValueError("subset contains an isolated vertex (degree 0); "
                         "filter unreachable vertices first")
    inv_sqrt_deg = 1.0 / np.sqrt(deg)
    a = graph.adjacency[vertices][:, vertices]  # a fresh, writeable copy
    a.data *= np.repeat(inv_sqrt_deg, np.diff(a.indptr))
    a.data *= inv_sqrt_deg[a.indices]
    return sp.identity(vertices.size, format="csr") - a


def compute_moments(graph: Graph, seeds: SeedSet,
                    cfg: CgConfig | None = None) -> MomentTable:
    """Solve the E T and E T^2 systems and assemble mean/variance."""
    if cfg is None:
        cfg = CgConfig()
    reachable = reachable_from(graph, seeds)
    if not reachable.any():
        raise ValueError("no non-seed vertex can reach the seed set")

    vertices = seeds.complement[reachable]
    h = restricted_laplacian(graph, vertices)
    sqrt_deg = np.sqrt(graph.degrees[vertices])
    stats: list[CgStats] = []

    def solve(order: int, b: np.ndarray) -> np.ndarray:
        x_tilde, st = conjugate_gradient(h, sqrt_deg * b, cfg)
        if not st.converged:
            raise MomentConvergenceError(order, st)
        stats.append(st)
        return x_tilde / sqrt_deg

    et1 = solve(1, np.ones(vertices.size))
    # (I - P) E T = 1 turns P E T into E T - 1, so this right-hand side
    # 1 + 2 P E T needs no graph.
    et2 = solve(2, 1.0 + 2.0 * (et1 - 1.0))

    n_c = seeds.complement.size
    mean = np.full(n_c, np.nan)
    variance = np.full(n_c, np.nan)
    mean[reachable] = et1
    # Tiny negatives from solver tolerance are clamped to zero.
    variance[reachable] = np.maximum(et2 - et1 ** 2, 0.0)
    return MomentTable(seeds.complement, mean, variance, reachable, stats)

