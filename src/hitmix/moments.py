"""Hitting-time moment computation.

First-step analysis gives, over the non-seed vertices, (I - P) E T = 1 and
(I - P) E T^2 = 1 + 2 P E T (Kemeny & Snell, Finite Markov Chains). Both
systems are solved in symmetrized coordinates (scaled by D^{1/2}), where the
coefficient matrix is SPD, then mapped back.

A vectorized random-walk simulator is included as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, SeedSet, reachable_from
from .solver import (CgConfig, CgStats, HitmixError, RestrictedOperator,
                     conjugate_gradient)


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


def compute_moments(graph: Graph, seeds: SeedSet,
                    cfg: CgConfig | None = None) -> MomentTable:
    """Solve the E T and E T^2 systems and assemble mean/variance."""
    if cfg is None:
        cfg = CgConfig()
    reachable = reachable_from(graph, seeds)
    if not reachable.any():
        raise ValueError("no non-seed vertex can reach the seed set")

    vertices = seeds.complement[reachable]
    op = RestrictedOperator(graph, vertices)
    sqrt_deg = np.sqrt(graph.degrees[vertices].astype(np.float64))
    stats: list[CgStats] = []

    def solve(order: int, b: np.ndarray) -> np.ndarray:
        x_tilde, st = conjugate_gradient(op, sqrt_deg * b, cfg)
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


def simulate_hitting_times(graph: Graph, seeds: SeedSet, start_vertex: int,
                           n_walks: int, max_steps: int,
                           rng_seed: int | None = None
                           ) -> tuple[float, float, int]:
    """Monte Carlo oracle: sample mean/variance of the hitting time.

    Walks step to a neighbor with probability proportional to edge
    multiplicity and stop on entering the seed set. Returns moments over the
    non-truncated walks plus the truncation count.
    """
    if start_vertex in seeds.members:
        raise ValueError("start vertex lies in the seed set")
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    adj = graph.adjacency
    deg = graph.degrees
    if deg[start_vertex] == 0:
        raise ValueError("start vertex is isolated")
    n = graph.n_vertices
    d_max = int(np.diff(adj.indptr).max())
    nbr_pad = np.zeros((n, d_max), dtype=np.int64)
    cum_pad = np.ones((n, d_max))
    for v in range(n):
        lo, hi = adj.indptr[v], adj.indptr[v + 1]
        k = hi - lo
        if k == 0:
            continue
        nbr_pad[v, :k] = adj.indices[lo:hi]
        cum_pad[v, :k] = np.cumsum(adj.data[lo:hi]) / deg[v]
    in_seed = np.zeros(n, dtype=bool)
    in_seed[list(seeds.members)] = True

    rng = np.random.default_rng(rng_seed)
    pos = np.full(n_walks, start_vertex, dtype=np.int64)
    hit_time = np.zeros(n_walks, dtype=np.int64)
    active = np.arange(n_walks)
    for t in range(1, max_steps + 1):
        r = rng.random(active.size)
        rows = cum_pad[pos[active]]
        choice = (rows > r[:, None]).argmax(axis=1)
        pos[active] = nbr_pad[pos[active], choice]
        hit = in_seed[pos[active]]
        hit_time[active[hit]] = t
        active = active[~hit]
        if active.size == 0:
            break

    truncated = active.size
    done = hit_time[hit_time > 0]
    if done.size == 0:
        raise RuntimeError("all walks truncated before hitting the seed set")
    sample_mean = float(done.mean())
    sample_var = float(done.var(ddof=1)) if done.size > 1 else 0.0
    return sample_mean, sample_var, truncated
