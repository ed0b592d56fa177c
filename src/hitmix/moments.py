"""Hitting-time moment computation.

Raw moments E T^m for every non-seed vertex satisfy a first-step recursion:
the m-th moment solves a linear system whose right-hand side depends on the
lower moments. Each system is solved in symmetrized coordinates (scaled by
D^{1/2}) where the coefficient matrix is SPD, then mapped back.

A vectorized random-walk simulator is included as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .graph import Graph, NonSeedIndex, ReachabilityReport, SeedSet, reachable_from
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
    raw_moments: list[np.ndarray]  # E T^m over reachable vertices, m = 1..order
    cg_stats: list[CgStats]

    def restrict_reachable(self) -> "MomentTable":
        mask = self.reachable
        return MomentTable(self.vertices[mask], self.mean[mask], self.variance[mask],
                           self.reachable[mask], self.raw_moments, self.cg_stats)


def moment_rhs(m: int, lower_moments: list[np.ndarray], lower_rhs: list[np.ndarray],
               n: int) -> np.ndarray:
    """Right-hand side of the m-th moment system in original coordinates.

    First-step analysis gives b_m = 1 + sum_{s=1}^{m-1} C(m, s) P E T^s, and
    (I - P) E T^s = b_s turns each P E T^s into E T^s - b_s, so
    b_m = 1 + sum_{s=1}^{m-1} C(m, s) (E T^s - b_s) needs no graph.
    """
    if m < 1:
        raise ValueError("moment order must be >= 1")
    if len(lower_moments) != m - 1 or len(lower_rhs) != m - 1:
        raise ValueError(f"expected {m - 1} lower moment and right-hand side vectors, "
                         f"got {len(lower_moments)} and {len(lower_rhs)}")
    b = np.ones(n)
    for s, (et_s, b_s) in enumerate(zip(lower_moments, lower_rhs), start=1):
        if np.shape(et_s) != (n,) or np.shape(b_s) != (n,):
            raise ValueError("lower moment or right-hand side vector has wrong length")
        b += comb(m, s) * (et_s - b_s)
    return b


def compute_moments(graph: Graph, seeds: SeedSet, order: int = 2,
                    cfg: CgConfig | None = None,
                    report: ReachabilityReport | None = None) -> MomentTable:
    """Solve the moment systems for m = 1..order and assemble mean/variance."""
    if order < 2:
        raise ValueError("order must be >= 2 to produce a variance")
    if cfg is None:
        cfg = CgConfig()
    if report is None:
        report = reachable_from(graph, seeds)
    complement = seeds.complement
    if not report.reachable.any():
        raise ValueError("no non-seed vertex can reach the seed set")

    reach_vertices = complement[report.reachable]
    index = NonSeedIndex.from_vertices(graph.n_vertices, reach_vertices)
    op = RestrictedOperator(graph, index)
    sqrt_deg = np.sqrt(graph.degrees[reach_vertices].astype(np.float64))

    raw: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    stats: list[CgStats] = []
    for m in range(1, order + 1):
        b = moment_rhs(m, raw, rhs, index.size)
        x_tilde, st = conjugate_gradient(op, sqrt_deg * b, cfg)
        if not st.converged:
            raise MomentConvergenceError(m, st)
        raw.append(x_tilde / sqrt_deg)
        rhs.append(b)
        stats.append(st)

    n_c = complement.size
    mean = np.full(n_c, np.nan)
    variance = np.full(n_c, np.nan)
    mean[report.reachable] = raw[0]
    # Tiny negatives from solver tolerance are clamped to zero.
    variance[report.reachable] = np.maximum(raw[1] - raw[0] ** 2, 0.0)
    return MomentTable(complement, mean, variance, report.reachable, raw, stats)


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
