"""Independent oracles and fixtures shared by the test modules.

The dense and sparse-LU solves and the Monte Carlo walk simulator check the
CG moments of `hitmix.moments.compute_moments` by routes that share no code
with it.
"""

import io

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from hitmix.graph import Graph, SeedSet, load_edge_list, reachable_from
from hitmix.sbm import SbmConfig, sample_sbm


def path3():
    """The path 0 - 1 - 2 seeded at 2: E T = (4, 3), Var T = (8, 8)."""
    return load_edge_list(io.StringIO("0 1\n1 2")), SeedSet.from_members([2], 3)


def random_connected(n, p, seed):
    """ER graph resampled until connected (single-block SBM)."""
    rng = np.random.default_rng(seed)
    while True:
        g, _ = sample_sbm(SbmConfig(1, n, p, 0.0), rng)
        if g.degrees.min() > 0 and reachable_from(
                g, SeedSet.from_members([0], n)).all():
            return g


def dense_moments(graph, seeds):
    """Mean and variance from dense solves of the first-step systems."""
    idx = np.asarray(seeds.complement)
    a = graph.adjacency.toarray().astype(float)
    p_sub = (a / graph.degrees[:, None])[np.ix_(idx, idx)]
    system = np.eye(idx.size) - p_sub
    et1 = np.linalg.solve(system, np.ones(idx.size))
    et2 = np.linalg.solve(system, 1.0 + 2.0 * (p_sub @ et1))
    return et1, et2 - et1 ** 2


def splu_moments(graph, seeds):
    """Mean and variance from sparse LU solves of the first-step systems."""
    idx = seeds.complement
    p_sub = (sp.diags(1.0 / graph.degrees[idx])
             @ graph.adjacency[idx][:, idx].astype(float))
    lu = splu(sp.csc_matrix(sp.identity(idx.size) - p_sub))
    m1 = lu.solve(np.ones(idx.size))
    m2 = lu.solve(1.0 + 2.0 * (p_sub @ m1))
    return m1, m2 - m1 ** 2


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
