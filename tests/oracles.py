"""Independent oracles and fixtures shared by the test modules.

The dense, sparse-LU and long-double tridiagonal solves and the Monte Carlo
walk simulator check the CG moments of `hitmix.moments.compute_moments` by
routes that share no code with it; the breadth-first search checks
`hitmix.graph.reachable_from`; `concat_sort_graph_arrays` is the CSR build
that `hitmix.graph.Graph.from_edges` must equal byte for byte, with every
buffer alive to the end;
`reference_em_fit` is EM with its parameter step in NumPy arrays, which the
private kernel `hitmix.mixture._em_fit_batch` must equal bit for bit on each
run; `reference_cg` is conjugate gradients that test ||x|| at every step,
which the private kernel `hitmix.solver._cg`, started from 0, must equal bit
for bit; `reference_run` is one sbm-sim run through the one-instance pipeline
`hitmix()`, which every record of `hitmix.sbm.run_simulation` must equal.
"""

import logging
import math
import tracemalloc

import io
from collections import deque
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy
from scipy.sparse.linalg import splu

from hitmix.graph import Graph, SeedSet, load_edge_list, reachable_from
from hitmix.metrics import adjusted_rand_index, precision_recall_f1
from hitmix.mixture import (EmCollapseError, HitmixConfig, LognormalParams,
                            MixtureFit, VertexSamples, hitmix)
from hitmix.sbm import RunRecord, SbmConfig, SimulationSpec, sample_hitting_set, sample_sbm
from hitmix.solver import _BACKWARD_ERROR_FLOOR, _PIECE, CgConfig, CgStats, HitmixError, NonSpdError

log = logging.getLogger("hitmix.sbm")


def path3():
    """The path 0 - 1 - 2 seeded at 2: E T = (4, 3), Var T = (8, 8)."""
    return load_edge_list(io.StringIO("0 1\n1 2")), SeedSet.from_members([2], 3)


def barbell_graph(k, length):
    """Two K_k joined by a path through `length` extra vertices."""
    iu, ju = np.triu_indices(k, 1)
    bridge = np.arange(k - 1, k + length + 1)
    u = np.concatenate([iu, bridge[:-1], iu + k + length])
    v = np.concatenate([ju, bridge[1:], ju + k + length])
    return Graph.from_edges(2 * k + length, u, v)


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


def tridiagonal_moments(graph, seeds):
    """Mean and variance from long-double Thomas solves of the first-step
    systems, for a graph whose I - P over seeds.complement is tridiagonal (a
    path whose non-seed vertices are numbered along it)."""
    idx = seeds.complement
    a = graph.adjacency[idx][:, idx].tocsr()
    deg = graph.degrees[idx].astype(np.longdouble)
    lower = -a.diagonal(-1).astype(np.longdouble) / deg[1:]
    diag = 1.0 - a.diagonal().astype(np.longdouble) / deg
    upper = -a.diagonal(1).astype(np.longdouble) / deg[:-1]
    assert a.nnz == np.count_nonzero(a.diagonal(-1)) + np.count_nonzero(a.diagonal()) \
        + np.count_nonzero(a.diagonal(1)), "I - P is not tridiagonal"
    n = idx.size
    # Forward elimination once; each rhs is then one forward and one back pass.
    d, w = diag.copy(), np.zeros(n, dtype=np.longdouble)
    for i in range(1, n):
        w[i] = lower[i - 1] / d[i - 1]
        d[i] -= w[i] * upper[i - 1]

    def solve(rhs):
        y = rhs.astype(np.longdouble)
        for i in range(1, n):
            y[i] -= w[i] * y[i - 1]
        y[-1] /= d[-1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - upper[i] * y[i + 1]) / d[i]
        return y

    m1 = solve(np.ones(n))
    p_m1 = (1.0 - diag) * m1
    p_m1[:-1] -= upper * m1[1:]
    p_m1[1:] -= lower * m1[:-1]
    m2 = solve(1.0 + 2.0 * p_m1)
    return m1, m2 - m1 ** 2


def concat_sort_graph_arrays(n_vertices: int, u, v) -> tuple[np.ndarray, ...]:
    """indptr, indices, data and degrees of the graph on the pairs (u, v), by
    sorting the concatenated keys row << 32 | col of both directions and
    counting each row's keys for its degree."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    keys = np.sort(np.concatenate([u << 32 | v, v << 32 | u]))
    first = np.flatnonzero(np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]]))
    entries = keys[first]
    indptr = np.append(0, np.bincount(entries >> 32, minlength=n_vertices).cumsum())
    counts = np.diff(first, append=keys.size).astype(np.float64)
    a = sp.csr_matrix((counts, entries & 0xFFFFFFFF, indptr), shape=(n_vertices, n_vertices))
    degrees = np.bincount(keys >> 32, minlength=n_vertices).astype(np.float64)
    return a.indptr, a.indices, a.data, degrees


def traced_peak(fn, *args) -> tuple[object, int]:
    """fn(*args) and the most bytes that tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bfs_reachable(n_vertices: int, u, v, seeds: SeedSet) -> np.ndarray:
    """Breadth-first search over the edge pairs from every seed: is each
    vertex of seeds.complement reached?"""
    neighbours = [[] for _ in range(n_vertices)]
    for a, b in zip(u, v):
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen = set(seeds.members)
    queue = deque(seen)
    while queue:
        for b in neighbours[queue.popleft()]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return np.array([w in seen for w in seeds.complement.tolist()], dtype=bool)


def _array_log_normal_mle(sums: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    n_obs = m * sums[..., 0]
    mu = sums[..., 1] / n_obs
    return mu, np.maximum(sums[..., 2] / n_obs - mu ** 2, 1e-8)


def reference_em_fit(samples: VertexSamples, g: int, cfg: HitmixConfig) -> MixtureFit:
    """EM on one run with every per-component step done on length-g NumPy
    arrays and the E-step reduced with axis-0 np.max and np.sum."""
    n, m = samples.s1.size, samples.m
    stats = np.column_stack([np.ones(n), samples.s1, samples.s2])
    stats_t = np.ascontiguousarray(stats.T)
    sorted_stats = stats[np.argsort(samples.s1, kind="stable")]
    work = np.empty((g + 2, n))
    joint, top, total = work[:g], work[g], work[g + 1]
    log_jacobian = -float(samples.s1.sum())

    mus, sigma2s = _array_log_normal_mle(
        np.array([part.sum(axis=0) for part in np.array_split(sorted_stats, g)]), m)
    pis = np.full(g, 1.0 / g)

    ll_history: list[float] = []
    ll = -np.inf
    converged = False
    it = 0
    while it < cfg.em_max_iters:
        it += 1
        w = np.array([-0.5 * m * np.log(2.0 * np.pi * sigma2s) - m * mus ** 2 / (2.0 * sigma2s),
                      mus / sigma2s,
                      -0.5 / sigma2s])
        np.matmul(w.T, stats_t, out=joint)
        joint += np.log(pis)[:, None]
        np.max(joint, axis=0, out=top)
        joint -= top
        np.exp(joint, out=joint)
        np.sum(joint, axis=0, out=total)
        joint /= total
        np.log(total, out=total)
        total += top
        ll_new = float(total.sum()) + log_jacobian
        ll_history.append(ll_new)
        if np.isfinite(ll) and abs(ll_new - ll) <= cfg.em_rel_tol * max(1.0, abs(ll)):
            ll = ll_new
            converged = True
            break
        ll = ll_new

        sums = (stats.T @ joint.T).T
        nk = sums[:, 0]
        if (nk / n < 1e-12).any():
            raise EmCollapseError(f"EM component collapsed (g={g}, iter={it})")
        mus, sigma2s = _array_log_normal_mle(sums, m)
        pis = nk / n

    components = [LognormalParams(float(mus[k]), float(sigma2s[k])) for k in range(g)]
    return MixtureFit(g, components, pis, joint.T, ll, ll_history, it, converged)


def reference_run(spec: SimulationSpec, cond_idx: int, run_idx: int) -> RunRecord:
    """One sbm-sim run on its own: sample the instance, hitmix() it, score it.
    A HitmixError or ValueError becomes a failed record and one ERROR line."""
    value = spec.values[cond_idx]
    sbm_cfg, hs_size = spec.condition(value)
    rng = np.random.default_rng([spec.seed, cond_idx, run_idx])
    graph, labels = sample_sbm(sbm_cfg, rng)
    seeds = sample_hitting_set(labels, hs_size, rng)
    hm_cfg = replace(spec.hitmix_cfg, rng_seed=int(rng.integers(0, 2 ** 31 - 1)))
    try:
        result = hitmix(graph, seeds, hm_cfg)
    except (HitmixError, ValueError) as exc:
        log.error("hitmix failed (condition=%s run=%d): %s: %s",
                  value, run_idx, type(exc).__name__, exc)
        return RunRecord(value, run_idx, np.nan, np.nan, True, 0, np.nan, np.nan)

    non_seed = result.moments.vertices
    truth_labels = (labels[non_seed] == 0).astype(np.int64)
    ari = adjusted_rand_index(result.labels.astype(np.int64), truth_labels)
    _, _, f1 = precision_recall_f1(result.goal_set, non_seed[truth_labels == 1])
    fit = result.fit
    ll = np.asarray(fit.ll_history)
    max_dec = float(np.maximum(ll[:-1] - ll[1:], 0.0).max()) if ll.size > 1 else 0.0
    row_err = float(np.abs(fit.responsibilities.sum(axis=1) - 1.0).max())
    unreachable = int((~result.moments.reachable).sum())
    return RunRecord(value, run_idx, ari, f1, False, unreachable, max_dec, row_err)


def pieced_dot(a, b):
    """a @ b over consecutive pieces of _PIECE entries, summed in order: the
    order of the CG kernel's dot products (the bits of a @ b up to _PIECE)."""
    s = 0.0
    for i in range(0, a.size, _PIECE):
        s += float(a[i:i + _PIECE] @ b[i:i + _PIECE])
    return s


def pieced_norm(a):
    return math.sqrt(pieced_dot(a, a))


def reference_done(r_norm, x, b_norm, cfg):
    """The stop test of reference_cg, which takes x itself."""
    return bool(r_norm / b_norm <= cfg.rel_tol or r_norm <= _BACKWARD_ERROR_FLOOR
                * (2.0 * pieced_norm(x) + b_norm))


def reference_cg(h: sp.csr_matrix, b: np.ndarray,
                 cfg: CgConfig | None = None) -> tuple[np.ndarray, CgStats]:
    """_cg from 0 that computes x @ x for its floor test at every
    step where the relative-residual test fails, checks finiteness with
    np.isfinite and takes every dot product as pieced_dot. x and r take the
    kernel's fused updates, each one daxpy over the whole vector (it rounds
    each entry once, wherever the entry lies)."""
    if cfg is None:
        cfg = CgConfig()
    b = np.asarray(b, dtype=np.float64)
    n = h.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs length {b.shape} does not match operator size {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")

    b_norm = pieced_norm(b)
    if b_norm == 0.0:
        return np.zeros(n), CgStats(0, 0.0, True)

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = pieced_dot(r, r)
    max_iters = max(1000, 10 * n)

    for k in range(1, max_iters + 1):
        hp = h @ p
        php = pieced_dot(p, hp)
        if not np.isfinite(php) or php <= 1e-14 * pieced_dot(p, p):
            raise NonSpdError(
                "conjugate gradient broke down (non-positive or non-finite "
                "curvature); the operator is not SPD. Filter unreachable "
                "vertices using reachable_from")
        alpha = rr / php
        daxpy(p, x, a=alpha)
        daxpy(hp, r, a=-alpha)
        rr_new = pieced_dot(r, r)
        if not np.isfinite(rr_new):
            raise NonSpdError("non-finite residual in conjugate gradient")
        if reference_done(math.sqrt(rr_new), x, b_norm, cfg) or rr_new == 0.0:
            true_norm = pieced_norm(b - h @ x)
            converged = reference_done(true_norm, x, b_norm, cfg)
            if converged or rr_new == 0.0:
                return x, CgStats(k, true_norm / b_norm, converged)
        p = r + (rr_new / rr) * p
        rr = rr_new

    true_norm = pieced_norm(b - h @ x)
    return x, CgStats(max_iters, true_norm / b_norm,
                      reference_done(true_norm, x, b_norm, cfg))


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
