"""Lognormal mixture over per-vertex hitting-time distributions.

Pipeline: per-vertex method-of-moments lognormal fit -> the two sufficient
statistics of m pseudo-samples -> EM fit of a g-component lognormal mixture
(grouped by vertex, all samples of a vertex share one component) -> BIC model
selection -> membership threshold.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .graph import Graph, SeedSet
from .moments import MomentTable, compute_moments
from .solver import CgConfig, HitmixError

log = logging.getLogger(__name__)

_COLLAPSE_EPS = 1e-12
_SIGMA2_FLOOR = 1e-8


class EmCollapseError(HitmixError):
    """A mixture component lost all its weight (nk / n < 1e-12) in an M-step."""


@dataclass(frozen=True)
class LognormalParams:
    mu: float | np.ndarray       # arrays when fitted to arrays of moments
    sigma2: float | np.ndarray


@dataclass
class VertexSamples:
    """Sufficient statistics of m positive pseudo-samples t_i1..t_im per vertex."""

    s1: np.ndarray         # sum_j log t_ij
    s2: np.ndarray         # sum_j (log t_ij)^2
    m: int

    @cached_property
    def em_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows [1, s1_i, s2_i], their transpose and the rows in stable order
        of s1: the read-only inputs that every EM fit on these samples shares."""
        stats = np.column_stack([np.ones(self.s1.size), self.s1, self.s2])
        return stats, np.ascontiguousarray(stats.T), stats[np.argsort(self.s1, kind="stable")]


@dataclass
class MixtureFit:
    g: int
    components: list[LognormalParams]
    weights: np.ndarray              # pi_k, sums to 1
    responsibilities: np.ndarray     # (n_vertices, g) view, not C-contiguous; rows sum to 1
    log_likelihood: float
    ll_history: list[float]
    iterations: int
    converged: bool


@dataclass
class HitmixConfig:
    m: int = 25
    g_candidates: tuple[int, ...] = (2, 3, 4, 5)
    tau: float = 0.5
    em_max_iters: int = 500
    em_rel_tol: float = 1e-8
    rng_seed: int = 0
    cg: CgConfig = field(default_factory=CgConfig)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        gs = self.g_candidates
        if not gs or min(gs) < 2 or len(set(gs)) < len(gs):
            raise ValueError("g candidates must be one or more distinct integers >= 2")
        if self.em_max_iters < 1:
            raise ValueError("em_max_iters must be >= 1")
        if not (0.0 <= self.em_rel_tol < 1.0):
            raise ValueError("em_rel_tol must lie in [0, 1)")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass
class MembershipResult:
    posterior: np.ndarray       # P(v in goal set) per row of moments, 0 for unreachable
    labels: np.ndarray          # bool, posterior > tau
    selected_g: int
    goal_component: int
    bic_by_g: dict[int, float]
    fits: dict[int, MixtureFit]
    moments: MomentTable

    @property
    def goal_set(self) -> np.ndarray:
        return self.moments.vertices[self.labels]

    @property
    def fit(self) -> MixtureFit:
        return self.fits[self.selected_g]


def lognormal_mom(m1: float | np.ndarray, m2: float | np.ndarray) -> LognormalParams:
    """Method-of-moments lognormal parameters from a mean and variance.

    Takes scalars or arrays and returns parameters of the same shape.
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if (m1 <= 0).any():
        raise ValueError("mean must be positive")
    if (m2 < 0).any():
        raise ValueError("variance must be non-negative")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = m2 / m1 ** 2
    if not np.isfinite(ratio).all():
        raise ValueError("variance / mean**2 is not finite in float64: "
                         "the mean is too small or the variance too large")
    sigma2 = np.maximum(np.log1p(ratio), _SIGMA2_FLOOR)
    return LognormalParams(np.log(m1) - sigma2 / 2.0, sigma2)


def draw_pseudo_samples(moments: MomentTable, m: int, rng_seed: int) -> VertexSamples:
    """Sufficient statistics of m lognormal variates per reachable vertex of
    moments, in row order, from its MOM fit.

    With z_1..z_m iid N(0, 1), sum z ~ N(0, m), and sum z^2 - (sum z)^2 / m ~
    chi2_{m-1} independently of sum z (Cochran's theorem). Two variates per
    vertex therefore give (s1, s2) with exactly the law of the statistics of m
    draws. Each variate comes from a stream indexed by global vertex id, so a
    vertex's statistics do not depend on which other vertices are present.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    reach = moments.reachable
    params = lognormal_mom(moments.mean[reach], moments.variance[reach])
    ids = moments.vertices[reach]
    size = int(ids.max()) + 1 if ids.size else 0
    z_sum = np.sqrt(m) * np.random.default_rng([rng_seed, 0]).standard_normal(size)[ids]
    # standard_gamma(0) is 0, so m = 1 needs no special case; chisquare(0) raises.
    chi2 = 2.0 * np.random.default_rng([rng_seed, 1]).standard_gamma((m - 1) / 2.0, size)[ids]
    s1 = m * params.mu + np.sqrt(params.sigma2) * z_sum
    s2 = s1 ** 2 / m + params.sigma2 * chi2
    return VertexSamples(s1, s2, m)


def _log_normal_mle(count, sum1, sum2, m: int) -> tuple[np.ndarray, np.ndarray]:
    """mu and floored sigma2 of log t from (weighted) vertex counts and s1, s2
    sums, elementwise over arrays of any one shape."""
    n_obs = m * count
    mu = sum1 / n_obs
    return mu, np.maximum(sum2 / n_obs - mu * mu, _SIGMA2_FLOOR)


def _em_fit_batch(samples: list[VertexSamples], g: int, cfg: HitmixConfig,
                  work: np.ndarray) -> list[MixtureFit | EmCollapseError]:
    """EM for a g-component lognormal mixture over grouped vertex samples, for
    R >= 1 runs at once, unchecked: the runs share m and each has at least
    g >= 2 vertices; fit_candidates passes only such runs. Per run, in input
    order, its fit or the EmCollapseError of the first M-step that left a
    component weight below 1e-12.

    log prod_j f(t_ij; theta_k) = -s1_i + [1, s1_i, s2_i] . w_k, so the E-step
    is one stacked (g x 3) @ (3 x n) product, reduced over the g rows into
    responsibilities, and the M-step reads resp @ [1, s1, s2]. The runs are
    zero-padded to the longest, n_max, and work is a scratch C-contiguous
    float64 (g + 2, R, n_max) array: work[:g] holds the E-step and then the
    responsibilities, work[g] the per-vertex max and work[g + 1] the total.
    The parameter step runs on (R, g) arrays. A run leaves
    the batch when it converges, collapses or reaches em_max_iters, and the
    rest are compacted. Each fit is bit for bit what it is alone: padded
    vertices add exact zeros to the M-step, and each run's log-likelihood is
    summed over exactly its own n entries. The responsibilities of the runs
    that leave last are views of work; the others are copied out.
    """
    m = samples[0].m
    ns = np.array([s.s1.size for s in samples])
    n_runs, n_max = ns.size, int(ns.max())

    # Rows in falling n, so that runs of equal n are contiguous: each group's
    # log-likelihoods are one pairwise sum per row over exactly its n entries.
    ids = np.argsort(-ns, kind="stable")
    ns = ns[ids]
    runs = [samples[i] for i in ids.tolist()]
    if n_runs == 1:
        stats, stats_t, _ = runs[0].em_stats
        stats, stats_t = stats[None], stats_t[None]
    else:
        stats = np.zeros((n_runs, n_max, 3))
        for row, s in zip(stats, runs):
            row[:s.s1.size] = s.em_stats[0]
        stats_t = np.ascontiguousarray(stats.transpose(0, 2, 1))
    log_jacobian = np.array([-float(s.s1.sum()) for s in runs])

    # Deterministic init: quantile split on the per-vertex mean of log t.
    start = np.array([[part.sum(axis=0) for part in np.array_split(s.em_stats[2], g)]
                      for s in runs])
    mus, sigma2s = _log_normal_mle(start[..., 0], start[..., 1], start[..., 2], m)
    pis = np.full((n_runs, g), 1.0 / g)

    # Each item's transpose is the (g, 3) E-step weight matrix in the Fortran
    # order that fixed-seed outputs were made with.
    w = np.empty((n_runs, 3, g))
    histories: list[list[float]] = [[] for _ in runs]
    ll = np.full(n_runs, np.nan)  # NaN: no run converges at the first iteration
    out: list = [None] * n_runs

    def groups():
        edges = [0, *(np.flatnonzero(np.diff(ns)) + 1).tolist(), ns.size]
        return [(a, b, int(ns[a])) for a, b in zip(edges[:-1], edges[1:])]

    def leave(rows, it, converged, mus, sigma2s, pis, last):
        # at[r] is where row r's responsibilities lie in work.
        for r in rows:
            resp = work[:g, at[r], :ns[r]]
            out[ids[r]] = MixtureFit(
                g, [LognormalParams(mu, s2) for mu, s2 in zip(mus[r].tolist(), sigma2s[r].tolist())],
                pis[r].copy(), (resp if last else resp.copy()).T, histories[r][-1], histories[r],
                it, converged)

    spans = groups()
    for it in range(1, cfg.em_max_iters + 1):
        # E-step in log space, shifted by the per-vertex maximum, in place.
        r = ns.size
        at = range(r)
        joint, top, total = work[:g, :r], work[g, :r], work[g + 1, :r]
        w_r = w[:r]
        w_r[:, 0] = -0.5 * m * np.log(2.0 * np.pi * sigma2s) - m * (mus * mus) / (2.0 * sigma2s)
        np.divide(mus, sigma2s, out=w_r[:, 1])
        np.divide(-0.5, sigma2s, out=w_r[:, 2])
        np.matmul(w_r.transpose(0, 2, 1), stats_t, out=joint.transpose(1, 0, 2))
        joint += np.log(pis).T[:, :, None]
        np.maximum.reduce(joint, axis=0, out=top)
        joint -= top
        np.exp(joint, out=joint)
        np.add.reduce(joint, axis=0, out=total)
        joint /= total
        np.log(total, out=total)
        total += top
        ll_new = np.concatenate([total[a:b, :n].sum(axis=1) for a, b, n in spans])
        ll_new += log_jacobian
        for history, value in zip(histories, ll_new.tolist()):
            history.append(value)
        converged = np.abs(ll_new - ll) <= cfg.em_rel_tol * np.maximum(1.0, np.abs(ll))
        ll = ll_new
        if converged.all():
            leave(range(ns.size), it, True, mus, sigma2s, pis, True)
            break

        # M-step. Under OpenBLAS this form rounds like the product over an
        # (n, g) layout that fixed-seed outputs were made with; resp @ stats
        # rounds differently at g = 2 and 3.
        sums = np.matmul(stats.transpose(0, 2, 1), joint.transpose(1, 2, 0))
        new_pis = sums[:, 0] / ns[:, None]
        leaving = converged | (new_pis < _COLLAPSE_EPS).any(axis=1)
        last = it == cfg.em_max_iters
        if leaving.any():
            leave(np.flatnonzero(converged).tolist(), it, True, mus, sigma2s, pis, last)
            for row in np.flatnonzero(leaving & ~converged).tolist():
                out[ids[row]] = EmCollapseError(f"EM component collapsed (g={g}, iter={it})")
            keep = ~leaving
            if not keep.any():
                break
            at = np.flatnonzero(keep)
            sums, new_pis, ns, ids, ll = sums[keep], new_pis[keep], ns[keep], ids[keep], ll[keep]
            stats, stats_t, log_jacobian = stats[keep], stats_t[keep], log_jacobian[keep]
            histories = [h for h, k in zip(histories, keep.tolist()) if k]
            spans = groups()
        mus, sigma2s = _log_normal_mle(sums[:, 0], sums[:, 1], sums[:, 2], m)
        pis = new_pis
        if last:
            leave(range(ns.size), it, False, mus, sigma2s, pis, True)
    return out


def bic(fit: MixtureFit, n_vertices: int, m: int) -> float:
    """Schwarz criterion, lower is better: p ln(N) - 2 log L over N = n m samples."""
    p = 3 * fit.g - 1
    return float(p * np.log(n_vertices * m) - 2.0 * fit.log_likelihood)


def component_means(fit: MixtureFit) -> np.ndarray:
    """Fitted lognormal means exp(mu_k + sigma2_k / 2) per component."""
    return np.array([np.exp(c.mu + c.sigma2 / 2.0) for c in fit.components])


def fit_candidates(samples: list[VertexSamples], cfg: HitmixConfig
                   ) -> list[dict[int, MixtureFit | EmCollapseError]]:
    """One _em_fit_batch per g of cfg.g_candidates over the runs with at least g
    vertices. Per run, in input order: g -> its fit or its collapse, for each
    feasible g. With more than one g the batches run on threads (NumPy and
    OpenBLAS release the GIL), largest g first, in work arrays made before the
    threads start: memory freed in a worker thread stays in its malloc arena
    and raises the peak RSS. os.cpu_count() reads sysfs, so one g skips it."""
    sizes = [s.s1.size for s in samples]
    for s in samples:
        s.em_stats  # computed once, before the threads share it
    rows = {g: [i for i, n in enumerate(sizes) if g <= n]
            for g in sorted(cfg.g_candidates, reverse=True)}
    calls = {g: partial(_em_fit_batch, [samples[i] for i in idx], g, cfg,
                        np.empty((g + 2, len(idx), max(sizes[i] for i in idx))))
             for g, idx in rows.items() if idx}
    workers = min(len(calls), os.cpu_count() or 1) if len(calls) > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            calls = {g: pool.submit(call).result for g, call in calls.items()}
    out: list[dict] = [{} for _ in samples]
    for g, call in calls.items():
        for i, fit in zip(rows[g], call()):
            out[i][g] = fit
    return out


def select_membership(moments: MomentTable, fits: dict[int, MixtureFit | EmCollapseError],
                      cfg: HitmixConfig) -> MembershipResult:
    """BIC selection over the fits of one instance -> goal membership at
    threshold tau. A g of cfg.g_candidates that has no fit (more components
    than vertices) or whose EM collapsed is skipped with a warning;
    EmCollapseError is raised only if no g fits."""
    fitted: dict[int, MixtureFit] = {}
    collapse = None
    for g in cfg.g_candidates:
        fit = fits.get(g)
        if fit is None:
            log.warning("skipping g=%d: more components than vertices", g)
        elif isinstance(fit, EmCollapseError):
            log.warning("skipping g=%d: %s", g, fit)
            collapse = fit
        else:
            fitted[g] = fit
    if not fitted:
        raise collapse or ValueError("no feasible g candidate for this instance")
    bic_by_g = {g: bic(fit, len(fit.responsibilities), cfg.m) for g, fit in fitted.items()}

    selected_g = min(bic_by_g, key=lambda g: (bic_by_g[g], g))
    fit = fitted[selected_g]
    goal = int(np.argmin(component_means(fit)))

    posterior = np.zeros(moments.vertices.size)
    posterior[moments.reachable] = fit.responsibilities[:, goal]
    labels = posterior > cfg.tau
    return MembershipResult(posterior, labels, selected_g, goal, bic_by_g, fitted, moments)


def hitmix_batch(instances: Iterable[tuple[Graph, SeedSet, int]], cfg: HitmixConfig
                 ) -> Iterator[MembershipResult | HitmixError | ValueError]:
    """hitmix over (graph, seeds, rng_seed) instances, each with its rng_seed in
    place of cfg.rng_seed: compute_moments -> draw_pseudo_samples per instance
    as it is read, so that the fits keep its table and samples but not its
    graph, then fit_candidates over all instances. Yields, per instance in
    input order, its MembershipResult or the error hitmix raises for it; its
    select_membership, and so its warnings, come when it is yielded."""
    done = []   # per instance: (its table, its samples) or (None, its error)
    for graph, seeds, rng_seed in instances:
        try:
            table = compute_moments(graph, seeds, cfg.cg)
            done.append((table, draw_pseudo_samples(table, cfg.m, rng_seed)))
        except (HitmixError, ValueError) as exc:
            done.append((None, exc))
    fits = iter(fit_candidates([s for _, s in done if isinstance(s, VertexSamples)], cfg))
    for table, result in done:
        if isinstance(result, VertexSamples):
            try:
                result = select_membership(table, next(fits), cfg)
            except (HitmixError, ValueError) as exc:
                result = exc
        yield result


def hitmix(graph: Graph, seeds: SeedSet, cfg: HitmixConfig | None = None) -> MembershipResult:
    """Full pipeline for one instance: the one-instance call of hitmix_batch,
    with cfg.rng_seed. Raises the error it yields."""
    if cfg is None:
        cfg = HitmixConfig()
    result, = hitmix_batch([(graph, seeds, cfg.rng_seed)], cfg)
    if isinstance(result, Exception):
        raise result
    return result
