"""Lognormal mixture over per-vertex hitting-time distributions.

Pipeline: per-vertex method-of-moments lognormal fit -> the two sufficient
statistics of m pseudo-samples -> EM fit of a g-component lognormal mixture
(grouped by vertex, all samples of a vertex share one component) -> BIC model
selection -> membership threshold.
"""

from __future__ import annotations

import logging
import math
import os
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
        of s1: the read-only inputs that every em_fit on these samples shares."""
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
    sigma2 = np.maximum(np.log1p(m2 / m1 ** 2), _SIGMA2_FLOOR)
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


def _log_normal_mle(count: float, sum1: float, sum2: float, m: int) -> tuple[float, float]:
    """mu and floored sigma2 of log t from a (weighted) vertex count and s1, s2 sums."""
    n_obs = m * count
    mu = sum1 / n_obs
    return mu, max(sum2 / n_obs - mu * mu, _SIGMA2_FLOOR)


def em_fit(samples: VertexSamples, g: int, cfg: HitmixConfig | None = None, *,
           work: np.ndarray | None = None) -> MixtureFit:
    """EM for a g-component lognormal mixture over grouped vertex samples.

    log prod_j f(t_ij; theta_k) = -s1_i + [1, s1_i, s2_i] . w_k, so the E-step
    is one (g x 3) @ (3 x n) product, reduced over g rows into (g, n)
    responsibilities, and the M-step reads resp @ [1, s1, s2]. Raises
    EmCollapseError at the first M-step that leaves a component weight below 1e-12.

    The E-step runs in work, a C-contiguous float64 (g + 2, n) array, made here
    if None: rows [:g] hold it and then the responsibilities, returned as the
    view work[:g].T; row g holds the per-vertex max and row g + 1 the total.

    The g-sized step (E-step weights, M-step, mixture weights) runs on Python
    floats, which round as NumPy's arrays do. Every log and exp stays in NumPy,
    whose SIMD loops (AVX-512) need not round like math's.
    """
    if cfg is None:
        cfg = HitmixConfig()
    if g < 2:
        raise ValueError("g must be >= 2")
    n, m = samples.s1.size, samples.m
    if g > n:
        raise ValueError(f"g = {g} exceeds number of vertices ({n})")

    work = np.empty((g + 2, n)) if work is None else work
    if work.shape != (g + 2, n) or work.dtype != np.float64 or not work.flags.c_contiguous:
        raise ValueError(f"work must be a C-contiguous float64 array of shape {(g + 2, n)}")
    joint, top, total = work[:g], work[g], work[g + 1]
    stats, stats_t, sorted_stats = samples.em_stats
    log_jacobian = -float(samples.s1.sum())

    # Deterministic init: quantile split on the per-vertex mean of log t.
    params = [_log_normal_mle(*part.sum(axis=0).tolist(), m)
              for part in np.array_split(sorted_stats, g)]
    pis = [1.0 / g] * g

    ll_history: list[float] = []
    ll = -np.inf
    for it in range(1, cfg.em_max_iters + 1):
        # E-step in log space, shifted by the per-vertex maximum, in place. w_t
        # keeps the Fortran order that fixed-seed outputs were made with.
        log_norm = np.log([2.0 * np.pi * s2 for _, s2 in params]).tolist()
        w_t = np.array([[-0.5 * m * c - m * (mu * mu) / (2.0 * s2), mu / s2, -0.5 / s2]
                        for (mu, s2), c in zip(params, log_norm)], order="F")
        np.matmul(w_t, stats_t, out=joint)
        joint += np.log(pis)[:, None]
        np.maximum.reduce(joint, axis=0, out=top)
        joint -= top
        np.exp(joint, out=joint)
        np.add.reduce(joint, axis=0, out=total)
        joint /= total
        np.log(total, out=total)
        total += top
        ll_new = float(total.sum()) + log_jacobian
        ll_history.append(ll_new)
        converged = math.isfinite(ll) and abs(ll_new - ll) <= cfg.em_rel_tol * max(1.0, abs(ll))
        ll = ll_new
        if converged:
            break

        # M-step. Under OpenBLAS this form rounds like the product over an
        # (n, g) layout that fixed-seed outputs were made with; resp @ stats
        # rounds differently at g = 2 and 3.
        sums = (stats.T @ joint.T).T.tolist()
        pis = [count / n for count, _, _ in sums]
        if any(pi < _COLLAPSE_EPS for pi in pis):
            raise EmCollapseError(f"EM component collapsed (g={g}, iter={it})")
        params = [_log_normal_mle(*row, m) for row in sums]

    components = [LognormalParams(mu, s2) for mu, s2 in params]
    return MixtureFit(g, components, np.array(pis), joint.T, ll, ll_history, it, converged)


def bic(fit: MixtureFit, n_vertices: int, m: int) -> float:
    """Schwarz criterion, lower is better: p ln(N) - 2 log L over N = n m samples."""
    p = 3 * fit.g - 1
    return float(p * np.log(n_vertices * m) - 2.0 * fit.log_likelihood)


def component_means(fit: MixtureFit) -> np.ndarray:
    """Fitted lognormal means exp(mu_k + sigma2_k / 2) per component."""
    return np.array([np.exp(c.mu + c.sigma2 / 2.0) for c in fit.components])


def hitmix(graph: Graph, seeds: SeedSet,
           cfg: HitmixConfig | None = None) -> MembershipResult:
    """Full pipeline: moments -> pseudo-samples -> EM over g candidates ->
    BIC selection -> goal membership at threshold tau. A g whose EM collapses
    is skipped with a warning; EmCollapseError is raised only if no g fits."""
    if cfg is None:
        cfg = HitmixConfig()
    moments = compute_moments(graph, seeds, cfg.cg)
    samples = draw_pseudo_samples(moments, cfg.m, cfg.rng_seed)

    n = samples.s1.size
    # The fits are independent; NumPy and OpenBLAS release the GIL, so they run
    # on threads, largest g first. Each fit's work array is made here first: arrays
    # freed in a worker thread stay in its malloc arena and raise the peak RSS.
    samples.em_stats  # computed once, before the threads share it
    # calls[g](), for each feasible g, returns its fit or raises what EM raised.
    calls = {g: partial(em_fit, samples, g, cfg, work=np.empty((g + 2, n)))
             for g in cfg.g_candidates if g <= n}
    # os.cpu_count() reads sysfs on every call, so one feasible g skips it.
    workers = min(len(calls), os.cpu_count() or 1) if len(calls) > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            calls = {g: pool.submit(calls[g]).result for g in sorted(calls, reverse=True)}

    fits: dict[int, MixtureFit] = {}
    collapse = None
    for g in cfg.g_candidates:
        if g not in calls:
            log.warning("skipping g=%d: more components than vertices", g)
            continue
        try:
            fits[g] = calls[g]()
        except EmCollapseError as exc:
            log.warning("skipping g=%d: %s", g, exc)
            collapse = exc
    if not fits:
        raise collapse or ValueError("no feasible g candidate for this instance")
    bic_by_g = {g: bic(fit, n, cfg.m) for g, fit in fits.items()}

    selected_g = min(bic_by_g, key=lambda g: (bic_by_g[g], g))
    fit = fits[selected_g]
    goal = int(np.argmin(component_means(fit)))

    posterior = np.zeros(moments.vertices.size)
    posterior[moments.reachable] = fit.responsibilities[:, goal]
    labels = posterior > cfg.tau
    return MembershipResult(posterior, labels, selected_g, goal, bic_by_g, fits, moments)
