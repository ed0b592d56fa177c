"""Lognormal mixture over per-vertex hitting-time distributions.

Pipeline: per-vertex method-of-moments lognormal fit -> the two sufficient
statistics of m pseudo-samples -> EM fit of a g-component lognormal mixture
(grouped by vertex, all samples of a vertex share one component) -> BIC model
selection -> membership threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, SeedSet
from .moments import MomentTable, compute_moments
from .solver import CgConfig, HitmixError

log = logging.getLogger(__name__)

_COLLAPSE_EPS = 1e-12
_SIGMA2_FLOOR = 1e-8
_MAX_RESTARTS = 3


class EmCollapseError(HitmixError):
    """A mixture component collapsed more often than EM may restart it."""


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


@dataclass
class MixtureFit:
    g: int
    components: list[LognormalParams]
    weights: np.ndarray              # pi_k, sums to 1
    responsibilities: np.ndarray     # (n_vertices, g), rows sum to 1
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
        if any(g < 2 for g in self.g_candidates):
            raise ValueError("all g candidates must be >= 2")
        if self.em_max_iters < 1:
            raise ValueError("em_max_iters must be >= 1")


@dataclass
class MembershipResult:
    vertices: np.ndarray        # all non-seed global ids, ascending
    posterior: np.ndarray       # P(v in goal set), 0 for unreachable
    labels: np.ndarray          # bool, posterior > tau
    reachable: np.ndarray
    selected_g: int
    goal_component: int
    bic_by_g: dict[int, float]
    fits: dict[int, MixtureFit]
    moments: MomentTable

    @property
    def goal_set(self) -> np.ndarray:
        return self.vertices[self.labels]

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
    """Sufficient statistics of m lognormal variates per vertex from its MOM fit.

    With z_1..z_m iid N(0, 1), sum z ~ N(0, m), and sum z^2 - (sum z)^2 / m ~
    chi2_{m-1} independently of sum z (Cochran's theorem). Two variates per
    vertex therefore give (s1, s2) with exactly the law of the statistics of m
    draws. Each variate comes from a stream indexed by global vertex id, so a
    vertex's statistics do not depend on which other vertices are present.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not moments.reachable.all():
        raise ValueError("moments contain unreachable vertices; restrict first")
    params = lognormal_mom(moments.mean, moments.variance)
    ids = moments.vertices
    size = int(ids.max()) + 1 if ids.size else 0
    z_sum = np.sqrt(m) * np.random.default_rng([rng_seed, 0]).standard_normal(size)[ids]
    # standard_gamma(0) is 0, so m = 1 needs no special case; chisquare(0) raises.
    chi2 = 2.0 * np.random.default_rng([rng_seed, 1]).standard_gamma((m - 1) / 2.0, size)[ids]
    s1 = m * params.mu + np.sqrt(params.sigma2) * z_sum
    s2 = s1 ** 2 / m + params.sigma2 * chi2
    return VertexSamples(s1, s2, m)


def _log_normal_mle(sums: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """mu and floored sigma2 of log t from rows of (vertex count, sum s1, sum s2),
    each sum possibly weighted by responsibilities."""
    n_obs = m * sums[..., 0]
    mu = sums[..., 1] / n_obs
    return mu, np.maximum(sums[..., 2] / n_obs - mu ** 2, _SIGMA2_FLOOR)


def em_fit(samples: VertexSamples, g: int, cfg: HitmixConfig | None = None) -> MixtureFit:
    """EM for a g-component lognormal mixture over grouped vertex samples.

    log prod_j f(t_ij; theta_k) = -s1_i + [1, s1_i, s2_i] . w_k, so the E-step
    is one (g x 3) @ (3 x n) product, reduced over g rows into (g, n)
    responsibilities, and the M-step reads resp @ [1, s1, s2].
    """
    if cfg is None:
        cfg = HitmixConfig()
    if g < 2:
        raise ValueError("g must be >= 2")
    n, m = samples.s1.size, samples.m
    if g > n:
        raise ValueError(f"g = {g} exceeds number of vertices ({n})")

    stats = np.column_stack([np.ones(n), samples.s1, samples.s2])
    stats_t = np.ascontiguousarray(stats.T)
    log_jacobian = -float(samples.s1.sum())

    # Deterministic init: quantile split on the per-vertex mean of log t.
    order = np.argsort(samples.s1, kind="stable")
    mus, sigma2s = _log_normal_mle(
        np.array([stats[group].sum(axis=0) for group in np.array_split(order, g)]), m)
    pis = np.full(g, 1.0 / g)
    global_mu, global_sigma2 = _log_normal_mle(stats.sum(axis=0), m)

    ll_history: list[float] = []
    resp = np.full((g, n), 1.0 / g)
    ll = -np.inf
    converged = False
    restarts = 0
    it = 0
    while it < cfg.em_max_iters:
        it += 1
        # E-step in log space, shifted by the per-vertex maximum.
        w = np.array([-0.5 * m * np.log(2.0 * np.pi * sigma2s) - m * mus ** 2 / (2.0 * sigma2s),
                      mus / sigma2s,
                      -0.5 / sigma2s])
        joint = w.T @ stats_t
        joint += np.log(pis)[:, None]
        top = joint.max(axis=0)
        joint -= top
        np.exp(joint, out=joint)
        total = joint.sum(axis=0)
        resp = np.divide(joint, total, out=joint)
        ll_new = float((top + np.log(total)).sum()) + log_jacobian
        ll_history.append(ll_new)
        if np.isfinite(ll) and abs(ll_new - ll) <= cfg.em_rel_tol * max(1.0, abs(ll)):
            ll = ll_new
            converged = True
            break
        ll = ll_new

        # M-step. Under OpenBLAS this form rounds like the product over an
        # (n, g) layout that fixed-seed outputs were made with; resp @ stats
        # rounds differently at g = 2 and 3.
        sums = (stats.T @ resp.T).T
        nk = sums[:, 0]
        collapsed = nk / n < _COLLAPSE_EPS
        if collapsed.any():
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise EmCollapseError(
                    f"component collapsed {restarts} times during EM (g={g})")
            log.warning("EM component collapse (g=%d, iter=%d); restarting "
                        "%d component(s) at the global MLE", g, it, collapsed.sum())
            mus[collapsed] = global_mu
            sigma2s[collapsed] = global_sigma2
            pis[collapsed] = 1.0 / g
            pis = pis / pis.sum()
            continue
        mus, sigma2s = _log_normal_mle(sums, m)
        pis = nk / n

    components = [LognormalParams(float(mus[k]), float(sigma2s[k])) for k in range(g)]
    return MixtureFit(g, components, pis, np.ascontiguousarray(resp.T), ll, ll_history,
                      it, converged)


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
    BIC selection -> goal membership at threshold tau."""
    if cfg is None:
        cfg = HitmixConfig()
    moments = compute_moments(graph, seeds, cfg.cg)
    reach = moments.restrict_reachable()
    samples = draw_pseudo_samples(reach, cfg.m, cfg.rng_seed)

    fits: dict[int, MixtureFit] = {}
    bic_by_g: dict[int, float] = {}
    for g in cfg.g_candidates:
        if g > reach.vertices.size:
            log.warning("skipping g=%d: more components than vertices", g)
            continue
        fit = em_fit(samples, g, cfg)
        fits[g] = fit
        bic_by_g[g] = bic(fit, reach.vertices.size, cfg.m)
    if not fits:
        raise ValueError("no feasible g candidate for this instance")

    selected_g = min(bic_by_g, key=lambda g: (bic_by_g[g], g))
    fit = fits[selected_g]
    goal = int(np.argmin(component_means(fit)))

    n_c = moments.vertices.size
    posterior = np.zeros(n_c)
    posterior[moments.reachable] = fit.responsibilities[:, goal]
    labels = posterior > cfg.tau
    return MembershipResult(moments.vertices, posterior, labels, moments.reachable,
                            selected_g, goal, bic_by_g, fits, moments)
