"""Lognormal mixture over per-vertex hitting-time distributions.

Pipeline: per-vertex method-of-moments lognormal fit -> pseudo-samples ->
EM fit of a g-component lognormal mixture (grouped by vertex, all samples of
a vertex share one component) -> BIC model selection -> membership threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .graph import Graph, SeedSet
from .moments import MomentTable, compute_moments
from .solver import CgConfig, HitmixError

log = logging.getLogger(__name__)

_COLLAPSE_EPS = 1e-12
_MAX_RESTARTS = 3


class EmCollapseError(HitmixError):
    """A mixture component collapsed more often than EM may restart it."""


@dataclass(frozen=True)
class LognormalParams:
    mu: float
    sigma2: float


@dataclass
class VertexSamples:
    vertices: np.ndarray   # global ids
    samples: np.ndarray    # shape (n_vertices, m), all positive
    rng_seed: int


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
    sigma2_floor: float = 1e-8
    bic_n: str = "observations"  # or "vertices"
    cg: CgConfig = field(default_factory=CgConfig)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        if any(g < 2 for g in self.g_candidates):
            raise ValueError("all g candidates must be >= 2")
        if self.bic_n not in ("observations", "vertices"):
            raise ValueError("bic_n must be 'observations' or 'vertices'")


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


def lognormal_mom(m1: float, m2: float, sigma2_floor: float = 1e-8) -> LognormalParams:
    """Method-of-moments lognormal parameters from a mean and variance."""
    if m1 <= 0:
        raise ValueError("mean must be positive")
    if m2 < 0:
        raise ValueError("variance must be non-negative")
    sigma2 = max(float(np.log1p(m2 / m1 ** 2)), sigma2_floor)
    mu = float(np.log(m1)) - sigma2 / 2.0
    return LognormalParams(mu, sigma2)


def draw_pseudo_samples(moments: MomentTable, m: int, rng_seed: int) -> VertexSamples:
    """m lognormal variates per vertex from its MOM fit.

    Each vertex draws from its own RNG stream keyed by (rng_seed, vertex id),
    so the result is independent of vertex iteration order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not moments.reachable.all():
        raise ValueError("moments contain unreachable vertices; restrict first")
    n = moments.vertices.size
    samples = np.empty((n, m))
    for i in range(n):
        params = lognormal_mom(float(moments.mean[i]), float(moments.variance[i]))
        rng = np.random.default_rng([rng_seed, int(moments.vertices[i])])
        samples[i] = rng.lognormal(params.mu, np.sqrt(params.sigma2), m)
    return VertexSamples(moments.vertices.copy(), samples, rng_seed)


def _component_loglik(s1, s2, m, mu, sigma2):
    """Per-vertex log prod_j f(t_ij; theta_k) from sufficient statistics.

    s1 = sum_j log t_ij, s2 = sum_j (log t_ij)^2; the leading -s1 is the
    lognormal Jacobian term.
    """
    quad = s2 - 2.0 * mu * s1 + m * mu * mu
    return -s1 - 0.5 * m * np.log(2.0 * np.pi * sigma2) - quad / (2.0 * sigma2)


def em_fit(samples: VertexSamples, g: int, cfg: HitmixConfig | None = None) -> MixtureFit:
    """EM for a g-component lognormal mixture over grouped vertex samples."""
    if cfg is None:
        cfg = HitmixConfig()
    if g < 2:
        raise ValueError("g must be >= 2")
    data = samples.samples
    n, m = data.shape
    if g > n:
        raise ValueError(f"g = {g} exceeds number of vertices ({n})")

    logt = np.log(data)
    s1 = logt.sum(axis=1)
    s2 = (logt ** 2).sum(axis=1)

    # Deterministic init: quantile split on the per-vertex mean of log t.
    order = np.argsort(s1, kind="stable")
    mus = np.empty(g)
    sigma2s = np.empty(g)
    for k, group in enumerate(np.array_split(order, g)):
        vals = logt[group].ravel()
        mus[k] = vals.mean()
        sigma2s[k] = max(float(vals.var()), cfg.sigma2_floor)
    pis = np.full(g, 1.0 / g)

    global_mu = float(logt.mean())
    global_sigma2 = max(float(logt.var()), cfg.sigma2_floor)

    ll_history: list[float] = []
    resp = np.full((n, g), 1.0 / g)
    ll = -np.inf
    converged = False
    restarts = 0
    it = 0
    while it < cfg.em_max_iters:
        it += 1
        # E-step in log space.
        log_joint = np.empty((n, g))
        for k in range(g):
            log_joint[:, k] = np.log(pis[k]) + _component_loglik(
                s1, s2, m, mus[k], sigma2s[k])
        lse = logsumexp(log_joint, axis=1)
        resp = np.exp(log_joint - lse[:, None])
        ll_new = float(lse.sum())
        ll_history.append(ll_new)
        if np.isfinite(ll) and abs(ll_new - ll) <= cfg.em_rel_tol * max(1.0, abs(ll)):
            ll = ll_new
            converged = True
            break
        ll = ll_new

        # M-step.
        nk = resp.sum(axis=0)
        collapsed = nk / n < _COLLAPSE_EPS
        if collapsed.any():
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise EmCollapseError(
                    f"component collapsed {restarts} times during EM (g={g})")
            log.warning("EM component collapse (g=%d, iter=%d); restarting "
                        "%d component(s) at the global MLE", g, it, collapsed.sum())
            for k in np.flatnonzero(collapsed):
                mus[k] = global_mu
                sigma2s[k] = global_sigma2
                pis[k] = 1.0 / g
            pis = pis / pis.sum()
            continue
        mus = resp.T @ s1 / (m * nk)
        quad = (s2[:, None] - 2.0 * mus[None, :] * s1[:, None]
                + m * mus[None, :] ** 2)
        sigma2s = np.maximum((resp * quad).sum(axis=0) / (m * nk), cfg.sigma2_floor)
        pis = nk / n

    components = [LognormalParams(float(mus[k]), float(sigma2s[k])) for k in range(g)]
    return MixtureFit(g, components, pis, resp, ll, ll_history, it, converged)


def bic(fit: MixtureFit, n_vertices: int, m: int, mode: str = "observations") -> float:
    """Schwarz criterion, lower is better: p ln(N) - 2 log L."""
    p = 3 * fit.g - 1
    n_obs = n_vertices * m if mode == "observations" else n_vertices
    return float(p * np.log(n_obs) - 2.0 * fit.log_likelihood)


def component_means(fit: MixtureFit) -> np.ndarray:
    """Fitted lognormal means exp(mu_k + sigma2_k / 2) per component."""
    return np.array([np.exp(c.mu + c.sigma2 / 2.0) for c in fit.components])


def hitmix(graph: Graph, seeds: SeedSet, cfg: HitmixConfig | None = None,
           moments: MomentTable | None = None) -> MembershipResult:
    """Full pipeline: moments -> pseudo-samples -> EM over g candidates ->
    BIC selection -> goal membership at threshold tau."""
    if cfg is None:
        cfg = HitmixConfig()
    if moments is None:
        moments = compute_moments(graph, seeds, order=2, cfg=cfg.cg)
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
        bic_by_g[g] = bic(fit, reach.vertices.size, cfg.m, cfg.bic_n)
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
