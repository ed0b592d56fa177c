"""Stochastic block model sampling and the Monte Carlo benchmark harness."""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph, SeedSet
from .metrics import adjusted_rand_index, precision_recall_f1
from .mixture import HitmixConfig, hitmix
from .solver import HitmixError

log = logging.getLogger(__name__)

SWEEPS = ("n_blocks", "p_in", "hitting_set_size")


@dataclass(frozen=True)
class SbmConfig:
    n_blocks: int
    block_size: int
    p_in: float
    p_out: float

    def __post_init__(self):
        if self.n_blocks < 1 or self.block_size < 1:
            raise ValueError("n_blocks and block_size must be >= 1")
        for p in (self.p_in, self.p_out):
            if not (0.0 <= p <= 1.0):
                raise ValueError("edge probabilities must lie in [0, 1]")

    @property
    def n_vertices(self) -> int:
        return self.n_blocks * self.block_size


def _sample_bernoulli_indices(n_pairs: int, p: float, rng: np.random.Generator
                              ) -> np.ndarray:
    """Indices 0..n_pairs-1 each included independently with probability p,
    via geometric gap skipping (O(expected edges) work and memory)."""
    if n_pairs == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    chunks = []
    last = -1
    expect = max(int(n_pairs * p), 16)
    while last < n_pairs - 1:
        gaps = rng.geometric(p, size=expect + 4 * int(np.sqrt(expect)) + 16)
        idx = last + np.cumsum(gaps)
        chunks.append(idx)
        last = int(idx[-1])
    all_idx = np.concatenate(chunks)
    return all_idx[all_idx < n_pairs]


def _triangle_pairs(k: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major linear index over pairs i < j within 0..s-1."""
    rows = np.arange(s, dtype=np.int64)
    starts = rows * (2 * s - rows - 1) // 2   # index of pair (i, i + 1)
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def sample_sbm(cfg: SbmConfig, rng: np.random.Generator
               ) -> tuple[Graph, np.ndarray]:
    """Sample a simple SBM graph; vertex v belongs to block v // block_size."""
    s = cfg.block_size
    us, vs = [], []
    for a in range(cfg.n_blocks):
        idx = _sample_bernoulli_indices(s * (s - 1) // 2, cfg.p_in, rng)
        i, j = _triangle_pairs(idx, s)
        us.append(i + a * s)
        vs.append(j + a * s)
        for b in range(a + 1, cfg.n_blocks):
            idx = _sample_bernoulli_indices(s * s, cfg.p_out, rng)
            us.append(idx // s + a * s)
            vs.append(idx % s + b * s)
    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    labels = np.arange(cfg.n_vertices) // s
    return Graph.from_edges(cfg.n_vertices, u, v), labels


def sample_hitting_set(block_labels: np.ndarray, size: int,
                       rng: np.random.Generator, goal_block: int = 0) -> SeedSet:
    """Uniform sample without replacement from the goal block."""
    block = np.flatnonzero(block_labels == goal_block)
    if size < 1 or size > block.size:
        raise ValueError(f"hitting set size must lie in [1, {block.size}]")
    members = rng.choice(block, size=size, replace=False)
    return SeedSet.from_members(members, block_labels.size)


@dataclass
class SimulationSpec:
    sweep: str                      # one of SWEEPS
    values: list                    # cast to float for p_in, else to int
    mc_samples: int = 50
    n_blocks: int = 2
    block_size: int = 100
    p_in: float = 0.15
    p_out: float = 0.05
    scale_p_out: bool = False       # p_out := p_out / (b - 1), Simulation-1 rule
    hitting_set_size: int = 10
    seed: int = 0
    workers: int = 1                # capped at os.cpu_count() when run
    hitmix_cfg: HitmixConfig = field(default_factory=lambda: HitmixConfig(g_candidates=(2,)))

    def __post_init__(self):
        if self.sweep not in SWEEPS:
            raise ValueError(f"sweep must be one of {SWEEPS}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        cast = float if self.sweep == "p_in" else int
        self.values = [cast(v) for v in self.values]
        for v in self.values:
            self.condition(v)

    def condition(self, value) -> tuple[SbmConfig, int]:
        """SBM config and hitting-set size for one sweep value."""
        n_blocks = value if self.sweep == "n_blocks" else self.n_blocks
        p_in = value if self.sweep == "p_in" else self.p_in
        hs = value if self.sweep == "hitting_set_size" else self.hitting_set_size
        if not 1 <= hs <= self.block_size:
            raise ValueError(f"hitting set size must lie in [1, {self.block_size}]")
        if self.scale_p_out and n_blocks < 2:
            raise ValueError("scale_p_out needs n_blocks >= 2")
        p_out = self.p_out / (n_blocks - 1) if self.scale_p_out else self.p_out
        return SbmConfig(n_blocks, self.block_size, p_in, p_out), hs


@dataclass
class RunRecord:
    condition: object
    run: int
    ari: float
    f1: float
    failed: bool
    unreachable: int
    max_ll_decrease: float
    max_resp_row_error: float


@dataclass
class ConditionSummary:
    value: object
    ari_mean: float
    ari_p5: float
    ari_p95: float
    f1_mean: float
    f1_p5: float
    f1_p95: float
    failures: int


@dataclass
class McSummary:
    spec: SimulationSpec
    conditions: list[ConditionSummary]
    runs: list[RunRecord]

    @property
    def max_ll_decrease(self) -> float:
        return max((r.max_ll_decrease for r in self.runs if not r.failed), default=0.0)

    @property
    def max_resp_row_error(self) -> float:
        return max((r.max_resp_row_error for r in self.runs if not r.failed), default=0.0)

    def ari_means(self) -> np.ndarray:
        return np.array([c.ari_mean for c in self.conditions])


def _single_run(spec: SimulationSpec, cond_idx: int, run_idx: int) -> RunRecord:
    value = spec.values[cond_idx]
    sbm_cfg, hs_size = spec.condition(value)
    rng = np.random.default_rng([spec.seed, cond_idx, run_idx])
    graph, labels = sample_sbm(sbm_cfg, rng)
    seeds = sample_hitting_set(labels, hs_size, rng)
    hm_cfg = replace(spec.hitmix_cfg,
                     rng_seed=int(rng.integers(0, 2 ** 31 - 1)))
    try:
        result = hitmix(graph, seeds, hm_cfg)
    except (HitmixError, ValueError) as exc:
        log.error("hitmix failed (condition=%s run=%d): %s: %s",
                  value, run_idx, type(exc).__name__, exc)
        return RunRecord(value, run_idx, np.nan, np.nan, True, 0, np.nan, np.nan)

    non_seed = result.moments.vertices
    truth_labels = (labels[non_seed] == 0).astype(np.int64)
    pred_labels = result.labels.astype(np.int64)
    ari = adjusted_rand_index(pred_labels, truth_labels)
    truth_set = non_seed[truth_labels == 1]
    _, _, f1 = precision_recall_f1(result.goal_set, truth_set)

    fit = result.fit
    ll = np.asarray(fit.ll_history)
    max_dec = float(np.maximum(ll[:-1] - ll[1:], 0.0).max()) if ll.size > 1 else 0.0
    row_err = float(np.abs(fit.responsibilities.sum(axis=1) - 1.0).max())
    unreachable = int((~result.moments.reachable).sum())
    return RunRecord(value, run_idx, ari, f1, False, unreachable, max_dec, row_err)


def _run_star(args):
    return _single_run(*args)


def run_simulation(spec: SimulationSpec) -> McSummary:
    """Monte Carlo sweep: sample, expand, score, aggregate per condition.

    Per-run RNG streams are keyed by (master seed, condition index, run
    index), so results are reproducible independently of worker scheduling.
    """
    jobs = [(spec, ci, ri)
            for ci in range(len(spec.values))
            for ri in range(spec.mc_samples)]
    workers = min(spec.workers, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_star, jobs, chunksize=4))
    else:
        records = [_single_run(*j) for j in jobs]

    conditions = []
    for ci, value in enumerate(spec.values):
        rows = records[ci * spec.mc_samples:(ci + 1) * spec.mc_samples]
        ok = [r for r in rows if not r.failed]
        if ok:
            aris = np.array([r.ari for r in ok])
            f1s = np.array([r.f1 for r in ok])
            a5, a95 = np.quantile(aris, [0.05, 0.95], method="linear")
            f5, f95 = np.quantile(f1s, [0.05, 0.95], method="linear")
            summary = ConditionSummary(value, float(aris.mean()), float(a5), float(a95),
                                       float(f1s.mean()), float(f5), float(f95),
                                       len(rows) - len(ok))
        else:
            summary = ConditionSummary(value, np.nan, np.nan, np.nan, np.nan,
                                       np.nan, np.nan, len(rows))
        conditions.append(summary)
    return McSummary(spec, conditions, records)


def runs_csv_lines(summary: McSummary) -> list[str]:
    lines = ["condition,run,ari,f1"]
    for r in summary.runs:
        lines.append(f"{r.condition},{r.run},{r.ari:.10g},{r.f1:.10g}")
    return lines


def summary_csv_lines(summary: McSummary) -> list[str]:
    lines = ["condition,ari_mean,ari_p5,ari_p95,f1_mean,f1_p5,f1_p95,failures"]
    for c in summary.conditions:
        lines.append(f"{c.value},{c.ari_mean:.10g},{c.ari_p5:.10g},{c.ari_p95:.10g},"
                     f"{c.f1_mean:.10g},{c.f1_p5:.10g},{c.f1_p95:.10g},{c.failures}")
    return lines
