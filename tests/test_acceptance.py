"""Acceptance suite. Each criterion prints one PASS/FAIL line."""

import sys
import time

import numpy as np
import pytest

from hitmix.graph import SeedSet, load_edge_list, reachable_from
from hitmix.mixture import HitmixConfig, lognormal_mom
from hitmix.moments import compute_moments
from hitmix.sbm import (SbmConfig, SimulationSpec, run_simulation, sample_sbm,
                        summary_csv_lines, runs_csv_lines)
from oracles import dense_moments, simulate_hitting_times

MASTER_SEED = 20260823


@pytest.fixture
def report(capfd):
    def _report(criterion, ok, detail):
        status = "PASS" if ok else "FAIL"
        # bypass capture so every criterion prints its line, pass or fail
        with capfd.disabled():
            print(f"criterion {criterion} [{status}] {detail}",
                  file=sys.stdout, flush=True)
        assert ok, f"criterion {criterion}: {detail}"
    return _report


def random_connected_er(n, p, rng):
    while True:
        g, _ = sample_sbm(SbmConfig(1, n, p, 0.0), rng)
        seeds = SeedSet.from_members(rng.choice(n, size=10, replace=False), n)
        if g.degrees.min() > 0 and reachable_from(g, seeds).all():
            return g, seeds


def test_criterion_1_moment_oracles(report):
    # With 100 independent 3-SE comparisons, a correct implementation still
    # trips one by chance about a quarter of the time. The seed is pinned to
    # keep the criterion deterministic.
    rng = np.random.default_rng(MASTER_SEED + 2)
    t0 = time.perf_counter()
    max_rel = 0.0
    sim_ok = True
    for trial in range(20):
        n = int(rng.integers(50, 201))
        g, seeds = random_connected_er(n, 0.1, rng)
        table = compute_moments(g, seeds)
        et1, var = dense_moments(g, seeds)
        max_rel = max(max_rel,
                      np.linalg.norm(table.mean - et1) / np.linalg.norm(et1),
                      np.linalg.norm(table.variance - var) / np.linalg.norm(var))
        locals_ = rng.choice(table.vertices.size, size=5, replace=False)
        for local in locals_:
            v = int(table.vertices[local])
            mean, svar, trunc = simulate_hitting_times(
                g, seeds, v, 100_000, 1_000_000, int(rng.integers(2 ** 31)))
            se = np.sqrt(svar / 100_000)
            if trunc > 0 or abs(table.mean[local] - mean) > 3 * se:
                sim_ok = False
    elapsed = time.perf_counter() - t0
    ok = max_rel <= 1e-8 and sim_ok and elapsed < 120.0
    report(1, ok, f"dense rel err {max_rel:.2e} (<=1e-8), simulation 3-SE "
                  f"{'ok' if sim_ok else 'violated'}, {elapsed:.1f}s (<120s)")


def test_criterion_2_fixtures(report):
    import io
    t0 = time.perf_counter()
    g = load_edge_list(io.StringIO("0 1\n1 2"))
    t = compute_moments(g, SeedSet.from_members([2], 3))
    errs = [np.abs(t.mean - [4.0, 3.0]).max(), np.abs(t.variance - 8.0).max()]
    g = load_edge_list(io.StringIO("0 1\n0 2\n0 3\n0 4"))
    t = compute_moments(g, SeedSet.from_members([0], 5))
    errs += [np.abs(t.mean - 1.0).max(), np.abs(t.variance).max()]
    g = load_edge_list(io.StringIO("0 1\n1 2\n0 2"))
    t = compute_moments(g, SeedSet.from_members([2], 3))
    errs.append(np.abs(t.mean - 2.0).max())
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-10 and elapsed < 1.0
    report(2, ok, f"3-path/star/triangle max err {max(errs):.2e} (<=1e-10), "
                  f"{elapsed:.2f}s (<1s)")


def make_sweep_spec(sweep):
    cfg = HitmixConfig(m=25, g_candidates=(2,), tau=0.5)
    if sweep == "p_in":
        return SimulationSpec(sweep="p_in", values=[0.20, 0.12, 0.08, 0.06],
                              mc_samples=50, block_size=100, hitting_set_size=10,
                              p_out=0.05, seed=MASTER_SEED, hitmix_cfg=cfg)
    if sweep == "hitting_set_size":
        return SimulationSpec(sweep="hitting_set_size", values=[50, 25, 10, 5, 1],
                              mc_samples=50, block_size=100, p_in=0.15,
                              p_out=0.05, seed=MASTER_SEED + 1, hitmix_cfg=cfg)
    return SimulationSpec(sweep="n_blocks", values=[2, 3, 4, 5, 6],
                          mc_samples=50, block_size=200, hitting_set_size=20,
                          p_in=0.15, p_out=0.05, scale_p_out=True,
                          seed=MASTER_SEED + 2, hitmix_cfg=cfg)


@pytest.fixture(scope="module")
def sweep_p_in():
    return run_simulation(make_sweep_spec("p_in"))


@pytest.fixture(scope="module")
def sweep_hitting_set():
    return run_simulation(make_sweep_spec("hitting_set_size"))


@pytest.fixture(scope="module")
def sweep_n_blocks():
    return run_simulation(make_sweep_spec("n_blocks"))


def test_criterion_3_density_trend(report, sweep_p_in):
    ari = sweep_p_in.ari_means()
    drops = -np.diff(ari)
    ok = (ari[0] >= 0.90 and ari[-1] <= 0.15 and (drops >= 0.03).all())
    report(3, ok, f"mean ARI over p_in [0.20, 0.12, 0.08, 0.06] = "
                  f"{np.round(ari, 3).tolist()} "
                  f"(need >=0.90 first, <=0.15 last, drops >=0.03)")


def test_criterion_4_hitting_set_trend(report, sweep_hitting_set):
    ari = sweep_hitting_set.ari_means()
    steps_ok = (np.diff(ari) <= 0.05).all()
    ok = (ari[0] >= 0.85 and ari[1] >= 0.85 and ari[-1] <= 0.2 and steps_ok)
    report(4, ok, f"mean ARI over sizes [50, 25, 10, 5, 1] = "
                  f"{np.round(ari, 3).tolist()} "
                  f"(need >=0.85 at 50/25, <=0.2 at 1, non-increasing w/ 0.05 slack)")


def test_criterion_5_block_count_trend(report, sweep_n_blocks):
    ari = sweep_n_blocks.ari_means()
    ok = (np.diff(ari) < 0).all() and ari[-1] >= 0.25
    report(5, ok, f"mean ARI over b = [2..6] = {np.round(ari, 3).tolist()} "
                  f"(need strictly decreasing, >=0.25 at b=6)")


def test_criterion_6_em_properties(report, sweep_p_in, sweep_hitting_set, sweep_n_blocks):
    dec = max(s.max_ll_decrease for s in (sweep_p_in, sweep_hitting_set, sweep_n_blocks))
    row = max(s.max_resp_row_error for s in (sweep_p_in, sweep_hitting_set, sweep_n_blocks))
    ok = dec <= 1e-10 and row <= 1e-12
    report(6, ok, f"max log-likelihood decrease {dec:.2e} (<=1e-10), "
                  f"max responsibility row error {row:.2e} (<=1e-12) over all EM runs")


def test_criterion_7_mom_round_trip(report):
    rng = np.random.default_rng(MASTER_SEED)
    mus = rng.uniform(-2.0, 3.0, size=10_000)
    sigma2s = rng.uniform(0.01, 4.0, size=10_000)
    worst = 0.0
    for mu, s2 in zip(mus, sigma2s):
        mean = np.exp(mu + s2 / 2.0)
        var = np.expm1(s2) * np.exp(2.0 * mu + s2)
        p = lognormal_mom(mean, var)
        worst = max(worst,
                    abs(p.mu - mu) / max(1.0, abs(mu)),
                    abs(p.sigma2 - s2) / max(1.0, s2))
    ok = worst <= 1e-12
    report(7, ok, f"10^4 round-trips, worst relative error {worst:.2e} (<=1e-12)")


def test_criterion_8_scalability(report):
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for block in (1000, 2000, 4000):
        # constant expected degree ~20 as the graph doubles
        cfg = SbmConfig(2, block, 15.0 / block, 5.0 / block)
        g, labels = sample_sbm(cfg, rng)
        seeds = SeedSet.from_members(
            rng.choice(np.flatnonzero(labels == 0), size=50, replace=False),
            cfg.n_vertices)
        cases.append((g, seeds))
    # Best of 15 per size, the sizes timed in turn: on a shared machine a slow
    # spell then falls on every size, not on the 4-35 ms calls of one.
    rounds = [[_timed_moments(g, seeds) for g, seeds in cases] for _ in range(15)]
    times = [min(column) for column in zip(*rounds)]
    ratios = [times[1] / times[0], times[2] / times[1]]
    ok = max(ratios) <= 2.2
    report(8, ok, f"compute_moments at 2k/4k/8k vertices: "
                  f"{['%.3fs' % t for t in times]}, doubling ratios "
                  f"{np.round(ratios, 2).tolist()} (<=2.2)")


def _timed_moments(g, seeds):
    t0 = time.perf_counter()
    compute_moments(g, seeds)
    return time.perf_counter() - t0


def test_criterion_9_determinism(report, sweep_p_in, sweep_hitting_set, sweep_n_blocks):
    ok = True
    for sweep, summary in [("p_in", sweep_p_in),
                           ("hitting_set_size", sweep_hitting_set),
                           ("n_blocks", sweep_n_blocks)]:
        rerun = run_simulation(make_sweep_spec(sweep))
        if (summary_csv_lines(rerun) != summary_csv_lines(summary)
                or runs_csv_lines(rerun) != runs_csv_lines(summary)):
            ok = False
    report(9, ok, "rerun of criteria 3-5 sweeps with the same master seed "
                  + ("reproduced summary CSVs byte-for-byte" if ok
                     else "produced different CSVs"))
