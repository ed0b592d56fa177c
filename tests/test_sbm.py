import os
from unittest.mock import Mock

import numpy as np
import pytest

import hitmix.mixture
import hitmix.sbm
from hitmix.mixture import EmCollapseError, HitmixConfig
from hitmix.sbm import (SbmConfig, SimulationSpec, _triangle_pairs, run_simulation,
                        runs_csv_lines, sample_hitting_set, sample_sbm,
                        summary_csv_lines)
from oracles import reference_run


class TestSampler:
    def test_empty_graph(self):
        g, labels = sample_sbm(SbmConfig(2, 10, 0.0, 0.0), np.random.default_rng(0))
        assert g.adjacency.nnz == 0
        assert labels.tolist() == [0] * 10 + [1] * 10

    def test_disjoint_cliques(self):
        g, labels = sample_sbm(SbmConfig(2, 5, 1.0, 0.0), np.random.default_rng(0))
        assert g.degrees.tolist() == [4] * 10
        assert g.adjacency[[0]].indices.tolist() == [1, 2, 3, 4]

    def test_symmetry_and_no_self_loops(self):
        g, _ = sample_sbm(SbmConfig(3, 30, 0.2, 0.05), np.random.default_rng(1))
        assert (g.adjacency != g.adjacency.T).nnz == 0
        assert g.adjacency.diagonal().sum() == 0
        assert g.adjacency.data.max() == 1  # simple graph

    def test_within_block_edge_count_mean(self):
        rng = np.random.default_rng(2)
        counts = []
        for _ in range(300):
            g, labels = sample_sbm(SbmConfig(2, 100, 0.15, 0.0), rng)
            counts.append(g.degrees.sum() / 4.0)  # edges per block
        n_pairs = 100 * 99 / 2
        expected = n_pairs * 0.15
        sd = np.sqrt(n_pairs * 0.15 * 0.85 / (2 * 300))
        assert abs(np.mean(counts) - expected) <= 3 * sd

    def test_expected_degree(self):
        rng = np.random.default_rng(3)
        cfg = SbmConfig(3, 50, 0.2, 0.04)
        degs = []
        for _ in range(100):
            g, _ = sample_sbm(cfg, rng)
            degs.append(g.degrees.mean())
        expected = 49 * 0.2 + 100 * 0.04
        se = np.std(degs, ddof=1) / 10.0
        assert abs(np.mean(degs) - expected) <= 3 * se

    def test_deterministic_given_rng(self):
        a, _ = sample_sbm(SbmConfig(2, 40, 0.2, 0.05), np.random.default_rng(9))
        b, _ = sample_sbm(SbmConfig(2, 40, 0.2, 0.05), np.random.default_rng(9))
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            SbmConfig(2, 10, 1.2, 0.0)

    def test_triangle_pairs_decode_every_index(self):
        for s in range(1, 41):
            i, j = _triangle_pairs(np.arange(s * (s - 1) // 2, dtype=np.int64), s)
            iu, ju = np.triu_indices(s, 1)
            assert np.array_equal(i, iu) and np.array_equal(j, ju)


class TestHittingSet:
    def test_full_block(self):
        labels = np.arange(20) // 10
        seeds = sample_hitting_set(labels, 10, np.random.default_rng(0))
        assert seeds.members == frozenset(range(10))

    def test_single_vertex(self):
        labels = np.arange(20) // 10
        seeds = sample_hitting_set(labels, 1, np.random.default_rng(0))
        assert len(seeds.members) == 1
        assert next(iter(seeds.members)) < 10

    def test_deterministic(self):
        labels = np.arange(200) // 100
        a = sample_hitting_set(labels, 10, np.random.default_rng(5))
        b = sample_hitting_set(labels, 10, np.random.default_rng(5))
        assert a.members == b.members

    def test_size_bounds(self):
        labels = np.arange(20) // 10
        with pytest.raises(ValueError):
            sample_hitting_set(labels, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_hitting_set(labels, 11, np.random.default_rng(0))


@pytest.mark.parametrize("sweep, values, size", [
    ("hitting_set_size", [10, 150], 10), ("hitting_set_size", [0], 10), ("p_in", [0.3], 101)])
def test_spec_rejects_hitting_set_outside_goal_block(sweep, values, size):
    with pytest.raises(ValueError, match=r"^hitting set size must lie in \[1, 100\]$"):
        SimulationSpec(sweep=sweep, values=values, hitting_set_size=size, block_size=100)


def small_spec(**kw):
    defaults = dict(sweep="p_in", values=[0.3, 0.05], mc_samples=4,
                    block_size=40, hitting_set_size=8, seed=123)
    defaults.update(kw)
    return SimulationSpec(**defaults)


class TestRunSimulation:
    def test_summary_shape_and_percentile_order(self):
        s = run_simulation(small_spec())
        assert len(s.conditions) == 2
        for c in s.conditions:
            assert c.ari_p5 <= c.ari_mean + 1e-12
            assert c.ari_mean <= c.ari_p95 + 1e-12
            ok = [r for r in s.runs if r.condition == c.value and not r.failed]
            for name in ("ari", "f1"):
                want = np.quantile([getattr(r, name) for r in ok], [0.05, 0.95],
                                   method="linear")
                assert [getattr(c, name + "_p5"), getattr(c, name + "_p95")] == want.tolist()
        assert len(s.runs) == 8

    def test_seeded_determinism(self):
        a = run_simulation(small_spec())
        b = run_simulation(small_spec())
        assert runs_csv_lines(a) == runs_csv_lines(b)
        assert summary_csv_lines(a) == summary_csv_lines(b)

    def test_workers_do_not_change_results(self):
        a = run_simulation(small_spec())
        b = run_simulation(small_spec(workers=2))
        assert runs_csv_lines(a) == runs_csv_lines(b)

    def test_worker_processes_with_fit_threads_do_not_change_results(self):
        # Each worker process fits its g candidates on threads of its own.
        cfg = HitmixConfig(g_candidates=(2, 3))
        a = run_simulation(small_spec(hitmix_cfg=cfg))
        b = run_simulation(small_spec(hitmix_cfg=cfg, workers=2))
        assert runs_csv_lines(a) == runs_csv_lines(b)
        assert summary_csv_lines(a) == summary_csv_lines(b)

    def test_degenerate_condition_recorded_as_failure(self):
        # p_in = p_out = 0: every run errors (no reachable vertices)
        spec = small_spec(sweep="p_in", values=[0.0], p_out=0.0, mc_samples=2)
        s = run_simulation(spec)
        assert s.conditions[0].failures == 2

    def test_only_numerical_and_input_errors_become_failures(self, monkeypatch, caplog):
        # workers=1: the patched name is not seen by worker processes
        spec = small_spec(values=[0.3], mc_samples=2, workers=1)
        monkeypatch.setattr(hitmix.mixture, "select_membership", Mock(side_effect=TypeError("bug")))
        with pytest.raises(TypeError):
            run_simulation(spec)
        monkeypatch.setattr(hitmix.mixture, "select_membership",
                            Mock(side_effect=EmCollapseError("collapsed")))
        s = run_simulation(spec)
        assert s.conditions[0].failures == 2 and all(r.failed for r in s.runs)
        assert "EmCollapseError: collapsed" in caplog.text
        assert "Traceback" not in caplog.text

    def test_records_and_log_lines_equal_the_one_instance_pipeline(self, caplog):
        # p_out = 0 and one seed: at p_in = 0 every vertex is isolated, so each
        # run fails as its seed reaches no vertex; at p_in 0.3 and 0.2 block 1 is
        # unreachable. At p_in 0.02 one run's seed is isolated, so its chunk
        # mixes a failing run with good ones.
        spec = small_spec(values=[0.3, 0.0, 0.2, 0.02], p_out=0.0, hitting_set_size=1,
                          hitmix_cfg=HitmixConfig(g_candidates=(2, 3)))
        want = [reference_run(spec, ci, ri) for ci in range(len(spec.values))
                for ri in range(spec.mc_samples)]
        want_log = [(r.levelname, r.getMessage()) for r in caplog.records]
        caplog.clear()
        got = run_simulation(spec).runs
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == want_log
        assert [r.failed for r in got[4:8]] == [True] * 4
        assert [r.failed for r in got[12:]] == [False, False, False, True]
        assert sum(r.failed for r in got) == 5
        assert sum("no non-seed vertex can reach the seed set" in m for _, m in want_log) == 5
        assert any(r.unreachable for r in got if not r.failed)

    @pytest.mark.parametrize("chunk_vertices", [1, 200])
    def test_chunking_does_not_change_results(self, monkeypatch, chunk_vertices):
        # 80 vertices per instance: chunks of one run, then of two.
        cfg = HitmixConfig(g_candidates=(2, 3))
        a = run_simulation(small_spec(hitmix_cfg=cfg))
        monkeypatch.setattr(hitmix.sbm, "_CHUNK_VERTICES", chunk_vertices)
        b = run_simulation(small_spec(hitmix_cfg=cfg))
        assert runs_csv_lines(a) == runs_csv_lines(b)
        assert summary_csv_lines(a) == summary_csv_lines(b)
        assert [repr(r) for r in a.runs] == [repr(r) for r in b.runs]

    def test_scale_p_out_rule(self):
        spec = small_spec(sweep="n_blocks", values=[3], p_out=0.05,
                          scale_p_out=True)
        cfg, _ = spec.condition(3)
        assert cfg.p_out == pytest.approx(0.025)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            small_spec(sweep="bogus")
        with pytest.raises(ValueError):
            small_spec(values=[])

    def test_values_cast_to_the_swept_field_type(self):
        assert SimulationSpec(sweep="n_blocks", values=["2", 3.0]).values == [2, 3]
        values = SimulationSpec(sweep="p_in", values=["0.3", 1]).values
        assert values == [0.3, 1.0] and all(type(v) is float for v in values)

    def test_conditions_checked_at_construction(self):
        with pytest.raises(ValueError, match=r"edge probabilities"):
            SimulationSpec(sweep="p_in", values=[0.3], p_out=1.5)
        with pytest.raises(ValueError, match=r"scale_p_out needs n_blocks >= 2"):
            SimulationSpec(sweep="n_blocks", values=[1, 2], scale_p_out=True)
        with pytest.raises(ValueError, match=r"scale_p_out needs n_blocks >= 2"):
            SimulationSpec(sweep="p_in", values=[0.3], n_blocks=1, scale_p_out=True)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=r"workers must be >= 1"):
            small_spec(workers=workers)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # A fake pool records its size and runs in-process: no real pool is started.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(hitmix.sbm, "ProcessPoolExecutor", FakePool)
        cpus = os.cpu_count() or 1
        a = run_simulation(small_spec(values=[0.3], mc_samples=3, workers=cpus + 3))
        b = run_simulation(small_spec(values=[0.3], mc_samples=3, workers=1))
        assert sizes == ([cpus] if cpus > 1 else [])
        assert runs_csv_lines(a) == runs_csv_lines(b)
