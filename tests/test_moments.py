import io
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import hitmix.mixture
import hitmix.moments
import hitmix.solver
from hitmix.graph import Graph, SeedSet, load_edge_list, reachable_from
from hitmix.mixture import HitmixConfig, hitmix_batch
from hitmix.moments import MomentConvergenceError, compute_moments
from hitmix.sbm import SbmConfig, sample_hitting_set, sample_sbm
from hitmix.solver import HitmixError, NonSpdError
from oracles import (barbell_graph, dense_moments, path3, random_connected,
                     simulate_hitting_times, splu_moments, tridiagonal_moments)


def load(text):
    return load_edge_list(io.StringIO(text))


class TestComputeMoments:
    def test_path3_fixture(self):
        g, seeds = path3()
        t = compute_moments(g, seeds)
        assert np.allclose(t.mean, [4.0, 3.0], atol=1e-10)
        assert np.allclose(t.variance, [8.0, 8.0], atol=1e-9)
        assert t.reachable.all()

    def test_star_leaves(self):
        g = load("0 1\n0 2\n0 3\n0 4")
        t = compute_moments(g, SeedSet.from_members([0], 5))
        assert np.allclose(t.mean, 1.0, atol=1e-12)
        assert np.allclose(t.variance, 0.0, atol=1e-12)

    def test_triangle(self):
        g = load("0 1\n1 2\n0 2")
        t = compute_moments(g, SeedSet.from_members([2], 3))
        assert np.allclose(t.mean, [2.0, 2.0], atol=1e-10)

    def test_unreachable_flagged_not_valued(self):
        g = load("0 1\n2 3")
        t = compute_moments(g, SeedSet.from_members([0], 4))
        assert t.reachable.tolist() == [True, False, False]
        assert np.isnan(t.mean[1]) and np.isnan(t.mean[2])
        assert np.isfinite(t.mean[0])

    def test_all_unreachable_errors(self):
        g = load("0 1\n2 3")
        with pytest.raises(ValueError):
            compute_moments(g, SeedSet.from_members([0, 1], 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_solve(self, seed):
        g = random_connected(100, 0.08, seed)
        seeds = SeedSet.from_members(range(6), 100)
        t = compute_moments(g, seeds)
        et1, var = dense_moments(g, seeds)
        assert np.linalg.norm(t.mean - et1) <= 1e-8 * np.linalg.norm(et1)
        assert np.linalg.norm(t.variance - var) <= 1e-8 * np.linalg.norm(var)

    def test_first_step_consistency(self):
        g = random_connected(80, 0.1, 9)
        seeds = SeedSet.from_members(range(5), 80)
        t = compute_moments(g, seeds)
        # direct check of mu_i = 1 + sum_j P_ij mu_j
        idx = seeds.complement
        p_sub = g.adjacency[idx][:, idx].astype(float)
        inv_d = 1.0 / g.degrees[idx]
        p_mean = inv_d * (p_sub @ t.mean)
        resid = t.mean - (1.0 + p_mean)
        assert np.abs(resid).max() <= 1e-8
        # and of E T^2 = 1 + 2 P E T + P E T^2, solved with the graph-free
        # right-hand side 1 + 2 (E T - 1)
        et2 = t.variance + t.mean ** 2
        resid2 = et2 - (1.0 + 2.0 * p_mean + inv_d * (p_sub @ et2))
        assert np.abs(resid2).max() <= 1e-8 * et2.max()

    def test_mean_at_least_one(self):
        g = random_connected(60, 0.15, 2)
        t = compute_moments(g, SeedSet.from_members(range(10), 60))
        assert (t.mean >= 1.0 - 1e-10).all()


def path_graph(n):
    return Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))


def cycle_graph(n):
    return Graph.from_edges(n, np.arange(n), (np.arange(n) + 1) % n)


def max_rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestBadlyConditioned:
    """Long mixing times: restarted CG never converged on the path and cycle."""

    @pytest.mark.parametrize("n, tol", [(2000, 1e-8), (8000, 1e-7)])
    def test_path_closed_form(self, n, tol):
        # Seeded at one end: E_k T = k (2 (n - 1) - k) (Kemeny & Snell).
        t = compute_moments(path_graph(n), SeedSet.from_members([0], n))
        k = t.vertices.astype(float)
        assert max_rel_err(t.mean, k * (2 * (n - 1) - k)) <= tol

    def test_path_16000_both_moments(self):
        # Moment 2 from the Galerkin start of moment 1's Krylov space, which is
        # the whole space here. From 0 it stalled just above the 16 eps floor
        # and raised MomentConvergenceError after 10 n iterations.
        n = 16000
        g, seeds = path_graph(n), SeedSet.from_members([0], n)
        t = compute_moments(g, seeds)
        assert all(st.converged for st in t.cg_stats)
        k = t.vertices.astype(float)
        _, var = tridiagonal_moments(g, seeds)
        assert max_rel_err(t.mean, k * (2 * (n - 1) - k)) <= 1e-6
        assert max_rel_err(t.variance, var) <= 1e-6

    def test_cycle_closed_form(self):
        n = 1000
        t = compute_moments(cycle_graph(n), SeedSet.from_members([0], n))
        k = t.vertices.astype(float)
        assert max_rel_err(t.mean, k * (n - k)) <= 1e-8

    def test_barbell_matches_sparse_lu(self):
        g = barbell_graph(50, 20)
        seeds = SeedSet.from_members([0], g.n_vertices)
        t = compute_moments(g, seeds)
        mean, var = splu_moments(g, seeds)
        assert max_rel_err(t.mean, mean) <= 1e-8
        assert max_rel_err(t.variance, var) <= 1e-8


# The moments of a graph with 11,995 reachable non-seed vertices: above the
# 10,000 entries from which OpenBLAS splits a level-1 call over its threads.
_THREADS_PROBE = """
import hashlib
import numpy as np
from hitmix.graph import Graph, SeedSet
from hitmix.moments import compute_moments
rng = np.random.default_rng(0)
n = 12000
u, v = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
g = Graph.from_edges(n, np.append(u, np.arange(n - 1)), np.append(v, np.arange(1, n)))
t = compute_moments(g, SeedSet.from_members(range(5), n))
assert t.reachable.sum() == 11995
print(hashlib.sha256(t.mean.tobytes() + t.variance.tobytes()).hexdigest(),
      [s.iterations for s in t.cg_stats])
"""


def test_moments_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(hitmix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                           text=True, check=True, timeout=120).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


def sbm_instances(seed, p_ins):
    """One 2 x 40 SBM instance with 4 seeds per p_in, p_out 0.02, then an edgeless
    graph and a multigraph with self-loops whose seed sits in a small component
    of its own."""
    rng = np.random.default_rng(seed)
    out = []
    for p_in in p_ins:
        g, labels = sample_sbm(SbmConfig(2, 40, p_in, 0.02), rng)
        out.append((g, sample_hitting_set(labels, 4, rng)))
    u, v = rng.integers(3, 60, 150), rng.integers(3, 60, 150)
    g = Graph.from_edges(60, np.concatenate([u, u[:20], [0, 1, 1]]),
                         np.concatenate([v, v[:20], [1, 2, 1]]))
    out += [(Graph.from_edges(30, [], []), SeedSet.from_members([0, 1], 30)),
            (g, SeedSet.from_members([0], 60))]
    return out


def assert_tables_equal(got, want):
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.variance.tobytes() == want.variance.tobytes()
    assert got.reachable.tolist() == want.reachable.tolist()
    assert not got.reachable.flags.writeable
    assert got.cg_stats == want.cg_stats


def log_lines(caplog):
    return [(r.levelname, r.getMessage()) for r in caplog.records]


def assert_batch_equals_alone(instances, caplog, cfg=HitmixConfig(g_candidates=(2, 3))):
    """hitmix_batch over instances, instance i with rng_seed 10 + i, yields for
    each the error, or the table and posterior bytes, that hitmix gives it
    alone, with the same log lines. Returns the results."""
    want = []
    for i, (g, seeds) in enumerate(instances):
        try:
            want.append(hitmix.mixture.hitmix(g, seeds, replace(cfg, rng_seed=10 + i)))
        except (HitmixError, ValueError) as exc:
            want.append(exc)
    want_log = log_lines(caplog)
    caplog.clear()
    got = list(hitmix_batch([(g, s, 10 + i) for i, (g, s) in enumerate(instances)], cfg))
    assert log_lines(caplog) == want_log
    for result, alone in zip(got, want, strict=True):
        if isinstance(alone, Exception):
            assert type(result) is type(alone) and str(result) == str(alone)
        else:
            assert_tables_equal(result.moments, alone.moments)
            assert result.posterior.tobytes() == alone.posterior.tobytes()
    return got


class TestComputeMomentsBatch:
    """hitmix_batch computes each instance's moments on its own graph: an
    instance's error is its own, and each result is what hitmix gives the
    instance alone."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_one_instance_calls(self, seed, caplog):
        # The edgeless instance fails; in the last one most vertices are unreachable.
        instances = sbm_instances(seed, [0.3, 0.02, 0.1, 0.05, 0.2])
        got = assert_batch_equals_alone(instances, caplog)
        assert type(got[-2]) is ValueError
        assert str(got[-2]) == "no non-seed vertex can reach the seed set"
        with pytest.raises(ValueError, match=f"^{re.escape(str(got[-2]))}$"):
            compute_moments(*instances[-2])
        assert not got[-1].moments.reachable.all()

    def test_instance_failing_moment_1_skips_moment_2(self, monkeypatch, caplog):
        # The stop test never passes on the moment-1 rhs of instance 1, so its
        # first solve ends unconverged, and it gets no second solve.
        instances = sbm_instances(7, [0.3, 0.25, 0.2])
        g, seeds = instances[1]
        vertices = seeds.complement[reachable_from(g, seeds)]
        target = float(np.linalg.norm(np.sqrt(g.degrees[vertices])))
        real_done = hitmix.solver._done
        monkeypatch.setattr(hitmix.solver, "_done",
                            lambda r, x, b, cfg: b != target and real_done(r, x, b, cfg))
        sizes = []
        real_cg = hitmix.moments._cg

        def spy(indptr, indices, data, b, x, cfg, **galerkin):
            sizes.append(b.size)
            return real_cg(indptr, indices, data, b, x, cfg, **galerkin)

        monkeypatch.setattr(hitmix.moments, "_cg", spy)
        got = assert_batch_equals_alone(instances, caplog)
        # Two solves per instance with a table, one for instance 1, none for
        # instance 3, which reaches no vertex.
        n = [int(got[i].moments.reachable.sum()) for i in (0, 2, 4)]
        assert sizes[len(sizes) // 2:] == [n[0], n[0], vertices.size, n[1], n[1], n[2], n[2]]
        assert type(got[1]) is MomentConvergenceError and got[1].moment_order == 1
        sizes.clear()
        with pytest.raises(MomentConvergenceError, match=f"^{re.escape(str(got[1]))}$"):
            compute_moments(g, seeds)
        assert sizes == [vertices.size]
        assert type(got[3]) is ValueError

    def test_blocks_longer_than_a_piece(self, caplog):
        # Instances of _PIECE + 1 and 2 _PIECE + 3 reachable vertices beside
        # small ones: each result is the one the instance gets alone.
        rng = np.random.default_rng(0)
        instances = []
        for n in (40, hitmix.solver._PIECE + 1, 7, 2 * hitmix.solver._PIECE + 3, 25):
            # A path through n + 1 vertices, with 2 n random chords.
            u, v = rng.integers(0, n + 1, 2 * n), rng.integers(0, n + 1, 2 * n)
            g = Graph.from_edges(n + 1, np.append(u, np.arange(n)), np.append(v, np.arange(1, n + 1)))
            instances.append((g, SeedSet.from_members([0], n + 1)))
        got = assert_batch_equals_alone(instances, caplog, HitmixConfig(g_candidates=(2,)))
        assert all(result.moments.reachable.all() for result in got)

    def test_breakdown_beside_healthy_instances(self, monkeypatch, caplog):
        # With reachability taken as "has an edge", every other instance keeps
        # a triangle that cannot reach its seed, and its moment-1 solve breaks
        # down. It gets compute_moments' NonSpdError alone, and the healthy
        # instances beside it keep their bytes.
        def has_edge(graph, seeds):
            mask = graph.degrees[seeds.complement] > 0
            mask.flags.writeable = False
            return mask

        monkeypatch.setattr(hitmix.moments, "reachable_from", has_edge)
        rng = np.random.default_rng(5)
        instances = []
        for i in range(6):
            n = int(rng.integers(20, 200))
            u, v = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
            u, v = np.append(u, np.arange(n - 1)), np.append(v, np.arange(1, n))
            if i % 2 == 0:
                u, v, n = np.append(u, [n, n + 1, n]), np.append(v, [n + 1, n + 2, n + 2]), n + 3
            instances.append((Graph.from_edges(n, u, v), SeedSet.from_members([0], n)))
        got = assert_batch_equals_alone(instances, caplog)
        for i, ((g, seeds), result) in enumerate(zip(instances, got)):
            if i % 2 == 0:
                assert type(result) is NonSpdError
                with pytest.raises(NonSpdError, match=f"^{re.escape(str(result))}$"):
                    compute_moments(g, seeds)
            else:
                assert_tables_equal(result.moments, compute_moments(g, seeds))

    def test_reads_one_instance_at_a_time(self, monkeypatch):
        # Each instance's moments are solved before the next one is read.
        instances = sbm_instances(3, [0.3, 0.2, 0.1, 0.05, 0.3])
        pulled, solves = [], []
        real_reachable = hitmix.moments.reachable_from

        def read():
            for i, (graph, seeds) in enumerate(instances):
                pulled.append(i)
                yield graph, seeds, i

        def spy(graph, seeds):
            solves.append(len(pulled))
            return real_reachable(graph, seeds)

        monkeypatch.setattr(hitmix.moments, "reachable_from", spy)
        results = hitmix_batch(read(), HitmixConfig(g_candidates=(2, 3)))
        assert pulled == []
        next(results)
        assert solves == list(range(1, len(instances) + 1))


class TestSimulation:
    def test_leaf_adjacent_to_seed(self):
        g = load("0 1")
        seeds = SeedSet.from_members([0], 2)
        mean, var, trunc = simulate_hitting_times(g, seeds, 1, 500, 100, 1)
        assert mean == 1.0 and var == 0.0 and trunc == 0

    def test_path3_matches_analytic(self):
        g, seeds = path3()
        n_walks = 100_000
        mean, var, trunc = simulate_hitting_times(g, seeds, 0, n_walks, 10_000, 42)
        se = np.sqrt(var / n_walks)
        assert abs(mean - 4.0) <= 3 * se
        assert trunc == 0

    def test_start_in_seed_errors(self):
        g, seeds = path3()
        with pytest.raises(ValueError):
            simulate_hitting_times(g, seeds, 2, 10, 100, 0)

    def test_zero_max_steps_errors(self):
        g, seeds = path3()
        with pytest.raises(ValueError):
            simulate_hitting_times(g, seeds, 0, 10, 0, 0)

    def test_deterministic_given_seed(self):
        g = random_connected(40, 0.15, 5)
        seeds = SeedSet.from_members(range(3), 40)
        a = simulate_hitting_times(g, seeds, 20, 1000, 10_000, 7)
        b = simulate_hitting_times(g, seeds, 20, 1000, 10_000, 7)
        assert a == b

    def test_agrees_with_cg_moments(self):
        g = random_connected(60, 0.12, 11)
        seeds = SeedSet.from_members(range(5), 60)
        t = compute_moments(g, seeds)
        n_walks = 40_000
        for local in [0, 17, 40]:
            v = int(t.vertices[local])
            mean, var, _ = simulate_hitting_times(g, seeds, v, n_walks, 100_000, local)
            se = np.sqrt(var / n_walks)
            assert abs(t.mean[local] - mean) <= 3 * se
