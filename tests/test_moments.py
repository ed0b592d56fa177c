import io

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from hitmix.graph import Graph, SeedSet, load_edge_list, reachable_from
from hitmix.moments import compute_moments, simulate_hitting_times
from hitmix.sbm import SbmConfig, sample_sbm
from hitmix.solver import CgConfig


def load(text):
    return load_edge_list(io.StringIO(text))


def path3():
    return load("0 1\n1 2"), SeedSet.from_members([2], 3)


def random_connected(n, p, seed):
    rng = np.random.default_rng(seed)
    while True:
        g, _ = sample_sbm(SbmConfig(1, n, p, 0.0), rng)
        if g.degrees.min() > 0 and reachable_from(
                g, SeedSet.from_members([0], n)).all():
            return g


def dense_moments(graph, seeds):
    """Direct dense solve of the first-step moment systems (oracle)."""
    idx = np.asarray(seeds.complement)
    a = graph.adjacency.toarray().astype(float)
    p = a / graph.degrees[:, None]
    p_sub = p[np.ix_(idx, idx)]
    system = np.eye(idx.size) - p_sub
    et1 = np.linalg.solve(system, np.ones(idx.size))
    return et1, np.linalg.solve(system, 1.0 + 2.0 * (p_sub @ et1))


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
        et1, et2 = dense_moments(g, seeds)
        assert np.linalg.norm(t.mean - et1) <= 1e-8 * np.linalg.norm(et1)
        var = et2 - et1 ** 2
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


def barbell_graph(k, length):
    """Two K_k joined by a path through `length` extra vertices."""
    iu, ju = np.triu_indices(k, 1)
    bridge = np.arange(k - 1, k + length + 1)
    u = np.concatenate([iu, bridge[:-1], iu + k + length])
    v = np.concatenate([ju, bridge[1:], ju + k + length])
    return Graph.from_edges(2 * k + length, u, v)


def splu_moments(graph, seeds):
    """Mean and variance from sparse LU solves of the first-step systems."""
    idx = seeds.complement
    p_sub = (sp.diags(1.0 / graph.degrees[idx])
             @ graph.adjacency[idx][:, idx].astype(float))
    lu = splu(sp.csc_matrix(sp.identity(idx.size) - p_sub))
    m1 = lu.solve(np.ones(idx.size))
    m2 = lu.solve(1.0 + 2.0 * (p_sub @ m1))
    return m1, m2 - m1 ** 2


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
