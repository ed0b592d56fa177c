import io

import numpy as np
import pytest

import hitmix.solver
from hitmix.graph import Graph, SeedSet, load_edge_list
from hitmix.moments import compute_moments
from hitmix.solver import (CgConfig, NonSpdError, RestrictedOperator,
                           conjugate_gradient)
from oracles import path3, random_connected


def dense_operator(op):
    n = op.n
    return np.column_stack([op.apply(e) for e in np.eye(n)])


class TestApply:
    def test_path3_hand_value(self):
        g, seeds = path3()
        op = RestrictedOperator(g, seeds.complement)
        y = op.apply(np.array([1.0, 0.0]))
        assert np.allclose(y, [1.0, -1.0 / np.sqrt(2)], atol=1e-15)

    def test_identity_when_no_internal_edges(self):
        # star: center 0 seeded, leaves pairwise non-adjacent
        g = load_edge_list(io.StringIO("0 1\n0 2\n0 3"))
        op = RestrictedOperator(g, SeedSet.from_members([0], 4).complement)
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(op.apply(x), x)

    def test_zero_maps_to_zero(self):
        g, seeds = path3()
        op = RestrictedOperator(g, seeds.complement)
        assert np.array_equal(op.apply(np.zeros(2)), np.zeros(2))

    def test_dimension_mismatch(self):
        g, seeds = path3()
        op = RestrictedOperator(g, seeds.complement)
        with pytest.raises(ValueError):
            op.apply(np.zeros(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetry_and_positive_definiteness(self, seed):
        g = random_connected(60, 0.1, seed)
        op = RestrictedOperator(g, SeedSet.from_members(range(5), 60).complement)
        rng = np.random.default_rng(seed + 100)
        for _ in range(5):
            x = rng.standard_normal(op.n)
            y = rng.standard_normal(op.n)
            lhs, rhs = op.apply(x) @ y, x @ op.apply(y)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
            assert x @ op.apply(x) > 0


class TestConjugateGradient:
    def test_identity_operator_one_iteration(self):
        g = load_edge_list(io.StringIO("0 1\n0 2\n0 3"))
        op = RestrictedOperator(g, SeedSet.from_members([0], 4).complement)
        b = np.array([1.0, 2.0, -3.0])
        x, stats = conjugate_gradient(op, b)
        assert stats.converged and stats.iterations <= 1
        assert np.allclose(x, b, rtol=1e-12)

    def test_path3_hand_solution(self):
        g, seeds = path3()
        op = RestrictedOperator(g, seeds.complement)
        x, stats = conjugate_gradient(op, np.array([1.0, np.sqrt(2)]))
        assert stats.converged
        assert np.allclose(x, [4.0, 3.0 * np.sqrt(2)], rtol=1e-9)

    def test_zero_rhs(self):
        g, seeds = path3()
        op = RestrictedOperator(g, seeds.complement)
        x, stats = conjugate_gradient(op, np.zeros(2))
        assert np.array_equal(x, np.zeros(2))
        assert stats.iterations == 0 and stats.converged

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_solve(self, seed):
        g = random_connected(120, 0.08, seed)
        op = RestrictedOperator(g, SeedSet.from_members(range(8), 120).complement)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(op.n)
        x, stats = conjugate_gradient(op, b)
        assert stats.converged
        x_dense = np.linalg.solve(dense_operator(op), b)
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)

    def test_monotone_residual(self):
        g = random_connected(80, 0.1, 3)
        op = RestrictedOperator(g, SeedSet.from_members(range(4), 80).complement)
        b = np.ones(op.n)
        _, stats = conjugate_gradient(op, b)
        assert stats.final_rel_residual <= 1.0

    def test_path_converges_within_n_iterations(self):
        # Textbook CG needs about n iterations on a path; restarted CG did not
        # converge within 10 n.
        n = 2000
        g = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))
        t = compute_moments(g, SeedSet.from_members([0], n))
        for stats in t.cg_stats:
            assert stats.converged and stats.iterations <= n + 10

    def test_stop_at_precision_floor_reports_true_residual(self):
        # On a long path ||x|| >> ||b||, so the true residual cannot reach
        # 1e-10 in double precision; the solve stops at the floor instead.
        n = 2000
        g = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))
        op = RestrictedOperator(g, SeedSet.from_members([0], n).complement)
        b = np.sqrt(g.degrees[1:].astype(float))
        x, stats = conjugate_gradient(op, b)
        true_rel = np.linalg.norm(b - op.apply(x)) / np.linalg.norm(b)
        assert stats.converged and stats.final_rel_residual > 1e-10
        assert stats.final_rel_residual == pytest.approx(true_rel, rel=1e-12)
        backward = np.linalg.norm(b - op.apply(x)) / (
            2 * np.linalg.norm(x) + np.linalg.norm(b))
        assert backward <= 16 * np.finfo(float).eps

    def test_unreachable_vertices_raise(self):
        # two components, seed only in the first: restricted block is singular
        g = load_edge_list(io.StringIO("0 1\n2 3\n3 4\n2 4"))
        op = RestrictedOperator(g, SeedSet.from_members([0], 5).complement)
        with pytest.raises(NonSpdError):
            conjugate_gradient(op, np.ones(op.n))

    @pytest.mark.parametrize("n, budget", [(100, 1000), (200, 1990)])
    def test_stops_at_iteration_budget(self, n, budget, monkeypatch):
        # With the stop test never met, CG runs max(1000, 10 (n - 1)) iterations
        # and reports its true residual. On path3 the recursive residual
        # underflows to zero within 40 iterations and CG breaks down instead.
        monkeypatch.setattr(hitmix.solver, "_done", lambda *args: False)
        g = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))
        op = RestrictedOperator(g, SeedSet.from_members([0], n).complement)
        b = np.ones(op.n)
        x, stats = conjugate_gradient(op, b)
        assert stats.iterations == budget and not stats.converged
        true_rel = np.linalg.norm(b - op.apply(x)) / np.linalg.norm(b)
        assert stats.final_rel_residual == true_rel


class TestCgConfig:
    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            CgConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            CgConfig(rel_tol=1.5)
