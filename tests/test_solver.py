import io
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hitmix.moments
import hitmix.solver
import oracles
from hitmix.graph import Graph, SeedSet, load_edge_list, reachable_from
from hitmix.moments import compute_moments, restricted_laplacian
from hitmix.solver import _PIECE, CgConfig, CgStats, NonSpdError, _cg
from oracles import barbell_graph, path3, random_connected, reference_cg


def laplacian(graph, seeds):
    return restricted_laplacian(graph, seeds.complement)


def solve(h, b, cfg=None):
    """_cg from 0 on h's CSR arrays: x and its CgStats."""
    x = np.zeros(b.size)
    return x, _cg(h.indptr, h.indices, h.data, b, x, cfg or CgConfig())


class TestApply:
    def test_path3_hand_value(self):
        h = laplacian(*path3())
        y = h @ np.array([1.0, 0.0])
        assert np.allclose(y, [1.0, -1.0 / np.sqrt(2)], atol=1e-15)

    def test_identity_when_no_internal_edges(self):
        # star: center 0 seeded, leaves pairwise non-adjacent
        g = load_edge_list(io.StringIO("0 1\n0 2\n0 3"))
        h = laplacian(g, SeedSet.from_members([0], 4))
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(h @ x, x)

    def test_zero_maps_to_zero(self):
        h = laplacian(*path3())
        assert np.array_equal(h @ np.zeros(2), np.zeros(2))

    def test_isolated_vertex_rejected(self):
        g = load_edge_list(io.StringIO("0 1\n0 3"))     # vertex 2 has no edge
        with pytest.raises(ValueError, match="isolated vertex"):
            restricted_laplacian(g, np.array([1, 2]))

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetry_and_positive_definiteness(self, seed):
        g = random_connected(60, 0.1, seed)
        h = laplacian(g, SeedSet.from_members(range(5), 60))
        rng = np.random.default_rng(seed + 100)
        for _ in range(5):
            x = rng.standard_normal(h.shape[0])
            y = rng.standard_normal(h.shape[0])
            lhs, rhs = (h @ x) @ y, x @ (h @ y)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
            assert x @ (h @ x) > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_bits_equal_diagonal_scaling_product(self, seed):
        # Fixed-seed outputs were made with I - diag(d) @ A_sub @ diag(d). On a
        # multigraph with pairs repeated up to 3 times and self-loops, a
        # different multiply order would round some entries differently.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        g = repeated_pairs_graph(n, rng)
        assert_equals_diagonal_scaling_product(g, np.flatnonzero((g.degrees > 0) & (rng.random(n) < 0.8)))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), block=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_bits_at_block_seams(self, n, block, seed):
        # H is written a block of rows at a time; small blocks put seams
        # between rows of every kind, including rows that keep no entry.
        rng = np.random.default_rng(seed)
        g = repeated_pairs_graph(n, rng)
        vertices = np.flatnonzero((g.degrees > 0) & (rng.random(n) < 0.8))
        with mock.patch.object(hitmix.moments, "_H_BLOCK", block):
            assert_equals_diagonal_scaling_product(g, vertices)

    def test_bits_over_three_full_blocks(self):
        rng = np.random.default_rng(11)
        n = 20_000
        g = repeated_pairs_graph(n, rng)
        vertices = np.flatnonzero((g.degrees > 0) & (rng.random(n) < 0.9))
        assert vertices.size > 3 * hitmix.moments._H_BLOCK
        assert_equals_diagonal_scaling_product(g, vertices)

    def test_empty_subset(self):
        g = repeated_pairs_graph(5, np.random.default_rng(0))
        h = assert_equals_diagonal_scaling_product(g, np.empty(0, dtype=np.int64))
        assert h.shape == (0, 0)

    @pytest.mark.parametrize("blocks, bound", [(8, 1.85), (1, 2.6)])
    def test_scratch_is_a_fraction_of_h(self, blocks, bound):
        # Beside H the build holds one block's rows and a few arrays of n
        # entries: on 8 blocks, 1.60 times H's bytes in all. Copies of
        # A[v][:, v] and of its scaled form take the peak to 2.15 times them.
        # On one block, H's arrays are made once the block's A[rows] is
        # freed: 2.39 times H, where making them first holds 3.36 times H.
        rng = np.random.default_rng(4)
        n = blocks * hitmix.moments._H_BLOCK
        g = Graph.from_edges(n, rng.integers(0, n, 5 * n), rng.integers(0, n, 5 * n))
        h, peak = oracles.traced_peak(restricted_laplacian, g, np.flatnonzero(g.degrees > 0))
        assert peak < bound * (h.indptr.nbytes + h.indices.nbytes + h.data.nbytes)


def repeated_pairs_graph(n, rng):
    """A multigraph on n vertices: 3n random pairs, n of them twice more, and
    a self-loop at every 4th vertex."""
    u, v = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    repeat = rng.integers(0, u.size, n)
    u = np.concatenate([u, u[repeat], u[repeat], np.arange(0, n, 4)])
    v = np.concatenate([v, v[repeat], v[repeat], np.arange(0, n, 4)])
    return Graph.from_edges(n, u, v)


def assert_equals_diagonal_scaling_product(g, vertices):
    """restricted_laplacian(g, vertices) is scipy's I - d A[v][:, v] d in
    indptr, in indices' values and dtype and in data's bytes; returns it."""
    d = sp.diags(1.0 / np.sqrt(g.degrees[vertices]))
    ref = (sp.identity(vertices.size, format="csr") - d @ g.adjacency[vertices][:, vertices] @ d).tocsr()
    h = restricted_laplacian(g, vertices)
    assert h.format == "csr"
    assert np.array_equal(h.indptr, ref.indptr)
    assert h.indices.dtype == ref.indices.dtype and np.array_equal(h.indices, ref.indices)
    assert h.data.tobytes() == ref.data.tobytes()
    return h


def random_csr(rng, n, index_dtype):
    """An n x n CSR matrix with empty rows, rows in random column order and
    index arrays of index_dtype; entries span six orders of magnitude."""
    counts = rng.integers(0, min(n, 8) + 1, n) * (rng.random(n) < 0.8)
    indices = np.concatenate([rng.choice(n, c, replace=False) for c in counts]
                             + [np.empty(0, dtype=np.int64)])
    data = rng.standard_normal(indices.size) * 10.0 ** rng.uniform(-3, 3, indices.size)
    h = sp.csr_matrix((data, indices, np.concatenate([[0], np.cumsum(counts)])),
                      shape=(n, n))
    # scipy picks int32 for indices that fit, so int64 is set afterwards
    h.indices, h.indptr = h.indices.astype(index_dtype), h.indptr.astype(index_dtype)
    return h


def kernel_product(h, p, out):
    """What _cg computes for h @ p into its kept buffer."""
    out.fill(0.0)
    hitmix.solver.csr_matvec(h.shape[0], h.shape[1], h.indptr, h.indices, h.data, p, out)
    return out


class TestKernel:
    """_cg calls scipy's csr_matvec into a kept buffer in place of h @ p; it
    must give h @ p's bytes on any CSR matrix."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_matmul_bit_for_bit(self, seed, index_dtype):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        h = random_csr(rng, n, index_dtype)
        assert h.indices.dtype == index_dtype and h.indptr.dtype == index_dtype
        out = np.full(n, np.nan)        # kept between products, as in CG
        for _ in range(3):
            p = rng.standard_normal(n)
            assert kernel_product(h, p, out).tobytes() == (h @ p).tobytes()

    def test_rows_are_empty_and_unsorted(self):
        h = random_csr(np.random.default_rng(0), 200, np.int32)
        assert (np.diff(h.indptr) == 0).any()
        assert not h.has_sorted_indices


class TestConjugateGradient:
    def test_identity_operator_one_iteration(self):
        g = load_edge_list(io.StringIO("0 1\n0 2\n0 3"))
        h = laplacian(g, SeedSet.from_members([0], 4))
        b = np.array([1.0, 2.0, -3.0])
        x, stats = solve(h, b)
        assert stats.converged and stats.iterations <= 1
        assert np.allclose(x, b, rtol=1e-12)

    def test_path3_hand_solution(self):
        x, stats = solve(laplacian(*path3()), np.array([1.0, np.sqrt(2)]))
        assert stats.converged
        assert np.allclose(x, [4.0, 3.0 * np.sqrt(2)], rtol=1e-9)

    def test_zero_rhs(self):
        x, stats = solve(laplacian(*path3()), np.zeros(2))
        assert np.array_equal(x, np.zeros(2))
        assert stats.iterations == 0 and stats.converged

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_solve(self, seed):
        g = random_connected(120, 0.08, seed)
        h = laplacian(g, SeedSet.from_members(range(8), 120))
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(h.shape[0])
        x, stats = solve(h, b)
        assert stats.converged
        x_dense = np.linalg.solve(h.toarray(), b)
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)

    def test_monotone_residual(self):
        g = random_connected(80, 0.1, 3)
        h = laplacian(g, SeedSet.from_members(range(4), 80))
        _, stats = solve(h, np.ones(h.shape[0]))
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
        h = laplacian(g, SeedSet.from_members([0], n))
        b = np.sqrt(g.degrees[1:].astype(float))
        x, stats = solve(h, b)
        true_rel = np.linalg.norm(b - h @ x) / np.linalg.norm(b)
        assert stats.converged is True and stats.final_rel_residual > 1e-10
        assert stats.final_rel_residual == pytest.approx(true_rel, rel=1e-12)
        backward = np.linalg.norm(b - h @ x) / (
            2 * np.linalg.norm(x) + np.linalg.norm(b))
        assert backward <= 16 * np.finfo(float).eps

    def test_unreachable_vertices_raise(self):
        # two components, seed only in the first: restricted block is singular
        g = load_edge_list(io.StringIO("0 1\n2 3\n3 4\n2 4"))
        h = laplacian(g, SeedSet.from_members([0], 5))
        with pytest.raises(NonSpdError):
            solve(h, np.ones(h.shape[0]))

    @pytest.mark.parametrize("n, budget", [(100, 1000), (200, 1990)])
    def test_stops_at_iteration_budget(self, n, budget, monkeypatch):
        # With the stop test never met, CG runs max(1000, 10 (n - 1)) iterations
        # and reports its true residual. On path3 the recursive residual
        # underflows to zero within 40 iterations, where CG stops instead.
        monkeypatch.setattr(hitmix.solver, "_done", lambda *args: False)
        g = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))
        h = laplacian(g, SeedSet.from_members([0], n))
        b = np.ones(h.shape[0])
        x, stats = solve(h, b)
        assert stats.iterations == budget and not stats.converged
        true_rel = np.linalg.norm(b - h @ x) / np.linalg.norm(b)
        assert stats.final_rel_residual == true_rel

    def test_zero_recursive_residual_stops(self, monkeypatch):
        # Seeded at one end of a 2-vertex path, H = [1]: the first step leaves
        # a recursive residual of exactly 0 and then p = 0. With that first stop
        # check rejected, CG once took another step and raised NonSpdError.
        real_done = hitmix.solver._done
        checks = []

        def reject_first(*args):
            checks.append(args)
            return len(checks) > 1 and real_done(*args)

        monkeypatch.setattr(hitmix.solver, "_done", reject_first)
        g = Graph.from_edges(2, [0], [1])
        x, stats = solve(laplacian(g, SeedSet.from_members([0], 2)), np.ones(1))
        # E_k T = k (2 (n - 1) - k) = 1 at k = 1; here b = sqrt(d) = 1, so x = E T.
        assert x.tolist() == [1.0]
        assert stats.converged and stats.iterations == 1 and stats.final_rel_residual == 0.0
        # The rejected check was that of the recursive residual; the second, of
        # the true residual, passed. Both saw ||x|| = 1, not a bound on it.
        assert [args[:2] for args in checks] == [(0.0, 1.0), (0.0, 1.0)]


def path(n):
    return Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))


def multigraph(rng, n):
    """A random multigraph on n vertices with repeated pairs and self-loops."""
    u, v = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
    repeat = rng.integers(0, u.size, n // 2)
    u = np.concatenate([u, u[repeat], np.arange(0, n, 5)])
    v = np.concatenate([v, v[repeat], np.arange(0, n, 5)])
    return Graph.from_edges(n, u, v)


def csr_arrays(h):
    return h.indptr, h.indices, h.data


def assert_equals_reference(h, b, cfg=None, index_dtype=np.int32):
    """_cg from 0 on h's CSR arrays, with index arrays cast to index_dtype,
    gives reference_cg's x bytes and stats, or raises its NonSpdError message.
    Returns the stats, or None after a breakdown."""
    arrays = h.indptr.astype(index_dtype), h.indices.astype(index_dtype), h.data
    x = np.zeros(b.size)
    try:
        want_x, want = reference_cg(h, b, cfg)
    except NonSpdError as exc:
        with pytest.raises(NonSpdError, match=f"^{re.escape(str(exc))}$"):
            _cg(*arrays, b, x, cfg or CgConfig())
        return None
    got = _cg(*arrays, b, x, cfg or CgConfig())
    assert x.tobytes() == want_x.tobytes()
    assert got.iterations == want.iterations
    assert np.float64(got.final_rel_residual).tobytes() == \
        np.float64(want.final_rel_residual).tobytes()
    assert got.converged is want.converged
    return got


def assert_moment_solves_equal_reference(graph, seeds, cfg=None):
    """Both moment systems of compute_moments, from 0, held to reference_cg."""
    vertices = seeds.complement[reachable_from(graph, seeds)]
    h = restricted_laplacian(graph, vertices)
    sqrt_deg = np.sqrt(graph.degrees[vertices])
    x1, _ = reference_cg(h, sqrt_deg, cfg)
    rhs2 = sqrt_deg * (1.0 + 2.0 * (x1 / sqrt_deg - 1.0))
    return [assert_equals_reference(h, b, cfg) for b in (sqrt_deg, rhs2)]


class TestEqualsReferenceCg:
    """_cg from 0 tests ||x|| only where a running bound lets the floor test
    pass; every stop, iterate and residual must still be reference_cg's."""

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-15])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_multigraphs(self, seed, rel_tol):
        # Repeated pairs, self-loops and unreachable parts. The reachable block
        # is also solved for a random rhs; the block with the unreachable parts
        # must break down with the same error, or converge in the same way.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 400))
        g = multigraph(rng, n)
        seeds = SeedSet.from_members(rng.choice(n, int(rng.integers(1, 4)), replace=False), n)
        cfg = CgConfig(rel_tol)
        stats = assert_moment_solves_equal_reference(g, seeds, cfg)
        assert all(st.converged for st in stats)
        vertices = seeds.complement[reachable_from(g, seeds)]
        h = restricted_laplacian(g, vertices)
        assert assert_equals_reference(h, rng.standard_normal(vertices.size), cfg).converged
        vertices = seeds.complement[g.degrees[seeds.complement] > 0]
        h = restricted_laplacian(g, vertices)
        assert_equals_reference(h, np.ones(vertices.size), cfg)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", range(3))
    def test_unsorted_rows_and_index_dtypes(self, seed, index_dtype):
        # H with each row's entries shuffled and its index arrays cast to
        # index_dtype: the products sum in another order, but the same one as
        # reference_cg's.
        rng = np.random.default_rng(seed)
        g = oracles.random_connected(150, 0.05, seed)
        h = restricted_laplacian(g, np.arange(3, 150))
        for lo, hi in zip(h.indptr[:-1], h.indptr[1:]):
            order = lo + rng.permutation(hi - lo)
            h.indices[lo:hi], h.data[lo:hi] = h.indices[order], h.data[order]
        h.has_sorted_indices = False
        assert assert_equals_reference(h, np.sqrt(g.degrees[3:]), None, index_dtype).converged

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-15])
    def test_path_2000_stops_at_the_floor(self, rel_tol):
        stats = assert_moment_solves_equal_reference(
            path(2000), SeedSet.from_members([0], 2000), CgConfig(rel_tol))
        assert [st.iterations for st in stats] == [1999, 1997]
        assert all(st.converged and st.final_rel_residual > 1e-10 for st in stats)

    def test_zero_recursive_residual(self):
        stats = assert_moment_solves_equal_reference(path(2), SeedSet.from_members([0], 2))
        assert stats[0].iterations == 1 and stats[0].final_rel_residual == 0.0

    def test_iteration_budget(self, monkeypatch):
        # With no stop test met, both run max(1000, 10 n) iterations.
        monkeypatch.setattr(hitmix.solver, "_done", lambda *args: False)
        monkeypatch.setattr(oracles, "reference_done", lambda *args: False)
        g = path(100)
        h = restricted_laplacian(g, np.arange(1, 100))
        stats = assert_equals_reference(h, np.sqrt(g.degrees[1:]))
        assert stats.iterations == 1000 and not stats.converged


class TestBlocksEqualReferenceCg:
    """Several H per case, of many sizes and shapes, each solved by _cg on its
    own CSR arrays and held to reference_cg bit for bit."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-15])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_multigraph_blocks(self, seed, rel_tol, index_dtype):
        # Reachable H of random multigraphs, with moment-1 and random rhs, a
        # 1-vertex H and a zero rhs.
        rng = np.random.default_rng(seed)
        blocks, rhs = [], []
        for _ in range(int(rng.integers(2, 6))):
            n = int(rng.integers(4, 300))
            g = multigraph(rng, n)
            seeds = SeedSet.from_members(rng.choice(n, int(rng.integers(1, 4)), replace=False), n)
            vertices = seeds.complement[reachable_from(g, seeds)]
            blocks.append(restricted_laplacian(g, vertices))
            rhs.append(np.sqrt(g.degrees[vertices]) if rng.random() < 0.5
                       else rng.standard_normal(vertices.size))
        blocks += [restricted_laplacian(path(2), np.array([1])), blocks[0]]
        rhs += [np.ones(1), np.zeros(blocks[0].shape[0])]
        results = [assert_equals_reference(blk, b, CgConfig(rel_tol), index_dtype)
                   for blk, b in zip(blocks, rhs)]
        assert all(st.converged for st in results)
        assert results[-1] == CgStats(0, 0.0, True)

    def test_iteration_budget_per_block(self, monkeypatch):
        # With no stop test met, each H runs its own max(1000, 10 n).
        monkeypatch.setattr(hitmix.solver, "_done", lambda *args: False)
        monkeypatch.setattr(oracles, "reference_done", lambda *args: False)
        results = []
        for n in (100, 200, 150):
            g = path(n)
            results.append(assert_equals_reference(restricted_laplacian(g, np.arange(1, n)),
                                                   np.sqrt(g.degrees[1:])))
        assert [st.iterations for st in results] == [1000, 1990, 1490]
        assert not any(st.converged for st in results)

    def test_blocks_longer_than_a_piece(self):
        # H of _PIECE + 1 and 2 _PIECE + 3 rows, beside small ones, keeps the
        # bits of reference_cg; the Galerkin accumulators leave x as it is.
        rng = np.random.default_rng(0)
        for n in (40, _PIECE + 1, 7, 2 * _PIECE + 3, 25):
            # A path through n + 1 vertices, with 2 n random chords.
            u, v = rng.integers(0, n + 1, 2 * n), rng.integers(0, n + 1, 2 * n)
            g = Graph.from_edges(n + 1, np.append(u, np.arange(n)), np.append(v, np.arange(1, n + 1)))
            h, b = restricted_laplacian(g, np.arange(1, n + 1)), np.sqrt(g.degrees[1:])
            st = assert_equals_reference(h, b)
            x, st_g, x0 = galerkin_solve(csr_arrays(h), b)
            assert x.tobytes() == solve(h, b)[0].tobytes()
            assert st_g == st and st.converged and x0.any()

    def test_empty_block(self):
        # An H of no rows has nothing to solve.
        assert _cg(*csr_arrays(sp.csr_matrix((0, 0))), np.empty(0), np.empty(0), CgConfig()) == \
            CgStats(0, 0.0, True)


def galerkin_solve(arrays, b, cfg=None):
    """_cg from 0 on a block's CSR arrays, with a Galerkin vector: x, the
    result and the vector."""
    x, galerkin = np.zeros(b.size), np.full(b.size, np.nan)
    return x, _cg(*arrays, b, x, cfg or CgConfig(), galerkin=galerkin), galerkin


class TestStartAndGalerkin:
    """Moment 2 starts from the Galerkin start that moment 1's solve leaves."""

    def test_exact_start_stops_after_one_step(self):
        # The residual is relative to ||b||, not to ||b - H x0||.
        g = barbell_graph(50, 20)
        h = restricted_laplacian(g, np.arange(1, g.n_vertices))
        b = np.sqrt(g.degrees[1:])
        x, _ = solve(h, b)
        stats = _cg(*csr_arrays(h), b, x, CgConfig())
        assert stats.iterations == 1 and stats.converged
        assert stats.final_rel_residual <= 1e-10

    def test_start_with_zero_residual_takes_no_step(self):
        g = load_edge_list(io.StringIO("0 1\n0 2\n0 3"))
        h = laplacian(g, SeedSet.from_members([0], 4))   # the identity
        b = np.array([1.0, 2.0, -3.0])
        x = b.copy()
        assert _cg(*csr_arrays(h), b, x, CgConfig()) == CgStats(0, 0.0, True)
        assert x.tobytes() == b.tobytes()

    @pytest.mark.parametrize("graph", [path(200), path(2000), oracles.random_connected(2, 1.0, 0),
                                       Graph.from_edges(1000, np.arange(1000),
                                                        (np.arange(1000) + 1) % 1000),
                                       barbell_graph(50, 20), barbell_graph(20, 10)],
                             ids=["path200", "path2000", "edge", "cycle1000", "barbell50-20",
                                  "barbell20-10"])
    def test_start_solves_moment_2_when_krylov_space_is_whole(self, graph):
        # Moment 1 runs until its Krylov space is the whole space, so the
        # Galerkin start solves H y = 2x - b up to the stop test (rel_tol, or
        # the floor, which cycle1000 meets at 1.5e-10).
        h = restricted_laplacian(graph, np.arange(1, graph.n_vertices))
        b = np.sqrt(graph.degrees[1:])
        x, stats, x0 = galerkin_solve(csr_arrays(h), b)
        assert stats.converged
        b2 = 2.0 * x - b
        assert oracles.reference_done(float(np.linalg.norm(b2 - h @ x0)), x0,
                                      float(np.linalg.norm(b2)), CgConfig())
        stats = _cg(*csr_arrays(h), b2, x0, CgConfig())
        assert stats.converged and stats.iterations <= 1

    def test_unconverged_block_gets_zero_start(self, monkeypatch):
        # With no stop test met, CG runs on far past convergence, where rr
        # underflows and the coefficients lose all meaning or overflow (path 10):
        # a block that does not converge gets 0, with no RuntimeWarning.
        monkeypatch.setattr(hitmix.solver, "_done", lambda *args: False)
        for n in (3, 10, 100):
            g = path(n)
            h = restricted_laplacian(g, np.arange(1, n))
            _, stats, x0 = galerkin_solve(csr_arrays(h), np.sqrt(g.degrees[1:]))
            assert not stats.converged and not x0.any()


class TestCgConfig:
    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            CgConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            CgConfig(rel_tol=1.5)
