import io
import random

import numpy as np
import pytest

from hitmix.graph import (EdgeListParseError, Graph, SeedSet, load_edge_list,
                          load_seed_file, reachable_from)


def load(text):
    return load_edge_list(io.StringIO(text))


def neighbors(g, v):
    """Sorted neighbor ids of v and the corresponding adjacency values."""
    row = g.adjacency[[v]]
    return row.indices, row.data


class TestLoadEdgeList:
    def test_path_graph(self):
        g = load("0 1\n1 2")
        assert g.n_vertices == 3
        assert g.degrees.tolist() == [1, 2, 1]

    def test_multiplicity_accumulates(self):
        g = load("# comment\n0 1\n0 1")
        assert g.degrees.tolist() == [2, 2]
        nbrs, mults = neighbors(g, 0)
        assert nbrs.tolist() == [1] and mults.tolist() == [2]

    def test_reversed_pair_not_double_inserted(self):
        g = load("0 1\n1 0")
        nbrs, mults = neighbors(g, 0)
        assert mults.tolist() == [2]
        assert g.adjacency.sum() == 4

    def test_self_loop_degree_two(self):
        g = load("0 0")
        assert g.degrees.tolist() == [2]

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load("0 1\n0 x")
        with pytest.raises(EdgeListParseError, match="line 3"):
            load("0 1\n\n0 1 2")

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError):
            load("# only comments\n")

    def test_huge_id_rejected_before_allocation(self, monkeypatch):
        # One edge to id 10^12 would imply 10^12 vertices; the parse must fail
        # before any O(n) array exists.
        def no_build(*args):
            raise AssertionError("Graph.from_edges called")
        monkeypatch.setattr(Graph, "from_edges", no_build)
        with pytest.raises(EdgeListParseError, match="relabel"):
            load("0 1\n1 1000000000000")

    def test_sparse_id_allowance_boundary(self):
        # Two edges allow n = 10 * 2 + 1000 vertices and no more.
        assert load("0 1\n0 1019").n_vertices == 1020
        with pytest.raises(EdgeListParseError, match="1021 vertices for 2 edges"):
            load("0 1\n0 1020")

    def test_shuffled_lines_same_graph(self):
        lines = ["0 1", "1 2", "2 3", "0 3", "1 3", "0 1"]
        g1 = load("\n".join(lines))
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(lines)
            g2 = load("\n".join(lines))
            assert g1.degrees.tolist() == g2.degrees.tolist()
            assert (g1.adjacency != g2.adjacency).nnz == 0


class TestGraphInvariants:
    def test_symmetry_and_degree_sum(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 30, size=100)
        v = rng.integers(0, 30, size=100)
        g = Graph.from_edges(30, u, v)
        assert (g.adjacency != g.adjacency.T).nnz == 0
        assert g.degrees.sum() == 2 * u.size

    def test_id_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [0], [2])


class TestSeedSet:
    def test_complement_sorted(self):
        s = SeedSet.from_members([1], 4)
        assert s.complement.tolist() == [0, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeedSet.from_members([], 3)

    def test_full_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            SeedSet.from_members([0, 1, 2], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SeedSet.from_members([5], 3)


class TestReachability:
    def test_connected_path(self):
        g = load("0 1\n1 2")
        mask = reachable_from(g, SeedSet.from_members([2], 3))
        assert mask.all()
        assert not mask.flags.writeable

    def test_two_components(self):
        g = load("0 1\n2 3")
        mask = reachable_from(g, SeedSet.from_members([0], 4))
        # complement [1, 2, 3]: only vertex 1 reaches the seed
        assert mask.tolist() == [True, False, False]

    def test_whole_component_seeded(self):
        g = load("0 1\n2 3")
        mask = reachable_from(g, SeedSet.from_members([0, 1], 4))
        assert mask.tolist() == [False, False]


def test_load_seed_file():
    s = load_seed_file(io.StringIO("# seeds\n1\n3\n"), 5)
    assert s.members == frozenset({1, 3})
    with pytest.raises(EdgeListParseError):
        load_seed_file(io.StringIO("abc\n"), 5)
