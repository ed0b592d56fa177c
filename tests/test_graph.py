import io
import random

import numpy as np
import pytest

from hitmix.graph import (EdgeListParseError, Graph, NonSeedIndex, SeedSet,
                          build_nonseed_index, load_edge_list, load_seed_file,
                          reachable_from)


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


class TestNonSeedIndex:
    def test_mapping_example(self):
        g = load("0 1\n1 2\n2 3")
        idx = build_nonseed_index(g, SeedSet.from_members([1], 4))
        assert idx.local_to_global.tolist() == [0, 2, 3]
        assert idx.global_to_local[[0, 2, 3]].tolist() == [0, 1, 2]
        assert idx.global_to_local[1] == -1

    def test_round_trip(self):
        idx = NonSeedIndex.from_vertices(10, np.array([0, 3, 7, 9]))
        for v in [0, 3, 7, 9]:
            assert idx.local_to_global[idx.global_to_local[v]] == v

    def test_single_nonseed(self):
        g = load("0 1\n1 2")
        idx = build_nonseed_index(g, SeedSet.from_members([0, 2], 3))
        assert idx.local_to_global.tolist() == [1]


class TestReachability:
    def test_connected_path(self):
        g = load("0 1\n1 2")
        rep = reachable_from(g, SeedSet.from_members([2], 3))
        assert rep.reachable.all() and rep.unreachable_count == 0

    def test_two_components(self):
        g = load("0 1\n2 3")
        rep = reachable_from(g, SeedSet.from_members([0], 4))
        # complement [1, 2, 3]: only vertex 1 reaches the seed
        assert rep.reachable.tolist() == [True, False, False]
        assert rep.unreachable_count == 2

    def test_whole_component_seeded(self):
        g = load("0 1\n2 3")
        rep = reachable_from(g, SeedSet.from_members([0, 1], 4))
        assert rep.reachable.tolist() == [False, False]


def test_load_seed_file():
    s = load_seed_file(io.StringIO("# seeds\n1\n3\n"), 5)
    assert s.members == frozenset({1, 3})
    with pytest.raises(EdgeListParseError):
        load_seed_file(io.StringIO("abc\n"), 5)
