import io
import random
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hitmix.graph
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


def load_line_by_line(text):
    """load_edge_list with the bulk parse switched off."""
    with mock.patch.object(hitmix.graph, "_bulk_ids", return_value=None):
        return load(text)


def outcome(loader, text):
    """The CSR of the loaded graph, or the parse error's line number and message."""
    try:
        g = loader(text)
    except EdgeListParseError as exc:
        return exc.line_no, str(exc)
    a = g.adjacency
    return (g.n_vertices, a.indptr.tolist(), a.indices.tolist(), a.data.tolist(),
            str(a.indices.dtype), str(a.data.dtype), g.degrees.tolist())


# Edge lines, blank and comment lines, and lines that only the line loop takes.
_EDGE_LINE = st.builds(
    lambda u, v, lead, sep, trail: f"{lead}{u}{sep}{v}{trail}",
    st.integers(0, 40), st.integers(0, 40), st.sampled_from(["", " ", "\t", "00"]),
    st.sampled_from([" ", "\t", "  ", " \t "]), st.sampled_from(["", " ", "\t"]))
_NOISE_LINE = st.sampled_from(["", "   ", "\t", "# comment", "  # indented", "#", "#1 2", " #3 4"])
_OTHER_LINE = st.sampled_from([
    "+3 4", "1 2 # c", "\u0661 2", "7", "1 2 3", "-1 2", "a b", "1 12345678901234567890",
    "\u00a02 3", "2\u20033"])


@settings(max_examples=300, deadline=None)
@given(header=st.lists(st.sampled_from(["# SNAP header", "", "  # x", "\t"]), max_size=3),
       body=st.lists(st.one_of(_EDGE_LINE, _EDGE_LINE, _NOISE_LINE, _OTHER_LINE), max_size=12),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans())
def test_bulk_parse_matches_line_loop(header, body, newline, final_newline):
    text = newline.join(header + body) + (newline if final_newline else "")
    assert outcome(load, text) == outcome(load_line_by_line, text)


class TestBulkParseTraps:
    def test_even_token_total_with_a_three_token_line(self):
        assert hitmix.graph._bulk_ids("1 2 3\n4\n") is None
        with pytest.raises(EdgeListParseError, match=r"^line 1: expected 2 tokens, got 3$"):
            load("1 2 3\n4\n")

    def test_comment_after_the_first_edge_is_a_comment(self):
        assert load("0 1\n#1 2\n").n_vertices == 2

    def test_twenty_digit_id_hits_sparse_id_guard(self):
        # int64 parsing would saturate this id to 2**63 - 1.
        with pytest.raises(EdgeListParseError,
                           match="vertex id 12345678901234567890 implies"):
            load("0 1\n1 12345678901234567890\n")

    @pytest.mark.parametrize("text", ["", "\n \n\t\n", "# header only\n"])
    def test_no_edges(self, text):
        with pytest.raises(EdgeListParseError, match="^line 0: no edges in input$"):
            load(text)

    def test_plain_and_snap_lists_never_reach_the_line_loop(self, monkeypatch):
        def no_loop(text):
            raise AssertionError("line loop reached")
        monkeypatch.setattr(hitmix.graph, "_line_ids", no_loop)
        assert load("0 1\n1 2\n2 0\n").degrees.tolist() == [2, 2, 2]
        snap = "# Directed graph: x.txt\n# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n0\t1\n1\t2\n"
        assert load(snap).degrees.tolist() == [1, 2, 1]


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

    def test_matches_c_plus_c_transpose(self):
        # Reference: A = C + C^T for the COO C of the pairs, in canonical CSR.
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 40):
            u, v = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
            c = sp.coo_matrix((np.ones(u.size, dtype=np.int64), (u, v)), shape=(n, n))
            ref = (c + c.T).tocsr()
            ref.sort_indices()
            a = Graph.from_edges(n, u, v).adjacency
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, name), getattr(ref, name))

    def test_vertex_count_beyond_pair_keys_rejected(self):
        with pytest.raises(ValueError, match="more than 2"):
            Graph.from_edges(2 ** 31 + 1, [0], [1])


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
