import io
import random
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import hitmix.graph
from hitmix.graph import (EdgeListParseError, Graph, SeedSet, load_edge_list,
                          load_seed_file, reachable_from)
from oracles import bfs_reachable, concat_sort_graph_arrays, traced_peak


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

    def test_blank_lines_between_edges_add_no_ids(self):
        # np.fromstring reads a block of blanks as [0]; such a block is skipped.
        assert hitmix.graph._bulk_ids("0 1\n\n  \n\t\n1 2\n \n").tolist() == [0, 1, 1, 2]


def test_bulk_parse_matches_line_loop_in_line_blocks():
    # A block ends at the first newline past _BULK_BLOCK characters: with 1,
    # every line that is not blank is a block of its own.
    with mock.patch.object(hitmix.graph, "_BULK_BLOCK", 1):
        test_bulk_parse_matches_line_loop()


class TestBulkParseTrapsInLineBlocks(TestBulkParseTraps):
    """The traps again, with a block boundary at every line that is not blank."""

    @pytest.fixture(autouse=True)
    def line_blocks(self, monkeypatch):
        monkeypatch.setattr(hitmix.graph, "_BULK_BLOCK", 1)


def test_bulk_parse_scratch_does_not_grow_with_the_text(monkeypatch):
    # Beside the ids it returns, the parse holds the arrays of one block of
    # lines, not of the text: 8 times the lines may not need twice the
    # scratch. A whole-text parse needs several bytes per character.
    monkeypatch.setattr(hitmix.graph, "_BULK_BLOCK", 1 << 16)
    rng = np.random.default_rng(5)

    def scratch(n_lines):
        pairs = rng.integers(0, 10 ** 6, (n_lines, 2))
        text = "# header\n" + "".join(f"{a}\t{b}\n" for a, b in pairs.tolist())
        ids, peak = traced_peak(hitmix.graph._bulk_ids, text)
        assert np.array_equal(ids, pairs.ravel())
        return peak - ids.nbytes

    small, large = scratch(20_000), scratch(160_000)
    assert large < 2 * small


def test_from_edges_scratch_is_three_times_the_keys():
    # The build sorts 2m keys of 8 bytes. Beside them it holds at most one
    # array of the entries and one of their run starts or lengths, and the
    # graph it returns is smaller than the keys: 3.1 times the keys' bytes
    # here. Sorting a copy of concatenated keys, or holding the keys beside
    # the entries, run starts and lengths, takes the peak to 4 times them.
    rng = np.random.default_rng(2)
    n, m = 50_000, 400_000
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    g, peak = traced_peak(Graph.from_edges, n, u, v)
    assert g.degrees.sum() == 2 * m
    assert peak < 3.5 * (2 * m * 8)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                           max_size=40))
@example(n=3, pairs=[])                         # no edges
@example(n=2, pairs=[(1, 1), (0, 0), (1, 1)])   # self-loops
@example(n=2, pairs=[(0, 1), (1, 0), (0, 1)])   # one pair three times
@example(n=6, pairs=[(0, 1), (4, 1)])           # isolated vertices 2, 3 and 5
def test_from_edges_matches_concat_sort_build(n, pairs):
    pairs = [(a % n, b % n) for a, b in pairs]
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    g = Graph.from_edges(n, u, v)
    built = (g.adjacency.indptr, g.adjacency.indices, g.adjacency.data, g.degrees)
    for got, want in zip(built, concat_sort_graph_arrays(n, u, v)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
            g = Graph.from_edges(n, u, v)
            a = g.adjacency
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, name), getattr(ref, name))
            # The contract the readers rely on: canonical, float64, read-only,
            # and degrees that are the row sums.
            assert a.has_canonical_format
            assert a.dtype == np.float64 and g.degrees.dtype == np.float64
            assert np.array_equal(g.degrees, np.asarray(a.sum(axis=1)).ravel())
            assert not a.data.flags.writeable and not g.degrees.flags.writeable

    def test_non_symmetric_input_cannot_become_a_graph(self):
        # The directed path 0 -> 1 -> 2 as a CSR has no constructor to enter.
        directed = sp.csr_matrix((np.ones(2), ([0, 1], [1, 2])), shape=(3, 3))
        with pytest.raises(TypeError):
            Graph(3, directed)
        # As edges it comes out symmetric, and seed 2 reaches 0 and 1.
        g = Graph.from_edges(3, [0, 1], [1, 2])
        assert (g.adjacency != g.adjacency.T).nnz == 0
        assert g.degrees.tolist() == [1, 2, 1]
        assert reachable_from(g, SeedSet.from_members([2], 3)).tolist() == [True, True]

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
        with pytest.raises(ValueError, match="^seed id 5 out of range for 3 vertices$"):
            SeedSet.from_members([5], 3)
        # The first bad id in input order, past a good one.
        with pytest.raises(ValueError, match="^seed id 9 out of range for 5 vertices$"):
            SeedSet.from_members([1, 9, -1], 5)
        with pytest.raises(ValueError, match="^seed id -1 out of range for 5 vertices$"):
            SeedSet.from_members([1, -1, 9], 5)


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


@st.composite
def multigraph_with_seeds(draw):
    """(n, u, v, seed members, component count) of a multigraph with 1 to 6
    components: a random spanning tree in each, plus extra pairs that repeat
    edges and add self-loops; a one-vertex component may stay isolated."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(sizes)
    assume(n >= 2)
    ids = draw(st.permutations(range(n)))
    u, v, start = [], [], 0
    for size in sizes:
        for k in range(1, size):
            u.append(start + k)
            v.append(start + draw(st.integers(0, k - 1)))
        for a, b in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)), max_size=6)):
            u.append(start + a)
            v.append(start + b)
        start += size
    edges = [(ids[a], ids[b]) for a, b in zip(u, v)]
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return n, [a for a, _ in edges], [b for _, b in edges], seeds, len(sizes)


@settings(max_examples=300, deadline=None)
@given(case=multigraph_with_seeds())
def test_reachable_from_matches_bfs(case):
    n, u, v, members, n_components = case
    g = Graph.from_edges(n, u, v)
    seeds = SeedSet.from_members(members, n)
    mask = reachable_from(g, seeds)
    assert mask.tolist() == bfs_reachable(n, u, v, seeds).tolist()
    # The undirected labelling, which builds A + A^T first, gives the same mask.
    count, labels = connected_components(g.adjacency, directed=False)
    assert count == n_components
    undirected = np.isin(labels[seeds.complement], labels[sorted(members)])
    assert mask.tolist() == undirected.tolist()


def test_load_seed_file():
    s = load_seed_file(io.StringIO("# seeds\n1\n3\n"), 5)
    assert s.members == frozenset({1, 3})
    with pytest.raises(EdgeListParseError):
        load_seed_file(io.StringIO("abc\n"), 5)
