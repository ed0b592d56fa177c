"""Undirected multigraph storage, seed sets, and edge-list ingestion.

The adjacency is kept in CSR form with integer multiplicities as values.
A self-loop at v contributes 2 to the (v, v) entry so that every degree is
exactly the corresponding row sum and the walk matrix D^{-1} A stays row
stochastic.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Immutable undirected multigraph with dense 0-based vertex ids."""

    def __init__(self, n_vertices: int, adjacency: sp.csr_matrix):
        if adjacency.shape != (n_vertices, n_vertices):
            raise ValueError("adjacency shape does not match n_vertices")
        adjacency = adjacency.tocsr().astype(np.int64)
        adjacency.sum_duplicates()
        adjacency.sort_indices()
        self.n_vertices = n_vertices
        self.adjacency = adjacency
        self.degrees = np.asarray(adjacency.sum(axis=1)).ravel().astype(np.int64)
        self.adjacency.data.flags.writeable = False
        self.degrees.flags.writeable = False

    @classmethod
    def from_edges(cls, n_vertices: int, u: Iterable[int], v: Iterable[int]) -> "Graph":
        """Build from parallel endpoint arrays; repeated pairs accumulate multiplicity."""
        u = np.asarray(list(u) if not isinstance(u, np.ndarray) else u, dtype=np.int64)
        v = np.asarray(list(v) if not isinstance(v, np.ndarray) else v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("endpoint arrays must have equal length")
        if u.size and (u.min() < 0 or v.min() < 0):
            raise ValueError("negative vertex id")
        if u.size and max(u.max(), v.max()) >= n_vertices:
            raise ValueError("vertex id exceeds n_vertices")
        if n_vertices > 2 ** 31:
            raise ValueError("more than 2**31 vertices")
        # A = C + C^T for the COO C of the input pairs: a reversed pair adds to
        # the same entry, and a self-loop gets 2 so that degrees equal row sums.
        # A's entries in CSR order are the runs of the sorted keys row << 32 | col
        # of both directions; a run's length is the entry's multiplicity.
        keys = np.sort(np.concatenate([u << 32 | v, v << 32 | u]))
        # Run starts: the first key, if any, and each key unlike the one before.
        first = np.flatnonzero(np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]]))
        entries = keys[first]
        indptr = np.append(0, np.bincount(entries >> 32, minlength=n_vertices).cumsum())
        counts = np.diff(first, append=keys.size)
        return cls(n_vertices, sp.csr_matrix((counts, entries & 0xFFFFFFFF, indptr),
                                             shape=(n_vertices, n_vertices)))


@dataclass(frozen=True)
class SeedSet:
    """Seed vertices and the ascending-ordered complement."""

    members: frozenset
    complement: np.ndarray

    @classmethod
    def from_members(cls, members: Iterable[int], n_vertices: int) -> "SeedSet":
        members = frozenset(int(m) for m in members)
        if not members:
            raise ValueError("seed set must be non-empty")
        if min(members) < 0 or max(members) >= n_vertices:
            raise ValueError("seed id out of range")
        mask = np.ones(n_vertices, dtype=bool)
        mask[list(members)] = False
        complement = np.flatnonzero(mask)
        if complement.size == 0:
            raise ValueError("seed set must be a strict subset of the vertices")
        complement.flags.writeable = False
        return cls(members, complement)


# The largest id sets n, and a graph costs O(n) memory. An n beyond this many
# vertices per edge (plus a fixed allowance) is taken as sparse ids, not a graph.
_MAX_VERTICES_PER_EDGE = 10
_SPARE_VERTICES = 1000
# Leading blank and '#' lines of an edge list.
_HEADER = re.compile(r"(?:[ \t\r]*(?:#[^\n]*)?\n)*")


def data_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of each non-blank, non-'#' line."""
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def edge_tokens(line_no: int, line: str) -> list[str]:
    """The two whitespace-separated tokens of an edge-list data line."""
    tokens = line.split()
    if len(tokens) != 2:
        raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(tokens)}")
    return tokens


def _bulk_ids(text: str) -> np.ndarray | None:
    """u0 v0 u1 v1 ... in one np.fromstring call when, past a '#' header, every
    line is blank or two runs of ASCII digits apart by spaces, tabs or CRs."""
    text = text[_HEADER.match(text).end():]
    data = b"\n" + text.encode("ascii", "replace") + b"\n"
    if data.translate(None, b"0123456789 \t\r\n"):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    digit, newline = b >= ord("0"), b == ord("\n")
    # Newlines and token starts in text order; gaps - 1 tokens on each line.
    is_newline = newline[1:][np.flatnonzero(newline[1:] | (digit[1:] & ~digit[:-1]))]
    gaps = np.diff(np.flatnonzero(is_newline), prepend=-1)
    ids = np.fromstring(text, dtype=np.int64, sep=" ")
    # Each line holds 0 or 2 ids, all parsed, and none of 19 or more digits,
    # which may have saturated at 2**63 - 1 (the line loop reports its digits).
    if (((gaps == 1) | (gaps == 3)).all() and ids.size == 2 * (gaps == 3).sum()
            and not (ids.size and ids.max() >= 10 ** 18)):
        return ids
    return None


def _line_ids(text: str) -> list[int]:
    """u0 v0 u1 v1 ... parsed line by line; owns every per-line error."""
    ids: list[int] = []
    for line_no, line in data_lines(io.StringIO(text)):
        tokens = edge_tokens(line_no, line)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer vertex id in {tokens!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, "negative vertex id")
        ids += (u, v)
    return ids


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse a SNAP-style edge list: '#' comments, 'u v' per data line.

    Plain digit pairs are parsed in bulk; any other text goes through the line
    loop, which accepts the same inputs and gives the same errors."""
    text = stream.read()
    ids = _bulk_ids(text)
    if ids is None:
        ids = _line_ids(text)
    if not len(ids):
        raise EdgeListParseError(0, "no edges in input")
    # A list holds Python ints, exact past the int64 range.
    n, n_edges = 1 + (max(ids) if isinstance(ids, list) else int(ids.max())), len(ids) // 2
    if n > _MAX_VERTICES_PER_EDGE * n_edges + _SPARE_VERTICES:
        raise EdgeListParseError(0, f"vertex id {n - 1} implies {n} vertices for "
                                    f"{n_edges} edges; make ids dense with `hitmix relabel`")
    return Graph.from_edges(n, ids[0::2], ids[1::2])


def load_seed_file(stream: IO[str], n_vertices: int) -> SeedSet:
    """Parse a seed file: one vertex id per line, '#' comments allowed."""
    members = []
    for line_no, line in data_lines(stream):
        try:
            members.append(int(line))
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer seed id {line!r}") from None
    return SeedSet.from_members(members, n_vertices)


def reachable_from(graph: Graph, seeds: SeedSet) -> np.ndarray:
    """Read-only bool mask over seeds.complement: does the vertex's component
    contain a seed?"""
    _, labels = connected_components(graph.adjacency, directed=False)
    seed_components = np.unique(labels[list(seeds.members)])
    reachable = np.isin(labels[seeds.complement], seed_components)
    reachable.flags.writeable = False
    return reachable
