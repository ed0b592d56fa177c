"""Undirected multigraph storage, seed sets, and edge-list ingestion.

The adjacency is kept in canonical CSR form with multiplicities as float64
values, exact below 2**53 and in the dtype its readers use. A self-loop at v
contributes 2 to the (v, v) entry so that every degree is exactly the row sum
and the walk matrix D^{-1} A stays row stochastic.
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected multigraph: dense 0-based ids, symmetric adjacency,
    float64 degrees. Build it with `from_edges`, which makes both read-only."""

    n_vertices: int
    adjacency: sp.csr_matrix
    degrees: np.ndarray

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
        # of both directions; a run's length is the entry's multiplicity, and a
        # row's sum of run lengths, exact in float64, is the vertex's degree.
        # Each array is freed once unneeded: at most three as large as the keys live.
        keys = np.empty(2 * u.size, dtype=np.int64)
        np.left_shift(u, 32, out=keys[:u.size])
        np.left_shift(v, 32, out=keys[u.size:])
        keys[:u.size] |= v
        keys[u.size:] |= u
        keys.sort()
        # Run starts (the first key and each unlike the one before), then keys.size.
        first = np.flatnonzero(np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1], [True]]))
        entries = keys[first[:-1]]
        del keys
        counts = np.subtract(first[1:], first[:-1], out=np.empty(entries.size))
        del first
        rows = entries >> 32
        indptr = np.append(0, np.bincount(rows, minlength=n_vertices).cumsum())
        degrees = np.bincount(rows, counts, n_vertices).astype(np.float64, copy=False)
        del rows    # before the CSR arrays are made
        entries &= 0xFFFFFFFF
        adjacency = sp.csr_matrix((counts, entries, indptr), shape=(n_vertices, n_vertices))
        adjacency.data.flags.writeable = False
        degrees.flags.writeable = False
        return cls(n_vertices, adjacency, degrees)


@dataclass(frozen=True)
class SeedSet:
    """Seed vertices and the ascending-ordered complement."""

    members: frozenset
    complement: np.ndarray

    @classmethod
    def from_members(cls, members: Iterable[int], n_vertices: int) -> "SeedSet":
        ids = [int(m) for m in members]
        if not ids:
            raise ValueError("seed set must be non-empty")
        if min(ids) < 0 or max(ids) >= n_vertices:
            bad = next(m for m in ids if not 0 <= m < n_vertices)
            raise ValueError(f"seed id {bad} out of range for {n_vertices} vertices")
        mask = np.ones(n_vertices, dtype=bool)
        mask[ids] = False
        complement = np.flatnonzero(mask)
        if complement.size == 0:
            raise ValueError("seed set must be a strict subset of the vertices")
        complement.flags.writeable = False
        return cls(frozenset(ids), complement)


# The largest id sets n, and a graph costs O(n) memory. An n beyond this many
# vertices per edge (plus a fixed allowance) is taken as sparse ids, not a graph.
_MAX_VERTICES_PER_EDGE = 10
_SPARE_VERTICES = 1000
# Leading blank and '#' lines of an edge list.
_HEADER = re.compile(r"(?:[ \t\r]*(?:#[^\n]*)?\n)*")
_BULK_BLOCK = 1 << 20   # characters; see _bulk_ids


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
    """u0 v0 u1 v1 ... when, past a '#' header, every line is blank or two runs
    of ASCII digits apart by spaces, tabs or CRs. Checked, then parsed by
    np.fromstring, a block of lines at a time: the scratch is one block's."""
    cuts = [_HEADER.match(text).end()]
    while cuts[-1] < len(text):     # a block ends at the first newline past _BULK_BLOCK chars
        cuts.append(text.find("\n", cuts[-1] + _BULK_BLOCK) + 1 or len(text))
    counts = []
    for start, end in zip(cuts, cuts[1:]):
        data = b"\n" + text[start:end].encode("ascii", "replace") + b"\n"
        b = np.frombuffer(data, dtype=np.uint8)
        digit, newline = b >= ord("0"), b == ord("\n")
        # Newlines and token starts in text order; gaps - 1 tokens on each line.
        is_newline = newline[1:][np.flatnonzero(newline[1:] | (digit[1:] & ~digit[:-1]))]
        gaps = np.diff(np.flatnonzero(is_newline), prepend=-1)
        if data.translate(None, b"0123456789 \t\r\n") or not ((gaps == 1) | (gaps == 3)).all():
            return None
        counts.append(2 * int((gaps == 3).sum()))
    ids, at = np.empty(sum(counts), dtype=np.int64), 0
    for start, end, count in zip(cuts, cuts[1:], counts):
        if count:   # np.fromstring reads a block of blank lines as [0]
            block = np.fromstring(text[start:end], dtype=np.int64, sep=" ")
            # All parsed, and none of 19+ digits, which may saturate (the line loop reports them).
            if block.size != count or block.max() >= 10 ** 18:
                return None
            ids[at:at + count], at = block, at + count
    return ids


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
    del text    # the build's peak need not hold it
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
    contain a seed? The adjacency is symmetric, so its strong components are
    the undirected ones, found without the transpose that directed=False adds.
    Its data is already float64, so scipy converts it without a copy."""
    count, labels = connected_components(graph.adjacency, directed=True, connection="strong")
    seeded = np.zeros(count, dtype=bool)
    seeded[labels[list(seeds.members)]] = True
    reachable = seeded[labels[seeds.complement]]
    reachable.flags.writeable = False
    return reachable
