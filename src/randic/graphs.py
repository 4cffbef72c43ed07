"""Simple undirected graphs: text formats, generators, subdivision, and
exhaustive enumeration of small connected graphs.

Vertices are integers ``0..n-1``.  Edges are stored as a sorted tuple of
``(u, v)`` pairs with ``u < v``, so every iteration order in the package is
deterministic.  Construction is permissive about isolated vertices; the
spectral layer rejects them where degree weights would be undefined.

The enumeration names a graph on n vertices by its edge mask: bit k selects
pair k of the lexicographic ``vertex_pairs(n)``.  ``_connected_masks`` tests
masks for connectivity a block at a time with integer array operations and
yields the connected ones as ints, in increasing order, so a scan works on
masks and their bits and builds a ``Graph`` only for a graph it prints.
``_row_sides`` 2-colours such masks the same way, on the per-vertex bitsets
that ``_adjacency_bitsets`` takes from the masks' bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import GraphFormatError

GRAPH6_MAX_ORDER = 62  # short graph6 form: one header byte
ENUMERATION_MAX_ORDER = 7

_GRAPH6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no self-loops, no parallel edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on vertices ``0..n-1``, deduplicating undirected pairs."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        return cls(n, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def _adjacent(self) -> tuple[list[int], ...]:
        """Each vertex's neighbours, ascending, from one pass over the
        sorted edge list: the pass the degrees, the neighbour sets, the
        connectivity test and the spectral layer's 2-colouring all read.
        Private and not to be mutated."""
        adjacent: tuple[list[int], ...] = tuple([[] for _ in range(self.n)])
        for u, v in self.edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        return adjacent

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple([len(row) for row in self._adjacent])

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (read-only, symmetric, zero diagonal)."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        a.setflags(write=False)
        return a

    @cached_property
    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple([frozenset(row) for row in self._adjacent])

    @cached_property
    def _connected(self) -> bool:
        """``is_connected``: a traversal from vertex 0 over ``_adjacent``
        reaches all n vertices."""
        if self.n <= 1:
            return True
        adjacent = self._adjacent
        seen = [False] * self.n
        seen[0] = True
        reached = [0]
        for u in reached:  # grows as the search reaches new vertices
            for v in adjacent[u]:
                if not seen[v]:
                    seen[v] = True
                    reached.append(v)
        return len(reached) == self.n

    def neighbors(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbor_sets[u]

    def is_regular(self) -> bool:
        return self.n > 0 and len(set(self.degrees)) == 1


# ---------------------------------------------------------------------------
# graph6 text format (short form, n <= 62)
#
# Byte 0 is n+63.  The upper triangle of the adjacency matrix is read column
# by column (a(0,1), a(0,2), a(1,2), a(0,3), ...) and packed big-endian six
# bits per byte, each byte offset by 63, zero-padded at the end.
# ---------------------------------------------------------------------------


def _graph6_like(token: str) -> bool:
    """Whether one whitespace-free token reads as a graph6 string: after an
    optional header, characters of the printable graph6 range only, which
    no edge-list token has."""
    body = token.removeprefix(_GRAPH6_HEADER)
    return bool(body) and all(63 <= ord(ch) <= 126 for ch in body)


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 string into a Graph.

    Raises GraphFormatError for malformed input: bad header byte, characters
    outside the printable graph6 range, wrong body length, nonzero padding
    bits, or the extended (n > 62) forms, which are not supported.

    The body is read as one integer; column j of the upper triangle is then
    a run of j bits in its binary digits, whose ones are the edges (i, j).
    """
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):].strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    values = [ord(ch) - 63 for ch in s]
    for ch, v in zip(s, values):
        if not 0 <= v <= 63:
            raise GraphFormatError(f"character {ch!r} outside graph6 range")
    if values[0] == 63:
        raise GraphFormatError("extended graph6 forms (order > 62) are not supported")
    n = values[0]
    body = values[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise GraphFormatError(
            f"graph6 body for order {n} needs {nbytes} bytes, got {len(body)}"
        )
    packed = 0
    for v in body:
        packed = (packed << 6) | v
    padding = 6 * nbytes - nbits
    if packed & ((1 << padding) - 1):
        raise GraphFormatError("nonzero padding bits in graph6 body")
    bits = format(packed >> padding, f"0{nbits}b") if nbits else ""
    edges = []
    start = 0
    for j in range(1, n):
        i = bits.find("1", start, start + j)
        while i >= 0:
            edges.append((i - start, j))
            i = bits.find("1", i + 1, start + j)
        start += j
    edges.sort()
    return Graph(n, tuple(edges))


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (order <= 62): edge
    (i, j) sets bit j(j - 1)/2 + i of the body, counted from its first,
    most significant bit."""
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise GraphFormatError(
            f"order {n} exceeds the short graph6 limit of {GRAPH6_MAX_ORDER}"
        )
    nbytes = (n * (n - 1) // 2 + 5) // 6
    last = 6 * nbytes - 1
    packed = 0
    for i, j in g.edges:
        packed |= 1 << (last - j * (j - 1) // 2 - i)
    return chr(n + 63) + "".join(
        [chr((packed >> shift & 63) + 63) for shift in range(last - 5, -1, -6)]
    )


# ---------------------------------------------------------------------------
# Edge-list text format: first token is n, then "u v" pairs, 0-based.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document; duplicate undirected pairs collapse."""
    tokens = text.split()
    if not tokens:
        raise GraphFormatError("empty edge list")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer token in edge list: {exc}") from None
    n = numbers[0]
    if n < 0:
        raise GraphFormatError("vertex count must be non-negative")
    rest = numbers[1:]
    if len(rest) % 2:
        if len(text.strip().split("\n", 1)[0].split()) == 2:
            # an even count of integers, the first line a pair: a list of
            # u v pairs without the vertex count n in front
            raise GraphFormatError(
                "edge list must start with the vertex count n; "
                f"its first line {' '.join(tokens[:2])!r} reads as an edge"
            )
        raise GraphFormatError("dangling vertex index; edges come in pairs")
    try:
        return Graph.from_edges(n, zip(rest[0::2], rest[1::2]))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("complete", "path", "cycle", "star", "petersen")


def generate(kind: str, n: int | None = None) -> Graph:
    """Construct a named graph.

    ``complete``, ``path`` and ``star`` need n >= 2, ``cycle`` needs n >= 3;
    ``petersen`` ignores n and always has order 10.  The star has vertex 0 as
    its center.
    """
    if kind == "petersen":
        return _petersen()
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n is None:
        raise ValueError(f"generator {kind!r} needs an order")
    minimum = 3 if kind == "cycle" else 2
    if n < minimum:
        raise ValueError(f"generator {kind!r} needs order >= {minimum}, got {n}")
    # each family's edges listed canonical, distinct and sorted, so they
    # skip Graph.from_edges; every tuple is made from a list, as tuple() of
    # an iterator grows by reallocation, which over many graphs leaves the
    # allocator's memory fragmented and raises the peak resident size
    if kind == "complete":
        edges = list(combinations(range(n), 2))
    elif kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)]
    else:  # star
        edges = [(0, i) for i in range(1, n)]
    return Graph(n, tuple(edges))


def _petersen() -> Graph:
    # Kneser construction: vertices are the 2-subsets of a 5-set, as
    # bitsets, adjacent exactly when disjoint.
    subsets = [1 << a | 1 << b for a, b in combinations(range(5), 2)]
    return Graph(
        10, tuple([(i, j) for i, j in combinations(range(10), 2) if not subsets[i] & subsets[j]])
    )


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def subdivision(g: Graph) -> Graph:
    """Insert one new degree-2 vertex into every edge.

    The result has order n+m and size 2m: original vertices keep their
    indices (and degrees), and the vertex splitting edge number ``i`` in the
    canonical sorted edge order gets index ``n + i``.

    The edges are built already canonical, distinct and sorted, so they
    skip ``Graph.from_edges``: vertex x's edges (x, n + i) are listed in
    increasing i after those of every vertex below x.
    """
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges, g.n):
        incident[u].append(i)
        incident[v].append(i)
    return Graph(g.n + g.m, tuple([(x, i) for x, row in enumerate(incident) for i in row]))


def is_connected(g: Graph) -> bool:
    """True when a traversal from vertex 0 reaches all n vertices; taken
    once per Graph."""
    return g._connected


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small connected graphs
# ---------------------------------------------------------------------------


def vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic vertex pairs; bit k of an edge mask selects pair k."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=64)
def _pair_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends i < j of the pairs of ``vertex_pairs(n)``, in that order, as
    two arrays; cached per n, so read-only."""
    ends = np.triu_indices(n, 1)
    for end in ends:
        end.setflags(write=False)
    return ends


# masks tested for connectivity per block of integer array operations
_MASK_BLOCK = 1 << 15


@lru_cache(maxsize=64)
def _pair_bits(n: int) -> np.ndarray:
    """(n, n(n - 1)/2) floats: entry (v, k) is 2^u when pair k of
    ``vertex_pairs(n)`` joins v and u, else 0; cached per n, so read-only."""
    weights = np.zeros((n, n * (n - 1) // 2))
    low, high = _pair_ends(n)
    pairs = np.arange(len(low))
    weights[low, pairs] = np.ldexp(1.0, high)
    weights[high, pairs] = np.ldexp(1.0, low)
    weights.setflags(write=False)
    return weights


def _adjacency_bitsets(n: int, bits: np.ndarray) -> np.ndarray:
    """Each vertex's neighbourhood in the graph of each edge mask on n <= 8
    vertices, as an (n, B) array of uint8 bitsets, row v for vertex v, from
    the masks' bits (``_mask_bits``): one float matmul, exact, each entry
    summing distinct powers of two below 2^n."""
    return np.matmul(_pair_bits(n), bits.T.astype(np.float64)).astype(np.uint8)


def _neighbourhoods(adjacent: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """For each graph of the (n, B) bitsets ``adjacent``, the union of the
    neighbourhoods of the vertices in its bitset of ``sets`` (B,)."""
    vertices = np.arange(len(adjacent), dtype=adjacent.dtype)[:, None]
    # row v: v's neighbourhood where v is in the set (-1 is all ones),
    # else nothing
    return np.bitwise_or.reduce(adjacent & -((sets >> vertices) & 1), axis=0)


def _connected_masks(n: int, start: int, stop: int) -> Iterator[int]:
    """Yield, in increasing order and one int per graph, each edge mask in
    [start, stop) whose graph on n vertices is connected.

    The masks are tested a block at a time with integer array operations:
    each vertex's adjacency bitset is taken from the mask bits, and the set
    reached from vertex 0 grows by the neighbourhoods of its vertices,
    n - 1 times, which reaches every vertex of its component.  For n >= 2
    connectivity also rules out isolated vertices."""
    everyone = (1 << n) - 1
    for lo in range(start, stop, _MASK_BLOCK):
        masks = np.arange(lo, min(lo + _MASK_BLOCK, stop), dtype=np.int64)
        adjacent = _adjacency_bitsets(n, _mask_bits(n, masks))
        reached = np.ones_like(adjacent[0])
        for _ in range(n - 1):
            reached |= _neighbourhoods(adjacent, reached)
        yield from masks[reached == everyone].tolist()


def _row_sides(adjacent: np.ndarray) -> np.ndarray:
    """For each connected graph on n >= 2 vertices of the (n, B) adjacency
    bitsets ``adjacent`` (``_adjacency_bitsets``), the bitset of the
    vertices that are rows of its biadjacency block, or 0 when the graph
    has an odd cycle: the rule of ``spectra._row_side``, the smaller colour
    class, or on a tie the class of vertex 0.

    Integer array operations only, as ``_connected_masks``: a breadth-first
    search from vertex 0 grows its frontier by the neighbourhoods of its
    vertices, n - 1 times, and the colour classes are the vertices at even
    and at odd distance.  The graph is bipartite exactly when no vertex has
    a neighbour in its own class."""
    n = len(adjacent)
    reached = frontier = even = np.ones_like(adjacent[0])
    odd = np.zeros_like(even)
    for step in range(1, n):
        frontier = _neighbourhoods(adjacent, frontier) & ~reached
        reached = reached | frontier
        if step % 2:
            odd = odd | frontier
        else:
            even = even | frontier
    # row v: v's own colour class
    own = np.where((even >> np.arange(n, dtype=even.dtype)[:, None]) & 1, even, odd)
    clash = np.any(adjacent & own, axis=0)
    # 2 * |odd| < n: the odd class is the smaller one
    rows = np.where(np.bitwise_count(odd) < (n + 1) // 2, odd, even)
    rows[clash] = 0
    return rows


def _mask_edges(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The sorted edge tuple of an edge mask over ``vertex_pairs(n)``."""
    return tuple(pair for k, pair in enumerate(vertex_pairs(n)) if mask >> k & 1)


def _mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """The bits of each edge mask, one row of n(n - 1)/2 zeros and ones
    per mask, column k for pair k of ``vertex_pairs(n)``."""
    return (masks[:, None] >> np.arange(n * (n - 1) // 2)) & 1


def edge_mask_count(n: int) -> int:
    """Size of the edge-subset space scanned for order n."""
    return 1 << (n * (n - 1) // 2)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled connected simple graph on n vertices.

    All 2^(n(n-1)/2) edge subsets are visited in increasing mask order over
    the lexicographic pair list, so the stream is deterministic.  Bounded to
    2 <= n <= 7; the order-7 space has about 2.1 million subsets, so callers
    surface it behind an explicit opt-in.
    """
    if not 2 <= n <= ENUMERATION_MAX_ORDER:
        raise ValueError(
            f"enumeration supports orders 2..{ENUMERATION_MAX_ORDER}, got {n}"
        )
    for mask in _connected_masks(n, 0, edge_mask_count(n)):
        yield Graph(n, _mask_edges(n, mask))
