import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic.errors import GraphFormatError
from randic.graphs import (
    Graph,
    _connected_masks,
    _mask_edges,
    _popcount,
    edge_mask_count,
    encode_graph6,
    enumerate_connected_graphs,
    format_edge_list,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
    subdivision,
    vertex_pairs,
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def reference_connected_masks(n: int, start: int, stop: int):
    """The enumeration one mask at a time, frozen from the per-mask loop
    that the block enumerator replaced: (mask, sorted edge tuple) of each
    connected mask in [start, stop), by a traversal over adjacency
    bitsets."""
    pairs = vertex_pairs(n)
    for mask in range(start, stop):
        adj_bits = [0] * n
        edges = []
        mm = mask
        k = 0
        while mm:
            if mm & 1:
                u, v = pairs[k]
                adj_bits[u] |= 1 << v
                adj_bits[v] |= 1 << u
                edges.append(pairs[k])
            mm >>= 1
            k += 1
        visited = 1
        stack = [0]
        while stack:
            fresh = adj_bits[stack.pop()] & ~visited
            while fresh:
                low = fresh & -fresh
                visited |= low
                stack.append(low.bit_length() - 1)
                fresh ^= low
        if visited == (1 << n) - 1:
            yield mask, tuple(edges)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestGraph:
    def test_from_edges_deduplicates_and_sorts(self):
        g = Graph.from_edges(4, [(2, 1), (1, 2), (0, 3), (3, 0)])
        assert g.edges == ((0, 3), (1, 2))
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(-1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_degrees_and_neighbors_agree_with_adjacency(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            a = g.adjacency
            assert np.array_equal(a, a.T)
            assert np.all(np.diagonal(a) == 0)
            assert tuple(a.sum(axis=0)) == g.degrees
            for v in range(g.n):
                assert g.neighbors(v) == {w for w in range(g.n) if a[v, w]}

    def test_adjacency_is_readonly(self):
        g = generate("path", 3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5

    def test_regularity(self):
        assert generate("cycle", 5).is_regular()
        assert not generate("star", 4).is_regular()


class TestGraph6:
    def test_known_strings(self):
        # single edge on two vertices, then a triangle
        k2 = parse_graph6("A_")
        assert (k2.n, k2.edges) == (2, ((0, 1),))
        tri = parse_graph6("Bw")
        assert (tri.n, tri.edges) == (3, ((0, 1), (0, 2), (1, 2)))

    def test_optional_header_prefix(self):
        assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")

    def test_roundtrip_matches_networkx(self):
        rng = random.Random(4242)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 30), rng.random())
            code = encode_graph6(g)
            theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert code == theirs
            back = parse_graph6(code)
            assert back == g

    def test_parse_agrees_with_networkx(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 25), 0.4)
            code = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert parse_graph6(code) == g

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "A",  # missing body byte
            "A__",  # extra body byte
            "A" + chr(30),  # character below the printable range
            "~??",  # extended form is refused
            "A`",  # nonzero padding bit
        ],
    )
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(GraphFormatError):
            parse_graph6(bad)

    def test_every_order_matches_the_pair_by_pair_coding(self):
        # graph6 bit by bit over the column-major pairs, as the codec was
        # first written, on random graphs of orders 0-62
        def reference_encode(g):
            bits = [1 if g.has_edge(i, j) else 0 for j in range(1, g.n) for i in range(j)]
            bits += [0] * (-len(bits) % 6)
            body = [int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)]
            return "".join(chr(v + 63) for v in [g.n] + body)

        rng = random.Random(26)
        for n in range(63):
            for p in (0.0, 0.1, 0.5, 1.0):
                g = random_graph(rng, n, p)
                code = encode_graph6(g)
                assert code == reference_encode(g)
                back = parse_graph6(code)
                assert back == g and type(back.edges) is tuple
                assert all(type(e) is tuple for e in back.edges)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("A" + chr(30) + chr(200), "character '\\x1e' outside graph6 range"),
            ("~??", "extended graph6 forms (order > 62) are not supported"),
            ("A__", "graph6 body for order 2 needs 1 bytes, got 2"),
            ("A`", "nonzero padding bits in graph6 body"),
            ("Bx", "nonzero padding bits in graph6 body"),
        ],
    )
    def test_malformed_messages(self, bad, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6(bad)
        assert str(exc.value) == message

    def test_encode_rejects_oversize(self):
        g = Graph.from_edges(63, [(0, 1)])
        with pytest.raises(GraphFormatError):
            encode_graph6(g)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = generate("cycle", 5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_order_only_document(self):
        g = parse_edge_list("3")
        assert (g.n, g.m) == (3, 0)

    def test_headerless_list_names_the_vertex_count(self):
        with pytest.raises(GraphFormatError, match="must start with the vertex count n"):
            parse_edge_list("0 1\n1 2")

    @pytest.mark.parametrize("bad", ["", "x", "3 0", "3 0 1 2", "-1", "2 0 0"])
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(GraphFormatError):
            parse_edge_list(bad)


class TestGenerators:
    def test_edges_are_canonical_and_sorted(self):
        # generated edge tuples skip Graph.from_edges, so they must be
        # what it would make of them
        graphs = [generate("petersen")] + [
            generate(kind, n)
            for kind in ("complete", "path", "cycle", "star")
            for n in range(3 if kind == "cycle" else 2, 63)
        ]
        for g in graphs:
            assert g == Graph.from_edges(g.n, g.edges)
            assert type(g.edges) is tuple and all(type(e) is tuple for e in g.edges)

    def test_complete(self):
        g = generate("complete", 5)
        assert g.m == 10
        assert g.degrees == (4,) * 5

    def test_path_and_cycle(self):
        p = generate("path", 6)
        assert p.degrees == (1, 2, 2, 2, 2, 1)
        c = generate("cycle", 6)
        assert c.degrees == (2,) * 6

    def test_star_center(self):
        g = generate("star", 7)
        assert g.degrees[0] == 6
        assert g.degrees[1:] == (1,) * 6

    def test_petersen_shape(self):
        g = generate("petersen")
        assert (g.n, g.m) == (10, 15)
        assert g.degrees == (3,) * 10
        assert nx.is_isomorphic(to_networkx(g), nx.petersen_graph())

    @pytest.mark.parametrize(
        "kind,n", [("complete", 1), ("path", 1), ("cycle", 2), ("star", 1)]
    )
    def test_orders_below_minimum_raise(self, kind, n):
        with pytest.raises(ValueError):
            generate(kind, n)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            generate("wheel", 5)

    def test_missing_order_raises(self):
        with pytest.raises(ValueError):
            generate("path")


class TestSubdivision:
    @pytest.mark.parametrize("kind,n", [("path", 4), ("cycle", 5), ("complete", 4), ("star", 6)])
    def test_counts_and_degrees(self, kind, n):
        g = generate(kind, n)
        s = subdivision(g)
        assert (s.n, s.m) == (g.n + g.m, 2 * g.m)
        # original vertices keep their degree, every new vertex has degree 2
        assert s.degrees[: g.n] == g.degrees
        assert s.degrees[g.n :] == (2,) * g.m

    def test_result_is_bipartite(self):
        g = generate("complete", 5)
        assert nx.is_bipartite(to_networkx(subdivision(g)))

    def test_cycle_subdivides_to_double_cycle(self):
        s = subdivision(generate("cycle", 4))
        assert nx.is_isomorphic(to_networkx(s), nx.cycle_graph(8))


class TestConnectivity:
    def test_small_cases(self):
        assert is_connected(Graph.from_edges(1, []))
        assert is_connected(Graph.from_edges(0, []))
        assert not is_connected(Graph.from_edges(2, []))
        assert is_connected(generate("path", 9))
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        assert is_connected(g) == nx.is_connected(to_networkx(g))


class TestEnumeration:
    # labeled connected graph counts, cross-checked against a union-find
    # sweep below and the standard sequence 1, 4, 38, 728, 26704
    KNOWN = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

    @pytest.mark.parametrize("n,count", sorted(KNOWN.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == count

    def test_yields_connected_canonical_graphs(self):
        for g in enumerate_connected_graphs(4):
            assert g.n == 4
            assert is_connected(g)
            assert g.edges == tuple(sorted(set(g.edges)))

    def test_against_union_find_oracle(self):
        n = 4
        pairs = vertex_pairs(n)

        def connected_by_union_find(mask):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for k, (u, v) in enumerate(pairs):
                if mask >> k & 1:
                    parent[find(u)] = find(v)
            return len({find(v) for v in range(n)}) == 1

        expected = {
            mask for mask in range(edge_mask_count(n)) if connected_by_union_find(mask)
        }
        seen = set()
        for g in enumerate_connected_graphs(n):
            mask = 0
            index = {pair: k for k, pair in enumerate(pairs)}
            for e in g.edges:
                mask |= 1 << index[e]
            seen.add(mask)
        assert seen == expected

    @pytest.mark.parametrize(
        "n,start,stop",
        [(n, 0, edge_mask_count(n)) for n in range(2, 7)] + [(7, 1_000_000, 1_010_000)],
        ids=["2", "3", "4", "5", "6", "7-slice"],
    )
    def test_masks_equal_frozen_reference(self, n, start, stop):
        want = list(reference_connected_masks(n, start, stop))
        got = list(_connected_masks(n, start, stop))
        assert all(type(mask) is int for mask in got)
        assert got == [mask for mask, _ in want]
        assert [_mask_edges(n, mask) for mask in got] == [edges for _, edges in want]

    @pytest.mark.parametrize("n", [1, 8])
    def test_out_of_range_orders_raise(self, n):
        with pytest.raises(ValueError):
            list(enumerate_connected_graphs(n))



class TestPopcount:
    """``_popcount`` stands in for ``np.bitwise_count``, which NumPy 1.24
    lacks, on the edge masks and vertex bitsets the scans count."""

    @staticmethod
    def masks() -> np.ndarray:
        rng = np.random.default_rng(17)
        edges = np.array([0, 1, 2, 3, 2**21 - 1, 2**62, 2**63 - 1], dtype=np.int64)
        wide = rng.integers(0, 2**63 - 1, size=4000, dtype=np.int64)
        # masks of every density: each bit kept with its own probability
        bits = rng.random((4000, 63)) < rng.random((4000, 1))
        dense = (bits.astype(np.int64) << np.arange(63, dtype=np.int64)).sum(axis=1)
        return np.concatenate((edges, wide, dense))

    @pytest.mark.skipif(not hasattr(np, "bitwise_count"), reason="NumPy < 2.0")
    def test_equals_bitwise_count(self):
        masks = self.masks()
        assert np.array_equal(_popcount(masks), np.bitwise_count(masks))
        bitsets = np.arange(256, dtype=np.uint8)
        assert np.array_equal(_popcount(bitsets), np.bitwise_count(bitsets))

    def test_equals_int_bit_count(self):
        masks = self.masks()
        assert _popcount(masks).tolist() == [int(v).bit_count() for v in masks.tolist()]
        assert _popcount(masks[:0]).shape == (0,)
