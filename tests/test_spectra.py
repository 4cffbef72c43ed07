import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic.errors import IsolatedVertexError
from randic.graphs import (
    Graph,
    _connected_masks,
    edge_mask_count,
    enumerate_connected_graphs,
    generate,
    is_connected,
    subdivision,
)
from randic.identities import _scan_spectra
from randic.linalg import symmetric_eigenvalues
from randic.spectra import (
    _biadjacency,
    _row_energies,
    _row_side,
    energy_of,
    normalized_laplacian,
    normalized_signless_laplacian,
    perron_residual,
    perron_vector,
    randic_eigenvalues,
    randic_energy,
    randic_index,
    randic_matrix,
    randic_spectrum,
)


def random_connected(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a few extra edges, so degrees are positive
    and the graph is connected by construction."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add((u, v) if u < v else (v, u))
    for _ in range(rng.randrange(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        edges.add((u, v) if u < v else (v, u))
    return Graph.from_edges(n, edges)


class TestMatrices:
    def test_path_entries(self):
        # degrees of P3 are 1, 2, 1 so both edge weights are 1/sqrt(2)
        r = randic_matrix(generate("path", 3))
        w = 1 / math.sqrt(2)
        expected = np.array([[0, w, 0], [w, 0, w], [0, w, 0]])
        assert np.allclose(r, expected, atol=1e-15)
        assert np.array_equal(r, r.T)

    def test_exact_symmetry(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_connected(rng, rng.randint(2, 15))
            r = randic_matrix(g)
            assert np.array_equal(r, r.T)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            randic_matrix(Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(IsolatedVertexError):
            randic_matrix(Graph.from_edges(1, []))
        with pytest.raises(IsolatedVertexError):
            randic_matrix(Graph.from_edges(0, []))

    def test_derived_matrices(self):
        g = generate("cycle", 5)
        r = randic_matrix(g)
        assert np.array_equal(normalized_laplacian(g), np.eye(5) - r)
        assert np.array_equal(normalized_signless_laplacian(g), np.eye(5) + r)


class TestSpectra:
    def test_complete_graph_two_values(self):
        s = randic_spectrum(generate("complete", 6))
        assert s.k == 2
        assert s.distinct[0] == pytest.approx(1.0, abs=1e-12)
        assert s.distinct[1] == pytest.approx(-0.2, abs=1e-12)
        assert s.multiplicities == (1, 5)

    def test_path4_spectrum(self):
        s = randic_spectrum(generate("path", 4))
        assert np.allclose(s.values, [1.0, 0.5, -0.5, -1.0], atol=1e-12)

    @staticmethod
    def three_spectra(g):
        """Spectra of R, I - R and I + R, each solved on its own matrix."""
        return (
            symmetric_eigenvalues(randic_matrix(g)),
            symmetric_eigenvalues(normalized_laplacian(g)),
            symmetric_eigenvalues(normalized_signless_laplacian(g)),
        )

    def test_relations_between_the_three_spectra(self):
        # mu = 1 - rho and theta = 1 + rho as multisets
        rng = random.Random(31)
        for _ in range(15):
            g = random_connected(rng, rng.randint(2, 12))
            rho, mu, theta = self.three_spectra(g)
            assert np.max(np.abs(np.sort(mu) - np.sort(1.0 - rho))) < 1e-12
            assert np.max(np.abs(np.sort(theta) - np.sort(1.0 + rho))) < 1e-12

    def test_bounds(self):
        # how far each spectrum leaks outside its interval: rho within
        # [-1, 1], mu and theta within [0, 2]
        def leak(values, low, high):
            return max(0.0, float(np.max(low - values)), float(np.max(values - high)))

        rng = random.Random(37)
        for _ in range(15):
            g = random_connected(rng, rng.randint(2, 12))
            rho, mu, theta = self.three_spectra(g)
            assert leak(rho, -1.0, 1.0) < 1e-12
            assert leak(mu, 0.0, 2.0) < 1e-12
            assert leak(theta, 0.0, 2.0) < 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trace_and_bounds_properties(self, seed):
        rng = random.Random(seed)
        g = random_connected(rng, rng.randint(2, 10))
        vals = symmetric_eigenvalues(randic_matrix(g))
        assert abs(math.fsum(vals)) < g.n * 1e-9
        assert vals[0] == pytest.approx(1.0, abs=1e-10)
        assert vals[-1] >= -1.0 - 1e-9


class TestEnergy:
    def test_energy_of_uses_absolute_values(self):
        assert energy_of([1.0, -0.5, -0.5]) == pytest.approx(2.0)

    def test_complete_graph_energy_is_two(self):
        for n in range(2, 8):
            assert randic_energy(generate("complete", n)) == pytest.approx(2.0, abs=1e-12)

    def test_star_energy_is_two(self):
        # stars have one positive and one negative eigenvalue of size 1
        for n in range(2, 12):
            assert randic_energy(generate("star", n)) == pytest.approx(2.0, abs=1e-12)

    def test_path4_energy(self):
        assert randic_energy(generate("path", 4)) == pytest.approx(3.0, abs=1e-12)

    def test_index_closed_forms(self):
        assert randic_index(generate("complete", 7)) == pytest.approx(7 / 2)
        assert randic_index(generate("star", 10)) == pytest.approx(3.0)
        assert randic_index(generate("cycle", 9)) == pytest.approx(4.5)

    def test_index_rejects_isolated(self):
        with pytest.raises(IsolatedVertexError):
            randic_index(Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(IsolatedVertexError):
            randic_index(Graph(3, ()))
        with pytest.raises(IsolatedVertexError):
            randic_index(Graph.from_edges(0, []))


class TestPerron:
    def test_vector_is_unit_and_positive(self):
        x = perron_vector(generate("star", 5))
        assert np.linalg.norm(x) == pytest.approx(1.0)
        assert np.all(x > 0)

    def test_vector_entries_proportional_to_sqrt_degree(self):
        g = generate("star", 5)
        x = perron_vector(g)
        assert x[0] / x[1] == pytest.approx(math.sqrt(4))

    def test_residual_small_on_connected_graphs(self):
        rng = random.Random(71)
        for _ in range(25):
            g = random_connected(rng, rng.randint(2, 20))
            assert is_connected(g)
            assert perron_residual(g) < g.n * 1e-10


def oracle_error(g: Graph, values: np.ndarray) -> float:
    """Worst gap to LAPACK's eigenvalues of R, over 1e-11 * max(1, ||R||_F),
    the bound the eigensolver tests apply."""
    r = randic_matrix(g)
    scale = max(1.0, float(np.linalg.norm(r)))
    return float(np.max(np.abs(values - np.linalg.eigvalsh(r)[::-1]))) / (1e-11 * scale)


def bipartite_families():
    """Paths, stars and even cycles, and the subdivisions of paths, stars,
    cycles and complete graphs, each up to order 62 before subdividing;
    complete graphs up to 20, where LAPACK on R(S(K_20)) (order 210) is still
    cheap."""
    for n in range(2, 63):
        yield generate("path", n)
        yield subdivision(generate("path", n))
    for n in range(3, 63):
        yield generate("star", n)
        yield subdivision(generate("star", n))
        yield subdivision(generate("cycle", n))
        if n % 2 == 0:
            yield generate("cycle", n)
    for n in range(3, 21):
        yield subdivision(generate("complete", n))


class TestRandicEigenvalues:
    def test_every_small_bipartite_graph_and_subdivision(self):
        # the connected bipartite graphs of orders 2-6, told apart by LAPACK
        # (R has eigenvalue -1 exactly then), and every subdivision of a
        # connected graph of orders 2-6
        checked = 0
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                if np.linalg.eigvalsh(randic_matrix(g))[0] < -1.0 + 1e-9:
                    assert oracle_error(g, randic_eigenvalues(g)) < 1.0, g
                    checked += 1
                s = subdivision(g)
                assert oracle_error(s, randic_eigenvalues(s)) < 1.0, g
                checked += 1
        assert checked == 30724

    def test_families_up_to_order_62(self):
        for g in bipartite_families():
            values = randic_eigenvalues(g)
            assert oracle_error(g, values) < 1.0, (g.n, g.m)
            k = _biadjacency(g).shape[0]
            # descending, paired off as exact negatives, zeros in the middle
            assert np.all(np.diff(values) <= 0)
            assert np.array_equal(values, -values[::-1])
            assert np.count_nonzero(values == 0.0) >= g.n - 2 * k
            assert not np.signbit(values[k : g.n - k]).any()

    def test_complete_graph_subdivisions_closed_form(self):
        # R(S(K_n)) has eigenvalues +-1, +-sqrt((n - 2) / (2 (n - 1))) n - 1
        # times each, and zeros: +-sqrt(theta / 2) over theta = 1 + rho(K_n)
        for n in range(3, 63):
            values = randic_eigenvalues(subdivision(generate("complete", n)))
            inner = math.sqrt((n - 2) / (2 * (n - 1)))
            zeros = n * (n - 1) // 2 - n
            want = np.array([1.0] + [inner] * (n - 1) + [0.0] * zeros + [-inner] * (n - 1) + [-1.0])
            scale = math.sqrt(n * (n - 1) / 2)  # ||R(S(K_n))||_F, above 1
            assert np.max(np.abs(values - want)) < 1e-11 * scale, n

    def test_disconnected_bipartite_graph(self):
        # P3, K_{2,3} and C4 side by side: the component spectra together
        edges = [(0, 1), (1, 2)]
        edges += [(u, v) for u in (3, 4) for v in (5, 6, 7)]
        edges += [(8, 9), (9, 10), (10, 11), (8, 11)]
        g = Graph.from_edges(12, edges)
        values = randic_eigenvalues(g)
        assert oracle_error(g, values) < 1.0
        # each component's rows are its smaller class: 1 + 2 + 2 rows
        assert _biadjacency(g).shape == (5, 7)
        assert randic_energy(g) == pytest.approx(
            randic_energy(generate("path", 3)) + 2.0 + 2.0, abs=1e-12
        )

    def test_isolated_vertex_rejected_first(self):
        for g in (Graph.from_edges(3, [(0, 1)]), Graph.from_edges(0, []), Graph(2, ())):
            with pytest.raises(IsolatedVertexError):
                randic_eigenvalues(g)

    def test_block_entries_are_the_matrix_entries(self):
        # B is R's off-diagonal block, bit for bit, in vertex order
        g = subdivision(generate("petersen"))
        r = randic_matrix(g)
        b = _biadjacency(g)
        rows, cols = np.arange(10), np.arange(10, 25)
        assert b.tobytes() == r[np.ix_(rows, cols)].tobytes()
        assert _biadjacency(generate("cycle", 5)) is None


# Worst absolute error of randic_eigenvalues against the closed forms below,
# measured over every member to order 62 on a 2-vCPU Xeon with numpy 2.4.6:
# 1.7e-15 (cycles), 1.8e-15 (paths), 3.3e-16 (stars), 8.9e-16 (complete),
# 5.8e-15 (S(C_n)) and 3.2e-15 (S(P_n)).  The bound is about ten times the
# largest.
FAMILY_ORACLE_TOL = 6e-14


def _descending(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=np.float64))[::-1]


def _cycle_values(n: int) -> np.ndarray:
    """rho(C_n) = cos(2 pi j / n), j = 0 .. n - 1."""
    return _descending(np.cos(2.0 * np.pi * np.arange(n) / n))


def _path_values(n: int) -> np.ndarray:
    """rho(P_n) = cos(pi j / (n - 1)), j = 0 .. n - 1."""
    return _descending(np.cos(np.pi * np.arange(n) / (n - 1)))


FAMILY_ORACLES = {
    "cycle": (range(3, 63), lambda n: generate("cycle", n), _cycle_values),
    "path": (range(2, 63), lambda n: generate("path", n), _path_values),
    "star": (
        range(2, 63),
        lambda n: generate("star", n),
        lambda n: _descending([1.0] + [0.0] * (n - 2) + [-1.0]),
    ),
    "complete": (
        range(2, 63),
        lambda n: generate("complete", n),
        lambda n: _descending([1.0] + [-1.0 / (n - 1)] * (n - 1)),
    ),
    # S(C_n) = C_2n and S(P_n) = P_(2n - 1)
    "subdivided-cycle": (
        range(3, 63),
        lambda n: subdivision(generate("cycle", n)),
        lambda n: _cycle_values(2 * n),
    ),
    "subdivided-path": (
        range(2, 63),
        lambda n: subdivision(generate("path", n)),
        lambda n: _path_values(2 * n - 1),
    ),
}


class TestFamilyClosedForms:
    """randic_eigenvalues against closed-form spectra, independent of
    LAPACK, on every family member up to order 62."""

    @pytest.mark.parametrize("family", sorted(FAMILY_ORACLES))
    def test_every_member_to_order_62(self, family):
        orders, build, closed_form = FAMILY_ORACLES[family]
        errors = {}
        for n in orders:
            values = randic_eigenvalues(build(n))
            want = closed_form(n)
            assert values.shape == want.shape, n
            errors[n] = float(np.max(np.abs(values - want)))
        assert max(orders) == 62
        assert {n: e for n, e in errors.items() if not e < FAMILY_ORACLE_TOL} == {}


# ---------------------------------------------------------------------------
# Frozen references for the single-graph front end: the breadth-first
# 2-colouring over the graph's neighbour sets, the block built from it with
# numpy, ``subdivision`` through ``Graph.from_edges``, and ``energy_of`` over
# numpy scalars.  Kept as the tests' references, as ``reference_jacobi`` is:
# the edge-list forms must give their bits, Nones and errors exactly.
# ---------------------------------------------------------------------------


def reference_row_side(g: Graph) -> list[bool] | None:
    colour = [-1] * g.n
    rows = [False] * g.n
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        component = [root]
        for u in component:
            for v in g.neighbors(u):
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    component.append(v)
                elif colour[v] == colour[u]:
                    return None
        side = int(2 * sum(colour[v] for v in component) < len(component))
        for v in component:
            rows[v] = colour[v] == side
    return rows


def reference_biadjacency(g: Graph) -> np.ndarray | None:
    if g.n == 0:
        raise IsolatedVertexError("graph has no vertices")
    deg = np.array(g.degrees, dtype=np.float64)
    if np.any(deg == 0):
        bad = int(np.argmin(deg))
        raise IsolatedVertexError(f"vertex {bad} has degree zero")
    w = 1.0 / np.sqrt(deg)
    side = reference_row_side(g)
    if side is None:
        return None
    rows = np.array(side)
    k = int(np.count_nonzero(rows))
    position = np.empty(g.n, dtype=np.intp)
    position[rows] = np.arange(k)
    position[~rows] = np.arange(g.n - k)
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    flip = ~rows[u]
    b = np.zeros((k, g.n - k))
    b[position[np.where(flip, v, u)], position[np.where(flip, u, v)]] = w[u] * w[v]
    return b


def reference_subdivision(g: Graph) -> Graph:
    edges = []
    for i, (u, v) in enumerate(g.edges):
        w = g.n + i
        edges.append((u, w))
        edges.append((v, w))
    return Graph.from_edges(g.n + g.m, edges)


def reference_energy_of(values: np.ndarray) -> float:
    return math.fsum(map(abs, values))


def front_end_roster():
    """Every labelled graph of orders 0-5 (isolated vertices, disconnected
    graphs, odd cycles in a later component, components whose colour
    classes tie), random graphs of orders 6-14, and the path, star, cycle
    and complete graphs of orders 2-62."""
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, tuple(p for k, p in enumerate(pairs) if mask >> k & 1))
    rng = random.Random(22)
    for n in range(6, 15):
        for density in (0.1, 0.2, 0.35, 0.6):
            for _ in range(6):
                pairs = itertools.combinations(range(n), 2)
                yield Graph.from_edges(n, [p for p in pairs if rng.random() < density])
    for kind in ("path", "star", "cycle", "complete"):
        for n in range(3 if kind == "cycle" else 2, 63):
            yield generate(kind, n)


def block_outcome(build, g: Graph):
    """The block's shape and bytes, None, or the error's type and message."""
    try:
        b = build(g)
    except IsolatedVertexError as exc:
        return type(exc), str(exc)
    return None if b is None else (b.shape, b.dtype, b.tobytes())


class TestFrozenFrontEnd:
    def test_roster_covers_the_edge_cases(self):
        outcomes = {
            name: block_outcome(_biadjacency, g)
            for name, g in {
                "no vertices": Graph(0, ()),
                "isolated": Graph(3, ((0, 1),)),
                "odd cycle later": Graph(5, ((0, 1), (2, 3), (2, 4), (3, 4))),
                "classes tie": Graph(4, ((0, 1), (2, 3))),
            }.items()
        }
        assert outcomes["no vertices"] == (IsolatedVertexError, "graph has no vertices")
        assert outcomes["isolated"] == (IsolatedVertexError, "vertex 2 has degree zero")
        assert outcomes["odd cycle later"] is None
        assert outcomes["classes tie"][0] == (2, 2)
        # all of these are among the labelled graphs of orders 0-5
        assert sum(1 for _ in front_end_roster()) == 1 + 1 + 2 + 8 + 64 + 1024 + 9 * 24 + 61 * 3 + 60

    def test_graphs_and_subdivisions_match_the_references(self):
        for g in front_end_roster():
            s = subdivision(g)
            want = reference_subdivision(g)
            assert s == want and all(type(e) is tuple for e in s.edges), g
            for h in (g, s):
                assert block_outcome(_biadjacency, h) == block_outcome(reference_biadjacency, h), h
                want_rows = reference_row_side(h)
                for order in (sorted, lambda vs: sorted(vs, reverse=True)):
                    assert _row_side([order(h.neighbors(v)) for v in range(h.n)]) == want_rows, h

    def test_energy_of_matches_the_reference(self):
        rng = np.random.default_rng(22)
        arrays = [
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 290, n) for n in range(0, 200, 7)
        ]
        arrays.append(np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e307, 1.0, -1e-16]))
        arrays += [randic_eigenvalues(subdivision(generate("star", n))) for n in (3, 17, 50)]
        for values in arrays:
            got = energy_of(values)
            assert type(got) is float
            assert got.hex() == reference_energy_of(values).hex()
            assert energy_of(values.tolist()).hex() == got.hex()

    def test_row_energies_match_energy_of(self):
        rng = np.random.default_rng(23)
        stacks = [
            rng.standard_normal((b, n)) * 10.0 ** rng.integers(-300, 290, (b, n))
            for b, n in ((1, 1), (3, 7), (40, 15), (5, 199))
        ]
        stacks.append(np.array([[0.0, -0.0, 5e-324, -5e-324], [1e308, -1e307, 1.0, -1e-16]]))
        # a scan's padded R(S) rows, and its R(G) rows, of order 5
        masks = np.array(list(_connected_masks(5, 0, edge_mask_count(5))), dtype=np.int64)
        _, _, _, rho, rho_s = _scan_spectra(5, masks, True)
        stacks += [rho, rho_s]
        for rows in stacks:
            got = _row_energies(rows)
            assert got.shape == (len(rows),)
            assert [x.hex() for x in got.tolist()] == [energy_of(row).hex() for row in rows]
        assert _row_energies(np.zeros((0, 4))).shape == (0,)
