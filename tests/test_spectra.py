import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic.errors import IsolatedVertexError
from randic.graphs import Graph, generate, is_connected
from randic.linalg import symmetric_eigenvalues
from randic.spectra import (
    energy_of,
    normalized_laplacian,
    normalized_signless_laplacian,
    perron_residual,
    perron_vector,
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
