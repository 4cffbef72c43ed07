"""Degree-normalized adjacency spectra.

For a graph with adjacency matrix A and degree matrix D, the central object
is R = D^(-1/2) A D^(-1/2), whose (i, j) entry is 1/sqrt(d_i d_j) on edges
and 0 elsewhere.  The two derived matrices are I - R and I + R.  All three
need every degree positive, so graphs with isolated vertices are rejected
at matrix construction.

A bipartite graph, every subdivision among them, has R = [[0, B], [B^T, 0]]
once its vertices are ordered by colour class.  ``randic_eigenvalues`` then
solves only the block B, by the one-sided kernel: R's spectrum is +-sigma(B)
and zeros.  Any other graph is solved as the full matrix R.
``_biadjacency`` takes the degrees, the 2-colouring and B from one pass
over the edge list into integer adjacency lists, so a single graph reaches
the kernel without the graph's cached neighbour sets or numpy arrays per
vertex.  ``verify`` routes R(G) the same way.  A scan builds the blocks of
its bipartite graphs and of its subdivisions itself, with the bits of
``_biadjacency``, and lays out their spectra with
``_bipartite_eigenvalues``; so every command gives a graph one R spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IsolatedVertexError
from .graphs import Graph
from .linalg import Spectrum, singular_values, symmetric_eigenvalues


def _require_positive(degrees) -> None:
    """Reject a graph without vertices, or with a vertex of degree zero
    (the lowest such vertex is named), given its degrees in vertex order."""
    if not degrees:
        raise IsolatedVertexError("graph has no vertices")
    if 0 in degrees:
        raise IsolatedVertexError(f"vertex {degrees.index(0)} has degree zero")


def _inverse_sqrt_degrees(g: Graph) -> np.ndarray:
    _require_positive(g.degrees)
    return 1.0 / np.sqrt(np.array(g.degrees, dtype=np.float64))


def randic_matrix(g: Graph) -> np.ndarray:
    """Dense R = D^(-1/2) A D^(-1/2); exactly symmetric by construction."""
    w = _inverse_sqrt_degrees(g)
    a = g.adjacency.astype(np.float64)
    return (w[:, None] * a) * w[None, :]


def normalized_laplacian(g: Graph) -> np.ndarray:
    return np.eye(g.n) - randic_matrix(g)


def normalized_signless_laplacian(g: Graph) -> np.ndarray:
    return np.eye(g.n) + randic_matrix(g)


def _row_side(adjacent: list[list[int]]) -> list[bool] | None:
    """Whether each vertex is a row of B, from a breadth-first 2-colouring
    of the adjacency lists ``adjacent``, one component at a time: the rows
    are each component's smaller colour class (on a tie, the class of its
    lowest vertex).  None when the graph has an odd cycle."""
    colour = [-1] * len(adjacent)
    rows = [False] * len(adjacent)
    for root in range(len(adjacent)):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        component = [root]
        ones = 0
        for u in component:  # grows as the search reaches new vertices
            other = 1 - colour[u]
            for v in adjacent[u]:
                if colour[v] < 0:
                    colour[v] = other
                    ones += other
                    component.append(v)
                elif colour[v] != other:
                    return None
        side = int(2 * ones < len(component))
        for v in component:
            rows[v] = colour[v] == side
    return rows


def _biadjacency(g: Graph) -> np.ndarray | None:
    """The block B of R, rows and columns each in vertex order, or None when
    g is not bipartite.  Entry (u, v) is ``randic_matrix``'s w[u] * w[v]
    with w = 1 / sqrt(degree), so the nonzeros of B are those of R bit for
    bit.

    Built in one pass over the edge list into integer adjacency lists, whose
    lengths are the degrees and which ``_row_side`` 2-colours; each edge then
    writes its entry into B at the flat index of its (row, column) pair.
    Rejects an isolated vertex, or a graph without vertices, as
    ``randic_matrix`` does."""
    adjacent: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    degrees = list(map(len, adjacent))
    _require_positive(degrees)
    rows = _row_side(adjacent)
    if rows is None:
        return None
    # each vertex's index among the rows, or among the columns
    position = []
    k = 0
    for is_row in rows:
        position.append(k if is_row else len(position) - k)
        k += is_row
    width = g.n - k
    w = [1.0 / math.sqrt(d) for d in degrees]
    index = [
        position[u] * width + position[v] if rows[u] else position[v] * width + position[u]
        for u, v in g.edges
    ]
    b = np.zeros((k, width))
    b.ravel()[index] = [w[u] * w[v] for u, v in g.edges]
    return b


def _bipartite_eigenvalues(sigma: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalues of an order-n R = [[0, B], [B^T, 0]], descending, from the
    singular values ``sigma`` of its k x (n - k) block B, descending, one row
    per row of ``sigma``: sigma, then n - 2k exact zeros, then -sigma
    reversed, so the values pair off as exact negatives."""
    zeros = np.zeros(sigma.shape[:-1] + (n - 2 * sigma.shape[-1],))
    return np.concatenate((sigma, zeros, -sigma[..., ::-1]), axis=-1)


def randic_eigenvalues(g: Graph) -> np.ndarray:
    """Eigenvalues of R, descending.

    A bipartite g is solved on its block B by ``singular_values``, and its
    spectrum laid out by ``_bipartite_eigenvalues``.  Any other g goes to
    ``symmetric_eigenvalues`` on ``randic_matrix(g)``.  Rejects an isolated
    vertex, or a graph without vertices, before either.
    """
    b = _biadjacency(g)
    if b is None:
        return symmetric_eigenvalues(randic_matrix(g))
    return _bipartite_eigenvalues(singular_values(b), g.n)


def randic_spectrum(g: Graph) -> Spectrum:
    """``randic_eigenvalues`` with multiplicity clustering."""
    return Spectrum.of(randic_eigenvalues(g))


def energy_of(values) -> float:
    """Sum of absolute values, accumulated with compensated summation.

    A 1-D array is summed over its ``tolist()`` floats, which ``abs`` takes
    faster than numpy scalars; ``math.fsum`` is correctly rounded, so the
    bits do not depend on the input's type."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(map(abs, values))


def _row_energies(rows: np.ndarray) -> np.ndarray:
    """``energy_of`` of each row of a (B, n) array, with its bits: one exact
    ``np.abs`` of the array, then ``math.fsum`` over each row of its
    ``tolist()``."""
    return np.array([math.fsum(row) for row in np.abs(rows).tolist()])


def randic_energy(g: Graph) -> float:
    """Energy of R: the sum of the absolute values of its
    ``randic_eigenvalues``, so a bipartite g is solved on its block B."""
    return energy_of(randic_eigenvalues(g))


def randic_index(g: Graph) -> float:
    """Sum of 1/sqrt(d_u d_v) over the edges, straight from degrees.

    Rejects an isolated vertex, or a graph without vertices, as
    ``randic_matrix`` does."""
    deg = g.degrees
    _require_positive(deg)
    return math.fsum(1.0 / math.sqrt(deg[u] * deg[v]) for u, v in g.edges)


def perron_vector(g: Graph) -> np.ndarray:
    """Unit vector with entries proportional to sqrt(d_i).

    Satisfies R x = x for any graph with all degrees positive; positivity
    and uniqueness of that eigenvector additionally need connectivity.
    """
    w = _inverse_sqrt_degrees(g)
    x = 1.0 / w
    return x / np.linalg.norm(x)


def perron_residual(g: Graph) -> float:
    """max |R x - x| for the degree square-root vector x."""
    x = perron_vector(g)
    return float(np.max(np.abs(randic_matrix(g) @ x - x)))
