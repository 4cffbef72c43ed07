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
``_biadjacency`` takes the degrees, the 2-colouring and B from the
graph's adjacency lists, built in one pass over its edge list and shared
with the connectivity test, so a single graph reaches the kernel without
neighbour sets or numpy arrays per vertex.  ``randic_matrix`` writes R
from the edge list.  ``verify`` routes R(G) the same way, and takes the
block of R(S(G)) from ``_subdivision_block``, which builds it from G
without building S(G).  A scan builds the blocks of
its bipartite graphs and of its subdivisions itself, with the bits of
``_biadjacency``, and lays out their spectra with
``_bipartite_eigenvalues``; so every command gives a graph one R spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IsolatedVertexError
from .graphs import Graph, is_connected, subdivision
from .linalg import Spectrum, singular_values, symmetric_eigenvalues


def _require_positive(degrees) -> None:
    """Reject a graph without vertices, or with a vertex of degree zero
    (the lowest such vertex is named), given its degrees in vertex order."""
    if not degrees:
        raise IsolatedVertexError("graph has no vertices")
    if 0 in degrees:
        raise IsolatedVertexError(f"vertex {degrees.index(0)} has degree zero")


def _inverse_sqrt_list(degrees) -> list[float]:
    """w = 1 / sqrt(d) per degree, in vertex order, as Python floats;
    rejects a graph without vertices or with a vertex of degree zero."""
    _require_positive(degrees)
    return [1.0 / math.sqrt(d) for d in degrees]


def randic_matrix(g: Graph) -> np.ndarray:
    """Dense R = D^(-1/2) A D^(-1/2); exactly symmetric by construction.

    Entry (u, v) of an edge is w[u] * w[v] with w = 1 / sqrt(degree), the
    bits of (w[u] * 1.0) * w[v], and every other entry is +0.0, the bits
    of (w[u] * 0.0) * w[v]: written from the edge list into zeros."""
    w = _inverse_sqrt_list(g.degrees)
    n = g.n
    r = np.zeros((n, n))
    flat = r.ravel()
    products = [w[u] * w[v] for u, v in g.edges]
    flat[[u * n + v for u, v in g.edges]] = products
    flat[[v * n + u for u, v in g.edges]] = products
    return r


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

    Built from the graph's adjacency lists (``Graph._adjacent``), whose
    lengths are the degrees and which ``_row_side`` 2-colours; each edge then
    writes its entry into B at the flat index of its (row, column) pair.
    Rejects an isolated vertex, or a graph without vertices, as
    ``randic_matrix`` does."""
    adjacent = g._adjacent
    w = _inverse_sqrt_list(g.degrees)
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
    index = [
        position[u] * width + position[v] if rows[u] else position[v] * width + position[u]
        for u, v in g.edges
    ]
    b = np.zeros((k, width))
    b.ravel()[index] = [w[u] * w[v] for u, v in g.edges]
    return b


def _subdivision_block(g: Graph) -> np.ndarray:
    """``_biadjacency(subdivision(g))``, bit for bit, built from g.

    S(G) of a connected g is one component, its n vertices one colour
    class and its m edge vertices the other.  The rows of B are then the
    edge vertices when m < n, in edge order, and g's vertices otherwise;
    the entry of vertex x and edge i is w[x] * (1 / sqrt(2)), the product
    ``_biadjacency`` forms on S(G)'s edge (x, n + i).  Any other g goes
    through ``subdivision``."""
    if not g.edges or not is_connected(g):
        return _biadjacency(subdivision(g))
    w = _inverse_sqrt_list(g.degrees)
    half = 1.0 / math.sqrt(2.0)
    n, m = g.n, g.m
    b = np.zeros((m, n) if m < n else (n, m))
    if m < n:
        index = [i * n + x for i, edge in enumerate(g.edges) for x in edge]
    else:
        index = [x * m + i for i, edge in enumerate(g.edges) for x in edge]
    b.ravel()[index] = [w[x] * half for edge in g.edges for x in edge]
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
    w = np.array(_inverse_sqrt_list(g.degrees))
    x = 1.0 / w
    return x / np.linalg.norm(x)


def perron_residual(g: Graph) -> float:
    """max |R x - x| for the degree square-root vector x."""
    x = perron_vector(g)
    return float(np.max(np.abs(randic_matrix(g) @ x - x)))
