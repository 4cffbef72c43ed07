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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IsolatedVertexError
from .graphs import Graph
from .linalg import Spectrum, singular_values, symmetric_eigenvalues


def _inverse_sqrt_degrees(g: Graph) -> np.ndarray:
    if g.n == 0:
        raise IsolatedVertexError("graph has no vertices")
    deg = np.array(g.degrees, dtype=np.float64)
    if np.any(deg == 0):
        bad = int(np.argmin(deg))
        raise IsolatedVertexError(f"vertex {bad} has degree zero")
    return 1.0 / np.sqrt(deg)


def randic_matrix(g: Graph) -> np.ndarray:
    """Dense R = D^(-1/2) A D^(-1/2); exactly symmetric by construction."""
    w = _inverse_sqrt_degrees(g)
    a = g.adjacency.astype(np.float64)
    return (w[:, None] * a) * w[None, :]


def normalized_laplacian(g: Graph) -> np.ndarray:
    return np.eye(g.n) - randic_matrix(g)


def normalized_signless_laplacian(g: Graph) -> np.ndarray:
    return np.eye(g.n) + randic_matrix(g)


def _row_side(g: Graph) -> list[bool] | None:
    """Whether each vertex is a row of B, from a BFS 2-colouring, one
    component at a time: the rows are each component's smaller colour class
    (on a tie, the class of its lowest vertex).  None when g has an odd
    cycle."""
    colour = [-1] * g.n
    rows = [False] * g.n
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        component = [root]
        for u in component:  # grows as the search reaches new vertices
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


def _biadjacency(g: Graph) -> np.ndarray | None:
    """The block B of R, rows and columns each in vertex order, or None when
    g is not bipartite.  Entry (u, v) is ``randic_matrix``'s w[u] * w[v], so
    the nonzeros of B are those of R bit for bit."""
    w = _inverse_sqrt_degrees(g)
    side = _row_side(g)
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


def randic_eigenvalues(g: Graph) -> np.ndarray:
    """Eigenvalues of R, descending.

    For a bipartite g, with B its k x (n - k) block: sigma(B) descending,
    then n - 2k exact zeros, then -sigma(B) reversed, so the values pair off
    as exact negatives.  Any other g goes to ``symmetric_eigenvalues`` on
    ``randic_matrix(g)``.  Rejects an isolated vertex, or a graph without
    vertices, before either.
    """
    b = _biadjacency(g)
    if b is None:
        return symmetric_eigenvalues(randic_matrix(g))
    sigma = singular_values(b)
    return np.concatenate((sigma, np.zeros(g.n - 2 * sigma.size), -sigma[::-1]))


def randic_spectrum(g: Graph) -> Spectrum:
    """``randic_eigenvalues`` with multiplicity clustering."""
    return Spectrum.of(randic_eigenvalues(g))


def energy_of(values) -> float:
    """Sum of absolute values, accumulated with compensated summation."""
    return math.fsum(abs(v) for v in values)


def randic_energy(g: Graph) -> float:
    """Energy of R: the sum of the absolute values of its
    ``randic_eigenvalues``, so a bipartite g is solved on its block B."""
    return energy_of(randic_eigenvalues(g))


def randic_index(g: Graph) -> float:
    """Sum of 1/sqrt(d_u d_v) over the edges, straight from degrees.

    Rejects an isolated vertex, or a graph without vertices, as
    ``randic_matrix`` does."""
    _inverse_sqrt_degrees(g)
    deg = g.degrees
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
