"""Degree-normalized adjacency spectra.

For a graph with adjacency matrix A and degree matrix D, the central object
is R = D^(-1/2) A D^(-1/2), whose (i, j) entry is 1/sqrt(d_i d_j) on edges
and 0 elsewhere.  The two derived matrices are I - R and I + R.  All three
need every degree positive, so graphs with isolated vertices are rejected
at matrix construction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IsolatedVertexError
from .graphs import Graph
from .linalg import Spectrum, eigenvalues, symmetric_eigenvalues


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


def randic_spectrum(g: Graph) -> Spectrum:
    return eigenvalues(randic_matrix(g))


def energy_of(values) -> float:
    """Sum of absolute values, accumulated with compensated summation."""
    return math.fsum(abs(v) for v in values)


def randic_energy(g: Graph) -> float:
    """Energy of R: the sum of the absolute values of its eigenvalues."""
    return energy_of(symmetric_eigenvalues(randic_matrix(g)))


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
