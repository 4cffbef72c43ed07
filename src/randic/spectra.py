"""Degree-normalized adjacency spectra.

For a graph with adjacency matrix A and degree matrix D, the central object
is R = D^(-1/2) A D^(-1/2), whose (i, j) entry is 1/sqrt(d_i d_j) on edges
and 0 elsewhere.  The two derived matrices are I - R and I + R.  All three
need every degree positive, so graphs with isolated vertices are rejected
at matrix construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IsolatedVertexError
from .graphs import Graph
from .linalg import CLUSTER_TOL, Spectrum, eigenvalues, symmetric_eigenvalues


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


@dataclass(frozen=True)
class GraphSpectra:
    """Spectra of R, I - R and I + R, each solved independently.

    Solving all three from scratch (instead of deriving two from one) keeps
    a consistency check available: the value lists must match under
    mu = 1 - rho and theta = 1 + rho up to solver noise.
    """

    randic: Spectrum
    laplacian: Spectrum
    signless: Spectrum


def randic_spectrum(g: Graph, tol: float = CLUSTER_TOL) -> Spectrum:
    return eigenvalues(randic_matrix(g), tol)


def spectra(g: Graph, tol: float = CLUSTER_TOL) -> GraphSpectra:
    return GraphSpectra(
        randic=eigenvalues(randic_matrix(g), tol),
        laplacian=eigenvalues(normalized_laplacian(g), tol),
        signless=eigenvalues(normalized_signless_laplacian(g), tol),
    )


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


def relation_residuals(gs: GraphSpectra) -> dict[str, float]:
    """Worst mismatch of the eigenvalue correspondences between the three
    independently solved spectra.

    The multiset identities are mu = 1 - rho and theta = 1 + rho, checked
    after sorting both sides.
    """
    rho = np.array(gs.randic.values)
    mu = np.sort(np.array(gs.laplacian.values))
    theta = np.sort(np.array(gs.signless.values))
    return {
        "laplacian": float(np.max(np.abs(mu - np.sort(1.0 - rho)))),
        "signless": float(np.max(np.abs(theta - np.sort(1.0 + rho)))),
    }


def bounds_residuals(gs: GraphSpectra) -> dict[str, float]:
    """How far each spectrum leaks outside its interval: rho within
    [-1, 1], mu and theta within [0, 2].  Zero means fully inside."""

    def leak(values, low, high):
        worst = 0.0
        for v in values:
            worst = max(worst, low - v, v - high)
        return max(0.0, worst)

    return {
        "randic": leak(gs.randic.values, -1.0, 1.0),
        "laplacian": leak(gs.laplacian.values, 0.0, 2.0),
        "signless": leak(gs.signless.values, 0.0, 2.0),
    }
