"""Mechanical verification of structural identities of R = D^(-1/2)AD^(-1/2).

Every check returns a VerificationReport whose ``passed`` flag is exactly
"all residuals below the report tolerance".  Checks never round a failure
away: numerical trouble raises, and a genuinely violated identity shows up
as a large residual, not an exception.

The subdivision checks compare a graph G (n vertices, m edges) against the
graph S obtained by placing one new vertex on every edge:

* charpoly:        2^n x^n phi_R(S; x)  ==  x^m phi_Q(G; 2 x^2)
                   where phi_Q is the characteristic polynomial of I + R(G),
                   equivalently [x^(n+m-2i)] phi_R(S) == 2^(-i) [x^(n-i)] phi_Q
* correspondence:  eigenvalues of R(S) are +-sqrt(theta/2) over the spectrum
                   theta of I + R(G), padded with zeros to length n + m
* energy:          sum |rho(S)| == sqrt(2) * sum sqrt(theta)

The rank-one check: for connected G with distinct R-eigenvalues
rho_1 = 1 > rho_2 > ... > rho_k,

    prod_{i=2..k} (R - rho_i I)  ==  c * a a^T,   a = (sqrt(d_1), ..., sqrt(d_n)),
    c = prod_{i=2..k} (1 - rho_i) / (2m),

with the left side also required to be nonzero (no factor can be dropped).

Each check runs over already solved spectra, rho of R(G) and rho_S of
R(S), for a stack of connected graphs of one order, one row per graph
(``_check_stack``): it yields a pass-flag array and one residual array per
key.  The spectrum of I + R(G) is theta = 1 + rho, read off rho, never
solved.  The number k of distinct eigenvalues, which the rank-one
identity, the classification and the local conditions read, is decided
once per stack by clustering the rows of rho at CLUSTER_TOL; the rank-one
products of the rows sharing a k run as stacked matmuls.  The structural
tests read the adjacency A = (R != 0) of the stack, never a Graph: strong
regularity from the integer entries of A^2 of the regular rows, and the
local conditions from the counts, per degree, of each vertex's
neighbours and each pair's common neighbours, each distinct count vector
summed once by ``math.fsum``.  The rows of a stack may differ in their
number of edges m: each R(S) spectrum is then padded with zeros among its
zeros to the stack's widest, n + max(m), and every residual keeps the bits
of the row alone.  A scan takes the connected graphs of a mask range as
edge masks, SCAN_CHUNK at a time; it runs every check once per chunk, in
one ``_check_stack`` pass, and folds the arrays straight into one running
tally and one ``ScanSummary``: the worst value per key, counterexamples
from the failing rows, in mask order, and the energy extremes.  It builds
no report, and builds a Graph and its graph6 only for the graphs it
reports: the counterexamples and the two energy extremes.  ``verify_all`` and the
single-check functions check their preconditions and take one path,
``_verify``: it solves R(G), and R(S) only for a subdivision check, once
each, runs the same pass on a stack of one, so k is decided in
``_check_stack`` on every path, and builds the ``VerificationReport`` and
``Classification`` objects, with their detail text, from row 0 of the
arrays.  Every path gives a graph the spectrum of ``randic_eigenvalues``:
a bipartite R(G), and every R(S), is solved one-sided on its biadjacency
block, and any other R(G) two-sided.  ``_verify`` routes R(G) as
``randic_eigenvalues`` does, and builds the block of R(S) straight from G
(``spectra._subdivision_block``) with the bits of
``randic_eigenvalues(subdivision(g))``.  On its stack of one, a helper
whose numpy calls cost more than the arithmetic of one row takes a form
on Python floats or 2-D arrays, pinned bit for bit to the stacked form:
the charpoly expansion and residuals, the correspondence gap, the
clustering, the rank-one product, and the strong-regularity test and the
local conditions on small graphs.  A scan 2-colours
its masks with bitset operations, from the mask bits it builds its
matrices from, and solves one stack of blocks per row count for R(G), and
one per edge-count group for R(S), with the same bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .graphs import (
    Graph,
    _adjacency_bitsets,
    _connected_masks,
    _mask_bits,
    _mask_edges,
    _pair_ends,
    _popcount,
    _row_sides,
    edge_mask_count,
    encode_graph6,
    is_connected,
)
from .linalg import (
    ROW_LIST_MAX_LENGTH,
    ROW_PAIRS_MAX_ORDER,
    _charpoly_list,
    charpoly_coefficients,
    cluster_rows,
    product_over_root_rows,
    singular_values,
    symmetric_eigenvalues,
)
from .spectra import (
    _biadjacency,
    _bipartite_eigenvalues,
    _require_positive,
    _row_energies,
    _subdivision_block,
    energy_of,
    randic_eigenvalues,
    randic_matrix,
)

CHARPOLY_TOL = 1e-8
CORRESPONDENCE_TOL = 1e-8
ENERGY_TOL = 1e-9
IDENTITY_TOL_SCALE = 1e-8  # multiplied by n^2
LOCAL_TOL = 1e-8

# Graphs per solved stack in a scan; bounds the stacks' memory at order 7.
SCAN_CHUNK = 2048

# Eigenvalues of I + R this close to zero are treated as exact zeros before
# taking square roots; otherwise solver noise of order 1e-15 turns into
# sqrt-noise of order 3e-8 and drowns the real residuals.
ZERO_EIGENVALUE_SLACK = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check on one graph.

    ``passed`` is true exactly when every entry of ``residuals`` is below
    ``tolerance``.  ``values`` carries informational quantities (constants,
    energies, counts) that are not part of the verdict.
    """

    name: str
    passed: bool
    tolerance: float
    residuals: dict[str, float]
    values: dict[str, float] = field(default_factory=dict)
    detail: str = ""


def fmt(x: float) -> str:
    """Render a float at 12 significant digits (the package-wide contract)."""
    return f"{x:.12g}"


def _report(
    name: str,
    tolerance: float,
    residuals: dict[str, float],
    values: dict[str, float] | None = None,
    detail: str = "",
) -> VerificationReport:
    passed = all(r < tolerance for r in residuals.values())
    return VerificationReport(
        name=name,
        passed=passed,
        tolerance=tolerance,
        residuals=residuals,
        values=values or {},
        detail=detail,
    )


@dataclass(frozen=True)
class _Checked:
    """One check's outcome over a stack of graphs of one order.

    ``rows`` are the stack rows the check applies to, ascending, and
    ``passed`` and each array of ``residuals`` hold one entry per such row:
    a scan folds these arrays as they are.  ``report(j)`` builds the
    outcome object of the j-th such row, which a scan never asks for."""

    rows: np.ndarray
    passed: np.ndarray
    residuals: dict[str, np.ndarray]
    report: Callable[[int], VerificationReport | Classification]


def _passed(residuals: dict[str, np.ndarray], tolerance: float) -> np.ndarray:
    """Per row, whether every residual is below ``tolerance``: the
    verdict of ``_report`` on each row."""
    return np.logical_and.reduce([r < tolerance for r in residuals.values()])


def _row(arrays: dict[str, np.ndarray], j: int) -> dict[str, float]:
    """Entry j of each array, by key."""
    return {key: float(values[j]) for key, values in arrays.items()}


def _clamp_small(values: np.ndarray) -> np.ndarray:
    """Zero out entries within ZERO_EIGENVALUE_SLACK of zero; reject anything
    below minus that slack, which would mean the solver returned a nonsense
    spectrum for a positive semidefinite matrix."""
    out = np.where(np.abs(values) <= ZERO_EIGENVALUE_SLACK, 0.0, values)
    if np.any(out < 0.0):
        worst = float(np.min(out))
        raise ConvergenceError(
            f"eigenvalue {worst:.3e} of I + R is negative beyond slack "
            f"{ZERO_EIGENVALUE_SLACK:g}"
        )
    return out


# ---------------------------------------------------------------------------
# Subdivision checks
# ---------------------------------------------------------------------------


def _relative_gaps(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Worst entry gap between the rows of two (B, W) arrays, relative to
    the largest magnitude in either row, floored at 1."""
    largest = np.max(np.abs(np.hstack((p, q))), axis=1)
    return np.max(np.abs(p - q), axis=1) / np.maximum(largest, 1.0)


def _charpoly_residuals(
    n: int, m: np.ndarray, theta: np.ndarray, rho_s: np.ndarray
) -> dict[str, np.ndarray]:
    """Residuals of the charpoly identity, one per row, for a stack of
    graphs with n vertices and m (B,) edges: ``theta`` (B, n) holds the
    spectra of I + R(G), and ``rho_s`` (B, W) those of R(S), padded as
    ``_check_stack`` takes them.  A claimed subdivision of the wrong order
    W, in a stack of one, compares against zero padding.

    Each padding zero multiplies a row's characteristic polynomial by x,
    which leaves every nonzero coefficient as it is and shifts the row's
    coefficients max(m) - m_i places up: so does the x^m factor of the
    other side, placed at x^max(m) for every row.  The extra coefficients
    are zeros on both sides, and every residual, a maximum of magnitudes,
    keeps the bits of the row alone.

    A stack of one with at most ``ROW_LIST_MAX_LENGTH`` values of R(S)
    goes to ``_charpoly_row_residuals``, the same arithmetic on Python
    floats."""
    rows, order = rho_s.shape
    top = int(m.max())
    if rows == 1 and order <= ROW_LIST_MAX_LENGTH:
        cross, positions = _charpoly_row_residuals(n, top, theta[0].tolist(), rho_s[0].tolist())
        return {
            "cross_multiplied": np.array([cross]),
            "coefficient_positions": np.array([positions]),
        }
    phi_s = charpoly_coefficients(rho_s)[:, ::-1]  # ascending powers
    phi_q = charpoly_coefficients(theta)  # descending powers
    powers = np.ldexp(1.0, np.arange(n + 1))  # 2^i, exactly
    width = max(n + order + 1, top + 2 * n + 1)
    lhs = np.zeros((rows, width))
    lhs[:, n : n + order + 1] = float(2**n) * phi_s
    rhs = np.zeros((rows, width))
    rhs[:, top : top + 2 * n + 1 : 2] = phi_q[:, ::-1] * powers
    cross = _relative_gaps(lhs, rhs)

    # Same identity read off coefficient by coefficient: the x^(n+m-2i)
    # coefficient of phi_R(S) must equal 2^(-i) times the x^(n-i)
    # coefficient of phi_Q, for i = 0..n.
    at = n + top - 2 * np.arange(n + 1)
    stored = (at >= 0) & (at <= order)
    a = np.where(stored, phi_s[:, np.clip(at, 0, order)], 0.0)
    positions = _relative_gaps(a, phi_q / powers)
    return {"cross_multiplied": cross, "coefficient_positions": positions}


def _max_gap(gaps: list[float]) -> float:
    """``np.max`` of a list of values >= 0 or NaN: NaN when any is NaN,
    which their sum then is."""
    total = sum(gaps)
    return total if total != total else max(gaps)


def _relative_gap(p: list[float], q: list[float]) -> float:
    """``_relative_gaps`` of one row, on Python floats."""
    largest = _max_gap([abs(x) for x in p] + [abs(y) for y in q])
    return _max_gap([abs(x - y) for x, y in zip(p, q)]) / max(largest, 1.0)


def _charpoly_row_residuals(
    n: int, m: int, theta: list[float], rho_s: list[float]
) -> tuple[float, float]:
    """``_charpoly_residuals`` of a stack of one, its two residuals, for a
    graph with n vertices and m edges, from the spectrum ``theta`` of
    I + R(G) and ``rho_s`` of R(S): the stacked form's rows as lists, each
    entry formed by the same rounded operations."""
    order = len(rho_s)
    phi_s = _charpoly_list(rho_s)[::-1]  # ascending powers
    phi_q = _charpoly_list(theta)  # descending powers
    powers = [math.ldexp(1.0, i) for i in range(n + 1)]  # 2^i, exactly
    width = max(n + order + 1, m + 2 * n + 1)
    scale = float(2**n)
    lhs = [0.0] * width
    lhs[n : n + order + 1] = [scale * c for c in phi_s]
    rhs = [0.0] * width
    rhs[m : m + 2 * n + 1 : 2] = [c * p for c, p in zip(phi_q[::-1], powers)]
    a = [phi_s[at] if 0 <= at <= order else 0.0 for at in range(n + m, m - n - 1, -2)]
    return (
        _relative_gap(lhs, rhs),
        _relative_gap(a, [c / p for c, p in zip(phi_q, powers)]),
    )


def _subdivision_report(
    name: str, g: Graph, subdivided: Graph | None
) -> VerificationReport:
    """Report of the subdivision check ``name`` on G, against its
    subdivision or the claimed ``subdivided`` graph standing in for it."""
    if g.m == 0:
        raise PreconditionError("subdivision checks need at least one edge")
    return _verify(g, (name,), subdivided)[0][name]


def verify_subdivision_charpoly(
    g: Graph, subdivided: Graph | None = None
) -> VerificationReport:
    """Check the characteristic-polynomial identity between G and its
    subdivision.  ``subdivided`` substitutes a claimed subdivision graph in
    place of the constructed one (useful as a negative control)."""
    return _subdivision_report("charpoly", g, subdivided)


def _correspondence_residual(
    n: int, m: np.ndarray, theta: np.ndarray, rho_s: np.ndarray
) -> np.ndarray:
    """Worst gap, one per row, between the spectrum of R(S) in ``rho_s``
    (B, W), descending and padded as ``_check_stack`` takes it, and the
    values +-sqrt(theta/2) over the row of ``theta`` (B, n), padded with
    zeros to W values, for graphs with m (B,) edges.

    Both rows are compared descending, their zeros in the middle: the
    values of a row are then paired as they are paired in ascending order
    on its n + m values alone, with zeros paired to zeros in its padding,
    so the worst gap keeps its bits.  Sorting a padded row instead would
    move its padding to its zeros, where the other row's padding is not.
    A stack of one with at most ``ROW_LIST_MAX_LENGTH`` values of R(S) is
    compared on Python floats, by ``_correspondence_row_residual``."""
    if np.any(2 * np.count_nonzero(theta, axis=1) > n + m):
        raise ConvergenceError(
            "spectrum of I + R has fewer zeros than the subdivision order requires"
        )
    if len(theta) == 1 and rho_s.shape[1] <= ROW_LIST_MAX_LENGTH:
        return np.array([_correspondence_row_residual(n, theta[0].tolist(), rho_s[0].tolist())])
    width = rho_s.shape[1]
    half = np.sort(np.sqrt(theta / 2.0), axis=1)
    # descending: half reversed, padding, -half; each zero of theta gives a
    # 0 and a -0 in the middle, and W < 2n (trees, matchings) drops the
    # excess there, the check above having counted enough zeros
    drop = max(2 * n - width, 0)
    high, low = half[:, ::-1][:, : n - drop // 2], -half[:, (drop + 1) // 2 :]
    expected = np.hstack((high, np.zeros((len(theta), width - 2 * n + drop)), low))
    return np.max(np.abs(rho_s - expected), axis=1)


def _correspondence_row_residual(n: int, theta: list[float], rho_s: list[float]) -> float:
    """``_correspondence_residual`` of a stack of one, on Python floats:
    the same expected row, the same gaps and their maximum."""
    width = len(rho_s)
    half = sorted([math.sqrt(t / 2.0) for t in theta])
    drop = max(2 * n - width, 0)
    expected = half[::-1][: n - drop // 2] + [0.0] * (width - 2 * n + drop)
    expected += [-h for h in half[(drop + 1) // 2 :]]
    return _max_gap([abs(x - y) for x, y in zip(rho_s, expected)])


def verify_eigenvalue_correspondence(
    g: Graph, subdivided: Graph | None = None
) -> VerificationReport:
    """Check that R(S) has exactly the eigenvalues +-sqrt(theta/2), padded
    with zeros, where theta runs over the spectrum of I + R(G)."""
    return _subdivision_report("correspondence", g, subdivided)


def _energy_residuals(theta: np.ndarray, direct: np.ndarray) -> dict[str, np.ndarray]:
    """Residual, one per row, of the direct energies ``direct`` (B,) of
    R(S) against the closed form over the rows of ``theta`` (B, n), each
    summed by math.fsum."""
    closed = [math.fsum(row) for row in np.sqrt(theta).tolist()]
    return {"energy_match": np.abs(direct - math.sqrt(2.0) * np.array(closed))}


def verify_subdivision_energy(
    g: Graph, subdivided: Graph | None = None
) -> VerificationReport:
    """Check sum |rho(S)| == sqrt(2) * sum sqrt(theta) for the subdivision."""
    return _subdivision_report("energy", g, subdivided)


def _subdivision_checked(
    name: str, n: int, m: np.ndarray, theta: np.ndarray, rho_s: np.ndarray
) -> _Checked:
    """The subdivision check ``name`` over the stacks ``theta`` (B, n) and
    ``rho_s`` (B, W), padded as ``_check_stack`` takes it, of graphs with
    n vertices and m (B,) edges."""
    values: dict[str, np.ndarray] = {}
    detail = ""
    if name == "charpoly":
        # a wrong-order claimed subdivision still compares cleanly, against
        # zero padding
        label, tolerance = "subdivision-charpoly", CHARPOLY_TOL
        residuals = _charpoly_residuals(n, m, theta, rho_s)
    elif name == "correspondence":
        label, tolerance = "subdivision-correspondence", CORRESPONDENCE_TOL
        top = int(m.max())
        if rho_s.shape[1] != n + top:
            gap = float(abs(rho_s.shape[1] - (n + top)))
            residuals = {"order_mismatch": np.full(len(theta), gap)}
            detail = "claimed subdivision has the wrong number of vertices"
        else:
            residuals = {"eigenvalue_match": _correspondence_residual(n, m, theta, rho_s)}
    else:
        label, tolerance = "subdivision-energy", ENERGY_TOL
        values = {"energy": _row_energies(rho_s)}
        residuals = _energy_residuals(theta, values["energy"])
    return _Checked(
        np.arange(len(theta)),
        _passed(residuals, tolerance),
        residuals,
        lambda j: _report(label, tolerance, _row(residuals, j), _row(values, j), detail),
    )


# ---------------------------------------------------------------------------
# Rank-one product identity over the distinct eigenvalues
# ---------------------------------------------------------------------------


def verify_k_distinct_identity(
    g: Graph,
    roots: Sequence[float] | None = None,
    constant: float | None = None,
) -> VerificationReport:
    """Check prod_{i>=2} (R - rho_i I) == c a a^T on a connected graph.

    ``roots`` overrides the computed distinct eigenvalues rho_2..rho_k, so a
    deliberately wrong list demonstrates the check can fail.  ``constant``
    pins c instead of deriving it from the root list; pinning it to the
    graph's true value makes a single corrupted root reliably visible,
    whereas a rederived c shifts both sides together and can mask most of
    the damage.  The reported residuals include a minimality term that
    fails when the product is the zero matrix, i.e. when the root list is
    too long.  Only this negative control builds R(G) outside ``_verify``.
    """
    if not is_connected(g):
        raise PreconditionError("the rank-one identity needs a connected graph")
    if g.m == 0:
        raise PreconditionError("the rank-one identity needs at least one edge")
    if roots is None:
        return _verify(g, ("identity",))[0]["identity"]
    r = randic_matrix(g)
    given = np.array([[float(x) for x in roots]])
    degrees = (r != 0).sum(axis=1)[None]
    count = np.array([given.shape[1]])
    return _identity_checked(
        g.n, np.array([g.m]), r[None], degrees, given, count, constant
    ).report(0)


def _root_products(roots: np.ndarray) -> np.ndarray:
    """prod_j (1 - roots[b, j]) for each row b of a (B, j) array, one
    column at a time from the left, as math.prod multiplies a row."""
    c = np.ones(len(roots))
    for column in (1.0 - roots).T:
        c = c * column
    return c


def _identity_checked(
    n: int,
    m: np.ndarray,
    r: np.ndarray,
    degrees: np.ndarray,
    roots: np.ndarray,
    count: np.ndarray,
    constant: float | None = None,
) -> _Checked:
    """The rank-one identity over a stack ``r`` (B, n, n) of R(G) for graphs
    with n vertices, m[b] edges and the vertex degrees in the rows of
    ``degrees``: row b takes the first count[b] entries of row b of
    ``roots`` as rho_2..rho_k.  The rows sharing a count form one stack
    whose product runs as count stacked matmuls.  ``constant`` pins c for
    every row instead of deriving it from the roots."""
    tolerance = IDENTITY_TOL_SCALE * n * n
    b = len(r)
    identity, peak, c = np.empty(b), np.empty(b), np.empty(b)
    alpha = np.sqrt(degrees.astype(np.float64))
    counts = sorted(set(count.tolist()))
    if b == 1:
        # one graph: the stacked operations on its 2-D arrays, and c by
        # math.prod, which multiplies as ``_root_products`` does
        factors = roots[0, : counts[0]]
        eye = np.eye(n)
        product = eye
        for factor in r[0] - factors[:, None, None] * eye:
            product = np.matmul(product, factor)
        if constant is None:
            constant = math.prod([1.0 - x for x in factors.tolist()]) / (2.0 * m[0])
        c[0] = constant
        gap = product - constant * (alpha[0, :, None] * alpha[0, None, :])
        identity[0] = np.abs(gap).max()
        peak[0] = np.abs(product).max()
    else:
        for j in counts:
            # rows that all share a count are taken whole, as views
            rows = np.flatnonzero(count == j) if len(counts) > 1 else slice(None)
            factors = roots[rows, :j]
            product = product_over_root_rows(r[rows], factors)
            c[rows] = _root_products(factors) / (2.0 * m[rows]) if constant is None else constant
            target = c[rows, None, None] * (alpha[rows, :, None] * alpha[rows, None, :])
            identity[rows] = np.abs(product - target).max(axis=(1, 2))
            peak[rows] = np.abs(product).max(axis=(1, 2))
    # passed requires max|product| > tolerance, phrased as a residual so the
    # report invariant stays "all residuals below tolerance"
    short = 2.0 * tolerance - peak
    residuals = {"identity": identity, "minimality": np.where(short > 0.0, short, 0.0)}

    def report(j: int) -> VerificationReport:
        used = roots[j, : count[j]].tolist()
        return _report(
            "rank-one-identity",
            tolerance,
            _row(residuals, j),
            values={"constant": float(c[j]), "distinct_count": float(count[j] + 1)},
            detail=f"roots used: {', '.join(fmt(x) for x in used)}",
        )

    return _Checked(np.arange(b), _passed(residuals, tolerance), residuals, report)


# ---------------------------------------------------------------------------
# Classification by the number of distinct eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SrgParameters:
    """Parameters of a strongly regular graph: order, common degree, and
    the common-neighbor counts for adjacent and nonadjacent pairs."""

    order: int
    degree: int
    adjacent_common: int
    nonadjacent_common: int


def is_strongly_regular(g: Graph) -> SrgParameters | None:
    """Structural test, no spectra involved.

    Requires connected, regular, neither complete nor edgeless, and uniform
    common-neighbor counts over adjacent pairs and over nonadjacent pairs.
    The stacked test of a scan's classification on a stack of one.
    """
    if not g.is_regular():
        return None
    return _strongly_regular(g.adjacency[None] != 0)[0]


def _strongly_regular(a: np.ndarray) -> list[SrgParameters | None]:
    """``is_strongly_regular`` of each graph of a stack of regular graphs of
    one order n, given by its adjacency (B, n, n) as booleans.

    The common-neighbor counts are the integer entries of A^2, from one
    stacked matmul (exact in floats).  Uniform counts over the adjacent
    pairs and over the nonadjacent pairs need both kinds of pair, so they
    rule out the edgeless and the complete graphs; a nonadjacent count
    mu > 0 then puts every vertex within distance 2 of every other, and
    a regular, non-complete connected graph has a nonadjacent pair at
    distance 2, so mu > 0 is exactly connectivity.  A stack of one of
    order n <= ROW_PAIRS_MAX_ORDER goes to ``_strongly_regular_row``."""
    b, n = a.shape[:2]
    if b == 1 and n <= ROW_PAIRS_MAX_ORDER:
        return [_strongly_regular_row(a[0])]
    ones = a.astype(np.float64)
    common = np.matmul(ones, ones)
    nonadjacent = ~a
    nonadjacent[:, range(n), range(n)] = False
    kinds = (a, nonadjacent)
    lam, mu = (np.min(common, axis=(1, 2), where=w, initial=n) for w in kinds)
    lam_top, mu_top = (np.max(common, axis=(1, 2), where=w, initial=-1.0) for w in kinds)
    strong = (lam == lam_top) & (mu == mu_top) & (mu > 0)
    degree = a[:, 0].sum(axis=1)
    return [
        SrgParameters(n, int(degree[i]), int(lam[i]), int(mu[i])) if strong[i] else None
        for i in range(b)
    ]


def _neighbourhoods_of(a: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Each vertex's neighbours, ascending, and its neighbourhood as a
    bitset, from an adjacency (n, n) of booleans."""
    neighbours: list[list[int]] = [[] for _ in range(len(a))]
    for i, j in zip(*(ends.tolist() for ends in np.nonzero(a))):
        neighbours[i].append(j)
    return neighbours, [sum(1 << j for j in row) for row in neighbours]


def _strongly_regular_row(a: np.ndarray) -> SrgParameters | None:
    """``_strongly_regular`` of one graph's adjacency (n, n), symmetric
    with a zero diagonal, on neighbourhood bitsets: the common-neighbour
    count of a pair is the popcount of their intersection, the integer
    that A^2 holds exactly, and the pairs are taken once each."""
    n = len(a)
    neighbours, masks = _neighbourhoods_of(a)
    adjacent, nonadjacent = [], []
    for i in range(n):
        for j in range(i + 1, n):
            common = (masks[i] & masks[j]).bit_count()
            (adjacent if masks[i] >> j & 1 else nonadjacent).append(common)
    lam, lam_top = min(adjacent, default=n), max(adjacent, default=-1)
    mu, mu_top = min(nonadjacent, default=n), max(nonadjacent, default=-1)
    if lam == lam_top and mu == mu_top and mu > 0:
        return SrgParameters(n, len(neighbours[0]), lam, mu)
    return None


@dataclass(frozen=True)
class Classification:
    """Spectral head-count of a connected graph set against its structure."""

    distinct_count: int
    is_complete: bool
    is_regular: bool
    srg: SrgParameters | None
    consistent: bool
    detail: str


def classify_distinct_count(g: Graph) -> Classification:
    """Count distinct R-eigenvalues and test the structural equivalences:
    two distinct values exactly for complete graphs, and, among regular
    graphs, three distinct values exactly for strongly regular ones."""
    if not is_connected(g):
        raise PreconditionError("classification needs a connected graph")
    if g.n < 2:
        raise PreconditionError("classification needs at least two vertices")
    return _verify(g, ("classification",))[0]["classification"]


def _classification_checked(
    n: int, m: np.ndarray, a: np.ndarray, degrees: np.ndarray, k: np.ndarray
) -> _Checked:
    """The classification over a stack of connected graphs of one order
    n >= 2, from their sizes m (B,), adjacency a (B, n, n) as booleans,
    vertex degrees (B, n) and distinct-value counts k (B,): completeness is
    read from the size, regularity from the degrees, and only regular
    graphs are tested for strong regularity.  A row's residual
    ``consistent`` is 0.0 if consistent and 1.0 if not."""
    complete = m == n * (n - 1) // 2
    regular = degrees.min(axis=1) == degrees.max(axis=1)
    even = np.flatnonzero(regular)
    srg = dict(zip(even.tolist(), _strongly_regular(a[even]))) if even.size else {}
    strongly = np.zeros(len(m), dtype=bool)
    strongly[[i for i, params in srg.items() if params is not None]] = True
    consistent = ((k == 2) == complete) & ((regular & (k == 3)) == strongly)
    residuals = {"consistent": np.where(consistent, 0.0, 1.0)}

    def report(j: int) -> Classification:
        count, whole, params = int(k[j]), bool(complete[j]), srg.get(j)
        parts = [f"k={count}", f"complete={whole}", f"regular={bool(regular[j])}"]
        if params is not None:
            parts.append(
                f"srg=({params.order},{params.degree},"
                f"{params.adjacent_common},{params.nonadjacent_common})"
            )
        return Classification(
            distinct_count=count,
            is_complete=whole,
            is_regular=bool(regular[j]),
            srg=params,
            consistent=bool(consistent[j]),
            detail=" ".join(parts),
        )

    return _Checked(np.arange(len(m)), consistent, residuals, report)


# ---------------------------------------------------------------------------
# Local (entrywise) conditions for exactly three distinct eigenvalues
# ---------------------------------------------------------------------------


def local_condition_residuals(g: Graph) -> dict[str, float]:
    """Residuals of the entrywise conditions on a connected graph with
    exactly three distinct R-eigenvalues 1 > rho_2 > rho_3.

    With c the rank-one constant, the diagonal of the expanded product
    forces, at every vertex i,

        sum_{j ~ i} 1/d_j  ==  c d_i^2 - rho_2 rho_3 d_i

    and the off-diagonal entries force, over common neighbors k of i, j,

        sum 1/d_k  ==  c d_i d_j + rho_2 + rho_3   (i, j adjacent)
        sum 1/d_k  ==  c d_i d_j                   (i, j nonadjacent).

    The plain common-neighbor counts satisfy the same right-hand sides only
    in special cases, so their residuals are reported separately under the
    ``count_*`` keys; they are informational, not part of any verdict.
    """
    report = verify_local_conditions(g)
    return {**report.residuals, **report.values}


def _degree_weighted_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_d counts[..., d] / values[d] over the last axis of an integer
    array, as ``math.fsum`` of counts[..., d] copies of 1.0 / values[d]:
    the sum, over a vertex set with counts[..., d] members of degree
    values[d], of 1 / its degree, with the bits of ``math.fsum`` over the
    members in any order, fsum being correctly rounded.  Each distinct
    count vector is summed once."""
    weights = [1.0 / d for d in values.tolist()]
    rows = list(map(tuple, counts.reshape(-1, len(weights)).tolist()))
    sums = {
        row: math.fsum(chain.from_iterable(map(repeat, weights, row)))
        for row in dict.fromkeys(rows)
    }
    return np.array([sums[row] for row in rows], dtype=np.float64).reshape(counts.shape[:-1])


def _local_residuals(
    n: int,
    m: np.ndarray,
    a: np.ndarray,
    degrees: np.ndarray,
    rho2: np.ndarray,
    rho3: np.ndarray,
) -> dict[str, np.ndarray]:
    """``local_condition_residuals``, one entry per row, on a stack of
    connected graphs of order n, with m (B,) edges, adjacency a (B, n, n)
    as booleans and vertex degrees (B, n), whose distinct R-eigenvalues are
    1 > rho2 > rho3, (B,) each.

    Every sum of 1 / d_k over a neighbourhood or a common neighbourhood is
    read off its count of members per degree: neighbours from A times the
    one-hot degree matrix H, common neighbours of i and j per degree value
    d from A diag(H_d) A; both count exactly in floats.  A stack of one of
    order n <= ROW_PAIRS_MAX_ORDER goes to ``_local_row_residuals``."""
    if len(a) == 1 and n <= ROW_PAIRS_MAX_ORDER:
        found = _local_row_residuals(
            int(m[0]), a[0], degrees[0].tolist(), float(rho2[0]), float(rho3[0])
        )
        return {key: np.array([found[key]]) for key in _LOCAL_KEYS}
    c = (1.0 - rho2) * (1.0 - rho3) / (2.0 * m)
    # the distinct degrees, ascending; the first np.unique call of a
    # process costs over a megabyte of resident memory
    values = np.flatnonzero(np.bincount(degrees.ravel()))
    ones = a.astype(np.float64)
    onehot = (degrees[:, :, None] == values).astype(np.float64)  # (B, n, D)
    i, j = _pair_ends(n)
    neighbours = np.matmul(ones, onehot).astype(np.intp)
    common = np.empty((len(a), len(i), len(values)), dtype=np.intp)
    for d in range(len(values)):
        common[:, :, d] = np.matmul(ones * onehot[:, None, :, d], ones)[:, i, j]
    lhs = _degree_weighted_sums(neighbours, values)
    weighted = _degree_weighted_sums(common, values)
    count = common.sum(axis=2).astype(np.float64)
    c, rho2, rho3 = c[:, None], rho2[:, None], rho3[:, None]
    rhs = c * degrees**2 - rho2 * rho3 * degrees
    product = c * degrees[:, i] * degrees[:, j]
    adjacent = a[:, i, j]
    # every gap is >= +0.0, so a 0.0 in place of the pairs of the other
    # kind leaves each maximum as it is
    worst = {"degree_sums": np.max(np.abs(lhs - rhs), axis=1, initial=0.0)}
    for key, target, where in (
        ("adjacent", product + rho2 + rho3, adjacent),
        ("nonadjacent", product, ~adjacent),
    ):
        for label, got in ((f"{key}_weighted", weighted), (f"count_{key}", count)):
            gap = np.where(where, np.abs(got - target), 0.0)
            worst[label] = np.max(gap, axis=1, initial=0.0)
    return {key: worst[key] for key in _LOCAL_KEYS}


def _local_row_residuals(
    m: int, a: np.ndarray, degrees: list[int], rho2: float, rho3: float
) -> dict[str, float]:
    """``_local_residuals`` of one graph, with adjacency a (n, n) as
    booleans, on Python floats.  A sum of 1 / d_k over a vertex set is
    ``math.fsum`` over its members, correctly rounded as the stacked sum
    over the members' degree counts is; every target and gap is formed by
    the stacked form's operations, in its order."""
    neighbours, masks = _neighbourhoods_of(a)
    w = [1.0 / d for d in degrees]
    c = (1.0 - rho2) * (1.0 - rho3) / (2.0 * m)
    degree_sums = [
        abs(math.fsum([w[k] for k in row]) - (c * (d * d) - rho2 * rho3 * d))
        for row, d in zip(neighbours, degrees)
    ]
    gaps: dict[str, list[float]] = {key: [0.0] for key in _LOCAL_KEYS[1:]}
    n = len(degrees)
    for i in range(n):
        below, ci = neighbours[i], c * degrees[i]
        for j in range(i + 1, n):
            common = masks[i] & masks[j]
            weighted = math.fsum([w[k] for k in below if common >> k & 1]) if common else 0.0
            count = float(common.bit_count())
            product = ci * degrees[j]
            if masks[i] >> j & 1:
                target = product + rho2 + rho3
                gaps["adjacent_weighted"].append(abs(weighted - target))
                gaps["count_adjacent"].append(abs(count - target))
            else:
                gaps["nonadjacent_weighted"].append(abs(weighted - product))
                gaps["count_nonadjacent"].append(abs(count - product))
    return {"degree_sums": _max_gap([0.0] + degree_sums)} | {
        key: _max_gap(values) for key, values in gaps.items()
    }


_LOCAL_VERDICT_KEYS = ("degree_sums", "adjacent_weighted", "nonadjacent_weighted")
_LOCAL_KEYS = _LOCAL_VERDICT_KEYS + ("count_adjacent", "count_nonadjacent")


def _local_report(res: dict[str, float]) -> VerificationReport:
    """Report over one row of the residuals of ``_local_residuals``."""
    verdict = {key: res[key] for key in _LOCAL_VERDICT_KEYS}
    info = {
        "count_adjacent": res["count_adjacent"],
        "count_nonadjacent": res["count_nonadjacent"],
    }
    return _report(
        "three-eigenvalue-local",
        LOCAL_TOL,
        verdict,
        values=info,
        detail=(
            "plain common-neighbor counts deviate by "
            f"{max(info.values()):.3g} at worst (informational)"
        ),
    )


def verify_local_conditions(g: Graph) -> VerificationReport:
    """Report form of the three-eigenvalue local conditions.

    The verdict covers the degree-sum condition and the two weighted
    common-neighborhood conditions.  The raw-count variants are surfaced in
    ``values`` and ``detail`` only, since they fail on ordinary graphs.
    k is read from the clustering that decides whether the conditions
    apply."""
    if not is_connected(g):
        raise PreconditionError("local conditions need a connected graph")
    reports, k = _verify(g, ("local",))
    if "local" not in reports:
        raise PreconditionError(
            f"local conditions need exactly three distinct eigenvalues, got {k}"
        )
    return reports["local"]


def _local_checked(
    n: int,
    m: np.ndarray,
    a: np.ndarray,
    degrees: np.ndarray,
    k: np.ndarray,
    distinct: np.ndarray,
) -> _Checked:
    """The local conditions over the rows of a stack with exactly three
    distinct eigenvalues, 1 > rho_2 > rho_3 in the first three slots of
    their rows of ``distinct``, taken as one stack."""
    rows = np.flatnonzero(k == 3)
    if rows.size:
        found = _local_residuals(
            n, m[rows], a[rows], degrees[rows], distinct[rows, 1], distinct[rows, 2]
        )
    else:
        found = {key: np.empty(0) for key in _LOCAL_KEYS}
    residuals = {key: found[key] for key in _LOCAL_VERDICT_KEYS}
    return _Checked(
        rows,
        _passed(residuals, LOCAL_TOL),
        residuals,
        lambda j: _local_report(_row(found, j)),
    )


# ---------------------------------------------------------------------------
# Every applicable check on a stack of graphs, each matrix solved once
# ---------------------------------------------------------------------------


SUBDIVISION_CHECKS = ("charpoly", "correspondence", "energy")
SCAN_CHECKS = SUBDIVISION_CHECKS + ("identity", "classification", "local")


def _check_stack(
    n: int,
    m: np.ndarray,
    checks: Sequence[str],
    r: np.ndarray,
    rho: np.ndarray,
    rho_s: np.ndarray | None,
) -> tuple[dict[str, _Checked], np.ndarray | None]:
    """Each requested check, keyed in the order of ``checks``, over a stack
    of connected graphs of one order n, from their matrices and solved
    spectra: row i of ``m`` (B,) is the edge count of G_i, row i of ``r``
    (B, n, n) is R(G_i), row i of ``rho`` (B, n) its spectrum, and row i of
    ``rho_s`` (B, W) that of R(S(G_i)), descending, which is None when no
    subdivision check is requested.  The rows may differ in m: W is then
    n + max(m), and the row of a graph with m_i edges holds its n + m_i
    values with W - (n + m_i) zeros more among its zeros in the middle, as
    ``_bipartite_eigenvalues`` lays out a spectrum of width W.  Every
    residual keeps the bits the row gets in a stack of its own width.  A
    stack of one takes any width, the order of a claimed subdivision.
    Returns the checks and k, each row's number of distinct eigenvalues,
    or None when no requested check reads it.

    The subdivision checks read the spectrum of I + R(G) as theta = 1 + rho,
    near-zeros clamped.  This is where k is decided: the rows of rho are
    clustered at once, at CLUSTER_TOL, and the identity, the classification
    and the local conditions all read those distinct values.  Every check's
    arithmetic runs on the whole stack; the local conditions apply only to
    the rows with exactly three distinct values.  The structural tests
    read the adjacency A = (r != 0), as booleans."""
    if rho_s is not None:
        theta = _clamp_small(1.0 + rho)
    k = None
    if {"identity", "classification", "local"}.intersection(checks):
        k, distinct, _ = cluster_rows(rho)
        a = r != 0
        degrees = a.sum(axis=2)
    checked: dict[str, _Checked] = {}
    for name in checks:
        if name in SUBDIVISION_CHECKS:
            checked[name] = _subdivision_checked(name, n, m, theta, rho_s)
        elif name == "identity":
            tolerance = IDENTITY_TOL_SCALE * n * n
            off = np.flatnonzero(np.abs(distinct[:, 0] - 1.0) > tolerance)
            if off.size:
                raise ConvergenceError(
                    f"largest eigenvalue {float(distinct[off[0], 0])!r} is not 1 within tolerance"
                )
            checked[name] = _identity_checked(n, m, r, degrees, distinct[:, 1:], k - 1)
        elif name == "classification":
            checked[name] = _classification_checked(n, m, a, degrees, k)
        elif name == "local":
            checked[name] = _local_checked(n, m, a, degrees, k, distinct)
        else:
            raise ValueError(f"unknown check {name!r}")
    return checked, k


def verify_all(g: Graph) -> dict[str, VerificationReport | Classification]:
    """Run every check that applies to ``g``, keyed by check name in the
    order of SCAN_CHECKS: the three subdivision checks, the rank-one
    identity, the classification, and the local conditions when R has
    exactly three distinct eigenvalues.

    The results equal those of the single-check functions, and those of a
    scan bit for bit.  ``g`` must have every degree positive, tested first,
    and be connected.
    """
    _require_positive(g.degrees)
    if not is_connected(g):
        raise PreconditionError("the rank-one identity needs a connected graph")
    return _verify(g, SCAN_CHECKS)[0]


def _verify(
    g: Graph, checks: Sequence[str], subdivided: Graph | None = None
) -> tuple[dict[str, VerificationReport | Classification], int | None]:
    """The report of each check of ``checks`` that applies to ``g``, in
    check order, from R(G) solved once and, only for a subdivision check,
    R(S(G)), solved once on the block ``_subdivision_block`` builds from g,
    or R of the claimed ``subdivided`` graph, solved once by
    ``randic_eigenvalues``: ``_check_stack`` on the stack of one decides k
    and which checks apply.  R(G) is solved as ``randic_eigenvalues``
    solves it, a bipartite g on its block by ``singular_values`` and any
    other g two-sided, and built once, for the checks.  Returns the reports
    and k, or None when no requested check reads k.  Preconditions are the
    caller's."""
    block = _biadjacency(g)
    r = randic_matrix(g)
    if block is None:
        rho = symmetric_eigenvalues(r)
    else:
        rho = _bipartite_eigenvalues(singular_values(block), g.n)
    rho_s = None
    if any(name in SUBDIVISION_CHECKS for name in checks):
        if subdivided is None:
            sigma = singular_values(_subdivision_block(g))
            rho_s = _bipartite_eigenvalues(sigma, g.n + g.m)[None]
        else:
            rho_s = randic_eigenvalues(subdivided)[None]
    checked, k = _check_stack(g.n, np.array([g.m]), checks, r[None], rho[None], rho_s)
    reports = {name: c.report(0) for name, c in checked.items() if c.rows.size}
    return reports, None if k is None else int(k[0])


# ---------------------------------------------------------------------------
# Exhaustive scan over all connected graphs of one order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    graph6: str
    check: str
    residuals: dict[str, float]


@dataclass(frozen=True)
class ScanSummary:
    order: int
    checks: tuple[str, ...]
    graph_count: int
    counterexamples: tuple[Counterexample, ...]
    worst_residuals: dict[str, float]
    lowest_energy: tuple[str, float] | None = None
    highest_energy: tuple[str, float] | None = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _scan_one(
    g: Graph, checks: Sequence[str], rho: np.ndarray, rho_s: np.ndarray | None
) -> tuple[list[tuple[str, bool, dict[str, float]]], float]:
    """(name, passed, residuals) of each requested check on one graph, as a
    scan folds them, and the graph's direct R-energy, with R(G) built here:
    ``rho`` of R(G), and ``rho_s`` of R(S(G)), which is None when no
    subdivision check is requested."""
    r = randic_matrix(g)
    checked, _ = _check_stack(
        g.n, np.array([g.m]), checks, r[None], rho[None], None if rho_s is None else rho_s[None]
    )
    outcomes = [
        (name, bool(c.passed[0]), _row(c.residuals, 0))
        for name, c in checked.items()
        if c.rows.size
    ]
    return outcomes, energy_of(rho)


def _chunk_matrices(
    order: int, masks: np.ndarray, subdivided: bool
) -> tuple[
    np.ndarray,
    list[tuple[np.ndarray, np.ndarray]],
    list[tuple[slice, np.ndarray | None]],
]:
    """R(G) of a chunk of connected graphs of one order, the blocks of the
    bipartite ones, and the blocks B of their subdivisions, built as stacks
    straight from the bits of their edge masks (int64, over
    ``graphs.vertex_pairs(order)``); the chunk must be ordered by edge count.

    Returns R(G) as one (B, n, n) stack; one per row count k, ascending,
    the chunk indices of the bipartite graphs whose block of R(G) has k
    rows, with their (B_k, k, n - k) stack of blocks; and, one per edge
    count m, the slice of the chunk that holds its graphs with, when
    ``subdivided``, their stack of blocks B of R(S(G)), else None.  The rows
    of a block of R(G) are those ``graphs._row_sides`` picks, the rule of
    ``spectra._biadjacency``, and its rows and columns are each in vertex
    order; entry (u, v) is the product w_u * w_v of R(G)'s edge (u, v).
    S(G) is bipartite, its
    vertices on one side and its edge vertices on the other, so R(S) is
    [[0, B], [B^T, 0]] with B of shape (n, m): row i is vertex i, column k
    the vertex on edge k in sorted edge order, numbered n + k by
    ``subdivision``.  When m < n (trees) the stack holds B^T, of shape
    (m, n), the orientation ``spectra._biadjacency`` picks for S(G).
    Every entry of R(G) is ``randic_matrix``'s (w_i * a_ij) * w_j with
    w = 1 / sqrt(degree), which on an edge is w_i * w_j and elsewhere +0.0,
    and every nonzero of B is w_i * (1 / sqrt(2)), so each matrix has the
    bits of its own build: R(G) those of ``randic_matrix(g)``, its block
    those of ``_biadjacency(g)`` and B those of ``_biadjacency(subdivision(g))``.
    """
    b, n = len(masks), order
    bits = _mask_bits(n, masks)
    sizes = bits.sum(axis=1)
    # row-major, so each graph's edges in sorted order, graph after graph
    owner, pair = np.nonzero(bits)
    low, high = (end[pair] for end in _pair_ends(n))
    u, v = owner * n + low, owner * n + high
    degrees = np.bincount(u, minlength=b * n) + np.bincount(v, minlength=b * n)
    w = 1.0 / np.sqrt(degrees.astype(np.float64))
    wu, wv = w[u], w[v]
    r = np.zeros((b, n, n))
    flat = r.reshape(b * n, n)
    # w_i * w_j == w_j * w_i exactly, so one product serves both triangles
    products = wu * wv
    flat[u, high] = flat[v, low] = products
    sides = _row_sides(_adjacency_bitsets(n, bits))
    blocks = _graph_blocks(n, sides, owner, low, high, products)
    # sorted by edge count, each group's graphs, and their edges, are one
    # slice of the chunk
    bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), b]
    first_edge = np.cumsum(sizes) - sizes
    half = 1.0 / np.sqrt(np.float64(2.0))
    groups: list[tuple[slice, np.ndarray | None]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if not subdivided:
            groups.append((slice(lo, hi), None))
            continue
        m = int(sizes[lo])
        edges = slice(first_edge[lo], first_edge[lo] + (hi - lo) * m)
        graph = np.repeat(np.arange(hi - lo), m)
        edge = np.tile(np.arange(m), hi - lo)
        block = np.zeros((hi - lo, m, n) if m < n else (hi - lo, n, m))
        for end, w_end in ((low[edges], wu[edges]), (high[edges], wv[edges])):
            block[(graph, edge, end) if m < n else (graph, end, edge)] = w_end * half
        groups.append((slice(lo, hi), block))
    return r, blocks, groups


def _graph_blocks(
    n: int,
    sides: np.ndarray,
    owner: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    products: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_chunk_matrices``' blocks of R(G), one stack per row count k, for
    graphs on n vertices whose edges, graph after graph, join ``low`` to
    ``high`` in graph ``owner`` with the entry ``products``, and whose
    block rows are the vertices of their bitset of ``sides``
    (``graphs._row_sides``, 0 for a graph with an odd cycle).

    A vertex's index among its block's rows, or among its columns, is the
    number of rows, or of columns, below it, as ``spectra._biadjacency``
    numbers them."""
    is_row = (sides[:, None] >> np.arange(n)) & 1
    below = np.cumsum(is_row, axis=1) - is_row
    position = np.where(is_row == 1, below, np.arange(n) - below)
    k = is_row.sum(axis=1)  # 0 for a graph with an odd cycle
    low_is_row = is_row[owner, low] == 1
    row_end = np.where(low_is_row, low, high)
    column_end = np.where(low_is_row, high, low)
    local = np.empty(len(sides), dtype=np.intp)
    blocks = []
    # the row counts present, ascending, without np.unique (see
    # _local_residuals)
    for size in (np.flatnonzero(np.bincount(k)[1:]) + 1).tolist():
        in_group = k == size
        members = np.flatnonzero(in_group)
        local[members] = np.arange(len(members))
        edges = np.flatnonzero(in_group[owner])
        graph = owner[edges]
        block = np.zeros((len(members), size, n - size))
        block[
            local[graph], position[graph, row_end[edges]], position[graph, column_end[edges]]
        ] = products[edges]
        blocks.append((members, block))
    return blocks


def _scan_spectra(
    order: int, masks: np.ndarray, subdivided: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Matrices and spectra of a chunk of connected graphs of one order,
    given by their edge masks, with the graphs sorted by edge count.

    The chunk's matrices are built as stacks by ``_chunk_matrices``.  The
    blocks of the bipartite R(G) are solved by ``singular_values``, one
    stack per row count, and laid out by ``_bipartite_eigenvalues``; the
    other R(G) are solved as one stack by the two-sided
    ``symmetric_eigenvalues``: the bits of ``randic_eigenvalues(g)``.  Each
    edge-count group's blocks B of R(S) form one stack of equal shape,
    solved, when ``subdivided``, by ``singular_values`` in one call of the
    one-sided kernel, the kernel that solves a single B as a stack of one;
    a block keeps its bits only among blocks of its own shape.  Every R(S)
    spectrum is laid out from sigma(B) by ``_bipartite_eigenvalues`` into
    one array of width n + max(m), the padding ``_check_stack`` takes: a
    row holds the bits of ``randic_eigenvalues(subdivision(g))`` with more
    zeros in the middle.  Returns (the sorted order as indices into
    ``masks``, each sorted graph's edge count, the stack of R(G), its stack
    of R-spectra, and the stack of R(S)-spectra or None), one row per
    graph: the rows the checks read.
    """
    m = _popcount(masks)
    perm = np.argsort(m, kind="stable")
    m = m[perm].astype(np.intp)
    r, blocks, groups = _chunk_matrices(order, masks[perm], subdivided)
    rho = np.empty(r.shape[:2])
    two_sided = np.ones(len(r), dtype=bool)
    for rows, block in blocks:
        rho[rows] = _bipartite_eigenvalues(singular_values(block), order)
        two_sided[rows] = False
    if two_sided.any():
        rho[two_sided] = symmetric_eigenvalues(r[two_sided])
    if not subdivided:
        return perm, m, r, rho, None
    width = order + int(m[-1])
    rho_s = np.empty((len(r), width))
    for rows, block in groups:
        rho_s[rows] = _bipartite_eigenvalues(singular_values(block), width)
    return perm, m, r, rho, rho_s


def _merge(
    order: int, checks: tuple[str, ...], parts: Iterable[ScanSummary]
) -> ScanSummary:
    """Fold the summaries of consecutive mask ranges, taken in mask order,
    into one: graph counts add, counterexamples keep mask order, each worst
    residual is the largest seen (a worst of exactly 0 is kept), and the
    lowest and highest energy go to the first graph in mask order on ties."""
    count = 0
    counterexamples: list[Counterexample] = []
    worst: dict[str, float] = {}
    low = high = None
    for part in parts:
        count += part.graph_count
        counterexamples.extend(part.counterexamples)
        for key, value in part.worst_residuals.items():
            if key not in worst or value > worst[key]:
                worst[key] = value
        if part.lowest_energy is not None and (low is None or part.lowest_energy[1] < low[1]):
            low = part.lowest_energy
        if part.highest_energy is not None and (high is None or part.highest_energy[1] > high[1]):
            high = part.highest_energy
    return ScanSummary(
        order=order,
        checks=checks,
        graph_count=count,
        counterexamples=tuple(counterexamples),
        worst_residuals={k: worst[k] for k in sorted(worst)},
        lowest_energy=low,
        highest_energy=high,
    )


def _scan_range(
    order: int, start: int, stop: int, checks: tuple[str, ...], rank_energy: bool
) -> ScanSummary:
    """Scan the masks in [start, stop): graphs are taken in mask order, in
    chunks of SCAN_CHUNK masks; each chunk's matrices are built and solved
    as whole stacks, and every check runs in one ``_check_stack`` pass over
    the chunk, its R(S) spectra padded to the chunk's widest.  Each check's
    arrays are folded, by ``_merge``'s rules, into one tally for the range:
    the worst value per key is the largest of its array; the failing rows
    become counterexamples, in mask order and then check order, each with
    its residual dict; and the energy extremes go to the first graph in
    mask order on ties.  No report is built, and a graph is built, and its
    graph6 encoded, only when it fails a check or, at the end, holds an
    energy extreme."""
    subdivided = any(c in SUBDIVISION_CHECKS for c in checks)
    position = {name: i for i, name in enumerate(checks)}
    masks = _connected_masks(order, start, stop)
    count = 0
    counterexamples: list[Counterexample] = []
    worst: dict[str, float] = {}
    low = high = None  # (mask, energy), when rank_energy
    while (chunk := np.fromiter(islice(masks, SCAN_CHUNK), dtype=np.int64)).size:
        perm, m, r, rho, rho_s = _scan_spectra(order, chunk, subdivided)
        checked, _ = _check_stack(order, m, checks, r, rho, rho_s)
        failed: list[tuple[int, int, str, dict[str, float]]] = []
        for name, outcome in checked.items():
            if not outcome.rows.size:
                continue
            for key, values in outcome.residuals.items():
                key, value = f"{name}.{key}", float(np.max(values))
                if key not in worst or value > worst[key]:
                    worst[key] = value
            for j in np.flatnonzero(~outcome.passed).tolist():
                row = int(perm[outcome.rows[j]])
                failed.append((row, position[name], name, _row(outcome.residuals, j)))
        count += len(chunk)
        codes: dict[int, str] = {}
        for i, _, name, residuals in sorted(failed, key=lambda f: f[:2]):
            if i not in codes:
                codes[i] = _graph6(order, int(chunk[i]))
            counterexamples.append(Counterexample(codes[i], name, residuals))
        if rank_energy:
            energies = np.empty(len(chunk))
            energies[perm] = _row_energies(rho)
            i, j = int(np.argmin(energies)), int(np.argmax(energies))
            if low is None or energies[i] < low[1]:
                low = (int(chunk[i]), float(energies[i]))
            if high is None or energies[j] > high[1]:
                high = (int(chunk[j]), float(energies[j]))
    return ScanSummary(
        order=order,
        checks=checks,
        graph_count=count,
        counterexamples=tuple(counterexamples),
        worst_residuals={k: worst[k] for k in sorted(worst)},
        lowest_energy=None if low is None else (_graph6(order, low[0]), low[1]),
        highest_energy=None if high is None else (_graph6(order, high[0]), high[1]),
    )


def _graph6(order: int, mask: int) -> str:
    """graph6 of the graph of an edge mask: the one place a scan builds a
    Graph."""
    return encode_graph6(Graph(order, _mask_edges(order, mask)))


def scan_small_graphs(
    order: int,
    checks: Sequence[str] = SCAN_CHECKS,
    jobs: int = 1,
    rank_energy: bool = False,
) -> ScanSummary:
    """Run the chosen checks over every labeled connected graph of the
    given order (2..7) and aggregate the outcome.

    The enumeration walks edge-subset masks in increasing order, so results
    are deterministic.  ``jobs`` is capped at the CPU count; with more than
    one job the mask range is split into contiguous chunks whose summaries
    ``_merge`` folds in range order, keeping the output identical to a
    serial run.  ``rank_energy`` additionally records the graphs of smallest
    and largest R-energy (first such graph in mask order on ties).
    """
    checks = tuple(checks)
    if not checks:
        # a scan without checks would report every graph as passing
        raise ValueError("no scan checks given")
    if "" in checks:
        raise ValueError("empty scan check name")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise ValueError(f"repeated scan checks: {', '.join(repeated)}")
    unknown = [c for c in checks if c not in SCAN_CHECKS]
    if unknown:
        raise ValueError(f"unknown scan checks: {', '.join(unknown)}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not 2 <= order <= 7:
        raise ValueError(f"scan supports orders 2..7, got {order}")
    # more workers than CPUs only adds processes
    jobs = min(jobs, os.cpu_count() or 1)
    total = edge_mask_count(order)
    if jobs == 1:
        return _scan_range(order, 0, total, checks, rank_energy)
    bounds = [total * i // jobs for i in range(jobs + 1)]
    spans = [
        (order, bounds[i], bounds[i + 1], checks, rank_energy)
        for i in range(jobs)
        if bounds[i] < bounds[i + 1]
    ]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        return _merge(order, checks, pool.map(_scan_range_star, spans))


def _scan_range_star(args: tuple) -> ScanSummary:
    return _scan_range(*args)


__all__ = [
    "VerificationReport",
    "SrgParameters",
    "Classification",
    "Counterexample",
    "ScanSummary",
    "SCAN_CHECKS",
    "CHARPOLY_TOL",
    "CORRESPONDENCE_TOL",
    "ENERGY_TOL",
    "IDENTITY_TOL_SCALE",
    "LOCAL_TOL",
    "ZERO_EIGENVALUE_SLACK",
    "verify_subdivision_charpoly",
    "verify_eigenvalue_correspondence",
    "verify_subdivision_energy",
    "verify_k_distinct_identity",
    "verify_local_conditions",
    "verify_all",
    "local_condition_residuals",
    "classify_distinct_count",
    "is_strongly_regular",
    "scan_small_graphs",
]
