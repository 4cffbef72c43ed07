"""Dense symmetric eigensolver, one-sided Jacobi SVD, and small polynomial
utilities.

The eigensolver is a cyclic Jacobi iteration: full matrix storage, plane
rotations, convergence declared when the off-diagonal Frobenius mass drops
below ``1e-12 * max(1, ||M||_F)``.  The order in which a sweep visits the
pairs is chosen by the matrix order n:

* row-major pair order below ``ROUND_ROBIN_MIN_ORDER``, in two forms: a
  single matrix on a Python list (``_jacobi_list``; at these orders a
  rotation's interpreted arithmetic costs less than the dozen numpy calls it
  otherwise takes), and a stack of two or more equal-order matrices in
  lockstep (``_jacobi_stack``; a stack of one goes to ``_jacobi_list``).
  The lockstep form works on a matrix-last (n, n, B) copy, where entry
  (p, q) of every matrix is one contiguous row, and writes each pair's
  rotation back with ``np.copyto(..., where=...)`` into the matrices that
  rotate, gathering and scattering none of them.  Both forms apply the
  rotations of the row-major scalar loop with its arithmetic, so they leave
  a matrix with the same bits;
* the round-robin order of Brent and Luk (SIAM J. Sci. Stat. Comput. 6(1),
  1985) from that order up, one matrix at a time.  Its rounds of disjoint
  pairs are applied one round per set of numpy calls, where row-major order
  needs one set per rotation.

Both orderings share the skip rule, the target and the sweep cap, and a
matrix gets the same bits alone or in a stack.  Failure to converge within
the sweep cap raises ConvergenceError, naming the ordering, rather than
returning junk.

``singular_values`` is the one-sided (Hestenes) form, for one k x w block
with k <= w or an equal-shape stack of them: it rotates pairs of rows, in
the same round-robin rounds, until the rows are orthogonal, and returns
their norms.  One kernel, ``_jacobi_one_sided``, solves every input as a
(B, k, w) stack, a single block as a stack of one, and a block gets the
same bits in any stack.  A bipartite graph's R = [[0, B], [B^T, 0]] has
eigenvalues +-sigma(B) and zeros, so the block B is solved alone: a sweep
visits k(k - 1)/2 row pairs of length w instead of the (k + w)(k + w - 1)/2
pairs of R, most of which are zero by construction.
``spectra.randic_eigenvalues`` (under ``randic_energy``, ``randic_spectrum``,
``verify``'s subdivisions and the ``energy`` and ``spectrum`` commands) does
this for one graph, as ``verify`` does for a bipartite R(G), and the scans
for every bipartite R(G), one stack per row count, and every subdivision,
one stack per edge count.  Both round-robin kernels take each round's
rotations from ``_rotation`` and rotate a pair's rows to c x_p - s x_q and
c x_q + s x_p.  A one-sided round gathers its rows (p; q; p; p; q; q) with
one ``take``, takes alpha, beta and gamma from one ``einsum`` of the two
halves, and writes both rows of every pair with one fancy assignment of
c (x_p; x_q) + (-s; s) (x_q; x_p), which has the bits of the two
differences, a - b being a + (-b) exactly.  A round in which only some
pairs rotate computes every pair's rotation and gives the pairs that do
not rotate their gathered rows back (``np.copyto`` with ``where``) instead
of selecting the pairs that do.  A round in which exactly one pair of the
whole stack rotates, as nearly every round of S(star n) after its first
does, rotates that pair on numpy float64 scalars by the same
``_rotation``: numpy's scalar arithmetic rounds as its array loops do, so
no bit moves.  A single block takes the gather and pair indices from
``_one_sided_rounds``, cached read-only per k beside
``_round_robin_schedule``, and a stack adds each block's row offset to
them once per call.  The kernel stops after a sweep that rotates
nothing, and it skips idle rounds by a look-ahead: one Gram ``einsum`` of
the stack, whose entries have the bits of the rounds' own products, decides
every round of a sweep at once while no row changes.  After a sweep in
which some round rotated nothing, it checks the whole next sweep: the final
idle sweep then costs that one call instead of a round of numpy calls per
round, and a sweep that would still rotate starts at its first rotating
round.  A single block, as ``spectra.randic_eigenvalues`` solves, also looks
ahead after every idle round inside a sweep and goes on at the next round
that rotates; a stack, whose rounds idle only when all its blocks' do,
does not.

The helpers the checks read work on stacks too, one row or matrix per
graph, with the bits of their one-matrix forms: ``cluster_rows`` clusters
descending spectra (``cluster_distinct`` is its one-row form) and
``product_over_root_rows`` forms prod (M - r_i I) per matrix
(``product_over_roots`` is the per-matrix loop it matches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import ConvergenceError

DEFAULT_MAX_SWEEPS = 100
CONVERGENCE_RTOL = 1e-12
CLUSTER_TOL = 1e-7
EPS = np.finfo(np.float64).eps
# the signs of s in a one-sided rotation, for row p and for row q
_SIGNS = np.array([-1.0, 1.0])[:, None, None]
_SIGNS.setflags(write=False)
# the matrix order from which round-robin order is used, set from per-order
# timings of both orderings (CHANGES.md): below 32 row-major order was about
# as fast, and a lower bound would change eigenvalue bits or leave the
# lockstep stacks of scans
ROUND_ROBIN_MIN_ORDER = 32
# On a stack of one, which is how ``verify`` checks a graph, the charpoly
# expansion and residuals work on Python floats for rows of at most
# ROW_LIST_MAX_LENGTH values (roots, or a spectrum of R(S)), and the
# clustering always does: per verify-cli pass of about 220 ms, the charpoly
# forms save about 7 ms and the clustering about 1.3 ms (CHANGES.md).  The
# other checks take their stacked form on any stack, as their Python-float
# forms saved under 1 % in all.
ROW_LIST_MAX_LENGTH = 40


def _off_norms(stack: np.ndarray) -> np.ndarray:
    """sqrt(2 * sum of squared strict-upper entries) of each matrix of a
    (B, n, n) stack, the convergence measure of every kernel.  Each matrix
    is one contiguous row of n * n squares, summed by the same reduction
    alone or in a stack, so a matrix stops at the same sweep in either."""
    b, n = stack.shape[0], stack.shape[-1]
    squares = np.where(_strict_upper(n), stack, 0.0) ** 2
    return np.sqrt(2.0 * np.sum(squares.reshape(b, n * n), axis=1))


@lru_cache(maxsize=64)
def _strict_upper(n: int) -> np.ndarray:
    """The strict upper triangle of an n x n matrix as a boolean mask, for
    ``_off_norms``: ``np.triu(m, 1)`` is ``np.where`` on it, with the same
    bits, without rebuilding the mask per call.  Cached per n, so the mask
    is read-only."""
    mask = ~np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (B, k, w) stack, as
    ``np.linalg.norm`` takes a row-major matrix: the square root of one dot
    product of its entries in row-major order, here one batched matmul for
    the stack.  (``np.linalg.norm`` sums a column-major matrix in column
    order, which can round differently unless the matrix is symmetric.)"""
    flat = stack.reshape(len(stack), stack.shape[-2] * stack.shape[-1])
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])).reshape(-1)


def _off_norm(a: np.ndarray) -> float:
    """``_off_norms`` of one matrix."""
    return float(_off_norms(a[None])[0])


def _jacobi_list(a: np.ndarray, max_sweeps: int, target: float) -> bool:
    """Row-major kernel on a Python list for small orders; mutates ``a``
    toward diagonal form.

    ``a`` is copied into one flat row-major list.  A rotation computes the
    new rows p and q in two list comprehensions and writes them back as rows
    by slice and as columns by strided slice, so no step runs an interpreted
    loop over the rows.  The pairs, the skips and the arithmetic are those
    of the row-major scalar loop that the tests pin as ``reference_jacobi``,
    and each sweep starts with ``_off_norm`` on ``a``, into which the list
    is written back after every sweep: the output bits are that loop's.
    """
    n = a.shape[0]
    if n < 2:
        return True
    flat = a.ravel().tolist()
    skip = target / n
    for _ in range(max_sweeps):
        if _off_norm(a) < target:
            return True
        for p in range(n - 1):
            row_p = p * n
            for q in range(p + 1, n):
                apq = flat[row_p + q]
                # ``<=`` rather than ``>``: a NaN entry is rotated, as in
                # the scalar loop, instead of being skipped
                if abs(apq) <= skip:
                    continue
                row_q = q * n
                app = flat[row_p + p]
                aqq = flat[row_q + q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                akp = flat[row_p : row_p + n]
                akq = flat[row_q : row_q + n]
                new_p = [x - s * (y + tau * x) for x, y in zip(akp, akq)]
                new_q = [y + s * (x - tau * y) for x, y in zip(akp, akq)]
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = 0.0
                new_q[p] = 0.0
                flat[row_p : row_p + n] = new_p
                flat[row_q : row_q + n] = new_q
                flat[p::n] = new_p
                flat[q::n] = new_q
        a[...] = np.reshape(flat, (n, n))
    return _off_norm(a) < target


def _jacobi_stack(a: np.ndarray, max_sweeps: int, target: np.ndarray) -> bool:
    """Row-major kernel in lockstep over a stack of shape (B, n, n); mutates
    ``a`` toward diagonal form.

    Every matrix follows its own rotation sequence exactly as the row-major
    scalar loop that the tests pin as ``reference_jacobi`` would alone,
    against its own ``target`` and skip threshold target[i] / n: the pairs
    are visited in the same row-major order for the whole stack, and at each
    pair only the matrices whose entry exceeds their skip threshold rotate.
    A matrix stops rotating at the first sweep that starts converged.
    Returns False when any matrix is still unconverged after
    ``max_sweeps``.

    The kernel works on a matrix-last copy of shape (n, n, B), written back
    into ``a`` at the end, so entry (p, q) of every matrix is one contiguous
    row of B values, and rows p and q of every matrix are (n, B) blocks.  A
    pair's rotation is computed for all B matrices elementwise and written
    back, as rows and then as columns, only where the matrix rotates
    (``np.copyto`` with ``where``): the matrices that do not rotate are
    neither gathered nor scattered, and what is computed for them is
    dropped, so a matrix gets the arithmetic of its own rotations alone.
    """
    n = a.shape[-1]
    if n < 2:
        return True
    skip = target / n
    work = np.ascontiguousarray(a.transpose(1, 2, 0))
    stack = work.transpose(2, 0, 1)  # the (B, n, n) view the norms read
    # the dropped entries of matrices that do not rotate may divide by zero
    with np.errstate(all="ignore"):
        for _ in range(max_sweeps):
            # a converged matrix is never rotated again, so it stays converged
            done = _off_norms(stack) < target
            if done.all():
                break
            live_skip = np.where(done, np.inf, skip)
            for p in range(n - 1):
                akp = work[p]
                app = akp[p]
                for q in range(p + 1, n):
                    apq = akp[q]
                    hit = ~(np.abs(apq) <= live_skip)
                    if not hit.any():
                        continue
                    akq = work[q]
                    aqq = akq[q]
                    theta = (aqq - app) / (2.0 * apq)
                    t = np.copysign(1.0, theta) / (
                        np.abs(theta) + np.sqrt(theta * theta + 1.0)
                    )
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    tau = s / (1.0 + c)
                    new_p = akp - s * (akq + tau * akp)
                    new_q = akq + s * (akp - tau * akq)
                    new_p[p] = app - t * apq
                    new_q[q] = aqq + t * apq
                    new_p[q] = 0.0
                    new_q[p] = 0.0
                    np.copyto(akp, new_p, where=hit)
                    np.copyto(akq, new_q, where=hit)
                    np.copyto(work[:, p], new_p, where=hit)
                    np.copyto(work[:, q], new_q, where=hit)
    a[...] = stack
    return bool(np.all(_off_norms(a) < target))


def _rotate_pairs(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows i and k + i of ``x`` (2k rows) rotated by the column vectors c
    and s (k rows each): c x_i - s x_(k+i), then c x_(k+i) + s x_i."""
    k = len(c)
    p, q = x[:k], x[k:]
    return np.concatenate((c * p - s * q, c * q + s * p))


def _rotation(
    d: np.ndarray | np.float64, twice: np.ndarray | np.float64
) -> tuple[np.ndarray | np.float64, np.ndarray | np.float64, np.ndarray | np.float64]:
    """The Jacobi rotation of each pair of a round from d = aqq - app and
    twice = 2 apq: t, c and s, shaped as d, for arrays of pairs or for one
    pair on numpy float64 scalars, whose arithmetic rounds as the array
    loops do.  t = sign(theta) / (|theta| + sqrt(theta^2 + 1)) with theta =
    d / twice, multiplied through by twice."""
    t = twice / (d + np.copysign(np.hypot(d, twice), d))
    c = 1.0 / np.hypot(t, 1.0)
    return t, c, t * c


@lru_cache(maxsize=64)
def _round_robin_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin pairs of one sweep over order n >= 2, as arrays p < q of
    shape (m - 1, n // 2), one row per round, m being n rounded up to even.

    Circle method: slot m - 1 stays put and the other slots turn one place
    per round, so every pair meets once and each round's pairs are disjoint.
    For odd n slot m - 1 is padding, and its pairs are left out.  Cached per
    n, so the arrays are read-only.
    """
    m = n + (n & 1)
    # in round r slot r + i meets slot r - i (mod m - 1), i = 1 .. m/2 - 1,
    # and slot r meets slot m - 1
    rounds = np.arange(m - 1)[:, None]
    step = np.arange(1, m // 2)
    up = (rounds + step) % (m - 1)
    down = (rounds - step) % (m - 1)
    ps, qs = np.minimum(up, down), np.maximum(up, down)
    if m == n:
        ps = np.hstack((ps, rounds))
        qs = np.hstack((qs, np.full_like(rounds, n - 1)))
    ps.setflags(write=False)
    qs.setflags(write=False)
    return ps, qs


@lru_cache(maxsize=64)
def _one_sided_rounds(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows each round of a one-sided sweep over one k-row block reads
    and writes, from ``_round_robin_schedule(k)``: the gather index, of
    shape (rounds, 6, k // 2), whose row for a round is (p; q; p; p; q; q),
    the two halves multiplied row by row giving alpha, beta and gamma, and
    the pair index (p; q), its (rounds, 2, k // 2) view.  Cached per k, so
    the arrays are read-only."""
    ps, qs = _round_robin_schedule(k)
    index = np.stack((ps, qs, ps, ps, qs, qs), axis=1)
    index.setflags(write=False)
    return index, index[:, :2]


def _jacobi_round_robin(a: np.ndarray, max_sweeps: int, target: float) -> bool:
    """Single-matrix kernel in round-robin order; mutates ``a`` toward
    diagonal form.

    A sweep runs the rounds of ``_round_robin_schedule``.  Disjoint
    rotations commute, so a round rotates all its pairs above the skip
    threshold at once: their rows are gathered, rotated, and written back as
    rows and, ``a`` being exactly symmetric, as columns.
    """
    n = a.shape[0]
    if n < 2:
        return True
    ps, qs = _round_robin_schedule(n)
    # each round's rows in (p; q) order
    pairs = np.hstack((ps, qs))
    skip = target / n
    lower = np.tri(n, k=-1, dtype=bool)
    diag = a.diagonal()  # a read-only view: it follows the rotations
    for _ in range(max_sweeps):
        if _off_norm(a) < target:
            return True
        for p, q, idx in zip(ps, qs, pairs):
            apq = a[p, q]
            # a NaN entry is not small, so it is rotated, as in the row-major
            # kernels
            small = np.abs(apq) <= skip
            skipped = np.count_nonzero(small)
            if skipped:
                if skipped == small.size:
                    continue
                hit = ~small
                apq = apq[hit]
                idx = idx[np.concatenate((hit, hit))]
            k = apq.size
            ends = diag[idx]
            app, aqq = ends[:k], ends[k:]
            t, c, s = _rotation(aqq - app, 2.0 * apq)
            c, s = c[:, None], s[:, None]
            rows = _rotate_pairs(a[idx], c, s)
            # the block of the pairs' own columns still needs its column
            # rotation; rotating the rows of its transpose does that on
            # contiguous halves
            block = _rotate_pairs(rows.T[idx], c, s)
            shift = t * apq
            np.fill_diagonal(block, np.concatenate((app - shift, aqq + shift)))
            np.fill_diagonal(block[:k, k:], 0.0)
            # the two products round differently; mirroring the upper
            # triangle keeps ``a`` exactly symmetric
            np.copyto(block, block.T, where=lower[: 2 * k, : 2 * k])
            rows[:, idx] = block
            a[idx] = rows
            a[:, idx] = rows.T
    return _off_norm(a) < target


def _rotated_rows(
    x: np.ndarray, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Rows p and q of each pair of a one-sided round, rotated to zero their
    dot product gamma, from the (3, pairs, w) rows x = (p; q; p) and the
    pairs' alpha, beta and gamma as (pairs, 1) columns: c x_p - s x_q and
    c x_q + s x_p as one (2, pairs, w) array.  The rotation is the
    two-sided kernel's with (aqq - app, apq) = (beta - alpha, gamma), and
    c x + (-s) y has the bits of c x - s y, as a - b is a + (-b) exactly in
    round-to-nearest, signed zeros included."""
    _, c, s = _rotation(beta - alpha, 2.0 * gamma)
    return x[:2] * c + x[1:] * (_SIGNS * s)


def _live_pairs(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, tol: float, floor: np.ndarray
) -> np.ndarray:
    """The one-sided rotation rule on pairs of rows with squared norms alpha
    and beta and dot product gamma: rotate while
    |gamma| > tol * sqrt(alpha * beta) and neither row is below ``floor``."""
    return (np.abs(gamma) > tol * np.sqrt(alpha * beta)) & (np.minimum(alpha, beta) > floor)


def _live_rounds(
    b: np.ndarray, ps: np.ndarray, qs: np.ndarray, tol: float, floor: np.ndarray
) -> np.ndarray:
    """Whether each round of the schedule (ps, qs) would rotate some pair
    in a one-sided sweep of the (B, k, w) stack ``b`` as it stands, one flag
    per round; ``floor`` holds each block's floor.

    Every pair's alpha, beta and gamma come from one Gram ``einsum`` of the
    stack.  The plain ``einsum`` (not its BLAS path) reduces each row pair
    as the rounds' row-wise ``einsum`` does, with the same bits, so the
    rule decides every pair as a round would while nothing rotates.
    """
    gram = np.einsum("bij,bkj->bik", b, b)
    norms = np.diagonal(gram, axis1=1, axis2=2)
    live = _live_pairs(norms[:, ps], norms[:, qs], gram[:, ps, qs], tol, floor[:, None, None])
    return live.any(axis=(0, 2))


def _jacobi_one_sided(b: np.ndarray, max_sweeps: int) -> bool:
    """One-sided (Hestenes) kernel in round-robin order; mutates each block
    of the C-contiguous (B, k, w) stack ``b`` toward mutually orthogonal
    rows, whose norms are then its singular values.

    The stack is viewed as B * k rows of length w.  A sweep runs the rounds
    of ``_round_robin_schedule(k)``, as the two-sided kernel does, with each
    pair offset by k * block, so one round takes its pairs in every block.
    It rotates rows only: each round gathers its pairs' rows (p; q; p;
    p; q; q) with one ``take``, by the index of ``_one_sided_rounds``, and
    takes their squared norms alpha, beta and dot products gamma from one
    row-by-row ``einsum`` of the two halves, so ``b b^T`` is never formed in
    a round.  A pair rotates when
    |gamma| > tol * sqrt(alpha * beta), with tol = eps * sqrt(w), the scale
    of the rounding error in a dot product of length w: rows that
    orthogonal give singular values correct to a small multiple of tol,
    relative to each value (Demmel and Veselic, SIAM J. Matrix Anal. Appl.
    13(4), 1992).  A row of norm at most tol * ||block||_F, its own block's
    norm, counts as zero and is left alone: re-orthogonalizing such a row
    against the others cancels nearly all of it and leaves it no more
    orthogonal, so a rank-deficient block would rotate until its null rows
    underflow.  Only the pairs that pass the rule are rotated, each by
    arithmetic on its own rows, so a block takes the same rotations and
    bits in any stack; a block whose sweep rotates nothing rotates nothing
    after it.  A round writes both rows of all its pairs back in one fancy
    assignment.  Where some of its pairs rotate and others do not, it
    computes every pair's rotation, under ``np.errstate`` as a pair that
    does not rotate may divide zero by zero, and puts the gathered rows of
    the pairs that do not rotate in place of theirs before the write, so
    those rows keep their bytes.

    A sweep that rotates nothing in any block ends the iteration.  Idle
    rounds are skipped by a look-ahead, ``_live_rounds``, which decides
    every round of a sweep from one Gram ``einsum`` of the rows as they
    stand; no row changes before the next round that rotates, so the rounds
    it skips rotate nothing.  After a sweep in which some round rotated
    nothing, the next sweep is first checked whole: if no round would
    rotate, that check stands for the idle sweep and ends the iteration;
    otherwise the sweep starts at its first round that rotates.  A single
    block (B = 1) also looks ahead after each idle round that has rounds
    after it in its sweep and goes on at the next round that rotates.  When
    none is left, the sweep ends there, and the same flags stand for the
    next sweep's check, the rows being unchanged.  A stack's round idles
    only when every block's does, and there the look-ahead inside a sweep
    measured slower than the rounds it skips, so a stack runs only the
    sweep-start check.  Either way a block gets the rotations and bits of
    running every round, and the sweep cap counts the same sweeps.  Returns
    False when each of the ``max_sweeps`` sweeps rotated some pair.

    A round in which exactly one pair of the whole stack rotates takes that
    pair by its index and rotates it on numpy float64 scalars, with the
    same ``_rotation`` and the same row products, writing its two rows
    back; every other round rotates on arrays.  numpy's scalar arithmetic
    rounds as its array loops do, so the bits are those of the array path,
    without its array calls for one pair.
    After S(star n)'s first round, the row that holds the shared centre
    column meets one partner per round, so such rounds dominate there:
    S(star 50) runs 27 rounds, one rotating all 24 pairs, 24 rotating one
    pair and 2 idle, and one pass over S(star 3..50) runs 714 rounds, 578
    of them on one pair.
    """
    count, k, w = b.shape
    if k < 2:
        return True
    if not b.flags.c_contiguous:
        raise ValueError("the one-sided kernel rotates a C-contiguous stack in place")
    flat = b.reshape(count * k, w)
    block_ps, block_qs = _round_robin_schedule(k)
    index, pairs = _one_sided_rounds(k)
    rounds = len(index)
    if count != 1:
        # each round's rows in every block, block by block within each sixth
        offsets = k * np.arange(count)[:, None]
        index = (index[:, :, None] + offsets).reshape(rounds, 6, -1)
        pairs = index[:, :2]
    half = count * (k // 2)
    tol = EPS * math.sqrt(w)
    # the floor from each block's own norm, and repeated once per pair of a
    # round, as a column like the pairs' products
    block_floor = np.square(tol * _frobenius_norms(b))
    floor = np.repeat(block_floor, k // 2)[:, None]
    idle = False
    ahead = None  # the next sweep's round flags, from a look-ahead that ended a sweep
    for _ in range(max_sweeps):
        r = 0
        if idle:
            if ahead is None:
                ahead = _live_rounds(b, block_ps, block_qs, tol, block_floor)
            if not ahead.any():
                return True
            r = int(np.argmax(ahead))
        ahead = None
        rotated = False
        idle = r > 0
        while r < rounds:
            # (p; q; p; p; q; q), each sixth as a (half, w) block
            rows = flat.take(index[r], axis=0)
            products = np.einsum("kij,kij->ki", rows[:3], rows[3:])
            # alpha, beta and gamma, each as a (half, 1) column
            alpha, beta, gamma = products[:, :, None]
            pair = pairs[r]
            r += 1
            hit = _live_pairs(alpha, beta, gamma, tol, floor)
            rotating = np.count_nonzero(hit)
            if not rotating:
                idle = True
                if count == 1 and r < rounds:
                    # no row has changed since this round's products, and
                    # none changes before the next round that rotates
                    live = _live_rounds(b, block_ps, block_qs, tol, block_floor)
                    later = np.flatnonzero(live[r:])
                    if later.size:
                        r += int(later[0])
                    else:
                        r, ahead = rounds, live
                continue
            rotated = True
            if rotating == 1:
                # one pair: its products as numpy scalars and its two rows
                i = int(hit.argmax())
                alpha, beta, gamma = products[0, i], products[1, i], products[2, i]
                x, y = rows[0, i], rows[1, i]
                _, c, s = _rotation(beta - alpha, 2.0 * gamma)
                flat[pair[0, i]] = c * x - s * y
                flat[pair[1, i]] = c * y + s * x
                continue
            # (p; q; p): each pair's rows, then its rows swapped
            x = rows[:3]
            if rotating == half:
                new = _rotated_rows(x, alpha, beta, gamma)
            else:
                # every pair is rotated, and a pair that does not rotate,
                # which may divide zero by zero, gets its rows back
                with np.errstate(all="ignore"):
                    new = _rotated_rows(x, alpha, beta, gamma)
                np.copyto(new, x[:2], where=~hit)
            flat[pair] = new
        if not rotated:
            return True
    return False


def singular_values(b: np.ndarray) -> np.ndarray:
    """Singular values of a (k, w) matrix with k <= w, descending, by the
    one-sided kernel on a copy: the k row norms of the orthogonalized rows.
    A stack of shape (B, k, w) gives one descending row per block.  Either
    way the kernel runs once, on the (B, k, w) stack (B = 1 for one
    matrix), and a block gets the same bits in any stack as alone.

    Built for the biadjacency block B of a bipartite R = [[0, B], [B^T, 0]],
    whose eigenvalues are then +-sigma(B) and zeros.  Raises ValueError for
    non-finite entries, and ConvergenceError, naming the one-sided ordering,
    after ``DEFAULT_MAX_SWEEPS`` sweeps.
    """
    a = np.array(b, dtype=np.float64, order="C")
    if a.ndim not in (2, 3) or a.shape[-2] > a.shape[-1]:
        raise ValueError(
            f"expected an (n, m) matrix with n <= m, or a stack of them, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    stack = a[None] if a.ndim == 2 else a
    if not _jacobi_one_sided(stack, DEFAULT_MAX_SWEEPS):
        _sweep_cap_reached("one-sided", f"{a.shape[-2]}x{a.shape[-1]}")
    norms = np.sqrt(np.einsum("bij,bij->bi", stack, stack))
    return np.sort(norms, axis=1)[:, ::-1].reshape(a.shape[:-1])


def _prepared(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrised copy of a (B, n, n) stack that a kernel works on, and
    each matrix's convergence target from its own Frobenius norm.  Rejects
    non-finite entries and asymmetry beyond roundoff."""
    if stack.size and not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    scale = _frobenius_norms(stack)
    # one temporary serves the asymmetry test and the symmetrised copy
    work = np.subtract(stack, stack.swapaxes(1, 2), out=np.empty(stack.shape))
    if stack.size:
        asym = np.max(np.abs(work, out=work), axis=(1, 2))
        bad = asym > 1e-8 * np.maximum(1.0, scale)
        if np.any(bad):
            worst = float(np.max(asym[bad]))
            raise ValueError(f"matrix is not symmetric (max asymmetry {worst:.3e})")
    np.add(stack, stack.swapaxes(1, 2), out=work)
    work *= 0.5
    return work, CONVERGENCE_RTOL * np.maximum(1.0, scale)


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    ``m`` is one matrix of shape (n, n), or a stack of shape (B, n, n) whose
    result has shape (B, n), one descending row per matrix.  From n =
    ``ROUND_ROBIN_MIN_ORDER`` up each matrix, alone or in a stack, is solved
    by the round-robin kernel.  Below it a stack of two or more is solved by
    the lockstep kernel, and one matrix, alone or as a stack of one, by the
    list kernel; both apply the same row-major rotations with the same
    arithmetic.  Either way a matrix gets the same eigenvalue bits in a
    stack as alone.  Raises ConvergenceError after ``DEFAULT_MAX_SWEEPS``.

    The scans solve only the R(G) with an odd cycle here; the bipartite
    R(G) and the subdivisions' R(S) go to ``singular_values`` on their
    blocks B, one stack per row count or edge-count group, each solved by a
    single call of the one-sided kernel.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    stack = a[None] if a.ndim == 2 else a
    b, n = stack.shape[0], stack.shape[-1]
    max_sweeps = DEFAULT_MAX_SWEEPS
    work, target = _prepared(stack)
    if n >= ROUND_ROBIN_MIN_ORDER:
        for i in range(b):
            if not _jacobi_round_robin(work[i], max_sweeps, float(target[i])):
                _sweep_cap_reached("round-robin", n)
    elif b == 1:
        if not _jacobi_list(work[0], max_sweeps, float(target[0])):
            _sweep_cap_reached("row-major", n)
    elif b and not _jacobi_stack(work, max_sweeps, target):
        _sweep_cap_reached("row-major", n)
    diagonal = np.diagonal(work, axis1=1, axis2=2)
    return np.sort(diagonal, axis=1)[:, ::-1].reshape(a.shape[:-1])


def _sweep_cap_reached(ordering: str, order: int | str) -> NoReturn:
    raise ConvergenceError(
        f"Jacobi sweep cap of {DEFAULT_MAX_SWEEPS} reached without convergence "
        f"({ordering} ordering, order {order})"
    )


def cluster_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster each descending row of a (B, n) stack by the greedy gap rule:
    a value joins the current cluster when it sits within ``CLUSTER_TOL``
    of the cluster's most recent member, so a row breaks wherever
    consecutive values differ by more than that (or by NaN).

    Returns (k, reps, sizes): k (B,) counts each row's clusters, and reps
    and sizes (B, n) hold its clusters' representatives and sizes,
    descending, in the first k slots, padded with NaN and 0.  A
    representative is the cluster mean ``math.fsum(members) / size``; a
    single member's is its value plus 0.0, which is that mean exactly
    (fsum turns -0.0 into 0.0), so fsum runs only on clusters of two or
    more.  A stack of one is clustered on its Python floats, by
    ``_cluster_list``.
    """
    b, n = rows.shape
    if b == 1:
        means, counts = _cluster_list(rows[0].tolist())
        pad = n - len(means)
        return (
            np.array([len(means)]),
            np.array([means + [math.nan] * pad]),
            np.array([counts + [0] * pad], dtype=np.intp),
        )
    flat = rows.ravel()
    starts = np.ones((b, n), dtype=bool)
    np.logical_not(rows[:, :-1] - rows[:, 1:] <= CLUSTER_TOL, out=starts[:, 1:])
    k = starts.sum(axis=1)
    first = np.flatnonzero(starts)
    ends = np.empty_like(first)
    ends[:-1] = first[1:]
    ends[-1:] = flat.size
    size = ends - first
    mean = flat[first] + 0.0
    for i in np.flatnonzero(size > 1).tolist():
        members = flat[first[i] : ends[i]].tolist()
        mean[i] = math.fsum(members) / len(members)
    # a boolean mask assigns in row-major order, so the clusters, row after
    # row, fill the first k slots of their rows
    slots = np.arange(n) < k[:, None]
    reps = np.full((b, n), np.nan)
    sizes = np.zeros((b, n), dtype=np.intp)
    reps[slots] = mean
    sizes[slots] = size
    return k, reps, sizes


def _cluster_list(values: list[float]) -> tuple[list[float], list[int]]:
    """The representatives and sizes of one descending row's clusters, on
    its Python floats: ``cluster_rows``' breaks, ``values[i - 1] -
    values[i] <= CLUSTER_TOL`` negated, and its means."""
    n = len(values)
    means: list[float] = []
    sizes: list[int] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or not values[i - 1] - values[i] <= CLUSTER_TOL:
            size = i - start
            means.append(values[start] + 0.0 if size == 1 else math.fsum(values[start:i]) / size)
            sizes.append(size)
            start = i
    return means, sizes


def cluster_distinct(values: Iterable[float]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Collapse near-equal values into (representatives, multiplicities):
    the one-row form of ``cluster_rows`` on the values sorted descending.
    Each representative is the cluster mean, which keeps the operation
    idempotent for well separated spectra.
    """
    means, sizes = _cluster_list(sorted(map(float, values), reverse=True))
    return tuple(means), tuple(sizes)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one symmetric matrix, with multiplicity clustering."""

    values: tuple[float, ...]
    distinct: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def k(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.distinct)

    @classmethod
    def of(cls, values: np.ndarray) -> "Spectrum":
        """Descending eigenvalues, clustered at ``CLUSTER_TOL``."""
        distinct, mults = cluster_distinct(values)
        return cls(tuple(values.tolist()), distinct, mults)


# ---------------------------------------------------------------------------
# Polynomials with ascending coefficients: coeffs[k] multiplies x**k.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("polynomial needs at least a constant coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(tuple([factor * c for c in self.coeffs]))

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Polynomial((0.0,) * k + self.coeffs)

    def coefficient(self, k: int) -> float:
        """Coefficient of x**k, zero beyond the stored degree."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0


def charpoly_coefficients(roots: np.ndarray) -> np.ndarray:
    """Coefficients of prod (x - r) over the roots in each row of a (B, k)
    stack, highest power first, shape (B, k + 1).

    The roots are multiplied in one at a time, in row order, each step
    adding -r times the previous coefficients shifted by one place.  That
    is ``np.poly``'s convolution with (1, -r), one rounded product and one
    rounded sum per coefficient, so the bits are ``np.poly``'s.  The work
    array holds one coefficient per row, so each step reads and writes
    contiguous rows of the whole stack.

    A stack of one with at most ``ROW_LIST_MAX_LENGTH`` roots is
    expanded by ``_charpoly_list`` on Python floats instead, with the same
    bits: there a step's interpreted arithmetic costs less than its numpy
    calls.
    """
    b, k = roots.shape
    if b == 1 and k <= ROW_LIST_MAX_LENGTH:
        return np.array([_charpoly_list(roots[0].tolist())])
    c = np.zeros((k + 1, b))
    c[0] = 1.0
    negated = -roots.T
    for j in range(k):
        c[1 : j + 2] += c[: j + 1] * negated[j]
    return c.T


def _charpoly_list(roots: list[float]) -> list[float]:
    """``charpoly_coefficients`` of one row of roots, on Python floats: each
    root t turns coefficient i >= 1 into c[i] + c[i - 1] * -t, the product
    and the sum each rounded once as numpy rounds them, and c[0] stays 1.0.
    A trailing 0.0 stands for the coefficient each step creates."""
    c = [1.0, 0.0]
    for r in roots:
        t = -r
        c[1:] = [x + y * t for x, y in zip(c[1:], c)]
        c.append(0.0)
    return c[:-1]


def charpoly_from_eigenvalues(values: Sequence[float]) -> Polynomial:
    """Monic polynomial with the given roots, prod (x - r), expanded: the
    one-row form of ``charpoly_coefficients``."""
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return Polynomial(tuple(charpoly_coefficients(row)[0, ::-1].tolist()))


def substitute_quadratic(p: Polynomial, a: float) -> Polynomial:
    """Expand p(a * x**2) as a polynomial in x."""
    out = [0.0] * (2 * p.degree + 1)
    for k, ck in enumerate(p.coeffs):
        out[2 * k] = ck * a**k
    return Polynomial(tuple(out))


def coefficient_residual(p: Polynomial, q: Polynomial) -> float:
    """Worst coefficient gap between two polynomials, relative to the
    largest coefficient magnitude present (floored at 1)."""
    width = max(len(p.coeffs), len(q.coeffs))
    worst = 0.0
    largest = 1.0
    for k in range(width):
        a = p.coefficient(k)
        b = q.coefficient(k)
        worst = max(worst, abs(a - b))
        largest = max(largest, abs(a), abs(b))
    return worst / largest


def product_over_roots(m: np.ndarray, roots: Sequence[float]) -> np.ndarray:
    """Evaluate prod_i (M - r_i I) by repeated multiplication, in order."""
    n = m.shape[0]
    out = np.eye(n)
    eye = np.eye(n)
    for r in roots:
        out = out @ (m - r * eye)
    return out


def product_over_root_rows(m: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """``product_over_roots`` over a (B, n, n) stack, matrix b with the
    roots of row b of the (B, k) array ``roots``: k stacked matmuls, each
    applying one column of roots to every matrix, from I as the per-matrix
    loop starts, so each matrix gets that loop's bits."""
    eye = np.eye(m.shape[-1])
    if not roots.shape[1]:
        return np.repeat(eye[None], len(m), axis=0)
    out = eye  # matmul applies it to every matrix of the stack
    for column in roots.T:
        out = np.matmul(out, m - column[:, None, None] * eye)
    return out
