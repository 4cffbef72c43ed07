"""Dense symmetric eigensolver, one-sided Jacobi SVD, and small polynomial
utilities.

The eigensolver is a cyclic Jacobi iteration: full matrix storage, plane
rotations, convergence declared when the off-diagonal Frobenius mass drops
below ``1e-12 * max(1, ||M||_F)``.  The order in which a sweep visits the
pairs is chosen by the matrix order n:

* row-major pair order outside ``ROUND_ROBIN_ORDERS``, by three kernels: a
  single matrix below the band on a Python list (``_jacobi_list``; at these
  orders a rotation's interpreted arithmetic costs less than the dozen numpy
  calls it otherwise takes), a single matrix above the band in numpy
  (``_jacobi_numpy``; at N = 129 to 250 the list kernel took 2.4 to 5.8
  times as long), and a stack of two or more matrices in lockstep
  (``_jacobi_stack``; a stack of one goes to its order's single-matrix
  kernel).  A stack may mix orders: each matrix is zero-padded to the
  largest order and keeps its own skip threshold, target and off-norm,
  taken on its own block, and the padding stays +0.0 under every rotation.
  The three kernels apply the same rotations with the same arithmetic, so
  their eigenvalues agree bit for bit, padded or not;
* the round-robin order of Brent and Luk (SIAM J. Sci. Stat. Comput. 6(1),
  1985) for n inside the band, one matrix at a time.  Its rounds of disjoint
  pairs are applied one round per set of numpy calls, where row-major order
  needs one set per rotation.  It converges more slowly on highly degenerate
  spectra, which is where the band ends.

Both orderings share the skip rule, the target and the sweep cap, and a
matrix gets the same bits alone, in a stack, or padded in a stack of mixed
orders.  Failure to converge within the sweep cap raises ConvergenceError,
naming the ordering, rather than returning junk.

``singular_values`` is the one-sided (Hestenes) form, one n x m block at a
time with n <= m: it rotates pairs of rows, in the same round-robin rounds,
until the rows are orthogonal, and returns their norms.  A bipartite graph's
R = [[0, B], [B^T, 0]] has eigenvalues +-sigma(B) and zeros, so
``spectra.randic_eigenvalues`` (under ``randic_energy``, ``randic_spectrum``
and the ``energy`` and ``spectrum`` commands) solves the block B alone: a
sweep visits n(n - 1)/2 row pairs of length m instead of the
(n + m)(n + m - 1)/2 pairs of R, most of which are zero by construction.
``verify`` and the scans stay on the two-sided kernels: their charpoly and
identity verdicts can move with the last bits of the spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import ConvergenceError

DEFAULT_MAX_SWEEPS = 100
CONVERGENCE_RTOL = 1e-12
CLUSTER_TOL = 1e-7
# matrix orders solved in round-robin order, set from per-order timings of
# both orderings (CHANGES.md): below 32 row-major order was about as fast, and
# a lower bound would change eigenvalue bits or leave the lockstep stacks of
# scans; above 128 complete-graph subdivisions, whose spectra are highly
# degenerate, take round-robin order twice the sweeps and run slower
ROUND_ROBIN_ORDERS = (32, 128)


def _off_norms(stack: np.ndarray, orders: np.ndarray | None = None) -> np.ndarray:
    """sqrt(2 * sum of squared strict-upper entries) of each matrix of a
    (B, n, n) stack, the convergence measure of every kernel.  Each matrix
    is one contiguous row of n * n squares, summed by the same reduction
    alone or in a stack, so a matrix stops at the same sweep in either.

    With ``orders``, matrix i is the leading orders[i] x orders[i] block of
    a zero-padded stack; the matrices of each order are taken by one index
    into their blocks, so each is still summed as the same contiguous row.
    """
    b, n = stack.shape[0], stack.shape[-1]
    if orders is not None and np.any(orders != n):
        out = np.empty(b)
        for k in np.unique(orders):
            rows = _rows_of_order(orders, k)
            out[rows] = _off_norms(stack[rows, :k, :k])
        return out
    squares = np.triu(stack, 1) ** 2
    return np.sqrt(2.0 * np.sum(squares.reshape(b, n * n), axis=1))


def _rows_of_order(orders: np.ndarray, k: int) -> slice | np.ndarray:
    """Index of the matrices of order k in a stack of mixed orders: a slice
    when they are contiguous, as in a stack sorted by order, so that taking
    their blocks copies nothing."""
    rows = np.flatnonzero(orders == k)
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _off_norm(a: np.ndarray) -> float:
    """``_off_norms`` of one matrix."""
    return float(_off_norms(a[None])[0])


def _jacobi_numpy(a: np.ndarray, max_sweeps: int, target: float) -> bool:
    """Single-matrix numpy kernel; mutates ``a`` toward diagonal form.

    ``a`` must be exactly symmetric and stays so after every rotation, so
    rows p and q are read in place of columns p and q.  After a skipped
    entry, one vectorised test on the rest of row p finds the next q with
    |a_pq| above the skip threshold; the visited pairs and the arithmetic are
    those of the row-major scalar loop, so the output bits are too.
    """
    n = a.shape[0]
    if n < 2:
        return True
    for _ in range(max_sweeps):
        if _off_norm(a) < target:
            return True
        skip = target / n
        for p in range(n - 1):
            q = p + 1
            while q < n:
                apq = a.item(p, q)
                if abs(apq) <= skip:
                    # ``<=`` rather than ``>``: a NaN entry is rotated, as in
                    # the scalar loop, instead of being skipped
                    small = np.abs(a[p, q:]) <= skip
                    j = int(small.argmin())
                    if small[j]:
                        break
                    q += j
                    apq = a.item(p, q)
                app = a.item(p, p)
                aqq = a.item(q, q)
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                akp = a[p]
                akq = a[q]
                new_p = akp - s * (akq + tau * akp)
                new_q = akq + s * (akp - tau * akq)
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = 0.0
                new_q[p] = 0.0
                a[p] = new_p
                a[q] = new_q
                a[:, p] = new_p
                a[:, q] = new_q
                q += 1
    return _off_norm(a) < target


def _jacobi_list(a: np.ndarray, max_sweeps: int, target: float) -> bool:
    """``_jacobi_numpy`` on a Python list for small orders; mutates ``a``
    toward diagonal form.

    ``a`` is copied into one flat row-major list.  A rotation computes the
    new rows p and q in two list comprehensions, with the expressions of
    ``_jacobi_numpy`` in the same order, and writes them back as rows by
    slice and as columns by strided slice, so no step runs an interpreted
    loop over the rows.  The pairs are those of the row-major scalar loop,
    and each sweep starts with ``_off_norm`` on ``a``, into which the list
    is written back after every sweep: the output bits are those of
    ``_jacobi_numpy``.
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


def _jacobi_stack(
    a: np.ndarray, max_sweeps: int, target: np.ndarray, orders: np.ndarray
) -> bool:
    """Lockstep form of ``_jacobi_numpy`` over a stack of shape (B, N, N).

    Matrix i is the leading orders[i] x orders[i] block of a[i]; the rest of
    a[i] must be +0.0.  Every matrix follows its own rotation sequence
    exactly as the 2-D kernel would alone, against its own ``target`` and
    skip threshold target[i] / orders[i]: the pairs are visited in the same
    row-major order for the whole stack, and at each pair only the matrices
    whose entry exceeds their skip threshold rotate.  A padded entry never
    does, and a rotation maps padding to +0.0 again (0 - s * (0 + tau * 0)
    and 0 + s * (0 - tau * 0) are +0.0 whatever the signs of s and tau), so
    a padded matrix gets the bits of its unpadded solve.  A matrix stops
    rotating at the first sweep that starts converged, measured on its own
    block.  Returns False when any matrix is still unconverged after
    ``max_sweeps``.
    """
    if a.shape[-1] < 2:
        return True
    # an empty matrix converges at once; its threshold is never read
    skip = target / np.maximum(orders, 1)
    for _ in range(max_sweeps):
        # a converged matrix is never rotated again, so it stays converged
        done = _off_norms(a, orders) < target
        if done.all():
            return True
        # it stays in the stack with threshold +inf, so the stack is never
        # copied; the per-pair calls cost about the same on all B rows
        live_skip = np.where(done, np.inf, skip)
        # pairs beyond the largest unconverged matrix touch only padding
        n = int(orders[~done].max())
        for p in range(n - 1):
            for q in range(p + 1, n):
                hit = np.flatnonzero(~(np.abs(a[:, p, q]) <= live_skip))
                if not hit.size:
                    continue
                apq = a[hit, p, q]
                app = a[hit, p, p]
                aqq = a[hit, q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = np.copysign(1.0, theta) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = (t * c)[:, None]
                tau = s / (1.0 + c[:, None])
                akp = a[hit, p]
                akq = a[hit, q]
                new_p = akp - s * (akq + tau * akp)
                new_q = akq + s * (akp - tau * akq)
                new_p[:, p] = app - t * apq
                new_q[:, q] = aqq + t * apq
                new_p[:, q] = 0.0
                new_q[:, p] = 0.0
                a[hit, p] = new_p
                a[hit, q] = new_q
                a[hit, :, p] = new_p
                a[hit, :, q] = new_q
    return bool(np.all(_off_norms(a, orders) < target))


def _rotate_pairs(
    x: np.ndarray, swapped: np.ndarray, c2: np.ndarray, s2: np.ndarray
) -> np.ndarray:
    """Rows i and k + i of ``x`` (2k rows) rotated by column vectors c and s,
    c x_i - s x_(k+i) and c x_(k+i) + s x_i, as ``c2 x - s2 swapped``, where
    c2 = (c; c), s2 = (s; -s) and ``swapped`` is ``x`` with its halves
    exchanged.  a - (-s) b is a + s b exactly, so the bits are those of the
    two-half form."""
    return c2 * x - s2 * swapped


def _round_robin_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin pairs of one sweep over order n >= 2, as arrays p < q of
    shape (m - 1, n // 2), one row per round, m being n rounded up to even.

    Circle method: slot m - 1 stays put and the other slots turn one place
    per round, so every pair meets once and each round's pairs are disjoint.
    For odd n slot m - 1 is padding, and its pairs are left out.
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
    return ps, qs


def _jacobi_round_robin(a: np.ndarray, max_sweeps: int, target: float) -> bool:
    """Single-matrix kernel in round-robin order; mutates ``a`` toward
    diagonal form.

    A sweep runs the rounds of ``_round_robin_schedule``.  Disjoint
    rotations commute, so a round rotates all its pairs above the skip
    threshold at once: their rows are gathered, rotated, and written back as
    rows and, ``a`` being exactly symmetric, as columns.  The schedule is
    derived per call, not cached: it is small beside one sweep.
    """
    n = a.shape[0]
    if n < 2:
        return True
    ps, qs = _round_robin_schedule(n)
    # each round's rows in (p; q) order, and with the halves swapped
    pairs = np.hstack((ps, qs))
    swaps = np.hstack((qs, ps))
    skip = target / n
    lower = np.tri(n, k=-1, dtype=bool)
    diag = a.diagonal()  # a read-only view: it follows the rotations
    for _ in range(max_sweeps):
        if _off_norm(a) < target:
            return True
        for p, q, idx, swap in zip(ps, qs, pairs, swaps):
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
                both = np.concatenate((hit, hit))
                idx, swap = idx[both], swap[both]
            k = apq.size
            ends = diag[idx]
            app, aqq = ends[:k], ends[k:]
            # t = sign(theta) / (|theta| + sqrt(theta^2 + 1)) with
            # theta = (aqq - app) / (2 apq), multiplied through by 2 apq
            d = aqq - app
            twice = 2.0 * apq
            t = twice / (d + np.copysign(np.hypot(d, twice), d))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            c2 = np.concatenate((c, c))[:, None]
            s2 = np.concatenate((s, -s))[:, None]
            rows = _rotate_pairs(a[idx], a[swap], c2, s2)
            # the block of the pairs' own columns still needs its column
            # rotation; rotating the rows of its transpose does that on
            # contiguous halves
            cols = rows.T
            block = _rotate_pairs(cols[idx], cols[swap], c2, s2)
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


def _jacobi_one_sided(b: np.ndarray, max_sweeps: int) -> bool:
    """One-sided (Hestenes) kernel in round-robin order; mutates the (n, m)
    block ``b`` toward mutually orthogonal rows, whose norms are then its
    singular values.

    A sweep runs the rounds of ``_round_robin_schedule(n)``, as the
    two-sided kernel does, but rotates rows only: each round gathers its
    pairs' rows and takes their squared norms alpha, beta and dot products
    gamma from the rows themselves, so ``b b^T`` is never formed.  A pair
    rotates when |gamma| > tol * sqrt(alpha * beta), with tol = eps * sqrt(m),
    the scale of the rounding error in a dot product of length m: rows that
    orthogonal give singular values correct to a small multiple of tol,
    relative to each value (Demmel and Veselic, SIAM J. Matrix Anal. Appl.
    13(4), 1992).  A row of norm at most tol * ||b||_F counts as zero and is
    left alone: re-orthogonalizing such a row against the others cancels
    nearly all of it and leaves it no more orthogonal, so a rank-deficient
    block would rotate until its null rows underflow.  A sweep
    that rotates nothing ends the iteration; returns False when each of the
    ``max_sweeps`` sweeps rotated some pair.
    """
    n, m = b.shape
    if n < 2:
        return True
    ps, qs = _round_robin_schedule(n)
    pairs = np.hstack((ps, qs))
    swaps = np.hstack((qs, ps))
    half = ps.shape[1]
    tol = np.finfo(np.float64).eps * math.sqrt(m)
    floor = (tol * float(np.linalg.norm(b))) ** 2
    for _ in range(max_sweeps):
        rotated = False
        for idx, swap in zip(pairs, swaps):
            rows = b[idx]
            norms = np.einsum("ij,ij->i", rows, rows)
            alpha, beta = norms[:half], norms[half:]
            gamma = np.einsum("ij,ij->i", rows[:half], rows[half:])
            hit = (np.abs(gamma) > tol * np.sqrt(alpha * beta)) & (
                np.minimum(alpha, beta) > floor
            )
            rotating = np.count_nonzero(hit)
            if not rotating:
                continue
            rotated = True
            if rotating < half:
                alpha, beta, gamma = alpha[hit], beta[hit], gamma[hit]
                both = np.concatenate((hit, hit))
                rows, idx, swap = rows[both], idx[both], swap[both]
            # the rotation that zeroes gamma, in the form of the two-sided
            # kernel with (aqq - app, apq) = (beta - alpha, gamma)
            d = beta - alpha
            twice = 2.0 * gamma
            t = twice / (d + np.copysign(np.hypot(d, twice), d))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            c2 = np.concatenate((c, c))[:, None]
            s2 = np.concatenate((s, -s))[:, None]
            b[idx] = _rotate_pairs(rows, b[swap], c2, s2)
        if not rotated:
            return True
    return False


def singular_values(b: np.ndarray, max_sweeps: int = DEFAULT_MAX_SWEEPS) -> np.ndarray:
    """Singular values of an (n, m) matrix with n <= m, descending, by the
    one-sided kernel on a copy: the n row norms of the orthogonalized rows.

    Built for the biadjacency block B of a bipartite R = [[0, B], [B^T, 0]],
    whose eigenvalues are then +-sigma(B) and zeros.  Raises ValueError for
    non-finite entries, and ConvergenceError, naming the one-sided ordering,
    if the sweep cap is exhausted.
    """
    a = np.array(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] > a.shape[1]:
        raise ValueError(f"expected an (n, m) matrix with n <= m, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not _jacobi_one_sided(a, max_sweeps):
        _sweep_cap_reached(max_sweeps, "one-sided", f"{a.shape[0]}x{a.shape[1]}")
    return np.sort(np.sqrt(np.einsum("ij,ij->i", a, a)))[::-1]


def _prepared(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrised copy of a (B, n, n) stack that a kernel works on, and
    each matrix's convergence target from its own Frobenius norm.  Rejects
    non-finite entries and asymmetry beyond roundoff."""
    if stack.size and not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    scale = np.array([float(np.linalg.norm(x)) for x in stack])
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


def symmetric_eigenvalues(
    m: np.ndarray,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    orders: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    ``m`` is one matrix of shape (n, n), or a stack of shape (B, n, n) whose
    result has shape (B, n), one descending row per matrix.  With
    ``orders``, ``m`` is a stack of shape (B, N, N) holding matrices of
    mixed orders: matrix i is the leading orders[i] x orders[i] block of
    m[i], and the rest of m[i] is ignored.  Row i of the (B, N) result then
    holds its orders[i] eigenvalues, descending, followed by zeros.  Each
    equal-order block of the stack is validated on its own, as a stack of
    that order would be.

    For n inside ``ROUND_ROBIN_ORDERS`` each matrix, alone or in a stack, is
    solved by the round-robin kernel.  Of the others, two or more are solved
    by the lockstep kernel, mixed orders as one zero-padded stack, and a
    single one by a row-major kernel: the list kernel below the band, the
    numpy kernel above it.  All three apply the same rotations with the same
    arithmetic, so a matrix gets the same eigenvalue bits in a stack, padded
    or not, as alone.  Raises ConvergenceError if the sweep cap is
    exhausted.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    stack = a[None] if a.ndim == 2 else a
    b, n = stack.shape[0], stack.shape[-1]
    if orders is None:
        sizes = np.full(b, n)
        groups = [(n, slice(None))]
        work, target = _prepared(stack)
    else:
        sizes = np.asarray(orders)
        if (
            a.ndim != 3
            or sizes.shape != (b,)
            or (b and (sizes.dtype.kind not in "iu" or sizes.min() < 0 or sizes.max() > n))
        ):
            raise ValueError(
                f"orders must give one order in 0..{n} per matrix of a stack, "
                f"got {sizes.tolist()!r} for shape {a.shape}"
            )
        groups = [(k, _rows_of_order(sizes, k)) for k in np.unique(sizes).tolist()]
        # each equal-order block is validated before it is copied in
        work = np.zeros_like(stack)
        target = np.empty(b)
        for k, rows in groups:
            work[rows, :k, :k], target[rows] = _prepared(stack[rows, :k, :k])
    band = (ROUND_ROBIN_ORDERS[0] <= sizes) & (sizes <= ROUND_ROBIN_ORDERS[1])
    for i in np.flatnonzero(band):
        k = sizes[i]
        if not _jacobi_round_robin(work[i, :k, :k], max_sweeps, float(target[i])):
            _sweep_cap_reached(max_sweeps, "round-robin", k)
    rest = np.flatnonzero(~band)
    if rest.size == 1:
        (i,) = rest
        k = sizes[i]
        kernel = _jacobi_list if k < ROUND_ROBIN_ORDERS[0] else _jacobi_numpy
        if not kernel(work[i, :k, :k], max_sweeps, float(target[i])):
            _sweep_cap_reached(max_sweeps, "row-major", k)
    elif rest.size:
        whole = rest.size == b
        sub = work if whole else work[rest]
        if not _jacobi_stack(sub, max_sweeps, target[rest], sizes[rest]):
            _sweep_cap_reached(max_sweeps, "row-major", int(sizes[rest].max()))
        if not whole:
            work[rest] = sub
    diagonal = np.diagonal(work, axis1=1, axis2=2)
    values = np.zeros((b, n))
    for k, rows in groups:
        values[rows, :k] = np.sort(diagonal[rows, :k], axis=1)[:, ::-1]
    return values.reshape(a.shape[:-1])


def _sweep_cap_reached(max_sweeps: int, ordering: str, order: int | str) -> NoReturn:
    raise ConvergenceError(
        f"Jacobi sweep cap of {max_sweeps} reached without convergence "
        f"({ordering} ordering, order {order})"
    )


def cluster_distinct(
    values: Iterable[float], tol: float = CLUSTER_TOL
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Collapse near-equal values into (representatives, multiplicities).

    Values are grouped descending with a greedy gap rule: a value joins the
    current cluster when it sits within ``tol`` of the cluster's most recent
    member.  Each representative is the cluster mean, which keeps the
    operation idempotent for well separated spectra.
    """
    vals = sorted(values, reverse=True)
    if not vals:
        return (), ()
    clusters: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if clusters[-1][-1] - v <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    reps = tuple(math.fsum(c) / len(c) for c in clusters)
    mults = tuple(len(c) for c in clusters)
    return reps, mults


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
        distinct, mults = cluster_distinct(values, CLUSTER_TOL)
        return cls(tuple(values.tolist()), distinct, mults)


def eigenvalues(m: np.ndarray) -> Spectrum:
    return Spectrum.of(symmetric_eigenvalues(m))


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
    """
    b, k = roots.shape
    c = np.zeros((k + 1, b))
    c[0] = 1.0
    negated = -roots.T
    for j in range(k):
        c[1 : j + 2] += c[: j + 1] * negated[j]
    return c.T


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
