import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randic.errors import ConvergenceError
from randic.graphs import Graph, enumerate_connected_graphs, generate, subdivision
from randic.identities import scan_small_graphs, verify_all
from randic.linalg import (
    ROUND_ROBIN_ORDERS,
    Polynomial,
    Spectrum,
    charpoly_coefficients,
    charpoly_from_eigenvalues,
    cluster_distinct,
    coefficient_residual,
    eigenvalues,
    _jacobi_list,
    _jacobi_numpy,
    _jacobi_one_sided,
    _jacobi_round_robin,
    _jacobi_stack,
    _off_norm,
    _off_norms,
    _round_robin_schedule,
    product_over_roots,
    singular_values,
    substitute_quadratic,
    symmetric_eigenvalues,
)
from randic.spectra import (
    _biadjacency,
    energy_of,
    randic_eigenvalues,
    randic_energy,
    randic_matrix,
    randic_spectrum,
)

T_LO, T_HI = ROUND_ROBIN_ORDERS


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a + a.T


class TestEigensolver:
    def test_diagonal_matrix(self):
        vals = symmetric_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [3.0, 2.0, -1.0], atol=1e-14)

    def test_two_by_two_analytic(self):
        # [[a, b], [b, a]] has eigenvalues a +- b
        m = np.array([[2.0, 5.0], [5.0, 2.0]])
        vals = symmetric_eigenvalues(m)
        assert vals == pytest.approx([7.0, -3.0], abs=1e-13)

    def test_empty_and_single(self):
        assert symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)
        assert symmetric_eigenvalues(np.array([[4.0]])) == pytest.approx([4.0])

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lapack_oracle(self, seed, n):
        m = random_symmetric(np.random.default_rng(seed), n)
        mine = symmetric_eigenvalues(m)
        oracle = np.linalg.eigvalsh(m)[::-1]
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.max(np.abs(mine - oracle)) < 1e-11 * scale

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=T_LO, max_value=T_HI),
    )
    @example(seed=0, n=T_LO)
    @example(seed=1, n=T_LO + 1)
    @example(seed=2, n=T_HI - 1)
    @example(seed=3, n=T_HI)
    @settings(max_examples=12, deadline=None)
    def test_round_robin_matches_lapack_oracle(self, seed, n):
        m = random_symmetric(np.random.default_rng(seed), n)
        mine = symmetric_eigenvalues(m)
        oracle = np.linalg.eigvalsh(m)[::-1]
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.max(np.abs(mine - oracle)) < 1e-11 * scale

    @pytest.mark.parametrize(
        "kind,orders",
        [("star", range(3, 51)), ("path", range(2, 63, 3)), ("cycle", [*range(3, 61, 3), 62])],
    )
    def test_subdivisions_match_lapack_oracle(self, kind, orders):
        # N = n + m runs through both orderings, both parities and up to 124
        for n in orders:
            m = randic_matrix(subdivision(generate(kind, n)))
            oracle = np.linalg.eigvalsh(m)[::-1]
            scale = max(1.0, float(np.linalg.norm(m)))
            assert np.max(np.abs(symmetric_eigenvalues(m) - oracle)) < 1e-11 * scale, n

    def test_both_kernels_agree(self):
        # the single-matrix kernel, and the stack kernel on a stack of one
        m = random_symmetric(np.random.default_rng(5), 12)
        oracle = np.linalg.eigvalsh(m)[::-1]
        for vals in (symmetric_eigenvalues(m), symmetric_eigenvalues(m[None])[0]):
            assert np.max(np.abs(vals - oracle)) < 1e-11 * float(np.linalg.norm(m))

    def test_input_is_not_mutated(self):
        m = random_symmetric(np.random.default_rng(3), 6)
        before = m.copy()
        symmetric_eigenvalues(m)
        assert np.array_equal(m, before)

    def test_sweep_cap_raises(self):
        # the message names the ordering that ran out of sweeps, in the band
        # and outside it, for one matrix and for a stack
        rng = np.random.default_rng(8)
        for n, ordering in [(10, "row-major"), (T_LO, "round-robin"), (T_HI + 1, "row-major")]:
            m = random_symmetric(rng, n)
            for arg in (m, np.array([m, random_symmetric(rng, n)])):
                with pytest.raises(ConvergenceError, match=f"{ordering} ordering, order {n}"):
                    symmetric_eigenvalues(arg, max_sweeps=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, T_LO, T_LO + 1, T_HI])
    def test_round_robin_schedule(self, n):
        ps, qs = _round_robin_schedule(n)
        assert ps.shape == qs.shape == (n - 1 + n % 2, n // 2)
        assert np.all(ps < qs) and np.all(qs < n)
        for row in np.hstack((ps, qs)):
            assert len(set(row.tolist())) == row.size  # a round's pairs are disjoint
        pairs = {(int(p), int(q)) for p, q in zip(ps.ravel(), qs.ravel())}
        assert len(pairs) == ps.size == n * (n - 1) // 2

    def test_round_robin_keeps_symmetry(self):
        a = random_symmetric(np.random.default_rng(9), T_LO + 1)
        target = 1e-12 * float(np.linalg.norm(a))
        assert not _jacobi_round_robin(a, 1, target)
        assert same_bits(a, a.T.copy())

    @pytest.mark.parametrize("n", [T_LO, T_LO + 1, T_HI])
    def test_diagonal_input_returns_at_once(self, n):
        m = np.diag(np.arange(n, dtype=np.float64))
        before = m.copy()
        vals = symmetric_eigenvalues(m, max_sweeps=0)
        assert same_bits(vals, np.arange(n, dtype=np.float64)[::-1])
        assert same_bits(m, before)


    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestOneSided:
    """The one-sided kernel, through ``singular_values``, against LAPACK."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=20),
        extra=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lapack_oracle(self, seed, n, extra):
        b = np.random.default_rng(seed).standard_normal((n, n + extra))
        scale = max(1.0, float(np.linalg.norm(b)))
        mine = singular_values(b)
        assert mine.shape == (n,)
        assert np.all(np.diff(mine) <= 0)
        assert np.max(np.abs(mine - np.linalg.svd(b, compute_uv=False)), initial=0.0) < 1e-11 * scale

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_rank_deficient(self, rank):
        # null rows shrink to roundoff and stop there instead of rotating on
        rng = np.random.default_rng(rank)
        b = rng.standard_normal((7, rank)) @ rng.standard_normal((rank, 11))
        mine = singular_values(b)
        scale = max(1.0, float(np.linalg.norm(b)))
        assert np.max(np.abs(mine - np.linalg.svd(b, compute_uv=False))) < 1e-11 * scale
        assert np.all(mine[rank:] < 1e-13 * scale)

    def test_orthogonal_rows_return_at_once(self):
        b = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, -4.0]])
        before = b.copy()
        assert same_bits(singular_values(b, max_sweeps=1), np.array([4.0, 3.0]))
        assert same_bits(b, before)

    def test_sweep_cap_raises(self):
        b = np.random.default_rng(4).standard_normal((6, 9))
        with pytest.raises(ConvergenceError, match="one-sided ordering, order 6x9"):
            singular_values(b, max_sweeps=0)

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (2, 3, 3)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="n <= m"):
            singular_values(np.ones(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(np.array([[1.0, np.nan]]))


def reference_jacobi(m: np.ndarray, max_sweeps: int = 100) -> tuple[np.ndarray, int]:
    """The original numpy kernel: row-major pairs, one rotation at a time,
    columns updated through a boolean mask.  Returns the descending
    eigenvalues and the number of sweeps run."""
    a = np.asarray(m, dtype=np.float64)
    target = 1e-12 * max(1.0, float(np.linalg.norm(a)) if a.size else 0.0)
    a = np.ascontiguousarray(0.5 * (a + a.T))
    n = a.shape[0]
    idx = np.arange(n)
    sweeps = 0
    while n >= 2 and math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2))) >= target:
        if sweeps == max_sweeps:
            raise ConvergenceError("reference sweep cap reached")
        sweeps += 1
        skip = target / n
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                rest = (idx != p) & (idx != q)
                akp = a[rest, p].copy()
                akq = a[rest, q].copy()
                a[rest, p] = akp - s * (akq + tau * akp)
                a[rest, q] = akq + s * (akp - tau * akq)
                a[p, rest] = a[rest, p]
                a[q, rest] = a[rest, q]
    return np.sort(np.diagonal(a))[::-1].copy(), sweeps


def reference_round_robin(a: np.ndarray, max_sweeps: int, target: float) -> bool:
    """The first round-robin kernel, kept frozen: each half of a pair
    rotation computed separately, and the skip test and the diagonal read
    with several numpy calls per round.  Mutates ``a`` like the kernel."""

    def rotate_pairs(x, c, s):
        k = c.shape[0]
        out = np.empty_like(x)
        np.multiply(c, x[:k], out=out[:k])
        out[:k] -= s * x[k:]
        np.multiply(c, x[k:], out=out[k:])
        out[k:] += s * x[:k]
        return out

    n = a.shape[0]
    if n < 2:
        return True
    ps, qs = _round_robin_schedule(n)
    skip = target / n
    lower = np.tri(n, k=-1, dtype=bool)
    diag = a.diagonal()
    for _ in range(max_sweeps):
        if _off_norm(a) < target:
            return True
        for p, q in zip(ps, qs):
            apq = a[p, q]
            small = np.abs(apq) <= skip
            if small.any():
                if small.all():
                    continue
                hit = ~small
                p, q, apq = p[hit], q[hit], apq[hit]
            k = p.size
            app = diag[p]
            aqq = diag[q]
            d = aqq - app
            twice = 2.0 * apq
            t = twice / (d + np.copysign(np.hypot(d, twice), d))
            c = 1.0 / np.hypot(t, 1.0)
            c_col = c[:, None]
            s_col = (t * c)[:, None]
            idx = np.concatenate((p, q))
            rows = rotate_pairs(a[idx], c_col, s_col)
            block = rotate_pairs(rows.T[idx], c_col, s_col)
            shift = t * apq
            np.fill_diagonal(block, np.concatenate((app - shift, aqq + shift)))
            np.fill_diagonal(block[:k, k:], 0.0)
            np.copyto(block, block.T, where=lower[: 2 * k, : 2 * k])
            rows[:, idx] = block
            a[idx] = rows
            a[:, idx] = rows.T
    return _off_norm(a) < target


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def kernel_input(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The symmetrised copy and the target that symmetric_eigenvalues hands
    a kernel."""
    a = np.ascontiguousarray(0.5 * (m + m.T))
    return a, 1e-12 * max(1.0, float(np.linalg.norm(m)))


def graph_matrices(max_order: int):
    """R and R(S) of Petersen and of paths, cycles, stars and complete
    graphs, keeping those of order up to ``max_order``."""
    graphs = [generate("petersen")]
    for kind, low in (("path", 2), ("cycle", 3), ("star", 3), ("complete", 3)):
        graphs += [generate(kind, n) for n in range(low, max_order + 1)]
    for g in graphs:
        for h in (g, subdivision(g)):
            if h.n <= max_order:
                yield h, randic_matrix(h)


class TestRotationSequence:
    """The numpy kernels, single and stacked, reproduce the reference loop
    bit for bit: same pairs, same skips, same arithmetic, same sweeps."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_random_matrices(self, n):
        rng = np.random.default_rng(1000 + n)
        stack = np.array([random_symmetric(rng, n) for _ in range(3)])
        expected = [reference_jacobi(m)[0] for m in stack]
        for m, want in zip(stack, expected):
            assert same_bits(symmetric_eigenvalues(m), want)
        got = symmetric_eigenvalues(stack)
        assert got.shape == (3, n)
        for row, want in zip(got, expected):
            assert same_bits(row, want)

    def test_star_subdivisions(self):
        # the acceptance-01 matrices, N = 5..99: the row-major kernel itself
        # for all of them, and symmetric_eigenvalues below the round-robin band
        for n in range(3, 51):
            m = randic_matrix(subdivision(generate("star", n)))
            want, _ = reference_jacobi(m)
            a = m.copy()
            target = 1e-12 * max(1.0, float(np.linalg.norm(m)))
            assert _jacobi_numpy(a, 100, target)
            assert same_bits(np.sort(np.diagonal(a))[::-1], want), n
            if m.shape[0] < T_LO:
                assert same_bits(symmetric_eigenvalues(m), want), n

    @pytest.mark.parametrize("n", [T_LO, T_LO + 3])
    def test_round_robin_stack_matches_single(self, n):
        rng = np.random.default_rng(n)
        stack = np.array([random_symmetric(rng, n) for _ in range(3)])
        got = symmetric_eigenvalues(stack)
        for row, m in zip(got, stack):
            assert same_bits(row, symmetric_eigenvalues(m))

    def test_mixed_stack(self):
        rng = np.random.default_rng(4)
        single_pair = np.diag(np.arange(8.0))
        single_pair[2, 5] = single_pair[5, 2] = 0.5
        stack = np.array(
            [
                np.diag(np.arange(8.0)),  # already diagonal
                single_pair,  # one rotation finishes it
                randic_matrix(generate("path", 8)),
                random_symmetric(rng, 8),
                1e-9 * random_symmetric(rng, 8),  # loose absolute target
            ]
        )
        results = [reference_jacobi(m) for m in stack]
        assert len({sweeps for _, sweeps in results}) >= 3
        got = symmetric_eigenvalues(stack)
        for row, (want, _) in zip(got, results):
            assert same_bits(row, want)

    def test_stack_sweep_cap_raises(self):
        rng = np.random.default_rng(8)
        stack = np.array([random_symmetric(rng, 6) for _ in range(4)])
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues(stack, max_sweeps=0)


class TestKernelBits:
    """The list kernel, the round-robin kernel and the stack off-norm give
    the bits of the kernels they replace."""

    @pytest.mark.parametrize("n", range(1, T_LO))
    def test_list_kernel_random(self, n):
        rng = np.random.default_rng(2000 + n)
        for _ in range(2):
            m = random_symmetric(rng, n)
            a, target = kernel_input(m)
            b = a.copy()
            assert _jacobi_list(a, 100, target)
            assert _jacobi_numpy(b, 100, target)
            assert same_bits(a, b)
            want, _ = reference_jacobi(m)
            assert same_bits(np.sort(np.diagonal(a))[::-1], want)

    def test_list_kernel_graphs(self):
        for g, m in graph_matrices(T_LO - 1):
            a, target = kernel_input(m)
            b = a.copy()
            assert _jacobi_list(a, 100, target)
            assert _jacobi_numpy(b, 100, target)
            assert same_bits(a, b), (g.n, g.edges)
            want, _ = reference_jacobi(m)
            assert same_bits(np.sort(np.diagonal(a))[::-1], want), (g.n, g.edges)

    def test_list_kernel_rotates_nan(self):
        # abs(nan) <= skip is false, so a NaN entry is rotated and spreads,
        # as in the numpy kernel, rather than being skipped
        m = random_symmetric(np.random.default_rng(6), 5)
        m[1, 3] = m[3, 1] = np.nan
        a, b = m.copy(), m.copy()
        assert not _jacobi_list(a, 2, 1e-12)
        assert not _jacobi_numpy(b, 2, 1e-12)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.isnan(a).sum() > 2

    @pytest.mark.parametrize("n", [T_LO, T_LO + 1, 47, 64, 101, T_HI - 1, T_HI])
    def test_round_robin_random(self, n):
        m = random_symmetric(np.random.default_rng(3000 + n), n)
        a, target = kernel_input(m)
        b = a.copy()
        assert _jacobi_round_robin(a, 100, target)
        assert reference_round_robin(b, 100, target)
        assert same_bits(a, b)

    @pytest.mark.parametrize(
        "kind,orders",
        [("star", range(16, 63, 6)), ("path", range(17, 63, 9)), ("cycle", [16, 25, 36, 49, 62])],
    )
    def test_round_robin_subdivisions(self, kind, orders):
        for n in orders:
            a, target = kernel_input(randic_matrix(subdivision(generate(kind, n))))
            b = a.copy()
            assert _jacobi_round_robin(a, 100, target)
            assert reference_round_robin(b, 100, target)
            assert same_bits(a, b), n

    def test_round_robin_complete_62(self):
        a, target = kernel_input(randic_matrix(generate("complete", 62)))
        b = a.copy()
        assert _jacobi_round_robin(a, 100, target)
        assert reference_round_robin(b, 100, target)
        assert same_bits(a, b)

    @pytest.mark.parametrize("n", [1, 2, 7, 31, 90, 91, 129])
    def test_stack_off_norms(self, n):
        # the stack reduction against the first kernels' per-matrix np.sum,
        # and against itself on each matrix alone
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-9, 1e5):
            stack = np.array([scale * random_symmetric(rng, n) for _ in range(3)])
            got = _off_norms(stack)
            frozen = [math.sqrt(2.0 * float(np.sum(np.triu(m, 1) ** 2))) for m in stack]
            assert same_bits(got, np.array(frozen))
            assert same_bits(got, np.array([_off_norm(m) for m in stack]))

    @pytest.mark.parametrize("n", [0, 1, 4, T_LO, T_HI + 1])
    def test_empty_stack(self, n):
        assert _off_norms(np.zeros((0, n, n))).shape == (0,)
        assert symmetric_eigenvalues(np.zeros((0, n, n))).shape == (0, n)


class TestDispatch:
    """Which kernel serves which shape and order."""

    KERNELS = (
        "_jacobi_list",
        "_jacobi_numpy",
        "_jacobi_round_robin",
        "_jacobi_stack",
        "_jacobi_one_sided",
    )
    TWO_SIDED = set(KERNELS) - {"_jacobi_one_sided"}

    def spy(self, monkeypatch):
        import randic.linalg as linalg

        calls = []
        for name in self.KERNELS:
            kernel = getattr(linalg, name)

            def spied(a, *args, _name=name, _kernel=kernel):
                calls.append((_name, a.shape))
                return _kernel(a, *args)

            monkeypatch.setattr(linalg, name, spied)
        return calls

    @pytest.mark.parametrize(
        "shape,kernel",
        [
            ((T_LO - 1, T_LO - 1), "_jacobi_list"),
            ((T_LO, T_LO), "_jacobi_round_robin"),
            ((T_HI, T_HI), "_jacobi_round_robin"),
            ((T_HI + 1, T_HI + 1), "_jacobi_numpy"),
            ((3, T_LO - 1, T_LO - 1), "_jacobi_stack"),
            # a stack of one takes the single-matrix kernel of its order
            ((1, T_LO - 1, T_LO - 1), "_jacobi_list"),
            ((1, T_HI + 1, T_HI + 1), "_jacobi_numpy"),
        ],
    )
    def test_kernel_by_shape(self, monkeypatch, shape, kernel):
        n = shape[-1]
        m = np.diag(np.arange(n, dtype=np.float64))
        m[0, n - 1] = m[n - 1, 0] = 0.5
        m = np.broadcast_to(m, shape).copy()
        calls = self.spy(monkeypatch)
        symmetric_eigenvalues(m)
        assert {name for name, _ in calls} == {kernel}
        assert calls[0][1] == (shape if kernel == "_jacobi_stack" else (n, n))

    def test_mixed_orders_match_single_solves(self, monkeypatch):
        # one zero-padded stack of mixed orders: each row keeps the bits of
        # its matrix solved alone, and the order inside the round-robin band
        # still goes to its own kernel
        rng = np.random.default_rng(12)
        one_rotation = np.diag(np.arange(6.0))
        one_rotation[1, 4] = one_rotation[4, 1] = 0.5
        matrices = [
            np.diag(np.arange(7.0)),  # already diagonal
            one_rotation,
            1e-9 * random_symmetric(rng, 9),  # loose absolute target
            random_symmetric(rng, 9),
            random_symmetric(rng, 3),  # the only matrix of its order
            random_symmetric(rng, T_LO),
            random_symmetric(rng, 6),
            randic_matrix(subdivision(generate("cycle", 5))),  # order 10
        ]
        orders = [len(m) for m in matrices]
        big = max(orders)
        padded = np.zeros((len(matrices), big, big))
        for row, m in zip(padded, matrices):
            row[: len(m), : len(m)] = m
        alone = [symmetric_eigenvalues(m) for m in matrices]
        calls = self.spy(monkeypatch)
        got = symmetric_eigenvalues(padded, orders=orders)
        assert got.shape == (len(matrices), big)
        assert sorted(calls) == [
            ("_jacobi_round_robin", (T_LO, T_LO)),
            ("_jacobi_stack", (len(matrices) - 1, big, big)),
        ]
        for row, want, k in zip(got, alone, orders):
            assert same_bits(row[:k], want), k
            assert same_bits(row[k:], np.zeros(big - k))

    def test_padding_stays_positive_zero(self):
        # the lockstep kernel on a padded stack: every block ends with the
        # bits of the list kernel on it alone, and the padding as +0.0
        rng = np.random.default_rng(13)
        matrices = [random_symmetric(rng, k) for k in (5, 2, 11, 5, 8)]
        orders = np.array([len(m) for m in matrices])
        big = orders.max()
        work = np.zeros((len(matrices), big, big))
        targets = np.empty(len(matrices))
        singles = []
        for i, m in enumerate(matrices):
            a, targets[i] = kernel_input(m)
            work[i, : len(m), : len(m)] = a
            assert _jacobi_list(a, 100, targets[i])
            singles.append(a)
        assert _jacobi_stack(work, 100, targets, orders)
        for row, single, k in zip(work, singles, orders):
            assert same_bits(row[:k, :k], single)
            padding = np.concatenate((row[k:].ravel(), row[:k, k:].ravel()))
            assert not padding.any()
            assert not np.signbit(padding).any()

    @pytest.mark.parametrize("orders", [[3, 6], [2, 5, 5], [-1, 2], [2.5, 3.0]])
    def test_rejects_bad_orders(self, orders):
        with pytest.raises(ValueError, match="orders"):
            symmetric_eigenvalues(np.zeros((2, 5, 5)), orders=orders)

    @pytest.mark.parametrize(
        "g",
        [
            generate("path", 2),
            generate("path", 10),
            generate("star", 7),
            generate("cycle", 36),
            subdivision(generate("petersen")),
            subdivision(generate("complete", 9)),
            # P3 beside K_{2,3}
            Graph.from_edges(8, [(0, 1), (1, 2), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7)]),
        ],
        ids=["P2", "P10", "star7", "C36", "S(petersen)", "S(K9)", "P3+K23"],
    )
    def test_bipartite_graph_takes_one_sided_kernel(self, monkeypatch, g):
        shape = _biadjacency(g).shape
        calls = self.spy(monkeypatch)
        values = randic_eigenvalues(g)
        randic_energy(g)
        randic_spectrum(g)
        assert calls == [("_jacobi_one_sided", shape)] * 3
        assert shape[0] <= shape[1] and sum(shape) == g.n
        assert values.shape == (g.n,)

    @pytest.mark.parametrize(
        "g",
        [
            generate("cycle", 3),
            generate("cycle", 5),
            generate("cycle", 33),
            generate("cycle", 61),
            generate("petersen"),
            generate("complete", 3),
            generate("complete", 8),
            generate("complete", 40),
            Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # triangle and pendant
        ],
        ids=["C3", "C5", "C33", "C61", "petersen", "K3", "K8", "K40", "paw"],
    )
    def test_non_bipartite_graph_keeps_two_sided_bits(self, monkeypatch, g):
        want = symmetric_eigenvalues(randic_matrix(g))
        calls = self.spy(monkeypatch)
        values = randic_eigenvalues(g)
        assert calls and {name for name, _ in calls} <= self.TWO_SIDED
        assert same_bits(values, want)
        assert randic_energy(g) == energy_of(want)
        assert randic_spectrum(g).values == tuple(want.tolist())

    def test_verify_and_scan_stay_two_sided(self, monkeypatch):
        # their charpoly and identity verdicts hang on the last bits of the
        # spectra, so they keep solving the full matrices
        calls = self.spy(monkeypatch)
        for g in (generate("path", 6), generate("cycle", 8), generate("star", 5)):
            verify_all(g)
        scan_small_graphs(4, rank_energy=True)
        assert calls and {name for name, _ in calls} <= self.TWO_SIDED

    def test_one_sided_sweep_cap_raises(self):
        b = _biadjacency(subdivision(generate("cycle", 36)))
        with pytest.raises(ConvergenceError, match="one-sided ordering, order 36x36"):
            singular_values(b, max_sweeps=1)
        assert singular_values(b).shape == (36,)


class TestClustering:
    def test_groups_near_values(self):
        reps, mults = cluster_distinct([1.0, 1.0 + 1e-9, 0.5, -0.5, -0.5 + 1e-12])
        assert mults == (2, 1, 2)
        assert reps[0] == pytest.approx(1.0, abs=1e-9)
        assert reps[1] == 0.5
        assert reps[2] == pytest.approx(-0.5, abs=1e-12)

    def test_respects_tolerance(self):
        reps, mults = cluster_distinct([0.0, 1e-3], tol=1e-4)
        assert mults == (1, 1)
        reps, mults = cluster_distinct([0.0, 1e-3], tol=1e-2)
        assert mults == (2,)

    def test_empty(self):
        assert cluster_distinct([]) == ((), ())

    def test_idempotent_on_separated_values(self):
        reps, _ = cluster_distinct([2.0, 2.0 + 1e-10, 1.0, -3.0])
        again, mults = cluster_distinct(reps)
        assert again == reps
        assert mults == (1,) * len(reps)

    def test_spectrum_wrapper(self):
        s = eigenvalues(np.diag([1.0, 1.0, 2.0]))
        assert isinstance(s, Spectrum)
        assert s.k == 2
        assert s.multiplicities == (1, 2)
        assert s.values == (2.0, 1.0, 1.0)


class TestPolynomial:
    def test_basic_accessors(self):
        p = Polynomial((1.0, 0.0, -2.0))  # 1 - 2 x^2
        assert p.degree == 2
        assert p(3.0) == pytest.approx(1 - 18)
        assert p.coefficient(2) == -2.0
        assert p.coefficient(5) == 0.0

    def test_scaled_and_shifted(self):
        p = Polynomial((1.0, 1.0))
        assert p.scaled(3.0).coeffs == (3.0, 3.0)
        assert p.shifted(2).coeffs == (0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            p.shifted(-1)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())

    def test_charpoly_from_roots(self):
        # (x - 1)(x + 2) = x^2 + x - 2
        p = charpoly_from_eigenvalues([1.0, -2.0])
        assert p.coeffs == pytest.approx((-2.0, 1.0, 1.0))
        assert p(1.0) == pytest.approx(0.0, abs=1e-14)
        assert p(-2.0) == pytest.approx(0.0, abs=1e-14)

    def test_charpoly_no_roots(self):
        assert charpoly_from_eigenvalues([]).coeffs == (1.0,)

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_charpoly_vanishes_at_roots(self, roots):
        p = charpoly_from_eigenvalues(roots)
        assert p.degree == len(roots)
        assert p.coeffs[-1] == pytest.approx(1.0)
        for r in roots:
            assert p(r) == pytest.approx(0.0, abs=1e-9)

    # np.poly is the reference the recurrence must reproduce bit for bit
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-3.0, max_value=3.0),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
            ),
            max_size=40,
        ).flatmap(lambda roots: st.permutations(roots + roots[: len(roots) // 2]))
    )
    @settings(max_examples=200, deadline=None)
    @example([0.0, 0.0, 0.0])
    @example([1.0, 1.0, -1.0, -1.0, 0.0])
    def test_charpoly_equals_np_poly(self, roots):
        expected = np.poly(np.array(roots))[::-1] if roots else np.ones(1)
        assert same_bits(np.array(charpoly_from_eigenvalues(roots).coeffs), expected)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_charpoly_equals_np_poly_on_graph_spectra(self, order):
        # the R and R(S) spectra of every connected graph of the order, as
        # one stack per matrix order and one row at a time
        by_order: dict[int, list[np.ndarray]] = {}
        for g in enumerate_connected_graphs(order):
            for h in (g, subdivision(g)):
                rho = symmetric_eigenvalues(randic_matrix(h))
                by_order.setdefault(len(rho), []).append(rho)
        for rows in by_order.values():
            stack = charpoly_coefficients(np.array(rows))
            for rho, coeffs in zip(rows, stack):
                expected = np.poly(rho)
                assert same_bits(coeffs, expected)
                assert same_bits(np.array(charpoly_from_eigenvalues(rho).coeffs), expected[::-1])

    def test_substitute_quadratic_known_expansion(self):
        # t(t-1)(t-2) = t^3 - 3t^2 + 2t; with t = 2x^2:
        # 8x^6 - 12x^4 + 4x^2
        p = Polynomial((0.0, 2.0, -3.0, 1.0))
        q = substitute_quadratic(p, 2.0)
        assert q.coeffs == (0.0, 0.0, 4.0, 0.0, -12.0, 0.0, 8.0)

    @given(
        coeffs=st.lists(
            st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6
        ),
        a=st.floats(min_value=-2.0, max_value=2.0),
        x=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_substitute_quadratic_pointwise(self, coeffs, a, x):
        p = Polynomial(tuple(coeffs))
        q = substitute_quadratic(p, a)
        assert q(x) == pytest.approx(p(a * x * x), abs=1e-8, rel=1e-8)

    def test_coefficient_residual_pads_and_scales(self):
        p = Polynomial((1.0, 2.0))
        q = Polynomial((1.0, 2.0, 0.0, 0.0))
        assert coefficient_residual(p, q) == 0.0
        r = Polynomial((1.0, 2.0, 100.0))
        # gap of 100 against a largest coefficient of 100
        assert coefficient_residual(p, r) == pytest.approx(1.0)

    def test_product_over_roots_annihilates(self):
        m = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(product_over_roots(m, [1.0, 2.0, 3.0]), 0.0)
        partial = product_over_roots(m, [2.0, 3.0])
        assert partial[0, 0] == pytest.approx((1 - 2) * (1 - 3))
        assert partial[1, 1] == pytest.approx(0.0)
