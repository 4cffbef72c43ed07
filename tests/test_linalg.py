import functools
import importlib
import json
import math
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randic.linalg
from randic.errors import ConvergenceError
from randic.graphs import (
    Graph,
    _connected_masks,
    edge_mask_count,
    enumerate_connected_graphs,
    generate,
    subdivision,
)
from randic.cli import load_graph
from randic.identities import (
    SCAN_CHUNK,
    _chunk_matrices,
    _scan_spectra,
    scan_small_graphs,
    verify_all,
    verify_subdivision_energy,
)
from randic.linalg import (
    CLUSTER_TOL,
    CONVERGENCE_RTOL,
    ROUND_ROBIN_MIN_ORDER,
    Polynomial,
    Spectrum,
    charpoly_coefficients,
    charpoly_from_eigenvalues,
    cluster_distinct,
    cluster_rows,
    coefficient_residual,
    _jacobi_list,
    _jacobi_one_sided,
    _jacobi_round_robin,
    _jacobi_stack,
    _off_norm,
    _frobenius_norms,
    _off_norms,
    _one_sided_rounds,
    _prepared,
    _round_robin_schedule,
    _strict_upper,
    product_over_root_rows,
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

T_LO = ROUND_ROBIN_MIN_ORDER
T_HI = 128  # a large round-robin order; tests run on both sides of it


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a + a.T


def sorted_masks(order: int, step: int = 1) -> np.ndarray:
    """Every ``step``-th connected edge mask of ``order``, in mask order,
    then sorted by edge count as a scan sorts a chunk."""
    masks = list(_connected_masks(order, 0, edge_mask_count(order)))[::step]
    return np.array(sorted(masks, key=int.bit_count), dtype=np.int64)


def triangular_graph(k: int) -> Graph:
    """T(k), the line graph of K_k: strongly regular, of order k(k - 1)/2."""
    vertices = list(combinations(range(k), 2))
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[v]) for u, v in combinations(vertices, 2) if set(u) & set(v)]
    return Graph.from_edges(len(vertices), edges)


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
        n=st.integers(min_value=T_LO, max_value=160),
    )
    @example(seed=0, n=T_LO)
    @example(seed=1, n=T_LO + 1)
    @example(seed=2, n=T_HI - 1)
    @example(seed=3, n=T_HI)
    @example(seed=4, n=T_HI + 1)
    @example(seed=5, n=160)
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

    @pytest.mark.parametrize(
        "g", [generate("cycle", 161), triangular_graph(18)], ids=["C161", "T(18)"]
    )
    def test_graphs_above_128_match_lapack_oracle(self, g):
        # non-bipartite, so two-sided: round-robin order, N = 161 and 153
        m = randic_matrix(g)
        oracle = np.linalg.eigvalsh(m)[::-1]
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.max(np.abs(symmetric_eigenvalues(m) - oracle)) < 1e-11 * scale

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

    def test_sweep_cap_raises(self, monkeypatch):
        # the message names the ordering that ran out of sweeps, below the
        # round-robin threshold and above it, for one matrix and for a stack
        monkeypatch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 0)
        rng = np.random.default_rng(8)
        for n, ordering in [(10, "row-major"), (T_LO, "round-robin"), (T_HI + 1, "round-robin")]:
            m = random_symmetric(rng, n)
            for arg in (m, np.array([m, random_symmetric(rng, n)])):
                with pytest.raises(ConvergenceError, match=f"{ordering} ordering, order {n}"):
                    symmetric_eigenvalues(arg)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, T_LO, T_LO + 1, T_HI])
    def test_round_robin_schedule(self, n):
        ps, qs = _round_robin_schedule(n)
        assert ps.shape == qs.shape == (n - 1 + n % 2, n // 2)
        assert np.all(ps < qs) and np.all(qs < n)
        for row in np.hstack((ps, qs)):
            assert len(set(row.tolist())) == row.size  # a round's pairs are disjoint
        pairs = {(int(p), int(q)) for p, q in zip(ps.ravel(), qs.ravel())}
        assert len(pairs) == ps.size == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [2, 5, 6, T_LO])
    def test_round_robin_schedule_is_cached_read_only(self, n):
        ps, qs = _round_robin_schedule(n)
        again = _round_robin_schedule(n)
        assert again[0] is ps and again[1] is qs
        # the cached arrays are those of a fresh build
        fresh = _round_robin_schedule.__wrapped__(n)
        assert same_bits(ps, fresh[0]) and same_bits(qs, fresh[1])
        for x in (ps, qs):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0] = 0

    @pytest.mark.parametrize("k", [2, 3, 5, 6, T_LO + 1])
    def test_one_sided_rounds_are_cached_read_only(self, k):
        index, pairs = _one_sided_rounds(k)
        again = _one_sided_rounds(k)
        assert again[0] is index and again[1] is pairs
        # one gather index per round, the schedule's (p; q; p; p; q; q), and
        # its (p; q) third as the round's pair index
        ps, qs = _round_robin_schedule(k)
        assert same_bits(index, np.stack((ps, qs, ps, ps, qs, qs), axis=1))
        assert same_bits(pairs, np.stack((ps, qs), axis=1))
        assert pairs.shape == (len(ps), 2, k // 2)
        for x in (index, pairs):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0, 0] = 0
        # bounded like the schedule's own cache, one entry per block height
        assert _one_sided_rounds.cache_info().maxsize == _round_robin_schedule.cache_info().maxsize == 64

    def test_round_robin_keeps_symmetry(self):
        a = random_symmetric(np.random.default_rng(9), T_LO + 1)
        target = 1e-12 * float(np.linalg.norm(a))
        assert not _jacobi_round_robin(a, 1, target)
        assert same_bits(a, a.T.copy())

    @pytest.mark.parametrize("n", [T_LO, T_LO + 1, T_HI])
    def test_diagonal_input_returns_at_once(self, monkeypatch, n):
        monkeypatch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 0)
        m = np.diag(np.arange(n, dtype=np.float64))
        before = m.copy()
        vals = symmetric_eigenvalues(m)
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

    def test_orthogonal_rows_return_at_once(self, monkeypatch):
        monkeypatch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 1)
        b = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, -4.0]])
        before = b.copy()
        assert same_bits(singular_values(b), np.array([4.0, 3.0]))
        assert same_bits(b, before)

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 0)
        b = np.random.default_rng(4).standard_normal((6, 9))
        with pytest.raises(ConvergenceError, match="one-sided ordering, order 6x9"):
            singular_values(b)

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (2, 3, 2)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="n <= m"):
            singular_values(np.ones(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(np.array([[1.0, np.nan]]))


def one_sided_alone(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``reference_one_sided`` on a copy of one block: the rotated block and
    its row norms."""
    a = block.copy()
    assert reference_one_sided(a, 100)
    return a, np.sqrt(np.einsum("ij,ij->i", a, a))


def stack_solved(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_jacobi_one_sided`` on a copy of a (B, k, w) stack: the rotated
    stack and its row norms."""
    stack = blocks.copy()
    assert _jacobi_one_sided(stack, 100)
    return stack, np.sqrt(np.einsum("bij,bij->bi", stack, stack))


class TestOneSidedStack:
    """The one-sided kernel gives every block of a stack the bits that the
    frozen single-block kernel gives it alone, and ``singular_values`` takes
    stacks."""

    @staticmethod
    def subdivision_blocks(order: int, step: int = 1):
        # every step-th connected graph of the order, as the scan groups
        # them: one stack of blocks B of R(S(G)) per edge count
        _, _, groups = _chunk_matrices(order, sorted_masks(order, step), True)
        return [block for _, block in groups]

    @pytest.mark.parametrize("order,step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 31)])
    def test_bits_equal_single_kernel_on_scan_groups(self, order, step):
        for blocks in self.subdivision_blocks(order, step):
            stack, norms = stack_solved(blocks)
            values = singular_values(blocks)
            for block, got, got_norms, row in zip(blocks, stack, norms, values):
                want, want_norms = one_sided_alone(block)
                assert np.array_equal(got, want)
                assert same_bits(got_norms, want_norms)
                assert same_bits(row, np.sort(want_norms)[::-1])

    def test_bits_equal_single_kernel_on_mixed_blocks(self):
        # blocks that stop at different sweeps, rank-deficient ones and
        # scales far apart, each against its own floor
        rng = np.random.default_rng(21)
        k, w = 5, 8
        low_rank = rng.standard_normal((k, 2)) @ rng.standard_normal((2, w))
        blocks = np.array(
            [
                np.eye(k, w),  # orthogonal rows: nothing rotates
                rng.standard_normal((k, w)),
                1e-9 * rng.standard_normal((k, w)),
                1e9 * rng.standard_normal((k, w)),
                low_rank,
                np.zeros((k, w)),
            ]
        )
        stack, norms = stack_solved(blocks)
        for block, got, got_norms in zip(blocks, stack, norms):
            want, want_norms = one_sided_alone(block)
            assert np.array_equal(got, want)
            assert same_bits(got_norms, want_norms)
        for block, row in zip(blocks, singular_values(blocks)):
            assert same_bits(row, singular_values(block))

    @pytest.mark.parametrize(
        "kind,orders",
        [
            ("star", range(3, 63)),
            ("path", range(2, 63)),
            ("cycle", range(3, 63)),
            ("complete", range(3, 31)),
        ],
    )
    def test_bits_equal_single_kernel_on_subdivisions(self, kind, orders):
        # the blocks B of S(star/path/cycle/complete n), each as a stack of
        # one: S(star n) and S(K_n) idle in many of their rounds
        for n in orders:
            block = _biadjacency(subdivision(generate(kind, n)))
            stack, norms = stack_solved(block[None])
            want, want_norms = one_sided_alone(block)
            assert np.array_equal(stack[0], want), n
            assert same_bits(norms[0], want_norms), n

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=0, max_value=6),
        k=st.integers(min_value=0, max_value=12),
        extra=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack_oracle(self, seed, count, k, extra):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-6, 7, size=(count, 1, 1))
        stack = scales * rng.standard_normal((count, k, k + extra))
        values = singular_values(stack)
        assert values.shape == (count, k)
        for block, row in zip(stack, values):
            scale = max(1.0, float(np.linalg.norm(block)))
            assert np.all(np.diff(row) <= 0)
            oracle = np.linalg.svd(block, compute_uv=False)
            assert np.max(np.abs(row - oracle), initial=0.0) < 1e-11 * scale

    def test_every_shape_takes_one_kernel_call(self, monkeypatch):
        # a block, a stack of one and a stack of two: one call each, on the
        # (B, k, w) stack
        import randic.linalg as linalg

        calls = []
        kernel = linalg._jacobi_one_sided

        def spied(a, *args):
            calls.append(a.shape)
            return kernel(a, *args)

        monkeypatch.setattr(linalg, "_jacobi_one_sided", spied)
        b = np.random.default_rng(2).standard_normal((1, 4, 7))
        single = singular_values(b[0])
        assert calls == [(1, 4, 7)]
        calls.clear()
        values = singular_values(b)
        assert calls == [(1, 4, 7)]
        assert values.shape == (1, 4)
        assert same_bits(values[0], single)
        calls.clear()
        singular_values(np.concatenate((b, b)))
        assert calls == [(2, 4, 7)]

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 0)
        stack = np.random.default_rng(4).standard_normal((3, 6, 9))
        with pytest.raises(ConvergenceError, match="one-sided ordering, order 6x9"):
            singular_values(stack)
        assert not _jacobi_one_sided(stack.copy(), 1)

    def test_input_is_not_mutated(self):
        stack = np.random.default_rng(5).standard_normal((4, 3, 5))
        before = stack.copy()
        singular_values(stack)
        assert same_bits(stack, before)

    def test_any_memory_layout(self):
        # a transposed or strided stack gives the bits of its C-ordered copy
        base = np.random.default_rng(6).standard_normal((3, 7, 4))
        views = [
            np.transpose(base, (0, 2, 1)),
            np.asfortranarray(base[:, :4, :]),
            base[::2, :3, ::-1],
        ]
        for view in views:
            assert not view.flags.c_contiguous
            assert same_bits(singular_values(view), singular_values(np.ascontiguousarray(view)))
            for block, row in zip(view, singular_values(view)):
                assert same_bits(row, singular_values(block))

    def test_kernel_refuses_a_stack_it_cannot_rotate_in_place(self):
        stack = np.asfortranarray(np.random.default_rng(7).standard_normal((2, 3, 5)))
        with pytest.raises(ValueError, match="C-contiguous"):
            _jacobi_one_sided(stack, 100)

    def test_rejects_non_finite(self):
        stack = np.ones((3, 2, 4))
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(stack)

    def test_empty_stack(self):
        assert singular_values(np.zeros((0, 3, 5))).shape == (0, 3)


def spy_rounds(monkeypatch, on_round) -> None:
    """Call on_round(r, hit) for each round r that the one-sided kernel
    runs, with the rule's verdict on its pairs, before the round writes."""
    import randic.linalg as linalg

    ran = []
    rule, schedule = linalg._live_pairs, linalg._one_sided_rounds

    class Logged(np.ndarray):
        # a round reads its gather index as index[r], by its number
        def __getitem__(self, key):
            if isinstance(key, int):
                ran.append(key)
            return super().__getitem__(key)

    def logged_schedule(k):
        index, pairs = schedule(k)
        return index.view(Logged), pairs

    def round_rule(alpha, beta, gamma, *args):
        hit = rule(alpha, beta, gamma, *args)
        # a round passes its pairs as a (pairs, 1) column, a look-ahead as
        # a (B, rounds, pairs) array
        if gamma.ndim == 2:
            on_round(ran[-1], hit)
        return hit

    monkeypatch.setattr(linalg, "_one_sided_rounds", logged_schedule)
    monkeypatch.setattr(linalg, "_live_pairs", round_rule)


class TestSweepLookAhead:
    """The one-sided kernel skips idle rounds by a look-ahead, one Gram
    ``einsum`` that decides every round of a sweep: after a sweep with an
    idle round, and in a single block after each idle round.  The premise
    the look-ahead rests on, the sweep cap it must keep, and the rounds it
    saves."""

    @staticmethod
    def random_stacks(seed: int, count: int):
        # sparse (B, k, w) stacks with zero rows and rows scaled 1e-9 to 1e9
        rng = np.random.default_rng(seed)
        for _ in range(count):
            b, k, w = int(rng.integers(1, 5)), int(rng.integers(2, 50)), int(rng.integers(1, 131))
            x = rng.standard_normal((b, k, w)) * 10.0 ** rng.integers(-9, 10, size=(b, k, 1))
            x[rng.random((b, k, w)) < rng.random()] = 0.0
            x[:, rng.random(k) < 0.2] = 0.0
            yield x

    @pytest.mark.parametrize("seed", range(4))
    def test_gram_einsum_has_the_bits_of_row_products(self, seed):
        # if numpy ever reduces the two forms differently, the look-ahead
        # would decide pairs on other bits than the rounds: fail here first
        for x in self.random_stacks(seed, 100):
            b, k, w = x.shape
            gram = np.einsum("bij,bkj->bik", x, x)
            flat = x.reshape(b * k, w)
            p, q = np.triu_indices(k, 1)
            offsets = k * np.arange(b)[:, None]
            rows_p = flat.take((p + offsets).ravel(), axis=0)
            rows_q = flat.take((q + offsets).ravel(), axis=0)
            assert same_bits(gram[:, p, q].ravel(), np.einsum("ij,ij->i", rows_p, rows_q))
            assert same_bits(
                np.diagonal(gram, axis1=1, axis2=2).ravel(), np.einsum("ij,ij->i", flat, flat)
            )
            # a round's form: the (p; q; p) and (p; q; q) halves of a gather
            rows = np.stack((rows_p, rows_q, rows_p, rows_p, rows_q, rows_q))
            products = np.einsum("kij,kij->ki", rows[:3], rows[3:])
            norms = np.diagonal(gram, axis1=1, axis2=2)
            want = np.stack((norms[:, p], norms[:, q], gram[:, p, q])).reshape(3, -1)
            assert same_bits(products, want)

    @staticmethod
    def capped_blocks():
        for kind, low in (("star", 3), ("path", 3), ("cycle", 3)):
            for n in range(low, 63, 4):
                yield _biadjacency(subdivision(generate(kind, n)))
        rng = np.random.default_rng(11)
        for k, w in ((2, 2), (3, 7), (6, 9), (12, 12), (20, 33)):
            yield rng.standard_normal((k, w))
            yield 1e-9 * rng.standard_normal((k, 2)) @ rng.standard_normal((2, w))
            yield np.eye(k, w)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_sweep_cap_and_return_value_unchanged(self, cap):
        outcomes = []
        for block in self.capped_blocks():
            got, want = block[None].copy(), block.copy()
            returned = _jacobi_one_sided(got, cap)
            assert returned == reference_one_sided(want, cap), block.shape
            assert same_bits(got[0], want), block.shape
            outcomes.append(returned)
        assert True in outcomes and False in outcomes
        # S(star n) for n >= 4 rotates in its first sweep and idles in its
        # second: one sweep short of its idle sweep, the look-ahead must not
        # stand in for it
        star = _biadjacency(subdivision(generate("star", 9)))[None]
        assert _jacobi_one_sided(star.copy(), cap) == (cap > 1)

    @staticmethod
    def spied_steps(monkeypatch) -> list:
        """The kernel's steps as it takes them: ("round", r, rotated) for each
        round r it runs, and ("look-ahead", flags) for each look-ahead, with
        its verdict on every round of a sweep."""
        import randic.linalg as linalg

        steps = []
        look = linalg._live_rounds
        spy_rounds(monkeypatch, lambda r, hit: steps.append(("round", r, bool(hit.any()))))

        def look_ahead(*args):
            flags = look(*args)
            steps.append(("look-ahead", flags.tolist()))
            return flags

        monkeypatch.setattr(linalg, "_live_rounds", look_ahead)
        return steps

    def test_star_subdivisions_jump_over_idle_rounds(self, monkeypatch):
        steps = self.spied_steps(monkeypatch)
        for n in range(3, 51):
            block = _biadjacency(subdivision(generate("star", n)))
            rounds = len(_round_robin_schedule(len(block))[0])
            # the frozen kernel runs two sweeps: one that rotates, one idle
            assert not reference_one_sided(block.copy(), 1)
            assert reference_one_sided(block.copy(), 2)
            steps.clear()
            assert _jacobi_one_sided(block[None].copy(), 100)
            if rounds == 1:
                # S(star 3): the one round rotates, and the one round of the
                # idle sweep is its last, so no look-ahead runs
                assert steps == [("round", 0, True), ("round", 0, False)], n
                continue
            assert steps[0] == ("round", 0, True), n
            for before, step, after in zip([None] + steps, steps, steps[1:] + [None]):
                if step[0] == "round":
                    _, r, rotated = step
                    if not rotated and r + 1 < rounds:
                        # an idle round with rounds after it: a look-ahead
                        assert after is not None and after[0] == "look-ahead", n
                    elif after is not None and after[0] == "round":
                        # the next round in order, or the first of a sweep
                        # after a sweep with no idle round
                        assert after[1] == (r + 1) % rounds and rotated, n
                    continue
                flags = step[1]
                assert before[0] == "round", n
                # inside a sweep the look-ahead runs from the round after
                # the idle one; at a sweep's start, from its first round
                start = before[1] + 1 if before[1] + 1 < rounds else 0
                assert not before[2] or start == 0, n
                named = [j for j in range(start, rounds) if flags[j]]
                if not named and start:
                    # none left: the sweep ends, and the flags stand for the
                    # next sweep's check
                    named = [j for j in range(rounds) if flags[j]]
                if named:
                    # the round run next is the one named, and it rotates
                    assert after == ("round", named[0], True), n
                else:
                    assert after is None, n
            if n >= 6:
                # fewer rounds than the sweep that rotates, let alone both
                assert sum(step[0] == "round" for step in steps) < rounds, n

    def test_star_stacks_look_ahead_only_at_a_sweep_start(self, monkeypatch):
        # a stack's round idles only when all its blocks' do: two star
        # blocks run their sweep in full, then one look-ahead stands for the
        # idle sweep
        steps = self.spied_steps(monkeypatch)
        for n in range(3, 51):
            block = _biadjacency(subdivision(generate("star", n)))
            rounds = len(_round_robin_schedule(len(block))[0])
            steps.clear()
            assert _jacobi_one_sided(np.array([block, block]), 100)
            kinds = [step[0] for step in steps]
            if rounds == 1:
                assert kinds == ["round", "round"], n
            else:
                assert kinds == ["round"] * rounds + ["look-ahead"], n
                assert [step[1] for step in steps[:-1]] == list(range(rounds)), n
                assert not any(steps[-1][1]), n


class TestLonePairRounds:
    """When exactly one pair of the whole stack rotates in a round of the
    one-sided kernel, that pair is rotated on numpy float64 scalars by the
    same ``_rotation``.  After S(star n)'s first round most rounds are such
    rounds.  The kernel keeps the bits and return values of the frozen
    single-block kernel where the path runs, and the scalar form of the
    rotation has the bits of the array form."""

    CAPS = [1, 2, 3, 100]

    @staticmethod
    def spied_lone_pairs(monkeypatch) -> list:
        """One entry per lone-pair round the kernel runs: a ``_rotation``
        call on scalars rather than on an array of pairs."""
        import randic.linalg as linalg

        lone = []
        rotation = linalg._rotation

        def spied(d, twice):
            if np.ndim(d) == 0:
                lone.append(d)
            return rotation(d, twice)

        monkeypatch.setattr(linalg, "_rotation", spied)
        return lone

    @staticmethod
    def assert_reference_bits(stack: np.ndarray, cap: int) -> None:
        got = stack.copy()
        returned = _jacobi_one_sided(got, cap)
        outcomes = []
        for block, rotated in zip(stack, got):
            want = block.copy()
            outcomes.append(reference_one_sided(want, cap))
            assert same_bits(rotated, want), (stack.shape, cap)
        # a stack stops at the sweep in which its last block idles
        assert returned == all(outcomes), (stack.shape, cap)

    @staticmethod
    def family_blocks(kinds):
        # S(G) of the families the verdict table covers, orders up to 62
        low = {"star": 3, "cycle": 3, "complete": 2, "path": 2}
        for kind in kinds:
            for n in range(low[kind], 63):
                yield _biadjacency(subdivision(generate(kind, n)))

    @staticmethod
    def lone_pair_stacks():
        # (stack, whether it must take the path): a star block beside
        # blocks that never rotate (orthogonal rows, a solved star, a zero
        # block), so that after the first round the stack's rounds rotate
        # the star's one pair, a single pair in the whole stack; and random
        # blocks beside a solved copy of themselves, whose last rounds may
        rng = np.random.default_rng(29)
        for n in range(4, 63, 3):
            star = _biadjacency(subdivision(generate("star", n)))
            solved = star.copy()
            assert reference_one_sided(solved, 100)
            k, w = star.shape
            others = [np.eye(k, w), solved, np.zeros((k, w)), 1e-9 * np.eye(k, w)[::-1]]
            size = 2 + n % 3
            yield np.array([star] + others[: size - 1]), True
            yield np.array(others[: size - 1][::-1] + [star]), True
        for k, w in ((2, 3), (3, 3), (5, 9), (8, 8), (13, 21)):
            block = rng.standard_normal((k, w)) * 10.0 ** rng.integers(-9, 10, size=(k, 1))
            solved = block.copy()
            assert reference_one_sided(solved, 100)
            yield np.array([solved, block]), False
            yield np.array([block, solved, np.eye(k, w)]), False

    @pytest.mark.parametrize("cap", CAPS)
    def test_star_subdivisions(self, monkeypatch, cap):
        lone = self.spied_lone_pairs(monkeypatch)
        for block in self.family_blocks(["star"]):
            self.assert_reference_bits(block[None], cap)
        assert lone

    @pytest.mark.parametrize("cap", CAPS)
    def test_family_subdivisions(self, monkeypatch, cap):
        lone = self.spied_lone_pairs(monkeypatch)
        for block in self.family_blocks(["complete", "path", "cycle"]):
            self.assert_reference_bits(block[None], cap)
        assert lone

    @pytest.mark.parametrize("cap", CAPS)
    def test_random_stacks(self, monkeypatch, cap):
        # zero rows and rows scaled 1e-9 to 1e9
        lone = self.spied_lone_pairs(monkeypatch)
        for stack in TestSweepLookAhead.random_stacks(cap, 60):
            self.assert_reference_bits(stack, cap)
        assert lone

    @pytest.mark.parametrize("cap", CAPS)
    def test_stacks_with_one_rotating_pair(self, monkeypatch, cap):
        lone = self.spied_lone_pairs(monkeypatch)
        for stack, must in self.lone_pair_stacks():
            before = len(lone)
            self.assert_reference_bits(stack, cap)
            assert len(lone) > before or not must, stack.shape

    def test_star_50_rounds(self, monkeypatch):
        # S(star 50): one round rotates all 24 pairs, the 24 after it one
        # pair each, and the two look-aheads stand for the rest
        lone = self.spied_lone_pairs(monkeypatch)
        block = _biadjacency(subdivision(generate("star", 50)))
        assert _jacobi_one_sided(block[None].copy(), 100)
        assert len(lone) == 24

    def test_scalar_rotation_has_the_bits_of_the_array_form(self):
        # if numpy's scalar math ever rounds otherwise than its array
        # loops, the lone-pair rounds would move bits: fail here first
        rng = np.random.default_rng(31)
        size = 4000
        d = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
        twice = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
        near = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
        special = [
            (0.0, 1.0), (-0.0, 1.0), (0.0, -3e-7), (-2.5, 1.0), (-1e-300, 2e-300),
            (1.0, 1e-20), (-1.0, 1e-20), (1e-20, 1.0), (-1e-20, -1.0),
            (1e300, 1e300), (-1e300, 1e-300), (1e-300, 1e300), (1.7e308, 1.7e308),
            (5e-324, 5e-324), (1e-310, -1e-310), (1.0, 1.0), (-1.0, -1.0),
        ]
        d = np.concatenate((d, near, [x for x, _ in special]))
        twice = np.concatenate((twice, near[::-1], [y for _, y in special]))
        with np.errstate(all="ignore"):
            arrays = randic.linalg._rotation(d, twice)
            scalars = [randic.linalg._rotation(x, y) for x, y in zip(d, twice)]
        assert all(type(value) is np.float64 for one in scalars for value in one)
        for array, column in zip(arrays, zip(*scalars)):
            assert same_bits(array, np.array(column))
        # the cases the kernel meets, a nonzero twice, give finite rotations
        assert np.isfinite(arrays[1]).all() and np.isfinite(arrays[2]).all()


@functools.lru_cache(maxsize=1)
def roster_blocks() -> tuple[np.ndarray, ...]:
    """The blocks B of R(S(G)) and of every bipartite R(G) over the verify
    rosters of seeds 1, 1404 and 7 in golden/verdicts.json, each once."""
    table = json.loads((Path(__file__).parent / "golden" / "verdicts.json").read_text())
    blocks = {}
    for seed in (1, 1404, 7):
        for token in table["rosters"][str(seed)]:
            g = load_graph(token)
            for block in (_biadjacency(subdivision(g)), _biadjacency(g)):
                if block is not None:
                    blocks.setdefault((block.shape, block.tobytes()), block)
    return tuple(blocks.values())


def signed_zero_stacks():
    """Blocks with -0.0 entries and two rows of -0.0 alone, and stacks of
    such a block beside blocks that never rotate: -I, whose rows have equal
    norms and a zero dot product, and -0.0 throughout."""
    rng = np.random.default_rng(41)
    for k, w in ((4, 6), (7, 9), (10, 15), (12, 21)):
        block = rng.standard_normal((k, w))
        block[rng.random((k, w)) < 0.3] = -0.0
        block[-2:] = -0.0
        yield block[None]
        yield np.array([-np.eye(k, w), block, np.full((k, w), -0.0)])


class TestRoundWrites:
    """A one-sided round gathers its rows with one ``take`` and writes both
    rows of all its pairs with one fancy assignment.  A round in which only
    some pairs rotate computes every pair's rotation and gives the pairs
    that do not rotate their rows back.  The kernel keeps the bits and
    return values of the frozen single-block kernel on the blocks ``verify``
    solves, the rows that do not rotate keep their bytes, and a pair that
    cannot rotate warns of nothing."""

    CAPS = [1, 2, 3, 100]

    @pytest.mark.parametrize("cap", CAPS)
    def test_roster_blocks_keep_the_reference_bits(self, cap):
        groups = {}
        for block in roster_blocks():
            want = block.copy()
            outcome = reference_one_sided(want, cap)
            got = block[None].copy()
            assert _jacobi_one_sided(got, cap) == outcome, block.shape
            assert got[0].tobytes() == want.tobytes(), block.shape
            groups.setdefault(block.shape, []).append((block, want, outcome))
        # the blocks of one shape as one stack, as a scan would solve them
        for members in groups.values():
            stack = np.array([block for block, _, _ in members])
            assert _jacobi_one_sided(stack, cap) == all(outcome for _, _, outcome in members)
            for got, (_, want, _) in zip(stack, members):
                assert got.tobytes() == want.tobytes(), stack.shape

    @pytest.mark.parametrize("cap", CAPS)
    def test_rows_that_do_not_rotate_keep_their_bytes(self, monkeypatch, cap):
        # each round the kernel runs: its number, which of its pairs rotate,
        # and the stack being solved as the round found it
        rounds, watched = [], [None]
        spy_rounds(monkeypatch, lambda r, hit: rounds.append((r, hit.ravel(), watched[0].copy())))
        stacks = list(signed_zero_stacks()) + list(TestSweepLookAhead.random_stacks(cap, 30))
        partial = kept_zeros = 0
        for stack in stacks:
            count, k, w = stack.shape
            work = watched[0] = stack.copy()
            rounds.clear()
            returned = _jacobi_one_sided(work, cap)
            # every block as the frozen kernel leaves it alone
            outcomes = []
            for block, got in zip(stack, work):
                want = block.copy()
                outcomes.append(reference_one_sided(want, cap))
                assert got.tobytes() == want.tobytes(), stack.shape
            assert returned == all(outcomes), stack.shape
            # round by round: the rows outside the pairs that rotate are
            # written with the bytes they had
            _, pairs = _one_sided_rounds(k)
            after = [snapshot for _, _, snapshot in rounds[1:]] + [work]
            for (r, hit, before), later in zip(rounds, after):
                rows = (pairs[r][:, None, :] + k * np.arange(count)[:, None]).reshape(2, -1)
                moved = np.zeros(count * k, dtype=bool)
                moved[rows[:, hit].ravel()] = True
                old = before.reshape(count * k, w)[~moved]
                assert old.tobytes() == later.reshape(count * k, w)[~moved].tobytes()
                if 1 < hit.sum() < hit.size:
                    partial += 1
                    kept = before.reshape(count * k, w)[rows[:, ~hit].ravel()]
                    kept_zeros += int(np.sum((kept == 0.0) & np.signbit(kept)))
        # the array path's partial rounds ran, on rows holding -0.0
        assert partial and kept_zeros

    def test_null_pair_beside_rotating_pairs_warns_nothing(self, monkeypatch):
        # two null rows meet in a round whose other pairs rotate: their
        # rotation divides zero by zero, and it is dropped unseen
        import randic.linalg as linalg

        rotated = linalg._rotated_rows
        null_pairs = []

        def spied(x, alpha, beta, gamma):
            null = (alpha == 0.0) & (beta == 0.0) & (gamma == 0.0)
            null_pairs.append(int(null.sum()))
            return rotated(x, alpha, beta, gamma)

        monkeypatch.setattr(linalg, "_rotated_rows", spied)
        rng = np.random.default_rng(43)
        for k, w in ((6, 9), (8, 11), (11, 16)):
            block = rng.standard_normal((k, w))
            block[k - 2 :] = 0.0
            for stack in (block[None], np.array([block, np.eye(k, w)])):
                got = stack.copy()
                with warnings.catch_warnings(), np.errstate(divide="warn", invalid="warn"):
                    warnings.simplefilter("error")
                    returned = _jacobi_one_sided(got, 100)
                for block_in, block_out in zip(stack, got):
                    want = block_in.copy()
                    assert reference_one_sided(want, 100) and returned
                    assert block_out.tobytes() == want.tobytes()
        assert any(null_pairs)


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


def reference_one_sided(b: np.ndarray, max_sweeps: int) -> bool:
    """The single-block one-sided kernel, kept frozen: one (n, m) block, its
    floor a Python float, the rotation written out.  Mutates ``b`` like the
    kernel."""
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
            d = beta - alpha
            twice = 2.0 * gamma
            t = twice / (d + np.copysign(np.hypot(d, twice), d))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            c2 = np.concatenate((c, c))[:, None]
            s2 = np.concatenate((s, -s))[:, None]
            b[idx] = c2 * rows - s2 * b[swap]
        if not rotated:
            return True
    return False


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
    """The row-major kernels, single and stacked, reproduce the reference loop
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
        # the acceptance-01 matrices below the round-robin threshold, N =
        # 5..31, solved two-sided as raw R(S); randic_eigenvalues solves
        # them one-sided
        for n in range(3, (T_LO + 1) // 2 + 1):
            m = randic_matrix(subdivision(generate("star", n)))
            want, _ = reference_jacobi(m)
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

    def test_stack_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 0)
        rng = np.random.default_rng(8)
        stack = np.array([random_symmetric(rng, 6) for _ in range(4)])
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues(stack)


class TestKernelBits:
    """The list kernel, the round-robin kernel and the stack off-norm give
    the bits of the kernels they replace."""

    @pytest.mark.parametrize("n", range(1, T_LO))
    def test_list_kernel_random(self, n):
        rng = np.random.default_rng(2000 + n)
        for _ in range(2):
            m = random_symmetric(rng, n)
            a, target = kernel_input(m)
            assert _jacobi_list(a, 100, target)
            want, _ = reference_jacobi(m)
            assert same_bits(np.sort(np.diagonal(a))[::-1], want)

    def test_list_kernel_graphs(self):
        for g, m in graph_matrices(T_LO - 1):
            a, target = kernel_input(m)
            assert _jacobi_list(a, 100, target)
            want, _ = reference_jacobi(m)
            assert same_bits(np.sort(np.diagonal(a))[::-1], want), (g.n, g.edges)

    def test_list_kernel_rotates_nan(self):
        # abs(nan) <= skip is false, so a NaN entry is rotated and spreads,
        # as in the row-major scalar loop, rather than being skipped
        m = random_symmetric(np.random.default_rng(6), 5)
        m[1, 3] = m[3, 1] = np.nan
        a = m.copy()
        assert not _jacobi_list(a, 2, 1e-12)
        assert np.isnan(a).sum() > 2

    @pytest.mark.parametrize("n", [T_LO, T_LO + 1, 47, 64, 101, T_HI - 1, T_HI, T_HI + 1, 160])
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

    @pytest.mark.parametrize("order", [4, 5, 6, 7])
    def test_stack_kernel_on_scan_chunks(self, order):
        # every two-sided stack a scan solves, chunk by chunk, for orders
        # 4-6 and a slice of order 7: the lockstep kernel, on its
        # matrix-last copy, leaves each matrix with the bytes that the list
        # kernel gives it alone, off-diagonal roundoff and signed zeros too
        if order < 7:
            masks = list(_connected_masks(order, 0, edge_mask_count(order)))
        else:
            masks = list(_connected_masks(7, 1_500_000, 1_504_000))
        for lo in range(0, len(masks), SCAN_CHUNK):
            chunk = np.array(sorted(masks[lo : lo + SCAN_CHUNK], key=int.bit_count), dtype=np.int64)
            r, blocks, _ = _chunk_matrices(order, chunk, False)
            two_sided = np.ones(len(r), dtype=bool)
            for rows, _ in blocks:
                two_sided[rows] = False
            work, target = _prepared(r[two_sided])
            assert len(work) > 1
            stacked = work.copy()
            assert _jacobi_stack(stacked, 100, target)
            for a, got, goal in zip(work, stacked, target.tolist()):
                alone = a.copy()
                assert _jacobi_list(alone, 100, goal)
                assert got.tobytes() == alone.tobytes()

    def test_stack_kernel_writes_back_unconverged_stacks(self):
        # a stack stopped by the sweep cap is written back as far as it got,
        # each matrix as the list kernel leaves it after as many sweeps
        rng = np.random.default_rng(12)
        stack = np.array([random_symmetric(rng, 7) for _ in range(4)])
        work, target = _prepared(stack)
        for cap in (1, 2):
            stacked = work.copy()
            assert not _jacobi_stack(stacked, cap, target)
            for a, got, goal in zip(work, stacked, target.tolist()):
                alone = a.copy()
                assert not _jacobi_list(alone, cap, goal)
                assert got.tobytes() == alone.tobytes()

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

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, T_LO + 1])
    def test_off_norms_mask_has_the_bits_of_triu(self, n):
        # the cached mask keeps what np.triu(m, 1) keeps and zeroes the rest
        # with +0.0, whatever the lower triangle holds
        rng = np.random.default_rng(50 + n)
        lower = np.tri(n, k=-1, dtype=bool)
        for fill in (None, np.nan, np.inf, -np.inf, -0.0):
            stack = rng.standard_normal((3, n, n)) * 10.0 ** rng.integers(-100, 100, (3, n, n))
            stack[rng.random((3, n, n)) < 0.2] = -0.0
            if fill is not None:
                stack[:, lower] = fill
            upper = np.triu(stack, 1)
            assert np.where(_strict_upper(n), stack, 0.0).tobytes() == upper.tobytes()
            frozen = np.sqrt(2.0 * np.sum((upper**2).reshape(3, n * n), axis=1))
            assert _off_norms(stack).tobytes() == frozen.tobytes()
        mask = _strict_upper(n)
        assert _strict_upper(n) is mask and not mask.flags.writeable
        assert same_bits(mask, np.triu(np.ones((n, n), dtype=bool), 1))

    @pytest.mark.parametrize("n", [0, 1, 4, T_LO, T_HI + 1])
    def test_empty_stack(self, n):
        assert _off_norms(np.zeros((0, n, n))).shape == (0,)
        assert symmetric_eigenvalues(np.zeros((0, n, n))).shape == (0, n)


class TestDispatch:
    """Which kernel serves which shape and order."""

    KERNELS = (
        "_jacobi_list",
        "_jacobi_round_robin",
        "_jacobi_stack",
        "_jacobi_one_sided",
    )
    ONE_SIDED = {"_jacobi_one_sided"}
    TWO_SIDED = set(KERNELS) - ONE_SIDED

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
            ((T_HI + 1, T_HI + 1), "_jacobi_round_robin"),
            ((3, T_LO - 1, T_LO - 1), "_jacobi_stack"),
            # a stack of one takes the single-matrix kernel of its order
            ((1, T_LO - 1, T_LO - 1), "_jacobi_list"),
            ((1, T_HI + 1, T_HI + 1), "_jacobi_round_robin"),
            # from the threshold up a stack is solved one matrix at a time
            ((2, T_HI + 1, T_HI + 1), "_jacobi_round_robin"),
        ],
    )
    def test_kernel_by_shape(self, monkeypatch, shape, kernel):
        n = shape[-1]
        m = np.diag(np.arange(n, dtype=np.float64))
        m[0, n - 1] = m[n - 1, 0] = 0.5
        m = np.broadcast_to(m, shape).copy()
        calls = self.spy(monkeypatch)
        symmetric_eigenvalues(m)
        if kernel == "_jacobi_stack":
            assert calls == [(kernel, shape)]
        else:
            assert calls == [(kernel, (n, n))] * (shape[0] if len(shape) == 3 else 1)

    def test_kernels_are_listed(self):
        # every kernel defined in the module is spied on here, and only those
        import randic.linalg as linalg

        defined = {
            name
            for name, f in vars(linalg).items()
            if name.startswith("_jacobi_") and callable(f) and f.__module__ == linalg.__name__
        }
        assert defined == set(self.KERNELS)

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
        shape = (1, *_biadjacency(g).shape)
        calls = self.spy(monkeypatch)
        values = randic_eigenvalues(g)
        randic_energy(g)
        randic_spectrum(g)
        assert calls == [("_jacobi_one_sided", shape)] * 3
        assert shape[1] <= shape[2] and sum(shape[1:]) == g.n
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

    def test_verify_solves_subdivision_one_sided(self, monkeypatch):
        # R(G) as randic_eigenvalues solves it: a bipartite G once on its
        # block, a stack of one, by the one-sided kernel, and Petersen on
        # the two-sided kernel of its order; then S(G), always bipartite,
        # once on its block by the one-sided kernel
        graphs = (generate("path", 6), generate("cycle", 8), generate("star", 5), generate("petersen"))
        calls = self.spy(monkeypatch)
        for g in graphs:
            verify_all(g)
        assert calls[::2] == [
            ("_jacobi_one_sided", (1, *_biadjacency(g).shape)) for g in graphs[:3]
        ] + [("_jacobi_list", (10, 10))]
        assert calls[1::2] == [
            ("_jacobi_one_sided", (1, *_biadjacency(subdivision(g)).shape)) for g in graphs
        ]

    @pytest.mark.parametrize(
        "impostor,kernel,shape",
        [
            (generate("cycle", 7), "_jacobi_list", (7, 7)),
            (generate("star", 7), "_jacobi_one_sided", (1, *_biadjacency(generate("star", 7)).shape)),
        ],
        ids=["C7", "star7"],
    )
    def test_claimed_subdivision_keeps_its_own_path(self, monkeypatch, impostor, kernel, shape):
        # a claimed subdivision goes through randic_eigenvalues: C7 has an
        # odd cycle and stays two-sided, so the negative controls keep that
        # path, while the bipartite star is solved on its block
        g = generate("path", 4)
        calls = self.spy(monkeypatch)
        assert not verify_subdivision_energy(g, subdivided=impostor).passed
        assert calls == [("_jacobi_one_sided", (1, 2, 2)), (kernel, shape)]

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_scan_solves_subdivisions_one_sided(self, monkeypatch, order):
        # the bipartite R(G) on their blocks, one stack per row count, and
        # the others two-sided, as one stack of the chunk (K3, alone at
        # order 3, as one matrix); R(S) only on its blocks B, by the
        # one-sided kernel, once per edge-count group
        masks = sorted_masks(order)
        _, blocks, groups = _chunk_matrices(order, masks, True)
        bipartite = sum(len(rows) for rows, _ in blocks)
        two_sided = (
            ("_jacobi_list", (order, order))
            if len(masks) - bipartite == 1
            else ("_jacobi_stack", (len(masks) - bipartite, order, order))
        )
        calls = self.spy(monkeypatch)
        scan_small_graphs(order, rank_energy=True)
        assert calls == (
            [("_jacobi_one_sided", stack.shape) for _, stack in blocks]
            + [two_sided]
            + [("_jacobi_one_sided", block.shape) for _, block in groups]
        )

    def test_one_sided_sweep_cap_raises(self, monkeypatch):
        b = _biadjacency(subdivision(generate("cycle", 36)))
        with monkeypatch.context() as patch:
            patch.setattr(randic.linalg, "DEFAULT_MAX_SWEEPS", 1)
            with pytest.raises(ConvergenceError, match="one-sided ordering, order 36x36"):
                singular_values(b)
        assert singular_values(b).shape == (36,)


def reference_cluster(values) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The greedy gap rule one value at a time, frozen from the per-graph
    clustering that ``cluster_rows`` replaced: a value joins the current
    cluster when it sits within CLUSTER_TOL of the cluster's most recent
    member, and each representative is math.fsum(cluster) / len(cluster)."""
    vals = sorted(values, reverse=True)
    if not vals:
        return (), ()
    clusters = [[vals[0]]]
    for v in vals[1:]:
        if clusters[-1][-1] - v <= CLUSTER_TOL:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return tuple(math.fsum(c) / len(c) for c in clusters), tuple(len(c) for c in clusters)


def graph_stacks(order: int, step: int = 1):
    """The R(G) stack of every ``step``-th connected graph of ``order``, as
    a scan builds it, sorted by edge count."""
    return _chunk_matrices(order, sorted_masks(order, step), False)[0]


def same_rows(k, reps, sizes, row: int, want) -> bool:
    """Whether row ``row`` of ``cluster_rows``' output holds the clusters
    ``want`` = (representatives, sizes), bit for bit, with NaN and 0 after
    them."""
    got = tuple(reps[row, : k[row]].tolist()), tuple(sizes[row, : k[row]].tolist())
    pad = reps[row, k[row] :]
    return (
        got == want
        and np.array(want[0]).tobytes() == reps[row, : k[row]].tobytes()
        and bool(np.all(np.isnan(pad)))
        and not sizes[row, k[row] :].any()
    )


def reference_cluster_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cluster_rows`` frozen before its slots and sizes were taken the
    lean way: each cluster's slot from a cumsum over the start flags, and
    its size from an array of cluster ends."""
    b, n = rows.shape
    flat = rows.ravel()
    starts = np.ones((b, n), dtype=bool)
    np.logical_not(rows[:, :-1] - rows[:, 1:] <= CLUSTER_TOL, out=starts[:, 1:])
    first = np.flatnonzero(starts)
    ends = np.empty_like(first)
    ends[:-1] = first[1:]
    ends[-1:] = flat.size
    size = ends - first
    mean = flat[first] + 0.0
    for i in np.flatnonzero(size > 1).tolist():
        members = flat[first[i] : ends[i]].tolist()
        mean[i] = math.fsum(members) / len(members)
    where = (first // max(n, 1), np.cumsum(starts, axis=1).ravel()[first] - 1)
    reps = np.full((b, n), np.nan)
    sizes = np.zeros((b, n), dtype=np.intp)
    reps[where] = mean
    sizes[where] = size
    return starts.sum(axis=1), reps, sizes


def same_clusters(rows: np.ndarray) -> bool:
    """Whether ``cluster_rows`` gives ``rows`` the frozen reference's
    arrays: the same dtypes, shapes and bits."""
    got, want = cluster_rows(rows), reference_cluster_rows(rows)
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(got, want)
    )


@functools.lru_cache(maxsize=None)
def scan_chunk_spectra(order: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(edge counts, R-spectra) of each chunk of a scan of ``order``, its
    rows sorted by edge count, as the scan clusters them."""
    masks = np.array(list(_connected_masks(order, 0, edge_mask_count(order))), dtype=np.int64)
    chunks = []
    for lo in range(0, len(masks), SCAN_CHUNK):
        _, m, _, rho, _ = _scan_spectra(order, masks[lo : lo + SCAN_CHUNK], False)
        chunks.append((m, rho))
    return chunks


def verify_cli_graphs(seed: int) -> list[Graph]:
    """The distinct graphs of the benchmark's verify-cli requests."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    return [load_graph(token) for token in dict.fromkeys(workloads.VerifyCli().requests(seed))]


class TestLeanClustering:
    """``cluster_rows`` keeps the bits of its frozen former form on every
    stack a scan or ``verify`` clusters."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_scan_chunks_and_groups(self, order):
        for m, rho in scan_chunk_spectra(order):
            assert same_clusters(rho)
            for count in np.unique(m).tolist():
                assert same_clusters(rho[m == count])

    @pytest.mark.parametrize("seed", [1, 1404])
    def test_verify_cli_rows(self, seed):
        graphs = verify_cli_graphs(seed)
        assert len(graphs) > 80
        for g in graphs:
            assert same_clusters(symmetric_eigenvalues(randic_matrix(g))[None])

    def test_edge_shapes(self):
        for rows in (np.zeros((0, 5)), np.zeros((3, 0)), np.array([[np.nan, 1.0, 1.0]])):
            assert same_clusters(rows)


class TestClustering:
    HAND_BUILT = [
        # a gap of exactly CLUSTER_TOL joins, one ulp above it splits
        [0.9, 0.5, CLUSTER_TOL, 0.0, -1.0],
        [0.9, 0.5, np.nextafter(CLUSTER_TOL, 1.0), 0.0, -1.0],
        # a chain whose links are each within the tolerance, spanning 3e-7
        [0.5, 0.5 - 0.75e-7, 0.5 - 1.5e-7, 0.5 - 2.25e-7, 0.5 - 3e-7],
        [0.25, 0.25, 0.25, 0.25, 0.25],
        # a lone -0.0 is represented by +0.0, as math.fsum gives it
        [1.0, -0.0, -1.0, -1.0, -1.0],
    ]

    def test_hand_built_rows_match_reference(self):
        rows = np.array(self.HAND_BUILT)
        k, reps, sizes = cluster_rows(rows)
        for i, row in enumerate(self.HAND_BUILT):
            assert same_rows(k, reps, sizes, i, reference_cluster(row)), row
            assert cluster_distinct(row) == reference_cluster(row)
        assert k.tolist() == [4, 5, 1, 1, 3]
        assert math.copysign(1.0, reps[4, 1]) == 1.0

    @pytest.mark.parametrize("order,step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 37)])
    def test_scan_rows_match_reference(self, order, step):
        # the R-spectra of orders 2-5 and of every 37th graph of order 6,
        # clustered as one stack, give each row the reference's k and
        # representatives
        rho = symmetric_eigenvalues(graph_stacks(order, step))
        k, reps, sizes = cluster_rows(rho)
        want = [reference_cluster(row) for row in rho]
        assert [i for i, w in enumerate(want) if not same_rows(k, reps, sizes, i, w)] == []
        assert set(k.tolist()) <= set(range(2, order + 1))

    def test_groups_near_values(self):
        reps, mults = cluster_distinct([1.0, 1.0 + 1e-9, 0.5, -0.5, -0.5 + 1e-12])
        assert mults == (2, 1, 2)
        assert reps[0] == pytest.approx(1.0, abs=1e-9)
        assert reps[1] == 0.5
        assert reps[2] == pytest.approx(-0.5, abs=1e-12)

    def test_respects_tolerance(self):
        # CLUSTER_TOL = 1e-7 is the only tolerance: a gap above it splits
        reps, mults = cluster_distinct([0.0, 2e-7])
        assert mults == (1, 1)
        reps, mults = cluster_distinct([0.0, 0.5e-7])
        assert mults == (2,)

    def test_empty(self):
        assert cluster_distinct([]) == ((), ())

    def test_idempotent_on_separated_values(self):
        reps, _ = cluster_distinct([2.0, 2.0 + 1e-10, 1.0, -3.0])
        again, mults = cluster_distinct(reps)
        assert again == reps
        assert mults == (1,) * len(reps)

    def test_spectrum_wrapper(self):
        s = Spectrum.of(symmetric_eigenvalues(np.diag([1.0, 1.0, 2.0])))
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

    def test_product_over_root_rows_without_roots(self):
        m = np.stack([np.diag([1.0, 2.0]), np.eye(2)])
        product = product_over_root_rows(m, np.zeros((2, 0)))
        assert product.flags.writeable
        assert same_bits(product, np.stack([np.eye(2), np.eye(2)]))

    def test_product_over_roots_annihilates(self):
        m = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(product_over_roots(m, [1.0, 2.0, 3.0]), 0.0)
        partial = product_over_roots(m, [2.0, 3.0])
        assert partial[0, 0] == pytest.approx((1 - 2) * (1 - 3))
        assert partial[1, 1] == pytest.approx(0.0)


class TestStackedPieces:
    """The stacked forms a scan's checks use give each matrix the bits of
    the per-matrix computation."""

    @staticmethod
    def products_match(r: np.ndarray) -> list[int]:
        # grouped by k as the identity check groups a stack, each with the
        # distinct values past the first as its roots
        k, reps, _ = cluster_rows(symmetric_eigenvalues(r))
        mismatched = []
        for count in sorted(set(k.tolist())):
            rows = np.flatnonzero(k == count)
            roots = reps[rows, 1:count]
            stacked = product_over_root_rows(r[rows], roots)
            for i, got, row in zip(rows.tolist(), stacked, roots.tolist()):
                if not same_bits(got, product_over_roots(r[i], row)):
                    mismatched.append(i)
        return mismatched

    @pytest.mark.parametrize("order,step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 37)])
    def test_product_equals_product_over_roots(self, order, step):
        assert self.products_match(graph_stacks(order, step)) == []

    def test_product_on_stacks_of_one(self):
        rng = np.random.default_rng(12)
        order = 12
        edges = {(i, int(rng.integers(i))) for i in range(1, order)}
        while len(edges) < 20:
            u, v = sorted(rng.choice(order, size=2, replace=False).tolist())
            edges.add((v, u))
        graphs = [generate("petersen"), Graph.from_edges(order, edges)]
        for g in graphs:
            assert self.products_match(randic_matrix(g)[None]) == []

    @staticmethod
    def norms_match(stack: np.ndarray) -> bool:
        want = np.array([float(np.linalg.norm(x)) for x in stack])
        return same_bits(_frobenius_norms(stack), want)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
    def test_frobenius_norms_equal_np_linalg_norm(self, order):
        # the norms behind _prepared's targets and the one-sided kernel's
        # zero-row floors come from one batched matmul per stack; each
        # equals np.linalg.norm on its matrix alone, bit for bit, on every
        # R(G) stack, block stack of bipartite R(G) and subdivision block
        # stack of orders 2-6 and of a 10,000-mask slice of order 7
        if order < 7:
            masks = sorted_masks(order)
        else:
            sliced = _connected_masks(7, 1_000_000, 1_010_000)
            masks = np.array(sorted(sliced, key=int.bit_count), dtype=np.int64)
        r, graph_blocks, groups = _chunk_matrices(order, masks, True)
        assert self.norms_match(r)
        assert all(self.norms_match(blocks) for _, blocks in graph_blocks + groups)
        _, target = _prepared(r)
        assert same_bits(target, CONVERGENCE_RTOL * np.maximum(1.0, _frobenius_norms(r)))

    def test_frobenius_norms_on_single_blocks_and_random_stacks(self):
        # star-sweep's blocks, one at a time, and random stacks as strided
        # views and, symmetric, in column-major order
        for n in range(3, 51):
            assert self.norms_match(_biadjacency(subdivision(generate("star", n)))[None])
        rng = np.random.default_rng(3)
        for k, w in ((1, 1), (2, 2), (5, 5), (3, 8), (9, 9), (17, 20), (33, 33)):
            stack = rng.standard_normal((6, k, w)) * 10.0
            assert all(self.norms_match(view) for view in (stack, stack[::2], stack[:, ::-1]))
            if k == w:
                symmetric = stack + stack.transpose(0, 2, 1)
                assert self.norms_match(np.asfortranarray(symmetric))
                assert self.norms_match(symmetric.transpose(0, 2, 1))
        assert _frobenius_norms(np.zeros((0, 4, 4))).shape == (0,)
        assert _prepared(np.zeros((0, 4, 4)))[1].shape == (0,)
