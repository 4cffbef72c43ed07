"""The stack-of-one forms of the check helpers, each pinned bit for bit to
its stacked form, which a scan runs.

``verify`` checks one graph as a stack of one.  The charpoly expansion and
residuals, and the clustering, select a form on Python floats by stack
size, as ``symmetric_eigenvalues`` selects its list kernel; every other
check runs its stacked form on a stack of one.  Either way a row must get
the bits that a stack of several gives it: on every graph of the
benchmark's three verify-cli rosters, whose graphs of one order are
stacked here as a scan stacks a chunk, and on every chunk of the scans of
orders 2-6.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from randic.cli import load_graph
from randic.graphs import _connected_masks, edge_mask_count, subdivision
from randic.identities import (
    SCAN_CHUNK,
    _charpoly_residuals,
    _charpoly_row_residuals,
    _clamp_small,
    _correspondence_residual,
    _identity_checked,
    _local_residuals,
    _scan_spectra,
    _strongly_regular,
)
from randic.linalg import (
    ROW_LIST_MAX_LENGTH,
    _charpoly_list,
    _cluster_list,
    charpoly_coefficients,
    cluster_rows,
)
from randic.spectra import _bipartite_eigenvalues, randic_eigenvalues, randic_matrix

TABLE = Path(__file__).parent / "golden" / "verdicts.json"


def roster_graphs():
    """The distinct graphs of the verify-cli rosters of seeds 1, 1404 and 7."""
    rosters = json.loads(TABLE.read_text())["rosters"]
    tokens = dict.fromkeys(t for roster in rosters.values() for t in roster)
    return [load_graph(token) for token in tokens]


@functools.lru_cache(maxsize=None)
def stacks(source) -> list[tuple]:
    """(n, m, theta, rho, rho_s, r) stacks as ``_check_stack`` takes them, rows
    sorted by edge count and R(S) padded to the widest: each chunk of the
    scan of order ``source``, or, for ``"rosters"``, the roster graphs of
    each order, stacked the same way."""
    if source != "rosters":
        masks = np.array(list(_connected_masks(source, 0, edge_mask_count(source))), dtype=np.int64)
        out = []
        for lo in range(0, len(masks), SCAN_CHUNK):
            _, m, r, rho, rho_s = _scan_spectra(source, masks[lo : lo + SCAN_CHUNK], True)
            out.append((source, m, _clamp_small(1.0 + rho), rho, rho_s, r))
        return out
    by_order: dict[int, list] = {}
    for g in roster_graphs():
        by_order.setdefault(g.n, []).append(g)
    out = []
    for n, graphs in sorted(by_order.items()):
        graphs.sort(key=lambda g: g.m)
        m = np.array([g.m for g in graphs])
        rho = np.array([randic_eigenvalues(g) for g in graphs])
        width = n + int(m.max())
        sigma = [randic_eigenvalues(subdivision(g))[: min(n, g.m)] for g in graphs]
        rho_s = np.array([_bipartite_eigenvalues(s, width) for s in sigma])
        r = np.array([randic_matrix(g) for g in graphs])
        out.append((n, m, _clamp_small(1.0 + rho), rho, rho_s, r))
    return out


def own_width(n: int, m: int, row: np.ndarray) -> np.ndarray:
    """A padded R(S) row at its own width n + m: the padding zeros taken
    out of its middle."""
    k = min(n, m)
    return np.concatenate((row[:k], np.zeros(n + m - 2 * k), row[len(row) - k :]))


SOURCES = ["rosters", 2, 3, 4, 5, 6]


def twice(x: np.ndarray) -> np.ndarray:
    """The rows of ``x`` twice over, a stack of at least two rows."""
    return np.concatenate((x, x))


def same(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestStackOfOneBits:
    @pytest.mark.parametrize("source", SOURCES)
    def test_charpoly_coefficients(self, source):
        # the list form on each row of a stack against the stack's row
        for _, _, theta, _, rho_s, _ in stacks(source):
            for rows in (theta, rho_s):
                stacked = charpoly_coefficients(rows)
                for row, want in zip(rows, stacked):
                    assert np.array(_charpoly_list(row.tolist())).tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", SOURCES)
    def test_charpoly_residuals(self, source):
        # each graph alone, its R(S) row at its own width, against its row
        # of the padded stack, which is how a scan chunk checks it
        for n, m, theta, _, rho_s, _ in stacks(source):
            stacked = _charpoly_residuals(n, m, theta, rho_s)
            for i in range(len(m)):
                alone = own_width(n, int(m[i]), rho_s[i])
                one = _charpoly_residuals(n, m[i : i + 1], theta[i : i + 1], alone[None])
                assert [same(one[key][0], stacked[key][i]) for key in stacked] == [True, True]

    @pytest.mark.parametrize("source", SOURCES)
    def test_correspondence_residual(self, source):
        for n, m, theta, _, rho_s, _ in stacks(source):
            stacked = _correspondence_residual(n, m, theta, rho_s)
            for i in range(len(m)):
                alone = own_width(n, int(m[i]), rho_s[i])
                one = _correspondence_residual(n, m[i : i + 1], theta[i : i + 1], alone[None])
                assert same(one[0], stacked[i])

    @pytest.mark.parametrize("source", SOURCES)
    def test_identity(self, source):
        # the rank-one residuals and constant of each graph alone against
        # its row of the stack (taken twice, so no group is a stack of one)
        for n, m, _, rho, _, r in stacks(source):
            k, reps, _ = cluster_rows(rho)
            degrees = (r != 0).sum(axis=2)
            stacked = _identity_checked(
                n, twice(m), twice(r), twice(degrees), twice(reps[:, 1:]), twice(k - 1)
            )
            for i in range(len(m)):
                row = slice(i, i + 1)
                one = _identity_checked(n, m[row], r[row], degrees[row], reps[row, 1:], k[row] - 1)
                for key, values in one.residuals.items():
                    assert same(values[0], stacked.residuals[key][i])
                assert one.report(0) == stacked.report(i)

    @pytest.mark.parametrize("source", SOURCES)
    def test_local_residuals(self, source):
        # every graph with three distinct values
        for n, m, _, rho, _, r in stacks(source):
            k, reps, _ = cluster_rows(rho)
            rows = np.flatnonzero(k == 3)
            if not rows.size:
                continue
            a = r[rows] != 0
            degrees = a.sum(axis=2)
            args = (m[rows], a, degrees, reps[rows, 1], reps[rows, 2])
            stacked = _local_residuals(n, *map(twice, args))
            for i in range(len(rows)):
                one = _local_residuals(n, *(x[i : i + 1] for x in args))
                assert [same(one[key][0], stacked[key][i]) for key in one] == [True] * 5

    @pytest.mark.parametrize("source", SOURCES)
    def test_strongly_regular(self, source):
        # every regular graph
        for _, _, _, _, _, r in stacks(source):
            a = r != 0
            degrees = a.sum(axis=2)
            a = a[degrees.min(axis=1) == degrees.max(axis=1)]
            stacked = _strongly_regular(twice(a))
            assert [_strongly_regular(a[i : i + 1])[0] for i in range(len(a))] == stacked[: len(a)]

    def test_row_forms_are_selected(self, monkeypatch):
        # a stack of one with at most ROW_LIST_MAX_LENGTH values of R(S)
        # takes the charpoly row forms, and any stack of one the clustering
        # row form
        import randic.identities as identities
        import randic.linalg as linalg

        calls = []
        for module, name in (
            (identities, "_charpoly_row_residuals"),
            (linalg, "_charpoly_list"),
            (linalg, "_cluster_list"),
        ):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=original: calls.append(f) or f(*a))

        def spied(call) -> list[str]:
            calls.clear()
            call()
            return [f.__name__ for f in calls]

        n, m, theta, rho, rho_s, _ = stacks("rosters")[0]
        alone = own_width(n, int(m[0]), rho_s[0])
        assert spied(lambda: _charpoly_residuals(n, m[:1], theta[:1], alone[None])) == [
            "_charpoly_row_residuals"
        ]
        assert spied(lambda: charpoly_coefficients(theta[:1])) == ["_charpoly_list"]
        assert spied(lambda: cluster_rows(rho[:1])) == ["_cluster_list"]
        # wider rows, and stacks of two, take the stacked forms; the
        # stacked residuals still expand the n values of theta as a list
        wide = np.zeros((1, ROW_LIST_MAX_LENGTH + 1))
        width = np.array([wide.shape[1] - n])
        assert spied(lambda: _charpoly_residuals(n, width, theta[:1], wide)) == ["_charpoly_list"]
        assert spied(lambda: charpoly_coefficients(wide)) == []
        assert spied(lambda: cluster_rows(twice(rho[:1]))) == []

    @pytest.mark.parametrize("source", SOURCES)
    def test_cluster_rows(self, source):
        for _, _, _, rho, _, _ in stacks(source):
            k, reps, sizes = cluster_rows(rho)
            for i, row in enumerate(rho):
                one = cluster_rows(row[None])
                assert one[0].dtype == k.dtype and one[2].dtype == sizes.dtype
                assert one[0].tobytes() == k[i : i + 1].tobytes()
                assert one[1].tobytes() == reps[i : i + 1].tobytes()
                assert one[2].tobytes() == sizes[i : i + 1].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rows(self):
        # NaN and infinities reach the same bits in both forms, a NaN gap
        # making the whole residual NaN wherever it sits
        rng = np.random.default_rng(26)
        for _ in range(200):
            rho_s = np.sort(rng.uniform(-1.0, 1.0, 9))[::-1]
            theta = rng.uniform(0.0, 2.0, 4)
            spot = rng.integers(0, 9)
            rho_s[spot] = rng.choice([math.nan, math.inf, -math.inf, 1e300])
            theta[rng.integers(0, 4)] = rng.choice([math.nan, 1.0])
            rows = np.array([rho_s, rho_s])
            for row in charpoly_coefficients(rows):
                assert np.array(_charpoly_list(rho_s.tolist())).tobytes() == row.tobytes()
            m = np.array([5, 5])
            stacked = _charpoly_residuals(4, m, np.array([theta, theta]), rows)
            got = _charpoly_row_residuals(4, 5, theta.tolist(), rho_s.tolist())
            assert [same(x, stacked[key][0]) for x, key in zip(got, stacked)] == [True, True]
            finite = np.nan_to_num(theta, nan=1.0)
            stacked = _correspondence_residual(4, m, np.array([finite, finite]), rows)
            got = _correspondence_residual(4, m[:1], finite[None], rho_s[None])
            assert same(got[0], stacked[0])
            k, reps, sizes = cluster_rows(rows)
            means, counts = _cluster_list(rho_s.tolist())
            assert np.array(means).tobytes() == reps[0, : k[0]].tobytes()
            assert counts == sizes[0, : k[0]].tolist()
