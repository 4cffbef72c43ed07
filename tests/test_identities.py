import concurrent.futures
import functools
import math
import os
import random

import numpy as np
import pytest

import randic.identities
from randic.errors import IsolatedVertexError, PreconditionError
from randic.graphs import (
    Graph,
    _connected_masks,
    _mask_edges,
    edge_mask_count,
    encode_graph6,
    enumerate_connected_graphs,
    generate,
    is_connected,
    parse_graph6,
    subdivision,
)
from randic.identities import (
    SCAN_CHUNK,
    CHARPOLY_TOL,
    CORRESPONDENCE_TOL,
    ENERGY_TOL,
    LOCAL_TOL,
    SCAN_CHECKS,
    SUBDIVISION_CHECKS,
    Classification,
    Counterexample,
    SrgParameters,
    ScanSummary,
    _check_stack,
    _chunk_matrices,
    _degree_weighted_sums,
    _local_residuals,
    _strongly_regular,
    _merge,
    _root_products,
    _row,
    _scan_spectra,
    _scan_one,
    _verify,
    classify_distinct_count,
    is_strongly_regular,
    local_condition_residuals,
    scan_small_graphs,
    verify_all,
    verify_eigenvalue_correspondence,
    verify_k_distinct_identity,
    verify_local_conditions,
    verify_subdivision_charpoly,
    verify_subdivision_energy,
)
from randic.linalg import cluster_rows, symmetric_eigenvalues
from randic.spectra import _biadjacency, randic_eigenvalues, randic_matrix

SAMPLE_GRAPHS = [
    generate("complete", 4),
    generate("path", 5),
    generate("cycle", 5),
    generate("cycle", 6),
    generate("star", 7),
    generate("petersen"),
    # a lopsided graph: triangle with a pendant path
    Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]),
]


class TestSubdivisionChecks:
    @pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_charpoly_holds(self, g):
        report = verify_subdivision_charpoly(g)
        assert report.passed
        assert max(report.residuals.values()) < CHARPOLY_TOL

    @pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_correspondence_holds(self, g):
        report = verify_eigenvalue_correspondence(g)
        assert report.passed
        assert report.residuals["eigenvalue_match"] < CORRESPONDENCE_TOL

    @pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_energy_holds(self, g):
        report = verify_subdivision_energy(g)
        assert report.passed
        assert report.residuals["energy_match"] < ENERGY_TOL

    def test_tree_subdivision_zero_count(self):
        # a tree has m = n - 1, so the zero eigenvalue bookkeeping of the
        # correspondence has to absorb a negative m - n
        tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert verify_eigenvalue_correspondence(tree).passed

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matching_subdivision_zero_count(self, k):
        # k disjoint edges: m - n = -k, so k zeros of I + R are dropped from
        # both sides of the padded spectrum, an odd number for odd k
        matching = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
        report = verify_eigenvalue_correspondence(matching)
        assert report.passed
        assert report.residuals["eigenvalue_match"] < 1e-15

    def test_star_energy_closed_form(self):
        for n in (3, 10, 25):
            report = verify_subdivision_energy(generate("star", n))
            expected = math.sqrt(2) * n + 2 - 2 * math.sqrt(2)
            assert report.values["energy"] == pytest.approx(expected, abs=1e-9)

    def test_charpoly_rejects_wrong_subdivision(self):
        g = generate("path", 4)
        # right vertex count (n + m = 7) but not the subdivision
        impostor = generate("cycle", 7)
        assert not verify_subdivision_charpoly(g, subdivided=impostor).passed

    def test_correspondence_rejects_wrong_subdivision(self):
        g = generate("path", 4)
        impostor = generate("cycle", 7)
        assert not verify_eigenvalue_correspondence(g, subdivided=impostor).passed

    @pytest.mark.parametrize(
        "check",
        [verify_subdivision_charpoly, verify_eigenvalue_correspondence, verify_subdivision_energy],
        ids=["charpoly", "correspondence", "energy"],
    )
    def test_bipartite_impostor_rejected(self, check):
        # the star on 7 vertices has the order (n + m = 7) and, like every
        # subdivision, a bipartite R, so it is solved one-sided on its block
        # as S(P4) is; P7, the true subdivision, passes
        g = generate("path", 4)
        assert not check(g, subdivided=generate("star", 7)).passed
        assert check(g, subdivided=generate("path", 7)).passed

    def test_correspondence_rejects_wrong_order(self):
        g = generate("path", 4)
        report = verify_eigenvalue_correspondence(g, subdivided=generate("path", 5))
        assert not report.passed
        assert "order_mismatch" in report.residuals

    def test_energy_rejects_wrong_subdivision(self):
        g = generate("path", 4)
        impostor = generate("cycle", 7)
        assert not verify_subdivision_energy(g, subdivided=impostor).passed

    def test_edgeless_graph_rejected(self):
        with pytest.raises(PreconditionError):
            verify_subdivision_charpoly(Graph.from_edges(2, []))

    def test_perturbed_subdivision_fails(self):
        # drop one edge of the true subdivision and add a different one
        g = generate("cycle", 5)
        s = subdivision(g)
        edges = list(s.edges)
        removed = edges.pop(0)
        replacement = (removed[0], (removed[1] + 1) % s.n)
        if replacement[0] == replacement[1]:
            replacement = (removed[0], (removed[1] + 2) % s.n)
        u, v = sorted(replacement)
        corrupted = Graph.from_edges(s.n, edges + [(u, v)])
        assert not verify_subdivision_charpoly(g, subdivided=corrupted).passed
        assert not verify_eigenvalue_correspondence(g, subdivided=corrupted).passed


class TestRankOneIdentity:
    def test_triangle_constant(self):
        report = verify_k_distinct_identity(generate("complete", 3))
        assert report.passed
        assert report.values["constant"] == pytest.approx(0.25, abs=1e-12)

    def test_petersen_constant(self):
        report = verify_k_distinct_identity(generate("petersen"))
        assert report.passed
        assert report.values["constant"] == pytest.approx(1 / 27, abs=1e-12)

    @pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_holds_with_computed_roots(self, g):
        assert verify_k_distinct_identity(g).passed

    def test_wrong_roots_fail(self):
        g = generate("path", 4)
        report = verify_k_distinct_identity(g, roots=(0.3, -0.4, -0.9))
        assert not report.passed
        assert report.residuals["identity"] > 1e-3

    def test_pinned_constant_exposes_single_root_corruption(self):
        from randic.linalg import cluster_distinct, symmetric_eigenvalues
        from randic.spectra import randic_matrix

        g = generate("cycle", 6)
        distinct, _ = cluster_distinct(symmetric_eigenvalues(randic_matrix(g)))
        roots = distinct[1:]
        honest = verify_k_distinct_identity(g)
        perturbed = (roots[0] + 0.01,) + roots[1:]
        pinned = verify_k_distinct_identity(
            g, roots=perturbed, constant=honest.values["constant"]
        )
        assert not pinned.passed
        assert pinned.residuals["identity"] > 1e-3

    def test_constant_override_is_respected(self):
        g = generate("complete", 3)
        report = verify_k_distinct_identity(g, roots=(-0.5,), constant=0.0)
        # with c forced to zero the residual is just max |R + I/2| = 1/2
        assert report.residuals["identity"] == pytest.approx(0.5, abs=1e-12)
        assert not report.passed

    def test_root_list_including_one_fails_minimality(self):
        # appending the eigenvalue 1 makes the product the zero matrix, so
        # the identity "holds" only vacuously and minimality must trip
        g = generate("cycle", 5)
        from randic.linalg import cluster_distinct, symmetric_eigenvalues
        from randic.spectra import randic_matrix

        distinct, _ = cluster_distinct(symmetric_eigenvalues(randic_matrix(g)))
        report = verify_k_distinct_identity(g, roots=distinct)
        assert not report.passed
        assert report.residuals["minimality"] > 0

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            verify_k_distinct_identity(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_root_products_equal_math_prod(self):
        # c's numerator, column by column over a stack of root rows, has
        # the bits of math.prod on each row alone
        rng = np.random.default_rng(7)
        for width in range(7):
            roots = rng.uniform(-1.0, 1.0, size=(50, width))
            roots[::5] = np.round(roots[::5], 1)
            got = _root_products(roots)
            want = [math.prod(1.0 - x for x in row) for row in roots.tolist()]
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


ISOLATED_VERTEX = Graph(3, ((0, 1),))
TWO_COMPONENTS = Graph.from_edges(4, [(0, 1), (2, 3)])
SINGLE_VERTEX = Graph(1, ())
SUBDIVISION_VERIFIERS = (
    verify_subdivision_charpoly,
    verify_eigenvalue_correspondence,
    verify_subdivision_energy,
)
LOCAL_VERIFIERS = (verify_local_conditions, local_condition_residuals)


def as_counted(result):
    """(passed, residuals) of a report as a scan counts it: a
    classification passes when consistent, with the residual
    ``consistent`` 0.0 if so and 1.0 if not."""
    if isinstance(result, Classification):
        return result.consistent, {"consistent": 0.0 if result.consistent else 1.0}
    return result.passed, result.residuals


class TestVerifyAll:
    @pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: encode_graph6(g))
    def test_equals_single_checks(self, g):
        single = {
            "charpoly": verify_subdivision_charpoly(g),
            "correspondence": verify_eigenvalue_correspondence(g),
            "energy": verify_subdivision_energy(g),
            "identity": verify_k_distinct_identity(g),
            "classification": classify_distinct_count(g),
        }
        if single["classification"].distinct_count == 3:
            single["local"] = verify_local_conditions(g)
        results = verify_all(g)
        assert list(results) == list(single)
        assert results == single

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            verify_all(Graph.from_edges(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("kind", ["path", "star", "cycle"])
    def test_checks_read_the_spectrum_of_randic_eigenvalues(self, monkeypatch, kind):
        # verify gives R(G) the one spectrum every command gives it: a
        # bipartite graph (every path and star, the even cycles) solved on
        # its block, an odd cycle two-sided; the checks read its bits
        handed = []
        check_stack = randic.identities._check_stack

        def recording(n, m, checks, r, rho, rho_s):
            handed.append(rho)
            return check_stack(n, m, checks, r, rho, rho_s)

        monkeypatch.setattr(randic.identities, "_check_stack", recording)
        for n in range(3 if kind == "cycle" else 2, 63):
            g = generate(kind, n)
            _verify(g, ("classification",))
            (rho,) = handed.pop()
            assert rho.tobytes() == randic_eigenvalues(g).tobytes(), n

    @pytest.mark.parametrize(
        "order,step",
        [pytest.param(order, 1, id=str(order)) for order in (2, 3, 4, 5)]
        + [pytest.param(6, 37, id="6-every-37th")],
    )
    def test_equals_scan_bit_for_bit(self, order, step):
        # both paths read theta = 1 + rho off the same R solve, and R(S)'s
        # spectrum off the same one-sided solve of its block, so every
        # residual agrees exactly, not just within tolerance; the scan side
        # runs on the stacks and rows that _scan_spectra gives a scan, every
        # check in one pass over the chunk, and each row's arrays and report
        # equal verify_all's report
        masks = np.array(
            list(_connected_masks(order, 0, edge_mask_count(order)))[::step], dtype=np.int64
        )
        graphs = [Graph(order, _mask_edges(order, mask)) for mask in masks.tolist()]
        perm, m, r, rho, rho_s = _scan_spectra(order, masks, True)
        checked, _ = _check_stack(order, m, SCAN_CHECKS, r, rho, rho_s)
        counted = [{} for _ in graphs]
        reports = [{} for _ in graphs]
        for name, c in checked.items():
            for j, row in enumerate(c.rows.tolist()):
                counted[perm[row]][name] = (bool(c.passed[j]), _row(c.residuals, j))
                reports[perm[row]][name] = c.report(j)
        mismatched = []
        for g, got, built in zip(graphs, counted, reports):
            verified = verify_all(g)
            if (
                sorted(got, key=SCAN_CHECKS.index) != list(verified)
                or got != {name: as_counted(v) for name, v in verified.items()}
                or built != verified
            ):
                mismatched.append(encode_graph6(g))
        assert sorted(perm.tolist()) == list(range(len(graphs)))
        assert mismatched == []


def by_edge_count(order: int, m: np.ndarray, rho_s: np.ndarray):
    """The padded R(S) spectra of a scan chunk sorted by edge count, as
    (rows, spectra) per edge count m: the slice of the chunk's rows and
    their spectra at their own width order + m, each row with the padding
    zeros taken out of the middle of its zeros."""
    bounds = [0, *(np.flatnonzero(np.diff(m)) + 1).tolist(), len(m)]
    width = rho_s.shape[1]
    for lo, hi in zip(bounds, bounds[1:]):
        total = order + int(m[lo])
        cut = total // 2
        padding = rho_s[lo:hi, cut : cut + width - total]
        assert padding.tobytes() == np.zeros(padding.shape).tobytes()
        yield slice(lo, hi), np.hstack((rho_s[lo:hi, :cut], rho_s[lo:hi, cut + width - total :]))


def chunk_outcomes(checked, offset: int = 0) -> dict:
    """(check, chunk row) -> (pass flag, residual bytes by key, report) of
    each row of the checks, the rows offset by ``offset``."""
    return {
        (name, offset + row): (
            bool(c.passed[j]),
            {key: values[j : j + 1].tobytes() for key, values in c.residuals.items()},
            c.report(j),
        )
        for name, c in checked.items()
        for j, row in enumerate(c.rows.tolist())
    }


class TestChunkCheckPass:
    """A scan checks a chunk in one ``_check_stack`` pass, its graphs' R(S)
    spectra padded to the chunk's widest; each row gets what the
    per-edge-count passes, each on spectra of their own width, give it."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_equals_per_edge_count_passes(self, order):
        masks = np.array(list(_connected_masks(order, 0, edge_mask_count(order))), dtype=np.int64)
        graph_checks = [c for c in SCAN_CHECKS if c not in SUBDIVISION_CHECKS]
        for lo in range(0, len(masks), SCAN_CHUNK):
            _, m, r, rho, rho_s = _scan_spectra(order, masks[lo : lo + SCAN_CHUNK], True)
            checked, k = _check_stack(order, m, SCAN_CHECKS, r, rho, rho_s)
            want_checks, want_k = _check_stack(order, m, graph_checks, r, rho, None)
            want = chunk_outcomes(want_checks)
            for rows, spectra in by_edge_count(order, m, rho_s):
                group, _ = _check_stack(
                    order, m[rows], SUBDIVISION_CHECKS, r[rows], rho[rows], spectra
                )
                want.update(chunk_outcomes(group, rows.start))
            got = chunk_outcomes(checked)
            assert list(checked) == list(SCAN_CHECKS)
            assert k.tobytes() == want_k.tobytes()
            assert sorted(got) == sorted(want)
            assert [key for key, value in got.items() if value != want[key]] == []

    def test_one_pass_per_chunk(self, monkeypatch):
        # order 5's 728 graphs fit one chunk, order 6's 26,704 take 14
        calls = []
        original = randic.identities._check_stack

        def counting(n, m, checks, r, rho, rho_s):
            calls.append((tuple(checks), rho_s.shape, (len(m), n + int(m.max()))))
            return original(n, m, checks, r, rho, rho_s)

        monkeypatch.setattr(randic.identities, "_check_stack", counting)
        scan_small_graphs(5)
        assert calls == [(SCAN_CHECKS, (728, 15), (728, 15))]
        calls.clear()
        scan_small_graphs(6, checks=("energy", "identity"))
        assert len(calls) == -(-26704 // SCAN_CHUNK)
        assert all(checks == ("energy", "identity") for checks, _, _ in calls)
        assert all(shape == want for _, shape, want in calls)

    @pytest.mark.parametrize(
        "g",
        [
            generate("path", 5),
            Graph.from_edges(4, [(0, 1), (2, 3)]),  # a matching: 2n - 2 zeros short
            Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
            generate("cycle", 6),
            generate("complete", 5),
        ],
        ids=["P5", "2K2", "3K2", "C6", "K5"],
    )
    @pytest.mark.parametrize("extra", [1, 2, 5])
    def test_padding_keeps_residual_bits(self, g, extra):
        # the spectrum of R(S) padded with zeros in its middle, as a row of
        # a graph with fewer edges than its chunk's most, gives each
        # residual the bits of the row alone: charpoly with max(m) placed
        # extra edges above the row's own, in a stack with a graph of that
        # many edges
        rho = randic_eigenvalues(g)[None]
        rho_s = randic_eigenvalues(subdivision(g))[None]
        total = rho_s.shape[1]
        cut = total // 2
        padded = np.hstack((rho_s[:, :cut], np.zeros((1, extra)), rho_s[:, cut:]))
        theta = randic.identities._clamp_small(1.0 + rho)
        alone, wide = np.array([g.m]), np.array([g.m + extra, g.m])
        pairs = [
            (
                randic.identities._charpoly_residuals(g.n, alone, theta, rho_s),
                randic.identities._charpoly_residuals(
                    g.n, wide, np.vstack((theta, theta)), np.vstack((padded, padded))
                ),
            ),
            (
                {"match": randic.identities._correspondence_residual(g.n, alone, theta, rho_s)},
                {"match": randic.identities._correspondence_residual(g.n, alone, theta, padded)},
            ),
        ]
        for want, got in pairs:
            assert list(want) == list(got)
            assert all(got[key][-1:].tobytes() == want[key].tobytes() for key in want)


class TestDecidedOnce:
    """k is decided by one clustering of the rho stack per chunk, a scan
    builds each of its graphs once, and it builds reports and residual
    dicts only where they are read."""

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        calls = []
        original = getattr(randic.identities, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(randic.identities, name, counting)
        return calls

    def test_order_four_scan(self, monkeypatch):
        # the 38 graphs of order 4 fit one chunk, whose checks of R(G) alone
        # run once, on one clustering of all 38 rows; a passing scan builds
        # no Graph
        clusterings = self.count_calls(monkeypatch, "cluster_rows")
        builds = self.count_calls(monkeypatch, "Graph")
        assert scan_small_graphs(4).graph_count == 38
        assert (len(clusterings), len(builds)) == (1, 0)
        assert [len(rho) for (rho,) in clusterings] == [38]

    def test_passing_scan_builds_no_reports(self, monkeypatch):
        reports = self.count_calls(monkeypatch, "VerificationReport")
        classifications = self.count_calls(monkeypatch, "Classification")
        texts = self.count_calls(monkeypatch, "fmt")
        assert scan_small_graphs(5, rank_energy=True).passed
        assert (len(reports), len(classifications), len(texts)) == (0, 0, 0)
        # the counters do see the reports that verify builds
        verify_all(generate("petersen"))
        assert (len(reports), len(classifications)) == (5, 1)
        assert texts

    def test_residual_dicts_only_for_failing_graphs(self, monkeypatch):
        monkeypatch.setattr(randic.identities, "ENERGY_TOL", 1e-15)
        dicts = self.count_calls(monkeypatch, "_row")
        summary = scan_small_graphs(5, rank_energy=True)
        assert 0 < len(summary.counterexamples) < summary.graph_count
        assert len(dicts) == len(summary.counterexamples)

    def test_graph6_only_for_reported_graphs(self, monkeypatch):
        codes = self.count_calls(monkeypatch, "encode_graph6")
        assert scan_small_graphs(4).passed
        assert len(codes) == 0
        # the two energy extremes, encoded once the range is folded
        assert scan_small_graphs(4, rank_energy=True).passed
        assert len(codes) == 2

    def test_one_summary_per_mask_range(self, monkeypatch):
        summaries = self.count_calls(monkeypatch, "ScanSummary")
        ranges = self.count_calls(monkeypatch, "_scan_range")
        scan_small_graphs(4, rank_energy=True)
        assert (len(ranges), len(summaries)) == (1, 1)

    def test_energy_summed_only_when_ranked(self, monkeypatch):
        # a chunk's energies are summed in one call, one row per graph
        energies = self.count_calls(monkeypatch, "_row_energies")
        scan_small_graphs(4, checks=("classification",))
        assert len(energies) == 0
        scan_small_graphs(4, checks=("classification",), rank_energy=True)
        assert [len(rows) for (rows,) in energies] == [38]

    @pytest.mark.parametrize(
        "check,g,count",
        [
            pytest.param(verify_all, g, 1, id=encode_graph6(g))
            for g in (generate("petersen"), generate("path", 10))
        ]
        # the subdivision checks read no k; Petersen has three distinct
        # eigenvalues, so the local conditions apply
        + [
            pytest.param(check, generate("petersen"), 0, id=check.__name__)
            for check in SUBDIVISION_VERIFIERS
        ]
        + [
            pytest.param(check, generate("petersen"), 1, id=check.__name__)
            for check in (verify_k_distinct_identity, classify_distinct_count, *LOCAL_VERIFIERS)
        ],
    )
    def test_verify_all(self, monkeypatch, check, g, count):
        # k is decided by the one clustering of the group of one, never a
        # second time
        clusterings = self.count_calls(monkeypatch, "cluster_rows")
        check(g)
        assert len(clusterings) == count


    @pytest.mark.parametrize("check", LOCAL_VERIFIERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("g", [generate("petersen"), generate("cycle", 5)], ids=["petersen", "C5"])
    def test_local_path_runs_no_classification(self, monkeypatch, check, g):
        # k for the gate and the "got k" message comes from the one
        # clustering; no strong-regularity test runs on regular graphs
        clusterings = self.count_calls(monkeypatch, "cluster_rows")
        strong = self.count_calls(monkeypatch, "_strongly_regular")
        check(g)
        with pytest.raises(PreconditionError, match="got 4"):
            check(generate("path", 4))
        assert (len(clusterings), len(strong)) == (2, 0)


class TestClassification:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete_graphs_have_two_values(self, n):
        cls = classify_distinct_count(generate("complete", n))
        assert cls.distinct_count == 2
        assert cls.is_complete
        assert cls.consistent

    def test_path_four_values(self):
        cls = classify_distinct_count(generate("path", 4))
        assert cls.distinct_count == 4
        assert not cls.is_complete
        assert cls.srg is None
        assert cls.consistent

    def test_petersen_is_strongly_regular(self):
        cls = classify_distinct_count(generate("petersen"))
        assert cls.distinct_count == 3
        assert cls.is_regular
        assert cls.srg == is_strongly_regular(generate("petersen"))
        assert cls.srg.degree == 3
        assert (cls.srg.adjacent_common, cls.srg.nonadjacent_common) == (0, 1)
        assert cls.consistent

    def test_five_cycle_is_strongly_regular(self):
        cls = classify_distinct_count(generate("cycle", 5))
        assert cls.distinct_count == 3
        assert cls.srg is not None
        assert (cls.srg.adjacent_common, cls.srg.nonadjacent_common) == (0, 1)
        assert cls.consistent

    def test_six_cycle_is_regular_but_not_srg(self):
        cls = classify_distinct_count(generate("cycle", 6))
        assert cls.distinct_count == 4
        assert cls.is_regular
        assert cls.srg is None
        assert cls.consistent

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            classify_distinct_count(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestStronglyRegularDetector:
    def test_known_positives(self):
        assert is_strongly_regular(generate("petersen")).order == 10
        c4 = generate("cycle", 4)
        params = is_strongly_regular(c4)
        assert params == is_strongly_regular(c4)
        assert (params.degree, params.adjacent_common, params.nonadjacent_common) == (2, 0, 2)

    def test_known_negatives(self):
        assert is_strongly_regular(generate("complete", 4)) is None  # complete excluded
        assert is_strongly_regular(generate("path", 4)) is None  # not regular
        assert is_strongly_regular(generate("cycle", 6)) is None  # counts not uniform
        assert is_strongly_regular(Graph.from_edges(4, [(0, 1), (2, 3)])) is None
        # two disjoint triangles: regular with uniform counts, but disconnected
        two_triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert is_strongly_regular(two_triangles) is None


class TestLocalConditions:
    def test_petersen_weighted_reading_passes(self):
        report = verify_local_conditions(generate("petersen"))
        assert report.passed

    def test_petersen_raw_counts_fail_nonadjacent(self):
        # nonadjacent vertices of the 10-vertex 3-regular example share one
        # neighbor, but the right-hand side c*d_i*d_j is 1/3
        res = local_condition_residuals(generate("petersen"))
        assert res["count_nonadjacent"] == pytest.approx(2 / 3, abs=1e-9)
        assert res["count_nonadjacent"] > LOCAL_TOL
        assert res["nonadjacent_weighted"] < LOCAL_TOL

    def test_non_regular_three_value_graph(self):
        # complete bipartite graphs have spectrum {1, 0, ..., 0, -1}
        k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        report = verify_local_conditions(k23)
        assert report.passed

    def test_wrong_distinct_count_rejected(self):
        with pytest.raises(PreconditionError):
            verify_local_conditions(generate("complete", 4))
        with pytest.raises(PreconditionError):
            verify_local_conditions(generate("path", 4))


def reference_strongly_regular(g: Graph) -> SrgParameters | None:
    """Strong regularity pair by pair, frozen from the per-graph test that
    the stacked one replaced: connected, regular, neither complete nor
    edgeless, with uniform common-neighbor counts over adjacent pairs and
    over nonadjacent pairs."""
    if g.n < 2 or not g.is_regular() or not is_connected(g):
        return None
    if g.m == 0 or g.m == g.n * (g.n - 1) // 2:
        return None
    adjacent: set[int] = set()
    nonadjacent: set[int] = set()
    for i in range(g.n):
        ni = g.neighbors(i)
        for j in range(i + 1, g.n):
            count = len(ni & g.neighbors(j))
            (adjacent if j in ni else nonadjacent).add(count)
            if len(adjacent) > 1 or len(nonadjacent) > 1:
                return None
    return SrgParameters(g.n, g.degrees[0], adjacent.pop(), nonadjacent.pop())


def reference_local_residuals(g: Graph, rho2: float, rho3: float) -> dict[str, float]:
    """The local-condition residuals vertex by vertex and pair by pair,
    frozen from the per-graph code that the stacked one replaced, on a
    connected graph whose distinct R-eigenvalues are 1 > rho2 > rho3."""
    c = (1.0 - rho2) * (1.0 - rho3) / (2.0 * g.m)
    deg = g.degrees
    worst_degree = 0.0
    for i in range(g.n):
        lhs = math.fsum(1.0 / deg[j] for j in g.neighbors(i))
        rhs = c * deg[i] ** 2 - rho2 * rho3 * deg[i]
        worst_degree = max(worst_degree, abs(lhs - rhs))
    worst_adj = worst_nonadj = 0.0
    worst_adj_count = worst_nonadj_count = 0.0
    for i in range(g.n):
        ni = g.neighbors(i)
        for j in range(i + 1, g.n):
            common = ni & g.neighbors(j)
            weighted = math.fsum(1.0 / deg[k] for k in common)
            count = float(len(common))
            if j in ni:
                rhs = c * deg[i] * deg[j] + rho2 + rho3
                worst_adj = max(worst_adj, abs(weighted - rhs))
                worst_adj_count = max(worst_adj_count, abs(count - rhs))
            else:
                rhs = c * deg[i] * deg[j]
                worst_nonadj = max(worst_nonadj, abs(weighted - rhs))
                worst_nonadj_count = max(worst_nonadj_count, abs(count - rhs))
    return {
        "degree_sums": worst_degree,
        "adjacent_weighted": worst_adj,
        "nonadjacent_weighted": worst_nonadj,
        "count_adjacent": worst_adj_count,
        "count_nonadjacent": worst_nonadj_count,
    }


def same_dict_bits(got: dict[str, float], want: dict[str, float]) -> bool:
    return list(got) == list(want) and all(
        np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes() for key in want
    )


def every_graph(order: int, connected: bool) -> list[Graph]:
    """Every labeled graph of ``order`` in mask order, or only the
    connected ones."""
    masks = (
        _connected_masks(order, 0, edge_mask_count(order))
        if connected
        else range(edge_mask_count(order))
    )
    return [Graph(order, _mask_edges(order, mask)) for mask in masks]


class TestStackedStructure:
    """The strong-regularity test and the local conditions run on stacks,
    as a scan's chunk runs them, and on stacks of one, as ``verify`` runs
    them; both give the frozen per-graph code's results, bit for bit."""

    EXTRA_REGULAR = {
        "petersen": generate("petersen"),
        "K3,3": Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
        "C6": generate("cycle", 6),
    }

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_strongly_regular_equals_reference(self, order):
        # every regular graph of the order, connected or not
        regular = [g for g in every_graph(order, connected=False) if g.is_regular()]
        want = [reference_strongly_regular(g) for g in regular]
        assert [is_strongly_regular(g) for g in regular] == want
        stack = np.array([g.adjacency != 0 for g in regular])
        assert _strongly_regular(stack) == want

    @pytest.mark.parametrize("name", sorted(EXTRA_REGULAR))
    def test_strongly_regular_named_graphs(self, name):
        g = self.EXTRA_REGULAR[name]
        want = reference_strongly_regular(g)
        assert is_strongly_regular(g) == want
        assert _strongly_regular((g.adjacency != 0)[None]) == [want]
        assert (want is None) == (name == "C6")

    @staticmethod
    def three_valued(graphs):
        """The graphs with exactly three distinct R-eigenvalues, with their
        rho_2 and rho_3, as the checks read them: a bipartite graph's
        spectrum solved on its block."""
        r = np.array([randic_matrix(g) for g in graphs])
        rho = symmetric_eigenvalues(r)
        for i, g in enumerate(graphs):
            if _biadjacency(g) is not None:
                rho[i] = randic_eigenvalues(g)
        k, distinct, _ = cluster_rows(rho)
        rows = np.flatnonzero(k == 3)
        return [graphs[i] for i in rows.tolist()], r[rows], distinct[rows, 1], distinct[rows, 2]

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_local_residuals_equal_reference(self, order):
        graphs, r, rho2, rho3 = self.three_valued(every_graph(order, connected=True))
        a = r != 0
        m = np.array([g.m for g in graphs])
        stacked = _local_residuals(order, m, a, a.sum(axis=2), rho2, rho3)
        mismatched = []
        for j, g in enumerate(graphs):
            want = reference_local_residuals(g, float(rho2[j]), float(rho3[j]))
            if not same_dict_bits(_row(stacked, j), want):
                mismatched.append(encode_graph6(g))
            if not same_dict_bits(local_condition_residuals(g), want):
                mismatched.append(encode_graph6(g))
        assert len(graphs) == {3: 3, 4: 7, 5: 42, 6: 166}[order]
        assert mismatched == []

    def test_degree_weighted_sums_are_fsum_of_the_members(self):
        # the first row's members summed left to right give 6.300000000000001,
        # one ulp above their correctly rounded sum 6.3
        values = np.array([1, 2, 4, 5])
        counts = np.array([[[3, 5, 0, 4], [0, 0, 0, 0]], [[3, 5, 0, 4], [1, 1, 1, 1]]])
        got = _degree_weighted_sums(counts, values)
        assert got.shape == (2, 2)
        rng = random.Random(5)
        for row, value in zip(counts.reshape(-1, 4).tolist(), got.ravel().tolist()):
            members = [1.0 / d for d, c in zip(values.tolist(), row) for _ in range(c)]
            rng.shuffle(members)
            assert value == math.fsum(members)
        assert got[0, 0] == 6.3 != sum([1.0] * 3 + [0.5] * 5 + [0.2] * 4)

    @pytest.mark.parametrize("g", [generate("petersen"), generate("cycle", 5)], ids=["petersen", "C5"])
    def test_local_residuals_named_graphs(self, g):
        graphs, _, rho2, rho3 = self.three_valued([g])
        assert graphs == [g]
        want = reference_local_residuals(g, float(rho2[0]), float(rho3[0]))
        assert same_dict_bits(local_condition_residuals(g), want)


def rejection(check, g, error, message):
    name = {ISOLATED_VERTEX: "isolated", TWO_COMPONENTS: "disconnected", SINGLE_VERTEX: "single"}[g]
    return pytest.param(check, g, error, message, id=f"{check.__name__}-{name}")


class TestRejectedInputs:
    """Which precondition each public verifier checks first: the exception
    type and message on a graph with an isolated vertex, a disconnected
    graph without one, and the one-vertex graph."""

    @pytest.mark.parametrize(
        "check,g,error,message",
        [
            rejection(verify_all, ISOLATED_VERTEX, IsolatedVertexError, "vertex 2 has degree zero"),
            rejection(
                verify_all,
                TWO_COMPONENTS,
                PreconditionError,
                "the rank-one identity needs a connected graph",
            ),
            rejection(verify_all, SINGLE_VERTEX, IsolatedVertexError, "vertex 0 has degree zero"),
        ]
        + [
            rejection(check, ISOLATED_VERTEX, IsolatedVertexError, "vertex 2 has degree zero")
            for check in SUBDIVISION_VERIFIERS
        ]
        + [
            rejection(
                check, SINGLE_VERTEX, PreconditionError, "subdivision checks need at least one edge"
            )
            for check in SUBDIVISION_VERIFIERS
        ]
        + [
            rejection(
                verify_k_distinct_identity,
                g,
                PreconditionError,
                "the rank-one identity needs a connected graph",
            )
            for g in (ISOLATED_VERTEX, TWO_COMPONENTS)
        ]
        + [
            rejection(
                verify_k_distinct_identity,
                SINGLE_VERTEX,
                PreconditionError,
                "the rank-one identity needs at least one edge",
            ),
        ]
        + [
            rejection(
                classify_distinct_count, g, PreconditionError, "classification needs a connected graph"
            )
            for g in (ISOLATED_VERTEX, TWO_COMPONENTS)
        ]
        + [
            rejection(
                classify_distinct_count,
                SINGLE_VERTEX,
                PreconditionError,
                "classification needs at least two vertices",
            ),
        ]
        + [
            rejection(check, g, PreconditionError, "local conditions need a connected graph")
            for check in LOCAL_VERIFIERS
            for g in (ISOLATED_VERTEX, TWO_COMPONENTS)
        ]
        + [
            rejection(check, SINGLE_VERTEX, IsolatedVertexError, "vertex 0 has degree zero")
            for check in LOCAL_VERIFIERS
        ],
    )
    def test_rejected(self, check, g, error, message):
        with pytest.raises(ValueError) as raised:
            check(g)
        assert (raised.type, str(raised.value)) == (error, message)

    @pytest.mark.parametrize("check", SUBDIVISION_VERIFIERS, ids=lambda check: check.__name__)
    def test_subdivision_checks_accept_disconnected(self, check):
        # the subdivision identities need no connectivity, only edges and
        # positive degrees
        assert check(TWO_COMPONENTS).passed


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the scan's process pool with one that maps in this process;
    returns the list of the sizes of the pools opened."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


class TestScan:
    def test_order_three(self):
        summary = scan_small_graphs(3)
        assert summary.graph_count == 4
        assert summary.passed
        assert summary.counterexamples == ()
        assert set(summary.checks) == set(SCAN_CHECKS)

    def test_order_four_all_checks(self):
        summary = scan_small_graphs(4)
        assert summary.graph_count == 38
        assert summary.passed
        for key, value in summary.worst_residuals.items():
            if key.startswith("identity."):
                assert value < 16 * 1e-8, key
            elif not key.endswith("consistent"):
                assert value < 1e-8, key

    def test_jobs_capped_at_cpu_count(self, monkeypatch, inline_pools):
        serial = scan_small_graphs(4, rank_energy=True)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert scan_small_graphs(4, rank_energy=True, jobs=5000) == serial
        assert inline_pools and all(size <= 2 for size in inline_pools)
        # a cap of one takes the serial path and starts no pool
        inline_pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert scan_small_graphs(4, rank_energy=True, jobs=5000) == serial
        assert inline_pools == []

    def test_parts_without_graphs_merge_like_a_serial_run(self, monkeypatch, inline_pools):
        parts = []
        scan_part = randic.identities._scan_range_star

        def recorded(args):
            parts.append(scan_part(args))
            return parts[-1]

        monkeypatch.setattr(randic.identities, "_scan_range_star", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for order in (2, 3, 4):
            serial = scan_small_graphs(order, rank_energy=True)
            for jobs in range(2, 9):
                assert scan_small_graphs(order, rank_energy=True, jobs=jobs) == serial
        empty = [part for part in parts if part.graph_count == 0]
        assert empty
        assert all(p.lowest_energy is None and p.highest_energy is None for p in empty)

    def test_merge_rules(self):
        def part(count, found, worst, low=None, high=None):
            return ScanSummary(4, ("energy",), count, tuple(found), worst, low, high)

        a = Counterexample("A", "energy", {"energy_match": 1.0})
        b = Counterexample("B", "energy", {"energy_match": 2.0})
        merged = _merge(
            4,
            ("energy",),
            [
                part(0, [], {}),
                part(2, [b], {"z.max": 0.0, "a.zero": 0.0}, ("B", 2.0), ("B", 2.5)),
                part(1, [a], {"z.max": 0.5, "a.zero": 0.0}, ("A", 1.5), ("A", 3.0)),
                part(1, [], {"z.max": 0.25}, ("C", 1.5), ("C", 3.0)),
            ],
        )
        # counts add, counterexamples keep part order, zero worsts are kept
        # and keys come out sorted, energy ties go to the earlier part
        assert merged == part(4, [b, a], {"a.zero": 0.0, "z.max": 0.5}, ("A", 1.5), ("A", 3.0))
        assert list(merged.worst_residuals) == ["a.zero", "z.max"]

    def test_parallel_matches_serial(self):
        serial = scan_small_graphs(4, rank_energy=True)
        parallel = scan_small_graphs(4, rank_energy=True, jobs=3)
        assert serial == parallel

    def test_rank_energy_extremes(self):
        summary = scan_small_graphs(4, checks=("classification",), rank_energy=True)
        assert summary.lowest_energy is not None
        low6, low = summary.lowest_energy
        high6, high = summary.highest_energy
        assert low == pytest.approx(2.0, abs=1e-12)  # stars and completes reach 2
        assert high > low
        # the recorded graphs really do attain the recorded energies
        from randic.spectra import randic_energy

        assert randic_energy(parse_graph6(low6)) == pytest.approx(low, abs=1e-12)
        assert randic_energy(parse_graph6(high6)) == pytest.approx(high, abs=1e-12)

    def test_check_subset(self):
        summary = scan_small_graphs(3, checks=("energy",))
        assert summary.checks == ("energy",)
        assert all(k.startswith("energy.") for k in summary.worst_residuals)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            scan_small_graphs(3, checks=("bogus",))
        with pytest.raises(ValueError):
            scan_small_graphs(1)
        with pytest.raises(ValueError):
            scan_small_graphs(8)
        with pytest.raises(ValueError):
            scan_small_graphs(3, jobs=0)

    def test_repeated_check_rejected(self):
        with pytest.raises(ValueError, match="repeated scan checks: energy"):
            scan_small_graphs(3, checks=("energy", "charpoly", "energy"))

    @pytest.mark.parametrize("checks", [("", ""), ("energy", "")])
    def test_empty_check_name_rejected(self, checks):
        with pytest.raises(ValueError, match="empty scan check name"):
            scan_small_graphs(3, checks=checks)

    def test_no_checks_rejected(self):
        with pytest.raises(ValueError, match="no scan checks given"):
            scan_small_graphs(3, checks=())


def sorted_masks(order: int) -> np.ndarray:
    """Every connected edge mask of ``order``, in mask order, then sorted
    by edge count as a scan sorts a chunk."""
    masks = _connected_masks(order, 0, edge_mask_count(order))
    return np.array(sorted(masks, key=int.bit_count), dtype=np.int64)


def per_graph_reference(order: int):
    """Scan outcome with each graph's spectra solved alone, merged in
    enumeration order: R(G) and R(S(G)) by randic_eigenvalues, which solves
    a bipartite graph's block B one-sided and any other graph two-sided."""
    count = 0
    counterexamples = []
    worst: dict[str, float] = {}
    low = high = None
    for g in enumerate_connected_graphs(order):
        rho = randic_eigenvalues(g)
        rho_s = randic_eigenvalues(subdivision(g))
        outcomes, energy = _scan_one(g, SCAN_CHECKS, rho, rho_s)
        count += 1
        code = encode_graph6(g)
        for name, passed, residuals in outcomes:
            for key, value in residuals.items():
                label = f"{name}.{key}"
                worst[label] = max(worst.get(label, value), value)
            if not passed:
                counterexamples.append(Counterexample(code, name, dict(residuals)))
        if low is None or energy < low[1]:
            low = (code, energy)
        if high is None or energy > high[1]:
            high = (code, energy)
    return count, tuple(counterexamples), {k: worst[k] for k in sorted(worst)}, low, high


per_graph_scan = functools.lru_cache(maxsize=None)(per_graph_reference)


class TestBatchedScan:
    # (order, SCAN_CHUNK); None keeps the default, 50 splits order 5's 728
    # graphs over 15 chunks, a chunk of one graph takes the single-matrix
    # kernels, and chunks of 7 give stacks with one-member edge-count groups
    @pytest.mark.parametrize(
        "order,chunk",
        [(2, None), (3, None), (4, None), (5, None), (5, 50), (4, 1), (5, 7)],
    )
    def test_matches_per_graph_solves(self, order, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(randic.identities, "SCAN_CHUNK", chunk)
        summary = scan_small_graphs(order, rank_energy=True)
        count, counterexamples, worst, low, high = per_graph_scan(order)
        assert summary.graph_count == count
        assert summary.counterexamples == counterexamples
        assert summary.worst_residuals == worst
        assert summary.lowest_energy == low
        assert summary.highest_energy == high

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_chunk_matrices_equal_per_graph_builds(self, order):
        masks = sorted_masks(order)
        graphs = [Graph(order, _mask_edges(order, mask)) for mask in masks.tolist()]
        r, graph_blocks, groups = _chunk_matrices(order, masks, True)
        for g, built in zip(graphs, r):
            assert built.tobytes() == randic_matrix(g).tobytes()
        # the blocks of R(G) have _biadjacency's bytes, so its rows (the
        # smaller colour class, vertex 0's on a tie) and its row order;
        # every bipartite graph has one, in the stack of its row count
        bipartite = [i for i, g in enumerate(graphs) if _biadjacency(g) is not None]
        assert sorted(i for rows, _ in graph_blocks for i in rows.tolist()) == bipartite
        assert [stack.shape[1] for _, stack in graph_blocks] == sorted(
            {stack.shape[1] for _, stack in graph_blocks}
        )
        for rows, stack in graph_blocks:
            for i, block in zip(rows.tolist(), stack):
                want = _biadjacency(graphs[i])
                assert block.shape == want.shape
                assert block.tobytes() == want.tobytes()
        assert [rows.start for rows, _ in groups] == [
            i for i, g in enumerate(graphs) if i == 0 or g.m != graphs[i - 1].m
        ]
        assert groups[-1][0].stop == len(graphs)
        for rows, blocks in groups:
            members = graphs[rows]
            assert len({g.m for g in members}) == 1
            assert blocks.shape[0] == len(members)
            for g, block in zip(members, blocks):
                want = _biadjacency(subdivision(g))
                assert block.shape == want.shape
                assert block.tobytes() == want.tobytes()
        alone, same, none = _chunk_matrices(order, masks, False)
        assert [rows for rows, _ in none] == [rows for rows, _ in groups]
        assert all(blocks is None for _, blocks in none)
        assert alone.tobytes() == r.tobytes()
        assert all(
            a.tobytes() == b.tobytes() and c.tobytes() == d.tobytes()
            for (a, c), (b, d) in zip(same, graph_blocks, strict=True)
        )

    @pytest.mark.parametrize("order,step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 37), (6, 7)])
    def test_scan_spectra_equal_randic_eigenvalues(self, order, step):
        # every scanned R and R(S) spectrum has the bits of the graph's own
        # solve, for every graph of orders 2-5 and every 37th and every 7th
        # of order 6: a bipartite R(G) is solved on its block, as
        # randic_eigenvalues does; an R(S) spectrum, padded to the chunk's
        # widest, has them once its padding zeros are taken out
        masks = np.array(
            list(_connected_masks(order, 0, edge_mask_count(order)))[::step], dtype=np.int64
        )
        perm, m, _, rho, padded = _scan_spectra(order, masks, True)
        assert padded.shape == (len(masks), order + int(m.max()))
        seen = 0
        for rows, rho_s in by_edge_count(order, m, padded):
            for i, row, row_s in zip(perm[rows].tolist(), rho[rows], rho_s):
                g = Graph(order, _mask_edges(order, int(masks[i])))
                assert row.tobytes() == randic_eigenvalues(g).tobytes()
                assert row_s.tobytes() == randic_eigenvalues(subdivision(g)).tobytes()
                seen += 1
        assert seen == len(masks)


class TestCounterexamples:
    """An energy tolerance below the check's roundoff fails some graphs of
    orders 4 and 5 and passes the rest, so a scan has counterexamples to
    report; they must be the per-graph reference's, in mask order."""

    @pytest.mark.parametrize("order", [4, 5])
    @pytest.mark.parametrize("jobs,chunk", [(1, None), (2, None), (1, 7)])
    def test_scan_lists_the_failing_graphs(self, order, jobs, chunk, monkeypatch, inline_pools):
        monkeypatch.setattr(randic.identities, "ENERGY_TOL", 1e-15)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if chunk is not None:
            monkeypatch.setattr(randic.identities, "SCAN_CHUNK", chunk)
        count, counterexamples, worst, low, high = per_graph_reference(order)
        failing = {c.graph6 for c in counterexamples}
        assert 0 < len(failing) < count
        assert {c.check for c in counterexamples} == {"energy"}
        summary = scan_small_graphs(order, rank_energy=True, jobs=jobs)
        assert inline_pools == ([2] if jobs > 1 else [])
        assert not summary.passed
        assert summary.graph_count == count
        assert summary.counterexamples == counterexamples
        assert summary.worst_residuals == worst
        assert (summary.lowest_energy, summary.highest_energy) == (low, high)
