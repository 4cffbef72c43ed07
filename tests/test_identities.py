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
    encode_graph6,
    enumerate_connected_graphs,
    generate,
    parse_graph6,
    subdivision,
)
from randic.identities import (
    CHARPOLY_TOL,
    CORRESPONDENCE_TOL,
    ENERGY_TOL,
    LOCAL_TOL,
    SCAN_CHECKS,
    Classification,
    Counterexample,
    ScanSummary,
    _check_stack,
    _chunk_matrices,
    _merge,
    _root_products,
    _row,
    _scan_spectra,
    _scan_one,
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
from randic.linalg import symmetric_eigenvalues
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

    @pytest.mark.parametrize(
        "order,step",
        [pytest.param(order, 1, id=str(order)) for order in (2, 3, 4, 5)]
        + [pytest.param(6, 37, id="6-every-37th")],
    )
    def test_equals_scan_bit_for_bit(self, order, step):
        # both paths read theta = 1 + rho off the same R solve, and R(S)'s
        # spectrum off the same one-sided solve of its block, so every
        # residual agrees exactly, not just within tolerance; the scan side
        # runs on the stacks and rows that _scan_spectra gives a scan, and
        # each row's arrays and report equal verify_all's report
        graphs = list(enumerate_connected_graphs(order))[::step]
        mismatched = []
        seen = 0
        for members, r, rho, rho_s in _scan_spectra(order, [g.edges for g in graphs], True):
            group = [graphs[i] for i in members]
            checked = _check_stack(group, SCAN_CHECKS, r, rho, rho_s)
            for i, g in enumerate(group):
                counted, reports = {}, {}
                for name, c in checked.items():
                    for j in np.flatnonzero(c.rows == i).tolist():
                        counted[name] = (bool(c.passed[j]), _row(c.residuals, j))
                        reports[name] = c.report(j)
                verified = verify_all(g)
                if (
                    list(counted) != list(verified)
                    or counted != {name: as_counted(v) for name, v in verified.items()}
                    or reports != verified
                ):
                    mismatched.append(encode_graph6(g))
                seen += 1
        assert seen == len(graphs)
        assert mismatched == []


class TestDecidedOnce:
    """k is decided by one clustering of the rho stack per edge-count
    group, a scan builds each of its graphs once, and it builds reports
    and residual dicts only where they are read."""

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
        # the 38 graphs of order 4 have 3, 4, 5 or 6 edges: four groups of
        # 16 trees, 15, 6 and K4
        clusterings = self.count_calls(monkeypatch, "cluster_rows")
        builds = self.count_calls(monkeypatch, "Graph")
        assert scan_small_graphs(4).graph_count == 38
        assert (len(clusterings), len(builds)) == (4, 38)
        assert sorted(len(rho) for (rho,) in clusterings) == [1, 6, 15, 16]

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
        energies = self.count_calls(monkeypatch, "energy_of")
        scan_small_graphs(4, checks=("classification",))
        assert len(energies) == 0
        scan_small_graphs(4, checks=("classification",), rank_energy=True)
        assert len(energies) == 38

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


def per_graph_reference(order: int):
    """Scan outcome with each graph's spectra solved alone, merged in
    enumeration order: R(G) by symmetric_eigenvalues, and R(S(G)) by
    randic_eigenvalues, which solves the subdivision's block B one-sided."""
    count = 0
    counterexamples = []
    worst: dict[str, float] = {}
    low = high = None
    for g in enumerate_connected_graphs(order):
        rho = symmetric_eigenvalues(randic_matrix(g))
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
        graphs = sorted(enumerate_connected_graphs(order), key=lambda g: g.m)
        r, groups = _chunk_matrices(order, [g.edges for g in graphs], True)
        for g, built in zip(graphs, r):
            assert built.tobytes() == randic_matrix(g).tobytes()
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
        alone, none = _chunk_matrices(order, [g.edges for g in graphs], False)
        assert [rows for rows, _ in none] == [rows for rows, _ in groups]
        assert all(blocks is None for _, blocks in none)
        assert alone.tobytes() == r.tobytes()

    @pytest.mark.parametrize("order,step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 37)])
    def test_scan_spectra_equal_randic_eigenvalues(self, order, step):
        # every scanned R and R(S) spectrum has the bits of the graph's own
        # solve, for every graph of orders 2-5 and every 37th of order 6
        graphs = list(enumerate_connected_graphs(order))[::step]
        seen = 0
        for members, _, rho, rho_s in _scan_spectra(order, [g.edges for g in graphs], True):
            for i, row, row_s in zip(members, rho, rho_s):
                g = graphs[i]
                assert row.tobytes() == symmetric_eigenvalues(randic_matrix(g)).tobytes()
                assert row_s.tobytes() == randic_eigenvalues(subdivision(g)).tobytes()
                seen += 1
        assert seen == len(graphs)


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
