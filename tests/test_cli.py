import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randic
from randic.cli import load_graph, main
from randic.errors import ConvergenceError
from randic.graphs import encode_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "spectrum", "gen:complete:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order 3"
        assert lines[1] == "size 3"
        assert lines[2] == "graph6 Bw"
        assert lines[3] == "matrix randic"
        assert lines[4].startswith("eigenvalues 1 -0.5")
        assert "distinct 1x1 -0.5x2" in lines[5]

    def test_all_matrices(self, capsys):
        code, out, _ = run(capsys, "spectrum", "gen:cycle:4", "--matrix", "all")
        assert code == 0
        assert out.count("matrix ") == 3

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "gen:complete:3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "spectrum"
        assert payload["graph"]["order"] == 3
        values = payload["spectra"]["randic"]["eigenvalues"]
        assert values == pytest.approx([1.0, -0.5, -0.5], abs=1e-11)
        assert payload["spectra"]["randic"]["multiplicities"] == [1, 2]

    @pytest.mark.parametrize("token", ["gen:path:30", "gen:star:9", "gen:cycle:5", "gen:petersen"])
    def test_same_bits_as_library(self, capsys, monkeypatch, token):
        import randic.cli as cli_module
        from randic.identities import fmt
        from randic.spectra import randic_spectrum

        solved = []

        def recording(g):
            solved.append(randic.randic_eigenvalues(g))
            return solved[-1]

        monkeypatch.setattr(cli_module, "randic_eigenvalues", recording)
        code, out, _ = run(capsys, "spectrum", token)
        assert code == 0
        want = randic_spectrum(load_graph(token)).values
        (rho,) = solved
        assert rho.tobytes() == np.array(want).tobytes()
        assert out.splitlines()[4] == "eigenvalues " + " ".join(fmt(v) for v in want)

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "spectrum", "gen:petersen", "--matrix", "all", "--json")
        _, second, _ = run(capsys, "spectrum", "gen:petersen", "--matrix", "all", "--json")
        assert first == second


class TestEnergyCommand:
    def test_star_energy_and_index(self, capsys):
        code, out, _ = run(capsys, "energy", "gen:star:10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["randic_energy"] == pytest.approx(2.0, abs=1e-11)
        assert payload["randic_index"] == pytest.approx(3.0, abs=1e-11)

    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "energy", "gen:complete:4")
        assert code == 0
        assert "randic_energy 2" in out
        assert "randic_index 2" in out


class TestVerifyCommand:
    def test_all_checks_pass_on_petersen(self, capsys):
        code, out, _ = run(capsys, "verify", "gen:petersen")
        assert code == 0
        assert out.splitlines()[-1] == "result PASS"
        assert "check local PASS" in out

    def test_local_skipped_when_not_applicable(self, capsys):
        code, out, _ = run(capsys, "verify", "gen:complete:4")
        assert code == 0
        assert "check local" not in out

    def test_single_check_json(self, capsys):
        code, out, _ = run(capsys, "verify", "gen:cycle:5", "--check", "identity", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        (row,) = payload["checks"]
        assert row["name"] == "identity"
        assert row["residuals"]["identity"] < 1e-8

    def test_explicit_local_on_wrong_graph_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "verify", "gen:complete:4", "--check", "local")
        assert code == 5
        assert "three distinct" in err

    # the orders of the solved matrices, in solve order: a matrix solved
    # two-sided counts as its order n, and one solved one-sided on its
    # biadjacency block B counts as B's shape (the smaller colour class as
    # rows); R(G) takes the one-sided path when G is bipartite, as P10 is,
    # and R(S(G)) always; I - R and I + R are never solved, their spectra
    # are read off R's
    @pytest.mark.parametrize(
        "argv,orders",
        [
            (("verify", "gen:petersen"), [10, (10, 15)]),
            (("verify", "gen:path:10"), [(5, 5), (9, 10)]),
            (("verify", "gen:petersen", "--check", "energy"), [10, (10, 15)]),
            (("verify", "gen:petersen", "--check", "identity"), [10]),
            (("spectrum", "gen:petersen", "--matrix", "all"), [10]),
            (("spectrum", "gen:petersen", "--matrix", "laplacian"), [10]),
            (("spectrum", "gen:petersen", "--matrix", "signless"), [10]),
            (("verify", "gen:petersen", "--check", "local"), [10]),
            (("verify", "gen:petersen", "--check", "classification"), [10]),
            (("verify", "gen:petersen", "--check", "charpoly"), [10, (10, 15)]),
            (("verify", "gen:petersen", "--check", "correspondence"), [10, (10, 15)]),
        ],
    )
    def test_one_solve_per_matrix(self, capsys, monkeypatch, argv, orders):
        import randic.identities as identities_module
        import randic.spectra as spectra_module

        solved = []
        solve = identities_module.symmetric_eigenvalues
        solve_block = spectra_module.singular_values

        def counting(m, *args, **kwargs):
            solved.append(len(m))
            return solve(m, *args, **kwargs)

        def counting_block(b, *args, **kwargs):
            solved.append(b.shape)
            return solve_block(b, *args, **kwargs)

        monkeypatch.setattr(identities_module, "symmetric_eigenvalues", counting)
        monkeypatch.setattr(identities_module, "singular_values", counting_block)
        # spectrum solves through randic_eigenvalues, which sends Petersen,
        # not bipartite, to the full matrix, and verify sends S(G), always
        # bipartite, to its block
        monkeypatch.setattr(spectra_module, "symmetric_eigenvalues", counting)
        monkeypatch.setattr(spectra_module, "singular_values", counting_block)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert solved == orders

    @pytest.mark.parametrize(
        "token", ["gen:petersen", "gen:path:10", "gen:star:15", "gen:cycle:12", "gen:complete:5"]
    )
    def test_all_rows_equal_single_check_rows(self, capsys, token):
        code, out, _ = run(capsys, "verify", token, "--json")
        rows = json.loads(out)["checks"]
        assert [row["name"] for row in rows][:5] == [
            "charpoly",
            "correspondence",
            "energy",
            "identity",
            "classification",
        ]
        for row in rows:
            _, single, _ = run(capsys, "verify", token, "--check", row["name"], "--json")
            assert json.loads(single)["checks"] == [row]

    def test_charpoly_false_fail_on_cycle_36_still_shows(self, capsys):
        # cancellation in the expanded characteristic polynomials, not a
        # false identity; the exact-certificate work is to mend it
        code, out, _ = run(capsys, "verify", "gen:cycle:36")
        assert code == 1
        assert "check charpoly FAIL" in out

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        import randic.cli as cli_module
        from randic.identities import VerificationReport

        def always_fails(g):
            return VerificationReport(
                name="subdivision-energy",
                passed=False,
                tolerance=1e-9,
                residuals={"energy_match": 1.0},
            )

        monkeypatch.setattr(cli_module, "verify_subdivision_energy", always_fails)
        code, out, _ = run(capsys, "verify", "gen:path:4", "--check", "energy")
        assert code == 1
        assert "check energy FAIL" in out
        assert out.splitlines()[-1] == "result FAIL"

    def test_numerical_failure_exits_four(self, capsys, monkeypatch):
        import randic.cli as cli_module

        def blows_up(*args, **kwargs):
            raise ConvergenceError("sweep cap reached")

        monkeypatch.setattr(cli_module, "verify_subdivision_charpoly", blows_up)
        code, _, err = run(capsys, "verify", "gen:path:4", "--check", "charpoly")
        assert code == 4
        assert "sweep cap" in err


class TestRequestCost:
    def test_repeated_requests_leave_little_garbage(self, capsys):
        # a parser built per request leaves its reference cycles behind;
        # the first request builds the shared one
        assert main(["verify", "gen:petersen", "--json"]) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                assert main(["verify", "gen:petersen", "--json"]) == 0
            left = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert left < 50

    @pytest.mark.parametrize("command", ["verify", "energy"])
    def test_graph6_limit_checked_before_any_solve(self, capsys, monkeypatch, command):
        import randic.cli as cli_module

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a graph that graph6 cannot encode")

        monkeypatch.setattr(cli_module, "verify_all", no_solve)
        monkeypatch.setattr(cli_module, "randic_energy", no_solve)
        code, out, err = run(capsys, command, "gen:path:63")
        assert code == 2
        assert out == ""
        assert "graph6" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("energy", "gen:path:99999999999"),
            ("verify", "gen:complete:3000"),
            ("spectrum", "gen:star:100000"),
            ("subdivide", "gen:path:100", "--output", "edges"),
        ],
    )
    def test_generator_order_checked_before_any_build(self, capsys, monkeypatch, argv):
        import randic.cli as cli_module

        def no_build(*args, **kwargs):
            raise AssertionError("built a graph that graph6 cannot encode")

        monkeypatch.setattr(cli_module, "generate", no_build)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the short graph6 limit of 62" in err


class TestScanCommand:
    def test_order_four(self, capsys):
        code, out, _ = run(capsys, "scan", "--order", "4")
        assert code == 0
        assert "graphs 38" in out
        assert "counterexamples 0" in out
        assert out.splitlines()[-1] == "result PASS"

    def test_json_and_jobs_determinism(self, capsys):
        code, serial, _ = run(capsys, "scan", "--order", "4", "--rank-energy", "--json")
        assert code == 0
        code, parallel, _ = run(
            capsys, "scan", "--order", "4", "--rank-energy", "--jobs", "2", "--json"
        )
        assert code == 0
        assert serial == parallel
        payload = json.loads(serial)
        assert payload["graph_count"] == 38
        assert payload["passed"] is True
        assert payload["lowest_energy"]["value"] == pytest.approx(2.0)

    @pytest.mark.parametrize("order", range(2, 7))
    def test_same_bytes_without_bitwise_count(self, capsys, monkeypatch, order):
        # np.bitwise_count came with NumPy 2.0; a scan must not need it
        argvs = [["scan", "--order", str(order), *extra] for extra in ([], ["--rank-energy"])]
        want = [run(capsys, *argv) for argv in argvs]
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert [run(capsys, *argv) for argv in argvs] == want

    @pytest.mark.parametrize("order", [4, 5])
    def test_counterexamples_listed(self, capsys, monkeypatch, order):
        # below the energy check's roundoff some graphs fail; the text
        # output lists the first 20 failures in mask order
        import randic.identities
        from randic.graphs import enumerate_connected_graphs
        from randic.identities import verify_subdivision_energy

        monkeypatch.setattr(randic.identities, "ENERGY_TOL", 1e-15)
        failing = [
            encode_graph6(g)
            for g in enumerate_connected_graphs(order)
            if not verify_subdivision_energy(g).passed
        ]
        assert failing
        code, out, _ = run(capsys, "scan", "--order", str(order))
        assert code == 1
        lines = out.splitlines()
        at = lines.index(f"counterexamples {len(failing)}")
        listed = lines[at + 1 : -1]
        assert listed == [f"  {c} energy energy_match" for c in failing[:20]]
        assert lines[-1] == "result FAIL"

    def test_zero_worst_residual_is_printed(self, capsys):
        code, out, _ = run(capsys, "scan", "--order", "4")
        assert code == 0
        assert "worst classification.consistent 0" in out.splitlines()

    def test_order_seven_needs_opt_in(self, capsys):
        code, _, err = run(capsys, "scan", "--order", "7")
        assert code == 2
        assert "--allow-large" in err

    def test_order_out_of_range(self, capsys):
        code, _, _ = run(capsys, "scan", "--order", "11", "--allow-large")
        assert code == 2

    def test_check_subset(self, capsys):
        code, out, _ = run(capsys, "scan", "--order", "3", "--checks", "energy,charpoly")
        assert code == 0
        assert "checks energy,charpoly" in out

    def test_bogus_check_name(self, capsys):
        code, _, _ = run(capsys, "scan", "--order", "3", "--checks", "nope")
        assert code == 2

    def test_repeated_check_name(self, capsys):
        # a repeated check would run twice and count each failing graph twice
        code, out, err = run(capsys, "scan", "--order", "3", "--checks", "energy,energy")
        assert code == 2
        assert out == ""
        assert "repeated scan checks: energy" in err

    def test_empty_check_name(self, capsys):
        code, out, err = run(capsys, "scan", "--order", "3", "--checks", ",")
        assert code == 2
        assert out == ""
        assert "empty scan check name" in err


class TestSubdivideCommand:
    def test_graph6_roundtrip(self, capsys):
        from randic.graphs import generate, parse_graph6, subdivision

        code, out, _ = run(capsys, "subdivide", "gen:cycle:4")
        assert code == 0
        assert parse_graph6(out.strip()) == subdivision(generate("cycle", 4))

    def test_edges_output(self, capsys):
        code, out, _ = run(capsys, "subdivide", "gen:path:3", "--output", "edges")
        assert code == 0
        assert out.splitlines()[0] == "5"
        assert len(out.splitlines()) == 5  # order line + 2m = 4 edges

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "subdivide", "gen:star:4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["subdivision"]["order"] == 7
        assert payload["subdivision"]["size"] == 6


class TestInputResolution:
    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n1 2\n2 3\n"))
        code, out, _ = run(capsys, "energy", "-")
        assert code == 0
        assert "randic_energy 3" in out

    def test_graph6_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        assert "order 3" in out

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        assert "graph6 Bw" in out

    def test_forced_format(self, capsys, tmp_path):
        # "Bw" would sniff as graph6; forcing edges must fail cleanly
        path = tmp_path / "amb.txt"
        path.write_text("Bw\n")
        code, _, err = run(capsys, "spectrum", str(path), "--format", "edges")
        assert code == 2
        assert "edge list" in err

    @pytest.mark.parametrize("command", ["spectrum", "energy", "verify"])
    def test_several_graph6_lines_exit_two(self, capsys, monkeypatch, tmp_path, command):
        # they used to sniff as an edge list and fail on a non-integer token
        path = tmp_path / "two.g6"
        path.write_text("Dhc\nDhc\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: expected one graph, found 2 graph6 lines\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<<Dhc\nBw\nC~\n"))
        code, _, err = run(capsys, command, "-")
        assert code == 2
        assert err == "error: expected one graph, found 3 graph6 lines\n"
        # forcing the format keeps the format's own message
        code, _, err = run(capsys, command, str(path), "--format", "edges")
        assert code == 2
        assert "non-integer token in edge list" in err

    @pytest.mark.parametrize("command", ["spectrum", "energy", "verify"])
    def test_several_graph6_lines_under_forced_graph6_exit_two(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # they used to fail on the newline between them, as a character
        # outside the graph6 range
        path = tmp_path / "two.g6"
        path.write_text("Dhc\nDhc\n")
        code, out, err = run(capsys, command, str(path), "--format", "graph6")
        assert (code, out) == (2, "")
        assert err == "error: expected one graph, found 2 graph6 lines\n"
        monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\nDhc\n"))
        code, out, err = run(capsys, command, "-", "--format", "graph6")
        assert (code, out) == (2, "")
        assert err == "error: expected one graph, found 2 graph6 lines\n"
        # one graph, with its header and a trailing newline, still reads
        path.write_text(">>graph6<<Dhc\n")
        code, out, _ = run(capsys, command, str(path), "--format", "graph6")
        assert code == 0
        assert "graph6 Dhc" in out

    def test_edge_list_literal(self, capsys):
        code, out, _ = run(capsys, "energy", "3 0 1 1 2 0 2")
        assert code == 0
        assert "graph6 Bw" in out

    @pytest.mark.parametrize("command", ["energy", "spectrum"])
    @pytest.mark.parametrize("token", ["gen:path:62", "gen:star:56"])
    def test_long_graph6_literal(self, capsys, command, token):
        # over 255 characters, so probing it as a file name raises OSError
        literal = encode_graph6(load_graph(token))
        assert len(literal) > 255
        assert run(capsys, command, literal) == run(capsys, command, token)

    @pytest.mark.parametrize(
        "token",
        ["@@not-a-graph@@", "gen:moebius:5", "gen:cycle:two", "gen:cycle:2", "gen:petersen:12", "gen:"],
    )
    def test_bad_inputs_exit_two(self, capsys, token):
        code, _, err = run(capsys, "energy", token)
        assert code == 2
        assert err.startswith("error:")

    def test_disconnected_exits_three(self, capsys):
        code, _, err = run(capsys, "energy", "4 0 1 2 3")
        assert code == 3
        assert "not connected" in err

    def test_isolated_vertex_exits_three(self, capsys):
        code, _, err = run(capsys, "energy", "3 0 1")
        assert code == 3
        assert "degree zero" in err

    @pytest.mark.parametrize("command", ["energy", "subdivide"])
    @pytest.mark.parametrize("token,vertex", [("1000000000000 0 1", 2), ("1000000000000", 0)])
    def test_huge_order_edge_list_exits_three(self, capsys, command, token, vertex):
        # naming the isolated vertex must not allocate per-vertex arrays
        code, out, err = run(capsys, command, token)
        assert code == 3
        assert out == ""
        assert err == f"error: vertex {vertex} has degree zero\n"

    @pytest.mark.parametrize("command", ["energy", "verify"])
    def test_undecodable_file_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read")

    def test_float_rendering_is_12_digits(self, capsys):
        code, out, _ = run(capsys, "energy", "gen:path:3")
        assert code == 0
        # the edge index of P3 is sqrt(2), rendered at 12 significant digits
        assert f"randic_index {math.sqrt(2):.12g}" in out


class TestStartup:
    def test_spectrum_imports_no_pool_and_no_json(self):
        # a fresh interpreter, so modules other tests loaded do not count
        code = (
            "import sys\n"
            "from randic.cli import main\n"
            "main(['spectrum', 'gen:petersen'])\n"
            "loaded = [m for m in ('concurrent.futures', 'multiprocessing', 'json')"
            " if m in sys.modules]\n"
            "print(loaded, file=sys.stderr)\n"
        )
        src = str(Path(randic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [("energy", "gen:path:62"), ("verify", "gen:petersen"), ("scan", "--order", "3")],
        ids=lambda argv: argv[0],
    )
    def test_exits_141_without_traceback(self, argv):
        # the read end is closed before the child starts, so its first
        # write to stdout fails, whatever the output's size
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "randic", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestGraphCommandArgv:
    """The graph commands' argv is read without argparse where every token
    is the graph or an option spelled out with a valid value, into the
    namespace argparse gives; anything else goes to argparse."""

    PLAIN = [
        ["verify", "EyiO", "--json"],
        ["verify", "--json", "gen:petersen"],
        ["verify", "gen:petersen", "--check", "local", "--json"],
        ["verify", "gen:petersen", "--check", "local", "--check", "identity"],
        ["verify", "3 0 1 1 2", "--format", "edges", "--json", "--json"],
        ["verify", ""],
        ["spectrum", "gen:cycle:5", "--matrix", "all"],
        ["spectrum", "verify", "--format", "graph6"],
        ["energy", "gen:star:4", "--json"],
        ["subdivide", "gen:path:4", "--output", "edges"],
    ]
    DECLINED = [
        [],
        ["scan", "--order", "3"],
        ["verify"],
        ["verify", "-"],
        ["verify", "-5"],
        ["verify", "a", "b"],
        ["verify", "a", "--js"],
        ["verify", "a", "--json=1"],
        ["verify", "a", "--check"],
        ["verify", "a", "--check", "nope"],
        ["verify", "a", "--check", "-h"],
        ["verify", "a", "-h"],
        ["verify", "a", "--help"],
        ["verify", "a", "--"],
        ["spectrum", "a", "--check", "local"],
        ["bogus", "a"],
    ]

    @pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
    def test_plain_argv_reads_as_argparse_does(self, argv):
        from randic.cli import _parse_graph_command, build_parser

        got = _parse_graph_command(argv)
        assert got is not None
        assert vars(got) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
    def test_other_argv_goes_to_argparse(self, argv):
        from randic.cli import _parse_graph_command

        assert _parse_graph_command(argv) is None

    @pytest.mark.parametrize(
        "argv", [["verify", "a", "--check", "nope"], ["verify"], ["verify", "a", "b"]]
    )
    def test_argparse_errors_stay(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: randic" in capsys.readouterr().err


class TestHeaderlessEdgeList:
    @pytest.mark.parametrize("fmt", ["edges", "auto"])
    @pytest.mark.parametrize("text", ["0 1\n1 2", "0 1\n1 2\n2 3\n", "2 0\n0 1"])
    def test_missing_vertex_count_is_named(self, capsys, monkeypatch, tmp_path, fmt, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "verify", "-", "--format", fmt)
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert run(capsys, "verify", str(path), "--format", fmt) == (code, out, err)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        first = " ".join(text.split()[:2])
        assert err == (
            f"error: edge list must start with the vertex count n; its first line "
            f"'{first}' reads as an edge\n"
        )

    def test_dangling_index_after_a_header(self, capsys):
        code, _, err = run(capsys, "verify", "3\n0 1\n2", "--format", "edges")
        assert code == 2
        assert err == "error: dangling vertex index; edges come in pairs\n"


VERDICTS = Path(__file__).parent / "golden" / "verdicts.json"


class TestStatelessRequests:
    """A request's stdout does not depend on what the same process ran
    before it: the seed-1 verify-cli roster in order, reversed and shuffled
    in one process, and a sample of it in fresh interpreters, give every
    token the same bytes."""

    @staticmethod
    def roster() -> list[str]:
        return json.loads(VERDICTS.read_text())["rosters"]["1"]

    @staticmethod
    def outputs(tokens) -> dict[str, set[str]]:
        seen: dict[str, set[str]] = {}
        for token in tokens:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", token, "--json"])
            seen.setdefault(token, set()).add(f"{code}\n{out.getvalue()}")
        return seen

    def test_order_of_requests_in_one_process(self):
        roster = self.roster()
        shuffled = list(roster)
        random.Random(26).shuffle(shuffled)
        seen = self.outputs(roster + roster[::-1] + shuffled)
        assert len(seen) == len(set(roster))
        assert [token for token, outs in seen.items() if len(outs) > 1] == []

    def test_fresh_interpreters(self):
        roster = self.roster()
        warm = self.outputs(roster)
        sample = list(dict.fromkeys(roster))[::17] + ["gen:petersen"]
        src = str(Path(randic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        for token in sample:
            proc = subprocess.run(
                [sys.executable, "-m", "randic", "verify", token, "--json"],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert {f"{proc.returncode}\n{proc.stdout}"} == warm[token], token
