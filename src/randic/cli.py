"""Command line front end.

Subcommands: ``spectrum``, ``energy``, ``verify``, ``scan``, ``subdivide``.
Graphs arrive as a graph6 literal, a file path, ``-`` for stdin, or a
``gen:kind:n`` generator token.  All commands enforce the package-wide
convention that graphs are connected with every degree positive.

Exit codes:
    0  success (and, for verify/scan, everything held)
    1  the run completed but a verification or scan found a failure
    2  unusable input: bad arguments, malformed graph text, unknown generator
    3  convention violation: isolated vertex or disconnected graph
    4  numerical failure inside the eigensolver
    5  a check's precondition does not hold for the given graph
  141  stdout closed before the output was written (128 + SIGPIPE)

Output is deterministic byte for byte: floats render at 12 significant
digits and no timing or environment data is printed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    GraphFormatError,
    IsolatedVertexError,
    PreconditionError,
)
from .graphs import (
    ENUMERATION_MAX_ORDER,
    GENERATOR_KINDS,
    GRAPH6_MAX_ORDER,
    Graph,
    _graph6_like,
    encode_graph6,
    format_edge_list,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
    subdivision,
)
from .identities import (
    SCAN_CHECKS,
    VerificationReport,
    classify_distinct_count,
    fmt,
    scan_small_graphs,
    verify_all,
    verify_eigenvalue_correspondence,
    verify_k_distinct_identity,
    verify_local_conditions,
    verify_subdivision_charpoly,
    verify_subdivision_energy,
)
from .linalg import Spectrum
# symmetric_eigenvalues is not called here; it stays bound because
# bench/test_bench.py checks that the tracer wraps it under randic.cli
from .linalg import symmetric_eigenvalues  # noqa: F401
from .spectra import randic_eigenvalues, randic_energy, randic_index

MATRIX_CHOICES = ("randic", "laplacian", "signless", "all")
VERIFY_CHOICES = SCAN_CHECKS + ("all",)


def _round12(x: float) -> float:
    """Round to 12 significant digits so JSON output is byte-stable."""
    return float(fmt(x))


def _json_ready(value):
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def emit_json(payload: dict) -> None:
    import json  # only --json output needs it

    print(json.dumps(_json_ready(payload), sort_keys=True))


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------


def _generate_from_token(token: str) -> Graph:
    parts = token.split(":")
    # parts[0] == "gen" guaranteed by the caller
    if len(parts) < 2 or not parts[1]:
        raise GraphFormatError("generator token must look like gen:kind:n")
    kind = parts[1]
    if kind not in GENERATOR_KINDS:
        raise GraphFormatError(
            f"unknown generator {kind!r}; choices: {', '.join(GENERATOR_KINDS)}"
        )
    if kind == "petersen":
        if len(parts) > 2 and parts[2] not in ("", "10"):
            raise GraphFormatError("gen:petersen has a fixed order of 10")
        return generate("petersen")
    if len(parts) != 3:
        raise GraphFormatError(f"generator {kind!r} needs an order, e.g. gen:{kind}:5")
    try:
        n = int(parts[2])
    except ValueError:
        raise GraphFormatError(f"generator order {parts[2]!r} is not an integer") from None
    # the short graph6 limit, checked before building: a generator order
    # has no other bound, and a huge graph exhausts memory long before
    # encode_graph6 would reject it
    if n > GRAPH6_MAX_ORDER:
        raise GraphFormatError(
            f"order {n} exceeds the short graph6 limit of {GRAPH6_MAX_ORDER}"
        )
    try:
        return generate(kind, n)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _parse_text(text: str, fmt_name: str) -> Graph:
    if fmt_name == "edges":
        return parse_edge_list(text)
    # graph6 or auto: several graph6 tokens are several graphs, where one is
    # expected
    tokens = text.split()
    if len(tokens) > 1 and all(map(_graph6_like, tokens)):
        raise GraphFormatError(f"expected one graph, found {len(tokens)} graph6 lines")
    if fmt_name == "graph6":
        return parse_graph6(text)
    # auto: other tokens, several of them or one purely numeric, are an edge
    # list; one other token reads as graph6
    if not tokens:
        raise GraphFormatError("empty graph input")
    if len(tokens) > 1 or tokens[0].isdigit():
        return parse_edge_list(text)
    return parse_graph6(text)


def load_graph(token: str, fmt_name: str = "auto") -> Graph:
    """Resolve one graph argument: stdin, generator, file, or literal."""
    if token == "-":
        return _parse_text(sys.stdin.read(), fmt_name)
    if token.startswith("gen:"):
        return _generate_from_token(token)
    # False, not an error, where the token cannot name a file: e.g. a graph6
    # literal of order 56..62 is longer than a file name may be
    if os.path.isfile(token):
        try:
            text = Path(token).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"cannot read {token}: {exc}") from None
        return _parse_text(text, fmt_name)
    return _parse_text(token, fmt_name)


def require_convention(g: Graph) -> None:
    """Connected with all degrees positive; everything here assumes it."""
    if g.n == 0:
        raise IsolatedVertexError("graph has no vertices")
    if g.n > 2 * g.m:
        # some vertex is isolated: at most 2m + 1 vertices are looked at, so
        # an edge list of huge order and few edges is rejected without
        # per-vertex arrays
        touched = {v for edge in g.edges for v in edge}
        isolated = next(i for i in range(g.n) if i not in touched)
        raise IsolatedVertexError(f"vertex {isolated} has degree zero")
    # the degrees, and below the adjacency lists they come from, are built
    # once per Graph, for the checks as well
    if 0 in g.degrees:
        raise IsolatedVertexError(f"vertex {g.degrees.index(0)} has degree zero")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def _graph_payload(g: Graph) -> dict:
    """Order, size and graph6 of ``g``; raises GraphFormatError when ``g``
    is too large for graph6, so commands call it before any solve."""
    return {"order": g.n, "size": g.m, "graph6": encode_graph6(g)}


def _graph_header(graph: dict) -> list[str]:
    """Text header lines of a ``_graph_payload``."""
    return [f"order {graph['order']}", f"size {graph['size']}", f"graph6 {graph['graph6']}"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _spectrum_block(name: str, values) -> tuple[list[str], dict]:
    s = Spectrum.of(values)
    lines = [
        f"matrix {name}",
        "eigenvalues " + " ".join(fmt(v) for v in s.values),
        "distinct "
        + " ".join(f"{fmt(v)}x{m}" for v, m in zip(s.distinct, s.multiplicities)),
    ]
    payload = {
        "eigenvalues": list(s.values),
        "distinct": list(s.distinct),
        "multiplicities": list(s.multiplicities),
    }
    return lines, payload


def cmd_spectrum(args) -> int:
    g = load_graph(args.graph, args.format)
    require_convention(g)
    graph = _graph_payload(g)
    # I - R and I + R share R's eigenvectors: their spectra are 1 - rho,
    # reversed to stay descending, and 1 + rho
    rho = randic_eigenvalues(g)
    spectra = {"randic": rho, "laplacian": (1.0 - rho)[::-1], "signless": 1.0 + rho}
    names = list(spectra) if args.matrix == "all" else [args.matrix]
    lines = _graph_header(graph)
    payload: dict = {"graph": graph, "spectra": {}}
    for name in names:
        block, data = _spectrum_block(name, spectra[name])
        lines.extend(block)
        payload["spectra"][name] = data
    if args.json:
        emit_json({"command": "spectrum", **payload})
    else:
        print("\n".join(lines))
    return 0


def cmd_energy(args) -> int:
    g = load_graph(args.graph, args.format)
    require_convention(g)
    graph = _graph_payload(g)
    energy = randic_energy(g)
    index = randic_index(g)
    if args.json:
        emit_json(
            {
                "command": "energy",
                "graph": graph,
                "randic_energy": energy,
                "randic_index": index,
            }
        )
    else:
        lines = _graph_header(graph)
        lines.append(f"randic_energy {fmt(energy)}")
        lines.append(f"randic_index {fmt(index)}")
        print("\n".join(lines))
    return 0


def _run_verify_check(name: str, g: Graph):
    """The outcome of one named check, solving what that check needs."""
    runner = {
        "charpoly": verify_subdivision_charpoly,
        "correspondence": verify_eigenvalue_correspondence,
        "energy": verify_subdivision_energy,
        "identity": verify_k_distinct_identity,
        "classification": classify_distinct_count,
        "local": verify_local_conditions,
    }[name]
    return runner(g)


def _verify_row(name: str, result) -> dict:
    """One check's outcome as a plain dict: name, passed, residuals, extras."""
    if name == "classification":
        return {
            "name": name,
            "passed": result.consistent,
            "residuals": {},
            "detail": result.detail,
        }
    report: VerificationReport = result
    out = {
        "name": name,
        "passed": report.passed,
        "tolerance": report.tolerance,
        "residuals": dict(report.residuals),
    }
    if report.values:
        out["values"] = dict(report.values)
    if report.detail:
        out["detail"] = report.detail
    return out


def cmd_verify(args) -> int:
    g = load_graph(args.graph, args.format)
    require_convention(g)
    graph = _graph_payload(g)
    if args.check == "all":
        results = verify_all(g)
    else:
        results = {args.check: _run_verify_check(args.check, g)}
    rows = [_verify_row(name, result) for name, result in results.items()]
    all_passed = all(row["passed"] for row in rows)
    if args.json:
        emit_json(
            {
                "command": "verify",
                "graph": graph,
                "checks": rows,
                "passed": all_passed,
            }
        )
    else:
        lines = _graph_header(graph)
        for row in rows:
            lines.append(f"check {row['name']} {'PASS' if row['passed'] else 'FAIL'}")
            for key in sorted(row["residuals"]):
                lines.append(f"  {key} {fmt(row['residuals'][key])}")
            if "values" in row:
                for key in sorted(row["values"]):
                    lines.append(f"  {key} {fmt(row['values'][key])}")
            if "detail" in row:
                lines.append(f"  note {row['detail']}")
        lines.append(f"result {'PASS' if all_passed else 'FAIL'}")
        print("\n".join(lines))
    return 0 if all_passed else 1


def cmd_scan(args) -> int:
    if args.order == ENUMERATION_MAX_ORDER and not args.allow_large:
        raise GraphFormatError(
            f"order {ENUMERATION_MAX_ORDER} scans roughly 2.1 million edge subsets; "
            "pass --allow-large to confirm"
        )
    checks = tuple(args.checks.split(",")) if args.checks else SCAN_CHECKS
    try:
        summary = scan_small_graphs(
            args.order, checks=checks, jobs=args.jobs, rank_energy=args.rank_energy
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    if args.json:
        payload = {
            "command": "scan",
            "order": summary.order,
            "checks": list(summary.checks),
            "graph_count": summary.graph_count,
            "counterexamples": [
                {"graph6": c.graph6, "check": c.check, "residuals": dict(c.residuals)}
                for c in summary.counterexamples
            ],
            "worst_residuals": dict(summary.worst_residuals),
            "passed": summary.passed,
        }
        if summary.lowest_energy is not None:
            payload["lowest_energy"] = {
                "graph6": summary.lowest_energy[0],
                "value": summary.lowest_energy[1],
            }
            payload["highest_energy"] = {
                "graph6": summary.highest_energy[0],
                "value": summary.highest_energy[1],
            }
        emit_json(payload)
    else:
        lines = [
            f"order {summary.order}",
            f"graphs {summary.graph_count}",
            "checks " + ",".join(summary.checks),
        ]
        for key in sorted(summary.worst_residuals):
            lines.append(f"worst {key} {fmt(summary.worst_residuals[key])}")
        if summary.lowest_energy is not None:
            lines.append(
                f"lowest_energy {fmt(summary.lowest_energy[1])} {summary.lowest_energy[0]}"
            )
            lines.append(
                f"highest_energy {fmt(summary.highest_energy[1])} {summary.highest_energy[0]}"
            )
        lines.append(f"counterexamples {len(summary.counterexamples)}")
        for c in summary.counterexamples[:20]:
            worst_key = max(c.residuals, key=c.residuals.get) if c.residuals else ""
            lines.append(f"  {c.graph6} {c.check} {worst_key}")
        lines.append(f"result {'PASS' if summary.passed else 'FAIL'}")
        print("\n".join(lines))
    return 0 if summary.passed else 1


def cmd_subdivide(args) -> int:
    g = load_graph(args.graph, args.format)
    require_convention(g)
    s = subdivision(g)
    if args.json:
        emit_json(
            {
                "command": "subdivide",
                "graph": _graph_payload(g),
                "subdivision": _graph_payload(s),
            }
        )
    elif args.output == "edges":
        print(format_edge_list(s), end="")
    else:
        print(encode_graph6(s))
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "graph",
        help="graph6 literal, file path, '-' for stdin, or gen:kind:n "
        "(kinds: complete, path, cycle, star, petersen)",
    )
    sub.add_argument(
        "--format",
        choices=("auto", "graph6", "edges"),
        default="auto",
        help="how to read file/stdin/literal input (default: auto-detect)",
    )
    sub.add_argument("--json", action="store_true", help="emit one JSON object")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``randic`` parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="randic",
        description="Spectra and verified identities of the degree-normalized "
        "adjacency matrix R = D^(-1/2) A D^(-1/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of R, I-R, or I+R")
    _add_graph_arg(p)
    p.add_argument("--matrix", choices=MATRIX_CHOICES, default="randic")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("energy", help="sum of |eigenvalues| of R, plus the edge index")
    _add_graph_arg(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("verify", help="check structural identities on one graph")
    _add_graph_arg(p)
    p.add_argument(
        "--check",
        choices=VERIFY_CHOICES,
        default="all",
        help="which identity to check (default: all applicable)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="verify identities over every connected graph of one order")
    p.add_argument("--order", type=int, required=True, help="graph order, 2..7")
    p.add_argument(
        "--checks",
        default="",
        help="comma-separated subset of: " + ",".join(SCAN_CHECKS),
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument(
        "--rank-energy",
        action="store_true",
        help="also report the graphs of smallest and largest energy",
    )
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="permit the order-7 scan (about 2.1 million edge subsets)",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("subdivide", help="place one new vertex on every edge")
    _add_graph_arg(p)
    p.add_argument(
        "--output",
        choices=("graph6", "edges"),
        default="graph6",
        help="output format (default graph6)",
    )
    p.set_defaults(func=cmd_subdivide)

    return parser


@functools.cache
def _graph_commands() -> dict[str, tuple[dict, dict]]:
    """For each subcommand that takes one graph, its parsed defaults and
    its store and store-true options by flag, read off ``build_parser``."""
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    plain = (argparse._StoreAction, argparse._StoreTrueAction)
    out = {}
    for name, sub in commands.choices.items():
        if [a.dest for a in sub._actions if not a.option_strings] != ["graph"]:
            continue
        # the namespace parse_args starts from: each action's default, then
        # set_defaults for the dests no action has
        defaults = {
            action.dest: action.default
            for action in sub._actions
            if argparse.SUPPRESS not in (action.dest, action.default)
        }
        defaults = {"command": name, **sub._defaults, **defaults}
        flags = {
            flag: action
            for action in sub._actions
            if type(action) in plain and action.type is None
            for flag in action.option_strings
        }
        out[name] = (defaults, flags)
    return out


def _parse_graph_command(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for a graph command whose
    tokens are the graph, which does not start with "-", and options
    spelled out in full with valid values; None for any other argv, which
    argparse then parses, errors and help included."""
    spec = _graph_commands().get(argv[0]) if argv else None
    if spec is None:
        return None
    defaults, flags = spec
    values = dict(defaults, graph=None)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if values["graph"] is not None:
                return None
            values["graph"] = token
            continue
        action = flags.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if values["graph"] is None:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_graph_command(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; point fd 1 at devnull so the flush at exit
        # stays quiet, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IsolatedVertexError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
