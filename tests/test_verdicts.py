"""Verdict table: the per-check PASS/FAIL and the exit code of
``verify <graph> --json`` for every path, star, cycle and complete graph of
orders 2..62, the Petersen graph, and the benchmark's verify-cli rosters of
seeds 1, 1404 and 7, replayed against golden/verdicts.json.

Only verdicts are pinned here, not residual digits, so the table holds on
every BLAS core; golden/*.stdout pins the bytes of a few cases.  A change
that moves a verdict on purpose regenerates the table and says which
verdicts moved:

    PYTHONPATH=src python3 tests/test_verdicts.py

The rosters are stored as request tokens (graph6 or ``gen:kind:n``), in
request order, so the replay does not depend on the benchmark's code.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from randic.cli import main

TABLE = Path(__file__).parent / "golden" / "verdicts.json"
ROSTER_SEEDS = (1, 1404, 7)
FAMILIES = ("path", "star", "cycle", "complete")


def family_tokens(kind: str) -> list[str]:
    return [f"gen:{kind}:{n}" for n in range(3 if kind == "cycle" else 2, 63)]


def verdict(token: str) -> dict:
    """Exit code and per-check verdicts of one ``verify --json`` request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", token, "--json"])
    checks = json.loads(out.getvalue())["checks"]
    verdicts = [[c["name"], "PASS" if c["passed"] else "FAIL"] for c in checks]
    return {"exit": code, "checks": verdicts}


def _load() -> dict:
    return json.loads(TABLE.read_text())


def _mismatches(table: dict, tokens) -> list[str]:
    wrong = []
    for token in dict.fromkeys(tokens):
        got = verdict(token)
        if got != table["graphs"][token]:
            wrong.append(f"{token}: {got} != {table['graphs'][token]}")
    return wrong


@pytest.fixture(scope="module")
def table():
    return _load()


@pytest.mark.parametrize("kind", FAMILIES)
def test_family_verdicts(table, kind):
    assert _mismatches(table, family_tokens(kind)) == []


def test_petersen_verdict(table):
    assert _mismatches(table, ["gen:petersen"]) == []


@pytest.mark.parametrize("seed", ROSTER_SEEDS)
def test_roster_verdicts(table, seed):
    roster = table["rosters"][str(seed)]
    assert len(roster) == 100
    assert _mismatches(table, roster) == []


def test_table_covers_every_token(table):
    tokens = [t for kind in FAMILIES for t in family_tokens(kind)] + ["gen:petersen"]
    tokens += [t for seed in ROSTER_SEEDS for t in table["rosters"][str(seed)]]
    assert set(tokens) == set(table["graphs"])


def _write() -> None:
    """Regenerate the table from the package on PYTHONPATH; the rosters come
    from the benchmark's request generator."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import VerifyCli

    rosters = {str(seed): VerifyCli().requests(seed) for seed in ROSTER_SEEDS}
    tokens = [t for kind in FAMILIES for t in family_tokens(kind)] + ["gen:petersen"]
    tokens += [t for roster in rosters.values() for t in roster]
    graphs = {token: verdict(token) for token in dict.fromkeys(tokens)}
    # one line per roster and per graph, so a moved verdict is a one-line diff
    lines = ["{", ' "rosters": {']
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rosters.items()))
    lines.append(" },")
    lines.append(' "graphs": {')
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in graphs.items()))
    lines.append(" }")
    lines.append("}")
    TABLE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write()
