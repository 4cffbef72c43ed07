"""CLI stdout contract: each command in golden/cases.json must print exactly
the bytes stored in golden/<name>.stdout and exit with the stored code."""

import json
from pathlib import Path

import pytest

from randic.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_stdout_and_exit_code_match_golden(capsys, case):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.stdout").read_text()
