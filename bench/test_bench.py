"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They cover the harness, not the package: seeded inputs, the tracer's
patching and counts, and the oracles' ability to reject a wrong answer.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import COUNT_UNITS, LAYER_FUNCTIONS, Tracer  # noqa: E402

import randic.cli  # noqa: E402,F401  (loads every randic module)


def _namespaces() -> dict:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "randic" or name.startswith("randic.")
            for attr, value in vars(mod).items()}


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


RANDOM_GRAPH = workloads.graph6(7, workloads.random_connected(random.Random(0), 7, 9))


def _small_work():
    scan = workloads.ScanSmall()
    verify = workloads.VerifyCli()
    tokens = ("gen:petersen", "gen:path:10", RANDOM_GRAPH)
    return scan.execute(4), [verify.execute(t) for t in tokens]


def test_same_seed_gives_same_requests():
    work = workloads.VerifyCli()
    first, again, other = work.requests(7), work.requests(7), work.requests(8)
    assert first == again
    assert first != other
    assert len(first) == workloads.VERIFY_REQUESTS
    assert all(first[i] == "gen:petersen" for i in workloads.PETERSEN_SLOTS)

    def shape(reqs):
        named = sorted(t for t in reqs if t.startswith("gen:") and t != "gen:petersen")
        sizes = sorted((n, len(e)) for n, e in
                       (workloads.graph6_edges(t) for t in reqs if not t.startswith("gen:")))
        return named, sizes

    # another seed draws other graphs of the same orders and sizes
    assert shape(first) == shape(other)
    assert shape(first)[0] == sorted(workloads.FAMILY_ROSTER)


def test_tracer_wraps_every_caller_name_and_restores_it():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        during = _namespaces()
        for module in ("randic.identities", "randic.cli", "randic.spectra", "randic.linalg"):
            key = (module, "symmetric_eigenvalues")
            assert during[key] is not before[key], key
        patched = {key for key in before if during[key] is not before[key]}
        wrapped = {fname for table in LAYER_FUNCTIONS.values() for fname in table}
        assert {attr for _, attr in patched} == wrapped
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_cli_stdout_is_identical_with_tracing_on_and_off():
    plain = _small_work()[1]
    traced, tracer = _traced(lambda: _small_work()[1])
    assert traced == plain
    assert any(span[2] == "cli" for span in tracer.spans)


def test_traced_counts_repeat_exactly():
    first = _traced(_small_work)[1].layer_metrics(graphs=41)
    second = _traced(_small_work)[1].layer_metrics(graphs=41)
    counts = {k: v for k, (v, unit) in first.items() if unit in COUNT_UNITS}
    assert counts == {k: v for k, (v, unit) in second.items() if unit in COUNT_UNITS}
    assert counts["graphs.enumerate.graphs"] == workloads.A001349[4]
    assert counts["linalg.eig.calls"] > 0
    assert 0 < counts["linalg.eig.unique_ratio"] < 1
    assert counts["graphs.graph6.calls"] > 0


def test_oracles_reject_wrong_answers():
    star = workloads.StarSweep()
    assert star.judge(10, star.execute(10))[0] is None
    assert star.judge(10, star.execute(10) + 1e-8)[0] is not None

    verify = workloads.VerifyCli()
    code, stdout, stderr = verify.execute("gen:petersen")
    assert verify.judge("gen:petersen", (code, stdout, stderr)) == (None, [])
    payload = json.loads(stdout)
    for check in payload["checks"]:
        if check["name"] == "energy":
            check["values"]["energy"] += 1e-6
    assert verify.judge("gen:petersen", (code, json.dumps(payload), stderr))[0] is not None


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
