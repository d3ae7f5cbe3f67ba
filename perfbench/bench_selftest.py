"""Self-test of the benchmark (about two minutes):

    python3 -m pytest -q perfbench/bench_selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced counts repeat exactly across two runs of one seed,
that the layer self times plus the un-spanned time account for the traced
wall time, and that the benchmark fails without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics that are counts, or ratios of counts, and so must repeat exactly.
COUNT_SUFFIXES = (".calls", ".distinct", ".points", ".rows", "_ratio", "_per_call",
                  "trace.checks", "trace.spans")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result(workload, 1)["metrics"] for _ in range(2)]
    counts = [{k: m["value"] for k, m in r.items() if k.endswith(COUNT_SUFFIXES)}
              for r in runs]
    assert counts[0] == counts[1]
    m = runs[0]
    self_s = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
    assert self_s + m["bench.unspanned_s"]["value"] == pytest.approx(
        m["trace.wall_s"]["value"], rel=1e-9)


def test_fails_without_sources():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
