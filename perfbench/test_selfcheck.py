"""Self-check of the benchmark itself (not part of the engine's test suite).

    python3 -m pytest perfbench/test_selfcheck.py

For each workload it runs one block untraced and the same block traced and
asserts that the printed metric names are exactly those BENCHMARK.json
declares, that every output passed its checks, and that the traced run
reproduces the untraced output digests.  It also checks that the benchmark
refuses to run, without printing a result, where there are no engine
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable if a == "python3" else a for a in SPEC["command"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "0", "--seconds", "0",
                   "--trace", str(trace), "--blocks", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    chain = next(ln.split()[-1] for ln in lines if ln.startswith("# digest-chain"))
    return json.loads(lines[-1]), chain


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_and_digests(workload):
    plain, plain_chain = _result(_run(workload, 0))
    traced, traced_chain = _result(_run(workload, 1))
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for res in (plain, traced):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert plain_chain == traced_chain


def test_refuses_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
