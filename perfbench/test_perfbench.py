"""Tests of the benchmark itself: output schema, exact counts, seeds.

    python3 -m pytest -q perfbench

Each workload runs one round (the smallest run) in a fresh process, untraced
and twice traced with the same seed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: counts that must repeat exactly for one seed
EXACT_COUNTS = ("ekr_search.nodes", "graphs.edges", "subsets.pairs",
                "exact.rref_gf.calls", "scheme.root_candidates")

#: per-layer metrics each workload is built to move, and ones it must not touch
STRESSED = {
    "ekr-search": ["ekr_search.max_clique.self_s", "ekr_search.nodes"],
    "drg-build": ["scheme.krein_cross_check.self_s", "subsets.pairs",
                  "cli.cache_bytes_written", "graphs.edges"],
    "param-tier": ["graphs.x2_pairs", "scheme.root_candidates",
                   "lp_cert.hamming_certificate.self_s"],
}
BYPASSED = {
    "ekr-search": ["subsets.pairs", "scheme.krein_cross_check.self_s"],
    "drg-build": [],
    "param-tier": ["graphs.vertices", "ekr_search.nodes", "cli.main.self_s"],
}

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(workload: str, seed: int, trace: int) -> dict:
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_schema(doc: dict, metrics: list[dict]) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    doc = result_of(workload, 1, 0)
    check_schema(doc, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = result_of(workload, 7, 1)
    check_schema(first, SPEC["per_layer"])
    second = result_of(workload, 7, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    value = {name: m["value"] for name, m in first["metrics"].items()}
    assert all(value[name] > 0 for name in STRESSED[workload])
    assert all(value[name] == 0 for name in BYPASSED[workload])


def test_seed_changes_subsets_not_pool():
    for workload in WORKLOADS:
        a, b, again = (workloads.make_jobs(workload, s) for s in (1, 2, 1))
        assert [j.name for j in a] == [j.name for j in b] == [j.name for j in again]
        assert [j.inputs for j in a] == [j.inputs for j in again]
    drawn = [(x.inputs, y.inputs) for x, y in zip(workloads.make_jobs("drg-build", 1),
                                                  workloads.make_jobs("drg-build", 2))
             if x.inputs is not None]
    assert drawn and any(x != y for x, y in drawn)


def test_tracer_restores_program(tmp_path):
    from drgcert import cli, ekr_search, exact, graphs

    before = (graphs.distance_census, ekr_search.distance_census, exact.rref_gf,
              graphs.rref_gf, exact.ExactMatrix.inverse, dict(cli.BUILDERS), cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert ekr_search.distance_census is graphs.distance_census
        assert ekr_search.distance_census is not before[0]
        with tracer.job(0):
            code, _, _ = workloads.run_cli(["build", "johnson", "-v", "5", "-d", "2"], tmp_path)
        assert code == 0
    finally:
        tracer.uninstall()
    after = (graphs.distance_census, ekr_search.distance_census, exact.rref_gf,
             graphs.rref_gf, exact.ExactMatrix.inverse, dict(cli.BUILDERS), cli.main)
    assert after == before
    names = {span[0] for span in tracer.spans}
    assert {"job", "cli.main", "graphs.build", "graphs.distance_census"} <= names
    self_s = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) == pytest.approx(tracer.job_wall_s())


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "ekr-search", 1, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
