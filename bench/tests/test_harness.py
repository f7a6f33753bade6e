"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest -q bench/tests

Every workload runs untraced and traced with its inputs shrunk, and must
print every metric named in BENCHMARK.json with its unit, with no failed
request.  The independent checker is exercised on its own as well.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import graphs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from common import ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small requests."""
    monkeypatch.setattr(workloads, "BIG", 12)
    monkeypatch.setattr(workloads, "PERTURB_SIZE", 12)
    monkeypatch.setattr(workloads, "PERTURB_OPS", 30)
    monkeypatch.setattr(workloads, "M1_COUNT", 3)
    monkeypatch.setattr(workloads, "M2_T12_COUNT", 2)
    monkeypatch.setattr(workloads, "M2_T0_LIGHT_COUNT", 2)
    monkeypatch.setattr(workloads, "M2_HEAVY_N", range(20, 22))
    monkeypatch.setattr(workloads, "MGE3_COUNT_PER_PAIR", 1)
    monkeypatch.setattr(workloads, "ANCHORS", ((1, 7, 2, 7),))
    monkeypatch.setattr(workloads, "POOL_STRATA", (("refute", 5_000, 30_000, 1),
                                                   ("find", 5_000, 30_000, 1)))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)


def run_bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def test_spec_names_the_metrics_the_harness_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    lines, result = run_bench(capsys, workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(name for name, _ in run.END_TO_END)
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"metric {name} = " in "\n".join(lines)
    assert "extra failed_ratio = 0 1" in lines
    report = json.loads(lines[0])
    issued = {req.replace("-", "_") for req in run.PATHS} & {k[:-2] for k in report["extra"]}
    assert issued, "no per-path latency sum printed"
    for key in ("git_sha", "python", "nproc", "cpu_model", "seed", "oddtorus_imported_from"):
        assert key in report["provenance"]
    assert Path(report["provenance"]["oddtorus_imported_from"]).is_relative_to(ROOT / "src")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric(tiny, capsys, workload):
    _, result = run_bench(capsys, workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == spans.PER_LAYER
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    if workload == "family-sweep":
        # Wrappers must reach names that construct and cli import directly.
        assert result["metrics"]["construct.verify_calls"]["value"] > 0
        assert result["metrics"]["torus.simplicity_witness.calls"]["value"] > 0


def test_latencies_are_scaled_to_the_nominal_machine_speed(tiny, capsys, monkeypatch):
    # A machine on which the reference code runs twice as fast as nominal
    # reports every time at twice what it measured.
    monkeypatch.setattr(run, "reference_s", lambda: run.REFERENCE_NOMINAL_S / 2)
    lines, result = run_bench(capsys, "exact-solve", 0)
    extra = json.loads(lines[0])["extra"]
    assert extra["speed_scale"][0] == 2
    wall = result["metrics"]["wall_s"]["value"]
    assert wall == pytest.approx(2 * extra["unscaled_wall_s"][0])
    setup = result["metrics"]["setup_s"]["value"]
    assert setup == pytest.approx(2 * extra["unscaled_setup_s"][0])


def test_solver_node_counts_repeat(tiny, capsys):
    counts = []
    for _ in range(2):
        _, result = run_bench(capsys, "exact-solve", 1)
        counts.append({n: m["value"] for n, m in result["metrics"].items() if n.endswith(".nodes")})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOAD_NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checker_catches_a_wrong_colouring():
    rot = graphs.torus_rotations(6, 6, 2)
    colour = {(i - 1) * 6 + j: 3 * ((i - 1) % 3) + (j - 1) % 3 + 1
              for i in range(1, 7) for j in range(1, 7)}
    assert graphs.colouring_defect(rot, colour) is None
    wrong = dict(colour)
    wrong[1] = colour[rot[1][0]]
    assert "monochromatic" in graphs.colouring_defect(rot, wrong)
    assert graphs.colouring_defect(rot, {**colour, 1: 10}) is not None


def test_perturbed_graph_is_a_valid_torus_embedding():
    rot = graphs.perturbed_torus(20, 20, 3, 300, seed=5)
    assert graphs.structure_defect(rot) is None
    assert min(len(r) for r in rot[1:]) >= 3
    edges = sum(len(r) for r in rot) // 2
    assert len(rot) - 1 - edges + len(graphs.faces_of(rot)) == 0
    assert rot == graphs.perturbed_torus(20, 20, 3, 300, seed=5)
    expect = graphs.discharge_expectation(rot)
    assert expect["total_before"] == expect["total_after"] == 0
    assert sum(expect["transfers"].values()) > 0


def test_perturbed_graph_at_workload_size_is_pinned():
    # A change here silently changes the pipeline-large workload.
    rot = graphs.perturbed_torus(workloads.PERTURB_SIZE, workloads.PERTURB_SIZE, 7,
                                 workloads.PERTURB_OPS, seed=1)
    expect = graphs.discharge_expectation(rot)
    assert expect["transfers"] == {"R1": 1381, "R2": 3908, "R3": 73, "R4": 700}
    assert expect["face_sizes"] == (3, 10)


def test_checker_does_not_import_the_package():
    tree = ast.parse((BENCH / "graphs.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] in ("oddtorus", "workloads", "run") for name in imported)


def test_pool_entries_are_decided_and_cross_checked():
    pool = workloads.load_pool()
    assert pool
    for e in pool:
        outcomes = [k["outcome"] for k in e["per_k"]]
        assert outcomes == ["refuted"] * (len(outcomes) - 1) + ["found"]
        assert e["chi_odd"] == len(outcomes)
        if e["V"] <= 9:
            assert e["bruteforce_chi_odd"] == e["chi_odd"]
    for kind, lo, hi, count in workloads.POOL_STRATA:
        stratum = [e for e in pool if workloads.pool_kind(e) == kind
                   and lo <= sum(k["nodes"] for k in e["per_k"]) < hi]
        assert len(stratum) >= count
