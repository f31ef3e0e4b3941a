"""Tests of the benchmark itself, on the toy-size workloads (`--smoke`).

    python -m pytest bench/test_smoke.py -q

They are outside the package's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import check_certificate, check_solve, check_trajectory, reduced_lambda_min  # noqa: E402
from run import END_TO_END, PER_LAYER, SRC  # noqa: E402
from workloads import NAMES, make_case, splitmix64_uniform, trajectory_rows  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [key for key, unit in PER_LAYER.items() if unit != "s" and unit != "us"]


def run_bench(workload: str, trace: int, seed: int = 3, script: Path = BENCH / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=script.parent.parent)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_smoke(workload):
    result = result_of(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_smoke_reports_every_layer_and_counts_repeat(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(PER_LAYER)
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
        assert first["metrics"][key]["value"] > 0, key
    case = make_case(workload, 3, smoke=True)
    gains = len(case.gains.split(","))
    steps = trajectory_rows(case.T, case.h) - 1
    assert first["metrics"]["flow.steps"]["value"] == (1 + gains) * steps
    assert first["metrics"]["model.decision_floats"]["value"] == 4 * case.game.N * case.game.n


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("traj_box", trace=0, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_own_splitmix64_matches_the_scenario_stream(seed):
    sys.path.insert(0, str(SRC))
    from aggseek.model import splitmix64

    stream = splitmix64(seed)
    want = np.array([next(stream) for _ in range(1000)])
    assert np.array_equal(splitmix64_uniform(seed, 1000), want)


def test_checks_reject_wrong_outputs(tmp_path):
    case = make_case("traj_box", 1, smoke=True)
    lam = {v: reduced_lambda_min(case.game, v) for v in ("paper", "symmetrized")}
    good = "".join(f"lambda_min_{v} = {x!r}\n" for v, x in lam.items())
    assert check_certificate(case, good) == []
    bad = good.replace(repr(lam["paper"]), repr(lam["paper"] * (1 + 1e-7)))
    assert check_certificate(case, bad)

    xbar = tmp_path / "xbar.csv"
    np.savetxt(xbar, case.game.project(case.game.xstar), delimiter=",", header="x0", comments="")
    assert any("residual" in p for p in check_solve(case, "vi_gap = 0\n", str(xbar)))

    rows = trajectory_rows(case.T, case.h)
    csv = tmp_path / "run.csv"
    csv.write_text("t,dist_avg,dist_sigma,W,residual\n" + "0,1,1,1,1\n" * rows)
    assert any("final dist_avg" in p for p in check_trajectory(case, str(csv)))
    csv.write_text("t,dist_avg,dist_sigma,W,residual\n" + "0,0,0,0,0\n" * (rows - 1))
    assert any("rows" in p for p in check_trajectory(case, str(csv)))
