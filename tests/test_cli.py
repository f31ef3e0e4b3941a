from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from aggseek import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DEMAND = str(SCENARIOS / "demand_response.json")
SINGLE = str(SCENARIOS / "single_box.json")
MIXED = str(SCENARIOS / "mixed_sets.json")


def parse_kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key] = value
    return pairs


def polyline_count(svg_path: Path) -> int:
    root = ET.fromstring(svg_path.read_text())
    return sum(1 for el in root.iter() if el.tag.endswith("polyline"))


def write_doc(tmp_path: Path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def wide_box_doc() -> dict:
    return {
        "n": 1,
        "C": [[1.0]],
        "k": 0.6,
        "agents": {
            "list": [
                {"ell": 1.5, "xstar": [0.6], "linear": [0.5],
                 "set": {"box": {"lo": [-10.0], "hi": [10.0]}}}
            ]
        },
    }


def test_check_demand_scenario(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["check", "--scenario", DEMAND]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert kv["cond5_holds"] == "true"
    assert float(kv["cond5_margin"]) == pytest.approx(0.097, abs=1e-12)
    assert kv["prior_holds"] == "true"
    assert kv["strictly_monotone"] == "true"
    assert float(kv["lambda_min_symmetrized"]) == pytest.approx(-3.94033, abs=1e-4)


def test_check_single_scenario(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["check", "--scenario", SINGLE]) == 0
    kv = parse_kv(capsys.readouterr().out)
    # scalar condition fails for one agent even though the matrix certifies
    assert kv["cond5_holds"] == "false"
    assert float(kv["cond5_margin"]) == pytest.approx(-0.2, abs=1e-12)
    assert float(kv["lambda_min_symmetrized"]) > 0


def test_check_missing_file(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["check", "--scenario", "/nonexistent/nope.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_malformed_scenario(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("this is { not json")
    assert cli.main(["check", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("agents", "field"),
    [
        ({"list": [5]}, "agents.list[0] must be an object"),
        ("list", "agents must be an object"),
        ({"generator": {"count": 2.9, "ell": 1.5, "linear": [0.5], "set": {"box": {"lo": [0.0], "hi": [1.0]}},
                        "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}}},
         "agents.generator.count must be an integer"),
    ],
)
def test_check_names_the_field_of_a_bad_type(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], agents, field: str
) -> None:
    doc = write_doc(tmp_path, "bad.json", {**wide_box_doc(), "agents": agents})
    assert cli.main(["check", "--scenario", doc]) == 1
    assert field in capsys.readouterr().err


def test_solve_single_scenario(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["solve", "--scenario", SINGLE]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["sigmabar"].strip("[]")) == pytest.approx(0.25, abs=1e-9)
    assert float(kv["vi_gap"]) == 0.0
    assert int(kv["iterations"]) >= 1
    assert float(kv["final_update_norm"]) <= 1e-10


def test_solve_interior_fixed_point(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    scenario = write_doc(tmp_path, "wide.json", wide_box_doc())
    assert cli.main(["solve", "--scenario", scenario]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["sigmabar"].strip("[]")) == pytest.approx(0.16, abs=1e-8)


def test_solve_writes_decisions(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out = tmp_path / "eq"
    assert cli.main(["solve", "--scenario", SINGLE, "--out", str(out)]) == 0
    kv = parse_kv(capsys.readouterr().out)
    path = Path(kv["xbar"])
    assert path == Path(f"{out}.xbar.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x0"
    assert len(lines) == 2
    assert float(lines[1]) == pytest.approx(0.25, abs=1e-9)


def test_solve_full_relaxation_single_update(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    doc = {
        "n": 1,
        "C": [[0.0]],
        "k": 1.0,
        "agents": {
            "list": [
                {"ell": 1.0, "xstar": [0.2], "linear": [0.0],
                 "set": {"box": {"lo": [-5.0], "hi": [5.0]}}},
                {"ell": 1.0, "xstar": [0.6], "linear": [0.0],
                 "set": {"box": {"lo": [-5.0], "hi": [5.0]}}},
            ]
        },
    }
    scenario = write_doc(tmp_path, "decoupled.json", doc)
    assert cli.main(["solve", "--scenario", scenario, "--lambda", "1.0"]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert int(kv["iterations"]) == 1
    assert float(kv["sigmabar"].strip("[]")) == pytest.approx(0.4)


def test_solve_nonconvergent_exits_two(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    doc = {
        "n": 1,
        "C": [[5.0]],
        "k": 1.0,
        "agents": {
            "list": [
                {"ell": 1.0, "xstar": [1.0], "linear": [0.0],
                 "set": {"box": {"lo": [-10.0], "hi": [10.0]}}}
            ]
        },
    }
    scenario = write_doc(tmp_path, "cycle.json", doc)
    assert cli.main(["solve", "--scenario", scenario]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_reports_and_certifies(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["run", "--scenario", SINGLE, "--T", "2", "--h", "0.001"]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert kv["seed"] == "none"
    assert kv["N"] == "1" and kv["n"] == "1"
    assert float(kv["k"]) == 0.6
    assert float(kv["vi_gap"]) == 0.0
    assert kv["certified"] == "true"
    assert float(kv["W0"]) == pytest.approx(0.0625)
    assert "time_to_threshold" in kv
    assert "csv" not in kv and "svg" not in kv


def test_run_writes_outputs(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out = tmp_path / "runs" / "demo"
    assert cli.main(["run", "--scenario", SINGLE, "--T", "2", "--h", "0.001", "--out", str(out)]) == 0
    kv = parse_kv(capsys.readouterr().out)

    csv_path = Path(kv["csv"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,dist_avg,dist_sigma,W,residual"
    assert len(lines) == 1 + 2001
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[3] == pytest.approx(0.0625)

    svg_path = Path(kv["svg"])
    assert polyline_count(svg_path) == 2

    report = json.loads(Path(f"{out}.report.json").read_text())
    assert report["N"] == 1
    assert report["sigmabar"] == pytest.approx([0.25], abs=1e-9)
    assert report["certificate"]["cond5_holds"] is False


def test_run_outputs_are_reproducible(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", SINGLE, "--T", "1", "--h", "0.01", "--out", str(a)]) == 0
    assert cli.main(["run", "--scenario", SINGLE, "--T", "1", "--h", "0.01", "--out", str(b)]) == 0
    capsys.readouterr()
    assert Path(f"{a}.csv").read_bytes() == Path(f"{b}.csv").read_bytes()
    assert Path(f"{a}.svg").read_bytes() == Path(f"{b}.svg").read_bytes()


def test_run_tiny_horizon_still_emits_files(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out = tmp_path / "tiny"
    assert cli.main(["run", "--scenario", SINGLE, "--T", "0.001", "--h", "0.001", "--out", str(out)]) == 0
    kv = parse_kv(capsys.readouterr().out)
    lines = Path(kv["csv"]).read_text().splitlines()
    assert len(lines) == 1 + 2
    assert polyline_count(Path(kv["svg"])) == 2
    # too few samples to judge decay: no decay block in the report
    assert "W0" not in kv and "certified" not in kv


def test_run_gain_override(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["run", "--scenario", SINGLE, "--k", "0.3", "--T", "0.5", "--h", "0.01"]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["k"]) == 0.3
    # the certificate must reflect the overridden gain: min(1.5, 0.3) - 0.5 - 0.15
    assert float(kv["cond5_margin"]) == pytest.approx(-0.35, abs=1e-12)


def test_run_blowup_exits_two(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    doc = wide_box_doc()
    doc["k"] = 1e8
    scenario = write_doc(tmp_path, "hot.json", doc)
    assert cli.main(["run", "--scenario", scenario, "--h", "1.0", "--T", "100"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_oscillatory_discretization_is_flagged(capsys: pytest.CaptureFixture[str]) -> None:
    code = cli.main(["run", "--scenario", DEMAND, "--k", "50", "--h", "0.045", "--T", "10"])
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)
    assert kv["monotone"] == "false"
    assert math.isfinite(float(kv["W0"]))


def test_run_rejects_bad_config(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["run", "--scenario", SINGLE, "--h", "-0.1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("args", "field"),
    [
        (["run", "--T", "inf"], "horizon T"),
        (["run", "--h", "inf", "--T", "inf"], "step size h"),
        (["run", "--k", "inf"], "k must be"),
        (["sweep", "--k", "1,inf"], "swept k"),
    ],
)
def test_nonfinite_numbers_are_input_errors(
    args: list, field: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    assert cli.main([*args, "--scenario", SINGLE, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "inf" in err
    assert list(tmp_path.iterdir()) == []


def test_run_rejects_multiple_gains(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["run", "--scenario", SINGLE, "--k", "0.2,0.4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_full_outputs(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out = tmp_path / "sweep" / "demo"
    code = cli.main([
        "sweep", "--scenario", DEMAND, "--k", "0.2,0.4,0.6",
        "--T", "2", "--h", "0.01", "--out", str(out),
    ])
    assert code == 0
    kv = parse_kv(capsys.readouterr().out)

    for k in ("0.2", "0.4", "0.6"):
        assert float(kv[f"k{k}.k"]) == float(k)
        assert f"k{k}.time_to_threshold" in kv
        assert Path(f"{out}_k{k}.csv").exists()
        assert Path(f"{out}_k{k}.svg").exists()
    # the equilibrium itself does not depend on k
    assert kv["k0.2.sigmabar"] == kv["k0.4.sigmabar"] == kv["k0.6.sigmabar"]

    compare = Path(kv["compare_svg"])
    assert compare == Path(f"{out}_compare.svg")
    assert polyline_count(compare) == 3

    report = json.loads(Path(f"{out}.report.json").read_text())
    assert set(report.keys()) == {"k0.2", "k0.4", "k0.6"}
    assert report["k0.4"]["k"] == 0.4


@pytest.mark.parametrize("scenario", [SINGLE, MIXED])
def test_sweep_csvs_match_single_gain_runs(
    scenario: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # mixed_sets has ball rows and n = 2
    horizon = ["--T", "1.5", "--h", "0.02"]
    sweep = ["sweep", "--scenario", scenario, "--k", "0.4,0.8,3", *horizon]
    assert cli.main(sweep + ["--out", str(tmp_path / "sweep")]) == 0
    for k in ("0.4", "0.8", "3"):
        run = ["run", "--scenario", scenario, "--k", k, *horizon, "--out", str(tmp_path / f"run{k}")]
        assert cli.main(run) == 0
        assert (tmp_path / f"sweep_k{k}.csv").read_bytes() == (tmp_path / f"run{k}.csv").read_bytes()
    capsys.readouterr()


def test_sweep_blowup_in_one_gain_exits_two(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # h * k = 5 makes the signal update diverge for k = 10 only
    out = tmp_path / "hot"
    args = ["sweep", "--scenario", SINGLE, "--k", "0.5,10", "--h", "0.5", "--T", "400", "--out", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert re.search(r"non-finite state at step \d+ \(t = [0-9.e+]+\) for k = 10$", err.strip())
    assert list(tmp_path.iterdir()) == []


def test_sweep_requires_gain_list(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["sweep", "--scenario", SINGLE]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_nonpositive_gain(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["sweep", "--scenario", SINGLE, "--k", "0.2,-0.4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_gains_with_one_label(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out = tmp_path / "collide"
    args = ["sweep", "--scenario", SINGLE, "--k", "0.5,0.5000001", "--T", "1", "--out", str(out)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "0.5 and 0.5000001" in err and "k0.5" in err
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_scenario_exits_one(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    text = json.dumps(wide_box_doc()).replace('"xstar": [0.6]', '"xstar": [NaN]')
    scenario = tmp_path / "nan.json"
    scenario.write_text(text)
    assert cli.main(["solve", "--scenario", str(scenario)]) == 1
    assert "agents.list[0].xstar[0] is not finite" in capsys.readouterr().err


def test_usage_errors_exit_one() -> None:
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate", "--scenario", SINGLE])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--scenario", SINGLE, "--k", "zebra"])
    assert excinfo.value.code == 1


def test_console_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "aggseek.cli", "check", "--scenario", SINGLE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cond5_holds = false" in proc.stdout


def test_cli_import_leaves_out_the_network_stack() -> None:
    # xml.sax.saxutils would pull in urllib.request, http.client and email (30-40 ms),
    # html and html.entities another 2-3 ms; urllib.parse itself comes with pathlib
    code = "import sys, aggseek.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "aggseek.cli" in loaded
    heavy = [m for m in loaded if m.split(".")[0] in {"xml", "http", "email", "html"} or m == "urllib.request"]
    assert heavy == []


def test_svg_escapes_markup_in_text(tmp_path: Path) -> None:
    path = tmp_path / "plot.svg"
    cli.write_svg(path, [("a<b", np.array([0.0, 1.0]), np.array([1.0, 0.5]))], "x & y > z", "t", "d")
    text = path.read_text()
    assert ">x &amp; y &gt; z</text>" in text and ">a&lt;b</text>" in text
    assert polyline_count(path) == 1
