from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from aggseek import cli, equilibrium

from helpers import wide_box_population_doc

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


def with_gain(tmp_path: Path, scenario: str, k: float) -> str:
    """A copy of the scenario document with its gain set to k: run integrates the scenario as written."""
    doc = {**json.loads(Path(scenario).read_text(encoding="utf-8")), "k": k}
    return write_doc(tmp_path, f"{Path(scenario).stem}_k{k:g}.json", doc)


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


@pytest.mark.parametrize(
    ("scenario", "sha256"),
    [
        # every key's 17 digits, recorded before the dense M and its reduced core shared one builder
        (SINGLE, "3f3b2ed3291d5c57e23a5a52e9e11e058162b12e81f3c83c1544d9b80e515bbe"),
        (DEMAND, "aa485e74bef6fa3b4cfaf67a8c0515a34a670e9649a27ca893936e7177e1c212"),
        (MIXED, "90c8cde00db128483020cc8d72881610763aaec13e38e424d98107fdee3c721b"),
    ],
)
def test_check_stdout_pinned(scenario: str, sha256: str, capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["check", "--scenario", scenario]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_check_missing_file(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["check", "--scenario", "/nonexistent/nope.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_malformed_scenario(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("this is { not json")
    assert cli.main(["check", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def _listed(**fields) -> dict:
    """wide_box_doc's agents block with its one agent's fields replaced."""
    return {"agents": {"list": [{**wide_box_doc()["agents"]["list"][0], **fields}]}}


def _generated(**fields) -> dict:
    """An agents block of two generated agents, with fields replaced."""
    block = {"count": 2, "ell": 1.5, "linear": [0.5], "set": {"box": {"lo": [0.0], "hi": [1.0]}},
             "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}}
    return {"agents": {"generator": {**block, **fields}}}


@pytest.mark.parametrize(
    ("fields", "field"),
    [
        ({"agents": {"list": [5]}}, "agents.list[0] must be an object"),
        ({"agents": "list"}, "agents must be an object"),
        (_generated(count=2.9), "agents.generator.count must be an integer"),
        # past the C long np.repeat takes; a count that fits but is huge would really try to allocate
        (_generated(count=10**30), "agents.generator.count is too large, got 1" + "0" * 30),
        # a list or an object where a number belongs, and a set body that is no object
        (_listed(ell=[1.0]), "agents.list[0].ell must be a number, got [1.0]"),
        ({"k": [1.0]}, "k must be a number, got [1.0]"),
        (_listed(xstar={"a": 0.1}), "agents.list[0].xstar must be a list, got {'a': 0.1}"),
        (_listed(set={"box": [0.0]}), "agents.list[0].set.box must be an object, got [0.0]"),
        (_generated(ell=[1.5]), "agents.generator.ell must be a number, got [1.5]"),
        (_listed(set={"ball": {"center": [0.0], "radius": [1]}}),
         "agents.list[0].set.ball.radius must be a number, got [1]"),
    ],
)
def test_check_names_the_field_of_a_bad_type(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], fields: dict, field: str
) -> None:
    doc = write_doc(tmp_path, "bad.json", {**wide_box_doc(), **fields})
    assert cli.main(["check", "--scenario", doc]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    ("good", "bad", "field"),
    [
        ('"ell": 1.5', '"ell": 1' + "0" * 400, "agents.list[0].ell is not finite"),
        ('"C": [[1.0]]', '"C": [[-1' + "0" * 400 + "]]", "C[0][0] is not finite"),
        ('"k": 0.6', '"k": 1' + "0" * 4999, "k is not finite"),
        ('"n": 1', '"n": 1' + "0" * 400, "n must be an integer"),
        ('"n": 1, "C": [[1.0]]', '"n": 2, "C": [[1.0, 0.0], [0.0]]', "C must hold n = 2 rows"),
        ('"xstar": [0.6], ', "", "agents.list[0].xstar is missing"),
        ('"k": 0.6', '"k": 0.6, "note": ' + "[" * 100_000 + "]" * 100_000, "scenario nests too deeply"),
    ],
    ids=["ell-400-digits", "C-400-digits", "k-5000-digits", "n-400-digits", "ragged-C", "missing-xstar",
         "nested-100000"],
)
def test_check_exits_1_on_a_bad_literal_or_shape(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], good: str, bad: str, field: str
) -> None:
    text = json.dumps(wide_box_doc())
    assert good in text
    doc = tmp_path / "bad.json"
    doc.write_text(text.replace(good, bad))
    assert cli.main(["check", "--scenario", str(doc)]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


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


def two_cycle_doc() -> dict:
    """x = 1/6 is its equilibrium, and T(sigma) = 1 - 5 sigma its best response, so the relaxed map
    sigma <- (1 - 6 lam) sigma + lam contracts if and only if 0 < lam < 1/3."""
    agent = {"ell": 1.0, "xstar": [1.0], "linear": [0.0], "set": {"box": {"lo": [-10.0], "hi": [10.0]}}}
    return {"n": 1, "C": [[5.0]], "k": 1.0, "agents": {"list": [agent]}}


def test_solve_nonconvergent_exits_two(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # the solver needs 37 steps on this game: with 20 allowed, it gives up
    monkeypatch.setattr(equilibrium, "MAX_ITER", 20)
    scenario = write_doc(tmp_path, "cycle.json", two_cycle_doc())
    assert cli.main(["solve", "--scenario", scenario]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: no fixed point within 20 iterations")


def test_solve_converges_where_half_relaxation_cycles(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # at lam = 1/2 the map doubles the distance to 1/6 until the box clips it into a 2-cycle; the residual
    # grows, so the solver halves lam to 1/4, where the map halves the distance
    scenario = write_doc(tmp_path, "cycle.json", two_cycle_doc())
    assert cli.main(["solve", "--scenario", scenario]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["sigmabar"].strip("[]")) == pytest.approx(1 / 6, abs=1e-10)
    assert float(kv["vi_gap"]) <= 20 * 6e-10  # the box's width times the gradient 6 sigma - 1 at that distance


def test_run_exits_zero_on_a_population_where_half_relaxation_cycles(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    scenario = tmp_path / "population.json"
    scenario.write_text(wide_box_population_doc(1.0, 5.0))
    assert cli.main(["run", "--scenario", str(scenario), "--h", "1e-2", "--T", "60"]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["vi_gap"]) <= 1e-6 and int(kv["iterations"]) == 37
    assert float(kv["final_dist_avg"]) <= 1e-6  # the flow ends at the solver's equilibrium


# one agent, ell = 1, C = -1.5 < -ell: not strictly monotone, with three equilibria, -10, -1 and 10
THREE_EQUILIBRIA = {"n": 1, "C": [[-1.5]], "k": 1.5, "agents": {"list": [
    {"ell": 1.0, "xstar": [0.5], "linear": [0.0], "set": {"box": {"lo": [-10.0], "hi": [10.0]}}}]}}
NOT_UNIQUE = "warning: pseudo-gradient is not strictly monotone; the equilibrium may not be unique\n"


@pytest.mark.parametrize(
    "command, err",
    [(["check"], ""), (["solve"], NOT_UNIQUE), (["run", "--T", "5", "--h", "1e-2"], NOT_UNIQUE),
     (["sweep", "--k", "1,2", "--T", "5", "--h", "1e-2"], NOT_UNIQUE)],
    ids=["check", "solve", "run", "sweep"],
)
def test_a_library_warning_prints_one_line(
    command: list, err: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # Python's own format would show an internal path and source line; stdout is the same as with the warning off
    argv = [*command, "--scenario", write_doc(tmp_path, "three.json", THREE_EQUILIBRIA)]
    proc = subprocess.run([sys.executable, "-m", "aggseek.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(argv) == 0
    assert capsys.readouterr() == (proc.stdout, "")
    hook = warnings.showwarning
    assert cli.main(argv) == 0 and warnings.showwarning is hook  # a caller in the same process keeps its hook
    assert capsys.readouterr() == (proc.stdout, err)


def test_readme_quotes_the_warning_line_solve_prints(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    readme = " ".join((SCENARIOS.parent / "README.md").read_text(encoding="utf-8").split())
    quoted = re.findall(r"`(warning: [^`<]+)`", readme)
    assert quoted
    assert cli.main(["solve", "--scenario", write_doc(tmp_path, "three.json", THREE_EQUILIBRIA)]) == 0
    err = capsys.readouterr().err
    assert [f"{line}\n" for line in quoted] == [err] * len(quoted)


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


def test_unsettled_reports_are_strict_json(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    def no_constant(literal: str):
        raise ValueError(f"report holds the non-JSON literal {literal}")

    short = ["--T", "0.05", "--h", "1e-2"]
    assert cli.main(["run", "--scenario", SINGLE, *short, "--out", str(tmp_path / "short")]) == 0
    assert parse_kv(capsys.readouterr().out)["time_to_threshold"] == "nan"  # stdout keeps its nan
    assert cli.main(["sweep", "--scenario", MIXED, "--k", "0.5,2", *short, "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    run = json.loads((tmp_path / "short.report.json").read_text(), parse_constant=no_constant)
    sweep = json.loads((tmp_path / "sw.report.json").read_text(), parse_constant=no_constant)
    assert [report["time_to_threshold"] for report in (run, sweep["k0.5"], sweep["k2"])] == [None] * 3


def test_run_certifies_the_scenario_gain(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["run", "--scenario", with_gain(tmp_path, SINGLE, 0.3), "--T", "0.5", "--h", "0.01"]) == 0
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["k"]) == 0.3
    # the certificate must reflect the scenario's gain: min(1.5, 0.3) - 0.5 - 0.15
    assert float(kv["cond5_margin"]) == pytest.approx(-0.35, abs=1e-12)


def test_an_option_left_out_is_left_out_of_the_library_call(monkeypatch: pytest.MonkeyPatch) -> None:
    # the library owns every default: the parser passes on only the options given
    calls: list[tuple[str, dict]] = []
    for name in ("solve_equilibrium", "IntegratorConfig"):
        def recording(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append((_name, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    for argv, want in (
        (["solve"], [("solve_equilibrium", {})]),
        (["run"], [("IntegratorConfig", {}), ("solve_equilibrium", {})]),
        (["run", "--T", "5", "--h", "1e-2"], [("IntegratorConfig", {"T": 5.0, "h": 1e-2}), ("solve_equilibrium", {})]),
        (["sweep", "--k", "0.5,2", "--T", "5"], [("IntegratorConfig", {"T": 5.0}), ("solve_equilibrium", {})]),
    ):
        calls.clear()
        assert cli.main([*argv, "--scenario", SINGLE]) == 0
        assert calls == want, argv


@pytest.mark.parametrize("command", [["solve"], ["run"], ["check"]])
def test_an_agent_mean_past_the_float_range_exits_two_with_one_error_line(
    command: list[str], tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # three agents in the box [8e307, 9e307]: their centers sum past the float range, so the solver's
    # starting mean is inf; the suite turns a numpy RuntimeWarning into an error. The certificate reads
    # C, k and ell, not the agents' mean, so check still reports
    agent = {"ell": 1.0, "xstar": [8.5e307], "linear": [0.0], "set": {"box": {"lo": [8e307], "hi": [9e307]}}}
    scenario = write_doc(tmp_path, "top.json", {"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [agent] * 3}})
    code = cli.main([*command, "--scenario", scenario])
    out, err = capsys.readouterr()
    if command == ["check"]:
        assert (code, err) == (0, "") and "cond5_holds = " in out
    else:
        assert (code, out, err) == (2, "", "error: non-finite fixed-point update at iteration 1\n")


def test_run_blowup_exits_two(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    doc = wide_box_doc()
    doc["k"] = 1e8
    scenario = write_doc(tmp_path, "hot.json", doc)
    out = tmp_path / "sub" / "hot"
    assert cli.main(["run", "--scenario", scenario, "--h", "1.0", "--T", "100", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


def test_run_oscillatory_discretization_is_flagged(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    code = cli.main(["run", "--scenario", with_gain(tmp_path, DEMAND, 50.0), "--h", "0.045", "--T", "10"])
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
        (["sweep", "--k", "inf"], "k must be"),
        (["sweep", "--k", "1,inf"], "k must be"),
    ],
)
def test_nonfinite_numbers_are_input_errors(
    args: list, field: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    assert cli.main([*args, "--scenario", SINGLE, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err and "inf" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["run"], ["sweep", "--k", "0.5,2"]])
@pytest.mark.parametrize(
    "horizon",
    [
        ["--T", "1e300", "--h", "1e-300"],  # T / h overflows to infinity: rejected with the configuration
        ["--T", "1e13", "--h", "1e-3"],  # 10^16 steps: their samples cannot be allocated, and fail at once
    ],
)
def test_oversized_horizons_exit_1(
    command: list, horizon: list, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    assert cli.main([*command, "--scenario", SINGLE, *horizon, "--out", str(tmp_path / "out" / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "T" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no file, and no --out directory either


@pytest.mark.parametrize(
    "command, last_file",
    [
        (["solve"], "x.xbar.csv"),
        (["run", "--T", "0.1", "--h", "0.01"], "x.report.json"),
        (["sweep", "--k", "0.5,2", "--T", "0.1", "--h", "0.01"], "x.report.json"),
    ],
    ids=["solve", "run", "sweep"],
)
def test_a_command_whose_last_file_cannot_be_written_prints_no_result(
    command: list, last_file: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    (tmp_path / last_file).mkdir()  # a directory where the command writes its last file
    assert cli.main([*command, "--scenario", MIXED, "--out", str(tmp_path / "x")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / last_file]  # every file the command wrote is removed


def test_a_failed_command_keeps_the_files_of_the_command_before_it(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # main forgets a finished command's files, so a later failure in the same process removes only its own
    short = ["--T", "0.1", "--h", "0.01"]
    assert cli.main(["run", "--scenario", SINGLE, *short, "--out", str(tmp_path / "ok")]) == 0
    (tmp_path / "x.report.json").mkdir()
    assert cli.main(["run", "--scenario", SINGLE, *short, "--out", str(tmp_path / "x")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.csv", "ok.report.json", "ok.svg", "x.report.json"]


class BrokenStdout(io.TextIOBase):
    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def test_a_result_that_cannot_be_printed_exits_1_and_leaves_no_file(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # main prints the result inside its try: a failing stdout gives one error line, and the files go
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert cli.main(["run", "--scenario", SINGLE, "--T", "0.1", "--h", "0.01", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 32] Broken pipe\n"
    assert list(tmp_path.iterdir()) == []


def test_a_stdout_closed_before_the_result_is_flushed_exits_1_and_leaves_no_file(tmp_path: Path) -> None:
    # the pipe's read end is closed before the spawn, and stdout is block-buffered, as it is on a pipe by
    # default: the result fails at main's flush, inside its try, and fd 1 then points at /dev/null, so
    # Python's own flush at exit has nothing left to fail on
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        args = ["-m", "aggseek.cli", "run", "--scenario", MIXED, "--T", "0.1", "--h", "0.01", "--out", str(tmp_path / "x")]
        proc = subprocess.run([sys.executable, *args], stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["solve"], ["run"], ["sweep", "--k", "0.5,2"]])
@pytest.mark.parametrize("prefix", ["", "dir/", ".", "dir/.."])
def test_an_out_prefix_that_names_no_file_is_a_usage_error(
    command: list, prefix: str, tmp_path: Path, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # "" wrote nothing, and the others wrote hidden files such as dir/.csv, dir/_k0.5.csv and ..csv
    monkeypatch.chdir(tmp_path)
    message = f"argument --out: the prefix must end in a file name, got {prefix!r}"
    assert_usage_error([*command, "--scenario", SINGLE, "--out", prefix], message, capsys)
    assert list(tmp_path.iterdir()) == []


def assert_usage_error(args: list, message: str, capsys: pytest.CaptureFixture[str]) -> None:
    """argparse rejects the arguments: exit 1, an empty stdout, the subcommand's usage line and the error."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(args)
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (1, "")
    assert err.startswith(f"usage: aggseek {args[0]} ") and f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [["solve", "--lambda", "0.5"], ["solve", "--tol", "1e-12"], ["run", "--k", "2"]])
def test_a_removed_option_is_a_usage_error(args: list, capsys: pytest.CaptureFixture[str]) -> None:
    # solve picks its relaxation and stops at equilibrium.TOL, and run integrates the scenario's k (sweep --k
    # runs other gains): each option is one its subcommand does not have, reported with that subcommand's usage
    assert_usage_error([*args, "--scenario", SINGLE], f"unrecognized arguments: {' '.join(args[1:])}\n", capsys)


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
        run = ["run", "--scenario", with_gain(tmp_path, scenario, float(k)), *horizon]
        assert cli.main([*run, "--out", str(tmp_path / f"run{k}")]) == 0
        assert (tmp_path / f"sweep_k{k}.csv").read_bytes() == (tmp_path / f"run{k}.csv").read_bytes()
    capsys.readouterr()


def test_sweep_blowup_in_one_gain_exits_two(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # h * k = 5 makes the signal update diverge for k = 10 only
    out = tmp_path / "sub" / "hot"
    args = ["sweep", "--scenario", SINGLE, "--k", "0.5,10", "--h", "0.5", "--T", "400", "--out", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert re.search(r"non-finite state at step \d+ \(t = [0-9.e+]+\) for k = 10$", err.strip())
    assert not (tmp_path / "sub").exists()


def test_sweep_requires_gain_list(capsys: pytest.CaptureFixture[str]) -> None:
    assert_usage_error(["sweep", "--scenario", SINGLE], "the following arguments are required: --k", capsys)


def test_sweep_rejects_empty_gain_list(capsys: pytest.CaptureFixture[str]) -> None:
    assert_usage_error(["sweep", "--scenario", SINGLE, "--k", ",,"], "argument --k: bad k list ',,'", capsys)


def test_sweep_rejects_a_gain_that_is_not_a_number(capsys: pytest.CaptureFixture[str]) -> None:
    assert_usage_error(["sweep", "--scenario", SINGLE, "--k", "a,b"], "argument --k: bad k list 'a,b'", capsys)


def test_sweep_rejects_nonpositive_gain(capsys: pytest.CaptureFixture[str]) -> None:
    assert cli.main(["sweep", "--scenario", SINGLE, "--k", "0.2,-0.4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_gains_with_one_label(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # argparse rejects the list before the scenario is read: this one does not exist
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "collide")
    args = ["sweep", "--scenario", missing, "--k", "0.5,0.5000001", "--T", "1", "--out", out]
    assert_usage_error(args, "argument --k: gains 0.5 and 0.5000001 share the label k0.5", capsys)
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
        cli.main(["sweep", "--scenario", SINGLE, "--k", "zebra"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("warnings", ["", "error::RuntimeWarning"])
def test_solve_overflow_exits_two_with_one_error_line(warnings: str, tmp_path: Path) -> None:
    # C sigma / ell overflows to infinity in the first best response: the solver names the non-finite
    # update, and numpy's overflow warning neither reaches stderr nor becomes an exception
    doc = {"n": 1, "C": [[1e300]], "k": 1.0, "agents": {"list": [{"ell": 1e-300, "xstar": [1.0], "linear": [0.0],
                                                                  "set": {"ball": {"center": [1.0], "radius": 0.5}}}]}}
    proc = subprocess.run(
        [sys.executable, "-m", "aggseek.cli", "solve", "--scenario", write_doc(tmp_path, "overflow.json", doc)],
        capture_output=True, text=True, env={**os.environ, "PYTHONWARNINGS": warnings},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: non-finite fixed-point update at iteration 1\n"


@pytest.mark.parametrize(
    "scenario, C", [(SINGLE, [[1e308]]), (MIXED, [[1e308, 1e308], [1e308, 1e308]]), (DEMAND, [[1e308]])]
)
def test_a_finite_coupling_near_the_float_range_runs_without_warnings(
    scenario: str, C: list, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # C + C', ||C||_inf and a ball row's ||g|| overflow; the suite turns any numpy RuntimeWarning into an error
    doc = {**json.loads(Path(scenario).read_text(encoding="utf-8")), "C": C}
    path = write_doc(tmp_path, "extreme.json", doc)
    for command in (["check"], ["solve"], ["run", "--T", "1", "--h", "1e-2"]):
        assert cli.main([*command, "--scenario", path]) == 0
        kv = parse_kv(capsys.readouterr().out)
        certified = [key for key in ("lambda_min_paper", "lambda_min_symmetrized") if key in kv and float(kv[key]) > 0]
        assert not certified and kv.get("certificate_rate", "none") == "none"


def test_console_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "aggseek.cli", "check", "--scenario", SINGLE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cond5_holds = false" in proc.stdout


def test_cli_import_leaves_out_the_network_stack(tmp_path: Path) -> None:
    # xml.sax.saxutils would pull in urllib.request, http.client and email (30-40 ms),
    # html and html.entities another 2-3 ms; urllib.parse itself comes with pathlib.
    # The run with --out covers what the writers import when called: np.unique, for
    # one, imports numpy.ma (about 16 ms)
    run = f"aggseek.cli.main(['run', '--scenario', {SINGLE!r}, '--T', '0.1', '--h', '0.01', '--out', {str(tmp_path / 'r')!r}])"
    code = f"import sys, aggseek.cli; {run}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "aggseek.cli" in loaded and (tmp_path / "r.svg").exists()
    heavy = [m for m in loaded if m.split(".")[0] in {"xml", "http", "email", "html"} or m == "urllib.request"]
    assert heavy == [] and "numpy.ma" not in loaded


def test_svg_escapes_markup_in_text(tmp_path: Path) -> None:
    path = tmp_path / "plot.svg"
    cli.write_svg(path, [("a<b", np.array([0.0, 1.0]), np.array([1.0, 0.5]))], "x & y > z", "d")
    text = path.read_text()
    assert ">x &amp; y &gt; z</text>" in text and ">a&lt;b</text>" in text
    assert polyline_count(path) == 1


def y_ticks(svg_path: Path) -> list[str]:
    root = ET.fromstring(svg_path.read_text())
    return [el.text for el in root.iter() if el.tag.endswith("text") and el.get("text-anchor") == "end"]


def test_plots_of_a_flat_or_an_unplottable_series_keep_their_axes(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    # a run that starts at its equilibrium: every distance is 0, so the y range is padded to [-1, 1],
    # and dist_avg has settled at the first sample
    agent = {"ell": 1.0, "xstar": [0.5], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}
    at_rest = write_doc(tmp_path, "at_rest.json", {"n": 1, "C": [[0.0]], "k": 1.0, "agents": {"list": [agent]}})
    assert cli.main(["run", "--scenario", at_rest, "--T", "1", "--h", "0.1", "--out", str(tmp_path / "rest")]) == 0
    assert parse_kv(capsys.readouterr().out)["time_to_threshold"] == "0"
    assert y_ticks(tmp_path / "rest.svg") == ["-1", "-0.6", "-0.2", "0.2", "0.6", "1"]
    # an optimum at 1e200 from a start at 0: every distance overflows to inf, no point is drawn,
    # and the y axis falls back to [0, 1]
    far = {**agent, "xstar": [1e200], "set": {"box": {"lo": [-1e300], "hi": [1e300]}}}
    far_doc = write_doc(tmp_path, "far.json", {"n": 1, "C": [[0.0]], "k": 1.0, "agents": {"list": [far]}})
    assert cli.main(["run", "--scenario", far_doc, "--T", "1", "--h", "0.1", "--out", str(tmp_path / "far")]) == 0
    assert parse_kv(capsys.readouterr().out)["final_dist_avg"] == "inf"
    assert re.findall(r'points="([^"]*)"', (tmp_path / "far.svg").read_text()) == ["", ""]
    assert y_ticks(tmp_path / "far.svg") == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


def test_main_reraises_a_runtime_error_that_is_not_numerical(monkeypatch: pytest.MonkeyPatch) -> None:
    # only a NumericalError becomes exit 2; any other RuntimeError is a fault
    def broken(game):
        raise RuntimeError("not a numerical failure")

    monkeypatch.setattr(cli, "compare_conditions", broken)
    with pytest.raises(RuntimeError, match="^not a numerical failure$"):
        cli.main(["check", "--scenario", SINGLE])


@pytest.mark.parametrize(
    "base, result, err",
    [
        ("aggseek.NumericalError", "exit 2", "error: a failure that no module of the package names\n"),
        ("RuntimeError", "raised Failure", ""),
    ],
    ids=["numerical", "fault"],
)
def test_main_maps_a_failure_by_its_type_alone(base: str, result: str, err: str) -> None:
    # a new NumericalError exits 2 with no edit to the CLI, and any other RuntimeError propagates;
    # telling them apart imports neither route
    code = (
        "import sys, aggseek\n"
        "from aggseek import cli\n"
        f"class Failure({base}): pass\n"
        "def broken(game): raise Failure('a failure that no module of the package names')\n"
        "cli.compare_conditions = broken\n"
        "try: print('exit', cli.main(sys.argv[1:]))\n"
        "except RuntimeError as e: print('raised', type(e).__name__)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'aggseek'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, "check", "--scenario", SINGLE], capture_output=True, text=True)
    assert proc.stdout.splitlines() == [result, "aggseek aggseek.cli aggseek.model"] and proc.stderr == err


def test_csv_blocks_match_per_row_formatting(tmp_path: Path) -> None:
    # two full blocks and a remainder, with values of every magnitude the 17 digits must keep
    rows = np.random.default_rng(3).standard_normal((2 * cli.CSV_ROWS + 7, 3)) * np.array([1e-300, 1.0, 1e300])
    path = tmp_path / "blocks.csv"
    cli._write_rows(str(path), ("a", "b", "c"), rows)
    expected = "a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


def test_csv_writer_memory_does_not_grow_with_the_rows(tmp_path: Path) -> None:
    # 10^5 rows of 5 floats are 3.8 MiB of data; the writer holds one block of them as text at a time
    rows = np.random.default_rng(4).random((100_000, 5))
    tracemalloc.start()
    try:
        cli._write_rows(str(tmp_path / "big.csv"), ("t", "a", "b", "c", "d"), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"traced peak {peak} bytes"
