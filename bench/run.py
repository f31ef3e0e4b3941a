#!/usr/bin/env python3
"""aggseek benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload traj_box --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is taken from the
checkout's `src/`, never from an installed copy. With `--trace 0` the real CLI
runs as a subprocess, one invocation at a time (a closed loop with a single
client that waits for each exit), and the end-to-end metrics are printed;
their timings are scaled to a reference pace of the machine (see PACE).
With `--trace 1` each invocation runs through `traced_cli.py`, which wraps the
calls into each module inside the CLI's own process, and the per-layer
metrics are printed. `--smoke` shrinks every workload to toy size. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import check_operation
from spans import ROOT as ROOT_SPAN, Span, self_times
from workloads import NAMES, WHY, Case, make_case, trajectory_rows

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"

CLI = "import sys; from aggseek.cli import main; sys.exit(main())"
SETUP = "import sys, aggseek; f = open(sys.argv[1], encoding='utf-8'); aggseek.load_scenario(f.read()); f.close()"
TRIM = 0.1  # share of an invocation's samples dropped at each end before averaging
# A fixed program with the make-up of a CLI invocation and nothing of
# aggseek: a fresh interpreter, the numpy import, then a projected-Euler loop
# of small numpy calls that records every step. One start follows each
# session; the run's timings are scaled by PACE_REF_S over its trimmed mean.
PACE = """
import numpy as np
target = np.random.default_rng(0).uniform(0.0, 1.0, 200)
x = np.zeros(200)
rows = []
for step in range(2000):
    x = np.clip(x + 4e-3 * (target - x - 0.1 * x.mean()), 0.25, 0.75)
    rows.append(f"{step * 4e-3!r},{float(np.abs(x - target).mean())!r}")
"""
PACE_REF_S = 0.25
ROOT_ID = -1  # id of the root span the parent adds to each traced invocation
THREAD_VARS = ("AGGSEEK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "check_s": "s",
    "solve_s": "s",
    "run_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "model.load_scenario_s": "s",
    "model.decision_floats": "count",
    "equilibrium.solve_equilibrium_s": "s",
    "equilibrium.iterations": "count",
    "equilibrium.aggregation_map_s": "s",
    "equilibrium.vi_gap_s": "s",
    "flow.integrate_s": "s",
    "flow.steps": "count",
    "flow.samples": "count",
    "flow.step_us": "us",
    "flow.record_us": "us",
    "flow.history_bytes": "bytes",
    "lyapunov.compare_conditions_s": "s",
    "lyapunov.reduced_lambda_min_s": "s",
    "lyapunov.dense_bytes": "bytes",
    "lyapunov.decay_report_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.write_svg_s": "s",
    "cli.sweep_wait_s": "s",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed; a failure is a nonzero exit or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)


@dataclass(frozen=True)
class Done:
    """One finished child process."""

    start: float
    end: float
    code: int
    maxrss_kib: int
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def cli_env() -> dict[str, str]:
    """The caller's environment with the checkout's src/ first on the path.

    AGGSEEK_THREADS and the BLAS thread variables are passed through as they
    are, so the runs measure what a user of this machine gets.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_process(argv: list[str], env: dict[str, str], work: Path) -> Done:
    """Run one child to completion and reap it with wait4 for its rusage."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=CHECKOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Done(start, end, proc.returncode, usage.ru_maxrss,
                out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def exit_problems(result: Done) -> list[str]:
    return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"] if result.code else []


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_session(case: Case, scenario: Path, work: Path, env: dict[str, str], tally: Tally,
                label: str, traced: bool = False) -> dict[str, Done]:
    """Run the workload's commands once, in order, each checked as it finishes.

    Traced invocations go through traced_cli.py and leave their spans in
    work/<label>-<command>.spans.json.
    """
    out = fresh_dir(work / "out")
    done = {}
    for command, argv in case.commands(str(scenario), str(out)):
        if traced:
            spans = work / f"{label}-{command}.spans.json"
            child = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), f"{label}:{command}", *argv]
        else:
            child = [sys.executable, "-c", CLI, *argv]
        result = run_process(child, env, work)
        problems = exit_problems(result) or check_operation(case, command, str(out), result.stdout)
        tally.record(f"{label} {command}", problems)
        done[command] = result
    return done


def start_fresh(scenario: Path, env: dict[str, str], work: Path, tally: Tally, label: str) -> float:
    """One fresh interpreter that imports aggseek and loads the scenario; its wall."""
    result = run_process([sys.executable, "-c", SETUP, str(scenario)], env, work)
    tally.record(label, exit_problems(result))
    return result.wall


def pace_wall(work: Path) -> float:
    """Wall of one start of the PACE program, which must succeed."""
    result = run_process([sys.executable, "-c", PACE], dict(os.environ), work)
    if result.code:
        raise SystemExit(f"error: the pace program exited {result.code}: {result.stderr.strip()[-300:]}")
    return result.wall


def trimmed_mean(values: list[float]) -> float:
    """Mean of the samples left after dropping the lowest and highest tenth.

    On a shared machine the wall of one command falls into two or three
    clusters (a busy neighbour slows it by up to a half for seconds at a
    time). The median of a dozen such samples jumps from cluster to cluster
    between runs; the mean moves only with their mix, and the trim keeps a
    single stalled invocation out.
    """
    ordered = sorted(values)
    drop = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def measure_end_to_end(case: Case, work: Path, scenario: Path, seconds: float, tally: Tally) -> dict:
    env = cli_env()
    # the first start compiles bytecode and fills the page cache; users pay
    # that once, so it is not timed
    start_fresh(scenario, env, work, tally, "setup warm-up")

    walls: dict[str, list[float]] = {}
    setup: list[float] = []
    paces: list[float] = []
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    session = 0
    while True:
        for command, result in run_session(case, scenario, work, env, tally, f"s{session}").items():
            walls.setdefault(command, []).append(result.wall)
            peak_kib = max(peak_kib, result.maxrss_kib)
        # one set-up start after each session, so they are spread over the
        # run and a short burst of load on the machine cannot move all of them
        setup.append(start_fresh(scenario, env, work, tally, f"setup s{session}"))
        paces.append(pace_wall(work))
        session += 1
        if time.perf_counter() >= deadline:
            break

    print(f"sessions = {session}")
    for command, values in walls.items():
        print(f"{command} walls (s, n = {len(values)}, median {statistics.median(values):.4f}) "
              f"= {json.dumps(values)}")
    print(f"setup walls (s, n = {len(setup)}) = {json.dumps(setup)}")
    print(f"pace walls (s, n = {len(paces)}) = {json.dumps(paces)}")
    walls_s = {f"{command}_s": trimmed_mean(values) for command, values in walls.items()}
    walls_s["setup_s"] = statistics.median(setup)
    scale = PACE_REF_S / trimmed_mean(paces)
    print(f"unscaled (s) = {json.dumps(walls_s)}; pace scale = {scale!r}")
    metrics = {name: wall * scale for name, wall in walls_s.items()}
    metrics["peak_rss_mb"] = peak_kib / 1024.0
    return metrics



def invocation_spans(result: Done, spans_path: Path, run_id: str) -> list[Span]:
    """The child's spans under a root span for the whole invocation as the
    parent saw it, from spawn to reaping: interpreter start and import included."""
    spans = [Span(ROOT_ID, ROOT_SPAN, result.start, result.end, None, run_id, 0)]
    for record in json.loads(spans_path.read_text(encoding="utf-8")):
        span = Span(**record)
        if span.parent is None:
            span.parent = ROOT_ID
        spans.append(span)
    return spans


def _sweep_gain_spans(spans: list[Span]) -> list[Span]:
    """Per-gain spans of one sweep: top-level spans after the solve, less the
    comparison plot, which is the last top-level span the sweep starts."""
    top = sorted((s for s in spans if s.parent == ROOT_ID), key=lambda s: s.start)
    solve_end = max(s.end for s in top if s.name == "equilibrium.solve_equilibrium")
    gains = [s for s in top if s.start >= solve_end]
    return gains[:-1] if gains and gains[-1].name == "cli.write_svg" else gains


def session_layers(invocations: dict[str, list[Span]]) -> dict:
    """Per-layer totals of one traced session: self time per function, counts,
    the roots' self time, and the sweep's per-gain wall against their sum."""
    values = {key: 0.0 if unit == "s" else 0 for key, unit in PER_LAYER.items()}
    for spans in invocations.values():
        selfs = self_times(spans)
        for s in spans:
            key = "cli.other_s" if s.name == ROOT_SPAN else f"{s.name}_s"
            values[key] += selfs[s.id]
            for count, v in s.counts.items():
                values[count] += v
    # the run command's single trajectory, free of pool contention
    values["run_integrate_s"] = sum(s.duration for s in invocations["run"] if s.name == "flow.integrate")
    gains = _sweep_gain_spans(invocations["sweep"])
    values["cli.sweep_wait_s"] = (max(s.end for s in gains) - min(s.start for s in gains)
                                  - sum(s.duration for s in gains))
    return values


def import_package():
    """Import aggseek from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import aggseek

    if Path(aggseek.__file__).resolve().parent != SRC / "aggseek":
        raise SystemExit(f"error: imported aggseek from {aggseek.__file__}, not from {SRC}")
    return aggseek


def _median_time(fn, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def single_calls(case: Case, scenario: Path) -> dict:
    """Layer costs the CLI does not isolate, timed in this process."""
    aggseek = import_package()
    with open(scenario, encoding="utf-8") as fh:
        game = aggseek.load_scenario(fh.read())
    ref = aggseek.solve_equilibrium(game)
    steps = trajectory_rows(case.T, case.h) - 1
    endpoints = aggseek.IntegratorConfig(h=case.h, T=case.T, record_every=steps)
    x0 = aggseek.initial_state(game)
    return {
        "step_s": _median_time(lambda: aggseek.integrate(game, x0, endpoints, reference=ref), 3) / steps,
        "equilibrium.aggregation_map_s": _median_time(lambda: aggseek.aggregation_map(game, ref.sigmabar), 5),
        "lyapunov.reduced_lambda_min_s": _median_time(
            lambda: [aggseek.reduced_lambda_min(game, v) for v in ("paper", "symmetrized")], 5),
    }


def measure_layers(case: Case, work: Path, scenario: Path, seconds: float, tally: Tally) -> dict:
    env = cli_env()
    per_session, overhead, records = [], [], []
    deadline = time.perf_counter() + seconds
    session = 0
    while True:
        label = f"s{session}"
        traced = run_session(case, scenario, work, env, tally, label, traced=True)
        plain = run_session(case, scenario, work, env, tally, f"plain{session}")
        overhead.append(sum(r.wall for r in traced.values()) - sum(r.wall for r in plain.values()))
        if all(r.code == 0 for r in traced.values()):
            invocations = {c: invocation_spans(r, work / f"{label}-{c}.spans.json", f"{label}:{c}")
                           for c, r in traced.items()}
            per_session.append(session_layers(invocations))
            records += [asdict(s) for spans in invocations.values() for s in spans]
        session += 1
        if time.perf_counter() >= deadline:
            break
    if not per_session:
        raise SystemExit("error: no traced session completed")

    single = single_calls(case, scenario)
    step_s = single.pop("step_s")
    steps = trajectory_rows(case.T, case.h) - 1
    spans_path = WORK / f"spans-{work.name}.json"
    spans_path.write_text(json.dumps(records), encoding="utf-8")
    print(f"sessions = {session}")
    print(f"spans = {spans_path.relative_to(CHECKOUT)} ({len(records)} spans)")
    print(f"tracing overhead per session (s) = {json.dumps(overhead)}")

    metrics = {key: statistics.median(v[key] for v in per_session) for key in PER_LAYER}
    metrics.update(single)
    metrics["flow.step_us"] = step_s * 1e6
    metrics["flow.record_us"] = statistics.median(
        (v["run_integrate_s"] - steps * step_s) / (steps + 1) * 1e6 for v in per_session)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    return metrics


def describe_environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def _number(value: float):
    return int(value) if float(value).is_integer() and abs(value) < 2**53 else float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "aggseek" / "cli.py").is_file():
        print(f"error: no aggseek sources under {SRC}", file=sys.stderr)
        return 2

    case = make_case(args.workload, args.seed, smoke=args.smoke)
    for key, value in describe_environment().items():
        print(f"{key} = {value}")
    print(f"workload = {case.name} ({WHY[case.name]})")
    print(f"seed = {args.seed}, N = {case.game.N}, n = {case.game.n}, T = {case.T}, h = {case.h}, "
          f"gains = {case.gains}, smoke = {args.smoke}")

    work = fresh_dir(WORK / f"{case.name}-seed{args.seed}-{os.getpid()}")
    tally = Tally()
    try:
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(case.document), encoding="utf-8")
        if args.trace:
            values, units = measure_layers(case, work, scenario, args.seconds, tally), PER_LAYER
        else:
            values, units = measure_end_to_end(case, work, scenario, args.seconds, tally), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, unit in units.items():
        print(f"{key} = {_number(values[key])!r} {unit}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed = {tally.failed}/{tally.attempted} ({share:.1%})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": _number(values[key]), "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
