"""Command-line front end.

Subcommands: check (certificate conditions), solve (fixed-point equilibrium),
run (one trajectory with CSV/SVG emission), sweep (several gains k against the
same equilibrium in one batched integration, plus a comparison plot). Exit
codes: 0 success, 1 input error, 2 numerical failure or non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .equilibrium import ConvergenceError, EquilibriumResult, solve_equilibrium
from .flow import IntegratorConfig, NonFiniteStateError, Trajectory, integrate, integrate_gains
from .lyapunov import CertificateReport, DecayReport, compare_conditions, decay_report
from .model import GameSpec, ScenarioError, initial_state, load_scenario

THRESHOLD = 1e-2  # dist_avg level used for time-to-threshold reporting

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(f"{v:.17g}" for v in value.ravel()) + "]"
    return str(value)


def _emit(lines: Sequence[tuple[str, object]]) -> None:
    for key, value in lines:
        print(f"{key} = {_fmt(value)}")


@dataclass(frozen=True)
class RunReport:
    """Everything one `run` invocation learned, ready for printing or JSON dump."""

    seed: Optional[int]
    N: int
    n: int
    k: float
    sigmabar: np.ndarray
    vi_gap: float
    iterations: int
    certificate: CertificateReport
    decay: Optional[DecayReport]
    final_dist_avg: float
    final_dist_sigma: float
    final_residual: float
    time_to_threshold: float
    csv_path: Optional[str]
    svg_path: Optional[str]

    def lines(self, prefix: str = "") -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = [
            (prefix + "seed", self.seed),
            (prefix + "N", self.N),
            (prefix + "n", self.n),
            (prefix + "k", float(self.k)),
            (prefix + "sigmabar", self.sigmabar),
            (prefix + "vi_gap", self.vi_gap),
            (prefix + "iterations", self.iterations),
            (prefix + "cond5_holds", self.certificate.cond5_holds),
            (prefix + "cond5_margin", self.certificate.cond5_margin),
            (prefix + "lambda_min_paper", self.certificate.lambda_min_paper),
            (prefix + "lambda_min_symmetrized", self.certificate.lambda_min_symmetrized),
            (prefix + "final_dist_avg", self.final_dist_avg),
            (prefix + "final_dist_sigma", self.final_dist_sigma),
            (prefix + "final_residual", self.final_residual),
            (prefix + "time_to_threshold", self.time_to_threshold),
        ]
        if self.decay is not None:
            out += [
                (prefix + "W0", self.decay.W0),
                (prefix + "monotone", self.decay.monotone),
                (prefix + "fitted_rate", self.decay.fitted_rate),
                (prefix + "certificate_rate", self.decay.certificate_rate),
                (prefix + "certified", self.decay.certified),
            ]
        if self.csv_path:
            out.append((prefix + "csv", self.csv_path))
        if self.svg_path:
            out.append((prefix + "svg", self.svg_path))
        return out

    def to_json(self) -> dict:
        raw = dataclasses.asdict(self)
        raw["sigmabar"] = [float(v) for v in np.ravel(self.sigmabar)]
        return raw


def write_csv(path: str, traj: Trajectory) -> None:
    """Emit the sampled diagnostics, 17 significant digits, fixed header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,dist_avg,dist_sigma,W,residual\n")
        columns = (traj.times, traj.dist_avg, traj.dist_sigma, traj.W, traj.residual)
        line = ",".join(["{:.17g}"] * len(columns)) + "\n"
        fh.writelines(line.format(*row) for row in np.column_stack(columns).tolist())


def _finite_range(values: np.ndarray, fallback: tuple[float, float]) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return fallback
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def write_svg(
    path: str,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Hand-rolled line plot: one polyline per series, legend, linear axes."""
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 72.0, 24.0, 44.0, 56.0
    pw, ph = width - ml - mr, height - mt - mb

    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = _finite_range(all_x, (0.0, 1.0))
    y0, y1 = _finite_range(all_y, (0.0, 1.0))

    def sx(v: float) -> float:
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v: float) -> float:
        return mt + ph - (v - y0) / (y1 - y0) * ph

    def esc(text: str) -> str:  # html.escape(text, quote=False), without importing html
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{esc(title)}</text>',
    ]
    # axes box and ticks
    parts.append(
        f'<rect x="{ml:g}" y="{mt:g}" width="{pw:g}" height="{ph:g}" fill="none" '
        'stroke="black" stroke-width="1"/>'
    )
    n_ticks = 5
    for j in range(n_ticks + 1):
        xv = x0 + (x1 - x0) * j / n_ticks
        yv = y0 + (y1 - y0) * j / n_ticks
        xp, yp = sx(xv), sy(yv)
        parts += [
            f'<line x1="{xp:.2f}" y1="{mt + ph:g}" x2="{xp:.2f}" y2="{mt + ph + 5:g}" stroke="black"/>',
            f'<text x="{xp:.2f}" y="{mt + ph + 20:g}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>',
            f'<line x1="{ml - 5:g}" y1="{yp:.2f}" x2="{ml:g}" y2="{yp:.2f}" stroke="black"/>',
            f'<text x="{ml - 8:g}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>',
        ]
    parts.append(
        f'<text x="{ml + pw / 2:g}" y="{height - 12:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:g}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {mt + ph / 2:g})">{esc(ylabel)}</text>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float).tolist()
        ys = np.asarray(ys, dtype=float).tolist()
        stride = max(1, math.ceil(len(xs) / 2000))
        keep = list(range(0, len(xs), stride))
        if keep[-1] != len(xs) - 1:
            keep.append(len(xs) - 1)
        pts = [
            f"{sx(xs[j]):.2f},{sy(ys[j]):.2f}" for j in keep if math.isfinite(xs[j]) and math.isfinite(ys[j])
        ]
        color = _COLORS[idx % len(_COLORS)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'
        )
        ly = mt + 16 + 18 * idx
        parts.append(
            f'<line x1="{ml + pw - 150:g}" y1="{ly:g}" x2="{ml + pw - 122:g}" y2="{ly:g}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 116:g}" y="{ly + 4:g}" font-family="sans-serif" '
            f'font-size="12">{esc(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _load(path: str) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def _time_to_threshold(traj: Trajectory, level: float = THRESHOLD) -> float:
    """Settling time: first sampled time after which dist_avg stays at or below level.

    The plain first crossing is dominated by the fast decision transient, which
    can overshoot and re-exceed the level; the settling time is what the gain k
    actually controls. NaN when the trajectory never settles within the horizon.
    """
    above = np.nonzero(traj.dist_avg > level)[0]
    if above.size == 0:
        return float(traj.times[0])
    if above[-1] == len(traj) - 1:
        return float("nan")
    return float(traj.times[above[-1] + 1])


def _run_one(
    game: GameSpec,
    traj: Trajectory,
    ref: EquilibriumResult,
    out_prefix: Optional[str],
    suffix: str = "",
) -> RunReport:
    cert = compare_conditions(game)
    can_judge = len(traj) >= 10 and ref.vi_gap_value <= 1e-6
    decay = decay_report(traj, ref, cert) if can_judge else None
    csv_path = svg_path = None
    if out_prefix:
        csv_path = f"{out_prefix}{suffix}.csv"
        svg_path = f"{out_prefix}{suffix}.svg"
        write_csv(csv_path, traj)
        write_svg(
            svg_path,
            [("dist_avg", traj.times, traj.dist_avg), ("dist_sigma", traj.times, traj.dist_sigma)],
            title=f"distance to equilibrium (k = {game.k:g})",
            xlabel="t",
            ylabel="distance",
        )
    return RunReport(
        seed=game.seed,
        N=game.N,
        n=game.n,
        k=game.k,
        sigmabar=ref.sigmabar,
        vi_gap=ref.vi_gap_value,
        iterations=ref.iterations,
        certificate=cert,
        decay=decay,
        final_dist_avg=float(traj.dist_avg[-1]),
        final_dist_sigma=float(traj.dist_sigma[-1]),
        final_residual=float(traj.residual[-1]),
        time_to_threshold=_time_to_threshold(traj),
        csv_path=csv_path,
        svg_path=svg_path,
    )


def cmd_check(scenario: str) -> int:
    cert = compare_conditions(_load(scenario))
    _emit([(f.name, getattr(cert, f.name)) for f in dataclasses.fields(cert)])
    return 0


def cmd_solve(scenario: str, lam: float, tol: float, out: Optional[str]) -> int:
    game = _load(scenario)
    res = solve_equilibrium(game, lam=lam, tol=tol)
    _emit(
        [
            ("sigmabar", res.sigmabar),
            ("vi_gap", res.vi_gap_value),
            ("iterations", res.iterations),
            ("final_update_norm", res.final_update_norm),
        ]
    )
    if out:
        _ensure_dir(out)
        path = f"{out}.xbar.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(f"x{j}" for j in range(game.n)) + "\n")
            for row in np.asarray(res.xbar).reshape(game.N, game.n):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        print(f"xbar = {path}")
    return 0


def _ensure_dir(prefix: str) -> None:
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)


def cmd_run(scenario: str, k: Optional[float], h: float, T: float, out: Optional[str]) -> int:
    game = _load(scenario)
    if k is not None:
        game = dataclasses.replace(game, k=float(k))
    cfg = IntegratorConfig(h=h, T=T)
    if out:
        _ensure_dir(out)
    ref = solve_equilibrium(game)
    report = _run_one(game, integrate(game, initial_state(game), cfg, reference=ref), ref, out)
    _emit(report.lines())
    if out:
        with open(f"{out}.report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
    return 0


def cmd_sweep(scenario: str, ks: Sequence[float], h: float, T: float, out: Optional[str]) -> int:
    game = _load(scenario)
    labels: dict[str, float] = {}
    for k in ks:
        if not (k > 0 and math.isfinite(k)):
            raise ScenarioError(f"swept k must be positive and finite, got {k}")
        label = f"k{k:g}"
        if label in labels:
            raise ScenarioError(f"gains {labels[label]!r} and {k!r} share the label {label}")
        labels[label] = k
    cfg = IntegratorConfig(h=h, T=T)
    if out:
        _ensure_dir(out)
    ref = solve_equilibrium(game)  # the fixed point does not depend on k
    trajs = integrate_gains(game, ks, initial_state(game), cfg, reference=ref)
    reports = [
        _run_one(dataclasses.replace(game, k=float(k)), traj, ref, out, f"_k{k:g}")
        for k, traj in zip(ks, trajs)
    ]
    for k, report in zip(ks, reports):
        _emit(report.lines(prefix=f"k{k:g}."))
    if out:
        overlay = [(f"k = {k:g}", traj.times, traj.dist_avg) for k, traj in zip(ks, trajs)]
        compare_path = f"{out}_compare.svg"
        write_svg(compare_path, overlay, title="dist_avg for each gain k", xlabel="t", ylabel="dist_avg")
        print(f"compare_svg = {compare_path}")
        dump = {f"k{k:g}": report.to_json() for k, report in zip(ks, reports)}
        with open(f"{out}.report.json", "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
    return 0


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for numerical failure; argparse
    # usage errors are input errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_k_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aggseek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_k: bool, with_run: bool, with_solve: bool) -> None:
        p.add_argument("--scenario", required=True, help="path to a scenario JSON document")
        if with_k:
            p.add_argument("--k", type=_parse_k_list, default=None, help="gain override, comma list for sweep")
        if with_run:
            p.add_argument("--h", type=float, default=1e-3, help="integrator step size")
            p.add_argument("--T", type=float, default=60.0, help="integration horizon")
            p.add_argument("--out", default=None, help="output file prefix for CSV/SVG/JSON")
        if with_solve:
            p.add_argument("--lambda", dest="lam", type=float, default=0.5, help="relaxation in (0, 1]")
            p.add_argument("--tol", type=float, default=1e-10, help="fixed-point stop tolerance")
            if not with_run:
                p.add_argument("--out", default=None, help="output file prefix")

    common(sub.add_parser("check", help="evaluate certificate conditions"), False, False, False)
    common(sub.add_parser("solve", help="compute the equilibrium by fixed point"), False, False, True)
    common(sub.add_parser("run", help="integrate the dynamics and emit CSV/SVG"), True, True, False)
    common(sub.add_parser("sweep", help="run several gains k and compare"), True, True, False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConvergenceError, NonFiniteStateError, OSError, ValueError) as e:
        # ScenarioError is a ValueError: input errors exit 1, numerical failures 2
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, (ConvergenceError, NonFiniteStateError)) else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "check":
        return cmd_check(args.scenario)
    if args.command == "solve":
        return cmd_solve(args.scenario, lam=args.lam, tol=args.tol, out=args.out)
    if args.command == "run":
        if args.k is not None and len(args.k) != 1:
            raise ValueError("run takes a single --k value")
        return cmd_run(args.scenario, k=args.k[0] if args.k else None, h=args.h, T=args.T, out=args.out)
    if args.command == "sweep":
        if not args.k:
            raise ValueError("sweep needs --k with one or more values")
        return cmd_sweep(args.scenario, ks=args.k, h=args.h, T=args.T, out=args.out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
