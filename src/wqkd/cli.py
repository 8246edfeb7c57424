"""Command-line entry point.

Subcommands: derive-table, verify, keyrate, enumerate, simulate.  Every
command is deterministic given its flags and seed; outputs carry a
parameter-echo header.  Exit codes: 0 success, 1 usage error, 2 verification
mismatch, 3 no positive key rate, 4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from .analyzer import derive_detection_table, reference_table, render_pattern
from .errors import NoPositiveRate
from .keyrate import (
    AnalyzerConstants,
    ChannelParams,
    NoiseParams,
    RateParams,
    Transmittances,
    case_breakdown,
    e1_identical,
    q1_identical,
    secure_distance,
    sweep,
)
from .protocol import TrialConfig, estimate, exact_enumerate, run_trials
from .qubits import W_LABELS, catalog_lines
from .verify import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NO_RATE = 3
EXIT_ORACLE = 4

_DEFAULTS = {
    "alpha": 0.2,
    "eta_d": 0.145,
    "y0": 6.02e-6,
    "q": 1.0,
    "delta": None,  # X basis only; a Z-basis simulate rejects any value
    "dmin": 0.0,
    "dmax": 300.0,
    "dstep": 10.0,
    "trials": 1_000_000,
    "seed": 1,
    "mode": "paper",
    "basis": "z",
    "eta": 0.0145,
    "format": None,
    "out": None,
    "golden": None,
}

_FLOAT_KEYS = ("alpha", "eta_d", "y0", "q", "delta", "dmin", "dmax", "dstep", "eta")
_INT_KEYS = ("trials", "seed")
_CHOICES = {"format": ("csv", "text"), "mode": ("paper", "physical"), "basis": ("z", "x")}
_MAX_POINTS = 100_000  # keyrate sweep length; also stops a step too small to advance


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def _build_parser() -> _Parser:
    p = _Parser(prog="wqkd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formatted=False):
        sp.add_argument("--config", type=str, help="key=value file; flags override it")
        sp.add_argument("--out", type=str, help="output path (default stdout)")
        if formatted:  # only the commands that read it take the flag
            sp.add_argument("--format", choices=_CHOICES["format"], help="output format")

    sp = sub.add_parser("derive-table", help="derive the distinguishable-state table")
    common(sp, formatted=True)
    sp.add_argument("--golden", type=str, help="golden table CSV to compare against")

    sp = sub.add_parser("verify", help="run the exact identity suites")
    common(sp)

    sp = sub.add_parser("catalog", help="print the 16-state basis as signed ket sums")
    common(sp)

    sp = sub.add_parser("keyrate", help="key-rate sweep over end-to-end distance")
    common(sp, formatted=True)
    for flag in ("--alpha", "--eta-d", "--y0", "--q", "--dmin", "--dmax", "--dstep"):
        sp.add_argument(flag, type=float)

    for name in ("enumerate", "simulate"):
        sp = sub.add_parser(
            name,
            help="exact protocol enumeration" if name == "enumerate" else "seeded Monte-Carlo run",
        )
        common(sp, formatted=name == "simulate")
        sp.add_argument("--eta", type=float, help="per-party transmittance (all equal)")
        sp.add_argument("--y0", type=float)
        sp.add_argument("--mode", choices=_CHOICES["mode"])
        if name == "simulate":  # the exact enumerator is Z-basis only, so no delay
            sp.add_argument("--delta", type=float)
            sp.add_argument("--trials", type=int)
            sp.add_argument("--seed", type=int)
            sp.add_argument("--basis", choices=_CHOICES["basis"])
    return p


def _read_config(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key: {key}")
        out[key] = value
    return out


def _merge(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _read_config(args.config).items():
            if key in _FLOAT_KEYS:
                merged[key] = float(value)
            elif key in _INT_KEYS:
                number = float(value)
                merged[key] = int(number)
                if merged[key] != number:  # the flags reject 1.9 too
                    raise ValueError(f"config key {key} must be an integer, got {value!r}")
            elif key in _CHOICES and value not in _CHOICES[key]:
                raise ValueError(f"config key {key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")
            else:
                merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    for key in _FLOAT_KEYS:
        if merged[key] is not None and not math.isfinite(merged[key]):
            raise ValueError(f"{key} must be a finite number, got {merged[key]}")
    return merged


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _sci(x: float) -> str:
    return f"{x:.11e}"


# -- derive-table -------------------------------------------------------------


def _table_lines(table, fmt: str) -> list[str]:
    lines = [f"# wqkd derive-table format={fmt}"]
    if fmt == "csv":
        lines.append("state,pattern,probability")
        for state, pattern, prob in table.rows():
            lines.append(f"{state},{pattern},{float(prob):.10f}")
    else:
        for label in sorted(table.patterns):
            pats = " ".join(render_pattern(p) for p in table.patterns[label])
            lines.append(f"W4_{W_LABELS[label]}  p={float(table.success_probability[label])}  {pats}")
    for label in sorted(table.patterns):
        lines.append(f"# success W4_{W_LABELS[label]} {float(table.success_probability[label])}")
    lines.append(f"# D_p {float(table.overall)}")
    return lines


def _load_golden_rows(path: str) -> list[tuple[str, str, str]]:
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("state,"):
            continue
        state, pattern, prob = line.split(",")
        rows.append((state, pattern, f"{float(prob):.10f}"))
    return rows


def cmd_derive_table(opts: dict) -> int:
    if opts["golden"]:  # read first: a bad golden file prints no table
        golden_rows = _load_golden_rows(opts["golden"])
    else:
        golden_rows = [(s, p, f"{float(pr):.10f}") for s, p, pr in reference_table().rows()]
    table = derive_detection_table()
    fmt = opts["format"] or "text"
    _emit("\n".join(_table_lines(table, fmt)) + "\n", opts["out"])
    derived_rows = [(s, p, f"{float(pr):.10f}") for s, p, pr in table.rows()]
    if derived_rows == golden_rows:
        print(f"derived table matches golden ({len(derived_rows)} rows)", file=sys.stderr)
        return EXIT_OK
    print("derived table differs from golden:", file=sys.stderr)
    for row in sorted(set(golden_rows) - set(derived_rows)):
        print(f"  - only in golden:  {','.join(row)}", file=sys.stderr)
    for row in sorted(set(derived_rows) - set(golden_rows)):
        print(f"  - only in derived: {','.join(row)}", file=sys.stderr)
    return EXIT_MISMATCH


# -- verify -------------------------------------------------------------------


def cmd_catalog(opts: dict) -> int:
    _emit("\n".join(catalog_lines()) + "\n", opts["out"])
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    results = run_all()
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    n_ok = sum(ok for _, ok, _ in results)
    lines.append(f"{'PASS' if n_ok == len(results) else 'FAIL'} {n_ok}/{len(results)} suites")
    _emit("\n".join(lines) + "\n", opts["out"])
    return EXIT_OK if n_ok == len(results) else EXIT_MISMATCH


# -- keyrate ------------------------------------------------------------------


def cmd_keyrate(opts: dict) -> int:
    constants = AnalyzerConstants.from_table(derive_detection_table())
    channel = ChannelParams(opts["alpha"], 0.0, opts["eta_d"])
    noise = NoiseParams(opts["y0"])
    rate = RateParams(opts["q"])
    if opts["dmin"] < 0 or opts["dmax"] < opts["dmin"] or opts["dstep"] <= 0:
        print("error: invalid distance range", file=sys.stderr)
        return EXIT_USAGE
    distances = []
    d = opts["dmin"]
    while d <= opts["dmax"] + 1e-9:
        if len(distances) == _MAX_POINTS:
            print(f"error: distance range has more than {_MAX_POINTS} points", file=sys.stderr)
            return EXIT_USAGE
        distances.append(round(d, 9))
        d += opts["dstep"]
    header = (
        f"# wqkd keyrate alpha={opts['alpha']} eta_d={opts['eta_d']} "
        f"y0={opts['y0']} q={opts['q']} dmin={opts['dmin']} dmax={opts['dmax']} dstep={opts['dstep']}"
    )
    sep = "," if (opts["format"] or "csv") == "csv" else "  "
    lines = [header, sep.join(("distance_km", "eta", "Q1", "e1", "R0"))]
    for row in sweep(channel, noise, constants, rate, distances):
        cells = (_sci(row.distance_km), _sci(row.eta), _sci(row.q1), _sci(row.e1), _sci(row.r0))
        lines.append(sep.join(cells))
    try:
        dist = secure_distance(channel, noise, constants, rate, d_max=max(opts["dmax"], 2000.0))
    except NoPositiveRate:
        print("error: key rate non-positive at zero distance", file=sys.stderr)
        return EXIT_NO_RATE
    if dist is None:
        lines.append("# secure_distance_km none (no zero crossing in range)")
    else:
        lines.append(f"# secure_distance_km {dist:.1f}")
    _emit("\n".join(lines) + "\n", opts["out"])
    return EXIT_OK


# -- enumerate / simulate -----------------------------------------------------

_REL_TOL = 1e-9


def _case_comparison_lines(result, eta: float, y0: float, constants) -> tuple[list[str], float]:
    """Per-case comparison of the enumerator against the closed-form terms."""
    model = case_breakdown(Transmittances.equal(eta), NoiseParams(y0), constants)
    lines = ["case,gain_enum,gain_model,rel_delta,error_enum,error_model,rel_delta"]
    worst = 0.0
    for i in range(5):
        ge, gp = float(result.gain_cases[i]), float(model.gain[i])
        ee, ep = float(result.error_cases[i]), float(model.error[i])
        dg = abs(ge - gp) / gp if gp else abs(ge - gp)
        de = abs(ee - ep) / ep if ep else abs(ee - ep)
        worst = max(worst, dg, de)
        lines.append(f"{i + 1},{_sci(ge)},{_sci(gp)},{dg:.3e},{_sci(ee)},{_sci(ep)},{de:.3e}")
    return lines, worst


def cmd_enumerate(opts: dict) -> int:
    constants = AnalyzerConstants.from_table(derive_detection_table())
    eta, y0 = opts["eta"], opts["y0"]
    mode = opts["mode"]
    cfg = TrialConfig(etas=(eta,) * 4, y0=y0, mode=mode)
    paper = exact_enumerate(replace(cfg, mode="paper"))
    physical = exact_enumerate(replace(cfg, mode="physical"))
    result = paper if cfg.mode == "paper" else physical
    q1c = q1_identical(eta, NoiseParams(y0), constants)
    e1c = e1_identical(eta, NoiseParams(y0), constants) if q1c > 0 else 0.0
    lines = [f"# wqkd enumerate mode={mode} eta={eta} y0={y0}"]
    lines.append(f"Q1 {mode} = {_sci(float(result.q1))}")
    lines.append(f"e1 {mode} = {_sci(float(result.e1 or 0.0))}")
    lines.append(f"Q1 closed-form = {_sci(float(q1c))}   e1 closed-form = {_sci(float(e1c))}")
    cmp_lines, worst = _case_comparison_lines(paper, eta, y0, constants)
    lines.append("# per-case comparison, paper accounting vs closed-form terms")
    lines.extend(cmp_lines)
    gap = (float(physical.q1) - float(paper.q1)) / float(paper.q1) if paper.q1 else 0.0
    lines.append(f"# physical_vs_paper_gain_gap {gap:.6e}")
    dq = abs(float(paper.q1) - float(q1c)) / float(q1c) if q1c else 0.0
    de = abs(float(paper.e1 or 0.0) - float(e1c)) / float(e1c) if e1c else 0.0
    lines.append(f"# paper_vs_closed_form_rel_delta Q1={dq:.3e} e1={de:.3e}")
    bad = worst > _REL_TOL or dq > _REL_TOL or de > _REL_TOL
    if bad:
        lines.append("# ORACLE DISAGREEMENT beyond 1e-9: see per-case attribution above")
    _emit("\n".join(lines) + "\n", opts["out"])
    return EXIT_ORACLE if bad else EXIT_OK


def cmd_simulate(opts: dict) -> int:
    if opts["delta"] is not None and opts["basis"] == "z":
        raise ValueError("delta is the X-basis delay; it does not apply to --basis z")
    eta, y0 = opts["eta"], opts["y0"]
    cfg = TrialConfig(
        etas=(eta,) * 4,
        y0=y0,
        mode=opts["mode"],
        basis=opts["basis"],
        trials=opts["trials"],
        seed=opts["seed"],
        delta=0.0 if opts["delta"] is None else opts["delta"],
    )
    tally = run_trials(cfg)
    report = estimate(tally)
    exact = None
    if cfg.basis == "z":
        exact = exact_enumerate(TrialConfig(etas=cfg.etas, y0=y0, mode=cfg.mode))
    header = (
        f"# wqkd simulate mode={cfg.mode} basis={cfg.basis} eta={eta} y0={y0} "
        f"trials={cfg.trials} seed={cfg.seed}"
    )
    e1_hat = "" if report.e1_hat is None else _sci(report.e1_hat)
    e1_lo, e1_hi = ("", "") if report.e1_ci is None else (_sci(report.e1_ci[0]), _sci(report.e1_ci[1]))
    if opts["format"] == "csv":
        fields = {
            "mode": cfg.mode,
            "basis": cfg.basis,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "announced": tally.announced,
            "accepted": tally.accepted,
            "errors": tally.errors,
            "Q1_hat": _sci(report.q1_hat),
            "Q1_lo": _sci(report.q1_ci[0]),
            "Q1_hi": _sci(report.q1_ci[1]),
            "e1_hat": e1_hat,
            "e1_lo": e1_lo,
            "e1_hi": e1_hi,
            "Q1_exact": "" if exact is None else _sci(float(exact.q1)),
            "e1_exact": "" if exact is None else _sci(float(exact.e1 or 0.0)),
        }
        for i, frac in enumerate(report.per_case_fraction, start=1):
            fields[f"case{i}_frac"] = f"{frac:.6f}"
        lines = [header, ",".join(fields), ",".join(str(v) for v in fields.values())]
    else:
        lines = [
            header,
            f"announced = {tally.announced}",
            f"accepted = {tally.accepted}",
            f"errors = {tally.errors}",
            f"Q1_hat = {_sci(report.q1_hat)}  ci95 = [{_sci(report.q1_ci[0])}, {_sci(report.q1_ci[1])}]",
        ]
        if report.e1_hat is None:
            lines.append("e1_hat = undefined (no accepted events)")
        else:
            lines.append(f"e1_hat = {e1_hat}  ci95 = [{e1_lo}, {e1_hi}]")
        if exact is not None:
            lines.append(f"Q1_exact = {_sci(float(exact.q1))}")
            lines.append(f"e1_exact = {_sci(float(exact.e1 or 0.0))}")
            fr = " ".join(f"{x:.6f}" for x in report.per_case_fraction)
            lines.append(f"per_case_accepted_fraction = {fr}")
    if report.note:
        lines.append(f"# note: {report.note}")
    _emit("\n".join(lines) + "\n", opts["out"])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge(args)
    except (ValueError, OverflowError, OSError) as exc:  # int(float("inf")) overflows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "derive-table": cmd_derive_table,
        "verify": cmd_verify,
        "catalog": cmd_catalog,
        "keyrate": cmd_keyrate,
        "enumerate": cmd_enumerate,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](opts)
    except (ValueError, OSError) as exc:  # OSError: a missing --golden or --out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
