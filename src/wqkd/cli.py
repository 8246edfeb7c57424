"""Command-line entry point.

Subcommands: derive-table, verify, catalog, keyrate, enumerate, simulate.
Every command is deterministic given its flags and seed; outputs carry a
parameter-echo header.  Exit codes: 0 success, 1 usage error, 2 verification
mismatch, 3 no positive key rate, 4 oracle disagreement.

Each command returns (exit code, stdout lines or None, stderr lines) and writes
nothing; main writes stdout or --out, then stderr.  Config and golden files
are UTF-8, with or without a byte-order mark.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
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
    check_search_limit,
    e1_identical,
    q1_identical,
    secure_distance,
    sweep,
)
from .protocol import TrialConfig, exact_enumerate, run_trials, wilson_interval
from .qubits import W_LABELS, catalog_lines
from .verify import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NO_RATE = 3
EXIT_ORACLE = 4

# key: (float, int, str or the choices; default; the commands that take the
# flag, None for all of them; help).  A config file may set any key for any
# command.  Each subcommand lists its flags in this order, after --config.
_OPTIONS = {
    "out": (str, None, None, "output path (default stdout)"),
    "format": (("csv", "text"), None, ("derive-table", "keyrate", "simulate"), "output format"),
    "golden": (str, None, ("derive-table",), "golden table CSV to compare against"),
    "alpha": (float, 0.2, ("keyrate",), None),
    "eta_d": (float, 0.145, ("keyrate",), None),
    "eta": (float, 0.0145, ("enumerate", "simulate"), "per-party transmittance (all equal)"),
    "y0": (float, 6.02e-6, ("keyrate", "enumerate", "simulate"), None),
    "q": (float, 1.0, ("keyrate",), None),
    "dmin": (float, 0.0, ("keyrate",), None),
    "dmax": (float, 300.0, ("keyrate",), None),
    "dstep": (float, 10.0, ("keyrate",), None),
    "mode": (("paper", "physical"), "paper", ("enumerate", "simulate"), None),
    # the X-basis delay: the exact enumerator is Z-basis only, and a Z simulate rejects it
    "delta": (float, None, ("simulate",), None),
    "trials": (int, 1_000_000, ("simulate",), None),
    "seed": (int, 1, ("simulate",), None),
    "basis": (("z", "x"), "z", ("simulate",), None),
}
_MAX_POINTS = 100_000  # keyrate sweep length; also stops a step too small to advance
_Result = tuple[int, list[str] | None, list[str]]  # exit code, stdout lines (None: no output), stderr lines


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def _build_parser() -> _Parser:
    p = _Parser(prog="wqkd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, command_help) in _COMMANDS.items():
        sp = sub.add_parser(name, help=command_help)
        sp.add_argument("--config", type=str, help="key=value file; flags override it")
        for key, (kind, _, commands, flag_help) in _OPTIONS.items():
            if commands is None or name in commands:
                choices = kind if isinstance(kind, tuple) else None
                flag = f"--{key.replace('_', '-')}"
                sp.add_argument(flag, type=None if choices else kind, choices=choices, help=flag_help)
    return p


def _read_lines(path: str) -> list[str]:
    """A config or golden file's lines: UTF-8, with or without a byte-order mark."""
    return Path(path).read_text(encoding="utf-8-sig").splitlines()


def _read_config(path: str) -> dict:
    out = {}
    for raw in _read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"unknown config key: {key}")
        out[key] = value
    return out


def _config_value(key: str, value: str):
    """A config-file value converted by its flag's type; 1e3 and 7.0 count as integers."""
    kind = _OPTIONS[key][0]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"config key {key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    if kind is not int:
        return kind(value)
    try:
        return int(value)  # exact: a float would round a seed above 2**53
    except ValueError:
        number = float(value)
    if int(number) != number:  # the flags reject 1.9 too
        raise ValueError(f"config key {key} must be an integer, got {value!r}")
    return int(number)


def _merge(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged = {key: default for key, (_, default, _, _) in _OPTIONS.items()}
    if args.config:
        for key, value in _read_config(args.config).items():
            merged[key] = _config_value(key, value)
    merged.update((key, value) for key, value in vars(args).items() if key in _OPTIONS and value is not None)
    for key, (kind, _, _, _) in _OPTIONS.items():
        if kind is float and merged[key] is not None and not math.isfinite(merged[key]):
            raise ValueError(f"{key} must be a finite number, got {merged[key]}")
    return merged


def _sci(x: float) -> str:
    return f"{x:.11e}"


def _sci_e1(e1) -> str:
    """An exact QBER; at zero gain it is undefined, which 0 would misstate."""
    return "undefined (zero gain)" if e1 is None else _sci(float(e1))


# -- derive-table -------------------------------------------------------------


def _row(state: str, pattern: str, prob) -> tuple[str, str, str]:
    """A table row as derive-table writes and compares it: the probability at 10 decimals."""
    return state, pattern, f"{float(prob):.10f}"


def _table_lines(table, rows, fmt: str) -> list[str]:
    lines = [f"# wqkd derive-table format={fmt}"]
    if fmt == "csv":
        lines.append("state,pattern,probability")
        lines.extend(",".join(row) for row in rows)
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
    for number, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("state,"):
            continue
        try:
            state, pattern, prob = line.split(",")
            rows.append(_row(state, pattern, prob))
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected state,pattern,probability, got {line!r}") from None
    return rows


def cmd_derive_table(opts: dict) -> _Result:
    # read first: a bad golden file prints no table
    golden_rows = _load_golden_rows(opts["golden"]) if opts["golden"] else [_row(*r) for r in reference_table().rows()]
    table = derive_detection_table()
    derived_rows = [_row(*row) for row in table.rows()]
    lines = _table_lines(table, derived_rows, opts["format"] or "text")
    diff = Counter(golden_rows)  # the rows as a multiset: > 0 only in golden, < 0 only in derived
    diff.subtract(derived_rows)
    if not any(diff.values()):
        return EXIT_OK, lines, [f"derived table matches golden ({len(derived_rows)} rows)"]
    err = ["derived table differs from golden:"]
    for sign, side in ((1, "golden:  "), (-1, "derived: ")):
        err.extend(f"  - only in {side}{','.join(row)}" for row in sorted(diff) for _ in range(sign * diff[row]))
    return EXIT_MISMATCH, lines, err


# -- verify -------------------------------------------------------------------


def cmd_catalog(opts: dict) -> _Result:
    return EXIT_OK, catalog_lines(), []


def cmd_verify(opts: dict) -> _Result:
    results = run_all()
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    n_ok = sum(ok for _, ok, _ in results)
    lines.append(f"{'PASS' if n_ok == len(results) else 'FAIL'} {n_ok}/{len(results)} suites")
    return EXIT_OK if n_ok == len(results) else EXIT_MISMATCH, lines, []


# -- keyrate ------------------------------------------------------------------


def cmd_keyrate(opts: dict) -> _Result:
    channel = ChannelParams(opts["alpha"], 0.0, opts["eta_d"])
    noise = NoiseParams(opts["y0"])
    rate = RateParams(opts["q"])
    if opts["dmin"] < 0 or opts["dmax"] < opts["dmin"] or opts["dstep"] <= 0:
        raise ValueError("invalid distance range")
    check_search_limit(opts["dmax"])  # before any point is built: every d is then at most 1e6 km
    distances, d = [], opts["dmin"]
    while d <= opts["dmax"] + 1e-9:
        if len(distances) == _MAX_POINTS:
            raise ValueError(f"distance range has more than {_MAX_POINTS} points")
        distances.append(round(d, 9))
        d += opts["dstep"]
    constants = AnalyzerConstants.from_table(derive_detection_table())
    header = (
        f"# wqkd keyrate alpha={opts['alpha']} eta_d={opts['eta_d']} "
        f"y0={opts['y0']} q={opts['q']} dmin={opts['dmin']} dmax={opts['dmax']} dstep={opts['dstep']}"
    )
    sep = "," if (opts["format"] or "csv") == "csv" else "  "
    lines = [header, sep.join(("distance_km", "eta", "Q1", "e1", "R0"))]
    for row in sweep(channel, noise, constants, rate, distances):
        lines.append(sep.join(_sci(x) for x in (row.distance_km, row.eta, row.q1, row.e1, row.r0)))
    try:
        dist = secure_distance(channel, noise, constants, rate, d_max=max(opts["dmax"], 2000.0))
    except NoPositiveRate:
        return EXIT_NO_RATE, None, ["error: key rate non-positive at zero distance"]
    lines.append("# secure_distance_km " + ("none (no zero crossing in range)" if dist is None else f"{dist:.1f}"))
    return EXIT_OK, lines, []


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


def cmd_enumerate(opts: dict) -> _Result:
    eta, y0, mode = opts["eta"], opts["y0"], opts["mode"]
    configs = [TrialConfig(etas=(eta,) * 4, y0=y0, mode=m) for m in ("paper", "physical")]  # checked before any work
    constants = AnalyzerConstants.from_table(derive_detection_table())
    paper, physical = (exact_enumerate(cfg) for cfg in configs)
    result = paper if mode == "paper" else physical
    q1c = q1_identical(eta, NoiseParams(y0), constants)
    e1c = e1_identical(eta, NoiseParams(y0), constants) if q1c > 0 else None
    lines = [f"# wqkd enumerate mode={mode} eta={eta} y0={y0}"]
    lines.append(f"Q1 {mode} = {_sci(float(result.q1))}")
    lines.append(f"e1 {mode} = {_sci_e1(result.e1)}")
    lines.append(f"Q1 closed-form = {_sci(float(q1c))}   e1 closed-form = {_sci_e1(e1c)}")
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
    return EXIT_ORACLE if bad else EXIT_OK, lines, []


def cmd_simulate(opts: dict) -> _Result:
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
    exact = exact_enumerate(cfg) if cfg.basis == "z" else None
    header = (
        f"# wqkd simulate mode={cfg.mode} basis={cfg.basis} eta={eta} y0={y0} "
        f"trials={cfg.trials} seed={cfg.seed}"
    )
    q1_lo, q1_hi = (_sci(x) for x in wilson_interval(tally.accepted, tally.trials))
    e1_hat, e1_lo, e1_hi = "", "", ""
    if tally.accepted:
        e1_hat = _sci(tally.e1_hat)
        e1_lo, e1_hi = (_sci(x) for x in wilson_interval(tally.errors, tally.accepted))
    fracs = None if tally.per_case_fraction is None else [f"{x:.6f}" for x in tally.per_case_fraction]
    if opts["format"] == "csv":
        fields = {
            "mode": cfg.mode,
            "basis": cfg.basis,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "announced": tally.announced,
            "accepted": tally.accepted,
            "errors": tally.errors,
            "Q1_hat": _sci(tally.q1_hat),
            "Q1_lo": q1_lo,
            "Q1_hi": q1_hi,
            "e1_hat": e1_hat,
            "e1_lo": e1_lo,
            "e1_hi": e1_hi,
            "Q1_exact": "" if exact is None else _sci(float(exact.q1)),
            "e1_exact": "" if exact is None or exact.e1 is None else _sci(float(exact.e1)),
        }
        fields.update((f"case{i}_frac", frac) for i, frac in enumerate(fracs or [""] * 5, start=1))
        lines = [header, ",".join(fields), ",".join(str(v) for v in fields.values())]
    else:
        lines = [
            header,
            f"announced = {tally.announced}",
            f"accepted = {tally.accepted}",
            f"errors = {tally.errors}",
            f"Q1_hat = {_sci(tally.q1_hat)}  ci95 = [{q1_lo}, {q1_hi}]",
        ]
        if not tally.accepted:
            lines.append("e1_hat = undefined (no accepted events)")
        else:
            lines.append(f"e1_hat = {e1_hat}  ci95 = [{e1_lo}, {e1_hi}]")
        if exact is not None:
            lines.append(f"Q1_exact = {_sci(float(exact.q1))}")
            lines.append(f"e1_exact = {_sci_e1(exact.e1)}")
            fr = "undefined (no accepted events)" if fracs is None else " ".join(fracs)
            lines.append(f"per_case_accepted_fraction = {fr}")
    if not tally.accepted:
        lines.append("# note: no accepted events: e1 undefined")
    elif cfg.basis == "x":
        lines.append("# note: x basis: 'errors' counts equal key-holder x bits")
    return EXIT_OK, lines, []


_COMMANDS = {
    "derive-table": (cmd_derive_table, "derive the distinguishable-state table"),
    "verify": (cmd_verify, "run the exact identity suites"),
    "catalog": (cmd_catalog, "print the 16-state basis as signed ket sums"),
    "keyrate": (cmd_keyrate, "key-rate sweep over end-to-end distance"),
    "enumerate": (cmd_enumerate, "exact protocol enumeration"),
    "simulate": (cmd_simulate, "seeded Monte-Carlo run"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _merge(args)
    except (ValueError, OverflowError, OSError) as exc:  # int(float("inf")) overflows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, out, err = _COMMANDS[args.command][0](opts)
        if out is not None:
            text = "\n".join(out) + "\n"
            if opts["out"]:
                Path(opts["out"]).write_text(text)
            else:
                sys.stdout.write(text)
    except (ValueError, OSError) as exc:  # OSError: a missing --golden or --out path
        print(f"error: {exc}", file=sys.stderr)  # and none of the command's stderr lines
        return EXIT_USAGE
    sys.stderr.write("".join(f"{line}\n" for line in err))
    return code


if __name__ == "__main__":
    sys.exit(main())
