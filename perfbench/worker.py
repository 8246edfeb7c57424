"""One benchmark workload, run in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --launched T

``run.py`` starts this process and passes as ``--launched`` the
``time.monotonic()`` reading taken just before starting it, so set-up time
includes interpreter start and imports.  The worker sets up, runs the timed
phase as a closed loop (each operation starts when the previous one returned),
then checks every result outside the timed region.  Its last stdout line is a
JSON report for ``run.py``.

Every input is drawn from ``--seed``; the package only receives the generated
values, always inside the ranges its validators accept.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from spans import Tracer  # noqa: E402
from speed import SpeedMeter  # noqa: E402

# Every Monte-Carlo call draws the CLI's default of 10**6 trials (16
# counter-based chunks), so the per-call sampling-table build is as small a
# share of a call as it is in real use.
MC_TRIALS = 1_000_000
W40_STAGE_TERMS = (20, 96, 820, 1100, 569, 200)
PAPER_Y0 = 6.02e-6
DENSE_Y0 = 1e-2
X_DELTA = math.pi / 8
# Physical-mode survivor coefficients minus the closed-form ones, as the
# package computed them when the benchmark was added: the bunched terms that
# paper accounting drops.  Subsets of at most one survivor have none.
BUNCHED_EXCESS = {
    (0, 1): ("13/48", "13/96"),
    (0, 2): ("1/6", "1/12"),
    (0, 3): ("1/6", "1/12"),
    (1, 2): ("1/6", "1/12"),
    (1, 3): ("1/6", "1/12"),
    (2, 3): ("25/192", "19/192"),
    (0, 1, 2): ("47/384", "47/768"),
    (0, 1, 3): ("47/384", "47/768"),
    (0, 2, 3): ("5/48", "47/768"),
    (1, 2, 3): ("5/48", "47/768"),
    (0, 1, 2, 3): ("245/6144", "25/1152"),
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("wall-time ceiling exceeded")


class Run:
    """Operations, checks, latencies and the output digest of one run."""

    def __init__(self, workload: str, seed: int, seconds: int, tracer: Tracer | None):
        self.rng = random.Random(f"{workload}:{seed}")
        # A workload's number of timed operations depends on --seconds alone,
        # never on the machine, so two commits always do the same work.  At
        # nominal speed the timed phase takes about --seconds (x-basis adds
        # its cold X table).
        self.seconds = seconds
        self.tracer = tracer
        self.checks: dict[str, str | None] = {}  # key -> failure reason, None when passed
        self.latencies: list[tuple[float, float]] = []  # the repeated operation's intervals
        self.digest = hashlib.sha256()

    def seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def op(self, key: str, kind: str, fn, limit_s: float):
        """Run one timed operation under a wall-time ceiling.

        Returns (result, (start, end)) with ``time.monotonic()`` readings.  The
        result is None when the call raised or hit its ceiling; the operation
        then counts as failed.
        """
        self.checks.setdefault(key, None)
        if self.tracer:
            self.tracer.op = len(self.checks)
        t0 = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with self.span(kind, key=key):
                result = fn()
        except Exception as exc:  # a failed operation is counted, never fatal
            result = None
            self.fail(key, f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.monotonic()
        return result, (t0, t1)

    def expect(self, key: str, ok: bool, why: str) -> None:
        """Record a check; a key already counted by op() is not counted twice."""
        self.checks.setdefault(key, None)
        if not ok:
            self.fail(key, why)

    def fail(self, key: str, why: str) -> None:
        if self.checks.get(key) is None:
            self.checks[key] = why
            print(f"FAILED {key}: {why}", file=sys.stderr)

    def record(self, output) -> None:
        self.digest.update(repr(output).encode())


def cli_call(run: Run, argv: list[str]) -> tuple[int, str]:
    """``wqkd <argv>`` in this process; returns (exit code, captured stdout)."""
    from wqkd import cli

    out, err = io.StringIO(), io.StringIO()
    with run.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    return rc, out.getvalue()


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def tally_ok(t) -> bool:
    return 0 <= t.errors <= t.accepted <= t.announced <= t.trials


# -- workloads -----------------------------------------------------------------


class ExactOracle:
    """Warm Z cache; CLI enumerate calls plus verify, derive-table, keyrate and
    the exact survivor coefficients.

    One repeated operation enumerates a seeded (eta, y0) point through the CLI
    in paper and then in physical accounting.  Timed call by call, the two
    modes would make the latency bimodal, and the median of a bimodal sample
    jumps between its modes from run to run.
    """

    MODES = ("paper", "physical")

    def setup(self, run: Run) -> None:
        from wqkd import analyzer

        analyzer.derive_detection_table(cache=False)
        self.points = [
            (log_uniform(run.rng, 1e-3, 0.9), log_uniform(run.rng, 1e-7, 1e-3))
            for _ in range(max(100, 10 * run.seconds) + 1)  # >= 100 leave ten samples beyond p90
        ]
        self.eta_ds = [0.145, 0.93] + [run.rng.uniform(0.1, 0.95) for _ in range(2)]
        with run.span("setup.zfill"):
            rc, _ = cli_call(run, self._enumerate_argv(*self.points.pop(0), "paper"))
        run.expect("setup.enumerate", rc == 0, f"warm-up enumerate exit {rc}")

    @staticmethod
    def _enumerate_argv(eta: float, y0: float, mode: str) -> list[str]:
        return ["enumerate", "--eta", f"{eta:.6e}", "--y0", f"{y0:.6e}", "--mode", mode]

    def timed(self, run: Run) -> None:
        from wqkd import protocol

        self.enumerated = []
        for i, point in enumerate(self.points):
            argvs = [self._enumerate_argv(*point, mode) for mode in self.MODES]
            res, interval = run.op(f"enumerate.{i}", "op.enumerate", lambda: [cli_call(run, a) for a in argvs], 30)
            run.latencies.append(interval)
            self.enumerated.append(res)
        self.verified, _ = run.op("verify", "op.verify", lambda: cli_call(run, ["verify"]), 60)
        self.table, _ = run.op(
            "derive-table", "op.derive-table", lambda: cli_call(run, ["derive-table", "--format", "csv"]), 60
        )
        self.keyrates = []
        for i, eta_d in enumerate(self.eta_ds):
            argv = ["keyrate", "--eta-d", f"{eta_d:.6f}"]
            self.keyrates.append(run.op(f"keyrate.{i}", "op.keyrate", lambda: cli_call(run, argv), 30)[0])
        self.coefficients = {}
        for mode in ("paper", "physical"):
            self.coefficients[mode] = run.op(
                f"survivor_coefficients.{mode}",
                "op.survivor_coefficients",
                lambda: protocol.survivor_coefficients(mode),
                60,
            )[0]

    def check(self, run: Run) -> None:
        from fractions import Fraction

        from wqkd import analyzer, keyrate

        for i, res in enumerate(self.enumerated):
            ok = res is not None and all(rc == 0 and "ORACLE DISAGREEMENT" not in out for rc, out in res)
            run.expect(f"enumerate.{i}", ok, "oracle and closed form disagree beyond 1e-9")
            run.record(res)
        run.expect(
            "verify",
            self.verified is not None and self.verified[1].splitlines()[-1:] == ["PASS 11/11 suites"],
            "verify did not print PASS 11/11 suites",
        )
        run.record(self.verified)
        want = ["state,pattern,probability"] + [
            f"{s},{p},{float(pr):.10f}" for s, p, pr in analyzer.reference_table().rows()
        ]
        got = [ln for ln in self.table[1].splitlines() if not ln.startswith("#")] if self.table else None
        run.expect("derive-table", self.table is not None and self.table[0] == 0 and got == want,
                   "derived table differs from reference_table()")
        run.record(self.table)

        distances = []
        for i, (eta_d, res) in enumerate(zip(self.eta_ds, self.keyrates)):
            run.record(res)
            d = _secure_distance(res[1]) if res and res[0] == 0 else None
            lo, hi = {0.145: (175, 195), 0.93: (250, 275)}.get(eta_d, (0, math.inf))
            run.expect(f"keyrate.{i}", d is not None and lo <= d <= hi,
                       f"secure distance {d} km at eta_d={eta_d} outside [{lo}, {hi}]")
            distances.append((eta_d, d))
        ordered = [d for _, d in sorted(distances)]
        run.expect("keyrate.monotone", None not in ordered and ordered == sorted(ordered),
                   f"secure distance not monotone in eta_d: {sorted(distances)}")

        # paper accounting reproduces every closed-form coefficient exactly;
        # physical accounting adds exactly the bunched terms of BUNCHED_EXCESS
        constants = keyrate.AnalyzerConstants.from_table(analyzer.derive_detection_table())
        y0 = Fraction(1, 3)
        bad = []
        for surv in range(16):
            parties = frozenset(p for p in range(4) if (surv >> p) & 1)
            etas = tuple(Fraction(int(p in parties)) for p in range(4))
            model = keyrate.case_breakdown(keyrate.Transmittances(*etas), keyrate.NoiseParams(y0), constants)
            k = len(parties)
            base = y0 ** (4 - k) * (1 - y0) ** 12
            closed = (model.gain[k] / base, model.error[k] / base)
            excess = tuple(map(Fraction, BUNCHED_EXCESS.get(tuple(sorted(parties)), ("0", "0"))))
            if (self.coefficients["paper"] or {}).get(parties) != closed:
                bad.append(("paper", sorted(parties)))
            if (self.coefficients["physical"] or {}).get(parties) != (closed[0] + excess[0], closed[1] + excess[1]):
                bad.append(("physical", sorted(parties)))
        for mode, coeffs in self.coefficients.items():
            run.expect(f"survivor_coefficients.{mode}", all(m != mode for m, _ in bad),
                       f"{mode} survivor coefficients differ from the expected Fractions for {bad}")
            run.record(sorted(coeffs.items(), key=lambda kv: sorted(kv[0])) if coeffs else None)

    def layers(self, run: Run, tr: Tracer) -> dict[str, float]:
        enum_ops = [s for s in tr.named("cli.enumerate") if s.op is not None]  # not the warm-up
        calls = [s for op in enum_ops for s in tr.named("protocol.exact_enumerate", within=op)]
        sweeps = tr.named("keyrate.sweep")
        out = {
            "protocol.zfill_ms": tr.named("setup.zfill")[0].ms,
            "protocol.exact_enumerate.calls_per_cli_enumerate": len(calls) / len(enum_ops),
            "protocol.survivor_coefficients_ms": sum(s.ms for s in tr.named("protocol.survivor_coefficients")),
            "keyrate.sweep_points_per_s": sum(s.attrs["points"] for s in sweeps) / sum(s.ms / 1e3 for s in sweeps),
            "keyrate.secure_distance_ms": statistics.median(s.ms for s in tr.named("keyrate.secure_distance")),
            "verify.run_all_ms": tr.named("verify.run_all")[0].ms,
            "cli.enumerate.self_ms": statistics.median(tr.self_ms(s) for s in enum_ops),
            "cli.verify_ms": tr.named("cli.verify")[0].ms,
            "cli.keyrate_ms": statistics.median(s.ms for s in tr.named("cli.keyrate")),
            "cli.derive-table_ms": tr.named("cli.derive-table")[0].ms,
        }
        for mode in ("paper", "physical"):
            out[f"protocol.exact_enumerate.{mode}_p50_ms"] = statistics.median(
                s.ms for s in calls if s.attrs["mode"] == mode
            )
        for suite in ("w0-output-expansion", "photon-evolution-anchors"):
            out[f"verify.{suite}_ms"] = tr.named(f"verify.{suite}")[0].ms
        return out


def _secure_distance(stdout: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith("# secure_distance_km "):
            value = line.split()[2]
            return None if value == "none" else float(value)
    return None


class MonteCarloZ:
    """Z-basis Monte Carlo at the paper's and at a dense dark-count rate."""

    CONFIGS = [
        (y0, eta, mode)
        for y0 in (PAPER_Y0, DENSE_Y0)
        for eta in (0.0145, 0.5)
        for mode in ("paper", "physical")
    ]

    def setup(self, run: Run) -> None:
        from wqkd import analyzer, protocol

        analyzer.derive_detection_table(cache=False)
        with run.span("setup.zfill"):
            # every survivor configuration is propagated whatever the trial count
            protocol.run_trials(protocol.TrialConfig(etas=(0.5,) * 4, trials=1024, seed=run.seed()))
        n = len(self.CONFIGS) * math.ceil(0.3 * run.seconds)  # each configuration equally often
        self.calls = []
        for i in range(n):
            y0, eta, mode = self.CONFIGS[i % len(self.CONFIGS)]
            cfg = protocol.TrialConfig(etas=(eta,) * 4, y0=y0, mode=mode, trials=MC_TRIALS, seed=run.seed())
            self.calls.append(cfg)

    def timed(self, run: Run) -> None:
        from wqkd import protocol

        self.tallies = []
        for i, cfg in enumerate(self.calls):
            tally, interval = run.op(f"mc.{i}", "op.run_trials", lambda: protocol.run_trials(cfg), 30)
            run.latencies.append(interval)
            self.tallies.append(tally)

    def check(self, run: Run) -> None:
        from wqkd import protocol

        for i, tally in enumerate(self.tallies):
            run.expect(f"mc.{i}", tally is not None and tally_ok(tally), f"inconsistent tally {tally}")
            run.record(tally)
        # q1_hat of each configuration against the exact enumerator, within
        # 5 sigma; sigma is floored at one count so rare-event configurations
        # with an expected count far below one are judged fairly
        for y0, eta, mode in self.CONFIGS:
            done = [t for c, t in zip(self.calls, self.tallies) if t and (c.y0, c.etas[0], c.mode) == (y0, eta, mode)]
            n = sum(t.trials for t in done)
            accepted = sum(t.accepted for t in done)
            q1 = float(protocol.exact_enumerate(protocol.TrialConfig(etas=(eta,) * 4, y0=y0, mode=mode)).q1)
            sigma = math.sqrt(max(n * q1 * (1 - q1), 1.0))
            run.expect(f"mc.5sigma.{y0}.{eta}.{mode}", abs(accepted - n * q1) <= 5 * sigma,
                       f"{accepted} accepted in {n} trials, exact expects {n * q1:.3f}")
        rerun = protocol.run_trials(self.calls[0])
        run.expect("mc.rerun", rerun == self.tallies[0], "rerun with the same seed is not bit-identical")
        done = [t for t in self.tallies if t]
        trials = sum(t.trials for t in done)
        self.per_trial = {
            "protocol.run_trials.announced_per_trial": sum(t.announced for t in done) / trials,
            "protocol.run_trials.accepted_per_trial": sum(t.accepted for t in done) / trials,
        }

    def layers(self, run: Run, tr: Tracer) -> dict[str, float]:
        out = dict(self.per_trial, **{"protocol.zfill_ms": tr.named("setup.zfill")[0].ms})
        calls = [s for op in tr.named("op.run_trials") for s in tr.named("protocol.run_trials", within=op)]
        for dark, y0 in (("low_dark", PAPER_Y0), ("dense_dark", DENSE_Y0)):
            for mode in ("paper", "physical"):
                group = [s for s in calls if (s.attrs["y0"], s.attrs["mode"]) == (y0, mode)]
                out[f"protocol.run_trials.{dark}.{mode}.trials_per_s"] = (
                    sum(s.attrs["trials"] for s in group) / sum(s.ms / 1e3 for s in group)
                )
        return out


class XBasis:
    """A cold X outcome table at a delay no earlier call used, then warm reruns."""

    def setup(self, run: Run) -> None:
        from wqkd import analyzer, protocol

        analyzer.derive_detection_table(cache=False)

        def config(seed: int):
            return protocol.TrialConfig(
                etas=(0.5,) * 4, mode="paper", basis="x", delta=X_DELTA, trials=MC_TRIALS, seed=seed
            )

        self.first = config(run.seed())
        self.calls = [config(run.seed()) for _ in range(run.seconds)]

    def timed(self, run: Run) -> None:
        from wqkd import protocol

        self.cold, self.cold_at = run.op("x.cold", "op.run_trials", lambda: protocol.run_trials(self.first), 120)
        self.rerun, self.rerun_at = run.op("x.rerun", "op.run_trials", lambda: protocol.run_trials(self.first), 30)
        self.tallies = []
        for i, cfg in enumerate(self.calls):
            tally, interval = run.op(f"x.{i}", "op.run_trials", lambda: protocol.run_trials(cfg), 30)
            run.latencies.append(interval)
            self.tallies.append(tally)

    def check(self, run: Run) -> None:
        run.expect("x.rerun", self.rerun is not None and self.rerun == self.cold,
                   "rerun with the same seed is not bit-identical")
        for key, tally in [("x.cold", self.cold)] + [(f"x.{i}", t) for i, t in enumerate(self.tallies)]:
            run.expect(key, tally is not None and tally_ok(tally), f"inconsistent tally {tally}")
            run.record(tally)

    def layers(self, run: Run, tr: Tracer) -> dict[str, float]:
        warm = [s for op in tr.named("op.run_trials")[2:] for s in tr.named("protocol.run_trials", within=op)]
        return {
            "protocol.xfill_ms": (self.cold_at[1] - self.cold_at[0] - self.rerun_at[1] + self.rerun_at[0]) * 1e3,
            "protocol.run_trials.x.trials_per_s": sum(s.attrs["trials"] for s in warm)
            / sum(s.ms / 1e3 for s in warm),
        }


WORKLOADS = {"exact-oracle": ExactOracle, "mc-z": MonteCarloZ, "x-basis": XBasis}


# -- per-layer probes and wrappers ------------------------------------------------


def w40_stages(run: Run, reps: int) -> tuple[list[float], list[int]]:
    """Median milliseconds and term count of each staged mode map on W4,0."""
    from wqkd import analyzer, qubits

    stages = analyzer.w_analyzer().stages
    times: list[list[float]] = [[] for _ in stages]
    for _ in range(reps):
        state = qubits.encode_fock(qubits.w_state(0), analyzer.INPUT_MODES)
        terms = []
        for i, stage in enumerate(stages):
            t0 = time.perf_counter()
            state = state.apply_mode_map(stage)
            times[i].append((time.perf_counter() - t0) * 1e3)
            terms.append(state.n_terms)
        run.expect("w40.stage_terms", tuple(terms) == W40_STAGE_TERMS, f"W4,0 stage terms {terms}")
    return [statistics.median(t) for t in times], terms


def install_wrappers(tr: Tracer) -> None:
    """Record a span around each public function a workload reaches.

    A function is wrapped under every module name it is called through (the
    CLI and protocol import names directly), so nested calls become children.
    """
    from wqkd import analyzer, cli, fock, protocol, verify

    terms = {"on_result": lambda st: {"terms": st.n_terms}}
    tr.wrap(fock.FockState, "apply_mode_map", "fock.apply_mode_map", **terms)
    for mod in (analyzer, cli, protocol, verify):
        tr.wrap(mod, "derive_detection_table", "analyzer.derive_detection_table")
    for mod in (analyzer, verify):
        tr.wrap(mod, "propagate_w_state", "analyzer.propagate_w_state", **terms)
    mode = {"on_call": lambda cfg, *a, **k: {"mode": cfg.mode}}
    for mod in (cli, protocol):
        tr.wrap(mod, "exact_enumerate", "protocol.exact_enumerate", **mode)
    tr.wrap(protocol, "run_trials", "protocol.run_trials",
            on_call=lambda cfg, *a, **k: {"mode": cfg.mode, "y0": cfg.y0, "trials": cfg.trials, "basis": cfg.basis})
    tr.wrap(protocol, "survivor_coefficients", "protocol.survivor_coefficients")
    tr.wrap(cli, "sweep", "keyrate.sweep", on_result=lambda rows: {"points": len(rows)})
    for name in ("secure_distance", "q1_identical", "e1_identical", "case_breakdown"):
        tr.wrap(cli, name, f"keyrate.{name}")
    tr.wrap(cli, "run_all", "verify.run_all")
    verify.ALL_SUITES = tuple((name, tr.traced(fn, f"verify.{name}")) for name, fn in verify.ALL_SUITES)


def common_layers(tr: Tracer, stage_ms: list[float], stage_terms: list[int]) -> dict[str, float]:
    derive = tr.named("analyzer.derive_detection_table")[0]  # the cold set-up derivation
    states = tr.named("analyzer.propagate_w_state", within=derive)
    out = {
        "analyzer.derive_detection_table_ms": derive.ms,
        "analyzer.propagate_w_state_p50_ms": statistics.median(s.ms for s in states),
        "analyzer.propagate_w_state_max_ms": max(s.ms for s in states),
        "analyzer.output_terms_total": sum(s.attrs["terms"] for s in states),
    }
    for i, (ms, terms) in enumerate(zip(stage_ms, stage_terms), start=1):
        out[f"fock.w40.stage{i}_ms"] = ms
        out[f"fock.w40.stage{i}_terms"] = terms
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args()
    meter = SpeedMeter()
    meter.start()

    import numpy
    import wqkd

    if not Path(wqkd.__file__).resolve().is_relative_to(SRC):
        print(f"error: wqkd imported from {wqkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None
    if tracer:
        install_wrappers(tracer)
    run = Run(args.workload, args.seed, args.seconds, tracer)
    workload = WORKLOADS[args.workload]()

    workload.setup(run)
    setup_end = time.monotonic()
    workload.timed(run)
    run_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    workload.check(run)
    stage_ms, stage_terms = w40_stages(run, reps=3 if tracer else 1)
    meter.stop()
    layers = {}
    if tracer:
        layers = {**common_layers(tracer, stage_ms, stage_terms), **workload.layers(run, tracer)}
        tracer.write(ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.jsonl")
    report = {
        "setup_s": meter.scaled(args.launched, setup_end),
        "run_s": meter.scaled(setup_end, run_end),
        "latencies_ms": [meter.scaled(a, b) * 1e3 for a, b in run.latencies],
        "wall": {
            "setup_s": setup_end - args.launched,
            "run_s": run_end - setup_end,
            "op_p50_ms": statistics.median(b - a for a, b in run.latencies) * 1e3,
            "speed_factor": meter.factor(),
        },
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(run.checks),
        "failed": sum(why is not None for why in run.checks.values()),
        "digest": run.digest.hexdigest(),
        "numpy": numpy.__version__,
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
