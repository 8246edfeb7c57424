"""wqkd benchmark: one command, one workload, every metric by name.

    python3 perfbench/run.py --workload {exact-oracle,mc-z,x-basis} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each workload runs in a fresh single-threaded process
(``worker.py``) with BLAS/OpenMP thread counts pinned to one.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` an untraced and then a traced process run the same seed, one
after the other, and the last line holds the per-layer metrics.  The metric
names, units and bounds are those of ``BENCHMARK.json``; see README.md in this
directory for what each one means and which workload should move it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-oracle", "mc-z", "x-basis")
TIME_LIMIT_S = 175.0  # the whole command, both processes of a traced run included
# At 15 seconds, traced runs (two processes each) took 70-86 s on a host at
# half the nominal speed; the cap keeps room under TIME_LIMIT_S for a slower one.
MAX_SECONDS = 15

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def nearest_rank_p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def run_worker(args: argparse.Namespace, trace: int, deadline: float) -> dict:
    """Start one worker process, wait for it and return its report."""
    env = dict(os.environ, **PINNED_ENV)
    launched = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--launched", repr(launched),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - launched, 1.0)
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(report: dict) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    lat = report["latencies_ms"]
    return {
        "setup_s": (report["setup_s"], 1),
        "run_s": (report["run_s"], 1),
        "peak_rss_mb": (report["peak_rss_mb"], 1),
        "op_p50_ms": (statistics.median(lat), len(lat)),
        "op_p90_ms": (nearest_rank_p90(lat), len(lat)),
    }


def provenance(args: argparse.Namespace, numpy_version: str) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    sha = "unknown"  # a checkout without .git has no commit to name
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": numpy_version, "git_sha": sha,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=int, choices=range(1, MAX_SECONDS + 1), metavar=f"1..{MAX_SECONDS}", required=True
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wqkd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a wqkd checkout with BENCHMARK.json", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text())

    try:
        base = run_worker(args, 0, deadline)
        reports = [base]
        if args.trace:
            reports.append(run_worker(args, 1, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if args.trace:
        traced = reports[1]
        attempted += 1  # the traced run must leave every output byte-identical
        if traced["digest"] != base["digest"]:
            failed += 1
            print("FAILED trace: traced outputs differ from the untraced run", file=sys.stderr)
        values = {name: (v, None) for name, v in traced["layers"].items()}
        values["trace.overhead_ratio"] = (traced["run_s"] / base["run_s"] - 1, None)
        listed = spec["per_layer"]
    else:
        values = end_to_end(base)
        listed = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(set(values) - set(units))
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    # a per-layer metric of a layer this workload never calls reads 0
    metrics = {name: {"value": values.get(name, (0, None))[0], "unit": unit} for name, unit in units.items()}

    print("provenance " + json.dumps(provenance(args, base["numpy"])))
    for name, unit in units.items():
        value, n = values.get(name, (0, None))
        note = "(layer not called)" if name not in values else "" if n is None else f"n={n}"
        print(f"{args.workload:<13} {name:<52} {value:>16.6g} {unit:<8} {note}")
    print(f"{args.workload:<13} {'ops_failed':<52} {failed:>10d}/{attempted:<5} ({failed / attempted:.3g})")
    for i, r in enumerate(reports):
        wall = " ".join(f"{k}={v:.6g}" for k, v in r["wall"].items())
        print(f"{args.workload:<13} unscaled wall clock ({'traced' if i else 'untraced'}): {wall}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
