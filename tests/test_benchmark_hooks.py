import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_finds_every_wrapped_name():
    # `perfbench/run.py --trace 1` wraps package functions looked up by name,
    # so deleting one of them breaks every traced run
    code = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import spans, worker\n"
        "worker.install_wrappers(spans.Tracer())\n"
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # nothing is written under perfbench/
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
