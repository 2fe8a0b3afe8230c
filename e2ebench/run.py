#!/usr/bin/env python3
"""Builds e2ebench from the checkout's own sources and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload triage-long --seed 1 --seconds 16 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
the first run configures and compiles, later runs only re-check. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits 2 without a result when the difftrace sources are missing.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(target: Path) -> Path:
    out = target / "e2ebench"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], stdout=sys.stderr, check=True)
    return out / "e2ebench"


def main() -> int:
    if not (ROOT / "src" / "cli" / "ops.hpp").is_file():
        print(f"e2ebench: no difftrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    try:
        exe = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--work", str(target / "work")]
    return subprocess.run([str(exe), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
