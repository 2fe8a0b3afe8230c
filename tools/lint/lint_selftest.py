#!/usr/bin/env python3
"""Selftest for difftrace_lint: pins every rule id against its seeded
fixture under tests/lint_fixtures/.

For each bad_<name>.cpp fixture the linter must exit nonzero and report
EXACTLY the expected (rule, line) set — no extras, no misses, stable line
numbers. clean.cpp (a file of deliberate near-misses) and suppressed.cpp
(every violation NOLINT-DT'ed) must exit 0 with zero findings. Run from
anywhere: paths resolve relative to the repo root (two levels up).

Usage: lint_selftest.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_ROOT = HERE.parent.parent
FIXTURES = pathlib.Path("tests") / "lint_fixtures"

# fixture -> exact expected set of (rule, line). Line numbers are part of
# the contract: a drifting line means the fixture or scanner changed and
# the expectation must be re-verified, not silently re-matched.
EXPECTED: dict[str, set[tuple[str, int]]] = {
    "bad_stream.cpp": {("stream-discipline", 9), ("stream-discipline", 13)},
    "bad_decode.cpp": {("bounded-decode", 14)},
    "bad_determinism.cpp": {("determinism", 10), ("determinism", 14), ("determinism", 18)},
    "bad_naked_new.cpp": {("naked-new", 9), ("naked-new", 13)},
    "bad_task_throw.cpp": {("task-throw", 15)},
    "bad_sim_inject.cpp": {("sim-only-injection", 14), ("sim-only-injection", 15)},
    "bad_raw_mutex.cpp": {("raw-mutex", 18), ("raw-mutex", 19)},
    # Stripper near-misses: MACRO_R"..." (not a raw string), a digit
    # separator's lone tick, and a backslash-newline inside a string. Each
    # once hid or shifted these two findings; the exact lines pin the fix.
    "bad_strip.cpp": {("stream-discipline", 17), ("stream-discipline", 24)},
    # Path-scoped rules: these fixtures sit under an obs/ (resp. serve/)
    # subdirectory so the scope predicate fires on them exactly as it does
    # on src/obs/ (resp. src/serve/).
    "obs/bad_obs_stream.cpp": {("obs-sink-discipline", 11), ("obs-sink-discipline", 15)},
    "serve/bad_serve_protocol.cpp": {
        ("serve-protocol-discipline", 11),
        ("serve-protocol-discipline", 15),
    },
    "clean.cpp": set(),
    "suppressed.cpp": set(),
}


def run_lint(root: pathlib.Path, fixture: pathlib.Path) -> tuple[int, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "difftrace_lint.py"), "--root", str(root), "--json", str(fixture)],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"linter crashed on {fixture} (exit {proc.returncode}):\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=str(DEFAULT_ROOT), help="repo root containing tests/lint_fixtures")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()

    failures: list[str] = []
    seen_rules: set[str] = set()
    for name, expected in sorted(EXPECTED.items()):
        fixture = root / FIXTURES / name
        if not fixture.is_file():
            failures.append(f"{name}: fixture missing at {fixture}")
            continue
        code, findings = run_lint(root, fixture)
        got = {(f["rule"], f["line"]) for f in findings}
        seen_rules.update(rule for rule, _ in got)
        if got != expected:
            missed = expected - got
            extra = got - expected
            detail = []
            if missed:
                detail.append(f"missed {sorted(missed)}")
            if extra:
                detail.append(f"extra {sorted(extra)}")
            failures.append(f"{name}: {'; '.join(detail)}")
        want_exit = 1 if expected else 0
        if code != want_exit:
            failures.append(f"{name}: exit {code}, expected {want_exit}")

    # Every advertised rule id must be exercised by some fixture, so a new
    # rule cannot land without a seeded-violation fixture.
    list_proc = subprocess.run(
        [sys.executable, str(HERE / "difftrace_lint.py"), "--list-rules"],
        capture_output=True,
        text=True,
        check=True,
    )
    advertised = {line.split()[0] for line in list_proc.stdout.splitlines() if line.strip()}
    uncovered = advertised - seen_rules
    if uncovered:
        failures.append(f"rules with no seeded fixture violation: {sorted(uncovered)}")

    if failures:
        print("lint_selftest: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"lint_selftest: OK ({len(EXPECTED)} fixtures, {len(advertised)} rules covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
