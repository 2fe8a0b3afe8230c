#!/usr/bin/env python3
"""Validate a difftrace run manifest against schema version 1.

The manifest is the machine-readable record a run writes under
`--stats=FILE` (and the format of the BENCH_*.json files produced by
`perf_sweep --json`). The schema is documented in DESIGN.md
("Observability") and mirrored by obs::RunManifest. CI runs this over the
manifest of the oddeven walkthrough so the telemetry contract — stable
field names and types, phases that actually account for the run — is
enforced, not just described.

Usage: tools/check_manifest.py MANIFEST.json
           [--min-coverage 0.95] [--require-counter NAME ...]
       tools/check_manifest.py SESSION.jsonl --serve [--expect-ids q1,q2,...]
Exit code: 0 when the manifest validates, 1 otherwise (problems on stderr).

`--serve` switches to the resident-service contract: the input is a
line-delimited transcript of `difftrace serve` responses (one JSON object
per line, e.g. collected with `difftrace query --raw`), each carrying
`serve_version`, the request_id echo, and the shared RunManifest fields.

Stdlib only — no third-party JSON-schema machinery.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

CRC32_RE = re.compile(r"^[0-9a-f]{8}$")
PHASE_PATH_RE = re.compile(r"^[^/]+(/[^/]+)*$")


class Problems:
    def __init__(self) -> None:
        self.messages: list[str] = []

    def add(self, message: str) -> None:
        self.messages.append(message)

    def expect(self, obj: dict, key: str, kinds, where: str) -> object:
        """Checks obj[key] exists with one of `kinds`; returns it (or None)."""
        if key not in obj:
            self.add(f"{where}: missing key '{key}'")
            return None
        value = obj[key]
        if not isinstance(value, kinds) or isinstance(value, bool) and kinds is not bool:
            self.add(f"{where}: '{key}' has type {type(value).__name__}")
            return None
        return value


def check_phases(phases: list, problems: Problems) -> None:
    for i, phase in enumerate(phases):
        where = f"phases[{i}]"
        if not isinstance(phase, dict):
            problems.add(f"{where}: not an object")
            continue
        path = problems.expect(phase, "path", str, where)
        name = problems.expect(phase, "name", str, where)
        depth = problems.expect(phase, "depth", int, where)
        count = problems.expect(phase, "count", int, where)
        problems.expect(phase, "wall_ns", int, where)
        problems.expect(phase, "cpu_ns", int, where)
        if path is not None and not PHASE_PATH_RE.match(path):
            problems.add(f"{where}: malformed path '{path}'")
        if path is not None and name is not None and not path.endswith(name):
            problems.add(f"{where}: name '{name}' is not the tail of path '{path}'")
        if path is not None and depth is not None and path.count("/") != depth:
            problems.add(f"{where}: depth {depth} disagrees with path '{path}'")
        if count is not None and count < 1:
            problems.add(f"{where}: count {count} < 1")


def phase_coverage(phases: list) -> float:
    """Mirror of obs::RunManifest::phase_coverage: the fraction of the
    largest depth-0 phase's wall time covered by its direct children."""
    roots = [p for p in phases if isinstance(p, dict) and p.get("depth") == 0]
    if not roots:
        return 1.0
    root = max(roots, key=lambda p: p.get("wall_ns", 0))
    if not root.get("wall_ns"):
        return 1.0
    prefix = root["path"] + "/"
    children_wall = sum(
        p.get("wall_ns", 0)
        for p in phases
        if isinstance(p, dict) and p.get("depth") == 1 and str(p.get("path", "")).startswith(prefix)
    )
    if not any(
        isinstance(p, dict) and p.get("depth") == 1 and str(p.get("path", "")).startswith(prefix)
        for p in phases
    ):
        return 1.0
    return children_wall / root["wall_ns"]


def check_manifest(doc: object, min_coverage: float, required_counters: list[str]) -> list[str]:
    problems = Problems()
    if not isinstance(doc, dict):
        return ["document root is not an object"]

    version = problems.expect(doc, "manifest_version", int, "manifest")
    if version is not None and version != 1:
        problems.add(f"manifest: unsupported manifest_version {version}")
    problems.expect(doc, "tool_version", str, "manifest")
    problems.expect(doc, "exit_code", int, "manifest")
    problems.expect(doc, "wall_ns", int, "manifest")
    problems.expect(doc, "cpu_ns", int, "manifest")
    problems.expect(doc, "peak_rss_kb", int, "manifest")

    # Execution-engine fields are additive (schema stays v1): absent in
    # manifests written before the scheduler existed, typed when present.
    for key, kinds in (
        ("jobs", int),
        ("cache_dir", str),
        ("cache_hits", int),
        ("cache_misses", int),
        ("self_trace", str),
    ):
        if key in doc:
            problems.expect(doc, key, kinds, "manifest")

    command = problems.expect(doc, "command", list, "manifest")
    if command is not None and not all(isinstance(c, str) for c in command):
        problems.add("manifest: command entries must be strings")

    inputs = problems.expect(doc, "inputs", list, "manifest")
    for i, entry in enumerate(inputs or []):
        where = f"inputs[{i}]"
        if not isinstance(entry, dict):
            problems.add(f"{where}: not an object")
            continue
        problems.expect(entry, "path", str, where)
        problems.expect(entry, "bytes", int, where)
        problems.expect(entry, "ok", bool, where)
        crc = problems.expect(entry, "crc32", str, where)
        if crc is not None and not CRC32_RE.match(crc):
            problems.add(f"{where}: crc32 '{crc}' is not 8 lowercase hex digits")

    phases = problems.expect(doc, "phases", list, "manifest")
    if phases is not None:
        check_phases(phases, problems)
        coverage = phase_coverage(phases)
        if coverage < min_coverage:
            problems.add(
                f"manifest: phase coverage {coverage:.3f} below required {min_coverage:.3f}"
            )

    counters = problems.expect(doc, "counters", list, "manifest")
    counter_names = set()
    for i, entry in enumerate(counters or []):
        where = f"counters[{i}]"
        if not isinstance(entry, dict):
            problems.add(f"{where}: not an object")
            continue
        name = problems.expect(entry, "name", str, where)
        value = problems.expect(entry, "value", int, where)
        if name is not None:
            counter_names.add(name)
        if value is not None and value == 0:
            problems.add(f"{where}: zero-valued counter '{name}' (schema emits nonzero only)")
    for name in required_counters:
        if name not in counter_names:
            problems.add(f"manifest: required counter '{name}' missing or zero")

    histograms = problems.expect(doc, "histograms", list, "manifest")
    for i, entry in enumerate(histograms or []):
        where = f"histograms[{i}]"
        if not isinstance(entry, dict):
            problems.add(f"{where}: not an object")
            continue
        problems.expect(entry, "name", str, where)
        problems.expect(entry, "count", int, where)
        problems.expect(entry, "sum", int, where)
        buckets = problems.expect(entry, "buckets", list, where)
        for j, bucket in enumerate(buckets or []):
            bwhere = f"{where}.buckets[{j}]"
            if not isinstance(bucket, dict):
                problems.add(f"{bwhere}: not an object")
                continue
            problems.expect(bucket, "le_log2", int, bwhere)
            problems.expect(bucket, "count", int, bwhere)

    return problems.messages


SERVE_OPS = ("ingest", "list", "rank", "check", "diff", "stats", "shutdown")


def check_serve_response(doc: object, where: str, expect_ids: list[str] | None,
                         index: int) -> list[str]:
    """Validate one serve protocol response object (serve::Response)."""
    problems = Problems()
    if not isinstance(doc, dict):
        return [f"{where}: not an object"]

    version = problems.expect(doc, "serve_version", int, where)
    if version is not None and version != 1:
        problems.add(f"{where}: unsupported serve_version {version}")

    request_id = problems.expect(doc, "request_id", str, where)
    if request_id == "":
        problems.add(f"{where}: request_id must echo the request (empty)")
    if expect_ids is not None and index < len(expect_ids):
        if request_id is not None and request_id != expect_ids[index]:
            problems.add(
                f"{where}: request_id '{request_id}' != expected '{expect_ids[index]}'"
            )

    status = problems.expect(doc, "status", str, where)
    if status is not None and status not in ("ok", "error"):
        problems.add(f"{where}: status '{status}' is not ok/error")

    op = problems.expect(doc, "op", str, where)
    if op is not None and op not in SERVE_OPS:
        # An unparseable request cannot echo an op; that is only legal on an
        # error response.
        if not (op == "" and status == "error"):
            problems.add(f"{where}: unknown op '{op}'")

    exit_code = problems.expect(doc, "exit_code", int, where)
    if status == "error" and exit_code == 0:
        problems.add(f"{where}: status 'error' with exit_code 0")
    if status == "error":
        error = problems.expect(doc, "error", str, where)
        if error == "":
            problems.add(f"{where}: status 'error' but 'error' message is empty")
    elif "error" in doc:
        problems.add(f"{where}: status 'ok' must omit the 'error' field")

    # Shared RunManifest v1 fields: same names, same types as --stats output.
    problems.expect(doc, "tool_version", str, where)
    command = problems.expect(doc, "command", list, where)
    if command is not None and not all(isinstance(c, str) for c in command):
        problems.add(f"{where}: command entries must be strings")
    for key in ("wall_ns", "cpu_ns", "peak_rss_kb"):
        value = problems.expect(doc, key, int, where)
        if value is not None and value < 0:
            problems.add(f"{where}: {key} {value} is negative")

    problems.expect(doc, "output", str, where)
    problems.expect(doc, "chatter", str, where)
    # Op-specific extras ("run", "runs", "serve", ...) are inlined as extra
    # top-level keys; their schemas are additive and not pinned here.
    return problems.messages


def check_serve(path: str, expect_ids: list[str] | None) -> tuple[list[str], int]:
    """Validate a line-delimited serve session transcript. Each line must be
    one complete JSON response object (the framing IS the contract: a reply
    that spills across lines breaks every line-oriented client)."""
    problems: list[str] = []
    responses = 0
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [f"cannot read {path}: {e}"], 0
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        if not line.strip():
            problems.append(f"{where}: blank line inside a response stream")
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"{where}: not valid JSON ({e})")
            continue
        problems.extend(check_serve_response(doc, where, expect_ids, responses))
        responses += 1
    if responses == 0:
        problems.append("no responses found (empty session transcript)")
    if expect_ids is not None and responses != len(expect_ids):
        problems.append(
            f"expected {len(expect_ids)} response(s) for --expect-ids, found {responses}"
        )
    return problems, responses


PERFDIFF_VERDICTS = ("unchanged", "improved", "regressed", "added", "removed")


def check_perfdiff(doc: object) -> list[str]:
    """Validate `difftrace perf diff --json` output (obs::PerfDiffReport)."""
    problems = Problems()
    if not isinstance(doc, dict):
        return ["document root is not an object"]

    version = problems.expect(doc, "perfdiff_version", int, "perfdiff")
    if version is not None and version != 1:
        problems.add(f"perfdiff: unsupported perfdiff_version {version}")
    problems.expect(doc, "base", str, "perfdiff")
    problems.expect(doc, "head", str, "perfdiff")
    problems.expect(doc, "rel_threshold", (int, float), "perfdiff")
    problems.expect(doc, "abs_floor_ns", int, "perfdiff")
    problems.expect(doc, "base_wall_ns", int, "perfdiff")
    problems.expect(doc, "head_wall_ns", int, "perfdiff")
    verdict = problems.expect(doc, "verdict", str, "perfdiff")
    if verdict is not None and verdict not in ("ok", "regressed"):
        problems.add(f"perfdiff: verdict '{verdict}' is not ok/regressed")
    exit_code = problems.expect(doc, "exit_code", int, "perfdiff")
    if exit_code is not None and exit_code not in (0, 3):
        problems.add(f"perfdiff: exit_code {exit_code} is not 0/3")
    if verdict is not None and exit_code is not None:
        if (verdict == "regressed") != (exit_code == 3):
            problems.add(f"perfdiff: verdict '{verdict}' disagrees with exit_code {exit_code}")

    summary = problems.expect(doc, "summary", dict, "perfdiff")
    for key in PERFDIFF_VERDICTS:
        if summary is not None:
            problems.expect(summary, key, int, "summary")

    phases = problems.expect(doc, "phases", list, "perfdiff")
    tally = dict.fromkeys(PERFDIFF_VERDICTS, 0)
    for i, phase in enumerate(phases or []):
        where = f"phases[{i}]"
        if not isinstance(phase, dict):
            problems.add(f"{where}: not an object")
            continue
        problems.expect(phase, "path", str, where)
        problems.expect(phase, "base_wall_ns", int, where)
        problems.expect(phase, "head_wall_ns", int, where)
        problems.expect(phase, "base_count", int, where)
        problems.expect(phase, "head_count", int, where)
        problems.expect(phase, "ratio", (int, float), where)
        phase_verdict = problems.expect(phase, "verdict", str, where)
        if phase_verdict is not None:
            if phase_verdict not in PERFDIFF_VERDICTS:
                problems.add(f"{where}: unknown verdict '{phase_verdict}'")
            else:
                tally[phase_verdict] += 1
    if isinstance(summary, dict):
        for key in PERFDIFF_VERDICTS:
            if isinstance(summary.get(key), int) and summary[key] != tally[key]:
                problems.add(
                    f"perfdiff: summary.{key} = {summary[key]} but phases tally {tally[key]}"
                )

    counters = problems.expect(doc, "counters", list, "perfdiff")
    for i, entry in enumerate(counters or []):
        where = f"counters[{i}]"
        if not isinstance(entry, dict):
            problems.add(f"{where}: not an object")
            continue
        problems.expect(entry, "name", str, where)
        problems.expect(entry, "base", int, where)
        problems.expect(entry, "head", int, where)

    selftrace = problems.expect(doc, "selftrace", dict, "perfdiff")
    if selftrace is not None:
        problems.expect(selftrace, "ran", bool, "selftrace")
        problems.expect(selftrace, "identical", bool, "selftrace")
        problems.expect(selftrace, "distance", int, "selftrace")
        problems.expect(selftrace, "note", str, "selftrace")

    return problems.messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", help="manifest JSON written by --stats=FILE")
    parser.add_argument(
        "--perfdiff",
        action="store_true",
        help="validate `difftrace perf diff --json` output instead of a run manifest",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="validate a line-delimited serve session transcript (one JSON "
        "response per line, as collected via `difftrace query --raw`)",
    )
    parser.add_argument(
        "--expect-ids",
        default=None,
        metavar="ID,ID,...",
        help="with --serve: comma-separated request_ids the responses must echo, in order",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=0.0,
        help="minimum phase coverage (fraction of root wall time, e.g. 0.95)",
    )
    parser.add_argument(
        "--require-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="counter that must be present (repeatable)",
    )
    args = parser.parse_args()

    if args.serve:
        expect_ids = args.expect_ids.split(",") if args.expect_ids else None
        serve_problems, responses = check_serve(args.manifest, expect_ids)
        if serve_problems:
            for message in serve_problems:
                print(f"check_manifest: {message}", file=sys.stderr)
            print(
                f"check_manifest: {args.manifest}: {len(serve_problems)} problem(s)",
                file=sys.stderr,
            )
            return 1
        print(f"check_manifest: {args.manifest}: serve ok ({responses} response(s))")
        return 0

    try:
        with open(args.manifest, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_manifest: cannot read {args.manifest}: {e}", file=sys.stderr)
        return 1

    if args.perfdiff:
        problems = check_perfdiff(doc)
    else:
        problems = check_manifest(doc, args.min_coverage, args.require_counter)
    if problems:
        for message in problems:
            print(f"check_manifest: {message}", file=sys.stderr)
        print(f"check_manifest: {args.manifest}: {len(problems)} problem(s)", file=sys.stderr)
        return 1

    if args.perfdiff:
        print(
            f"check_manifest: {args.manifest}: perfdiff ok "
            f"({len(doc.get('phases', []))} phase(s), verdict {doc.get('verdict')})"
        )
        return 0

    phases = doc.get("phases", [])
    print(
        f"check_manifest: {args.manifest}: ok "
        f"({len(phases)} phase(s), {len(doc.get('counters', []))} counter(s), "
        f"coverage {phase_coverage(phases):.3f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
