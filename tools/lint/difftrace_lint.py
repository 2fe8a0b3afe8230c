#!/usr/bin/env python3
"""difftrace_lint: file-scope invariant linter for the difftrace tree.

Enforces project invariants that neither the compiler nor clang-tidy checks,
with one stable rule id per invariant (see RULES below, or --list-rules).
Companion to the Clang -Wthread-safety build: thread-safety analysis proves
lock discipline inside annotated code; this linter proves the *perimeter*
invariants — that raw primitives, hidden nondeterminism, unbounded decodes,
and stray side channels do not creep back in.

Scanning model
--------------
Pure textual scan of C++ sources, one file at a time (no compile, no AST):
comments and string/char literals are stripped first (tracking block
comments and raw strings across lines), so prose and log text never trip a
rule. This is deliberately dumb and therefore fast, dependency-free, and
runnable on any checkout; the syntactic rules are chosen so that the token
patterns are the invariant.

Suppressions
------------
A finding on line N is suppressed by `// NOLINT-DT(rule)` in a comment on
line N (same-line, like clang-tidy's NOLINT). Multiple rules:
`NOLINT-DT(rule-a, rule-b)`; `NOLINT-DT(*)` suppresses every rule on the
line. Suppressions should carry a reason after a colon:
`// NOLINT-DT(bounded-decode): strict-by-contract API`.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys
from typing import Callable, Iterable, Optional

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class Rule:
    rule_id: str
    summary: str
    # Returns True when `path` is exempt from this rule entirely.
    exempt: Callable[[pathlib.PurePath], bool]
    # Scans stripped lines, yielding (line_number, message).
    scan: Callable[[list[str]], Iterable[tuple[int, str]]]


def _parts(path: pathlib.PurePath) -> set[str]:
    return set(path.parts)


def _has_dir(path: pathlib.PurePath, *names: str) -> bool:
    parts = _parts(path)
    return any(name in parts for name in names)


# --- stream-discipline ----------------------------------------------------
# Only the CLI and the demo apps own process stdout; everything else returns
# data or writes through the obs/ sinks. printf-family output from a library
# corrupts machine-readable CLI output (difftrace --json) and breaks the
# deterministic-output contract.

_STREAM_RE = re.compile(
    r"std\s*::\s*cout"
    r"|(?<![\w:.>])printf\s*\("  # bare printf( — not snprintf/fprintf/obj.printf
    r"|(?<![\w:.>])puts\s*\("
    r"|(?<![\w:.>])putchar\s*\("
    r"|fprintf\s*\(\s*stdout\b"
)


def _scan_stream(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        if _STREAM_RE.search(line):
            yield i, "writes to process stdout outside cli/ and apps/ (return data or use obs/ sinks)"


# --- bounded-decode -------------------------------------------------------
# Codec decoders expose two entry points: strict decode(bytes) — unbounded,
# throws on damage — and decode_prefix(bytes, cap) — bounded, best-effort.
# Outside the codec layer itself only the bounded/tolerant wrappers
# (TraceStore::decode / decode_tolerant) may drive a decoder: raw strict
# decodes on unvalidated bytes are how a truncated archive becomes a crash.

_DECODE_RE = re.compile(r"\bdecoder\s*(?:->|\.)\s*decode\s*\(")


def _scan_decode(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        if _DECODE_RE.search(line):
            yield i, "unbounded decoder->decode() outside the codec layer (use decode_prefix or the TraceStore wrappers)"


# --- determinism ----------------------------------------------------------
# The pipeline's contract is byte-identical output at any job count; wall
# clock and ambient randomness are the two classic ways to silently break
# it. Chaos (fault injection) and bench code are exempt by construction.

_DETERMINISM_RE = re.compile(
    r"(?<![\w:])time\s*\("  # ::time(nullptr) — not steady_clock::now, not wall_time(
    r"|(?<![\w:])s?rand\s*\("
    r"|std\s*::\s*random_device"
)


def _scan_determinism(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        if _DETERMINISM_RE.search(line):
            yield i, "ambient nondeterminism (time()/rand()/random_device) outside chaos/bench"


# --- naked-new ------------------------------------------------------------
# Ownership is expressed with containers and make_unique/make_shared; a
# naked new/delete pair is a leak waiting for the first exception between
# them. (Placement new would also match — none exists in this tree; if one
# appears it deserves the NOLINT-DT it will need.)

_NEW_RE = re.compile(r"(?<![\w:])new\b(?!\s*\()")  # `new T`, not `operator new(`
_DELETE_RE = re.compile(r"(?<![\w:])delete\b(?!\s*\()")


def _scan_naked_new(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        # `= delete;` / `= delete ;` declarations are the C++ idiom, not a
        # deallocation; skip matches immediately preceded by `=`.
        if _NEW_RE.search(line):
            yield i, "naked new (use make_unique/make_shared or a container)"
            continue
        for m in _DELETE_RE.finditer(line):
            before = line[: m.start()].rstrip()
            if before.endswith("="):
                continue  # deleted special member function
            yield i, "naked delete (ownership belongs in a smart pointer)"
            break


# --- task-throw -----------------------------------------------------------
# Pool worker threads run ticks with no exception handler: a throw escaping
# a posted lambda is std::terminate. Every fallible tick must catch and
# stash its exception (the Graph / parallel_for pattern). The scanner finds
# `post(` call arguments, locates lambda bodies inside the argument list,
# and flags `throw` tokens not enclosed in a `try { ... }` *within the
# lambda*. Throws inside a try are fine — they are caught before escaping.

_POST_RE = re.compile(r"(?<![\w:])(?:\w+\s*(?:\.|->)\s*)?post\s*\(")
_LAMBDA_INTRO_RE = re.compile(r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:\w+\s*)*\{")
_THROW_RE = re.compile(r"(?<![\w:])throw\b")
_TRY_RE = re.compile(r"(?<![\w:])try\b")


def _scan_task_throw(lines: list[str]) -> Iterable[tuple[int, str]]:
    text = "\n".join(lines)
    for post in _POST_RE.finditer(text):
        # Slice the post(...) argument list by balancing parens.
        open_paren = text.index("(", post.start() + post.group(0).index("post"))
        depth = 0
        end = None
        for j in range(open_paren, len(text)):
            ch = text[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        if end is None:
            continue  # unbalanced (macro soup); not this linter's fight
        args = text[open_paren + 1 : end]
        args_offset = open_paren + 1
        for lam in _LAMBDA_INTRO_RE.finditer(args):
            body_start = args_offset + lam.end()  # position just past `{`
            # Balance braces to find the lambda body, tracking try-block
            # nesting depth as we go.
            brace = 1
            try_depth = 0  # how many enclosing try-blocks are open
            try_stack: list[int] = []  # brace depths at which a try opened
            k = body_start
            pending_try = False
            while k < len(text) and brace > 0:
                ch = text[k]
                if ch == "{":
                    if pending_try:
                        try_stack.append(brace)
                        try_depth += 1
                        pending_try = False
                    brace += 1
                elif ch == "}":
                    brace -= 1
                    if try_stack and brace == try_stack[-1]:
                        try_stack.pop()
                        try_depth -= 1
                else:
                    m_try = _TRY_RE.match(text, k)
                    if m_try:
                        pending_try = True
                        k = m_try.end()
                        continue
                    m_throw = _THROW_RE.match(text, k)
                    if m_throw:
                        if try_depth == 0:
                            line_no = text.count("\n", 0, k) + 1
                            yield line_no, "throw may escape a Pool task lambda (workers have no handler; catch and stash the exception)"
                        k = m_throw.end()
                        continue
                k += 1
    return


# --- sim-only-injection ---------------------------------------------------
# The fault injector's hook surface (simfault::hooks::*) may be compiled
# only into the simulated runtimes it perturbs — simmpi, simomp, the
# miniapps, and simfault itself. A hook call in the analysis pipeline or
# the CLI would mean injected faults could perturb *analysis* of a trace,
# not just its collection, breaking the determinism contract. (Arming via
# simfault::InjectorSession / parse_plan is control-plane and stays legal
# anywhere.)

_SIM_HOOK_RE = re.compile(r"\bsimfault\s*::\s*hooks\s*::")


def _scan_sim_inject(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        if _SIM_HOOK_RE.search(line):
            yield i, "simfault::hooks:: call outside the simulated runtimes (injection points live in simmpi/simomp/apps only)"


# --- raw-mutex ------------------------------------------------------------
# All locking goes through util::Mutex / util::MutexLock / util::CondVar so
# Clang thread-safety analysis can see it; raw std primitives are invisible
# to the proof. Additionally, a util::Mutex member in a file with no
# DT_GUARDED_BY annotation guards nothing the analysis can check — the
# capability exists but no data is tied to it.

_RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b"
)
_MUTEX_MEMBER_RE = re.compile(r"\butil\s*::\s*Mutex\s+\w+\s*;")


def _scan_raw_mutex(lines: list[str]) -> Iterable[tuple[int, str]]:
    has_annotation = any("DT_GUARDED_BY" in line or "DT_ACQUIRE" in line for line in lines)
    first_member: Optional[int] = None
    for i, line in enumerate(lines, start=1):
        if _RAW_MUTEX_RE.search(line):
            yield i, "raw std synchronization primitive (use util::Mutex/MutexLock/CondVar so thread-safety analysis sees it)"
        if first_member is None and _MUTEX_MEMBER_RE.search(line):
            first_member = i
    if first_member is not None and not has_annotation:
        yield first_member, "util::Mutex member but no DT_GUARDED_BY in this file (tie the guarded data to the capability)"


# --- obs-sink-discipline --------------------------------------------------
# The obs layer is the telemetry *producer*: exporters, the perf differ,
# and the manifest renderer all emit through an explicit std::ostream& sink
# the caller chooses (stdout, --out FILE, a test's stringstream). An
# ambient stream write inside src/obs/ — std::cerr included — bypasses the
# caller's sink choice, breaks the byte-identical-export contract, and
# cannot be captured by the CLI's stream-discipline epilogue. Chatter
# belongs to the caller (the CLI routes it via util::status_line).
# stream-discipline already polices stdout here; this rule closes the
# stderr/FILE* side for the one layer whose whole job is well-routed output.

_OBS_SINK_RE = re.compile(
    r"std\s*::\s*cerr"
    r"|std\s*::\s*clog"
    r"|(?<![\w:.>])fprintf\s*\("
    r"|(?<![\w:.>])fputs\s*\("
    r"|(?<![\w:.>])fputc\s*\("
    r"|(?<![\w:.>])perror\s*\("
)


def _scan_obs_sink(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        if _OBS_SINK_RE.search(line):
            yield i, "ambient stream write in the obs layer (emit through the explicit std::ostream& sink; chatter belongs to the caller)"


# --- serve-protocol-discipline --------------------------------------------
# The serve daemon's contract is "one JSON document per line on the socket,
# chatter only on streams the host passes in". ANY ambient process-stream
# write inside src/serve/ — stdout or stderr, iostream or stdio — either
# corrupts protocol framing (a stray line between responses) or escapes the
# response's `chatter` capture, so a client loses daemon output it was
# promised. Results travel in Response::output, chatter in
# Response::chatter, daemon-side logging through the std::ostream& the
# hosting command wires (the CLI points it at its own err stream).
# stream-discipline already bans the stdout half everywhere; this rule adds
# the stderr/FILE* half for the one directory that speaks a framed protocol.

_SERVE_PROTOCOL_RE = re.compile(
    r"std\s*::\s*cout"
    r"|std\s*::\s*cerr"
    r"|std\s*::\s*clog"
    r"|(?<![\w:.>])printf\s*\("
    r"|(?<![\w:.>])fprintf\s*\("
    r"|(?<![\w:.>])fputs\s*\("
    r"|(?<![\w:.>])fputc\s*\("
    r"|(?<![\w:.>])puts\s*\("
    r"|(?<![\w:.>])putchar\s*\("
    r"|(?<![\w:.>])perror\s*\("
)


def _scan_serve_protocol(lines: list[str]) -> Iterable[tuple[int, str]]:
    for i, line in enumerate(lines, start=1):
        if _SERVE_PROTOCOL_RE.search(line):
            yield i, "ambient process-stream write in the serve layer (route results into Response::output/chatter and logging through the injected std::ostream& sink)"


# --------------------------------------------------------------------------

RULES: list[Rule] = [
    Rule(
        "stream-discipline",
        "no std::cout/printf outside cli/ and apps/",
        exempt=lambda p: _has_dir(p, "cli", "apps", "tools", "examples"),
        scan=_scan_stream,
    ),
    Rule(
        "bounded-decode",
        "no unbounded decoder->decode() outside the codec layer (src/compress)",
        exempt=lambda p: _has_dir(p, "compress"),
        scan=_scan_decode,
    ),
    Rule(
        "determinism",
        "no time()/rand()/std::random_device outside chaos/bench",
        exempt=lambda p: _has_dir(p, "chaos", "bench"),
        scan=_scan_determinism,
    ),
    Rule(
        "naked-new",
        "no naked new/delete (smart pointers and containers own memory)",
        exempt=lambda p: False,
        scan=_scan_naked_new,
    ),
    Rule(
        "task-throw",
        "no throw escaping a Pool task lambda (workers have no handler)",
        exempt=lambda p: False,
        scan=_scan_task_throw,
    ),
    Rule(
        "sim-only-injection",
        "no simfault::hooks:: call sites outside simfault/simmpi/simomp/apps",
        exempt=lambda p: _has_dir(p, "simfault", "simmpi", "simomp", "apps"),
        scan=_scan_sim_inject,
    ),
    Rule(
        "obs-sink-discipline",
        "no ambient stream writes (std::cerr/fprintf/...) inside src/obs/",
        exempt=lambda p: not _has_dir(p, "obs"),
        scan=_scan_obs_sink,
    ),
    Rule(
        "serve-protocol-discipline",
        "no ambient process-stream writes (stdout or stderr) inside src/serve/",
        exempt=lambda p: not _has_dir(p, "serve"),
        scan=_scan_serve_protocol,
    ),
    Rule(
        "raw-mutex",
        "no raw std mutex primitives; util::Mutex members must guard annotated data",
        exempt=lambda p: p.name in ("mutex.hpp", "thread_annotations.hpp") and _has_dir(p, "util"),
        scan=_scan_raw_mutex,
    ),
]

RULE_IDS = {rule.rule_id for rule in RULES}

# NOLINT-DT shares one suppression namespace with the dtsa static analyzer
# (src/dtsa/): its rule ids are legal in suppressions this linter scans past
# (dtsa enforces them; this linter merely must not flag them as unknown).
DTSA_RULE_IDS = {
    "blocking-under-lock",
    "alloc-in-hot-path",
    "unbounded-decode-reach",
    "lock-order-consistency",
    "stream-reach",
}
KNOWN_SUPPRESSIBLE = RULE_IDS | DTSA_RULE_IDS

# --------------------------------------------------------------------------
# Source preprocessing: strip comments and literals, collect suppressions
# --------------------------------------------------------------------------

_NOLINT_RE = re.compile(r"NOLINT-DT\(\s*([^)]*?)\s*\)")
_RAW_STRING_OPEN_RE = re.compile(r'R"([^ ()\\\t\v\f\n]{0,16})\(')


@dataclasses.dataclass
class Preprocessed:
    lines: list[str]  # stripped of comments/strings, 0-based
    suppressions: dict[int, set[str]]  # 1-based line -> rule ids ('*' = all)
    unknown_suppressions: list[tuple[int, str]]  # NOLINT-DT of a rule that does not exist


def preprocess(text: str) -> Preprocessed:
    """Strips comments, string and char literals; records NOLINT-DT markers.

    Stripped spans are replaced with spaces so column/offsets and line
    structure survive. Handles // and /* */ comments, "..."/'...' with
    escapes, and R"delim(...)delim" raw strings, all across line breaks.
    """
    out: list[str] = []
    suppressions: dict[int, set[str]] = {}
    unknown: list[tuple[int, str]] = []

    def note_suppressions(comment: str, line_no: int) -> None:
        for m in _NOLINT_RE.finditer(comment):
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            for r in rules:
                if r != "*" and r not in KNOWN_SUPPRESSIBLE:
                    unknown.append((line_no, r))
            suppressions.setdefault(line_no, set()).update(rules)

    i = 0
    line_no = 1
    n = len(text)
    buf: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "\n":
            out.append("".join(buf))
            buf = []
            line_no += 1
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            if end == -1:
                end = n
            note_suppressions(text[i:end], line_no)
            i = end
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                end = n
            else:
                end += 2
            comment = text[i:end]
            # A NOLINT in a block comment applies to the line it sits on.
            local_line = line_no
            for part in comment.split("\n"):
                note_suppressions(part, local_line)
                local_line += 1
            for c in comment:
                if c == "\n":
                    out.append("".join(buf))
                    buf = []
                    line_no += 1
            i = end
            continue
        raw = _RAW_STRING_OPEN_RE.match(text, i) if ch == "R" else None
        if raw:
            # `R` must start the literal token. An identifier character right
            # before it (beyond a bare encoding prefix u/U/L/u8) makes this
            # the tail of a longer identifier — `MACRO_R"text("` is an
            # ordinary string after an identifier, and treating it as a raw
            # string would swallow everything up to a `)text"` that never
            # comes.
            j = i
            while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "_"):
                j -= 1
            if text[j:i] not in ("", "u", "U", "L", "u8"):
                raw = None
        if raw:
            closer = ")" + raw.group(1) + '"'
            end = text.find(closer, raw.end())
            end = n if end == -1 else end + len(closer)
            for c in text[i:end]:
                if c == "\n":
                    out.append("".join(buf))
                    buf = []
                    line_no += 1
            buf.append('""')
            i = end
            continue
        if ch == "'" and 0 < i and i + 1 < n and text[i - 1].isalnum() and text[i + 1].isalnum():
            # Digit separator (1'000'000), not a char literal: opening one
            # here would swallow the rest of the line past the "closing"
            # separator. (`return'x'` without a space hits this too — write
            # the space.)
            buf.append(ch)
            i += 1
            continue
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            # Unterminated-on-line literals (e.g. apostrophes would have been
            # in comments, already stripped) just end at the newline.
            end = min(j + 1, n) if j < n and text[j] == quote else j
            end = max(end, i + 1)
            # A backslash-newline inside the literal was consumed above:
            # emit the line breaks it spanned or every later line drifts.
            for c in text[i:end]:
                if c == "\n":
                    out.append("".join(buf))
                    buf = []
                    line_no += 1
            buf.append(quote + quote)
            i = end
            continue
        buf.append(ch)
        i += 1
    if buf:
        out.append("".join(buf))
    return Preprocessed(out, suppressions, unknown)


# --------------------------------------------------------------------------
# SARIF export (shared semantics with dtsa's --sarif; validated by
# tools/check_sarif.py)
# --------------------------------------------------------------------------

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
    "sarif-schema-2.1.0.json"
)


def sarif_document(findings: list[Finding]) -> dict:
    summaries = {rule.rule_id: rule.summary for rule in RULES}
    # Pseudo-rules (unknown-suppression, io-error) appear only when emitted.
    for f in findings:
        summaries.setdefault(f.rule, f.rule)
    return {
        "version": "2.1.0",
        "$schema": _SARIF_SCHEMA_URI,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "difftrace_lint",
                        "informationUri": "https://github.com/difftrace/difftrace",
                        "rules": [
                            {"id": rule_id, "shortDescription": {"text": summary}}
                            for rule_id, summary in sorted(summaries.items())
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.rule,
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.path},
                                    "region": {"startLine": max(f.line, 1)},
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
            }
        ],
    }


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h", ".inl"}


def iter_sources(paths: list[pathlib.Path]) -> Iterable[pathlib.Path]:
    for path in paths:
        if path.is_file():
            if path.suffix in CXX_SUFFIXES:
                yield path
        elif path.is_dir():
            yield from sorted(p for p in path.rglob("*") if p.is_file() and p.suffix in CXX_SUFFIXES)


def lint_file(path: pathlib.Path, display: str) -> tuple[list[Finding], list[Finding]]:
    """Returns (findings, suppression_problems) for one file."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(display, 0, "io-error", str(e))], []
    pre = preprocess(text)
    rel = pathlib.PurePath(display)
    findings: list[Finding] = []
    for rule in RULES:
        if rule.exempt(rel):
            continue
        for line_no, message in rule.scan(pre.lines):
            suppressed = pre.suppressions.get(line_no, set())
            if "*" in suppressed or rule.rule_id in suppressed:
                continue
            findings.append(Finding(display, line_no, rule.rule_id, message))
    problems = [
        Finding(display, line_no, "unknown-suppression", f"NOLINT-DT names unknown rule '{rule_id}'")
        for line_no, rule_id in pre.unknown_suppressions
    ]
    return findings, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="difftrace_lint",
        description="difftrace invariant linter (see module docstring; --list-rules for rule ids)",
    )
    parser.add_argument("paths", nargs="*", default=None, help="files or directories (default: src tools)")
    parser.add_argument("--root", default=".", help="repo root; paths are resolved and reported relative to it")
    parser.add_argument("--ci", action="store_true", help="emit GitHub Actions ::error annotations as well")
    parser.add_argument("--json", action="store_true", help="emit findings as a JSON array on stdout")
    parser.add_argument("--sarif", metavar="FILE", help="also write findings as SARIF 2.1 to FILE")
    parser.add_argument("--list-rules", action="store_true", help="print rule ids and summaries, then exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id:20} {rule.summary}")
        return 0

    root = pathlib.Path(args.root).resolve()
    raw_paths = args.paths or ["src", "tools"]
    targets: list[pathlib.Path] = []
    for raw in raw_paths:
        p = pathlib.Path(raw)
        if not p.is_absolute():
            p = root / p
        if not p.exists():
            print(f"difftrace_lint: no such path: {raw}", file=sys.stderr)
            return 2
        targets.append(p)

    all_findings: list[Finding] = []
    files = 0
    for source in iter_sources(targets):
        files += 1
        try:
            display = str(source.resolve().relative_to(root))
        except ValueError:
            display = str(source)
        findings, problems = lint_file(source, display)
        all_findings.extend(findings)
        all_findings.extend(problems)

    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.sarif:
        pathlib.Path(args.sarif).write_text(
            json.dumps(sarif_document(all_findings), indent=2) + "\n", encoding="utf-8"
        )

    if args.json:
        print(json.dumps([dataclasses.asdict(f) for f in all_findings], indent=2))
    else:
        for f in all_findings:
            print(f.render())
    if args.ci:
        for f in all_findings:
            print(f"::error file={f.path},line={f.line}::[{f.rule}] {f.message}")
    if not args.json:
        status = "clean" if not all_findings else f"{len(all_findings)} finding(s)"
        print(f"difftrace_lint: {files} file(s) scanned, {status}", file=sys.stderr)
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
